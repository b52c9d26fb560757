"""Errors of the out-of-core streaming subsystem."""

from __future__ import annotations


class StreamError(Exception):
    """A streaming pipeline was misconfigured or fed inconsistent state."""


class CheckpointError(StreamError):
    """A run record (the checkpoint) is missing or belongs to a different
    run."""


class CheckpointCorruptError(CheckpointError):
    """A run record's header line failed CRC or version verification.

    Distinct from a *missing* checkpoint: the file exists but cannot be
    trusted at all — its header was torn or rotted, or it is a JSON
    checkpoint written by an earlier version — and resuming from it
    would silently produce a half-marked relation.  The error names the
    file and the byte offset where verification failed; the run must
    restart without resume.  (A damaged *tail* is not this error: resume
    cuts it off and continues from the last CRC-valid chunk record.)
    """

    def __init__(self, path, reason: str, offset: int = 0):
        self.path = str(path)
        self.reason = reason
        self.offset = offset
        super().__init__(
            f"corrupt checkpoint {self.path} (offset {offset}): {reason}"
        )


class BadRowError(StreamError, ValueError):
    """A CSV record could not be parsed under the declared schema.

    Subclasses ``ValueError``, the error a malformed record raises
    outside the stream (``read_csv``); carries the 1-based data-row number so
    ``on_bad_rows='quarantine'`` sidecars and error messages can point
    at the exact line.
    """

    def __init__(self, path, number: int, reason: str):
        self.path = str(path)
        self.number = number
        self.reason = reason
        super().__init__(f"{self.path}: bad CSV row {number}: {reason}")

    def __reduce__(self):
        # Exceptions pickle as ``cls(*args)`` by default, which would
        # re-call this three-argument __init__ with just the message;
        # parallel workers raise BadRowError across the process boundary,
        # so spell out the real constructor arguments.
        return (BadRowError, (self.path, self.number, self.reason))
