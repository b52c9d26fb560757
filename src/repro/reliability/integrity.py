"""End-to-end integrity: chunk-hash manifests, audit, and run leases.

The crash-safety layer (checkpoints, retries) recovers from *loud*
failures — an exception, a SIGKILL.  This module covers the *quiet*
ones: a bit flips in an already-flushed chunk, a disk fills mid-member,
a second ``--resume`` process races the first.  Three mechanisms:

* **Chunk-hash manifest** — every sink ``write_chunk`` records a
  sha256 content digest plus its byte range (CSV/gzip) or rowid range
  (SQLite) in a :class:`ChunkManifest`.  The streaming pipeline appends
  each entry, together with the chunk's counter deltas and durable sink
  state, to an append-only *journal* file next to the checkpoint
  (``<checkpoint>.journal``, CRC-guarded JSONL).  :func:`audit_stream`
  re-hashes any marked output against its journal and localizes damage
  to the exact chunk.
* **Verified resume** — instead of trusting the surviving output
  prefix, resume re-hashes it against the journal and rewinds to the
  last *verified* chunk, so recovery stays byte-identical even under
  bit-rot (see ``stream_mark(verify_resume=True)``).
* **Run lease** — :class:`RunLock` is an ``O_EXCL`` lease file (pid +
  run fingerprint + heartbeat mtime) on the checkpoint/sink pair.  A
  concurrent embed/resume fails fast with :class:`RunLockedError`; a
  lease whose holder died or stopped heartbeating is taken over.

This module deliberately imports nothing from :mod:`repro.stream` (the
stream layer imports *us*), so its errors are plain ``Exception``
subclasses, not :class:`~repro.stream.errors.StreamError`.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path

from .faults import BITFLIP, fault_point, injection_armed, active_plan

#: journal line-format version (bumped on incompatible change; a
#: mismatched journal is treated as absent, never misread)
JOURNAL_VERSION = 1

#: only digest algorithm currently recorded; named in the journal header
#: so a future change stays self-describing
ALGORITHM = "sha256"

#: heartbeat silence (seconds) after which a lease from a *live* pid is
#: still considered abandoned and taken over
DEFAULT_STALE_AFTER = 300.0


class IntegrityError(Exception):
    """A persisted artifact no longer matches its recorded digests.

    ``chunk`` localizes the damage (``-1`` = the header segment,
    ``None`` = not chunk-addressable, e.g. a missing journal).
    """

    def __init__(self, path, reason: str, chunk: int | None = None):
        self.path = str(path)
        self.reason = reason
        self.chunk = chunk
        where = self.path if chunk is None else f"{self.path} chunk {chunk}"
        super().__init__(f"integrity violation at {where}: {reason}")


class RunLockedError(Exception):
    """Another process holds the run lease on this checkpoint/sink."""

    def __init__(self, path, holder_pid: int | None = None):
        self.path = str(path)
        self.holder_pid = holder_pid
        holder = f" (held by pid {holder_pid})" if holder_pid else ""
        super().__init__(
            f"run is locked by an active lease at {self.path}{holder}; "
            f"a concurrent embed/resume on the same output is refused"
        )


# ---------------------------------------------------------------------------
# digests and manifests
# ---------------------------------------------------------------------------


def digest_rows(rows) -> str:
    """Canonical row-content digest: sha256 over the rows as JSON.

    The JSON rendering of the typed values (int/float/str) round-trips
    exactly through every sink format — CSV text, gzip members, SQLite
    storage — so the same rows hash identically no matter which medium
    carried them.  This is the format-independent half of a chunk's
    identity (the byte digest is the format-dependent half).

    ``json.dumps`` serializes lists and tuples identically (a parsed CSV
    chunk yields lists, SQLite yields tuples), stays type-sensitive
    (``1`` vs ``"1"``), and renders the whole chunk in one C-level call —
    which is what keeps always-on manifest recording affordable on the
    streaming hot path.
    """
    if not isinstance(rows, list):
        rows = list(rows)
    payload = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChunkDigest:
    """One recorded segment: a half-open ``[start, end)`` range.

    For byte sinks (CSV, gzip) the range is byte offsets and ``digest``
    hashes the raw bytes; for SQLite it is row offsets and ``digest``
    equals ``rows_digest``.  ``rows_digest`` is the format-independent
    row-content digest (:func:`digest_rows`) verified-read checks.
    ``index == -1`` marks the header segment.
    """

    index: int
    start: int
    end: int
    digest: str
    rows_digest: str = ""

    def to_dict(self) -> dict:
        return {
            "chunk": self.index,
            "start": self.start,
            "end": self.end,
            "digest": self.digest,
            "rows_digest": self.rows_digest,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChunkDigest":
        return cls(
            index=int(payload["chunk"]),
            start=int(payload["start"]),
            end=int(payload["end"]),
            digest=str(payload["digest"]),
            rows_digest=str(payload.get("rows_digest", "")),
        )


@dataclass
class ChunkManifest:
    """The full digest record of one sink: header segment + chunks.

    ``kind`` is ``"bytes"`` (ranges are byte offsets into the output
    file) or ``"rows"`` (rowid offsets into a SQLite table).
    """

    kind: str
    algorithm: str = ALGORITHM
    header: ChunkDigest | None = None
    entries: list = field(default_factory=list)

    def truncate(self, chunks: int) -> None:
        """Forget entries past chunk ``chunks - 1`` (rollback support)."""
        del self.entries[chunks:]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "header": self.header.to_dict() if self.header else None,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChunkManifest":
        header = payload.get("header")
        return cls(
            kind=str(payload["kind"]),
            algorithm=str(payload.get("algorithm", ALGORITHM)),
            header=ChunkDigest.from_dict(header) if header else None,
            entries=[
                ChunkDigest.from_dict(entry)
                for entry in payload.get("entries", ())
            ],
        )


# ---------------------------------------------------------------------------
# the journal: append-only manifest + per-chunk deltas, CRC per line
# ---------------------------------------------------------------------------
#
# Line 1 is a header record binding the journal to one run fingerprint
# and sink kind; every further line is one committed chunk.  Each line
# carries a CRC-32 over its sorted-keys JSON body (the checkpoint
# module's convention), so a torn or bit-rotted tail is *detected and
# dropped*, preserving the valid prefix — the property resume needs.


def journal_path(checkpoint_path) -> Path:
    """The journal that rides along with ``checkpoint_path``."""
    return Path(str(checkpoint_path) + ".journal")


def _line_crc(body: dict) -> int:
    blob = json.dumps(body, sort_keys=True).encode("utf-8")
    return binascii.crc32(blob) & 0xFFFFFFFF


def _encode_line(body: dict) -> bytes:
    record = dict(body)
    record["crc"] = _line_crc(body)
    return json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """Parse one journal line; ``None`` for anything torn or rotted."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    if crc != _line_crc(record):
        return None
    return record


def write_journal_header(
    path,
    *,
    fingerprint: str,
    kind: str,
    header_entry: ChunkDigest | None,
    open_state: dict | None,
) -> None:
    """Start (or restart) a journal: truncate and write the header line."""
    body = {
        "record": "header",
        "journal_version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "kind": kind,
        "algorithm": ALGORITHM,
        "header_entry": header_entry.to_dict() if header_entry else None,
        "open_state": open_state,
    }
    with open(path, "wb") as handle:
        handle.write(_encode_line(body))
        handle.flush()
        os.fsync(handle.fileno())


def append_journal_chunk(
    path,
    *,
    index: int,
    entry: ChunkDigest,
    delta: dict,
    sink_state: dict | None,
) -> None:
    """Append one committed chunk's record (digest + deltas + state)."""
    body = {
        "record": "chunk",
        "chunk": index,
        "entry": entry.to_dict(),
        "delta": delta,
        "sink_state": sink_state,
    }
    line = _encode_line(body)
    kind = fault_point("journal.append", index)
    if kind == BITFLIP:
        # rot one byte of the line (never the trailing newline) — the
        # CRC must catch it and resume must drop this tail record
        rng = active_plan().rng("journal.append", index)
        pos = rng.randrange(len(line) - 1)
        line = line[:pos] + bytes([line[pos] ^ (1 << rng.randrange(8))]) + line[pos + 1:]
    with open(path, "ab") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def load_journal(path) -> tuple[dict | None, list]:
    """Read a journal tolerantly: ``(header, chunk_records)``.

    Any undecodable or out-of-sequence line ends the read — everything
    before it is the trusted prefix.  A missing file, or a header that
    fails validation, returns ``(None, [])``.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.readlines()
    except (FileNotFoundError, OSError):
        return None, []
    if not lines:
        return None, []
    header = _decode_line(lines[0])
    if (
        header is None
        or header.get("record") != "header"
        or header.get("journal_version") != JOURNAL_VERSION
    ):
        return None, []
    records = []
    for line in lines[1:]:
        record = _decode_line(line)
        if (
            record is None
            or record.get("record") != "chunk"
            or record.get("chunk") != len(records)
            or not isinstance(record.get("entry"), dict)
        ):
            break
        records.append(record)
    return header, records


def truncate_journal(path, chunks: int) -> None:
    """Rewrite the journal keeping the header plus ``chunks`` records."""
    header, records = load_journal(path)
    if header is None:
        return
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_encode_line(header))
        for record in records[:chunks]:
            handle.write(_encode_line(record))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def manifest_from_journal(header: dict, records: list) -> ChunkManifest:
    """Rebuild the :class:`ChunkManifest` a journal prefix describes."""
    header_entry = header.get("header_entry")
    return ChunkManifest(
        kind=str(header.get("kind", "bytes")),
        algorithm=str(header.get("algorithm", ALGORITHM)),
        header=ChunkDigest.from_dict(header_entry) if header_entry else None,
        entries=[ChunkDigest.from_dict(r["entry"]) for r in records],
    )


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

OK = "ok"
CORRUPT = "corrupt"
MISSING = "missing"


@dataclass(frozen=True)
class AuditFinding:
    """One verified segment: header (``index == -1``) or a chunk."""

    index: int
    status: str
    start: int
    end: int
    expected: str
    actual: str = ""
    reason: str = ""


@dataclass
class AuditReport:
    """What :func:`audit_stream` found, chunk by chunk."""

    path: str
    kind: str
    findings: list = field(default_factory=list)
    #: bytes (``kind="bytes"``) or rows (``kind="rows"``) on disk past
    #: the last recorded range — trailing garbage appended post-run
    trailing: int = 0

    @property
    def header_ok(self) -> bool:
        return all(f.status == OK for f in self.findings if f.index == -1)

    @property
    def corrupt(self) -> list:
        """Indices of damaged chunks (header excluded), in order."""
        return [f.index for f in self.findings if f.index >= 0 and f.status != OK]

    @property
    def chunks(self) -> int:
        return sum(1 for f in self.findings if f.index >= 0)

    @property
    def verified_chunks(self) -> int:
        """Length of the leading run of intact chunks (resume target)."""
        count = 0
        for finding in self.findings:
            if finding.index < 0:
                continue
            if finding.status != OK:
                break
            count += 1
        return count

    @property
    def first_corrupt(self) -> int | None:
        damaged = self.corrupt
        return damaged[0] if damaged else None

    @property
    def ok(self) -> bool:
        return (
            self.header_ok
            and not self.corrupt
            and self.trailing == 0
        )

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "ok": self.ok,
            "chunks": self.chunks,
            "verified_chunks": self.verified_chunks,
            "corrupt": self.corrupt,
            "header_ok": self.header_ok,
            "trailing": self.trailing,
            "findings": [
                {
                    "chunk": f.index,
                    "status": f.status,
                    "start": f.start,
                    "end": f.end,
                    "expected": f.expected,
                    "actual": f.actual,
                    "reason": f.reason,
                }
                for f in self.findings
            ],
        }

    def summary(self) -> str:
        unit = "bytes" if self.kind == "bytes" else "rows"
        if self.ok:
            return (
                f"audit: OK — {self.chunks} chunks verified in {self.path}"
            )
        parts = []
        if not self.header_ok:
            parts.append("header segment damaged")
        if self.corrupt:
            listed = ", ".join(str(i) for i in self.corrupt[:8])
            more = "..." if len(self.corrupt) > 8 else ""
            parts.append(
                f"{len(self.corrupt)} corrupt chunk(s): {listed}{more}"
            )
        if self.trailing:
            parts.append(f"{self.trailing} trailing {unit} past the manifest")
        return f"audit: FAILED — {'; '.join(parts)} in {self.path}"


def _audit_bytes(path, manifest: ChunkManifest) -> AuditReport:
    report = AuditReport(path=str(path), kind="bytes")
    targets = ([manifest.header] if manifest.header else []) + list(manifest.entries)
    try:
        size = os.path.getsize(path)
        handle = open(path, "rb")
    except OSError as exc:
        for entry in targets:
            report.findings.append(AuditFinding(
                entry.index, MISSING, entry.start, entry.end,
                entry.digest, reason=str(exc),
            ))
        return report
    with handle:
        for entry in targets:
            if size < entry.end:
                report.findings.append(AuditFinding(
                    entry.index, MISSING, entry.start, entry.end,
                    entry.digest,
                    reason=f"file ends at byte {size}, range needs {entry.end}",
                ))
                continue
            handle.seek(entry.start)
            hasher = hashlib.sha256()
            remaining = entry.end - entry.start
            while remaining:
                block = handle.read(min(remaining, 1 << 20))
                if not block:
                    break
                hasher.update(block)
                remaining -= len(block)
            actual = hasher.hexdigest()
            status = OK if actual == entry.digest else CORRUPT
            report.findings.append(AuditFinding(
                entry.index, status, entry.start, entry.end,
                entry.digest, actual,
                reason="" if status == OK else "byte digest mismatch",
            ))
    last_end = targets[-1].end if targets else 0
    report.trailing = max(0, size - last_end)
    return report


def _quote_identifier(name: str) -> str:
    """SQL-quote ``name`` for SQLite (doubles embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


def _audit_rows(path, manifest: ChunkManifest, table: str) -> AuditReport:
    report = AuditReport(path=str(path), kind="rows")
    quoted = _quote_identifier(table)
    try:
        conn = sqlite3.connect(path)
    except sqlite3.Error as exc:
        for entry in manifest.entries:
            report.findings.append(AuditFinding(
                entry.index, MISSING, entry.start, entry.end,
                entry.digest, reason=str(exc),
            ))
        return report
    try:
        for entry in manifest.entries:
            want = entry.end - entry.start
            try:
                rows = conn.execute(
                    f"SELECT * FROM {quoted} ORDER BY rowid LIMIT ? OFFSET ?",
                    (want, entry.start),
                ).fetchall()
            except sqlite3.Error as exc:
                report.findings.append(AuditFinding(
                    entry.index, CORRUPT, entry.start, entry.end,
                    entry.digest, reason=str(exc),
                ))
                continue
            if len(rows) != want:
                report.findings.append(AuditFinding(
                    entry.index, MISSING, entry.start, entry.end,
                    entry.digest,
                    reason=f"table holds {len(rows)} of {want} rows in range",
                ))
                continue
            actual = digest_rows(rows)
            status = OK if actual == entry.digest else CORRUPT
            report.findings.append(AuditFinding(
                entry.index, status, entry.start, entry.end,
                entry.digest, actual,
                reason="" if status == OK else "row digest mismatch",
            ))
        last_end = manifest.entries[-1].end if manifest.entries else 0
        try:
            total = conn.execute(
                f"SELECT COUNT(*) FROM {quoted}"
            ).fetchone()[0]
            report.trailing = max(0, total - last_end)
        except sqlite3.Error:
            pass
    finally:
        conn.close()
    return report


def audit_stream(
    path,
    *,
    journal=None,
    manifest: ChunkManifest | None = None,
    table: str = "relation",
) -> AuditReport:
    """Verify a marked output against its chunk-hash manifest.

    Pass either the ``journal`` path recorded at mark time (usually
    ``<checkpoint>.journal``) or an in-memory ``manifest``.  Returns an
    :class:`AuditReport` that localizes any damage to the exact chunk;
    raises :class:`IntegrityError` only when the manifest itself is
    unusable (missing/corrupt journal).
    """
    if manifest is None:
        if journal is None:
            raise IntegrityError(
                path, "audit needs a journal path or a manifest"
            )
        header, records = load_journal(journal)
        if header is None:
            raise IntegrityError(
                journal, "journal is missing or its header failed CRC"
            )
        manifest = manifest_from_journal(header, records)
    if manifest.kind == "rows":
        return _audit_rows(path, manifest, table)
    return _audit_bytes(path, manifest)


# ---------------------------------------------------------------------------
# run lease
# ---------------------------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover — other-user pid: alive
        return True
    except OSError:  # pragma: no cover
        return False
    return True


class RunLock:
    """An ``O_EXCL`` lease file guarding one checkpoint/sink pair.

    The lease payload names the holder (pid + run fingerprint); its
    mtime is the heartbeat, refreshed at every committed chunk.  A
    second process trying to acquire fails fast with
    :class:`RunLockedError` — unless the holder's pid is dead or the
    heartbeat is older than ``stale_after`` seconds, in which case the
    lease is taken over (crash-recovery without manual unlocking).
    """

    def __init__(
        self,
        path,
        *,
        fingerprint: str = "",
        stale_after: float = DEFAULT_STALE_AFTER,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.stale_after = stale_after
        self.held = False

    def _payload(self) -> bytes:
        return json.dumps({
            "pid": os.getpid(),
            "fingerprint": self.fingerprint,
            "acquired": time.time(),
        }, sort_keys=True).encode("utf-8")

    def _read_holder(self) -> dict:
        try:
            with open(self.path, "rb") as handle:
                holder = json.loads(handle.read().decode("utf-8"))
            return holder if isinstance(holder, dict) else {}
        except (OSError, ValueError, UnicodeDecodeError):
            # unreadable lease: treat as anonymous (stale-by-age only)
            return {}

    def _is_stale(self) -> bool:
        holder = self._read_holder()
        pid = int(holder.get("pid", 0) or 0)
        if pid and not _pid_alive(pid):
            return True
        try:
            age = time.time() - os.path.getmtime(self.path)
        except OSError:
            # vanished between checks — the creation race will settle it
            return True
        return age > self.stale_after

    def acquire(self) -> bool:
        """Take the lease; returns ``True`` when a stale one was evicted.

        Raises :class:`RunLockedError` if a live holder has it.  The
        takeover itself races safely: the loser of a concurrent eviction
        simply sees the winner's fresh ``O_EXCL`` file and is refused.
        """
        took_over = False
        for attempt in range(2):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                if attempt == 0 and self._is_stale():
                    try:
                        os.unlink(self.path)
                    except FileNotFoundError:
                        pass
                    took_over = True
                    continue
                holder = self._read_holder()
                raise RunLockedError(
                    self.path, int(holder.get("pid", 0) or 0) or None
                ) from None
            try:
                os.write(fd, self._payload())
                os.fsync(fd)
            finally:
                os.close(fd)
            self.held = True
            return took_over
        raise RunLockedError(self.path)  # pragma: no cover — loop bound

    def heartbeat(self) -> None:
        """Refresh the lease mtime (called at every committed chunk)."""
        if not self.held:
            return
        try:
            os.utime(self.path, None)
        except FileNotFoundError:  # pragma: no cover — evicted under us
            pass

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        try:
            os.unlink(self.path)
        except FileNotFoundError:  # pragma: no cover
            pass

    def __enter__(self) -> "RunLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
