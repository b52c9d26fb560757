"""Chunk sinks: bounded-memory writers for marked relations.

A :class:`ChunkSink` receives the marked chunks of a streaming embed and
persists them — CSV (plain or gzip), SQLite, or an in-memory table for
tests.  Sinks expose two small hooks the checkpoint layer builds resume
on:

* :meth:`ChunkSink.flush_state` — flush everything written so far and
  return a JSON-serializable durability marker (a byte offset, a row
  count);
* :meth:`ChunkSink.restore` — reopen the sink positioned exactly at such
  a marker, discarding anything written after it (the partial chunk a
  crash may have left behind).

Both gzip framing (one gzip *member* per flush interval — concatenated
members are a single valid gzip stream) and SQLite transactions (one
commit per chunk) are chosen so that every marker is a clean truncation
point.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import os
import sqlite3
from pathlib import Path
from typing import Any

from ..relational import AttributeType, Schema, Table
from ..reliability.faults import (
    BITFLIP,
    TORN_WRITE,
    InjectedFaultError,
    active_plan,
    fault_point,
    injection_armed,
)
from ..reliability.integrity import (
    ChunkDigest,
    ChunkManifest,
    _quote_identifier,
    digest_rows,
)
from .errors import StreamError


class ChunkSink:
    """Destination for the marked chunks of a streaming embed."""

    #: sinks that can record a per-chunk content-digest manifest (byte
    #: ranges for file sinks, rowid ranges for SQLite) override this and
    #: honour :meth:`arm_manifest` called before ``open``/``restore``
    supports_manifest = False

    #: the :class:`~repro.reliability.integrity.ChunkManifest` recorded
    #: so far (``None`` when recording is not armed)
    manifest: ChunkManifest | None = None

    def arm_manifest(self) -> None:
        """Turn on chunk-digest recording (before ``open``/``restore``)."""
        raise StreamError(
            f"{type(self).__name__} does not record a chunk-hash manifest"
        )

    def restore_manifest(self, manifest: ChunkManifest) -> None:
        """Install a manifest prefix recovered from the journal (resume)."""
        self.manifest = manifest

    def open(self, schema: Schema) -> None:
        """Begin a fresh output for ``schema`` (truncates prior content)."""
        raise NotImplementedError

    def write_chunk(self, chunk: Table) -> None:
        """Append one marked chunk.

        The pipeline calls this exactly once per *original source chunk*,
        whatever adaptation happened upstream: a memory-budget shrink
        slices the embed, then reassembles the marked rows so the sink
        still sees the original framing — which is what keeps gzip member
        boundaries (hence output bytes) identical across adapted and
        unadapted runs.
        """
        raise NotImplementedError

    def flush_state(self) -> dict[str, Any]:
        """Flush and return a durability marker for checkpointing."""
        raise NotImplementedError

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        """Reopen at ``state`` (from :meth:`flush_state`), dropping
        anything written after that marker."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ChunkSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CSVChunkSink(ChunkSink):
    """CSV writer, gzip-compressed when the path says so.

    Plain CSV flushes are byte offsets into a growing text file; gzip
    output closes one compressed *member* per flush interval (header
    member first, then one per chunk), so every recorded offset sits on a
    member boundary and truncating there leaves a valid gzip stream.
    ``mtime=0`` keeps members byte-deterministic — a resumed run produces
    the identical file an uninterrupted run would have.
    """

    def __init__(self, path: str | Path, compress: bool | None = None):
        self.path = Path(path)
        # Writers decide by the *requested* path suffix (or the explicit
        # flag), never by sniffing pre-existing bytes the open() below is
        # about to truncate — stale gzip content at a ``.csv`` path must
        # not make a fresh run silently write gzip.
        self.compress = (
            self.path.suffix == ".gz" if compress is None else compress
        )
        self._raw = None
        self._text = None
        self._writer = None
        self._schema: Schema | None = None
        self._chunks = 0
        self._record = False
        self._segment_start = 0

    supports_manifest = True

    def arm_manifest(self) -> None:
        self._record = True

    # -- lifecycle -------------------------------------------------------------
    def open(self, schema: Schema) -> None:
        self._schema = schema
        self._chunks = 0
        self._raw = open(self.path, "wb")
        if self._record:
            # recording encodes each segment in memory first, so its
            # digest comes straight off the bytes about to be written —
            # no read-back pass, no hashing proxy on the write path
            self.manifest = ChunkManifest(kind="bytes")
            payload = self._encode_segment([schema.names])
            self._raw.write(payload)
            # the header segment (column names) gets its own digest so an
            # audit can tell "damaged preamble" from "damaged chunk k"
            self.manifest.header = ChunkDigest(
                index=-1,
                start=0,
                end=len(payload),
                digest=hashlib.sha256(payload).hexdigest(),
            )
        elif self.compress:
            self._begin_member()
            self._write_rows([schema.names])
            self._end_member()
        else:
            self._begin_text()
            self._write_rows([schema.names])
            self._text.flush()

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        self._abort()
        offset = int(state["offset"])
        self._schema = schema
        self._chunks = int(state.get("chunks", 0))
        self._raw = open(self.path, "r+b")
        self._raw.truncate(offset)
        self._raw.seek(offset)
        if self._record:
            if self.manifest is None:
                self.manifest = ChunkManifest(kind="bytes")
            else:
                # a retry rollback re-writes the chunk; its stale entry
                # must not survive next to the fresh one
                self.manifest.truncate(self._chunks)
        elif not self.compress:
            self._begin_text()

    def _abort(self) -> None:
        # Drop whatever handles a failed write left half-open, *without*
        # flushing — restore() truncates back to the durable marker, so
        # buffered bytes from the failed chunk must not leak out first.
        self._text = None
        self._writer = None
        if self._raw is not None:
            try:
                self._raw.close()
            except OSError:
                pass
            self._raw = None

    def close(self) -> None:
        if self._text is not None and not self.compress:
            self._text.flush()
            self._text.detach()
            self._text = None
        if self._raw is not None:
            self._raw.close()
            self._raw = None
        self._writer = None

    # -- writing ---------------------------------------------------------------
    def write_chunk(self, chunk: Table) -> None:
        index = self._chunks
        # Injection points: "sink.write" fails before any byte of the
        # chunk lands; "sink.write.mid" persists a torn prefix (flushed
        # to the OS with no member trailer / row terminator) and *then*
        # fails — the state a real crash mid-flush leaves behind.
        fault_point("sink.write", index)
        if injection_armed() and active_plan().scheduled(
            "sink.write.mid", index
        ):
            self._write_torn(chunk, index)
        if self._record:
            # the whole segment is encoded in memory, hashed, and written
            # with one raw call; ``digest`` covers exactly the bytes an
            # audit (or a verified read) will find in ``[start, end)``
            payload = self._encode_segment(chunk)
            self._segment_start = self._raw.tell()
            self._raw.write(payload)
            self.manifest.entries.append(ChunkDigest(
                index=index,
                start=self._segment_start,
                end=self._segment_start + len(payload),
                digest=hashlib.sha256(payload).hexdigest(),
            ))
        elif self.compress:
            self._begin_member()
            self._write_rows(chunk)
            self._end_member()
        else:
            self._write_rows(chunk)
        self._chunks += 1
        if injection_armed() and active_plan().scheduled(
            "sink.bitflip", index
        ):
            self._bitflip(index)

    def _bitflip(self, index: int) -> None:
        # Silent post-flush media damage: flip one bit inside the chunk
        # just written, then continue as if nothing happened.  No error
        # surfaces — only the manifest digest can reveal the damage.
        kind = fault_point("sink.bitflip", index)
        if kind != BITFLIP:
            return
        if self._text is not None and not self.compress:
            self._text.flush()
        self._raw.flush()
        os.fsync(self._raw.fileno())
        start = self._segment_start if self._record else 0
        end = self._raw.tell()
        if end <= start:  # pragma: no cover — empty chunk
            return
        rng = active_plan().rng("sink.bitflip", index)
        position = rng.randrange(start, end)
        with open(self.path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ (1 << rng.randrange(8))]))

    def _write_torn(self, chunk: Table, index: int) -> None:
        plan = active_plan()
        rows = list(iter(chunk))
        cut = plan.rng("sink.write.mid", index).randrange(
            1, max(2, len(rows))
        )
        if self._record:
            self._raw.write(self._encode_segment(rows[:cut], torn=True))
        elif self.compress:
            self._begin_member()
            self._write_rows(rows[:cut])
            member = self._text.detach()
            member.flush()  # compressed bytes reach _raw; no trailer
            self._text = None
            self._writer = None
        else:
            self._write_rows(rows[:cut])
            self._text.flush()
        self._raw.flush()
        os.fsync(self._raw.fileno())
        kind = fault_point("sink.write.mid", index)
        raise InjectedFaultError("sink.write.mid", index, kind or TORN_WRITE)

    def flush_state(self) -> dict[str, Any]:
        fault_point("sink.flush", self._chunks)
        if self._text is not None and not self.compress:
            self._text.flush()
        self._raw.flush()
        os.fsync(self._raw.fileno())
        return {"offset": self._raw.tell(), "chunks": self._chunks}

    # -- internals -------------------------------------------------------------
    def _encode_segment(self, rows, torn: bool = False) -> bytes:
        """The exact bytes one flush segment of ``rows`` puts on disk.

        Produces byte-for-byte what the streaming writers produce — a
        gzip member (``filename=""``, ``mtime=0``; deflate output depends
        only on the input bytes, not on write chunking) or utf-8 CSV text
        — so recorded digests hold for armed and disarmed runs alike.
        ``torn`` emits a gzip member *without* its trailer (the state a
        crash mid-flush leaves) instead of a complete one.
        """
        if not self.compress:
            buffer = io.StringIO()
            csv.writer(buffer).writerows(rows)
            return buffer.getvalue().encode("utf-8")
        raw = io.BytesIO()
        member = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
        text = io.TextIOWrapper(member, encoding="utf-8", newline="")
        csv.writer(text).writerows(rows)
        text.detach()
        if torn:
            member.flush()  # compressed bytes, no trailer
        else:
            member.close()
        return raw.getvalue()

    def _begin_text(self) -> None:
        self._text = io.TextIOWrapper(
            self._raw, encoding="utf-8", newline=""
        )
        self._writer = csv.writer(self._text)

    def _begin_member(self) -> None:
        # filename="" drops the FNAME header field and mtime=0 the
        # timestamp, so members are byte-deterministic: a resumed run's
        # file is identical to an uninterrupted run's, whatever the path.
        member = gzip.GzipFile(
            filename="", fileobj=self._raw, mode="wb", mtime=0
        )
        self._text = io.TextIOWrapper(member, encoding="utf-8", newline="")
        self._writer = csv.writer(self._text)

    def _end_member(self) -> None:
        member = self._text.detach()
        member.close()
        self._text = None
        self._writer = None

    def _write_rows(self, rows) -> None:
        self._writer.writerows(rows)


_AFFINITY = {
    AttributeType.INTEGER: "INTEGER",
    AttributeType.REAL: "REAL",
    AttributeType.STRING: "TEXT",
    # No declared type => BLOB affinity: SQLite stores categorical values
    # exactly as given (an out-of-domain "007" string must not come back
    # as the integer 7).
    AttributeType.CATEGORICAL: "",
}


class SQLiteChunkSink(ChunkSink):
    """SQLite writer: one table, one transaction commit per chunk.

    The commit-per-chunk rhythm makes the database itself the durability
    mechanism — an interrupted chunk rolls back — and :meth:`restore`
    deletes any rows a crash landed *after* the last checkpoint was
    recorded (committed chunk, unwritten checkpoint).
    """

    def __init__(self, path: str | Path, table: str = "relation"):
        self.path = Path(path)
        self.table = table
        self._connection: sqlite3.Connection | None = None
        self._insert: str | None = None
        self._names: list[str] = []
        self._rows_written = 0
        self._chunks = 0
        self._record = False

    supports_manifest = True

    def arm_manifest(self) -> None:
        self._record = True

    def open(self, schema: Schema) -> None:
        if self._record:
            self.manifest = ChunkManifest(kind="rows")
        self._connect(schema)
        quoted = _quote_identifier(self.table)
        self._connection.execute(f"DROP TABLE IF EXISTS {quoted}")
        columns = ", ".join(
            f"{_quote_identifier(a.name)} {_AFFINITY[a.atype]}".rstrip()
            for a in schema.attributes
        )
        self._connection.execute(f"CREATE TABLE {quoted} ({columns})")
        self._connection.commit()
        self._rows_written = 0
        self._chunks = 0

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        rows = int(state["rows"])
        self._connect(schema)
        quoted = _quote_identifier(self.table)
        self._connection.execute(
            f"DELETE FROM {quoted} WHERE rowid IN "
            f"(SELECT rowid FROM {quoted} ORDER BY rowid LIMIT -1 OFFSET ?)",
            (rows,),
        )
        self._connection.commit()
        self._rows_written = rows
        self._chunks = int(state.get("chunks", 0))
        if self._record:
            if self.manifest is None:
                self.manifest = ChunkManifest(kind="rows")
            else:
                self.manifest.truncate(self._chunks)

    def _connect(self, schema: Schema) -> None:
        self._connection = sqlite3.connect(self.path)
        self._names = list(schema.names)
        placeholders = ", ".join("?" for _ in schema.names)
        columns = ", ".join(
            _quote_identifier(column) for column in schema.names
        )
        self._insert = (
            f"INSERT INTO {_quote_identifier(self.table)} "
            f"({columns}) VALUES ({placeholders})"
        )

    def write_chunk(self, chunk: Table) -> None:
        # Injection point: a failed commit rolls the chunk back — SQLite
        # itself is the torn-write protection, so only the boundary
        # fault is meaningful here.
        index = self._chunks
        fault_point("sink.write", index)
        self._connection.executemany(self._insert, iter(chunk))
        self._connection.commit()
        start = self._rows_written
        self._rows_written += len(chunk)
        self._chunks += 1
        if self._record:
            # ranges are rowid offsets; byte offsets are meaningless in a
            # database file, so the row-content digest is the identity
            rows_digest = digest_rows(chunk)
            self.manifest.entries.append(ChunkDigest(
                index=index,
                start=start,
                end=self._rows_written,
                digest=rows_digest,
                rows_digest=rows_digest,
            ))
        if injection_armed() and active_plan().scheduled(
            "sink.bitflip", index
        ):
            self._bitflip(index, start, self._rows_written)

    def _bitflip(self, index: int, start: int, end: int) -> None:
        # Silent committed-data damage: overwrite one cell in the chunk
        # just committed, then continue.  Only the audit can catch it.
        kind = fault_point("sink.bitflip", index)
        if kind != BITFLIP:
            return
        rng = active_plan().rng("sink.bitflip", index)
        offset = rng.randrange(start, max(start + 1, end))
        column = rng.choice(self._names)
        quoted = _quote_identifier(self.table)
        self._connection.execute(
            f"UPDATE {quoted} SET {_quote_identifier(column)} = ? "
            f"WHERE rowid = (SELECT rowid FROM {quoted} "
            f"ORDER BY rowid LIMIT 1 OFFSET ?)",
            ("☠bitrot", offset),
        )
        self._connection.commit()

    def flush_state(self) -> dict[str, Any]:
        fault_point("sink.flush", self._chunks)
        return {"rows": self._rows_written, "chunks": self._chunks}

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class TableChunkSink(ChunkSink):
    """Collects marked chunks into one in-memory :class:`Table` (tests,
    equivalence suites, small pipelines)."""

    def __init__(self, name: str = "marked"):
        self.name = name
        self.table: Table | None = None

    def open(self, schema: Schema) -> None:
        self.table = Table(schema, (), name=self.name)

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        raise StreamError("TableChunkSink does not support resume")

    def write_chunk(self, chunk: Table) -> None:
        self.table.append_rows(iter(chunk))

    def flush_state(self) -> dict[str, Any]:
        return {"rows": len(self.table)}

    def close(self) -> None:  # nothing to release
        pass


class NullChunkSink(ChunkSink):
    """Discards chunks (embed-throughput measurement)."""

    def __init__(self):
        self.rows = 0

    def open(self, schema: Schema) -> None:
        self.rows = 0

    def restore(self, schema: Schema, state: dict[str, Any]) -> None:
        self.rows = int(state["rows"])

    def write_chunk(self, chunk: Table) -> None:
        self.rows += len(chunk)

    def flush_state(self) -> dict[str, Any]:
        return {"rows": self.rows}

    def close(self) -> None:
        pass


def open_sink(path: str | Path, table: str = "relation") -> ChunkSink:
    """A chunk sink for ``path`` picked by file type (mirrors
    :func:`repro.stream.sources.open_source`)."""
    path = Path(path)
    if path.suffix in {".sqlite", ".sqlite3", ".db"}:
        return SQLiteChunkSink(path, table=table)
    return CSVChunkSink(path)
