"""Streaming mark/detect pipelines: the out-of-core execution layer.

The paper's scheme decides every embedding and detection action from a
keyed hash of the tuple's (primary-key) value alone, so both directions
are embarrassingly chunkable:

* :func:`stream_mark` pulls schema-typed chunks from a
  :class:`~repro.stream.sources.ChunkSource`, runs the existing embed
  kernels on each chunk (the NumPy vector kernel for large chunks, on one
  warm stream-scoped :class:`~repro.crypto.HashEngine`), and pushes the
  marked chunks into a :class:`~repro.stream.sinks.ChunkSink` — with an
  optional run record (the checkpoint) making the run resumable after
  interruption;
* :func:`stream_verify` / :func:`stream_verify_multipass` keep running
  per-slot vote accumulators (:class:`~repro.core.VoteAccumulator`) that
  merge each chunk's bincount tallies associatively, preserving the
  global first-vote tie rule — streamed detection over an arbitrarily
  large file uses O(chunk + channel length) memory and is bit-identical
  to the in-memory :func:`~repro.core.verify` on the concatenated rows.

Memory discipline: the stream-scoped engine bounds its memoization caches
relative to the chunk size (fresh key values arrive forever; an unbounded
digest cache would silently grow O(rows)), per-chunk guards die with
their chunk (no cross-chunk rollback log), and the vector plan arrays are
weak-keyed per chunk factorization, so they are reclaimed with the chunk.
Within one process the engine stays warm across chunks *and* across a
mark-then-verify pair — re-seeing a value re-hashes nothing.
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..core import kernels
from ..core.detection import (
    DEFAULT_SIGNIFICANCE,
    DetectionResult,
    SlotVotes,
    VerificationResult,
    VoteAccumulator,
    _assemble_verification,
    extract_slot_votes,
)
from ..core.embedding import (
    EmbeddingResult,
    EmbeddingSpec,
    VARIANT_KEYED,
    VARIANT_MAP,
    embed,
    value_pair_count,
)
from ..core.errors import DetectionError, SpecError
from ..core.watermark import Watermark
from ..crypto import BACKENDS, SCALAR, VECTOR, HashEngine, MarkKey
from ..quality import GuardReport, QualityGuard
from ..relational import CategoricalDomain, Schema, Table
from ..reliability.breaker import CircuitBreaker
from ..reliability.budget import MemoryBudget
from ..reliability.deadline import Deadline, check_deadline
from ..reliability.faults import fault_point
from ..reliability.integrity import (
    RunLock,
    append_journal_chunk,
    audit_stream,
    load_journal,
    manifest_from_journal,
    mark_fingerprint,
    truncate_journal,
    write_journal_header,
)
from ..reliability.report import ReliabilityReport
from ..reliability.retry import (
    TRANSIENT,
    TRANSIENT_TYPES,
    RetryError,
    RetryPolicy,
    call_with_retry,
    classify,
)
from .errors import CheckpointCorruptError, CheckpointError, StreamError
from .sinks import ChunkSink
from .sources import DEFAULT_CHUNK_SIZE, resolve_chunks, source_schema

logger = logging.getLogger(__name__)

#: circuit-breaker label of the VECTOR -> SCALAR stream-backend ladder
STREAM_VECTOR_LABEL = "stream.vector"

#: floor on the stream engine's memoization-cache entry bound; the bound
#: scales with the chunk size (see :func:`stream_engine`) so steady-state
#: memory is O(chunk), not O(rows seen)
MIN_STREAM_CACHE_ENTRIES = 8_192

#: cache-entry bound as a multiple of the chunk size — large enough that
#: a mark-then-verify pair (or repeated values across nearby chunks)
#: stays warm, small enough to stay chunk-proportional
STREAM_CACHE_FACTOR = 4


def stream_engine(
    key: MarkKey, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> HashEngine:
    """A stream-scoped :class:`HashEngine` with chunk-bounded caches.

    Unlike the process-wide :func:`~repro.crypto.get_engine` registry
    engine (bounded at millions of entries — fine for in-memory
    relations, O(rows) for an unbounded stream), this engine's digest and
    derived caches are capped at ``max(MIN_STREAM_CACHE_ENTRIES,
    STREAM_CACHE_FACTOR * chunk_size)`` entries — dropped wholesale when
    the cap is crossed, so steady-state memory stays O(chunk) however
    many rows flow past, while values re-seen within the window (a
    mark-then-verify pair, repeated chunks) still re-hash nothing.
    """
    return HashEngine(
        key,
        max_entries=max(
            MIN_STREAM_CACHE_ENTRIES, STREAM_CACHE_FACTOR * chunk_size
        ),
    )


def _resolve_stream_backend(
    backend: HashEngine | str | None,
    key: MarkKey,
    chunk_size: int,
) -> tuple[HashEngine | None, str]:
    """Normalize a ``backend=`` parameter to ``(engine, mode)``.

    ``mode`` is one of the :data:`~repro.crypto.BACKENDS` sentinels;
    ``engine`` is the stream-scoped (or caller-supplied) instance every
    VECTOR chunk runs on.  An explicit :class:`HashEngine` instance runs
    VECTOR on that instance, so callers may pass a differently-bounded
    (or shared, pre-warmed) engine.
    """
    if isinstance(backend, HashEngine):
        if backend.key != key:
            raise StreamError(
                "backend engine was built for a different MarkKey"
            )
        return backend, VECTOR
    if backend is None:
        backend = VECTOR
    if backend not in BACKENDS:
        raise StreamError(
            f"backend must be one of {BACKENDS} or a HashEngine, "
            f"got {backend!r}"
        )
    if backend == SCALAR:
        return None, SCALAR
    return stream_engine(key, chunk_size), backend


def _source_chunk_size(source) -> int:
    return getattr(source, "chunk_size", DEFAULT_CHUNK_SIZE)


def _chunks_with_retry(
    source,
    start: int,
    policy: RetryPolicy | None,
    report: ReliabilityReport,
    sleep: Callable[[float], None] = time.sleep,
):
    """Chunks of ``source`` from ``start``, re-opening on transient read
    failures.

    A failed read never loses a chunk: the source is re-opened at the
    last *completed* chunk boundary (chunks are only counted once they
    have been fully yielded downstream), so a retried read re-produces
    the exact chunk whose read failed.  Attempts are bounded per
    position; plain iterables cannot be re-opened and propagate their
    failures unchanged.
    """
    if policy is None or not hasattr(source, "chunks"):
        yield from resolve_chunks(source, start)
        return
    position = start
    attempt = 0
    iterator = resolve_chunks(source, position)
    while True:
        try:
            chunk = next(iterator)
        except StopIteration:
            return
        # Only the transient taxonomy is caught at all: a permanent
        # failure (BadRowError, schema violations, deadline expiry, a
        # plain bug) propagates with its original traceback instead of
        # being routed through retry classification.
        except TRANSIENT_TYPES as exc:
            if classify(exc) is not TRANSIENT:
                raise
            attempt += 1
            if attempt >= policy.max_attempts:
                raise RetryError("source.read", attempt) from exc
            report.record_retry("source.read", attempt, exc)
            sleep(policy.delay("source.read", attempt))
            report.source_reopens += 1
            iterator = resolve_chunks(source, position)
            continue
        attempt = 0
        yield chunk
        position += 1


# -- streaming embed -----------------------------------------------------------

@dataclass
class StreamMarkResult:
    """Merged report of a (possibly resumed) streaming embed."""

    spec: EmbeddingSpec
    chunks: int
    rows: int
    fit_count: int
    applied: int
    vetoed: int
    unchanged: int
    slots_written: set[int] = field(default_factory=set)
    guard_report: GuardReport = field(default_factory=GuardReport)
    resumed_at_chunk: int = 0
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: :class:`~repro.stream.parallel.ParallelReport` when ``workers > 1``
    parallel: Any = None
    #: the :class:`~repro.reliability.integrity.ChunkManifest` recorded
    #: by the sink (``None`` when manifest recording was not armed)
    manifest: Any = None

    @property
    def slot_coverage(self) -> float:
        """Fraction of ``wm_data`` slots carried by at least one tuple."""
        if self.spec.channel_length == 0:
            return 0.0
        return len(self.slots_written) / self.spec.channel_length

    @property
    def alteration_fraction(self) -> float:
        """Fraction of fit carriers whose value actually changed."""
        if self.fit_count == 0:
            return 0.0
        return self.applied / self.fit_count


def _validate_mark_inputs(
    schema: Schema, watermark: Watermark, spec: EmbeddingSpec
) -> CategoricalDomain:
    """Schema-level validation of a streaming embed (no table in memory)."""
    if spec.variant != VARIANT_KEYED:
        raise StreamError(
            "stream_mark supports the fully blind 'keyed' variant only: "
            "the 'map' variant must remember one embedding-map entry per "
            "carrier, which contradicts bounded-memory streaming — use "
            "the in-memory embed for map-variant relations"
        )
    if len(watermark) != spec.watermark_length:
        raise SpecError(
            f"watermark has {len(watermark)} bits, spec says "
            f"{spec.watermark_length}"
        )
    attribute = schema.attribute(spec.mark_attribute)
    if not attribute.is_categorical or attribute.domain is None:
        raise SpecError(
            f"mark attribute {spec.mark_attribute!r} is not categorical"
        )
    if value_pair_count(attribute.domain) == 0:
        raise SpecError(
            f"attribute {spec.mark_attribute!r} has a single-value domain; "
            f"no embedding bandwidth"
        )
    schema.position(spec.key_attribute)  # raises if unknown
    return attribute.domain


def stream_mark(
    source,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    sink: ChunkSink,
    *,
    backend: HashEngine | str | None = None,
    checkpoint_path=None,
    resume: bool = False,
    constraints_factory: Callable[[], list] | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    memory_budget: MemoryBudget | None = None,
    breaker: CircuitBreaker | None = None,
    workers: int | str | None = None,
    watchdog=None,
    verify_resume: bool = False,
    lock: bool = False,
) -> StreamMarkResult:
    """Embed ``watermark`` into a streamed relation, chunk by chunk.

    Each chunk runs through the existing embed kernels (vector kernel for
    large chunks) on one warm stream-scoped engine; marked chunks land in
    ``sink`` and the per-chunk guard logs/reports are merged into the
    returned :class:`StreamMarkResult`.  Because every decision is a pure
    function of ``(key, tuple key value)``, the concatenated sink output
    is cell-identical to an in-memory embed of the whole relation.

    With ``checkpoint_path`` the pipeline keeps one durable run record
    there (see :mod:`repro.reliability.integrity`): a header line, then
    after every chunk a sink flush and one appended CRC-framed line with
    the chunk's sha256, its counter deltas and the sink's durable state.
    ``resume=True`` picks up from the last CRC-valid line (verifying, via
    a keyless fingerprint, that key, spec and watermark match the
    interrupted run), cuts off a torn or rotted tail, and produces output
    identical to an uninterrupted run.  A record that does not start
    with a valid header — rotted, or a JSON checkpoint from an earlier
    version — is refused with :class:`CheckpointCorruptError`.  The sink
    must be able to record chunk digests (CSV, gzip or SQLite).

    ``constraints_factory`` builds a fresh constraint list per chunk
    (constraints are stateful, so instances cannot be shared across
    chunks); note that guard budgets therefore apply *per chunk*, not to
    the relation as a whole.

    The source must present the canonical declared domain on every chunk
    (``infer_domains=False``); marking under per-chunk inferred domains
    would embed against inconsistent value orderings.

    A ``retry`` policy arms the recovery layer: transient failures of
    source reads (re-open at the failed chunk boundary), sink writes
    (roll back to the last durable marker, rewrite the chunk) and record
    appends (truncate the torn line, append again) are retried with
    deterministic backoff, and every recovery action is counted in
    ``result.reliability``.  ``retry=None`` (the default) keeps the
    historical fail-fast behavior.

    ``workers`` fans the per-chunk embed kernels across a persistent
    process pool (``"auto"`` sizes it from ``cpu_count``); the ordered
    commit loop writes marked chunks to the sink in sequence, so output
    bytes, records and ``--resume`` stay identical to ``workers=1``.
    ``watchdog`` (parallel runs only) heartbeat-monitors pool workers;
    pass ``False`` to disable the default watchdog.

    Integrity layer: the record's chunk digests let
    :func:`~repro.reliability.integrity.audit_stream` localize any later
    corruption of the output to the exact chunk (hashing never changes
    the output bytes).  ``verify_resume=True`` makes resume re-hash the
    surviving output prefix against the record instead of trusting it,
    rewinding to the last *verified* chunk (bit-rot in the prefix is
    rewritten, and the final output stays byte-identical to an
    uninterrupted run).
    ``lock=True`` takes an ``O_EXCL`` run lease on the checkpoint/sink
    pair so a concurrent embed/resume of the same output fails fast with
    :class:`~repro.reliability.integrity.RunLockedError` instead of
    interleaving writes; a lease whose holder died is taken over.
    """
    from .parallel import resolve_workers

    worker_count = resolve_workers(workers)
    if worker_count > 1:
        if isinstance(backend, HashEngine):
            raise StreamError(
                "parallel stream_mark cannot share a HashEngine across "
                "processes; pass a backend sentinel instead"
            )
        if constraints_factory is not None:
            raise StreamError(
                "parallel stream_mark does not support "
                "constraints_factory: guard constraints are stateful "
                "and chunk-scoped — run with workers=1"
            )
        if memory_budget is not None:
            raise StreamError(
                "parallel stream_mark does not support a memory_budget: "
                "adaptive chunk slicing is a serial-path feature — run "
                "with workers=1"
            )
    schema = source_schema(source)
    if schema is None:
        raise StreamError(
            "stream_mark needs a schema-carrying ChunkSource "
            "(CSV/SQLite/synthetic), not a plain iterable"
        )
    domain = _validate_mark_inputs(schema, watermark, spec)
    chunk_size = _source_chunk_size(source)
    engine, mode = _resolve_stream_backend(backend, key, chunk_size)
    wm_data = spec.ecc().encode(watermark.bits, spec.channel_length)

    result = StreamMarkResult(
        spec=spec, chunks=0, rows=0, fit_count=0, applied=0, vetoed=0,
        unchanged=0,
    )
    fingerprint = mark_fingerprint(key, spec, watermark)
    reliability = result.reliability

    if checkpoint_path is not None and not getattr(
        sink, "supports_manifest", False
    ):
        raise StreamError(
            f"{type(sink).__name__} cannot be checkpointed: the run record "
            f"holds every chunk's digest, so use a CSV/gzip/SQLite sink"
        )
    if resume and checkpoint_path is None:
        raise CheckpointError("resume=True needs a checkpoint_path")
    if verify_resume and not resume:
        raise StreamError("verify_resume=True requires resume=True")

    run_lock = None
    if lock:
        # The lease guards the whole run, resume inspection included — a
        # concurrent process must not even read the record while we may
        # be rewriting it.
        run_lock = RunLock(
            _lock_path(checkpoint_path, sink), fingerprint=fingerprint
        )
        if run_lock.acquire():
            reliability.lease_takeovers += 1

    start = 0
    try:
        if checkpoint_path is not None:
            sink.arm_manifest()
        if resume:
            start = _restore(
                result, sink, schema, checkpoint_path, fingerprint,
                reliability, verify=verify_resume,
            )
        else:
            sink.open(schema)
            _start_record(checkpoint_path, sink, fingerprint)

        return _stream_mark_run(
            source=source, sink=sink, schema=schema, result=result,
            reliability=reliability, start=start,
            watermark=watermark, key=key, spec=spec, domain=domain,
            wm_data=wm_data, engine=engine, mode=mode,
            chunk_size=chunk_size, constraints_factory=constraints_factory,
            checkpoint_path=checkpoint_path, run_lock=run_lock,
            retry=retry, deadline=deadline,
            memory_budget=memory_budget, breaker=breaker,
            worker_count=worker_count, watchdog=watchdog,
        )
    finally:
        if run_lock is not None:
            run_lock.release()


def _stream_mark_run(
    *,
    source, sink, schema, result, reliability, start,
    watermark, key, spec, domain, wm_data, engine, mode, chunk_size,
    constraints_factory, checkpoint_path, run_lock, retry,
    deadline, memory_budget, breaker, worker_count, watchdog,
) -> StreamMarkResult:
    """The chunk loop of :func:`stream_mark`, after the sink/record/
    lease are positioned (split out so the lease's try/finally wraps
    everything without another indentation level)."""
    # The durable marker the retry layer rolls the sink back to before
    # rewriting a chunk whose write failed mid-way.
    last_good = sink.flush_state() if retry is not None else None

    def _commit_marked(index, marked, pass_result, guard_report, nrows):
        """Make one marked chunk durable: merge its reports, write it to
        the sink (rolling back and rewriting under ``retry``) and append
        its record.  Shared by the serial loop and the parallel
        ordered-commit loop — both call it in strict chunk order, which
        is what keeps output bytes and records identical."""
        nonlocal last_good
        _merge_result(result, pass_result, guard_report, nrows)

        if retry is None:
            sink.write_chunk(marked)
            state = (
                sink.flush_state() if checkpoint_path is not None
                else None
            )
        else:
            def _write():
                sink.write_chunk(marked)
                return sink.flush_state()

            def _rollback():
                reliability.sink_rollbacks += 1
                sink.restore(schema, last_good)

            state = call_with_retry(
                _write, "sink.write", retry,
                recover=_rollback, on_retry=reliability.record_retry,
            )
            last_good = state

        if checkpoint_path is not None:
            # The chunk's bytes are durable (flush_state above); a crash
            # before its record lands resumes from the previous record,
            # which truncates them away again.
            save_checkpoint(
                checkpoint_path, index, sink.manifest.entries[-1],
                _journal_delta(pass_result, guard_report, nrows), state,
                retry=retry, reliability=reliability,
            )
        if run_lock is not None:
            run_lock.heartbeat()

    try:
        if worker_count > 1:
            from ..reliability.pool import resolve_watchdog
            from .parallel import parallel_mark

            result.parallel = parallel_mark(
                source, start, _commit_marked,
                watermark=watermark, key=key, spec=spec, domain=domain,
                wm_data=wm_data, mode=mode, chunk_size=chunk_size,
                workers=worker_count, retry=retry, deadline=deadline,
                watchdog=resolve_watchdog(watchdog), breaker=breaker,
                reliability=reliability,
            )
        else:
            for chunk in _chunks_with_retry(
                source, start, retry, reliability
            ):
                index = start + result.chunks  # global chunk index
                # Cooperative stall-safety: the deadline is consulted at
                # every chunk boundary, so a budgeted run stops (resumably
                # — the record of chunk index-1 is durable) instead of
                # hanging.
                check_deadline(deadline, "pipeline.chunk", index)
                chunk_domain = chunk.schema.attribute(
                    spec.mark_attribute
                ).domain
                if chunk_domain != domain:
                    raise StreamError(
                        "chunk domain drifted from the declared domain — "
                        "stream_mark sources must be built with "
                        "infer_domains=False"
                    )
                marked, pass_result, guard_report, mode = _embed_chunk(
                    chunk, watermark, key, spec, domain, wm_data,
                    constraints_factory, engine, mode, index,
                    memory_budget, breaker, reliability,
                )
                _commit_marked(
                    index, marked, pass_result, guard_report, len(chunk)
                )
                # Injection point: the chunk is fully durable here — a kill
                # at this boundary is the canonical crash the chaos
                # kill-matrix resumes from.
                fault_point("pipeline.chunk", index)
    finally:
        sink.close()
    reliability.bad_rows += getattr(source, "bad_row_count", 0)
    reliability.quarantined_rows += getattr(source, "quarantined_rows", 0)
    reliability.corrupt_chunks += getattr(source, "corrupt_chunks", 0)
    result.resumed_at_chunk = start
    if checkpoint_path is not None:
        result.manifest = sink.manifest
    return result


def _lock_path(checkpoint_path, sink) -> str:
    """Where the run lease lives: next to the checkpoint when there is
    one (the thing two resumes actually race on), else next to the
    sink's output file."""
    if checkpoint_path is not None:
        return str(checkpoint_path) + ".lock"
    path = getattr(sink, "path", None)
    if path is None:
        raise StreamError(
            "run locking needs a checkpoint_path or a path-backed sink"
        )
    return str(path) + ".lock"


def _start_record(checkpoint_path, sink, fingerprint: str) -> None:
    """Begin a fresh run record for a just-opened sink."""
    if checkpoint_path is None:
        return
    write_journal_header(
        checkpoint_path,
        fingerprint=fingerprint,
        kind=sink.manifest.kind,
        header_entry=sink.manifest.header,
        open_state=sink.flush_state(),
    )


def save_checkpoint(
    path,
    index: int,
    entry,
    delta: dict,
    sink_state: dict,
    *,
    retry: RetryPolicy | None,
    reliability: ReliabilityReport,
) -> None:
    """Record one committed chunk: append its CRC-framed line (digest,
    counter deltas, durable sink state) to the run record at ``path``.

    This append is the whole checkpoint of the chunk.  Under ``retry`` a
    transient failure first truncates the record back to its length
    before the append, so a torn half-line never survives a retry.
    """
    def _append():
        append_journal_chunk(
            path, index=index, entry=entry, delta=delta,
            sink_state=sink_state,
        )

    if retry is None:
        _append()
        return
    size = os.path.getsize(path)
    call_with_retry(
        _append, "journal.append", retry,
        recover=lambda: os.truncate(path, size),
        on_retry=reliability.record_retry,
    )


def _journal_delta(pass_result, guard_report, nrows: int) -> dict:
    """One chunk's counter contributions — per-chunk *deltas*, so any
    record prefix reconstructs the cumulative result exactly."""
    return {
        "rows": nrows,
        "fit_count": pass_result.fit_count,
        "applied": pass_result.applied,
        "vetoed": pass_result.vetoed,
        "unchanged": pass_result.unchanged,
        "report_applied": guard_report.applied,
        "report_vetoed": guard_report.vetoed,
        "report_noop": guard_report.noop,
        "slots": sorted(pass_result.slots_written),
        "vetoes": dict(guard_report.vetoes_by_constraint),
    }


def _restore_result_from_journal(result: StreamMarkResult, records) -> None:
    """Rebuild cumulative counters from recorded per-chunk deltas."""
    for record in records:
        delta = record.get("delta") or {}
        result.rows += int(delta.get("rows", 0))
        result.fit_count += int(delta.get("fit_count", 0))
        result.applied += int(delta.get("applied", 0))
        result.vetoed += int(delta.get("vetoed", 0))
        result.unchanged += int(delta.get("unchanged", 0))
        result.guard_report.applied += int(delta.get("report_applied", 0))
        result.guard_report.vetoed += int(delta.get("report_vetoed", 0))
        result.guard_report.noop += int(delta.get("report_noop", 0))
        result.slots_written.update(delta.get("slots", ()))
        result.guard_report.vetoes_by_constraint.update(
            delta.get("vetoes", {})
        )


def _restore(
    result: StreamMarkResult,
    sink,
    schema,
    path,
    fingerprint: str,
    reliability: ReliabilityReport,
    *,
    verify: bool,
) -> int:
    """Position sink, record and result at the resume point; returns
    the chunk index to resume from.

    The resume point is the last CRC-valid chunk record; a torn or
    rotted tail past it is cut off (one ``checkpoint_rollbacks``).  With
    ``verify`` the surviving output prefix is re-hashed against the
    record first and the resume point moves back to the last *verified*
    chunk — bit-rot in the prefix is rewritten by the resumed run (a
    damaged header segment restarts it from scratch), so the final
    output stays byte-identical to an uninterrupted one.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint to resume from at {path}")
    header, records = load_journal(path)
    if header is None:
        raise CheckpointCorruptError(
            path, "line 1 is not a CRC-valid run-record header (torn or "
            "rotted, or a JSON checkpoint written by an earlier version)",
        )
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            "checkpoint belongs to a different (key, spec, watermark) "
            "run — refusing to resume into a half-marked relation"
        )
    if truncate_journal(path, len(records)):
        reliability.checkpoint_rollbacks += 1
    keep = len(records)
    if verify:
        report = audit_stream(
            sink.path, manifest=manifest_from_journal(header, records),
            table=getattr(sink, "table", "relation"),
        )
        reliability.chunks_verified += report.chunks
        if not report.header_ok:
            # even the preamble is damaged: restart the output
            reliability.integrity_rewinds += len(records) + 1
            sink.open(schema)
            _start_record(path, sink, fingerprint)
            return 0
        keep = report.verified_chunks
        reliability.integrity_rewinds += len(records) - keep
        truncate_journal(path, keep)
    _restore_result_from_journal(result, records[:keep])
    sink.restore(
        schema,
        records[keep - 1]["sink_state"] if keep else header["open_state"],
    )
    sink.restore_manifest(manifest_from_journal(header, records[:keep]))
    return keep


def _embed_one(
    chunk: Table,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    domain: CategoricalDomain,
    wm_data,
    guard: QualityGuard,
    engine: HashEngine | None,
    mode: str,
) -> EmbeddingResult:
    """Embed ``chunk`` in place under the resolved backend ``mode``."""
    if mode == VECTOR:
        pass_result = EmbeddingResult(
            spec=spec, fit_count=0, applied=0, vetoed=0, unchanged=0,
        )
        kernels.embed_vector(
            chunk, spec, domain, wm_data, guard, pass_result, engine
        )
        return pass_result
    return embed(
        chunk,
        watermark,
        key,
        spec,
        guard=guard,
        engine=SCALAR,
    )


def _merge_pass(total: EmbeddingResult, part: EmbeddingResult) -> None:
    total.fit_count += part.fit_count
    total.applied += part.applied
    total.vetoed += part.vetoed
    total.unchanged += part.unchanged
    total.slots_written |= part.slots_written


def _merge_guard(total: GuardReport, part: GuardReport) -> None:
    total.applied += part.applied
    total.vetoed += part.vetoed
    total.noop += part.noop
    total.vetoes_by_constraint.update(part.vetoes_by_constraint)


def _embed_slices(
    chunk: Table,
    slices: int,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    domain: CategoricalDomain,
    wm_data,
    engine: HashEngine | None,
    mode: str,
) -> tuple[Table, EmbeddingResult, GuardReport]:
    """Embed ``chunk`` in ``slices`` bounded pieces (memory-budget path).

    Per-tuple decisions are pure functions of the keyed hash, so slicing
    at any boundary is cell-identical to embedding the whole chunk; the
    marked rows are reassembled into ONE table so the sink still receives
    one write per *original* chunk — the gzip member framing (and hence
    byte-identity with an unsliced run) is preserved.  Only guard-less
    embeds may be sliced (guard budgets are chunk-scoped); the caller
    enforces that.
    """
    total = EmbeddingResult(
        spec=spec, fit_count=0, applied=0, vetoed=0, unchanged=0,
    )
    report = GuardReport()
    rows: list = []
    n = len(chunk)
    per = -(-n // slices)  # ceil: bounded working set per piece
    for offset in range(0, n, per):
        part = chunk.take(range(offset, min(offset + per, n)))
        guard = QualityGuard([])
        guard.bind(part)
        _merge_pass(
            total,
            _embed_one(
                part, watermark, key, spec, domain, wm_data, guard,
                engine, mode,
            ),
        )
        _merge_guard(report, guard.report)
        rows.extend(iter(part))
    marked = Table.from_trusted_rows(chunk.schema, rows, name=chunk.name)
    return marked, total, report


def _embed_chunk(
    chunk: Table,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    domain: CategoricalDomain,
    wm_data,
    constraints_factory: Callable[[], list] | None,
    engine: HashEngine | None,
    mode: str,
    index: int,
    budget: MemoryBudget | None,
    breaker: CircuitBreaker | None,
    reliability: ReliabilityReport,
) -> tuple[Table, EmbeddingResult, GuardReport, str]:
    """Embed one chunk, adapting to memory pressure and backend faults.

    Returns ``(marked, pass_result, guard_report, mode)`` — ``marked`` is
    the table to write (the chunk itself on the normal in-place path, a
    reassembled table when the memory budget sliced the embed) and
    ``mode`` is the possibly-degraded backend the *remaining* chunks
    should keep using.  Two bit-identical adaptations can replay the
    chunk:

    * a :class:`MemoryBudget` breach (sampled here, at the boundary) or a
      raised ``MemoryError`` halves the effective chunk size and replays;
      refused when ``constraints_factory`` is set, because guard budgets
      are chunk-scoped and slicing would change their semantics;
    * when the circuit breaker opens on :data:`STREAM_VECTOR_LABEL`
      (K consecutive vector-path transients), the remaining chunks
      degrade to the SCALAR reference backend — same cells, no numpy.
    """
    while True:
        if budget is not None and budget.over_budget():
            if budget.shrink(f"over budget before chunk {index}"):
                reliability.chunk_shrinks += 1
        slices = (
            budget.slices(len(chunk))
            if budget is not None and constraints_factory is None
            else 1
        )
        try:
            # Injection point: embed-step faults (hang/slow/memory) land
            # here, *inside* the adaptive retry, unlike the post-durability
            # "pipeline.chunk" point.
            fault_point("pipeline.embed", index)
            if slices == 1:
                guard = QualityGuard(
                    list(constraints_factory()) if constraints_factory
                    else []
                )
                guard.bind(chunk)
                pass_result = _embed_one(
                    chunk, watermark, key, spec, domain, wm_data, guard,
                    engine, mode,
                )
                marked, report = chunk, guard.report
            else:
                marked, pass_result, report = _embed_slices(
                    chunk, slices, watermark, key, spec, domain, wm_data,
                    engine, mode,
                )
            if breaker is not None and mode == VECTOR:
                breaker.record_success(STREAM_VECTOR_LABEL)
            if budget is not None and budget.note_healthy():
                reliability.chunk_regrows += 1
            return marked, pass_result, report, mode
        except TRANSIENT_TYPES as exc:
            if classify(exc) is not TRANSIENT:
                raise
            vectored = mode == VECTOR
            if vectored and breaker is not None:
                if breaker.record_failure(
                    STREAM_VECTOR_LABEL, cause=repr(exc)
                ):
                    reliability.breaker_trips[STREAM_VECTOR_LABEL] += 1
            if isinstance(exc, MemoryError):
                if constraints_factory is not None:
                    # Guard budgets are chunk-scoped: slicing would change
                    # which alterations the budget admits, so the guarded
                    # path refuses to adapt and lets the caller see it.
                    raise
                if budget is not None and budget.shrink(
                    f"MemoryError at chunk {index}"
                ):
                    reliability.chunk_shrinks += 1
                    logger.warning(
                        "memory pressure at chunk %d: replaying in %d "
                        "slices", index, budget.slices(len(chunk)),
                    )
                    continue
            if (
                vectored
                and breaker is not None
                and breaker.is_open(STREAM_VECTOR_LABEL)
            ):
                # Degrade to the bit-identical reference: the SCALAR
                # backend computes the same cells without numpy.
                reliability.backend_fallbacks += 1
                logger.warning(
                    "circuit breaker open on %s after %r: degrading "
                    "remaining chunks to the SCALAR backend",
                    STREAM_VECTOR_LABEL, exc,
                )
                mode = SCALAR
                continue
            raise


def _merge_result(
    merged: StreamMarkResult,
    pass_result: EmbeddingResult,
    report: GuardReport,
    rows: int,
) -> None:
    merged.chunks += 1
    merged.rows += rows
    merged.fit_count += pass_result.fit_count
    merged.applied += pass_result.applied
    merged.vetoed += pass_result.vetoed
    merged.unchanged += pass_result.unchanged
    merged.slots_written |= pass_result.slots_written
    merged.guard_report.applied += report.applied
    merged.guard_report.vetoed += report.vetoed
    merged.guard_report.noop += report.noop
    merged.guard_report.vetoes_by_constraint.update(
        report.vetoes_by_constraint
    )


# -- streaming detection -------------------------------------------------------

@dataclass
class StreamDetection:
    """Blind streamed extraction plus its accumulated vote state."""

    detection: DetectionResult
    votes: SlotVotes
    chunks: int
    rows: int
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: :class:`~repro.stream.parallel.ParallelReport` when ``workers > 1``
    parallel: Any = None


@dataclass
class StreamVerification:
    """Streamed verification verdict plus its accumulated vote state."""

    verification: VerificationResult
    votes: SlotVotes
    chunks: int
    rows: int
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: :class:`~repro.stream.parallel.ParallelReport` when ``workers > 1``
    parallel: Any = None

    @property
    def detected(self) -> bool:
        return self.verification.detected

    def summary(self) -> str:
        return self.verification.summary()


def _resolve_stream_domain(
    domain: CategoricalDomain | None, source, spec: EmbeddingSpec
) -> CategoricalDomain | None:
    """The one canonical domain every chunk decodes against.

    Per-chunk (possibly inference-widened) schemas must never influence
    decoding — the canonical value ordering is fixed once for the stream:
    the explicit parameter (the escrowed ``record.domain_values``, the
    blind-detection norm) or the source's declared schema.  ``None`` is
    only returned for schema-less iterables, where the first chunk's
    schema pins it instead.
    """
    if domain is not None:
        return domain
    schema = source_schema(source)
    if schema is not None:
        return schema.attribute(spec.mark_attribute).domain
    return None


def _check_map_inputs(
    spec: EmbeddingSpec, embedding_map: dict[Hashable, int] | None
) -> None:
    if spec.variant == VARIANT_MAP and embedding_map is None:
        raise DetectionError(
            "the 'map' variant needs the embedding_map recorded at embedding"
        )


def _chunk_votes(
    chunk: Table,
    key: MarkKey,
    spec: EmbeddingSpec,
    embedding_map: dict[Hashable, int] | None,
    domain: CategoricalDomain,
    value_mapping: dict[Hashable, Hashable] | None,
    engine: HashEngine | None,
    mode: str,
) -> SlotVotes:
    """One chunk's slot-vote tallies under the resolved backend."""
    if mode == VECTOR:
        return SlotVotes.from_arrays(
            *kernels.extract_votes_vector(
                chunk, spec, domain, embedding_map, value_mapping, engine
            )
        )
    return extract_slot_votes(
        chunk,
        key,
        spec,
        embedding_map,
        domain,
        value_mapping,
        engine=SCALAR,
    )


def _chunk_votes_adaptive(
    chunk: Table,
    key: MarkKey,
    spec: EmbeddingSpec,
    embedding_map: dict[Hashable, int] | None,
    domain: CategoricalDomain,
    value_mapping: dict[Hashable, Hashable] | None,
    engine: HashEngine | None,
    mode: str,
    index: int,
    budget: MemoryBudget | None,
    breaker: CircuitBreaker | None,
    reliability: ReliabilityReport,
) -> tuple[list[SlotVotes], str]:
    """One chunk's tallies, adapting like :func:`_embed_chunk` does.

    Returns ``(tallies, mode)``: the tallies are produced *in row order*
    (sub-slices of a split chunk stay ordered), so merging them into the
    accumulator one by one preserves the global first-vote tie rule and
    the verdict stays bit-identical to an unsplit scan.
    """
    while True:
        if budget is not None and budget.over_budget():
            if budget.shrink(f"over budget before chunk {index}"):
                reliability.chunk_shrinks += 1
        slices = budget.slices(len(chunk)) if budget is not None else 1
        try:
            if slices == 1:
                tallies = [
                    _chunk_votes(
                        chunk, key, spec, embedding_map, domain,
                        value_mapping, engine, mode,
                    )
                ]
            else:
                tallies = []
                n = len(chunk)
                per = -(-n // slices)
                for offset in range(0, n, per):
                    part = chunk.take(range(offset, min(offset + per, n)))
                    tallies.append(
                        _chunk_votes(
                            part, key, spec, embedding_map, domain,
                            value_mapping, engine, mode,
                        )
                    )
            if breaker is not None and mode == VECTOR:
                breaker.record_success(STREAM_VECTOR_LABEL)
            if budget is not None and budget.note_healthy():
                reliability.chunk_regrows += 1
            return tallies, mode
        except TRANSIENT_TYPES as exc:
            if classify(exc) is not TRANSIENT:
                raise
            vectored = mode == VECTOR
            if vectored and breaker is not None:
                if breaker.record_failure(
                    STREAM_VECTOR_LABEL, cause=repr(exc)
                ):
                    reliability.breaker_trips[STREAM_VECTOR_LABEL] += 1
            if isinstance(exc, MemoryError):
                if budget is not None and budget.shrink(
                    f"MemoryError at chunk {index}"
                ):
                    reliability.chunk_shrinks += 1
                    continue
            if (
                vectored
                and breaker is not None
                and breaker.is_open(STREAM_VECTOR_LABEL)
            ):
                reliability.backend_fallbacks += 1
                logger.warning(
                    "circuit breaker open on %s after %r: degrading "
                    "remaining chunks to the SCALAR backend",
                    STREAM_VECTOR_LABEL, exc,
                )
                mode = SCALAR
                continue
            raise


def stream_detect(
    source,
    key: MarkKey,
    spec: EmbeddingSpec,
    *,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    backend: HashEngine | str | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    memory_budget: MemoryBudget | None = None,
    breaker: CircuitBreaker | None = None,
    workers: int | str | None = None,
    watchdog=None,
) -> StreamDetection:
    """Blindly extract the most likely watermark from a streamed relation.

    Bit-identical to :func:`repro.core.detect` over the concatenation of
    the chunks, at O(chunk + channel length) memory: each chunk
    contributes one bincount tally to a :class:`VoteAccumulator`, and the
    majority/first-vote resolution runs once at the end.  A ``retry``
    policy makes transient chunk-read failures re-open the source at the
    failed boundary instead of aborting the scan — safe because each
    chunk's tally is merged only after the chunk was fully read.

    ``workers`` fans chunk decode + kernel work across a persistent
    process pool (``"auto"`` sizes it from ``cpu_count``); tallies are
    merged in chunk order, so the verdict is bit-identical to
    ``workers=1`` for every worker count.  ``watchdog`` (parallel runs
    only) heartbeat-monitors pool workers; ``False`` disables it.
    """
    from .parallel import resolve_workers

    _check_map_inputs(spec, embedding_map)
    worker_count = resolve_workers(workers)
    if worker_count > 1:
        if isinstance(backend, HashEngine):
            raise StreamError(
                "parallel stream_detect cannot share a HashEngine across "
                "processes; pass a backend sentinel instead"
            )
        if memory_budget is not None:
            raise StreamError(
                "parallel stream_detect does not support a memory_budget: "
                "adaptive chunk slicing is a serial-path feature — run "
                "with workers=1"
            )
    chunk_size = _source_chunk_size(source)
    engine, mode = _resolve_stream_backend(backend, key, chunk_size)
    resolved = _resolve_stream_domain(domain, source, spec)
    if worker_count > 1:
        from ..reliability.pool import resolve_watchdog
        from .parallel import parallel_votes

        reliability = ReliabilityReport()
        accumulators, chunks_seen, rows, report = parallel_votes(
            source, [key], spec,
            maps=[embedding_map], domain=resolved,
            value_mapping=value_mapping, mode=mode,
            chunk_size=chunk_size, workers=worker_count, retry=retry,
            deadline=deadline, watchdog=resolve_watchdog(watchdog),
            breaker=breaker, reliability=reliability,
        )
        accumulator = accumulators[0]
        reliability.bad_rows += getattr(source, "bad_row_count", 0)
        reliability.quarantined_rows += getattr(
            source, "quarantined_rows", 0
        )
        reliability.corrupt_chunks += getattr(source, "corrupt_chunks", 0)
        return StreamDetection(
            detection=accumulator.detection(spec),
            votes=accumulator.votes(),
            chunks=chunks_seen,
            rows=rows,
            reliability=reliability,
            parallel=report,
        )
    accumulator = VoteAccumulator(spec.channel_length)
    reliability = ReliabilityReport()
    rows = 0
    chunks_seen = 0
    for chunk in _chunks_with_retry(source, 0, retry, reliability):
        index = chunks_seen
        check_deadline(deadline, "pipeline.chunk", index)
        if resolved is None:
            resolved = chunk.schema.attribute(spec.mark_attribute).domain
        if resolved is None:
            raise DetectionError(
                f"no categorical domain available for "
                f"{spec.mark_attribute!r}"
            )
        tallies, mode = _chunk_votes_adaptive(
            chunk, key, spec, embedding_map, resolved, value_mapping,
            engine, mode, index, memory_budget, breaker, reliability,
        )
        for tally in tallies:
            accumulator.add(tally)
        rows += len(chunk)
        chunks_seen += 1
        fault_point("pipeline.chunk", index)
    reliability.bad_rows += getattr(source, "bad_row_count", 0)
    reliability.quarantined_rows += getattr(source, "quarantined_rows", 0)
    reliability.corrupt_chunks += getattr(source, "corrupt_chunks", 0)
    return StreamDetection(
        detection=accumulator.detection(spec),
        votes=accumulator.votes(),
        chunks=chunks_seen,
        rows=rows,
        reliability=reliability,
    )


def stream_verify(
    source,
    key: MarkKey,
    spec: EmbeddingSpec,
    expected: Watermark,
    *,
    embedding_map: dict[Hashable, int] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
    backend: HashEngine | str | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    memory_budget: MemoryBudget | None = None,
    breaker: CircuitBreaker | None = None,
    workers: int | str | None = None,
    watchdog=None,
) -> StreamVerification:
    """Streamed counterpart of :func:`repro.core.verify`.

    The verdict — decoded payload, per-slot votes, matching bits,
    false-hit probability — is bit-identical to the in-memory
    :func:`~repro.core.verify` on the same rows, for every chunk size.
    Suspect files may hold out-of-domain values (attacked copies): read
    them with ``infer_domains=True`` sources and pass the escrowed
    canonical ``domain`` explicitly, exactly like the in-memory blind
    detector.
    """
    if len(expected) != spec.watermark_length:
        raise DetectionError(
            f"expected watermark has {len(expected)} bits, spec says "
            f"{spec.watermark_length}"
        )
    streamed = stream_detect(
        source,
        key,
        spec,
        embedding_map=embedding_map,
        domain=domain,
        value_mapping=value_mapping,
        backend=backend,
        retry=retry,
        deadline=deadline,
        memory_budget=memory_budget,
        breaker=breaker,
        workers=workers,
        watchdog=watchdog,
    )
    return StreamVerification(
        verification=_assemble_verification(
            streamed.detection, expected, significance
        ),
        votes=streamed.votes,
        chunks=streamed.chunks,
        rows=streamed.rows,
        reliability=streamed.reliability,
        parallel=streamed.parallel,
    )


def stream_verify_multipass(
    source,
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    expecteds: Sequence[Watermark],
    *,
    embedding_maps: Sequence[dict[Hashable, int] | None] | None = None,
    domain: CategoricalDomain | None = None,
    value_mapping: dict[Hashable, Hashable] | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
    backend: str | None = None,
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    workers: int | str | None = None,
    watchdog=None,
) -> list[VerificationResult]:
    """Streamed counterpart of :func:`repro.core.verify_multipass`.

    Verifies P keyed passes of one spec over a single pass through the
    stream: every chunk is tallied for all P keys at once through the
    fused multi-pass kernel (all passes share the chunk's key-column
    factorization by construction), and P accumulators carry the per-pass
    vote state.  Results are bit-identical to a loop of in-memory
    :func:`~repro.core.verify` calls over the concatenated rows.

    ``workers`` fans the fused per-chunk tally work across a persistent
    process pool; ordered accumulator merges keep every pass's verdict
    bit-identical to ``workers=1``.
    """
    keys = list(keys)
    expecteds = list(expecteds)
    if len(keys) != len(expecteds):
        raise DetectionError(
            f"{len(keys)} keys but {len(expecteds)} expected watermarks"
        )
    maps: Sequence[dict[Hashable, int] | None]
    maps = (
        list(embedding_maps) if embedding_maps is not None
        else [None] * len(keys)
    )
    if len(maps) != len(keys):
        raise DetectionError(
            f"{len(keys)} keys but {len(maps)} embedding maps"
        )
    for embedding_map in maps:
        _check_map_inputs(spec, embedding_map)
    for expected in expecteds:
        if len(expected) != spec.watermark_length:
            raise DetectionError(
                f"expected watermark has {len(expected)} bits, spec says "
                f"{spec.watermark_length}"
            )
    chunk_size = _source_chunk_size(source)
    if isinstance(backend, HashEngine):
        raise StreamError(
            "stream_verify_multipass needs one engine per pass; pass a "
            "backend sentinel instead"
        )
    resolved_pairs = [
        _resolve_stream_backend(backend, key, chunk_size) for key in keys
    ]
    engines = [engine for engine, _ in resolved_pairs]
    mode = resolved_pairs[0][1] if resolved_pairs else VECTOR
    resolved = _resolve_stream_domain(domain, source, spec)

    from .parallel import resolve_workers

    worker_count = resolve_workers(workers)
    pass_count = len(keys)
    if worker_count > 1:
        from ..reliability.pool import resolve_watchdog
        from .parallel import parallel_votes

        reliability = ReliabilityReport()
        accumulators, _, _, _ = parallel_votes(
            source, keys, spec,
            maps=maps, domain=resolved, value_mapping=value_mapping,
            mode=mode, chunk_size=chunk_size, workers=worker_count,
            retry=retry, deadline=deadline,
            watchdog=resolve_watchdog(watchdog), breaker=None,
            reliability=reliability,
        )
        ecc = spec.ecc()
        return [
            _assemble_verification(
                accumulator.detection(spec, ecc=ecc), expected,
                significance,
            )
            for accumulator, expected in zip(accumulators, expecteds)
        ]
    accumulators = [
        VoteAccumulator(spec.channel_length) for _ in range(pass_count)
    ]
    reliability = ReliabilityReport()
    chunks_seen = 0
    for chunk in _chunks_with_retry(source, 0, retry, reliability):
        check_deadline(deadline, "pipeline.chunk", chunks_seen)
        chunks_seen += 1
        if resolved is None:
            resolved = chunk.schema.attribute(spec.mark_attribute).domain
        if resolved is None:
            raise DetectionError(
                f"no categorical domain available for "
                f"{spec.mark_attribute!r}"
            )
        if pass_count > 1 and mode == VECTOR:
            tallies = kernels.detect_multipass_votes(
                [chunk] * pass_count,
                spec,
                [resolved] * pass_count,
                maps if spec.variant == VARIANT_MAP else None,
                value_mapping,
                engines,
            )
            for accumulator, tally in zip(accumulators, tallies):
                accumulator.add(SlotVotes.from_arrays(*tally))
        else:
            for accumulator, pass_key, pass_engine, embedding_map in zip(
                accumulators, keys, engines, maps
            ):
                accumulator.add(
                    _chunk_votes(
                        chunk, pass_key, spec, embedding_map, resolved,
                        value_mapping, pass_engine, mode,
                    )
                )
    ecc = spec.ecc()
    return [
        _assemble_verification(
            accumulator.detection(spec, ecc=ecc), expected, significance
        )
        for accumulator, expected in zip(accumulators, expecteds)
    ]
