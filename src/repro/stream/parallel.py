"""Multicore streaming: read-ahead decode + parallel chunk kernels.

The scheme's per-tuple decisions are pure functions of a keyed hash of
the tuple's key value, so chunks are independent by construction and
``VoteAccumulator`` merges are associative.  This module exploits both
without giving up a single bit of determinism:

* **Coordinator** (this process) — decodes chunk *payloads* (raw CSV
  field lists, typed row tuples; see
  :func:`~repro.stream.sources.payload_chunks`) up to a bounded
  read-ahead window of ``2 × workers`` chunks ahead of the oldest
  uncommitted chunk, submitting each to the pool so decode overlaps
  compute.  It then always blocks on the *lowest-index* in-flight
  future: detection merges that chunk's tallies into the accumulators,
  embedding writes the marked chunk to the sink and checkpoints — both
  in strict chunk order.  Ordered merge preserves the global first-vote
  tie rule; ordered commit preserves the sink's one-gzip-member-per-
  chunk framing — which is what pins ``workers=N`` bit-identical to
  ``workers=1`` and to the in-memory verifiers.

* **Workers** (a persistent :class:`~repro.reliability.pool.WorkerPool`,
  keyed by the pickled run state) — are initialized once with keys,
  spec, domain and schema; each builds one warm chunk-bounded
  :func:`~repro.stream.pipeline.stream_engine` per key, then
  materializes every task's payload (the expensive per-cell CSV typing
  happens *here*, not in the coordinator) and runs the exact serial
  per-chunk kernels, so a worker's tallies and marked rows are the ones
  the serial loop would produce.

Reliability integration: the pool's bounded wait caps every result by
the run's :class:`~repro.reliability.Deadline` (expiry kills the workers
and retires the pool) and lets the
:class:`~repro.reliability.Watchdog` SIGKILL hung workers; a
:class:`~repro.reliability.RetryPolicy` re-dispatches
failed chunks (pure functions — the replay is bit-identical) and
respawns a broken pool; and the :class:`~repro.reliability.CircuitBreaker`
label :data:`STREAM_PARALLEL_LABEL` opens a ``parallel → serial``
degradation ladder that computes the remaining chunks in the
coordinator with the same kernels — same bits, one core.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import time
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..core import kernels
from ..core.detection import SlotVotes, VoteAccumulator
from ..core.embedding import EmbeddingSpec, VARIANT_MAP
from ..core.errors import DetectionError
from ..core.watermark import Watermark
from ..crypto import SCALAR, VECTOR, MarkKey
from ..quality import QualityGuard
from ..relational import CategoricalDomain, Table
from ..relational.csvio import cell_parsers, parse_row
from ..reliability.breaker import CircuitBreaker
from ..reliability.deadline import Deadline, check_deadline
from ..reliability.faults import fault_point
from ..reliability.pool import WorkerPool, fire, planned_fault, worker_beat
from ..reliability.report import ReliabilityReport
from ..reliability.retry import (
    TRANSIENT,
    TRANSIENT_TYPES,
    RetryError,
    RetryPolicy,
    classify,
)
from ..reliability.watchdog import IDLE, Watchdog
from .errors import BadRowError, StreamError
from .pipeline import (
    _chunk_votes,
    _chunk_votes_adaptive,
    _embed_chunk,
    stream_engine,
)
from .sources import (
    PAYLOAD_RAW,
    PAYLOAD_TABLE,
    ChunkTask,
    build_chunk_table,
    payload_chunks,
    payload_profile,
)

logger = logging.getLogger(__name__)

#: circuit-breaker label of the parallel -> serial degradation ladder
STREAM_PARALLEL_LABEL = "stream.parallel"

#: ``workers=`` sentinel: size the pool from the machine
AUTO_WORKERS = "auto"

#: read-ahead depth as a multiple of the worker count: enough decoded
#: chunks in flight to keep every worker busy while the head commits,
#: small enough that coordinator memory stays O(workers × chunk)
READAHEAD_FACTOR = 2


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers=`` parameter to a positive worker count.

    ``None`` and ``1`` keep the historical single-process path (no pool,
    no pickling — exact serial code).  ``"auto"`` applies the cpu_count
    heuristic: reserve one core for the coordinator's read-ahead decode
    and fan the rest, never fewer than two workers once a second core
    exists and never more than eight (the coordinator's record reading +
    pickling saturates long before that).
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers.lower() != AUTO_WORKERS:
            raise StreamError(
                f"workers must be a positive int or {AUTO_WORKERS!r}, "
                f"got {workers!r}"
            )
        cores = os.cpu_count() or 1
        if cores < 2:
            return 1
        return max(2, min(cores - 1, 8))
    count = int(workers)
    if count < 1:
        raise StreamError(f"workers must be >= 1, got {workers!r}")
    return count


@dataclass
class ParallelReport:
    """Telemetry of one parallel streaming run."""

    workers: int
    #: chunks whose result came from a pool worker
    chunks_parallel: int = 0
    #: chunks computed in the coordinator after the parallel -> serial
    #: degradation ladder engaged (bit-identical, one core)
    chunks_serial: int = 0
    #: tasks re-submitted after a worker failure (bit-identical replays)
    redispatches: int = 0
    #: last telemetry snapshot per worker pid — chunks processed, kernel
    #: launches and digests computed since the worker was forked
    worker_stats: dict[int, dict[str, Any]] = field(default_factory=dict)

    def note(self, stats: dict[str, Any] | None) -> None:
        if stats is not None:
            self.worker_stats[stats["pid"]] = {
                key: value for key, value in stats.items() if key != "pid"
            }


# -- chunk materialization (shared by workers and the serial fallback) ---------

def _build_chunk(
    task: ChunkTask,
    schema,
    name: str,
    path: str | None,
    infer: bool,
    trusted: bool,
    parsers,
) -> Table:
    """Materialize one payload into the exact chunk table the serial
    source would have yielded."""
    if task.kind == PAYLOAD_TABLE:
        return task.payload
    if task.kind == PAYLOAD_RAW:
        arity = schema.arity
        origin = task.origin or path or name
        number = task.first_row_number
        rows = []
        for record in task.payload:
            number += 1
            try:
                rows.append(parse_row(record, parsers, arity, number))
            except ValueError as exc:
                raise BadRowError(origin, number, str(exc)) from exc
    else:
        rows = task.payload
    return build_chunk_table(
        schema, rows, task.index, name, infer=infer, trusted=trusted
    )


# -- the persistent worker pool ------------------------------------------------
#
# One pool slot, keyed by (hash of the pickled run state, worker count)
# — a separate slot from the sweep engine's, so alternating sweep and
# stream runs do not respawn each other's workers.  Workers hold warm
# per-key stream engines, so a mark-then-verify pair (or repeated verify
# calls with the same run state) re-hashes nothing.

_POOL = WorkerPool("stream")

# Worker-process globals (set by _worker_init, used by the task fns).
_W: dict[str, Any] | None = None
_W_HASHERS: list | None = None
_W_PARSERS = None
_W_CHUNKS = 0


def _worker_init(blob: bytes) -> None:
    """Pool initializer: install the run state, build one warm
    chunk-bounded stream engine per key, zero worker-local telemetry."""
    global _W, _W_HASHERS, _W_PARSERS, _W_CHUNKS
    _W = pickle.loads(blob)
    _W_HASHERS = [
        None if _W["mode"] == SCALAR
        else stream_engine(key, _W["chunk_size"])
        for key in _W["keys"]
    ]
    schema = _W["schema"]
    _W_PARSERS = cell_parsers(schema) if schema is not None else None
    _W_CHUNKS = 0
    # Worker-local counters must count this worker's launches only,
    # whatever the parent process had accumulated before the fork.
    kernels.reset_kernel_calls()


def _worker_stats() -> dict[str, Any]:
    return {
        "pid": os.getpid(),
        "chunks": _W_CHUNKS,
        "kernel_calls": dict(kernels.KERNEL_CALLS),
        "computed_digests": sum(
            engine.computed_digests
            for engine in _W_HASHERS
            if engine is not None
        ),
    }


def _worker_chunk(task: ChunkTask) -> Table:
    return _build_chunk(
        task, _W["schema"], _W["name"], _W["path"], _W["infer"],
        _W["trusted"], _W_PARSERS,
    )


def _task_votes(task: ChunkTask, fault=None):
    """Pool task: one chunk's per-pass slot-vote tallies — exactly the
    tallies the serial per-chunk kernels produce.  ``fault`` is a
    parent-planned :class:`~repro.reliability.pool.PlannedFault`."""
    global _W_CHUNKS
    worker_beat()
    try:
        if fault is not None:
            fire(fault, task.index)
        chunk = _worker_chunk(task)
        spec = _W["spec"]
        domain = _W["domain"]
        if domain is None:
            domain = chunk.schema.attribute(spec.mark_attribute).domain
        keys = _W["keys"]
        maps = _W["maps"]
        mode = _W["mode"]
        value_mapping = _W["value_mapping"]
        if len(keys) > 1 and mode == VECTOR:
            tallies = [
                SlotVotes.from_arrays(*tally)
                for tally in kernels.detect_multipass_votes(
                    [chunk] * len(keys),
                    spec,
                    [domain] * len(keys),
                    maps if spec.variant == VARIANT_MAP else None,
                    value_mapping,
                    _W_HASHERS,
                )
            ]
        else:
            tallies = [
                _chunk_votes(
                    chunk, key, spec, embedding_map, domain, value_mapping,
                    engine, mode,
                )
                for key, engine, embedding_map in zip(
                    keys, _W_HASHERS, maps
                )
            ]
        _W_CHUNKS += 1
        return tallies, len(chunk), _worker_stats()
    finally:
        worker_beat(IDLE)


def _task_embed(task: ChunkTask, fault=None):
    """Pool task: embed one chunk in place; returns the marked rows plus
    the per-chunk embedding/guard reports for the ordered commit."""
    global _W_CHUNKS
    from .pipeline import _embed_one

    worker_beat()
    try:
        if fault is not None:
            fire(fault, task.index)
        chunk = _worker_chunk(task)
        spec = _W["spec"]
        domain = _W["domain"]
        chunk_domain = chunk.schema.attribute(spec.mark_attribute).domain
        if chunk_domain != domain:
            raise StreamError(
                "chunk domain drifted from the declared domain — "
                "stream_mark sources must be built with "
                "infer_domains=False"
            )
        guard = QualityGuard([])
        guard.bind(chunk)
        pass_result = _embed_one(
            chunk, _W["watermark"], _W["keys"][0], spec, domain,
            _W["wm_data"], guard, _W_HASHERS[0], _W["mode"],
        )
        _W_CHUNKS += 1
        return (
            list(iter(chunk)), pass_result, guard.report, len(chunk),
            _worker_stats(),
        )
    finally:
        worker_beat(IDLE)


def shutdown_stream_pool() -> None:
    """Retire the persistent stream pool (test isolation, run-state
    change, interpreter exit)."""
    _POOL.shutdown()


def _failed_future(exc: BaseException):
    from concurrent.futures import Future

    future = Future()
    future.set_exception(exc)
    return future


def _tasks_with_retry(
    source,
    start: int,
    policy: RetryPolicy | None,
    report: ReliabilityReport,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[ChunkTask]:
    """Payload tasks of ``source``, re-opening on transient read failures
    (the payload twin of the serial ``_chunks_with_retry``).

    The read-ahead window holds already-yielded tasks in memory, so a
    re-open at the reader's position never loses or duplicates a chunk.
    """
    if policy is None or not hasattr(source, "chunks"):
        yield from payload_chunks(source, start)
        return
    position = start
    attempt = 0
    iterator = payload_chunks(source, position)
    while True:
        try:
            task = next(iterator)
        except StopIteration:
            return
        except TRANSIENT_TYPES as exc:
            if classify(exc) is not TRANSIENT:
                raise
            attempt += 1
            if attempt >= policy.max_attempts:
                raise RetryError("source.read", attempt) from exc
            report.record_retry("source.read", attempt, exc)
            sleep(policy.delay("source.read", attempt))
            report.source_reopens += 1
            iterator = payload_chunks(source, position)
            continue
        attempt = 0
        yield task
        position += 1


# -- the ordered coordinator ---------------------------------------------------

class _OrderedRun:
    """Bounded read-ahead dispatch with strictly ordered commit.

    ``commit(task, result)`` is only ever called with the lowest
    uncommitted chunk index — the invariant every bit-identity claim of
    this module rests on.
    """

    def __init__(
        self,
        task_fn,
        serial_fn,
        commit,
        *,
        blob: bytes,
        workers: int,
        retry: RetryPolicy | None,
        deadline: Deadline | None,
        watchdog: Watchdog | None,
        breaker: CircuitBreaker | None,
        reliability: ReliabilityReport,
        report: ParallelReport,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.task_fn = task_fn
        self.serial_fn = serial_fn
        self.commit = commit
        self.blob = blob
        self.workers = workers
        self.retry = retry
        self.deadline = deadline
        self.watchdog = watchdog
        self.breaker = breaker
        self.reliability = reliability
        self.report = report
        self.sleep = sleep
        self.window = READAHEAD_FACTOR * workers
        self.in_flight: "OrderedDict[int, list]" = OrderedDict()
        self.pool = None
        self.serial_mode = (
            breaker is not None and breaker.is_open(STREAM_PARALLEL_LABEL)
        )
        if self.serial_mode:
            self.reliability.pool_fallbacks += 1

    # -- driving loop -----------------------------------------------------------
    def run(self, tasks: Iterator[ChunkTask]) -> None:
        tasks = iter(tasks)
        exhausted = False
        while True:
            while (
                not exhausted
                and not self.serial_mode
                and len(self.in_flight) < self.window
            ):
                task = next(tasks, None)
                if task is None:
                    exhausted = True
                    break
                check_deadline(self.deadline, "pipeline.chunk", task.index)
                entry = [None, task, 0]
                self._submit(entry)
                self.in_flight[task.index] = entry
            if self.in_flight:
                self._commit_head()
                continue
            if self.serial_mode:
                task = next(tasks, None)
                if task is None:
                    return
                self._commit_serial(task)
                continue
            if exhausted:
                return

    # -- submission -------------------------------------------------------------
    def _submit(self, entry: list) -> None:
        from concurrent.futures import BrokenExecutor

        if self.pool is None:
            # A different run state (other keys, spec, domain, chunk
            # size) retires the old pool: worker engines are only warm
            # for the state their initializer installed.
            self.pool = _POOL.ensure(
                hashlib.sha256(self.blob).digest(), self.workers,
                _worker_init, lambda: self.blob,
            )
        task = entry[1]
        try:
            entry[0] = self.pool.submit(
                self.task_fn, task, planned_fault(task.index)
            )
        except BrokenExecutor as exc:
            # A worker died between commits; leave a pre-failed future so
            # the ordered commit path runs its usual pool recovery.
            entry[0] = _failed_future(exc)

    # -- commits ----------------------------------------------------------------
    def _commit_serial(self, task: ChunkTask) -> None:
        check_deadline(self.deadline, "pipeline.chunk", task.index)
        self.commit(task, self.serial_fn(task))
        self.report.chunks_serial += 1
        fault_point("pipeline.chunk", task.index)

    def _commit_head(self) -> None:
        from concurrent.futures import BrokenExecutor

        index, entry = next(iter(self.in_flight.items()))
        try:
            result = self._await(entry)
        except BrokenExecutor as exc:
            self._trip(exc)
            if self.retry is None:
                raise
            self._recover_pool(entry, exc)
            return
        except TRANSIENT_TYPES as exc:
            # Anything outside the shared transient taxonomy propagates
            # untouched (a logic error replayed is a logic error twice);
            # ``classify`` still vets members of the tuple, because some
            # carry a permanent payload (e.g. ``OSError`` + ENOSPC).
            if classify(exc) is not TRANSIENT:
                raise
            logger.warning(
                "parallel chunk %d failed with transient %r; recovering",
                entry[1].index, exc,
            )
            self._trip(exc)
            if self.retry is None:
                raise
            self._recover_task(entry, exc)
            return
        if self.breaker is not None:
            self.breaker.record_success(STREAM_PARALLEL_LABEL)
        del self.in_flight[index]
        self.commit(entry[1], result)
        self.report.chunks_parallel += 1
        fault_point("pipeline.chunk", index)

    def _await(self, entry: list):
        """The pool's bounded wait on the head chunk: watchdog-scanned,
        deadline-capped (expiry kills the workers and retires the pool
        before :class:`~repro.reliability.DeadlineExceededError`)."""
        return _POOL.wait(
            entry[0], self.deadline, self.watchdog, self.reliability,
            "pipeline.chunk", entry[1].index,
        )

    # -- recovery ---------------------------------------------------------------
    def _trip(self, exc: BaseException) -> None:
        if self.breaker is not None:
            if self.breaker.record_failure(
                STREAM_PARALLEL_LABEL, cause=repr(exc)
            ):
                self.reliability.breaker_trips[STREAM_PARALLEL_LABEL] += 1

    def _spend_attempt(self, entry: list, exc: BaseException) -> None:
        entry[2] += 1
        if entry[2] >= self.retry.max_attempts:
            raise RetryError("pool.worker", entry[2]) from exc
        self.reliability.record_retry("pool.worker", entry[2], exc)
        self.sleep(self.retry.delay("pool.worker", entry[2]))

    def _recover_task(self, entry: list, exc: BaseException) -> None:
        """One task failed, the pool is alive: re-dispatch that chunk
        (trigger consumed at first submit — the replay runs clean)."""
        self._spend_attempt(entry, exc)
        if self.breaker is not None and self.breaker.is_open(
            STREAM_PARALLEL_LABEL
        ):
            self._degrade()
            return
        self.report.redispatches += 1
        self._submit(entry)

    def _recover_pool(self, entry: list, exc: BaseException) -> None:
        """The executor broke (a worker was SIGKILLed, or died): kill
        any stragglers, respawn, and re-dispatch every in-flight chunk
        in order — pure functions of their payloads, so the replayed run
        is bit-identical."""
        self._spend_attempt(entry, exc)
        self.reliability.pool_respawns += 1
        logger.warning(
            "stream pool broke at chunk %d (%r): respawning and "
            "re-dispatching %d in-flight chunks",
            entry[1].index, exc, len(self.in_flight),
        )
        _POOL.shutdown(kill=True)
        self.pool = None
        if self.breaker is not None and self.breaker.is_open(
            STREAM_PARALLEL_LABEL
        ):
            self._degrade()
            return
        for waiting in self.in_flight.values():
            future = waiting[0]
            if (
                future is not None
                and future.done()
                and future.exception() is None
            ):
                continue  # completed before the breakage; keep the result
            self.report.redispatches += 1
            self._submit(waiting)

    def _degrade(self) -> None:
        """The parallel -> serial bit-identical ladder: compute every
        in-flight (and all remaining) chunks in the coordinator with the
        same kernels, in the same order."""
        self.serial_mode = True
        self.reliability.pool_fallbacks += 1
        logger.warning(
            "circuit breaker open on %s: computing remaining chunks "
            "serially in the coordinator", STREAM_PARALLEL_LABEL,
        )
        entries = list(self.in_flight.values())
        self.in_flight.clear()
        for entry in entries:
            if entry[0] is not None:
                entry[0].cancel()
        for entry in entries:
            self._commit_serial(entry[1])


# -- run-state assembly --------------------------------------------------------

def _run_blob(
    profile: dict[str, Any],
    *,
    keys: Sequence[MarkKey],
    maps: Sequence[dict[Hashable, int] | None],
    spec: EmbeddingSpec,
    domain: CategoricalDomain | None,
    value_mapping: dict[Hashable, Hashable] | None,
    mode: str,
    chunk_size: int,
    watermark: Watermark | None = None,
    wm_data=None,
) -> bytes:
    state = {
        "schema": profile["schema"],
        "infer": profile["infer"],
        "trusted": profile["trusted"],
        "name": profile["name"],
        "path": profile["path"],
        "keys": list(keys),
        "maps": list(maps),
        "spec": spec,
        "domain": domain,
        "value_mapping": value_mapping,
        "mode": mode,
        "chunk_size": chunk_size,
        "watermark": watermark,
        "wm_data": wm_data,
    }
    try:
        return pickle.dumps(state)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # The three ways pickling actually fails: a declared-unpicklable
        # object, an unsupported type (lambda, local class), or a lookup
        # that dies during __reduce__.  Anything else is a real bug in
        # run-state assembly and should surface with its own traceback.
        logger.warning(
            "run state for %s is not picklable: %r", profile["name"], exc
        )
        raise StreamError(
            f"parallel streaming needs a picklable run state: {exc}"
        ) from exc


# -- public coordinators -------------------------------------------------------

def parallel_votes(
    source,
    keys: Sequence[MarkKey],
    spec: EmbeddingSpec,
    *,
    maps: Sequence[dict[Hashable, int] | None],
    domain: CategoricalDomain | None,
    value_mapping: dict[Hashable, Hashable] | None,
    mode: str,
    chunk_size: int,
    workers: int,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    watchdog: Watchdog | None,
    breaker: CircuitBreaker | None,
    reliability: ReliabilityReport,
) -> tuple[list[VoteAccumulator], int, int, ParallelReport]:
    """Parallel streamed tallies: ``(accumulators, chunks, rows,
    report)``, with every accumulator's state bit-identical to the
    serial single-process scan."""
    from itertools import chain

    profile = payload_profile(source)
    report = ParallelReport(workers=workers)
    tasks = _tasks_with_retry(source, 0, retry, reliability)
    first = next(tasks, None)
    accumulators = [
        VoteAccumulator(spec.channel_length) for _ in keys
    ]
    if first is None:
        return accumulators, 0, 0, report
    if domain is None:
        # Schema-less iterable sources pin the canonical domain from the
        # first chunk, exactly like the serial path — resolved here,
        # before the pool forks, so every worker decodes the same way.
        if first.kind == PAYLOAD_TABLE:
            domain = first.payload.schema.attribute(
                spec.mark_attribute
            ).domain
        if domain is None:
            raise DetectionError(
                f"no categorical domain available for "
                f"{spec.mark_attribute!r}"
            )

    blob = _run_blob(
        profile, keys=keys, maps=maps, spec=spec, domain=domain,
        value_mapping=value_mapping, mode=mode, chunk_size=chunk_size,
    )

    chunks_seen = 0
    rows = 0

    def commit(task: ChunkTask, result) -> None:
        nonlocal chunks_seen, rows
        tallies, nrows, stats = result
        for accumulator, tally in zip(accumulators, tallies):
            accumulator.add(tally)
        chunks_seen += 1
        rows += nrows
        report.note(stats)

    serial_fn = _serial_votes_fn(
        profile, keys=keys, maps=maps, spec=spec, domain=domain,
        value_mapping=value_mapping, mode=mode, chunk_size=chunk_size,
        breaker=breaker, reliability=reliability,
    )
    run = _OrderedRun(
        _task_votes, serial_fn, commit,
        blob=blob, workers=workers, retry=retry, deadline=deadline,
        watchdog=watchdog, breaker=breaker, reliability=reliability,
        report=report,
    )
    run.run(chain([first], tasks))
    return accumulators, chunks_seen, rows, report


def _serial_votes_fn(
    profile: dict[str, Any],
    *,
    keys: Sequence[MarkKey],
    maps: Sequence[dict[Hashable, int] | None],
    spec: EmbeddingSpec,
    domain: CategoricalDomain,
    value_mapping: dict[Hashable, Hashable] | None,
    mode: str,
    chunk_size: int,
    breaker: CircuitBreaker | None,
    reliability: ReliabilityReport,
):
    """Coordinator-side fallback compute — the degradation ladder's
    serial twin of :func:`_task_votes` (same kernels, same order, plus
    the serial path's own VECTOR -> SCALAR ladder for single-pass)."""
    engines = [
        None if mode == SCALAR else stream_engine(key, chunk_size)
        for key in keys
    ]
    schema = profile["schema"]
    parsers = cell_parsers(schema) if schema is not None else None
    state = {"mode": mode}

    def compute(task: ChunkTask):
        chunk = _build_chunk(
            task, schema, profile["name"], profile["path"],
            profile["infer"], profile["trusted"], parsers,
        )
        if len(keys) == 1:
            tallies, state["mode"] = _chunk_votes_adaptive(
                chunk, keys[0], spec, maps[0], domain, value_mapping,
                engines[0], state["mode"], task.index, None, breaker,
                reliability,
            )
        elif state["mode"] == VECTOR:
            tallies = [
                SlotVotes.from_arrays(*tally)
                for tally in kernels.detect_multipass_votes(
                    [chunk] * len(keys),
                    spec,
                    [domain] * len(keys),
                    maps if spec.variant == VARIANT_MAP else None,
                    value_mapping,
                    engines,
                )
            ]
        else:
            tallies = [
                _chunk_votes(
                    chunk, key, spec, embedding_map, domain,
                    value_mapping, engine, state["mode"],
                )
                for key, engine, embedding_map in zip(keys, engines, maps)
            ]
        return tallies, len(chunk), None

    return compute


def parallel_mark(
    source,
    start: int,
    commit_marked,
    *,
    watermark: Watermark,
    key: MarkKey,
    spec: EmbeddingSpec,
    domain: CategoricalDomain,
    wm_data,
    mode: str,
    chunk_size: int,
    workers: int,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    watchdog: Watchdog | None,
    breaker: CircuitBreaker | None,
    reliability: ReliabilityReport,
) -> ParallelReport:
    """Parallel streamed embed: workers mark chunks, the ordered commit
    loop hands each marked chunk to ``commit_marked(index, marked,
    pass_result, guard_report, rows)`` in strict chunk order — the
    caller (``stream_mark``) writes, flushes and checkpoints exactly as
    the serial loop would, so output bytes, checkpoints and resume stay
    identical."""
    profile = payload_profile(source)
    schema = profile["schema"]
    report = ParallelReport(workers=workers)
    blob = _run_blob(
        profile, keys=[key], maps=[None], spec=spec, domain=domain,
        value_mapping=None, mode=mode, chunk_size=chunk_size,
        watermark=watermark, wm_data=wm_data,
    )

    def commit(task: ChunkTask, result) -> None:
        rows, pass_result, guard_report, nrows, stats = result
        marked = Table.from_trusted_rows(
            schema, rows, name=f"{profile['name']}[{task.index}]"
        )
        commit_marked(task.index, marked, pass_result, guard_report, nrows)
        report.note(stats)

    parsers = cell_parsers(schema) if schema is not None else None
    engine = None if mode == SCALAR else stream_engine(key, chunk_size)
    state = {"mode": mode}

    def serial_fn(task: ChunkTask):
        chunk = _build_chunk(
            task, schema, profile["name"], profile["path"],
            profile["infer"], profile["trusted"], parsers,
        )
        chunk_domain = chunk.schema.attribute(spec.mark_attribute).domain
        if chunk_domain != domain:
            raise StreamError(
                "chunk domain drifted from the declared domain — "
                "stream_mark sources must be built with "
                "infer_domains=False"
            )
        marked, pass_result, guard_report, state["mode"] = _embed_chunk(
            chunk, watermark, key, spec, domain, wm_data, None,
            engine, state["mode"], task.index, None, breaker, reliability,
        )
        return list(iter(marked)), pass_result, guard_report, len(chunk), None

    run = _OrderedRun(
        _task_embed, serial_fn, commit,
        blob=blob, workers=workers, retry=retry, deadline=deadline,
        watchdog=watchdog, breaker=breaker, reliability=reliability,
        report=report,
    )
    run.run(_tasks_with_retry(source, start, retry, reliability))
    return report
