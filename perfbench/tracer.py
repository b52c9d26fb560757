"""Outside-in span recorder: times ``repro``'s layers from the benchmark.

Nothing under ``src/`` is changed.  :func:`install` replaces, for the
life of one traced workload process, the attributes the callers
actually look up — ``repro.stream.pipeline.save_checkpoint`` rather than
``repro.stream.checkpoint.save_checkpoint``, methods on the classes the
pipeline instantiates — with wrappers that open a span around the call.

* A span records a name, its layer, start and end in
  ``perf_counter_ns``, the span that was open when it started, and the
  run id.  Spans are made per chunk or per call, never per row.
* Spans stay in memory; the workload writes them out once, at the end.
* A span's self time is its duration minus the time its child spans
  cover.  Every layer's self time plus the unaccounted remainder adds up
  to the timed wall time.
* Only the coordinator is traced.  Pool workers are forked with the
  wrappers in place, so every wrapper checks the process and thread id
  and calls straight through anywhere else: pooled work shows up as the
  coordinator's wait spans plus the counters the result objects return.
* Reading, gunzip and CSV parsing happen inside one generator step of
  the source, so they are one span (``sources.chunk``).
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from collections import Counter, defaultdict

#: the layers of the split, in report order
LAYERS = (
    "sources", "relational", "crypto", "core", "pipeline", "sinks",
    "checkpoint", "journal", "parallel", "sweep",
)


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "run")

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Records spans around wrapped attributes; :meth:`restore` puts the
    original attributes back."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: files whose final size is reported (sink outputs, journals)
        self.files: dict[str, set] = defaultdict(set)
        #: chunk tasks the parallel coordinator submitted
        self.shipped: list = []
        self._stack: list[Span] = []
        self._patches: list = []
        self._next = 0

    # -- spans ---------------------------------------------------------------
    def here(self) -> bool:
        """Is the caller the traced coordinator thread?"""
        return os.getpid() == self.pid and threading.get_ident() == self.tid

    def open(self, name: str, layer: str) -> Span:
        span = Span()
        self._next += 1
        span.id = self._next
        span.name = name
        span.layer = layer
        span.parent = self._stack[-1].id if self._stack else None
        span.run = self.run_id
        span.end = None
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def wrap(
        self, owner, attr: str, name: str, layer: str,
        before=None, after=None, counter: str | None = None,
    ) -> None:
        """Span every call of ``owner.attr``, counting calls under
        ``counter``.  ``before(args, kwargs)`` returns a token handed to
        ``after(token, args, kwargs, result)``; both run outside the
        span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.here():
                return original(*args, **kwargs)
            if counter is not None:
                recorder.counts[counter] += 1
            token = before(args, kwargs) if before is not None else None
            result = recorder.call(name, layer, original, *args, **kwargs)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_iter(
        self, owner, attr: str, name: str, layer: str,
        each=None, start=None,
    ) -> None:
        """Span every step of the generator ``owner.attr`` returns (the
        generator does its work between yields, so each ``next`` is one
        chunk's read).  ``start(args)`` runs when it is created and
        ``each(item)`` after every step, both outside the spans."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            if not recorder.here():
                return inner
            if start is not None:
                start(args)
            return recorder._steps(inner, name, layer, each)

        self._patch(owner, attr, wrapper)

    def _steps(self, inner, name, layer, each):
        try:
            while True:
                span = self.open(name, layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(span)
                if each is not None:
                    each(item)
                yield item
        finally:
            inner.close()

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if recorder.here():
                recorder.counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> dict[int, int]:
        """Span id -> self time in ns."""
        covered: Counter = Counter()
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return {
            span.id: span.end - span.start - covered[span.id]
            for span in self.spans
        }

    def self_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time in seconds summed by span name and by layer."""
        by_name: Counter = Counter()
        by_layer: Counter = Counter()
        selfs = self.self_times()
        for span in self.spans:
            by_name[span.name] += selfs[span.id]
            by_layer[span.layer] += selfs[span.id]
        return (
            {name: ns / 1e9 for name, ns in by_name.items()},
            {layer: ns / 1e9 for layer, ns in by_layer.items()},
        )

    def root_seconds(self) -> float:
        return sum(
            span.end - span.start for span in self.spans if span.parent is None
        ) / 1e9


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the workloads reach."""
    from repro.core import kernels
    from repro.crypto.engine import HashEngine, KeyedDigestCache
    from repro.experiments import sweepengine
    from repro.relational.table import Table
    from repro.stream import parallel, pipeline, sinks, sources

    counts = recorder.counts

    # sources: one span per chunk read; the table build is its child
    def source_opened(args):
        path = getattr(args[0], "path", None)
        if path is not None:
            counts["sources.bytes"] += os.path.getsize(path)

    def chunk_read(table):
        counts["sources.chunks"] += 1
        counts["sources.rows"] += len(table)

    recorder.wrap_iter(
        sources.CSVChunkSource, "chunks", "sources.chunk", "sources",
        each=chunk_read, start=source_opened,
    )
    recorder.wrap(sources, "build_chunk_table", "sources.build", "sources")

    # relational: column factorization (builds counted, cache hits not)
    def misses(args, kwargs):
        return getattr(args[0], "_codes_misses", 0)

    def factorized(token, args, kwargs, result):
        counts["relational.factorize_calls"] += (
            getattr(args[0], "_codes_misses", 0) - token
        )

    recorder.wrap(
        Table, "column_codes", "relational.factorize", "relational",
        before=misses, after=factorized,
    )

    # crypto: derived maps, plan arrays and batched digests
    def lookups(args, kwargs):
        values = args[1]
        if hasattr(values, "__len__"):
            counts["crypto.lookups"] += len(values)
        return args[0].computed_digests

    def looked_up(token, args, kwargs, result):
        counts["crypto.lookup_misses"] += args[0].computed_digests - token

    for attr in ("fitness_map", "slot_map", "pair_map"):
        recorder.wrap(
            HashEngine, attr, "crypto.map", "crypto",
            before=lookups, after=looked_up,
        )
    for attr in ("fitness_array", "slot_array", "pair_array"):
        recorder.wrap(HashEngine, attr, "crypto.plan", "crypto")

    def computed_before(args, kwargs):
        return args[0].computed

    def computed_after(token, args, kwargs, result):
        counts["crypto.digests"] += args[0].computed - token

    recorder.wrap(
        KeyedDigestCache, "digest_many", "crypto.digest", "crypto",
        before=computed_before, after=computed_after,
    )

    # core: the kernels and the row-at-a-time paths the pipeline calls
    def kernel_calls(args, kwargs):
        return sum(kernels.KERNEL_CALLS.values())

    def kernels_done(token, args, kwargs, result):
        counts["core.kernel_calls"] += (
            sum(kernels.KERNEL_CALLS.values()) - token
        )

    for attr in (
        "embed_vector", "extract_votes_vector", "extract_slots_vector",
        "detect_multipass", "detect_multipass_votes",
    ):
        recorder.wrap(
            kernels, attr, "core.kernel", "core",
            before=kernel_calls, after=kernels_done,
        )
    for attr in ("embed", "extract_slot_votes"):
        recorder.wrap(pipeline, attr, "core.scalar", "core")

    # sinks, checkpoint, journal, fsync
    def sink_file(args, kwargs):
        recorder.files["sinks"].add(str(args[0].path))

    recorder.wrap(
        sinks.CSVChunkSink, "write_chunk", "sinks.write", "sinks",
        before=sink_file, counter="sinks.writes",
    )
    recorder.wrap(sinks.CSVChunkSink, "flush_state", "sinks.flush", "sinks")
    recorder.wrap(sinks.CSVChunkSink, "close", "sinks.flush", "sinks")
    recorder.wrap(
        pipeline, "save_checkpoint", "checkpoint.save", "checkpoint",
        counter="checkpoint.saves",
    )

    def journal_file(args, kwargs):
        recorder.files["journal"].add(str(args[0]))

    recorder.wrap(
        pipeline, "append_journal_chunk", "journal.append", "journal",
        before=journal_file,
    )
    recorder.count(os, "fsync", "io.fsyncs")

    # parallel stream coordinator: payload reads, submits, result waits
    def payload_read(task):
        counts["sources.chunks"] += 1
        counts["sources.rows"] += task.count

    recorder.wrap_iter(
        sources.CSVChunkSource, "payloads", "parallel.read", "parallel",
        each=payload_read, start=source_opened,
    )

    def shipped(token, args, kwargs, result):
        # Pickled after the timed call (layer_metrics), not in it.
        recorder.shipped.append(args[1][1])

    recorder.wrap(
        parallel._OrderedRun, "_submit", "parallel.submit", "parallel",
        after=shipped,
    )
    recorder.wrap(parallel._OrderedRun, "_await", "parallel.wait", "parallel")

    # sweep coordinator: pool start and waits on pooled cells
    recorder.wrap(sweepengine, "_ensure_pool", "sweep.pool", "sweep")
    recorder.wrap(
        sweepengine.SweepEngine, "_await_result", "sweep.wait", "sweep"
    )


def file_bytes(paths) -> int:
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


def layer_metrics(recorder: Recorder, wall_s: float, extra: dict) -> dict:
    """Every :data:`LAYER_METRICS` value of one traced call.

    ``extra`` carries what the result objects report (pool telemetry,
    sweep counters, recovery counters); ``trace.overhead`` is filled in
    by the caller, which compares traced and untraced runs.
    """
    by_name, by_layer = recorder.self_seconds()
    counts = recorder.counts
    lookups = counts["crypto.lookups"]
    hits = lookups - counts["crypto.lookup_misses"]
    shipped_rows = sum(task.count for task in recorder.shipped)
    shipped_bytes = sum(
        len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
        for task in recorder.shipped
    )
    metrics = {
        "sources.busy_s": by_name.get("sources.chunk", 0.0),
        "sources.rows": counts["sources.rows"],
        "sources.chunks": counts["sources.chunks"],
        "sources.bytes": counts["sources.bytes"],
        "sources.build_s": by_name.get("sources.build", 0.0),
        "relational.factorize_s": by_layer.get("relational", 0.0),
        "relational.factorize_calls": counts["relational.factorize_calls"],
        "crypto.hash_s": by_layer.get("crypto", 0.0),
        "crypto.digests": (
            counts["crypto.digests"] + extra.get("worker_digests", 0)
        ),
        "crypto.hit_ratio": hits / lookups if lookups else 0.0,
        "core.kernel_s": by_layer.get("core", 0.0),
        "core.kernel_calls": (
            counts["core.kernel_calls"] + extra.get("worker_kernel_calls", 0)
        ),
        "pipeline.self_s": by_layer.get("pipeline", 0.0),
        "sinks.write_s": by_name.get("sinks.write", 0.0),
        "sinks.flush_s": by_name.get("sinks.flush", 0.0),
        "sinks.bytes": file_bytes(recorder.files["sinks"]),
        "sinks.writes": counts["sinks.writes"],
        "checkpoint.save_s": by_layer.get("checkpoint", 0.0),
        "checkpoint.saves": counts["checkpoint.saves"],
        "journal.append_s": by_layer.get("journal", 0.0),
        "journal.bytes": file_bytes(recorder.files["journal"]),
        "io.fsyncs": counts["io.fsyncs"],
        "parallel.coord_s": (
            by_name.get("parallel.read", 0.0)
            + by_name.get("parallel.submit", 0.0)
        ),
        "parallel.ship_bytes": (
            shipped_bytes / shipped_rows if shipped_rows else 0.0
        ),
        "parallel.wait_s": by_name.get("parallel.wait", 0.0),
        "parallel.worker_skew": extra.get("worker_skew", 0.0),
        "parallel.chunks_serial": extra.get("chunks_serial", 0),
        "parallel.redispatches": extra.get("redispatches", 0),
        "sweep.wait_s": by_name.get("sweep.wait", 0.0),
        "sweep.cells": extra.get("cells_executed", 0),
        "sweep.embeds": extra.get("embeds_performed", 0),
        "sweep.pool_respawns": extra.get("pool_respawns", 0),
        "sweep.pool_fallbacks": extra.get("pool_fallbacks", 0),
        "sweep.cell_retries": extra.get("cell_retries", 0),
        "reliability.retries": extra.get("retries", 0),
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": wall_s - recorder.root_seconds(),
        "trace.overhead": 0.0,
    }
    split = {layer: by_layer.get(layer, 0.0) for layer in LAYERS}
    split["unaccounted"] = metrics["trace.unaccounted_s"]
    return {"metrics": metrics, "split": split}
