"""Reliability-layer overhead — the "zero cost when disarmed" claim, measured.

The fault-injection points, the retry plumbing and the stall-safety
checks sit on the streaming hot path (every chunk read, write, flush and
checkpoint crosses one), so the reliability layer's contract is that it
is *free* until something actually fails:

* **disarmed ``fault_point``** — a module-global ``None`` check; the
  bench times it raw and asserts it stays under a microsecond per call,
  so injection points can be sprinkled without throughput anxiety;
* **disarmed ``check_deadline``** — the stall-safety twin (a single
  ``is not None`` test), held to the same sub-microsecond bar, and the
  *armed* check (one ``time.monotonic()`` call) measured alongside;
* **retry-armed, fault-free streaming** — a streamed mark with a
  ``RetryPolicy`` attached (bookkeeping armed: ``flush_state`` snapshots
  per chunk, ``call_with_retry`` wrappers) must hold at least 0.6x the
  fail-fast path's throughput on a clean run;
* **deadline-armed streaming** — a generous ``Deadline`` threaded
  through the same run (one boundary check per chunk) must also hold
  0.6x, byte-identically;
* **checkpointed streaming** — a run that keeps the one durable run
  record (per chunk: a sink flush, the chunk's sha256 and one fsynced
  record append) must also hold 0.6x of the fail-fast path, with its
  fsyncs per chunk recorded beside the throughput.

The four streamed marks run interleaved, ``ROUNDS`` times over, and each
gate compares medians, so a drift in host speed lands on every
configuration alike.  All series land in ``benchmarks/results/reliability_overhead.json``.
``REPRO_BENCH_RELIABILITY_ROWS`` selects the tier (default 100,000).
"""

import os
import statistics
import time
import timeit
from unittest import mock

from repro.core import EmbeddingSpec, Watermark, default_channel_length
from repro.crypto import MarkKey
from repro.datagen import generate_item_scan
from repro.reliability import (
    Deadline,
    RetryPolicy,
    check_deadline,
    fault_point,
)
from repro.stream import CSVChunkSink, TableChunkSource, stream_mark

ROWS = int(os.environ.get("REPRO_BENCH_RELIABILITY_ROWS", "100000"))
CHUNK = max(1_024, ROWS // 16)
#: interleaved rounds of the four streamed marks; gates read medians
ROUNDS = 3
E = 60
WATERMARK = Watermark.from_int(0x2AB, 10)


def _spec() -> EmbeddingSpec:
    return EmbeddingSpec(
        key_attribute="Visit_Nbr",
        mark_attribute="Item_Nbr",
        e=E,
        watermark_length=len(WATERMARK),
        channel_length=default_channel_length(ROWS, E, len(WATERMARK)),
    )


def _mark_seconds(base, key, spec, path, retry, deadline=None, **kwargs) -> float:
    started = time.perf_counter()
    result = stream_mark(
        TableChunkSource(base, chunk_size=CHUNK), WATERMARK, key, spec,
        CSVChunkSink(path), retry=retry, deadline=deadline, **kwargs,
    )
    seconds = time.perf_counter() - started
    assert result.rows == ROWS
    assert result.reliability.total_retries == 0  # fault-free by design
    return seconds


def test_disarmed_and_fault_free_overhead(record, record_json, tmp_path):
    # -- disarmed fault_point: one global load + None check ----------------
    calls = 200_000
    per_call = (
        timeit.timeit(lambda: fault_point("bench.point", 0), number=calls)
        / calls
    )
    assert per_call < 1e-6, (
        f"disarmed fault_point costs {per_call * 1e9:.0f}ns/call — "
        "no longer negligible on the chunk hot path"
    )

    # -- disarmed / armed check_deadline -----------------------------------
    deadline_disarmed = (
        timeit.timeit(
            lambda: check_deadline(None, "bench.point", 0), number=calls
        )
        / calls
    )
    assert deadline_disarmed < 1e-6, (
        f"disarmed check_deadline costs {deadline_disarmed * 1e9:.0f}ns/"
        "call — no longer negligible on the chunk hot path"
    )
    generous = Deadline(3600.0)
    deadline_armed = (
        timeit.timeit(
            lambda: check_deadline(generous, "bench.point", 0), number=calls
        )
        / calls
    )

    # -- four streamed marks, interleaved ---------------------------------
    # fail-fast, retry-armed (no faults), deadline-armed (never
    # expiring) and checkpointed (per chunk: sink flush + sha256 of the
    # flushed bytes + one fsynced record append) run in turn, ROUNDS
    # times over, and the gates compare medians: one timing per
    # configuration in a fixed order compared drift as much as cost.
    base = generate_item_scan(ROWS, item_count=500, seed=17)
    key = MarkKey.from_seed("reliability-bench")
    spec = _spec()
    seconds = {name: [] for name in ("fail", "retry", "deadline", "ckpt")}
    fsyncs = 0
    for round_ in range(ROUNDS):
        out = {name: tmp_path / f"{name}{round_}.csv" for name in seconds}
        seconds["fail"].append(
            _mark_seconds(base, key, spec, out["fail"], None)
        )
        seconds["retry"].append(
            _mark_seconds(base, key, spec, out["retry"], RetryPolicy())
        )
        seconds["deadline"].append(_mark_seconds(
            base, key, spec, out["deadline"], None,
            deadline=Deadline(3600.0),
        ))
        # fsyncs are counted through the real os.fsync
        with mock.patch.object(os, "fsync", wraps=os.fsync) as fsync:
            seconds["ckpt"].append(_mark_seconds(
                base, key, spec, out["ckpt"], None,
                checkpoint_path=tmp_path / f"ckpt{round_}.ckpt",
            ))
        fsyncs += fsync.call_count
        reference = out["fail"].read_bytes()
        for name in ("retry", "deadline", "ckpt"):
            assert out[name].read_bytes() == reference
    fail_fast, armed, budgeted, checkpointed = (
        statistics.median(seconds[name])
        for name in ("fail", "retry", "deadline", "ckpt")
    )
    chunks = -(-ROWS // CHUNK)
    fsyncs_per_chunk = fsyncs / (chunks * ROUNDS)

    ratio = fail_fast / armed
    assert ratio >= 0.6, (
        f"retry bookkeeping costs {1 / ratio:.2f}x on a clean run — "
        "the reliability layer is no longer near-free when idle"
    )
    deadline_ratio = fail_fast / budgeted
    assert deadline_ratio >= 0.6, (
        f"deadline checks cost {1 / deadline_ratio:.2f}x on a clean run — "
        "stall-safety is no longer near-free when the budget is generous"
    )
    checkpoint_ratio = fail_fast / checkpointed
    assert checkpoint_ratio >= 0.6, (
        f"the run record costs {1 / checkpoint_ratio:.2f}x on a clean "
        "run — checkpointing is no longer cheap next to the embed kernel"
    )

    lines = [
        f"reliability overhead tier: {ROWS} rows, chunk {CHUNK}, "
        f"medians of {ROUNDS} interleaved rounds",
        f"  disarmed fault_point   : {per_call * 1e9:>8.1f} ns/call",
        f"  disarmed check_deadline: {deadline_disarmed * 1e9:>8.1f} ns/call",
        f"  armed check_deadline   : {deadline_armed * 1e9:>8.1f} ns/call",
        f"  mark fail-fast         : {ROWS / fail_fast:>12,.0f} rows/s",
        f"  mark retry-armed       : {ROWS / armed:>12,.0f} rows/s "
        f"({ratio:.2f}x of fail-fast)",
        f"  mark deadline-armed    : {ROWS / budgeted:>12,.0f} rows/s "
        f"({deadline_ratio:.2f}x of fail-fast)",
        f"  mark checkpointed      : {ROWS / checkpointed:>12,.0f} rows/s "
        f"({checkpoint_ratio:.2f}x of fail-fast, "
        f"{fsyncs_per_chunk:.2f} fsyncs/chunk)",
    ]
    record("reliability_overhead", "\n".join(lines))
    record_json(
        "reliability_overhead",
        {
            "rows": ROWS,
            "chunk": CHUNK,
            "rounds": ROUNDS,
            "fault_point_ns": round(per_call * 1e9, 1),
            "deadline_check_disarmed_ns": round(deadline_disarmed * 1e9, 1),
            "deadline_check_armed_ns": round(deadline_armed * 1e9, 1),
            "mark_fail_fast_rows_per_s": round(ROWS / fail_fast),
            "mark_retry_armed_rows_per_s": round(ROWS / armed),
            "mark_deadline_armed_rows_per_s": round(ROWS / budgeted),
            "armed_over_fail_fast": round(armed / fail_fast, 4),
            "deadline_over_fail_fast": round(budgeted / fail_fast, 4),
            "mark_checkpointed_rows_per_s": round(ROWS / checkpointed),
            "checkpointed_over_fail_fast": round(checkpointed / fail_fast, 4),
            "fsyncs_per_chunk": round(fsyncs_per_chunk, 4),
        },
    )
