"""Chaos suite for the multicore streaming path.

Faults aimed at the worker pool (SIGKILL, hard hangs, breaker trips)
must never change a verdict or a byte of marked output: the ordered
merge re-dispatches or degrades, and the result stays bit-identical to
the serial path.  The torn-commit matrix SIGKILLs a *parallel* embed
coordinator in a real subprocess and resumes it with workers on — the
resumed file must equal an uninterrupted serial run byte for byte.

Run with ``pytest -m chaos``; ``REPRO_CHAOS_REDUCED=1`` shrinks the
kill matrix to one boundary (the CI smoke job does).
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.reliability import (
    HANG,
    KILL,
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    RetryPolicy,
    Watchdog,
)
from repro.stream import (
    TableChunkSource,
    open_sink,
    shutdown_stream_pool,
    stream_detect,
    stream_mark,
)

pytestmark = pytest.mark.chaos

ROWS = 1200
CHUNK = 150
N_CHUNKS = ROWS // CHUNK
REDUCED = bool(os.environ.get("REPRO_CHAOS_REDUCED"))

BOUNDARIES = [1] if REDUCED else [0, 1, N_CHUNKS // 2, N_CHUNKS - 1]

_WORKER = textwrap.dedent("""
    import sys
    from repro import MarkKey, Watermark
    from repro.core import EmbeddingSpec
    from repro.datagen import generate_item_scan
    from repro.reliability import KILL, FaultPlan
    from repro.stream import TableChunkSource, open_sink, stream_mark

    at, out, ckpt = sys.argv[1:4]
    base = generate_item_scan({rows}, item_count=80, seed=19)
    plan = FaultPlan().add("pipeline.chunk", KILL, at=int(at))
    with plan.armed():
        stream_mark(
            TableChunkSource(base, chunk_size={chunk}),
            Watermark.from_int(0x2AB, 10),
            MarkKey.from_seed("chaos-parallel"),
            EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120),
            open_sink(out),
            checkpoint_path=ckpt,
            workers=2,
        )
    raise SystemExit("unreachable: the injected kill never fired")
""").format(rows=ROWS, chunk=CHUNK)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_stream_pool()


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=80, seed=19)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("chaos-parallel")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120)


@pytest.fixture(scope="module")
def serial_verdict(base, key, spec):
    return stream_detect(TableChunkSource(base, chunk_size=CHUNK), key, spec)


def _logged_watchdog_kills(caplog) -> int:
    """Workers named by the pool's watchdog warnings."""
    return sum(
        record.args[0]
        for record in caplog.records
        if record.name == "repro.reliability.pool"
        and record.getMessage().startswith("watchdog killed")
    )


def _assert_same_detection(parallel, serial):
    assert parallel.votes == serial.votes
    assert parallel.detection.watermark == serial.detection.watermark
    assert parallel.detection.fit_count == serial.detection.fit_count
    assert parallel.rows == serial.rows


class TestParallelDetectChaos:
    def test_worker_sigkill_redispatches_bit_identical(
        self, base, key, spec, serial_verdict, chaos_report
    ):
        shutdown_stream_pool()
        plan = FaultPlan().add("pool.worker", KILL, at=1)
        with plan.armed():
            verdict = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            )
        _assert_same_detection(verdict, serial_verdict)
        assert verdict.reliability.pool_respawns >= 1
        assert verdict.parallel.redispatches >= 1
        chaos_report(verdict.reliability)

    def test_hung_worker_is_watchdogged_and_redispatched(
        self, base, key, spec, serial_verdict, chaos_report, caplog
    ):
        shutdown_stream_pool()
        caplog.set_level(logging.WARNING, logger="repro.reliability.pool")
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=2)
        started = time.monotonic()
        with plan.armed():
            verdict = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=RetryPolicy(max_attempts=4, base_delay=0.0),
                watchdog=Watchdog(budget=1.0, poll=0.2),
            )
        wall = time.monotonic() - started
        _assert_same_detection(verdict, serial_verdict)
        assert verdict.reliability.watchdog_kills >= 1
        # every kill is logged, once
        assert (
            _logged_watchdog_kills(caplog)
            == verdict.reliability.watchdog_kills
        )
        assert wall < 30.0, f"watchdog recovery took {wall:.1f}s"
        chaos_report(verdict.reliability)

    def test_parallel_deadline_expiry_raises_not_hangs(self, base, key, spec):
        shutdown_stream_pool()
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=0)
        # No watchdog: the deadline alone must turn a 60 s worker hang
        # into a prompt DeadlineExceededError, and kill the hung worker
        # on the way out — a pool shutdown would otherwise wait for it.
        with plan.armed():
            with pytest.raises(DeadlineExceededError):
                stream_detect(
                    TableChunkSource(base, chunk_size=CHUNK), key, spec,
                    workers=2, watchdog=False, deadline=Deadline(0.4),
                )
        started = time.monotonic()
        shutdown_stream_pool()
        wall = time.monotonic() - started
        assert wall < 5.0, f"pool shutdown waited {wall:.1f}s on a hung worker"

    def test_breaker_degrades_to_serial_bit_identical(
        self, base, key, spec, serial_verdict, chaos_report
    ):
        shutdown_stream_pool()
        plan = FaultPlan().add("pool.worker", KILL, at=0)
        breaker = CircuitBreaker(threshold=1, cooldown=300.0)
        with plan.armed():
            verdict = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                breaker=breaker,
            )
        _assert_same_detection(verdict, serial_verdict)
        assert verdict.reliability.pool_fallbacks >= 1
        assert verdict.reliability.breaker_trips
        assert verdict.parallel.chunks_serial > 0
        # an already-open breaker starts the next run serial outright
        with plan.armed():
            again = stream_detect(
                TableChunkSource(base, chunk_size=CHUNK), key, spec,
                workers=2, retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                breaker=breaker,
            )
        _assert_same_detection(again, serial_verdict)
        assert again.parallel.chunks_parallel == 0
        chaos_report(verdict.reliability)


class TestParallelTornCommit:
    @pytest.fixture(scope="class")
    def reference(self, base, key, wm, spec, tmp_path_factory):
        path = tmp_path_factory.mktemp("uninterrupted") / "ref.csv.gz"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(path),
        )
        return path.read_bytes()

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_sigkill_mid_parallel_embed_resumes_byte_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report,
        boundary,
    ):
        out, ckpt = tmp_path / "out.csv.gz", tmp_path / "run.ckpt"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        # No pipes: the coordinator's orphaned pool workers inherit
        # stdout/stderr, so captured pipes would never reach EOF after
        # the SIGKILL.  A fresh session lets us reap those orphans.
        errlog = tmp_path / "crash.stderr"
        with open(errlog, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", _WORKER, str(boundary), str(out),
                 str(ckpt)],
                env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True,
            )
            try:
                rc = proc.wait(timeout=120)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        assert rc == -signal.SIGKILL, (
            f"expected SIGKILL at pipeline.chunk[{boundary}], "
            f"got rc={rc}\nstderr: {errlog.read_text()}"
        )
        result = stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(out), checkpoint_path=ckpt, resume=True, workers=2,
        )
        assert result.resumed_at_chunk == boundary + 1
        assert result.resumed_at_chunk + result.chunks == N_CHUNKS
        assert out.read_bytes() == reference
        chaos_report(result.reliability)
