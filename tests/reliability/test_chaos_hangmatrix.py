"""Chaos suite: hang/slow/memory stall-matrix over stream and pool paths.

The kill-matrix proves crash-safety; this matrix proves *stall*-safety.
Each cell arms a :class:`~repro.reliability.FaultPlan` with a stall kind
(``hang`` sleeps and continues, ``slow`` throttles, ``memory`` raises
``MemoryError``) at one labeled injection point and asserts the run
recovers — within its :class:`~repro.reliability.Deadline`, through the
:class:`~repro.reliability.MemoryBudget` shrink/replay, via the worker
watchdog, or down a circuit-breaker degradation ladder — with output
**byte-identical** to an undisturbed run.

Run with ``pytest -m chaos``; ``REPRO_CHAOS_REDUCED=1`` shrinks the
matrix (the CI smoke job does).  All injected sleeps are tens of
milliseconds: stall-safety is about *detecting* silence, not waiting
long.
"""

from __future__ import annotations

import logging
import os

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.crypto import VECTOR
from repro.datagen import generate_item_scan
from repro.experiments import (
    MODE_POOLED,
    MODE_SERIAL,
    SweepEngine,
    SweepProtocol,
    shutdown_sweep_pool,
)
from repro.attacks import SubsetAlterationAttack
from repro.reliability import (
    HANG,
    IO_ERROR,
    MEMORY,
    SLOW,
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    MemoryBudget,
    RetryPolicy,
    Watchdog,
)
from repro.stream import (
    TableChunkSource,
    open_sink,
    stream_mark,
    stream_verify,
    stream_verify_multipass,
)

pytestmark = pytest.mark.chaos

ROWS = 600
CHUNK = 150
N_CHUNKS = ROWS // CHUNK
REDUCED = bool(os.environ.get("REPRO_CHAOS_REDUCED"))

FAST = RetryPolicy(max_attempts=4, base_delay=0.0)

#: one representative index per label — chosen mid-run so recovery has
#: durable chunks both behind and ahead of the stall
STALL_AT = {
    "source.read": 2,
    "sink.write": 2,
    "sink.flush": 2,       # fires inside the retry-wrapped write+flush
    "checkpoint.save": 2,  # chunks_done is 1-based at save time
    "pipeline.embed": 1,   # inside the adaptive embed loop
    "pipeline.chunk": 1,   # after the chunk is durable (crash-equivalent)
}
STALL_LABELS = (
    ["source.read", "pipeline.embed"] if REDUCED else list(STALL_AT)
)
STALL_KINDS = [HANG, MEMORY] if REDUCED else [HANG, SLOW, MEMORY]


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=80, seed=13)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("stall")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120)


@pytest.fixture(scope="module")
def reference(base, key, wm, spec, tmp_path_factory):
    """Undisturbed streamed outputs: the per-format ground truth."""
    root = tmp_path_factory.mktemp("undisturbed")
    truth = {}
    for fmt in ("csv", "csv.gz"):
        path = root / f"ref.{fmt}"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(path),
        )
        truth[fmt] = path.read_bytes()
    return truth


def _stalled_mark(base, wm, key, spec, out, ckpt, plan, *, resume=False,
                  deadline_s=30.0, **kwargs):
    with plan.armed():
        return stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(out), checkpoint_path=ckpt, resume=resume,
            retry=FAST, deadline=Deadline(deadline_s),
            memory_budget=kwargs.pop("memory_budget", MemoryBudget()),
            **kwargs,
        )


class TestStreamStallMatrix:
    @pytest.mark.parametrize("kind", STALL_KINDS)
    @pytest.mark.parametrize("label", STALL_LABELS)
    def test_stall_recovers_within_deadline_byte_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report,
        label, kind,
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan(hang_seconds=0.05, slow_seconds=0.02).add(
            label, kind, at=STALL_AT[label]
        )
        if (label, kind) == ("pipeline.chunk", MEMORY):
            # The one post-durability point with no in-process handler:
            # exhaustion there is crash-equivalent, and recovery is the
            # checkpoint's job — resume with a fresh budget.
            with pytest.raises(MemoryError):
                _stalled_mark(base, wm, key, spec, out, ckpt, plan)
            result = _stalled_mark(
                base, wm, key, spec, out, ckpt, FaultPlan(), resume=True
            )
            assert result.resumed_at_chunk == STALL_AT[label] + 1
        else:
            result = _stalled_mark(base, wm, key, spec, out, ckpt, plan)
            assert result.chunks == N_CHUNKS
        assert plan.pending() == 0
        assert out.read_bytes() == reference["csv"]
        if kind == MEMORY and label != "pipeline.chunk":
            # (the pipeline.chunk cell's recovery evidence is the resume
            # offset asserted above — its second run is clean by design)
            assert result.reliability.any_recovery
        chaos_report(result.reliability)

    def test_hang_past_deadline_stops_resumably(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        # The hang outlives the whole budget: the next chunk boundary
        # must raise with chunk 0 already durable — not block forever,
        # not corrupt the output.
        plan = FaultPlan(hang_seconds=0.4).add("source.read", HANG, at=1)
        with pytest.raises(DeadlineExceededError) as excinfo:
            _stalled_mark(
                base, wm, key, spec, out, ckpt, plan, deadline_s=0.2
            )
        assert excinfo.value.label == "pipeline.chunk"
        assert excinfo.value.position >= 1
        result = _stalled_mark(
            base, wm, key, spec, out, ckpt, FaultPlan(), resume=True
        )
        assert result.resumed_at_chunk >= 1
        assert result.resumed_at_chunk + result.chunks == N_CHUNKS
        assert out.read_bytes() == reference["csv"]
        chaos_report(result.reliability)

    def test_memory_budget_shrinks_replays_and_regrows(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        # gzip output pins the framing contract: the shrunk chunk is
        # embedded in slices but written as ONE member, so the bytes
        # (member boundaries included) match the undisturbed run.
        out, ckpt = tmp_path / "out.csv.gz", tmp_path / "run.ckpt"
        budget = MemoryBudget(regrow_after=2)
        plan = FaultPlan().add("pipeline.embed", MEMORY, at=1)
        result = _stalled_mark(
            base, wm, key, spec, out, ckpt, plan, memory_budget=budget
        )
        assert out.read_bytes() == reference["csv.gz"]
        assert result.reliability.chunk_shrinks == 1
        assert result.reliability.chunk_regrows == 1  # chunks 2+3 healthy
        assert budget.factor == 1
        assert [event[0] for event in budget.events] == ["shrink", "regrow"]
        chaos_report(result.reliability)

    def test_guarded_embed_refuses_to_slice(self, base, key, wm, spec, tmp_path):
        # Guard budgets are chunk-scoped: slicing would change which
        # alterations they admit, so the guarded path must propagate.
        plan = FaultPlan().add("pipeline.embed", MEMORY, at=0)
        with pytest.raises(MemoryError):
            _stalled_mark(
                base, wm, key, spec, tmp_path / "out.csv",
                tmp_path / "run.ckpt", plan,
                constraints_factory=list,
            )

    def test_breaker_degrades_vector_to_scalar_bit_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        breaker = CircuitBreaker(threshold=2, cooldown=60.0)
        # Two consecutive exhaustions on the vector path, with the budget
        # already at its floor after the first: the breaker opens and the
        # run degrades down the bit-identical VECTOR -> SCALAR ladder.
        plan = FaultPlan().add("pipeline.embed", MEMORY, at=1, times=2)
        with plan.armed():
            result = stream_mark(
                TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
                open_sink(out), checkpoint_path=ckpt, retry=FAST,
                backend=VECTOR, breaker=breaker,
                memory_budget=MemoryBudget(max_factor=2),
            )
        assert plan.pending() == 0
        assert out.read_bytes() == reference["csv"]
        assert result.reliability.chunk_shrinks == 1
        assert result.reliability.backend_fallbacks == 1
        assert result.reliability.breaker_trips["stream.vector"] == 1
        assert breaker.is_open("stream.vector")
        chaos_report(result.reliability)


class TestStreamStallDetection:
    @pytest.fixture(scope="class")
    def marked(self, base, key, wm, spec, tmp_path_factory):
        root = tmp_path_factory.mktemp("marked")
        out = root / "marked.csv"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(out),
        )
        from repro.stream import CSVChunkSource

        return lambda: CSVChunkSource(out, base.schema, chunk_size=CHUNK)

    def test_budget_sliced_detection_is_vote_identical(
        self, marked, key, wm, spec
    ):
        clean = stream_verify(marked(), key, spec, wm)
        budget = MemoryBudget()
        budget.shrink("pre-shrunk for the test")
        budget.shrink("pre-shrunk for the test")
        sliced = stream_verify(
            marked(), key, spec, wm, memory_budget=budget,
            deadline=Deadline(30.0),
        )
        assert sliced.detected == clean.detected
        assert sliced.votes == clean.votes
        assert sliced.verification.matching_bits == \
            clean.verification.matching_bits
        assert sliced.chunks == clean.chunks  # splits are not new chunks

    def test_memory_fault_on_read_recovers(self, marked, key, wm, spec):
        clean = stream_verify(marked(), key, spec, wm)
        plan = FaultPlan().add("source.read", MEMORY, at=1)
        with plan.armed():
            recovered = stream_verify(
                marked(), key, spec, wm, retry=FAST,
                deadline=Deadline(30.0),
            )
        assert recovered.votes == clean.votes
        assert recovered.reliability.source_reopens == 1

    def test_expired_deadline_raises_before_scanning(
        self, marked, key, wm, spec
    ):
        deadline = Deadline(1e-9)
        with pytest.raises(DeadlineExceededError):
            stream_verify(marked(), key, spec, wm, deadline=deadline)

    def test_multipass_honors_the_deadline(self, marked, key, wm, spec):
        with pytest.raises(DeadlineExceededError):
            stream_verify_multipass(
                marked(), [key, MarkKey.from_seed("other")], spec,
                [wm, wm], deadline=Deadline(1e-9),
            )


class TestPoolStallChaos:
    PROTOCOL = SweepProtocol(mark_attribute="Item_Nbr", e=40)
    SEEDS = range(3)

    @pytest.fixture(autouse=True)
    def _pool_cleanup(self):
        yield
        shutdown_sweep_pool()

    def _attacks(self):
        return [
            (x, SubsetAlterationAttack("Item_Nbr", x, 0.7))
            for x in (0.2, 0.5)
        ]

    def _flatten(self, points):
        return [
            (point.x, result)
            for point in points
            for result in point.passes
        ]

    def test_watchdog_kills_hung_worker_and_respawns_bit_identical(
        self, base, chaos_report, caplog
    ):
        caplog.set_level(logging.WARNING, logger="repro.reliability.pool")
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            watchdog=Watchdog(budget=0.4, poll=0.05),
        )
        # The worker sleeps 60 s mid-task — only the watchdog's SIGKILL
        # (after 0.4 s of heartbeat silence) can get the seed back.
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=1)
        with plan.armed():
            pooled = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.watchdog_kills >= 1
        # every kill is logged, once
        assert report.watchdog_kills == sum(
            record.args[0]
            for record in caplog.records
            if record.name == "repro.reliability.pool"
            and record.getMessage().startswith("watchdog killed")
        )
        assert report.pool_respawns >= 1
        assert report.pool_fallbacks == 0
        chaos_report(report)

    def test_slow_worker_is_not_killed(self, base, chaos_report):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            watchdog=Watchdog(budget=0.5, poll=0.05),
        )
        # Slow is not hung: the worker keeps beating between cells and
        # finishes; a watchdog that killed it would be a false positive.
        plan = FaultPlan(slow_seconds=0.1).add("pool.worker", SLOW, at=1)
        with plan.armed():
            pooled = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.watchdog_kills == 0
        assert report.cell_retries == 0
        chaos_report(report)

    def test_worker_memory_fault_retries_without_respawn(
        self, base, chaos_report
    ):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        plan = FaultPlan().add("pool.worker", MEMORY, at=2)
        with plan.armed():
            pooled = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.cell_retries > 0
        assert report.pool_respawns == 0
        assert report.watchdog_kills == 0
        chaos_report(report)

    def test_pooled_deadline_expiry_raises_not_hangs(self, base):
        engine = SweepEngine(mode=MODE_POOLED, max_workers=2, watchdog=False)
        plan = FaultPlan(hang_seconds=60.0).add("pool.worker", HANG, at=0)
        # No watchdog: the deadline alone must turn a 60 s worker hang
        # into a prompt DeadlineExceededError (killing the hung workers
        # on the way out), never an unbounded future.result() wait.
        with plan.armed():
            with pytest.raises(DeadlineExceededError) as excinfo:
                engine.run(
                    base, self.PROTOCOL, self._attacks(), self.SEEDS,
                    deadline=Deadline(0.4),
                )
        assert excinfo.value.label == "pool.worker"

    def test_breaker_opens_after_consecutive_rounds_and_degrades(
        self, base, chaos_report
    ):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=10, base_delay=0.0),
            breaker=CircuitBreaker(threshold=2, cooldown=60.0),
        )
        # Seed 0 fails every round: after two consecutive failed rounds
        # the breaker opens and the run degrades to the hoisted ladder
        # instead of burning all ten retry attempts.
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=0, times=8)
        with plan.armed():
            first = engine.run(
                base, self.PROTOCOL, self._attacks(), self.SEEDS
            )
        assert self._flatten(first) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.breaker_trips["pool.worker"] == 1
        assert report.pool_fallbacks == 1
        assert engine.breaker.is_open("pool.worker")
        # While cooling down, the next run skips the pool entirely.
        second = engine.run(base, self.PROTOCOL, self._attacks(), self.SEEDS)
        assert self._flatten(second) == self._flatten(serial)
        assert engine.reliability_report().pool_fallbacks == 2
        chaos_report(engine.reliability_report())
