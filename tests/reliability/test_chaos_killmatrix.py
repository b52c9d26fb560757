"""Chaos suite: SIGKILL kill-matrix over the streaming and pool paths.

Each matrix cell launches a real subprocess that arms a
:class:`~repro.reliability.FaultPlan` with a ``kill`` fault and runs a
checkpointed streamed embed; the process dies mid-run with
``SIGKILL`` — no ``atexit``, no ``finally``, exactly the crash the
recovery layer claims to survive.  The parent then resumes from the
on-disk run record and asserts the recovered output is **byte-identical**
to an uninterrupted run (row-identical for SQLite, whose file layout is
not canonical).

Run with ``pytest -m chaos``; set ``REPRO_CHAOS_REDUCED=1`` to shrink
the matrix to one kill point per path (the CI smoke job does).
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.experiments import (
    MODE_POOLED,
    MODE_SERIAL,
    SweepEngine,
    SweepProtocol,
    shutdown_sweep_pool,
)
from repro.attacks import SubsetAlterationAttack
from repro.reliability import IO_ERROR, KILL, FaultPlan, RetryPolicy
from repro.stream import TableChunkSource, open_sink, stream_mark

pytestmark = pytest.mark.chaos

ROWS = 1200
CHUNK = 300
N_CHUNKS = ROWS // CHUNK
REDUCED = bool(os.environ.get("REPRO_CHAOS_REDUCED"))

BOUNDARIES = [1] if REDUCED else list(range(N_CHUNKS))
FORMATS = ["csv"] if REDUCED else ["csv", "csv.gz", "sqlite"]

_WORKER = textwrap.dedent("""
    import sys
    from repro import MarkKey, Watermark
    from repro.core import EmbeddingSpec
    from repro.datagen import generate_item_scan
    from repro.reliability import KILL, FaultPlan
    from repro.stream import TableChunkSource, open_sink, stream_mark

    label, at, out, ckpt = sys.argv[1:5]
    base = generate_item_scan({rows}, item_count=80, seed=13)
    plan = FaultPlan().add(label, KILL, at=int(at))
    with plan.armed():
        stream_mark(
            TableChunkSource(base, chunk_size={chunk}),
            Watermark.from_int(0x2AB, 10),
            MarkKey.from_seed("chaos"),
            EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120),
            open_sink(out),
            checkpoint_path=ckpt,
        )
    raise SystemExit("unreachable: the injected kill never fired")
""").format(rows=ROWS, chunk=CHUNK)


def _crash_run(label: str, at: int, out, ckpt) -> None:
    """Run a streamed embed in a subprocess and let the fault SIGKILL it."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, label, str(at), str(out), str(ckpt)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"expected SIGKILL at {label}[{at}], got rc={proc.returncode}\n"
        f"stderr: {proc.stderr}"
    )


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=80, seed=13)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("chaos")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120)


def _sqlite_rows(path):
    with sqlite3.connect(path) as connection:
        return connection.execute(
            "SELECT * FROM relation ORDER BY rowid"
        ).fetchall()


@pytest.fixture(scope="module")
def reference(base, key, wm, spec, tmp_path_factory):
    """Uninterrupted in-process runs: the ground truth per format."""
    root = tmp_path_factory.mktemp("uninterrupted")
    truth = {}
    for fmt in FORMATS:
        path = root / f"ref.{fmt}"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(path),
        )
        truth[fmt] = (
            _sqlite_rows(path) if fmt == "sqlite" else path.read_bytes()
        )
    return truth


def _resume_and_compare(base, key, wm, spec, reference, out, ckpt, fmt,
                        chaos_report):
    result = stream_mark(
        TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
        open_sink(out), checkpoint_path=ckpt, resume=True,
    )
    # `chunks` counts this run's work; resumed offset + work = whole table
    assert result.resumed_at_chunk + result.chunks == N_CHUNKS
    if fmt == "sqlite":
        assert _sqlite_rows(out) == reference[fmt]
    else:
        assert out.read_bytes() == reference[fmt]
    chaos_report(result.reliability)
    return result


class TestStreamKillMatrix:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_kill_at_chunk_boundary_resumes_byte_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report,
        fmt, boundary,
    ):
        out, ckpt = tmp_path / f"out.{fmt}", tmp_path / "run.ckpt"
        # pipeline.chunk fires after the chunk is durable and its record
        # is written — the canonical crash boundary.
        _crash_run("pipeline.chunk", boundary, out, ckpt)
        result = _resume_and_compare(
            base, key, wm, spec, reference, out, ckpt, fmt, chaos_report
        )
        assert result.resumed_at_chunk == boundary + 1

    @pytest.mark.parametrize("fmt", ["csv"] if REDUCED else ["csv", "csv.gz"])
    def test_kill_mid_sink_write_leaves_torn_bytes_resume_heals(
        self, base, key, wm, spec, reference, tmp_path, chaos_report, fmt
    ):
        out, ckpt = tmp_path / f"out.{fmt}", tmp_path / "run.ckpt"
        # sink.write.mid fsyncs a *partial* chunk (for gzip: a member with
        # no trailer — a genuinely truncated stream) before dying.
        _crash_run("sink.write.mid", 2, out, ckpt)
        result = _resume_and_compare(
            base, key, wm, spec, reference, out, ckpt, fmt, chaos_report
        )
        assert result.resumed_at_chunk == 2

    def test_kill_during_record_append_resumes_at_last_record(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        # journal.append indexes by chunk (0-based): dying while
        # recording chunk 1 leaves chunk 0's record as the last verified.
        _crash_run("journal.append", 1, out, ckpt)
        result = _resume_and_compare(
            base, key, wm, spec, reference, out, ckpt, fmt="csv",
            chaos_report=chaos_report,
        )
        assert result.resumed_at_chunk in (1, 2)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_kill_at_final_flush_resumes_byte_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report, fmt
    ):
        out, ckpt = tmp_path / f"out.{fmt}", tmp_path / "run.ckpt"
        # the narrowest window of all: the last chunk's bytes are written
        # but its flush (index == N_CHUNKS) never completes, so neither
        # the final record nor sink.close() run.  Resume must rewind
        # to chunk N-1's durable marker and re-mark exactly one chunk.
        _crash_run("sink.flush", N_CHUNKS, out, ckpt)
        result = _resume_and_compare(
            base, key, wm, spec, reference, out, ckpt, fmt, chaos_report
        )
        assert result.resumed_at_chunk == N_CHUNKS - 1

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_kill_at_final_checkpoint_resumes_byte_identical(
        self, base, key, wm, spec, reference, tmp_path, chaos_report, fmt
    ):
        out, ckpt = tmp_path / f"out.{fmt}", tmp_path / "run.ckpt"
        # one step later: the last chunk is flushed and durable, but the
        # run dies appending its record (chunk N-1), before sink.close().
        # Resume lands on chunk N-2's record, re-marks the last chunk,
        # and the bytes still come out identical.
        _crash_run("journal.append", N_CHUNKS - 1, out, ckpt)
        result = _resume_and_compare(
            base, key, wm, spec, reference, out, ckpt, fmt, chaos_report
        )
        assert result.resumed_at_chunk == N_CHUNKS - 1


class TestPoolChaos:
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

    def test_worker_sigkill_respawns_bit_identical(self, base, chaos_report):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        plan = FaultPlan().add("pool.worker", KILL, at=1)
        with plan.armed():
            pooled = engine.run(base, self.PROTOCOL, self._attacks(), self.SEEDS)
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.pool_respawns > 0
        assert report.cell_retries > 0
        assert engine.cache_info()["pool_fallbacks"] == 0
        chaos_report(report)

    def test_worker_io_error_retries_without_respawn(self, base, chaos_report):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base, self.PROTOCOL, self._attacks(), self.SEEDS
        )
        engine = SweepEngine(
            mode=MODE_POOLED, max_workers=2,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        plan = FaultPlan().add("pool.worker", IO_ERROR, at=2)
        with plan.armed():
            pooled = engine.run(base, self.PROTOCOL, self._attacks(), self.SEEDS)
        assert self._flatten(pooled) == self._flatten(serial)
        report = engine.reliability_report()
        assert report.cell_retries > 0
        assert report.pool_respawns == 0
        chaos_report(report)
