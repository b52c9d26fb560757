"""Chaos suite: silent bit rot, full disks, and lease races.

The kill-matrix covers *loud* crashes; this matrix covers the failures
that make no sound.  A bit flips in a chunk that was already fsynced —
the run completes "successfully" and only the journalled manifest can
tell.  A disk fills mid-write — the run must stop at a durable boundary
and resume byte-identically after space is freed.  Two resumes race —
exactly one may touch the output.

Run with ``pytest -m chaos``; ``REPRO_CHAOS_REDUCED=1`` shrinks the
matrices (the CI smoke job does).
"""

from __future__ import annotations

import errno
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import time

import pytest

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.reliability import (
    BITFLIP,
    DISK_FULL,
    FaultPlan,
    KILL,
    RetryPolicy,
    RunLockedError,
    audit_stream,
    journal_path,
)
from repro.stream import TableChunkSource, open_sink, stream_mark

pytestmark = pytest.mark.chaos

ROWS = 1200
CHUNK = 300
N_CHUNKS = ROWS // CHUNK
REDUCED = bool(os.environ.get("REPRO_CHAOS_REDUCED"))

ROT_CHUNKS = [1] if REDUCED else list(range(N_CHUNKS))
FORMATS = ["csv"] if REDUCED else ["csv", "csv.gz", "sqlite"]

FAST = RetryPolicy(max_attempts=4, base_delay=0.0)


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


def _payload(path, fmt):
    return _sqlite_rows(path) if fmt == "sqlite" else path.read_bytes()


@pytest.fixture(scope="module")
def reference(base, key, wm, spec, tmp_path_factory):
    root = tmp_path_factory.mktemp("uninterrupted")
    truth = {}
    for fmt in FORMATS:
        path = root / f"ref.{fmt}"
        stream_mark(
            TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
            open_sink(path),
        )
        truth[fmt] = _payload(path, fmt)
    return truth


def _mark(base, wm, key, spec, out, **kwargs):
    return stream_mark(
        TableChunkSource(base, chunk_size=CHUNK), wm, key, spec,
        open_sink(out), **kwargs
    )


class TestBitRotMatrix:
    @pytest.mark.parametrize("chunk", ROT_CHUNKS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_audit_localizes_and_verified_resume_repairs(
        self, base, key, wm, spec, reference, tmp_path, chaos_report,
        fmt, chunk,
    ):
        out, ckpt = tmp_path / f"out.{fmt}", tmp_path / "run.ckpt"
        plan = FaultPlan().add("sink.bitflip", BITFLIP, at=chunk)
        with plan.armed():
            _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        assert plan.pending() == 0
        # the run itself saw nothing — only the audit can
        assert _payload(out, fmt) != reference[fmt]
        report = audit_stream(
            out, journal=journal_path(ckpt), table="relation"
        )
        assert not report.ok
        assert report.first_corrupt == chunk
        assert report.verified_chunks == chunk
        # verified resume rewinds past the damage and re-marks
        result = _mark(
            base, wm, key, spec, out, checkpoint_path=ckpt,
            resume=True, verify_resume=True,
        )
        assert result.resumed_at_chunk == chunk
        assert result.reliability.integrity_rewinds == N_CHUNKS - chunk
        assert _payload(out, fmt) == reference[fmt]
        assert audit_stream(
            out, journal=journal_path(ckpt), table="relation"
        ).ok
        chaos_report(result.reliability)

    def test_plain_resume_would_keep_the_damage(
        self, base, key, wm, spec, reference, tmp_path
    ):
        """The control: without verify_resume the rot survives — the
        whole reason the verified path exists."""
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add("sink.bitflip", BITFLIP, at=1)
        with plan.armed():
            _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        rotted = out.read_bytes()
        assert rotted != reference["csv"]
        # nothing left to do, so a plain resume changes nothing
        _mark(base, wm, key, spec, out, checkpoint_path=ckpt, resume=True)
        assert out.read_bytes() == rotted

    def test_rotted_final_record_is_dropped_on_resume(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        # rot the *last* chunk record (chunk N-1) after it lands; resume
        # must drop it, restart from chunk N-2's record and re-mark one
        # chunk
        plan = FaultPlan().add("journal.append", BITFLIP, at=N_CHUNKS - 1)
        with plan.armed():
            _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        result = _mark(
            base, wm, key, spec, out, checkpoint_path=ckpt, resume=True,
        )
        assert result.resumed_at_chunk == N_CHUNKS - 1
        assert result.reliability.checkpoint_rollbacks == 1
        assert out.read_bytes() == reference["csv"]
        chaos_report(result.reliability)

    def test_rotted_journal_line_drops_tail_verified_resume_rebuilds(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add("journal.append", BITFLIP, at=2)
        with plan.armed():
            _mark(base, wm, key, spec, out, checkpoint_path=ckpt)
        # the CRC kills record 2, so the trusted journal prefix is [0, 1]
        # and the bytes past it read as unrecorded trailing data
        report = audit_stream(out, journal=journal_path(ckpt))
        assert not report.ok
        assert report.chunks == 2 and report.corrupt == []
        assert report.trailing > 0
        result = _mark(
            base, wm, key, spec, out, checkpoint_path=ckpt,
            resume=True, verify_resume=True,
        )
        assert result.resumed_at_chunk == 2
        assert out.read_bytes() == reference["csv"]
        assert audit_stream(out, journal=journal_path(ckpt)).ok
        chaos_report(result.reliability)


class TestDiskFull:
    @pytest.mark.parametrize(
        "label,at",
        [("sink.write", 2), ("sink.flush", 2), ("journal.append", 1)],
    )
    def test_enospc_stops_at_durable_boundary_resume_heals(
        self, base, key, wm, spec, reference, tmp_path, chaos_report,
        label, at,
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add(label, DISK_FULL, at=at)
        with plan.armed():
            with pytest.raises(OSError) as excinfo:
                _mark(
                    base, wm, key, spec, out,
                    checkpoint_path=ckpt, retry=FAST,
                )
        # ENOSPC is permanent: no retry budget may be burned waiting for
        # a disk to heal itself
        assert excinfo.value.errno == errno.ENOSPC
        result = _mark(
            base, wm, key, spec, out, checkpoint_path=ckpt, resume=True,
        )
        assert out.read_bytes() == reference["csv"]
        assert audit_stream(out, journal=journal_path(ckpt)).ok
        chaos_report(result.reliability)


_RESUME_WORKER = textwrap.dedent("""
    import sys
    from repro import MarkKey, Watermark
    from repro.core import EmbeddingSpec
    from repro.datagen import generate_item_scan
    from repro.reliability import RunLockedError
    from repro.stream import TableChunkSource, open_sink, stream_mark

    out, ckpt = sys.argv[1:3]
    base = generate_item_scan({rows}, item_count=80, seed=13)
    try:
        stream_mark(
            TableChunkSource(base, chunk_size={chunk}),
            Watermark.from_int(0x2AB, 10),
            MarkKey.from_seed("chaos"),
            EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120),
            open_sink(out),
            checkpoint_path=ckpt, resume=True, lock=True,
        )
    except RunLockedError:
        raise SystemExit(8)
""").format(rows=ROWS, chunk=CHUNK)

_KILL_WORKER = textwrap.dedent("""
    import sys
    from repro import MarkKey, Watermark
    from repro.core import EmbeddingSpec
    from repro.datagen import generate_item_scan
    from repro.reliability import KILL, FaultPlan
    from repro.stream import TableChunkSource, open_sink, stream_mark

    at, out, ckpt = sys.argv[1:4]
    base = generate_item_scan({rows}, item_count=80, seed=13)
    plan = FaultPlan().add("pipeline.chunk", KILL, at=int(at))
    with plan.armed():
        stream_mark(
            TableChunkSource(base, chunk_size={chunk}),
            Watermark.from_int(0x2AB, 10),
            MarkKey.from_seed("chaos"),
            EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120),
            open_sink(out),
            checkpoint_path=ckpt,
        )
""").format(rows=ROWS, chunk=CHUNK)


def _src_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


class TestLeaseRace:
    def _interrupted_run(self, out, ckpt):
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_WORKER, "1", str(out), str(ckpt)],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

    def test_concurrent_resumes_never_interleave(
        self, base, key, wm, spec, reference, tmp_path
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        self._interrupted_run(out, ckpt)
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", _RESUME_WORKER, str(out), str(ckpt)],
                env=_src_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        codes = sorted(proc.wait(timeout=120) for proc in racers)
        # one winner always; the loser either lost the lease (8) or ran
        # after the winner had already finished (0, a no-op resume) —
        # never a third state, and never interleaved writes
        assert codes in ([0, 0], [0, 8]), [
            proc.stderr.read().decode() for proc in racers
        ]
        assert out.read_bytes() == reference["csv"]
        assert audit_stream(out, journal=journal_path(ckpt)).ok

    def test_resume_refused_while_lease_held(
        self, base, key, wm, spec, tmp_path
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        self._interrupted_run(out, ckpt)
        holder = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent("""
                import sys, time
                from repro.reliability import RunLock
                lock = RunLock(sys.argv[1], fingerprint="holder")
                lock.acquire()
                print("held", flush=True)
                time.sleep(60)
            """), str(ckpt) + ".lock"],
            env=_src_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            with pytest.raises(RunLockedError) as excinfo:
                _mark(
                    base, wm, key, spec, out, checkpoint_path=ckpt,
                    resume=True, lock=True,
                )
            assert excinfo.value.holder_pid == holder.pid
        finally:
            holder.kill()
            holder.wait()

    def test_dead_holders_lease_is_taken_over(
        self, base, key, wm, spec, reference, tmp_path, chaos_report
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        self._interrupted_run(out, ckpt)
        # the killed run never released its lease? simulate exactly that:
        # a lease whose pid is gone must not wedge recovery forever
        dead = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        import json as _json
        (tmp_path / "run.ckpt.lock").write_text(_json.dumps(
            {"pid": int(dead.stdout), "fingerprint": "x",
             "acquired": time.time()}
        ))
        result = _mark(
            base, wm, key, spec, out, checkpoint_path=ckpt,
            resume=True, lock=True,
        )
        assert result.reliability.lease_takeovers == 1
        assert out.read_bytes() == reference["csv"]
        chaos_report(result.reliability)
