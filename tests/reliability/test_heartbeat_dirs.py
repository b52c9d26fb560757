"""Pool heartbeat directories do not outlive their owner process.

Every :class:`~repro.reliability.pool.WorkerPool` spawn makes a
``<name>-heartbeat-<pid>-*`` directory in the temp dir.  A process that
exits normally removes its own at exit, even when no pool was shut down;
a directory whose owner was killed is removed by the next spawn.  Each
case runs a real subprocess with ``TMPDIR`` pointed at a fresh directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

_PARALLEL_VERIFY = textwrap.dedent("""
    from repro import MarkKey, Watermark
    from repro.core import EmbeddingSpec
    from repro.datagen import generate_item_scan
    from repro.stream import TableChunkSource, stream_verify

    result = stream_verify(
        TableChunkSource(
            generate_item_scan(1200, item_count=80, seed=13), chunk_size=300
        ),
        MarkKey.from_seed("heartbeat"),
        EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 120),
        Watermark.from_int(0x2AB, 10),
        workers=2,
    )
    assert result.parallel.workers == 2
""")


def _run(code: str, tmpdir) -> None:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env["TMPDIR"] = str(tmpdir)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _dead_pid() -> int:
    """The pid of a process that has exited and been reaped."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_normal_exit_removes_the_heartbeat_dir(tmp_path):
    _run(_PARALLEL_VERIFY, tmp_path)
    assert list(tmp_path.glob("*-heartbeat-*")) == []


def test_spawn_removes_a_dead_owners_heartbeat_dir(tmp_path):
    # what a SIGKILLed coordinator leaves behind: its dir, beats inside
    leftover = tmp_path / f"stream-heartbeat-{_dead_pid()}-k1lled"
    leftover.mkdir()
    (leftover / "4242").write_text("busy")
    _run(_PARALLEL_VERIFY, tmp_path)
    assert list(tmp_path.glob("*-heartbeat-*")) == []


def test_a_live_owners_heartbeat_dir_is_kept(tmp_path):
    # this test process is alive: its (pretend) pool dir must survive
    live = tmp_path / f"stream-heartbeat-{os.getpid()}-running"
    live.mkdir()
    _run(_PARALLEL_VERIFY, tmp_path)
    assert [path.name for path in tmp_path.glob("*-heartbeat-*")] == [
        live.name
    ]
