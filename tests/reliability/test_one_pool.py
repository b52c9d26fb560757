"""One process-pool helper in ``src/repro``.

Spawning, killing, retiring and bounded waiting on worker processes live
in :mod:`repro.reliability.pool`; the sweep engine and the parallel
stream each hold a :class:`~repro.reliability.pool.WorkerPool` rather
than an executor of their own.  The check: exactly one module refers to
``ProcessPoolExecutor`` in code (an import, a name or an attribute).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent

_EXECUTOR = "ProcessPoolExecutor"


def _references_executor(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name.split(".")[-1] == _EXECUTOR:
            return True
        if isinstance(node, ast.Name) and node.id == _EXECUTOR:
            return True
        if isinstance(node, ast.Attribute) and node.attr == _EXECUTOR:
            return True
    return False


def _executor_modules(root: Path) -> list[str]:
    return [
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if _references_executor(path)
    ]


def test_exactly_one_module_spawns_process_pools():
    assert _executor_modules(SOURCE_ROOT) == ["reliability/pool.py"]


def test_checker_flags_every_module_with_its_own_pool(tmp_path):
    """The checker itself: two modules that each spawn an executor (as
    the sweep engine and the parallel stream once did) are both flagged;
    a docstring mention and a helper user are not."""
    (tmp_path / "experiments").mkdir()
    (tmp_path / "stream").mkdir()
    (tmp_path / "experiments" / "sweepengine.py").write_text(
        "def _ensure_pool(token, table, max_workers):\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    return ProcessPoolExecutor(max_workers=max_workers)\n",
        encoding="utf-8",
    )
    (tmp_path / "stream" / "parallel.py").write_text(
        "import concurrent.futures\n"
        "def _ensure_pool(blob, workers):\n"
        "    return concurrent.futures.ProcessPoolExecutor(workers)\n",
        encoding="utf-8",
    )
    (tmp_path / "docs.py").write_text(
        '"""Workers run on a ``ProcessPoolExecutor``."""\n',
        encoding="utf-8",
    )
    (tmp_path / "user.py").write_text(
        "from repro.reliability.pool import WorkerPool\n"
        "_POOL = WorkerPool('user')\n",
        encoding="utf-8",
    )
    assert _executor_modules(tmp_path) == [
        "experiments/sweepengine.py", "stream/parallel.py",
    ]
