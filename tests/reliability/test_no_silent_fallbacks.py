"""No silent broad fallbacks in ``src/repro``.

A handler that catches everything (a bare ``except``, ``except
Exception`` or ``except BaseException``) must either re-raise or log its
cause: a fallback that swallows the exception hides the very failure the
reliability layer exists to surface.  "Logs" means the handler calls a
``logger``/``logging`` method, or calls a function of the same module
that does (the sweep engine routes every pooled fallback through one
such helper).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent

_BROAD = {"Exception", "BaseException"}
_LOG_METHODS = {
    "debug", "info", "warning", "error", "exception", "critical", "log",
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = (
        handler.type.elts if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(name, ast.Name) and name.id in _BROAD for name in caught
    )


def _is_log_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _LOG_METHODS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("logger", "logging")
    )


def _called_name(node: ast.AST) -> str | None:
    """``f`` for ``f(...)`` and ``self.f(...)`` calls, else ``None``."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute) and isinstance(
        node.func.value, ast.Name
    ):
        return node.func.attr
    return None


def _handled_loudly(handler: ast.ExceptHandler, logging_helpers) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) or _is_log_call(node):
            return True
        if _called_name(node) in logging_helpers:
            return True
    return False


def _silent_handlers(path: Path, root: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    logging_helpers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_log_call(inner) for inner in ast.walk(node))
    }
    return [
        f"{path.relative_to(root).as_posix()}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and _is_broad(node)
        and not _handled_loudly(node, logging_helpers)
    ]


def test_broad_handlers_reraise_or_log():
    sources = sorted(SOURCE_ROOT.rglob("*.py"))
    assert sources, f"no sources under {SOURCE_ROOT}"
    silent = [
        location
        for path in sources
        for location in _silent_handlers(path, SOURCE_ROOT.parent)
    ]
    assert not silent, f"silent broad except handlers: {silent}"


def test_checker_flags_a_silent_handler(tmp_path):
    """The checker itself: a swallowing handler is flagged, a logging or
    re-raising one is not."""
    sample = tmp_path / "pkg" / "sample.py"
    sample.parent.mkdir()
    sample.write_text(
        "import logging\n"
        "logger = logging.getLogger(__name__)\n"
        "def _note(exc):\n"
        "    logger.warning('failed: %r', exc)\n"
        "def swallow():\n"
        "    try:\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n"
        "def bare():\n"
        "    try:\n"
        "        pass\n"
        "    except:\n"
        "        return None\n"
        "def reraise():\n"
        "    try:\n"
        "        pass\n"
        "    except Exception:\n"
        "        raise\n"
        "def logs(exc=None):\n"
        "    try:\n"
        "        pass\n"
        "    except Exception as exc:\n"
        "        logger.warning('x %r', exc)\n"
        "def helper():\n"
        "    try:\n"
        "        pass\n"
        "    except BaseException as exc:\n"
        "        _note(exc)\n"
        "def narrow():\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n",
        encoding="utf-8",
    )
    flagged = _silent_handlers(sample, tmp_path)
    assert flagged == ["pkg/sample.py:8", "pkg/sample.py:13"]
