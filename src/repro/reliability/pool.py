"""One persistent process pool for the embarrassingly parallel paths.

Every per-tuple decision of the scheme is a pure function of a keyed
hash of the tuple's key, so the §5 sweep's per-seed cells and the
streamed scan's per-chunk tasks can run on any worker, in any order, and
be replayed bit-identically.  Both run on a :class:`WorkerPool`, which
owns the worker processes: spawning one persistent executor per
``(token, workers)`` with a heartbeat directory, ``SIGKILL`` before
retiring whenever a worker may be hung (``Executor.shutdown`` joins
workers rather than signalling them), and the bounded wait — every
``future.result`` capped by the run's
:class:`~repro.reliability.Deadline` and scanned by the
:class:`~repro.reliability.Watchdog`.  Faults scheduled at
``pool.worker`` are consumed in the parent (:func:`planned_fault`) and
acted out in the worker (:func:`fire`), so a retried task runs clean.

The callers keep what differs: their task functions and their recovery
ladders (the sweep's per-seed retry rounds and pooled → hoisted
fallback, the stream's ordered commit and parallel → serial fallback).
``concurrent.futures`` is imported only once a pool is needed.
"""

from __future__ import annotations

import atexit
import glob
import logging
import os
import shutil
import signal
import tempfile
import time
from collections.abc import Callable, Hashable
from typing import Any, NamedTuple

from .deadline import Deadline
from .faults import HANG, KILL, MEMORY, SLOW, InjectedFaultError, active_plan
from .integrity import _pid_alive
from .report import ReliabilityReport
from .watchdog import BUSY, IDLE, Watchdog, beat

logger = logging.getLogger(__name__)

#: fault-plan label of every pool task
POOL_LABEL = "pool.worker"


def resolve_watchdog(watchdog: Watchdog | bool | None) -> Watchdog | None:
    """``None`` takes the default heartbeat watchdog (a pooled run should
    never block forever on a hung worker); ``False`` disables it."""
    if watchdog is False:
        return None
    if isinstance(watchdog, Watchdog):
        return watchdog
    return Watchdog()


# -- shipped faults ----------------------------------------------------------

class PlannedFault(NamedTuple):
    """A parent-planned fault, shipped into one pool task."""

    kind: str
    #: stall length of a ``hang``/``slow`` fault
    seconds: float
    #: the cell of a multi-cell task at which the fault fires
    cell: int


def planned_fault(index: int, cells: int = 1) -> PlannedFault | None:
    """Consume the armed plan's ``pool.worker`` trigger at ``index``.

    A task of several cells fires the fault at a cell drawn from the
    fault's own rng, so the schedule reproduces run to run.
    """
    plan = active_plan()
    if plan is None or not plan.scheduled(POOL_LABEL, index):
        return None
    kind = plan.draw(POOL_LABEL, index)
    cell = plan.rng(POOL_LABEL, index).randrange(cells) if cells > 1 else 0
    seconds = {HANG: plan.hang_seconds, SLOW: plan.slow_seconds}.get(kind, 0.0)
    return PlannedFault(kind, seconds, cell)


def fire(fault: PlannedFault, index: int) -> None:
    """Worker side: act out a shipped fault.

    ``kill`` is a ``SIGKILL``; ``hang`` stalls and then raises a
    transient error (whichever of the watchdog or the retry path notices
    first recovers the task); ``slow`` stalls and carries on; ``memory``
    raises ``MemoryError``; anything else raises
    :class:`~repro.reliability.InjectedFaultError`.
    """
    kind = fault.kind
    if kind == KILL:
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover — fatal
    if kind in (HANG, SLOW):
        time.sleep(fault.seconds)
        if kind == SLOW:
            return
    if kind == MEMORY:
        raise MemoryError(f"injected memory fault at {POOL_LABEL}[{index}]")
    raise InjectedFaultError(POOL_LABEL, index, kind)


# -- worker side -------------------------------------------------------------

# The heartbeat directory of the pool this process works for (set by
# _bootstrap; ``None`` outside a pool worker).
_HEARTBEAT_DIR: str | None = None


def _bootstrap(
    initializer: Callable[[bytes], None], payload: bytes, heartbeat_dir: str
) -> None:
    """Executor initializer: run the caller's initializer, then report
    idle."""
    global _HEARTBEAT_DIR
    _HEARTBEAT_DIR = heartbeat_dir
    initializer(payload)
    beat(heartbeat_dir, state=IDLE)


def worker_beat(state: str = BUSY) -> None:
    """Heartbeat this worker's state into its pool's directory: ``busy``
    at every task or cell boundary, ``idle`` when a task returns."""
    beat(_HEARTBEAT_DIR, state=state)


# -- heartbeat directories ---------------------------------------------------

# Heartbeat directories this process created and has not removed yet,
# mapped to the owner pid (a forked child inherits the map, and must not
# remove its parent's directories at its own exit).
_LIVE_DIRS: dict[str, int] = {}


def _make_heartbeat_dir(name: str) -> str:
    """A fresh ``<name>-heartbeat-<pid>-*`` directory in the temp dir.

    The owner pid in the name lets the next spawn remove directories a
    killed owner left behind; one ``atexit`` hook removes this process's
    own at a normal exit, even when no pool was shut down.
    """
    prefix = os.path.join(tempfile.gettempdir(), f"{name}-heartbeat-")
    for path in glob.glob(glob.escape(prefix) + "*-*"):
        owner = path[len(prefix):].split("-", 1)[0]
        if owner.isdigit() and not _pid_alive(int(owner)):
            shutil.rmtree(path, ignore_errors=True)
    path = tempfile.mkdtemp(prefix=f"{name}-heartbeat-{os.getpid()}-")
    _LIVE_DIRS[path] = os.getpid()
    return path


def _remove_heartbeat_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    _LIVE_DIRS.pop(path, None)


@atexit.register
def _remove_heartbeat_dirs() -> None:
    for path, owner in list(_LIVE_DIRS.items()):
        if owner == os.getpid():
            _remove_heartbeat_dir(path)


# -- the pool ----------------------------------------------------------------

class WorkerPool:
    """One persistent process-pool slot and its heartbeat directory."""

    def __init__(self, name: str):
        #: names the heartbeat directory and the log lines
        self.name = name
        self.executor = None
        self.heartbeat_dir: str | None = None
        self._key: tuple[Hashable, int] | None = None

    def ensure(
        self,
        token: Hashable,
        workers: int,
        initializer: Callable[[bytes], None],
        payload: Callable[[], bytes],
    ):
        """The executor for ``(token, workers)``, spawned if needed.

        Any other key retires the running pool first: its workers were
        initialized for another payload.  ``payload()`` is called only
        when a pool is spawned, and its bytes reach every worker's
        ``initializer``.
        """
        key = (token, workers)
        if self.executor is not None and self._key == key:
            return self.executor
        self.shutdown()
        from concurrent.futures import ProcessPoolExecutor

        self.heartbeat_dir = _make_heartbeat_dir(self.name)
        self.executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_bootstrap,
            initargs=(initializer, payload(), self.heartbeat_dir),
        )
        self._key = key
        return self.executor

    def pids(self) -> list[int]:
        """PIDs of the live workers (empty when no pool is up)."""
        if self.executor is None:
            return []
        return list((getattr(self.executor, "_processes", None) or {}).keys())

    def shutdown(self, kill: bool = False) -> None:
        """Retire the pool.  ``kill=True`` first ``SIGKILL``s every
        worker — required whenever one may be hung, because a hung
        worker would otherwise block the shutdown's join."""
        if self.executor is not None:
            if kill:
                Watchdog.kill(self.pids())
            self.executor.shutdown(wait=True, cancel_futures=True)
        if self.heartbeat_dir is not None:
            _remove_heartbeat_dir(self.heartbeat_dir)
        self.executor = None
        self.heartbeat_dir = None
        self._key = None

    def wait(
        self,
        future,
        deadline: Deadline | None,
        watchdog: Watchdog | None,
        reliability: ReliabilityReport | None,
        label: str,
        position: int,
    ) -> Any:
        """``future.result()``, bounded.

        Polls in watchdog-sized slices.  Every wakeup scans the heartbeat
        directory and ``SIGKILL``s workers silent mid-task past the
        watchdog budget (counted in ``reliability`` and logged); the
        executor then breaks and the caller's respawn path re-dispatches
        the lost tasks.  Once ``deadline`` is spent, the workers are
        killed, the pool is retired and
        :class:`~repro.reliability.DeadlineExceededError` is raised at
        ``label[position]``.
        """
        from concurrent.futures import TimeoutError as FuturesTimeout

        poll = watchdog.poll if watchdog is not None else 1.0
        while True:
            if deadline is not None and deadline.expired():
                self.shutdown(kill=True)
                deadline.check(label, position)  # raises
            try:
                return future.result(
                    timeout=deadline.timeout(poll) if deadline is not None
                    else poll
                )
            except FuturesTimeout:
                pass
            if watchdog is None:
                continue
            killed = watchdog.kill_stale(self.heartbeat_dir, self.pids())
            if killed:
                if reliability is not None:
                    reliability.watchdog_kills += len(killed)
                logger.warning(
                    "watchdog killed %d hung %s pool worker(s) silent "
                    "past %.6gs: %s — respawning and re-dispatching",
                    len(killed), self.name, watchdog.budget, killed,
                )
