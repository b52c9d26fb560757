"""Fault injection + crash-safe retry/recovery for the long-running paths.

The §5 protocol claims only hold if a multi-hour streaming mark/detect
run actually completes and its checkpoints can be trusted.  This package
makes recovery *provable* instead of hoped-for:

* :mod:`~repro.reliability.faults` — a seeded, label-addressed
  :class:`FaultPlan` that injection points across ``repro.stream`` and
  the sweep pool consult, raising deterministic ``IOError``/torn-write/
  truncated-gzip/corrupted-JSON/``SIGKILL`` faults at chosen chunk or
  cell indices (zero overhead when no plan is armed);
* :mod:`~repro.reliability.retry` — a :class:`RetryPolicy` (bounded
  attempts, exponential backoff, deterministic jitter) plus the shared
  transient/permanent fault taxonomy, applied at every I/O boundary;
* :mod:`~repro.reliability.report` — a :class:`ReliabilityReport`
  counting every retry, rollback, respawn and fallback, because silent
  recovery is indistinguishable from silent degradation;
* :mod:`~repro.reliability.deadline` — a monotonic wall-clock
  :class:`Deadline` checked at chunk/cell boundaries, raising
  :class:`DeadlineExceededError` with a resumable position (exit code 7);
* :mod:`~repro.reliability.watchdog` — heartbeat-based detection and
  ``SIGKILL`` of *hung* (not just dead) pool workers;
* :mod:`~repro.reliability.pool` — the one process-pool helper the sweep
  and the parallel stream share: spawn, kill-then-retire, the
  deadline-capped, watchdog-scanned wait and shipped worker faults;
* :mod:`~repro.reliability.budget` — a :class:`MemoryBudget` that halves
  the effective chunk size and replays on breach or ``MemoryError``,
  regrowing after sustained headroom;
* :mod:`~repro.reliability.breaker` — a :class:`CircuitBreaker` opening
  after K consecutive transient failures on one label, steering runs
  down the bit-identical degradation ladders instead of retrying
  forever;
* :mod:`~repro.reliability.integrity` — chunk-hash manifests journalled
  next to the checkpoint, :func:`audit_stream` corruption localization,
  verified (re-hashing) resume, and the :class:`RunLock` lease that
  makes concurrent embed/resume exactly-once.

The chaos suite (``pytest -m chaos``) kills real subprocesses at every
chunk boundary and asserts resumed runs are byte-identical to
uninterrupted ones — the enumerate-every-reachable-failure-state
discipline applied to the streaming layer.
"""

from .breaker import CircuitBreaker
from .budget import MemoryBudget, rss_bytes
from .deadline import Deadline, DeadlineExceededError, check_deadline
from .faults import (
    BITFLIP,
    CORRUPT_JSON,
    DISK_FULL,
    Fault,
    FaultPlan,
    HANG,
    IO_ERROR,
    InjectedFaultError,
    KILL,
    KINDS,
    MEMORY,
    SLOW,
    TORN_WRITE,
    TRUNCATED_GZIP,
    active_plan,
    arm,
    disarm,
    fault_point,
    injection_armed,
)
from .integrity import (
    AuditReport,
    ChunkDigest,
    ChunkManifest,
    IntegrityError,
    RunLock,
    RunLockedError,
    audit_stream,
    digest_rows,
    journal_path,
)
from .report import ReliabilityReport
from .retry import (
    NO_RETRY,
    PERMANENT,
    RetryError,
    RetryPolicy,
    TRANSIENT,
    call_with_retry,
    classify,
)
from .watchdog import Watchdog, beat

__all__ = [
    "AuditReport",
    "BITFLIP",
    "CORRUPT_JSON",
    "ChunkDigest",
    "ChunkManifest",
    "CircuitBreaker",
    "DISK_FULL",
    "Deadline",
    "DeadlineExceededError",
    "Fault",
    "FaultPlan",
    "IntegrityError",
    "HANG",
    "IO_ERROR",
    "InjectedFaultError",
    "KILL",
    "KINDS",
    "MEMORY",
    "MemoryBudget",
    "NO_RETRY",
    "PERMANENT",
    "ReliabilityReport",
    "RetryError",
    "RetryPolicy",
    "RunLock",
    "RunLockedError",
    "SLOW",
    "TORN_WRITE",
    "TRANSIENT",
    "TRUNCATED_GZIP",
    "Watchdog",
    "active_plan",
    "arm",
    "audit_stream",
    "beat",
    "call_with_retry",
    "check_deadline",
    "classify",
    "digest_rows",
    "disarm",
    "fault_point",
    "injection_armed",
    "journal_path",
    "rss_bytes",
]
