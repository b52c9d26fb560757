"""The reference job: the host's speed, timed next to each call.

The host the benchmark runs on drifts: for phases of 10–60 s a fixed
CPU loop runs up to 40 % slower, so the same program measured at two
moments differs by more than any bound could allow.  ``rows_per_ref``
divides the drift out: a call's rows ÷ its wall time × the wall time of
this fixed job, timed just before and just after the call — the rows
the program carries in the time the reference job takes on the same
host at the same moment.  ``setup_s`` is scaled the same way, to the
host speed at which the job takes ``NOMINAL_S``.

The job uses no ``repro`` code, so a change to the program never moves
it.  It does the kinds of work the workloads do — interpreted loops over
strings and dicts, SHA-256 of short keys, a numpy factorization, zlib —
in ~70 ms.  A pooled call keeps every core busy, so for it the job runs
on ``copies`` cores at once: here and in helper processes, each a small
interpreter that imports numpy only and waits on its standard input.

    python3 perfbench/reference.py      # a helper: "go" in, seconds out
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time
import zlib

#: roughly the job's wall time on an idle core of the two-core host the
#: benchmark was tuned on; ``setup_s`` is reported at this speed
NOMINAL_S = 0.08


def job_s() -> float:
    """Wall time of one run of the fixed job in this process.  numpy is
    imported here, not at the top, so that a workload process importing
    this module does not move numpy's import out of ``repro``'s."""
    import numpy

    begin = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(60_000):
        text = str(i * 7919 % 100_003)
        counts[text] = counts.get(text, 0) + 1
    sha256 = hashlib.sha256
    for i in range(30_000):
        sha256(b"key" + i.to_bytes(4, "little")).digest()
    values = numpy.random.default_rng(1).integers(0, 5_000, 200_000)
    numpy.unique(values, return_inverse=True)
    zlib.compress(",".join(map(str, range(60_000))).encode(), 6)
    return time.perf_counter() - begin


class Reference:
    """The job on ``copies`` cores at once; ``seconds()`` is the mean of
    their wall times.  Helpers start on the first ``seconds()`` (after
    set-up, which they would otherwise share a host with) and stop on
    ``close()``."""

    def __init__(self, copies: int):
        self.copies = copies
        self.helpers: list[subprocess.Popen] | None = None

    def _start(self) -> None:
        self.helpers = [
            subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
            )
            for _ in range(self.copies - 1)
        ]
        for helper in self.helpers:
            if helper.stdout.readline().strip() != "ready":
                raise RuntimeError("a reference helper did not start")

    def seconds(self) -> float:
        if self.helpers is None:
            self._start()
        for helper in self.helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        times = [job_s()]
        times += [float(helper.stdout.readline()) for helper in self.helpers]
        return statistics.mean(times)

    def close(self) -> None:
        for helper in self.helpers or ():
            helper.stdin.close()
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
        self.helpers = None


def helper() -> int:
    job_s()  # imports numpy and warms up before the first timed job
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "go":
            return 2
        print(repr(job_s()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(helper())
