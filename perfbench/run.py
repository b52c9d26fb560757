"""The benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload detect-gz --seed 3 --seconds 34 \
        --trace 0

Builds the seed's inputs and references (cached, never timed), then runs
workload processes one after another — a closed loop with one client —
until ``--seconds`` have passed.  Each process starts up as one CLI run
does (one ``setup_s`` sample, scaled to the reference job's nominal
speed) and then repeats the timed call from the same cold state for up
to ``PROCESS_SECONDS`` (one ``rows_per_ref`` sample per call: rows
carried in the time a fixed reference job takes, timed next to the
call; see ``reference.py``).  Every end-to-end metric is a median: over
the calls for ``rows_per_ref``, over the processes for set-up time and
peak RSS.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced single-call processes and reports the per-layer
metrics of the traced call with the median wall time, its layer split,
and the tracing overhead against the untraced calls.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
repeat every metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, WORK, WORKLOADS, seed_dir  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

#: fewest workload processes (set-up samples) per run
MIN_PROCESSES = 3
#: how long one workload process keeps making timed calls
PROCESS_SECONDS = 3.0
#: the whole run, input building included, ends within this many
#: seconds: a process still running then is killed and counted failed
LIMIT_S = 170.0
#: no new workload process starts with less time than this left
START_MARGIN_S = 30.0


class Clock:
    """Time left until the run's hard limit."""

    def __init__(self):
        self.deadline = time.monotonic() + LIMIT_S

    def left(self) -> float:
        return self.deadline - time.monotonic()


def host_stamp() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def spawn(
    workload: str, inputs: Path, number: int, until: float, trace: bool,
    clock: Clock,
) -> dict:
    """Run one workload process; its result, or ``{"problems": [...]}``
    when it did not finish."""
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    out = inputs / f"result-{tag}.json"
    scratch = inputs / f"run-{tag}"
    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--inputs", str(inputs), "--scratch", str(scratch),
        "--out", str(out), "--process", str(number),
        "--until", repr(until),
    ]
    if trace:
        command.append("--trace")
    spawned = time.monotonic()
    # Its own session, so a timeout kills its pool workers too.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, clock.left()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        return {"problems": [f"killed at the {LIMIT_S:g} s run limit"]}
    if code != 0 or not out.exists():
        return {"problems": [f"workload process exited with {code}"]}
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    result["problems"] = []
    result["setup_raw_s"] = result["call_start"] - spawned
    # Set-up at the host speed where the reference job takes NOMINAL_S,
    # timed by the job around this process's calls, the nearest to it.
    reference = statistics.median(c["reference_s"] for c in result["calls"])
    result["setup_s"] = result["setup_raw_s"] * NOMINAL_S / reference
    result["peak_rss_mb"] = max(result["rss_mb"], result["worker_rss_mb"])
    for call in result["calls"]:
        call["rows_per_s"] = call["rows"] / call["wall_s"]
        call["rows_per_ref"] = call["rows_per_s"] * call["reference_s"]
    return result


def measure(
    workload: str, inputs: Path, seconds: float, trace: bool, clock: Clock
):
    """Workload processes until ``seconds`` pass: ``(untraced, traced)``
    process results.  A traced run alternates single-call processes,
    untraced first, so both sides see the same host."""
    untraced, traced = [], []
    begin = time.monotonic()
    end = begin + seconds
    while True:
        now = time.monotonic()
        enough = len(untraced) >= MIN_PROCESSES and (
            not trace or len(traced) >= MIN_PROCESSES
        )
        if (enough and now >= end) or clock.left() < START_MARGIN_S:
            break
        tracing = trace and len(traced) < len(untraced)
        until = 0.0 if trace else min(end, now + PROCESS_SECONDS)
        number = len(untraced) + len(traced)
        result = spawn(workload, inputs, number, until, tracing, clock)
        (traced if tracing else untraced).append(result)
        if result["problems"]:
            break  # the process did not finish; another would not either
    return untraced, traced


def calls_of(processes: list[dict]) -> list[dict]:
    return [call for process in processes for call in process.get("calls", ())]


def problems_of(processes: list[dict]) -> list[str]:
    found = [problem for p in processes for problem in p["problems"]]
    for call in calls_of(processes):
        found.extend(call["problems"])
    return found


def attempted_of(processes: list[dict]) -> int:
    """Timed calls made, counting a process that never reported as one
    failed call."""
    return sum(len(p["calls"]) if "calls" in p else 1 for p in processes)


def failed_of(processes: list[dict]) -> int:
    return sum(
        sum(1 for call in p["calls"] if call["problems"])
        if "calls" in p else 1
        for p in processes
    )


def end_to_end(processes: list[dict]) -> tuple[dict, dict]:
    """``({metric: value}, {metric: sample count})``: medians over the
    good calls (``rows_per_ref``, and the raw ``rows_per_s`` and
    ``reference_s`` that are printed but not reported) and the finished
    processes (``setup_s``, ``peak_rss_mb``, and the printed raw
    ``setup_raw_s``)."""
    finished = [p for p in processes if "calls" in p]
    good = [call for call in calls_of(finished) if not call["problems"]]
    attempted = attempted_of(processes)
    values = {"ok_share": (attempted - failed_of(processes)) / attempted}
    counts = {"ok_share": attempted}
    if good:
        for name in ("rows_per_ref", "rows_per_s", "reference_s"):
            values[name] = statistics.median(call[name] for call in good)
            counts[name] = len(good)
        print(
            "rows_per_ref of every call: "
            + " ".join(f"{call['rows_per_ref']:.0f}" for call in good)
        )
    if finished:
        for name in ("setup_s", "peak_rss_mb", "setup_raw_s"):
            values[name] = statistics.median(p[name] for p in finished)
            counts[name] = len(finished)
    return values, counts


def units(kind: str) -> dict[str, str]:
    """``{metric: unit}`` of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list, in its order."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def layers(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and split of the traced call with the median
    wall time, so the split adds up to one real wall time."""
    ok = sorted(
        (p for p in traced if "calls" in p and not problems_of([p])),
        key=lambda p: p["metrics"]["trace.wall_s"],
    )
    if not ok:
        return {}, {}
    chosen = ok[(len(ok) - 1) // 2]
    values = dict(chosen["metrics"])
    base = [c for c in calls_of(untraced) if not c["problems"]]
    if base:
        values["trace.overhead"] = 1.0 - (
            statistics.median(c["rows_per_ref"] for c in calls_of(ok))
            / statistics.median(c["rows_per_ref"] for c in base)
        )
    return values, chosen["split"]


def report(workload, seed, untraced, traced, trace: bool) -> dict:
    processes = untraced + traced
    for problem in problems_of(processes):
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, **host_stamp()}))
    metrics = {}
    if not trace:
        values, counts = end_to_end(untraced)
        reported = units("end_to_end")
        printed = {
            **reported, "rows_per_s": "rows/s", "setup_raw_s": "s",
            "reference_s": "s",
        }
        for name, unit in printed.items():
            if name in values:
                if name in reported:
                    metrics[name] = {"value": values[name], "unit": unit}
                print(
                    f"{name:<12} {values[name]:>14.6g} {unit:<9} "
                    f"n={counts[name]}"
                )
    else:
        values, split = layers(untraced, traced)
        if values:
            wall = values["trace.wall_s"]
            print(f"layer split of one traced call ({wall:.4f} s wall):")
            for layer, seconds in split.items():
                share = seconds / wall if wall else 0.0
                print(f"  {layer:<12} {seconds:>9.4f} s {share:>7.1%}")
            print(
                f"  {'sum':<12} {sum(split.values()):>9.4f} s; tracing "
                f"overhead {values['trace.overhead']:.1%} of untraced "
                f"rows_per_ref (n={len(traced)} traced, {len(untraced)} "
                f"untraced calls)"
            )
            for name, unit in units("per_layer").items():
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"{name:<28} {values[name]:>14.6g} {unit}")
    failed = failed_of(processes)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted_of(processes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    clock = Clock()
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"no repro sources under {ROOT / 'src'}: run from a checkout "
            f"of the repository", file=sys.stderr,
        )
        return 2
    # Pools and tempfiles of the program stay inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # A process of its own, so the inputs it holds in memory never reach
    # the workload processes' peak RSS through fork.
    subprocess.run(
        [
            sys.executable, str(HERE / "prepare.py"),
            "--workload", args.workload, "--seed", str(args.seed),
        ],
        check=True, timeout=clock.left() - START_MARGIN_S,
    )
    inputs = seed_dir(args.seed)
    untraced, traced = measure(
        args.workload, inputs, args.seconds, bool(args.trace), clock
    )
    print(json.dumps(
        report(args.workload, args.seed, untraced, traced, bool(args.trace))
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
