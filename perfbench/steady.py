"""Steadiness report: every workload over several seeds, interleaved.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 1 --trace 1      # one traced run each

Runs ``run.py`` once per (seed, workload), rotating the workload order
every round so host drift spreads over all workloads alike, and prints,
per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, that spread as a
share of the metric's bound in BENCHMARK.json.  Runs last BENCHMARK.json's
``run_seconds`` and use the seeds 1, 2, ... ``--runs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import host_stamp  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    begin = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["stdout"] = lines[:-1]
    result["run_s"] = time.monotonic() - begin
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``; quartiles need two
    values, so one value has no spread."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workloads", default=None,
        help="comma-separated; default: the workloads in BENCHMARK.json",
    )
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = (
        args.workloads.split(",") if args.workloads
        else [workload["name"] for workload in benchmark["workloads"]]
    )
    print(json.dumps(host_stamp()))

    runs: dict[str, list[dict]] = {workload: [] for workload in workloads}
    for index in range(args.runs):
        seed = index + 1
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result = run_once(workload, seed, seconds, args.trace)
            runs[workload].append({"seed": seed, **result})
            print(
                f"run {index + 1}/{args.runs} seed {seed} {workload}: "
                f"correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']} ({result['run_s']:.1f} s)",
                flush=True,
            )
            if args.trace or args.runs == 1:
                print("\n".join(result["stdout"][1:]), flush=True)

    print()
    print(
        f"{'workload':<14} {'metric':<28} {'unit':<9} {'n':>3} "
        f"{'median':>13} {'q1':>13} {'q3':>13} {'spread':>8} {'/bound':>7}"
    )
    for workload, results in runs.items():
        names = results[0]["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            middle, q1, q3, share = spread(values)
            bound = bounds.get(name)
            of_bound = f"{share / bound:>7.2f}" if bound else f"{'':>7}"
            print(
                f"{workload:<14} {name:<28} {unit:<9} {len(values):>3} "
                f"{middle:>13.6g} {q1:>13.6g} {q3:>13.6g} {share:>8.4f} "
                f"{of_bound}"
            )
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(
            f"{workload:<14} {'failed_share':<28} {'ratio':<9} "
            f"{len(results):>3} {failed / attempted:>13.6g} "
            f"({failed} of {attempted} timed calls)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
