"""One workload process: set up, make timed calls, check every output.

    python3 perfbench/workload.py --workload detect-gz --inputs DIR \\
        --scratch DIR --out RESULT.json --process N --until MONOTONIC \\
        [--trace]

The process does what one CLI run does — import ``repro``, load the key,
schema and mark record, open the inputs — and then makes the timed call.
It repeats the call, each time from the same cold state (fresh output
file, fresh sweep engine, no stream pool, collected garbage), until the
monotonic clock passes ``--until``; ``--trace`` makes exactly one traced
call.  ``--process`` is the process's number within the run; sweep-s5
picks its base relation with it.  It writes a JSON result: the monotonic
clock at the start of the first call (the parent subtracts its spawn
time to get ``setup_s``), each call's rows, wall time, reference time
(the mean of the reference job's time just before and just after the
call, see ``reference.py``) and correctness problems, the peak RSS of
itself and of its largest pool worker through the first call, and with
``--trace`` the per-layer metrics, the layer split and the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import (  # noqa: E402
    CHUNK_ROWS,
    SWEEP_TABLES,
    WORKLOADS,
    load_owner_inputs,
    points_payload,
    read_json,
    run_s5,
    sha256_file,
    sweep_table_path,
    verdict_payload,
)
from reference import Reference  # noqa: E402


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS in MB of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


# -- mark-gz ------------------------------------------------------------------

class MarkRun:
    """The owner's release: plain CSV -> gzip CSV with a checkpoint,
    which arms the chunk-hash journal (the CLI's ``--checkpoint``)."""

    def __init__(self, inputs: Path, scratch: Path):
        from repro.stream import open_sources

        self.inputs = inputs
        self.scratch = scratch
        self.schema, self.key, self.record = load_owner_inputs(inputs)
        self.source = open_sources(
            [inputs / "itemscan.csv"], self.schema, chunk_size=CHUNK_ROWS
        )
        self.reference = read_json(inputs / "mark.json")

    def before(self) -> None:
        from repro.stream import open_sink

        shutil.rmtree(self.scratch / "out", ignore_errors=True)
        (self.scratch / "out").mkdir()
        self.output = self.scratch / "out" / "marked.csv.gz"
        self.checkpoint = self.scratch / "out" / "mark.ckpt"
        self.sink = open_sink(self.output)

    def call(self) -> int:
        from repro.stream import stream_mark

        self.result = stream_mark(
            self.source, self.record.watermark, self.key, self.record.spec,
            self.sink, checkpoint_path=self.checkpoint,
        )
        return self.result.rows

    def after(self) -> list[str]:
        return check_mark(
            self.output, self.checkpoint, self.reference, self.result.rows
        )

    def close(self) -> None:
        pass

    def extra(self) -> dict:
        return {"retries": self.result.reliability.total_retries}


def check_mark(
    output: Path, checkpoint: Path, reference: dict, rows: int
) -> list[str]:
    """The marked file must be byte-identical to the SCALAR reference,
    and its chunk-hash journal must audit clean."""
    from repro.reliability.integrity import audit_stream, journal_path

    problems = []
    if rows != reference["rows"]:
        problems.append(f"marked {rows} rows, expected {reference['rows']}")
    if sha256_file(output) != reference["marked_sha256"]:
        problems.append("marked file differs from the SCALAR reference")
    audit = audit_stream(output, journal=journal_path(checkpoint))
    if audit.corrupt or not audit.header_ok or audit.trailing:
        problems.append(
            f"audit: corrupt chunks {audit.corrupt}, header ok "
            f"{audit.header_ok}, {audit.trailing} trailing bytes"
        )
    if audit.chunks != reference["chunks"]:
        problems.append(
            f"audit saw {audit.chunks} chunks, expected {reference['chunks']}"
        )
    return problems


# -- detect-gz / detect-gz-par ------------------------------------------------

class DetectRun:
    """A scan of the suspect gzip file for the owner's mark, reading it
    as the CLI's ``detect --input`` does: domains inferred per chunk,
    decoded against the escrowed domain."""

    def __init__(self, inputs: Path, workers):
        from repro.relational import CategoricalDomain
        from repro.stream import open_sources

        self.workers = workers
        self.schema, self.key, self.record = load_owner_inputs(inputs)
        self.domain = CategoricalDomain(self.record.domain_values)
        self.source = open_sources(
            [inputs / "suspect.csv.gz"], self.schema,
            chunk_size=CHUNK_ROWS, infer_domains=True,
        )
        self.reference = read_json(inputs / "detect.json")

    def before(self) -> None:
        # every call starts its pool, as every CLI run does
        self.close()

    def call(self) -> int:
        from repro.stream import stream_verify

        self.result = stream_verify(
            self.source, self.key, self.record.spec, self.record.watermark,
            embedding_map=self.record.embedding_map, domain=self.domain,
            workers=self.workers,
        )
        return self.result.rows

    def after(self) -> list[str]:
        return check_detect(self.result, self.reference)

    def close(self) -> None:
        from repro.stream import shutdown_stream_pool

        shutdown_stream_pool()

    def extra(self) -> dict:
        extra = {"retries": self.result.reliability.total_retries}
        report = self.result.parallel
        if report is not None:
            stats = list(report.worker_stats.values())
            chunks = [stat["chunks"] for stat in stats]
            mean_chunks = sum(chunks) / len(chunks) if chunks else 0
            extra.update(
                worker_digests=sum(stat["computed_digests"] for stat in stats),
                worker_kernel_calls=sum(
                    sum(stat["kernel_calls"].values()) for stat in stats
                ),
                worker_skew=max(chunks) / mean_chunks if mean_chunks else 0.0,
                chunks_serial=report.chunks_serial,
                redispatches=report.redispatches,
            )
        return extra


def check_detect(result, reference: dict) -> list[str]:
    """Verdict, decoded bits, matching bits and every slot's votes must
    equal the in-memory SCALAR oracle, and the mark must be found."""
    problems = []
    if result.rows != reference["rows"]:
        problems.append(
            f"tallied {result.rows} rows, expected {reference['rows']}"
        )
    got = verdict_payload(result.verification, result.votes)
    for field, want in reference["oracle"].items():
        if got[field] != want:
            problems.append(f"{field} differs from the SCALAR oracle")
    if not got["detected"]:
        problems.append("the owner's mark was not detected")
    return problems


# -- sweep-s5 -----------------------------------------------------------------

class SweepRun:
    """§5: Figures 4 and 7 on one base relation, each call from a cold
    sweep engine and pool as a fresh `repro-wm figure` process has.  The
    process reads only the relation its number picks, so the processes
    of a run take the seed's relations in turn."""

    def __init__(self, inputs: Path, process: int):
        from repro.relational import read_csv

        self.schema, _, _ = load_owner_inputs(inputs)
        self.index = process % SWEEP_TABLES
        self.table = read_csv(
            sweep_table_path(inputs, self.index), self.schema
        )
        self.reference = read_json(inputs / "sweep.json")["tables"][
            self.index
        ]

    def before(self) -> None:
        from repro.crypto import clear_engine_registry

        self.close()
        clear_engine_registry()

    def call(self) -> int:
        self.series = run_s5(self.table, None)
        return self.reference["rows"]

    def after(self) -> list[str]:
        from repro.experiments import get_sweep_engine

        self.cache_info = get_sweep_engine().cache_info()
        return check_sweep(self.series, self.reference)

    def close(self) -> None:
        from repro.experiments import reset_sweep_engine

        reset_sweep_engine()

    def extra(self) -> dict:
        keys = (
            "cells_executed", "embeds_performed", "pool_respawns",
            "pool_fallbacks", "cell_retries",
        )
        extra = {key: self.cache_info[key] for key in keys}
        extra["retries"] = extra["cell_retries"]
        return extra


def check_sweep(series, reference: dict) -> list[str]:
    """Every point's detection rate and mean alteration must equal the
    ``mode="serial"`` reference exactly."""
    if points_payload(series) != reference["points"]:
        return ["sweep points differ from the serial reference"]
    return []


# -- run loop -----------------------------------------------------------------

def reference_copies(workload: str) -> int:
    """Cores a call keeps busy: one for the serial mark, every core
    (up to the stream pool's cap of 8) for the pooled workloads."""
    if workload in ("mark-gz", "detect-gz"):
        return 1
    return min(len(os.sched_getaffinity(0)), 8)


def make_job(workload: str, inputs: Path, scratch: Path, process: int):
    if workload == "mark-gz":
        return MarkRun(inputs, scratch)
    if workload == "sweep-s5":
        return SweepRun(inputs, process)
    return DetectRun(inputs, "auto" if workload == "detect-gz-par" else 1)


def run(
    workload: str, inputs: Path, scratch: Path, process: int, until: float,
    trace: bool,
) -> dict:
    job = make_job(workload, inputs, scratch, process)
    recorder = None
    if trace:
        import tracer

        recorder = tracer.Recorder(run_id=f"{workload}:{inputs.name}")
    root = "sweep" if workload == "sweep-s5" else "pipeline"
    reference = Reference(reference_copies(workload))
    try:
        result = _calls(job, recorder, root, reference, until)
    finally:
        reference.close()
    if recorder is not None:
        result.update(
            tracer.layer_metrics(
                recorder, result["calls"][0]["wall_s"], job.extra()
            )
        )
        result["spans"] = [span.as_dict() for span in recorder.spans]
    return result


def _calls(job, recorder, root: str, reference: Reference, until: float):
    if recorder is not None:
        import tracer
    calls = []
    call_start = None
    while True:
        job.before()
        gc.collect()
        if call_start is None:
            call_start = time.monotonic()
        reference_before = reference.seconds()
        if recorder is not None:
            tracer.install(recorder)
        begin = time.perf_counter()
        if recorder is None:
            rows = job.call()
        else:
            rows = recorder.call("call", root, job.call)
        wall = time.perf_counter() - begin
        if recorder is not None:
            recorder.restore()
        calls.append({
            "rows": rows, "wall_s": wall,
            "reference_s": (reference_before + reference.seconds()) / 2,
            "problems": job.after(),
        })
        if len(calls) == 1:
            # A CLI run makes one call: its peak RSS is the one reported.
            # Closing reaps the pool workers, so they count as children.
            job.close()
            own_mb, worker_mb = peak_rss_mb()
        if recorder is not None or time.monotonic() >= until:
            break
    job.close()
    return {
        "call_start": call_start,
        "calls": calls,
        "rss_mb": own_mb,
        "worker_rss_mb": worker_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--process", required=True, type=int)
    parser.add_argument("--until", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    args.scratch.mkdir()
    try:
        result = run(
            args.workload, args.inputs, args.scratch, args.process,
            args.until, args.trace,
        )
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
