"""The benchmark's own checks: a wrong output must count as a failure,
and the span recorder's split must add up.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from common import points_payload, sha256_file, verdict_payload  # noqa: E402
from reference import Reference  # noqa: E402
from workload import check_detect, check_mark, check_sweep  # noqa: E402

from repro.core import (  # noqa: E402
    EmbeddingSpec,
    Watermark,
    default_channel_length,
)
from repro.core.detection import extract_slot_votes, verify  # noqa: E402
from repro.crypto import SCALAR, MarkKey  # noqa: E402
from repro.datagen import generate_item_scan  # noqa: E402
from repro.relational import loads_csv  # noqa: E402
from repro.stream import (  # noqa: E402
    CSVChunkSource,
    open_sink,
    stream_mark,
    stream_verify,
)

ROWS = 3000
CHUNK = 1000


@pytest.fixture
def marked(tmp_path):
    """A small relation, its SCALAR reference mark and a checkpointed
    default-backend mark of it."""
    table = generate_item_scan(ROWS, 50, seed="perfbench-test")
    data = tmp_path / "data.csv"
    with open(data, "w", encoding="utf-8", newline="") as handle:
        handle.write("Visit_Nbr,Item_Nbr\n")
        handle.writelines(f"{visit},{item}\n" for visit, item in table)
    key = MarkKey.from_seed("perfbench-test")
    watermark = Watermark.random(10, random.Random("perfbench-test"))
    spec = EmbeddingSpec(
        "Visit_Nbr", "Item_Nbr", 10, 10, default_channel_length(ROWS, 10, 10)
    )

    def mark(path, **kwargs):
        return stream_mark(
            CSVChunkSource(data, table.schema, chunk_size=CHUNK),
            watermark, key, spec, open_sink(path), **kwargs,
        )

    reference = tmp_path / "reference.csv.gz"
    mark(reference, backend=SCALAR)
    output = tmp_path / "marked.csv.gz"
    checkpoint = tmp_path / "mark.ckpt"
    result = mark(output, checkpoint_path=checkpoint)
    expected = {
        "rows": ROWS,
        "chunks": ROWS // CHUNK,
        "marked_sha256": sha256_file(reference),
    }
    return {
        "table": table, "key": key, "watermark": watermark, "spec": spec,
        "output": output, "checkpoint": checkpoint, "result": result,
        "expected": expected,
    }


def test_mark_check_accepts_the_reference_bytes(marked):
    assert check_mark(
        marked["output"], marked["checkpoint"], marked["expected"],
        marked["result"].rows,
    ) == []


def test_flipped_output_byte_fails_the_mark_check(marked):
    output = marked["output"]
    data = bytearray(output.read_bytes())
    data[len(data) // 2] ^= 0x01
    output.write_bytes(bytes(data))
    problems = check_mark(
        output, marked["checkpoint"], marked["expected"],
        marked["result"].rows,
    )
    assert any("SCALAR reference" in problem for problem in problems)
    assert any(problem.startswith("audit") for problem in problems)


def _oracle(marked):
    """The in-memory SCALAR verdict on the marked file's rows."""
    with gzip.open(marked["output"], "rt", encoding="utf-8") as handle:
        table = loads_csv(handle.read(), marked["table"].schema)
    domain = marked["table"].schema.attribute("Item_Nbr").domain
    votes = extract_slot_votes(
        table, marked["key"], marked["spec"], None, domain, engine=SCALAR
    )
    verdict = verify(
        table, marked["key"], marked["spec"], marked["watermark"],
        domain=domain, engine=SCALAR,
    )
    return {"rows": ROWS, "oracle": verdict_payload(verdict, votes)}, domain


def _scan(marked, key, domain):
    return stream_verify(
        CSVChunkSource(
            marked["output"], marked["table"].schema, chunk_size=CHUNK,
            infer_domains=True,
        ),
        key, marked["spec"], marked["watermark"], domain=domain,
    )


def test_detect_check_accepts_the_owner_key(marked):
    reference, domain = _oracle(marked)
    assert reference["oracle"]["detected"]
    assert check_detect(_scan(marked, marked["key"], domain), reference) == []


def test_wrong_key_fails_the_detect_check(marked):
    reference, domain = _oracle(marked)
    wrong = MarkKey.from_seed("not-the-owner")
    problems = check_detect(_scan(marked, wrong, domain), reference)
    assert "the owner's mark was not detected" in problems
    assert any("differs from the SCALAR oracle" in p for p in problems)


def _small_sweep():
    from repro.attacks import SubsetAlterationAttack
    from repro.experiments import sweep

    table = generate_item_scan(400, 40, seed="perfbench-test")
    return {
        "fig": sweep(
            table, "Item_Nbr", 10,
            lambda size: SubsetAlterationAttack("Item_Nbr", size, 0.7),
            [0.2, 0.6], passes=3, mode="serial",
        )
    }


def test_perturbed_sweep_point_fails_the_sweep_check():
    series = _small_sweep()
    reference = {"points": points_payload(series)}
    assert check_sweep(series, reference) == []
    point = series["fig"][1]
    point.passes[0] = dataclasses.replace(
        point.passes[0], mark_alteration=point.passes[0].mark_alteration + 0.1
    )
    assert check_sweep(series, reference) != []


def test_self_times_add_up_to_the_wall_time():
    recorder = tracer.Recorder("test")

    def leaf():
        time.sleep(0.01)

    def middle():
        recorder.call("leaf", "crypto", leaf)
        time.sleep(0.01)

    begin = time.perf_counter()
    recorder.call("root", "pipeline", middle)
    wall = time.perf_counter() - begin
    _, by_layer = recorder.self_seconds()
    assert by_layer["crypto"] >= 0.01
    assert sum(by_layer.values()) == pytest.approx(recorder.root_seconds())
    assert recorder.root_seconds() <= wall
    parents = {span.name: span.parent for span in recorder.spans}
    ids = {span.name: span.id for span in recorder.spans}
    assert parents == {"leaf": ids["root"], "root": None}


def test_install_and_restore_leave_the_program_untouched():
    from repro.stream import pipeline, sources

    before = (
        pipeline.save_checkpoint, sources.CSVChunkSource.chunks,
        vars(sources.CSVChunkSource).get("payloads"),
    )
    recorder = tracer.Recorder("test")
    try:
        tracer.install(recorder)
        assert pipeline.save_checkpoint is not before[0]
    finally:
        recorder.restore()
    after = (
        pipeline.save_checkpoint, sources.CSVChunkSource.chunks,
        vars(sources.CSVChunkSource).get("payloads"),
    )
    assert after == before


def test_reference_helpers_time_the_job_and_stop():
    reference = Reference(copies=2)
    try:
        assert reference.seconds() > 0
        helpers = list(reference.helpers)
        assert len(helpers) == 1
    finally:
        reference.close()
    assert [helper.returncode for helper in helpers] == [0]
    assert reference.helpers is None


def test_benchmark_json_lists_every_layer_metric():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [metric["name"] for metric in benchmark["per_layer"]]
    reported = tracer.layer_metrics(tracer.Recorder("test"), 1.0, {})
    assert sorted(listed) == sorted(reported["metrics"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mark-gz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
