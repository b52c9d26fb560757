"""Workload constants and the loaders shared by the input builder and
the workload process.

Importing this module imports nothing from ``repro``: the workload
process times its own imports as set-up, so each ``repro`` import
happens inside the function that needs it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: the CLI default chunk size (``repro.stream.DEFAULT_CHUNK_SIZE``)
CHUNK_ROWS = 65_536
#: rows of the mark/detect relation: two full chunks, so every chunk
#: runs the vector kernels and a pooled scan gives each worker one
STREAM_ROWS = 2 * CHUNK_ROWS
ITEMS = 500
ZIPF = 1.05
E = 60
WATERMARK_BITS = 10
#: the suspect: share of rows Mallory alters, and the chance an altered
#: carrier loses its bit (the paper's working estimate)
ATTACK_SHARE = 0.2
FLIP_PROBABILITY = 0.7

#: base relations (data seeds) of the §5 sweep per benchmark seed; each
#: sweep-s5 process reads one of them, as one `repro-wm figure` run does
SWEEP_TABLES = 3

WORKLOADS = ("mark-gz", "detect-gz", "detect-gz-par", "sweep-s5")

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"


def fingerprint() -> str:
    """A hash of the code the inputs and references are built by: this
    module, the input builder and every ``repro`` source file."""
    digest = hashlib.sha256()
    here = ROOT / "perfbench"
    files = [here / "common.py", here / "prepare.py"]
    files += sorted((ROOT / "src" / "repro").rglob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def seed_dir(seed: int) -> Path:
    """Where the inputs and references of ``seed`` are cached.  The
    directory is named after the code's fingerprint, so a checkout whose
    program or input builder changed never reuses another version's
    references."""
    return WORK / f"{fingerprint()}-seed-{seed}"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def sweep_table_path(directory: Path, index: int) -> Path:
    return directory / f"sweep-{index}.csv"


def load_owner_inputs(directory: Path):
    """``(schema, key, record)``, loaded the way the CLI loads them."""
    from repro.core import MarkRecord
    from repro.crypto import MarkKey
    from repro.relational import schema_from_json

    schema = schema_from_json(
        (directory / "schema.json").read_text(encoding="utf-8")
    )
    key = MarkKey.from_dict(read_json(directory / "key.json"))
    record = MarkRecord.from_json(
        (directory / "record.json").read_text(encoding="utf-8")
    )
    return schema, key, record


def verdict_payload(verdict, votes) -> dict:
    """The parts of a verification the benchmark compares exactly:
    verdict, decoded bits, matching bits, false-hit probability and the
    per-slot vote tallies."""
    return {
        "detected": verdict.detected,
        "decoded": verdict.detection.watermark.to_bitstring(),
        "matching_bits": verdict.matching_bits,
        "false_hit_probability": verdict.false_hit_probability,
        "fit_count": votes.fit_count,
        "total": list(votes.total),
        "ones": list(votes.ones),
        "first": list(votes.first),
    }


def run_s5(table, mode):
    """Figures 4 and 7 of §5 on ``table``, run by ``figure4_series`` and
    ``figure7_series`` with their default settings; only the base
    relation is given, read from CSV as `repro-wm sweep` reads one.
    Returns ``{series name: points}``."""
    from dataclasses import dataclass, field

    from repro.experiments.figures import (
        FigureConfig,
        figure4_series,
        figure7_series,
    )

    @dataclass(frozen=True)
    class TableConfig(FigureConfig):
        table: object = field(default=None, compare=False, repr=False)

        def base_table(self):
            return self.table

    config = TableConfig(table=table)
    series = {
        f"fig4-e{e}": points
        for e, points in figure4_series(config, mode=mode).items()
    }
    series["fig7"] = figure7_series(config, mode=mode)
    return series


def points_payload(series) -> dict:
    """The per-point numbers Figures 4 and 7 plot."""
    return {
        name: [
            {
                "x": point.x,
                "detection_rate": point.detection_rate,
                "mean_alteration": point.mean_alteration,
            }
            for point in points
        ]
        for name, points in series.items()
    }
