"""Seeded inputs and reference results for the benchmark workloads.

Everything here runs before any timing and is cached per seed, so
repeated runs on one seed pay it once.
The same seed always yields byte-identical inputs: every random choice
is drawn from a ``random.Random`` labelled with the seed.

Three input groups:

* ``mark``   — the ItemScan relation as plain CSV, and the sha256 of the
  marked gzip file the SCALAR (row-at-a-time reference) backend writes;
* ``detect`` — the suspect: the reference-marked relation after a 20 %
  ``SubsetAlterationAttack`` (p = 0.7) and a row shuffle, as gzip CSV,
  plus the in-memory SCALAR ``verify`` oracle (verdict, per-slot votes,
  matching bits);
* ``sweep``  — ``SWEEP_TABLES`` base relations of the §5 size as CSV,
  plus the ``mode="serial"`` sweep points for each.

A seed's directory, ``perfbench/.work/<fingerprint>-seed-<n>/``, is
named after the fingerprint of the code that builds it
(``common.fingerprint``), so inputs and references are rebuilt whenever
``repro`` or the input builder changes.

Every group shares the owner's files: ``schema.json``, ``key.json`` and
the mark record ``record.json``.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro.attacks import DataLossAttack, SubsetAlterationAttack  # noqa: E402
from repro.core import (  # noqa: E402
    EmbeddingSpec,
    MarkRecord,
    Watermark,
    default_channel_length,
)
from repro.core.detection import extract_slot_votes, verify  # noqa: E402
from repro.crypto import SCALAR, MarkKey  # noqa: E402
from repro.datagen import (  # noqa: E402
    generate_item_scan,
    item_catalogue,
    item_scan_schema,
    iter_item_scan_rows,
)
from repro.experiments import MODE_SERIAL, reset_sweep_engine  # noqa: E402
from repro.experiments.figures import FigureConfig  # noqa: E402
from repro.relational import (  # noqa: E402
    CategoricalDomain,
    loads_csv,
    read_csv,
    schema_to_json,
)
from repro.stream import open_sink, open_sources, stream_mark  # noqa: E402

from common import (  # noqa: E402
    ATTACK_SHARE,
    CHUNK_ROWS,
    E,
    FLIP_PROBABILITY,
    ITEMS,
    STREAM_ROWS,
    SWEEP_TABLES,
    WATERMARK_BITS,
    WORK,
    WORKLOADS,
    ZIPF,
    load_owner_inputs,
    points_payload,
    run_s5,
    seed_dir,
    sha256_file,
    sweep_table_path,
    verdict_payload,
)

#: seed directories kept in the cache (about 7 MB each); older ones
#: are removed
KEEP_SEEDS = 24


def ensure(workload: str, seed: int) -> Path:
    """The seed's input directory, holding what ``workload`` reads."""
    directory = seed_dir(seed)
    directory.mkdir(parents=True, exist_ok=True)
    os.utime(directory)
    _evict(directory)
    _ensure_group(directory, "owner", _prepare_owner, seed)
    if workload == "sweep-s5":
        _ensure_group(directory, "sweep", _prepare_sweep, seed)
    else:
        _ensure_group(directory, "mark", _prepare_mark, seed)
        if workload.startswith("detect"):
            _ensure_group(directory, "detect", _prepare_detect, seed)
    return directory


def _evict(keep: Path) -> None:
    seeds = sorted(
        (path for path in WORK.glob("*-seed-*") if path != keep),
        key=lambda path: path.stat().st_mtime,
    )
    for path in seeds[: max(0, len(seeds) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(path, ignore_errors=True)


def _ensure_group(directory: Path, group: str, build, seed: int) -> None:
    """Build ``group`` unless its manifest exists; the manifest is
    written last, so a half-built group is rebuilt."""
    manifest = directory / f"{group}.json"
    if manifest.exists():
        return
    _write_json(manifest, build(directory, seed))


def _write_json(path: Path, payload) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _write_rows(path: Path, names, rows, compress: bool = False) -> None:
    opener = gzip.open if compress else open
    with opener(path, "wt", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(rows)


def _prepare_owner(directory: Path, seed: int) -> dict:
    schema = item_scan_schema(item_catalogue(ITEMS))
    (directory / "schema.json").write_text(
        schema_to_json(schema), encoding="utf-8"
    )
    _write_json(
        directory / "key.json",
        MarkKey.from_seed(f"perfbench-key:{seed}").to_dict(),
    )
    spec = EmbeddingSpec(
        key_attribute=schema.primary_key,
        mark_attribute="Item_Nbr",
        e=E,
        watermark_length=WATERMARK_BITS,
        channel_length=default_channel_length(STREAM_ROWS, E, WATERMARK_BITS),
    )
    record = MarkRecord(
        watermark=Watermark.random(
            WATERMARK_BITS, random.Random(f"perfbench-wm:{seed}")
        ),
        spec=spec,
        domain_values=schema.attribute("Item_Nbr").domain.values,
    )
    (directory / "record.json").write_text(
        record.to_json() + "\n", encoding="utf-8"
    )
    return {"seed": seed}


def _prepare_mark(directory: Path, seed: int) -> dict:
    schema, key, record = load_owner_inputs(directory)
    data = directory / "itemscan.csv"
    _write_rows(
        data, schema.names,
        iter_item_scan_rows(
            STREAM_ROWS, ITEMS, ZIPF, seed=f"perfbench:{seed}"
        ),
    )
    reference = directory / "reference-marked.csv.gz"
    result = stream_mark(
        open_sources([data], schema, chunk_size=CHUNK_ROWS),
        record.watermark,
        key,
        record.spec,
        open_sink(reference),
        backend=SCALAR,
    )
    return {
        "rows": result.rows,
        "chunks": result.chunks,
        "marked_sha256": sha256_file(reference),
    }


def _read_gzip_table(path: Path, schema, name: str):
    with gzip.open(path, "rt", encoding="utf-8", newline="") as handle:
        return loads_csv(handle.read(), schema, name=name)


def _prepare_detect(directory: Path, seed: int) -> dict:
    schema, key, record = load_owner_inputs(directory)
    marked = _read_gzip_table(
        directory / "reference-marked.csv.gz", schema, "marked"
    )
    attacked = SubsetAlterationAttack(
        "Item_Nbr", ATTACK_SHARE, FLIP_PROBABILITY
    ).apply(marked, random.Random(f"perfbench-attack:{seed}"))
    rows = list(attacked)
    random.Random(f"perfbench-shuffle:{seed}").shuffle(rows)
    suspect = directory / "suspect.csv.gz"
    _write_rows(suspect, schema.names, rows, compress=True)
    # The oracle reads the suspect back from disk, so it judges exactly
    # the bytes the timed scan reads.
    table = _read_gzip_table(suspect, schema, "suspect")
    domain = CategoricalDomain(record.domain_values)
    votes = extract_slot_votes(
        table, key, record.spec, record.embedding_map, domain, engine=SCALAR
    )
    verdict = verify(
        table, key, record.spec, record.watermark,
        embedding_map=record.embedding_map, domain=domain, engine=SCALAR,
    )
    return {"rows": len(table), "oracle": verdict_payload(verdict, votes)}


def s5_rows(table, series) -> int:
    """Rows carried through one §5 run on ``table``: over every point of
    every series, its passes times the rows of its attacked cell.
    Alteration keeps every row; data loss keeps what ``DataLossAttack``
    leaves, a count that depends on the loss alone."""
    rows = 0
    for name, points in series.items():
        for point in points:
            cell = table
            if name == "fig7":
                cell = DataLossAttack(point.x).apply(table, random.Random(0))
            rows += len(point.passes) * len(cell)
    return rows


def _prepare_sweep(directory: Path, seed: int) -> dict:
    schema, _, _ = load_owner_inputs(directory)
    config = FigureConfig()
    tables = []
    for index in range(SWEEP_TABLES):
        path = sweep_table_path(directory, index)
        _write_rows(
            path, schema.names,
            generate_item_scan(
                config.tuple_count, config.item_count,
                seed=f"perfbench-s5:{seed}:{index}",
            ),
        )
        table = read_csv(path, schema)
        reset_sweep_engine()
        series = run_s5(table, MODE_SERIAL)
        tables.append({
            "rows": s5_rows(table, series),
            "points": points_payload(series),
        })
    reset_sweep_engine()
    return {"tables": tables}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    ensure(args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
