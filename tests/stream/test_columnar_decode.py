"""The columnar decode rule against a row-at-a-time oracle.

``build_chunk_table`` types each distinct cell text once and validates
each distinct value once.  The oracle below is the rule it replaced,
kept here as the specification: ``parse_row`` per record, the bad-row
policy per record, then ``Table(schema, rows)`` (one validated insert per
row) or ``infer_domains`` over the chunk's rows.  Every observable must
agree — rows with their Python types, the schema with its (inferred)
domain order, every column's codes and uniques, the primary-key index,
the first error with its row number and message, the bad-row count and
the quarantine sidecar's bytes.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MarkKey, Watermark
from repro.core import EmbeddingSpec
from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    DomainError,
    DuplicateKeyError,
    RelationalError,
    Schema,
    Table,
    infer_domains,
    read_csv,
)
from repro.relational.csvio import cell_parsers, parse_row
from repro.stream import (
    BadRowError,
    CSVChunkSink,
    CSVChunkSource,
    NullChunkSink,
    shutdown_stream_pool,
    stream_mark,
    stream_verify,
)
from repro.stream import parallel, pipeline, sources
from repro.stream.sources import PAYLOAD_RAW, ChunkTask

INT_KEY = Schema(
    (
        Attribute("K", AttributeType.INTEGER),
        Attribute(
            "A",
            AttributeType.CATEGORICAL,
            CategoricalDomain([1, 2, "red", "x,y", "two\nlines"]),
        ),
        Attribute("R", AttributeType.REAL),
        Attribute("S", AttributeType.STRING),
    ),
    primary_key="K",
)
#: a categorical primary key: ``"1"``/``"01"``/``"1.0"`` all type to
#: values equal to 1, so they collide as keys
CAT_KEY = Schema(
    (
        Attribute("A", AttributeType.CATEGORICAL, CategoricalDomain([5, 6])),
        Attribute(
            "K", AttributeType.CATEGORICAL, CategoricalDomain([1, 2, 3, "a"])
        ),
    ),
    primary_key="K",
)

#: equal-comparing lookalikes, quoted delimiters and newlines, empty and
#: out-of-domain text, and text the INTEGER/REAL parsers reject
LOOKALIKES = ["1", "01", "1.0", "True", "2", "3"]
CATEGORICAL_TEXT = LOOKALIKES + [
    "red", "x,y", "two\nlines", "", "zz", "-0", "1e0", "5", "6", "a",
]
REAL_TEXT = ["1", "1.5", "-2", "inf", "bad", ""]
STRING_TEXT = ["", "a,b", 'q"uote', "1", "two\nlines"]
KEY_TEXT = LOOKALIKES + [str(n) for n in range(4, 40)] + ["x", ""]


def cell_text(schema: Schema, name: str):
    if name == schema.primary_key:
        return st.sampled_from(KEY_TEXT)
    atype = schema.attribute(name).atype
    if atype is AttributeType.REAL:
        return st.sampled_from(REAL_TEXT)
    if atype is AttributeType.STRING:
        return st.sampled_from(STRING_TEXT)
    return st.sampled_from(CATEGORICAL_TEXT)


@st.composite
def csv_records(draw, schema: Schema):
    """Records of ``schema`` as cell text, some with the wrong arity."""
    count = draw(st.integers(0, 30))
    records = []
    for _ in range(count):
        record = [draw(cell_text(schema, name)) for name in schema.names]
        damage = draw(st.sampled_from(["none"] * 8 + ["short", "long"]))
        if damage == "short":
            record = record[:-1]
        elif damage == "long":
            record = record + ["extra"]
        records.append(record)
    return records


def write_records(path: Path, schema: Schema, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(schema.names)
        writer.writerows(records)


def typed(values) -> list:
    return [(type(value), value) for value in values]


def snapshot(table: Table) -> dict:
    """Everything a consumer of a chunk can observe, types included."""
    schema = table.schema
    return {
        "name": table.name,
        "rows": [typed(row) for row in table],
        "domains": {
            attribute.name: typed(attribute.domain.values)
            for attribute in schema
            if attribute.is_categorical
        },
        "schema": schema,
        "codes": {
            name: (
                table.column_codes(name).codes.tolist(),
                typed(table.column_codes(name).uniques),
            )
            for name in schema.names
        },
        "pk_index": list(table._pk_index.items()),
    }


def oracle(path, schema, chunk_size, infer, policy, sidecar, name):
    """Row-at-a-time reading: ``(snapshots, error, bad_row_count)``."""
    parsers = cell_parsers(schema)
    snapshots, batch = [], []
    bad = 0
    writer = None
    handle = None

    def build(batch, index):
        rows = [row for _, row in batch]
        effective = infer_domains(schema, rows) if infer else schema
        table = Table(effective, name=f"{name}[{index}]")
        for number, row in batch:
            try:
                table.insert(row)
            except RelationalError as exc:
                return None, (type(exc), f"{path}: row {number}: {exc}")
        return snapshot(table), None

    try:
        with open(path, newline="", encoding="utf-8") as source:
            reader = csv.reader(source)
            next(reader)
            for number, record in enumerate(reader, start=1):
                try:
                    row = parse_row(record, parsers, schema.arity, number)
                except ValueError as exc:
                    if policy == "raise":
                        error = BadRowError(path, number, str(exc))
                        return snapshots, (BadRowError, str(error)), bad
                    bad += 1
                    if policy == "quarantine":
                        if writer is None:
                            handle = open(
                                sidecar, "w", newline="", encoding="utf-8"
                            )
                            writer = csv.writer(handle)
                            writer.writerow(["row_number", "error", "fields"])
                        writer.writerow([number, str(exc), *record])
                    continue
                batch.append((number, row))
                if len(batch) == chunk_size:
                    shot, error = build(batch, len(snapshots))
                    if error:
                        return snapshots, error, bad
                    snapshots.append(shot)
                    batch = []
            if batch:
                shot, error = build(batch, len(snapshots))
                if error:
                    return snapshots, error, bad
                snapshots.append(shot)
        return snapshots, None, bad
    finally:
        if handle is not None:
            handle.close()


def columnar(path, schema, chunk_size, infer, policy, sidecar):
    source = CSVChunkSource(
        path, schema, chunk_size=chunk_size, infer_domains=infer,
        on_bad_rows=policy, quarantine_path=sidecar,
    )
    snapshots = []
    try:
        for chunk in source.chunks():
            snapshots.append(snapshot(chunk))
    except (BadRowError, RelationalError) as exc:
        return snapshots, (type(exc), str(exc)), source.bad_row_count
    return snapshots, None, source.bad_row_count


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("schema", [INT_KEY, CAT_KEY], ids=["int-key", "cat-key"])
@pytest.mark.parametrize("policy", ["raise", "skip", "quarantine"])
@pytest.mark.parametrize("infer", [False, True], ids=["declared", "inferred"])
@SETTINGS
@given(data=st.data())
def test_chunks_match_row_at_a_time_oracle(
    tmp_path, schema, policy, infer, data
):
    records = data.draw(csv_records(schema))
    chunk_size = data.draw(st.integers(1, 7))
    path = tmp_path / "input.csv"
    write_records(path, schema, records)
    expected_sidecar = tmp_path / "oracle.quarantine.csv"
    actual_sidecar = tmp_path / "input.quarantine.csv"
    for stale in (expected_sidecar, actual_sidecar):
        stale.unlink(missing_ok=True)

    expected = oracle(
        path, schema, chunk_size, infer, policy, expected_sidecar, "input"
    )
    actual = columnar(path, schema, chunk_size, infer, policy, actual_sidecar)
    assert actual == expected
    if policy == "quarantine" and expected_sidecar.exists():
        assert actual_sidecar.read_bytes() == expected_sidecar.read_bytes()
    else:
        assert not actual_sidecar.exists()


@pytest.mark.parametrize("infer", [False, True], ids=["declared", "inferred"])
@SETTINGS
@given(data=st.data())
def test_parallel_raw_payload_matches_oracle(tmp_path, infer, data):
    """A worker's ``PAYLOAD_RAW`` build is the serial build."""
    records = data.draw(csv_records(INT_KEY))
    path = tmp_path / "input.csv"
    write_records(path, INT_KEY, records)
    chunk_size = max(1, len(records))
    expected = oracle(
        path, INT_KEY, chunk_size, infer, "raise", None, "input"
    )
    with open(path, newline="", encoding="utf-8") as handle:
        raw = list(csv.reader(handle))[1:]
    task = ChunkTask(
        0, PAYLOAD_RAW, raw, len(raw), first_row_number=0, origin=str(path)
    )
    try:
        chunk = parallel._build_chunk(
            task, INT_KEY, "input", str(path), infer, cell_parsers(INT_KEY)
        )
    except (BadRowError, RelationalError) as exc:
        assert ([], (type(exc), str(exc))) == expected[:2]
        return
    if expected[0]:
        assert [snapshot(chunk)] == expected[0]
    else:
        assert len(chunk) == 0
    assert expected[1] is None


@SETTINGS
@given(data=st.data())
def test_read_csv_matches_oracle(tmp_path, data):
    """``read_csv`` is the rule over the whole file (inferred domains,
    malformed records raise ``ValueError``)."""
    records = data.draw(csv_records(INT_KEY))
    path = tmp_path / "input.csv"
    write_records(path, INT_KEY, records)
    chunk_size = max(1, len(records))
    snapshots, error, _ = oracle(
        path, INT_KEY, chunk_size, True, "raise", None, "input"
    )
    try:
        table = read_csv(path, INT_KEY)
    except ValueError as exc:
        assert type(exc) is ValueError
        assert error is not None and error[0] is BadRowError
        assert error[1].endswith(str(exc))
        return
    except RelationalError as exc:
        assert (type(exc), str(exc)) == error
        return
    assert error is None
    shot = snapshot(table)
    if snapshots:
        expected = dict(snapshots[0], name="input")
        assert shot == expected
    else:
        assert shot["rows"] == []


# -- row-numbered schema violations ------------------------------------------

ITEMS = Schema(
    (
        Attribute("Visit_Nbr", AttributeType.INTEGER),
        Attribute(
            "Item_Nbr", AttributeType.CATEGORICAL, CategoricalDomain(range(50))
        ),
    ),
    primary_key="Visit_Nbr",
)


def items_csv(tmp_path, rows) -> Path:
    path = tmp_path / "items.csv"
    write_records(path, ITEMS, rows)
    return path


MARK_SPEC = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 10, 10, 60)
MARK_KEY = MarkKey.from_seed("columnar-decode")
MARK_WM = Watermark.from_int(0x2AB, 10)


class TestRowNumberedViolations:
    @pytest.mark.parametrize("policy", ["raise", "skip", "quarantine"])
    def test_out_of_domain_value_names_file_and_row(self, tmp_path, policy):
        path = items_csv(
            tmp_path, [["1", "3"], ["2", "4"], ["3", "99999"], ["4", "5"]]
        )
        source = CSVChunkSource(
            path, ITEMS, chunk_size=2, on_bad_rows=policy
        )
        with pytest.raises(DomainError) as excinfo:
            list(source.chunks())
        message = str(excinfo.value)
        assert message == (
            f"{path}: row 3: value 99999 is outside the categorical "
            f"domain for attribute 'Item_Nbr'"
        )
        assert excinfo.value.row_number == 3
        assert excinfo.value.value == 99999
        assert source.bad_row_count == 0

    def test_row_number_counts_skipped_records(self, tmp_path):
        path = items_csv(
            tmp_path,
            [["1", "3"], ["2"], ["x", "4"], ["3", "4"], ["4", "77"]],
        )
        source = CSVChunkSource(
            path, ITEMS, chunk_size=8, on_bad_rows="skip"
        )
        with pytest.raises(DomainError, match=r"items\.csv: row 5: value 77"):
            list(source.chunks())
        assert source.bad_row_count == 2

    def test_duplicate_key_names_file_and_row(self, tmp_path):
        path = items_csv(tmp_path, [["01", "3"], ["2", "4"], ["1", "5"]])
        source = CSVChunkSource(path, ITEMS, chunk_size=8, on_bad_rows="skip")
        with pytest.raises(DuplicateKeyError) as excinfo:
            list(source.chunks())
        assert str(excinfo.value) == (
            f"{path}: row 3: duplicate primary key value: 1"
        )
        assert excinfo.value.key == 1

    def test_stream_mark_reports_the_row(self, tmp_path):
        path = items_csv(
            tmp_path, [[str(k), str(k % 50)] for k in range(1, 40)]
            + [["40", "99999"]],
        )
        source = CSVChunkSource(path, ITEMS, chunk_size=16, on_bad_rows="skip")
        with pytest.raises(DomainError, match=r"items\.csv: row 40: value 99999"):
            stream_mark(source, MARK_WM, MARK_KEY, MARK_SPEC, NullChunkSink())

    def test_stream_mark_reports_duplicate_key(self, tmp_path):
        path = items_csv(
            tmp_path, [["01", "3"]] + [[str(k), "4"] for k in range(2, 30)]
            + [["1", "5"]],
        )
        source = CSVChunkSource(path, ITEMS, chunk_size=64)
        with pytest.raises(
            DuplicateKeyError, match=r"items\.csv: row 30: duplicate primary"
        ):
            stream_mark(source, MARK_WM, MARK_KEY, MARK_SPEC, NullChunkSink())

    def test_worker_violation_survives_pickling(self, tmp_path):
        import pickle

        error = DomainError(99999, "Item_Nbr").at("items.csv", 3)
        restored = pickle.loads(pickle.dumps(error))
        assert str(restored) == str(error)
        assert (restored.value, restored.row_number) == (99999, 3)


# -- byte identity with lookalike texts ---------------------------------------

#: sha256 of the marked file below, recorded with the row-at-a-time decode
LOOKALIKE_MARK_SHA256 = (
    "8d324f88335aba8516e47047e820ff3fa079bb16e91c2f1c75d60d3a60880546"
)


@pytest.mark.parametrize("workers", [1, 2])
def test_equal_lookalike_texts_mark_byte_identically(tmp_path, workers):
    """``7`` and ``7.0`` in one categorical column are two texts of equal
    values: they share a code but each row keeps its own text."""
    schema = Schema(
        (
            Attribute("K", AttributeType.INTEGER),
            Attribute(
                "A", AttributeType.CATEGORICAL, CategoricalDomain(range(40))
            ),
        ),
        primary_key="K",
    )
    lines = ["K,A"]
    for k in range(600):
        value = (k * 7919) % 40
        text = f"{value}.0" if value in (1, 7) and k % 3 == 0 else str(value)
        lines.append(f"{k},{text}")
    source_path = tmp_path / "in.csv"
    source_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    try:
        stream_mark(
            CSVChunkSource(source_path, schema, chunk_size=128),
            MARK_WM, MarkKey.from_seed("pin-lookalikes"),
            EmbeddingSpec("K", "A", 10, 10, 60), CSVChunkSink(out),
            workers=workers,
        )
    finally:
        shutdown_stream_pool()
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == LOOKALIKE_MARK_SHA256
    assert data.count(b".0\r\n") == 8


# -- the decode hands the kernels their factorizations -------------------------

class RecordingSource(CSVChunkSource):
    """A CSV source that keeps every chunk it yields."""

    def chunks(self, start=0):
        for chunk in super().chunks(start):
            self.seen.append(chunk)
            yield chunk


@pytest.mark.perf_smoke
def test_stream_chunks_are_born_factorized(tmp_path):
    path = items_csv(
        tmp_path, [[str(k), str((k * 31) % 50)] for k in range(3000)]
    )
    marked = tmp_path / "marked.csv"
    source = RecordingSource(path, ITEMS, chunk_size=1024)
    source.seen = []
    stream_mark(
        source, MARK_WM, MARK_KEY, MARK_SPEC, CSVChunkSink(marked),
        workers=1,
    )
    suspect = RecordingSource(marked, ITEMS, chunk_size=1024)
    suspect.seen = []
    verdict = stream_verify(
        suspect, MARK_KEY, MARK_SPEC, MARK_WM, workers=1
    )
    assert verdict.detected
    chunks = source.seen + suspect.seen
    assert len(chunks) == 6
    for chunk in chunks:
        assert chunk.cache_info()["codes_misses"] == 0
        assert chunk.cache_info()["codes_hits"] > 0
    codes = chunks[0].column_codes("Visit_Nbr").codes
    assert np.array_equal(codes, np.arange(1024))
    for module in (sources, parallel, pipeline):
        assert "parse_row" not in inspect.getsource(module)
