"""CSV import/export for relations.

Lets examples persist watermarked relations and re-load them for blind
detection in a separate process — the workflow a real rights-holder would
follow (mark, publish, later download the suspect copy and detect).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .decode import RecordFeed, arity_reason, build_chunk_table
from .domain import CategoricalDomain
from .schema import Attribute, Schema
from .table import Table
from .types import AttributeType


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` with a header row of attribute names."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        _write(table, handle)


def dumps_csv(table: Table) -> str:
    """Render ``table`` as a CSV string (round-trips with :func:`loads_csv`)."""
    buffer = io.StringIO()
    _write(table, buffer)
    return buffer.getvalue()


def _write(table: Table, handle) -> None:
    writer = csv.writer(handle)
    writer.writerow(table.schema.names)
    for row in table:
        writer.writerow(row)


def read_csv(
    path: str | Path,
    schema: Schema,
    infer_categorical_domains: bool = True,
    name: str | None = None,
) -> Table:
    """Load ``path`` into a :class:`Table` under ``schema``.

    Cell text is parsed according to each attribute's declared type.  With
    ``infer_categorical_domains`` (the default), categorical domains are
    widened to include every observed value — the blind-detection situation,
    where only the suspect data defines the visible value set.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        return _read(handle, schema, infer_categorical_domains,
                     name or Path(path).stem, str(path))


def loads_csv(
    text: str,
    schema: Schema,
    infer_categorical_domains: bool = True,
    name: str = "relation",
) -> Table:
    """Parse CSV ``text`` into a :class:`Table` (see :func:`read_csv`)."""
    return _read(
        io.StringIO(text), schema, infer_categorical_domains, name, name
    )


def check_header(header, schema: Schema) -> None:
    """Reject a CSV header row that does not spell out ``schema.names``."""
    if tuple(header) != schema.names:
        raise ValueError(
            f"CSV header {tuple(header)} does not match schema {schema.names}"
        )


def parse_row(row: list[str], parsers, arity: int, number: int) -> tuple:
    """Type one CSV record, rejecting arity mismatches loudly.

    The row-at-a-time statement of what :func:`build_chunk_table` does
    column by column (the equivalence tests hold the two together).
    ``zip`` would silently drop surplus cells, so a malformed record — a
    stray delimiter, a half-written line — is reported with its data-row
    ``number`` instead.
    """
    if len(row) != arity:
        raise ValueError(arity_reason(number, len(row), arity))
    return tuple(parse(cell) for parse, cell in zip(parsers, row))


def _read(
    handle, schema: Schema, infer: bool, name: str, origin: str
) -> Table:
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        return Table(schema, (), name=name)
    check_header(header, schema)
    return build_chunk_table(
        schema, RecordFeed(reader, origin), parsers=cell_parsers(schema),
        infer=infer, label=name,
    )


def cell_parsers(schema: Schema) -> list:
    """Per-attribute cell parsers, in schema order.

    The shared typing layer of :func:`build_chunk_table` — one parser
    list built per file, not per row, each parser applied once per
    distinct cell text (per row for the primary key).
    """
    return [_cell_parser(schema.attribute(column)) for column in schema.names]


def _cell_parser(attribute: Attribute):
    """Parser restoring a cell's original Python type from CSV text.

    CSV is untyped, so categorical cells (which may be ints, strings, ...)
    are coerced by matching their text against the declared domain; text
    with no domain match falls back to numeric sniffing.  This keeps
    ``write_csv``/``read_csv`` a faithful round trip — essential for blind
    detection, where a value's *identity* (hence its canonical domain
    index) must survive publication.
    """
    if attribute.atype is not AttributeType.CATEGORICAL:
        # The builtins behind ``AttributeType.parse``, called directly:
        # ``str`` returns its str argument itself.
        return _SCALAR_PARSERS[attribute.atype]
    # First-wins on text collisions: a domain holding both 1 and "1"
    # renders identically, so the coercion is genuinely ambiguous — pin it
    # to the first value in canonical domain order (the same
    # first-encounter-wins rule the engine caches use) instead of leaving
    # it to dict-comprehension overwrite order.
    by_text: dict[str, object] = {}
    for value in (attribute.domain.values if attribute.domain else ()):
        by_text.setdefault(str(value), value)

    def parse(cell: str):
        if cell in by_text:
            return by_text[cell]
        return _sniff(cell)

    return parse


_SCALAR_PARSERS = {
    AttributeType.INTEGER: int,
    AttributeType.REAL: float,
    AttributeType.STRING: str,
}


def _sniff(cell: str):
    """Best-effort type recovery for out-of-domain categorical text."""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def schema_for_csv(
    names: list[str],
    types: list[AttributeType],
    primary_key: str,
    categorical_values: dict[str, list] | None = None,
) -> Schema:
    """Convenience constructor for CSV-backed schemas.

    ``categorical_values`` seeds domains for categorical columns; columns
    without a seed get a placeholder single-value domain that
    :func:`read_csv` will widen on load.
    """
    categorical_values = categorical_values or {}
    attributes = []
    for attr_name, atype in zip(names, types):
        if atype is AttributeType.CATEGORICAL:
            seed = categorical_values.get(attr_name, ["<placeholder>"])
            attributes.append(
                Attribute(attr_name, atype, CategoricalDomain(seed))
            )
        else:
            attributes.append(Attribute(attr_name, atype))
    return Schema(attributes, primary_key=primary_key)
