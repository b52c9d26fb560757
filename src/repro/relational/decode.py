"""Columnar record decode: the one rule that turns raw records into a Table.

Every text source — a CSV file read whole
(:func:`~repro.relational.read_csv`) or chunk by chunk, a parallel worker's
raw payload, a SQLite cursor — builds its relation through
:func:`build_chunk_table`.  The rule walks the records
once and works per *column* and per *distinct cell*, never per cell:

* arity is checked per record;
* the primary-key column is typed per row (its values are unique, so every
  cell is its own distinct value);
* every other column maps each distinct cell text to its typed value the
  first time the text is seen, with the schema's cell parsers — so a
  categorical column of 65,536 rows over 500 items types 500 texts;
* each distinct typed value is validated once against the declared (or
  inferred) schema, and key uniqueness is checked by the primary-key index
  the table needs anyway;
* the table is born with every column's factorization
  (:class:`~repro.relational.table.ColumnCodes`) and column view cached, so
  the kernels never re-factorize a freshly read chunk.

Rows are gathered from each text's *own* typed value; only the codes merge
values that compare equal.  ``"1"`` and ``"1.0"`` in one categorical column
stay an ``int`` and a ``float`` in the rows (so a sink writes them back as
they were read) while sharing one code, exactly as a row-at-a-time scan
followed by :meth:`Table.column_codes` would have it.

Errors keep the row-at-a-time order: within one chunk every malformed
record (wrong arity, a cell its parser rejects) is reported first, in file
order, through the feed's ``on_bad_row`` hook; a schema violation or a
duplicate key then raises for the first offending surviving row, with the
origin and the 1-based data-row number in its message.
"""

from __future__ import annotations

import gc
import sys
from collections.abc import Callable, Iterator, Sequence
from itertools import islice
from typing import Any

import numpy as np

from .errors import DuplicateKeyError, RelationalError
from .schema import Schema, widen_domains
from .table import ColumnCodes, Table

#: records decoded per columnar step: large enough to amortize the
#: per-step overhead, small enough that only this many raw records are
#: alive at once (a chunk's raw text is never held whole)
BATCH_RECORDS = 4096


def arity_reason(number: int, length: int, arity: int) -> str:
    """The message of a record with the wrong number of fields."""
    return f"CSV row {number} has {length} fields, schema has {arity}"


class RecordFeed:
    """Raw records of one input, numbered as its 1-based data rows.

    ``records`` yields field sequences in file order (CSV field lists,
    SQLite row tuples); ``number`` is the data-row number of the last
    record taken, so a feed that starts mid-file (a resume fast-forward, a
    parallel payload) starts from the preceding row's number.
    ``on_bad_row(number, record, reason)`` decides the fate of a malformed
    record: raise, or count it and return to drop it.  Without a hook a
    malformed record raises ``ValueError(reason)``.
    """

    __slots__ = ("records", "origin", "number", "on_bad_row")

    def __init__(
        self,
        records: Iterator[Sequence[Any]],
        origin: str,
        number: int = 0,
        on_bad_row: Callable[[int, Sequence[Any], str], None] | None = None,
    ):
        self.records = records
        self.origin = origin
        self.number = number
        self.on_bad_row = on_bad_row

    def reject(self, number: int, record: Sequence[Any], reason: str) -> None:
        if self.on_bad_row is None:
            raise ValueError(reason)
        self.on_bad_row(number, record, reason)


class _ColumnTyper:
    """Per-chunk typing state: one text -> value memo per non-key column
    and the parser's message for each text it rejected."""

    def __init__(self, schema: Schema, parsers: list | None):
        self.arity = schema.arity
        self.key_at = schema.position(schema.primary_key)
        self.parsers = parsers
        self.memos: list[dict | None] = [
            None if parsers is None or position == self.key_at else {}
            for position in range(self.arity)
        ]
        self.rejected: list[dict[Any, str]] = [{} for _ in range(self.arity)]

    def columns(self, batch: list) -> list | None:
        """The typed columns of ``batch``, or ``None`` when some record
        in it is malformed (the caller then sorts the batch record by
        record with :meth:`reason`)."""
        arity = self.arity
        if batch and set(map(len, batch)) != {arity}:
            return None
        cells = list(zip(*batch)) if batch else [()] * arity
        parsers = self.parsers
        if parsers is None:
            return cells
        out = []
        for position, texts in enumerate(cells):
            parse = parsers[position]
            memo = self.memos[position]
            if memo is None:
                try:
                    out.append(list(map(parse, texts)))
                except ValueError:
                    return None
                continue
            rejected = self.rejected[position]
            for text in set(texts).difference(memo):
                if text in rejected:
                    return None
                try:
                    memo[text] = parse(text)
                except ValueError as exc:
                    rejected[text] = str(exc)
                    return None
            out.append(list(map(memo.__getitem__, texts)))
        return out

    def reason(self, number: int, record: Sequence[Any]) -> str | None:
        """Why ``record`` cannot be typed — the first failing check in
        the order a row-at-a-time parse makes them — or ``None``."""
        if len(record) != self.arity:
            return arity_reason(number, len(record), self.arity)
        if self.parsers is None:
            return None
        for position, text in enumerate(record):
            memo = self.memos[position]
            if memo is not None and text in memo:
                continue
            rejected = self.rejected[position]
            if text in rejected:
                return rejected[text]
            try:
                value = self.parsers[position](text)
            except ValueError as exc:
                rejected[text] = str(exc)
                return str(exc)
            if memo is not None:
                memo[text] = value
        return None


def build_chunk_table(
    schema: Schema,
    feed: RecordFeed,
    limit: int | None = None,
    *,
    parsers: list | None = None,
    infer: bool = False,
    label: str = "relation",
) -> Table:
    """Decode up to ``limit`` surviving records of ``feed`` into a Table.

    ``parsers`` are the per-column cell parsers
    (:func:`~repro.relational.csvio.cell_parsers`); ``None`` means the
    cells are already typed (SQLite) and are validated as they are.
    ``infer`` widens every categorical domain over the values read (the
    suspect-data regime); otherwise values must lie in the declared
    domains; ``label`` names the table.  Malformed records go to
    ``feed.on_bad_row`` and do not count toward ``limit``; an empty table
    means the feed is exhausted.

    The cyclic garbage collector is paused meanwhile: decoding only
    allocates (row lists, typed values), and a collection pass every few
    hundred row lists would otherwise cost about as much as the decode.
    """
    if not gc.isenabled():
        return _build(schema, feed, limit, parsers, infer, label)
    gc.disable()
    try:
        return _build(schema, feed, limit, parsers, infer, label)
    finally:
        gc.enable()


def _build(schema, feed, limit, parsers, infer, label) -> Table:
    typer = _ColumnTyper(schema, parsers)
    key_at = typer.key_at
    columns: list[list] = [[] for _ in range(schema.arity)]
    first = feed.number
    dropped: list[int] = []
    want = sys.maxsize if limit is None else limit
    taken = 0
    records = feed.records
    while taken < want:
        batch = list(islice(records, min(BATCH_RECORDS, want - taken)))
        if not batch:
            break
        base = feed.number
        feed.number += len(batch)
        parts = typer.columns(batch)
        if parts is None:
            good = []
            for offset, record in enumerate(batch, start=1):
                reason = typer.reason(base + offset, record)
                if reason is None:
                    good.append(record)
                else:
                    dropped.append(base + offset)
                    feed.reject(base + offset, record, reason)
            batch = good
            parts = typer.columns(batch)
        for column, part in zip(columns, parts):
            column.extend(part)
        taken += len(batch)

    keys = columns[key_at]
    count = len(keys)
    distinct = [
        keys if position == key_at else list(dict.fromkeys(column))
        for position, column in enumerate(columns)
    ]
    effective = schema
    if infer:
        effective = widen_domains(schema, {
            attribute.name: distinct[position]
            for position, attribute in enumerate(schema)
            if attribute.is_categorical
        })
    index = dict(zip(keys, range(count)))
    valid = _distinct_valid(effective, columns, distinct)
    if len(index) != count or not valid:
        offset, exc = _first_violation(effective, columns, key_at)
        raise exc.at(feed.origin, _row_number(first, offset, dropped))

    cached = {}
    for position, attribute in enumerate(effective):
        column = columns[position]
        if position == key_at:
            codes = np.arange(count, dtype=np.int32)
        else:
            lookup = dict(zip(distinct[position], range(count)))
            codes = np.fromiter(
                map(lookup.__getitem__, column), dtype=np.int32, count=count
            )
        codes.setflags(write=False)
        cached[attribute.name] = (
            column, ColumnCodes(codes, distinct[position])
        )
    rows = list(map(list, zip(*columns))) if count else []
    return Table._adopt(effective, rows, index, label, cached)


def _distinct_valid(schema: Schema, columns, distinct) -> bool:
    """Does every distinct value pass its attribute's validation?

    Categorical validity is domain membership, a property of the value;
    every other type's is a property of the value's Python type, so one
    value of each type found in the column stands for all of them.
    """
    for position, attribute in enumerate(schema):
        if attribute.is_categorical:
            probes = distinct[position]
        else:
            column = columns[position]
            probes = dict(zip(map(type, column), column)).values()
        try:
            for value in probes:
                attribute.validate(value)
        except RelationalError:
            return False
    return True


def _first_violation(
    schema: Schema, columns, key_at: int
) -> tuple[int, RelationalError]:
    """The first surviving row a row-at-a-time insert would reject."""
    seen: set = set()
    for offset, row in enumerate(zip(*columns)):
        try:
            schema.validate_row(row)
        except RelationalError as exc:
            return offset, exc
        key = row[key_at]
        if key in seen:
            return offset, DuplicateKeyError(key)
        seen.add(key)
    raise AssertionError("no violating row found")


def _row_number(first: int, offset: int, dropped: list[int]) -> int:
    """Data-row number of the ``offset``-th surviving row of a chunk whose
    first record follows row ``first`` and whose malformed records had the
    (ascending) numbers ``dropped``."""
    number = first + offset + 1
    for skipped in dropped:
        if skipped > number:
            break
        number += 1
    return number
