"""Backend bit-identity: VECTOR vs the SCALAR reference.

The vector kernels (column codes + plan arrays + bincount tallies) must
produce exactly the same marked relation, embedding statistics, guard
state, recovered slots and verdicts as the scalar path — for both
Figure 1 variants, §3.3 place-holder keys with duplicates, §4.5
remapping recovery inputs, constrained guards, the frequency channel and
the multi-attribute closure — and on relations of any size, down to
empty ones.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    Watermark,
    Watermarker,
    embed_pairs,
    make_spec,
    verify_pairs,
)
from repro.core.detection import extract_slots
from repro.core.embedding import embed
from repro.core.errors import SpecError
from repro.core.frequency import detect_frequency, embed_frequency
from repro.crypto import (
    BACKENDS,
    SCALAR,
    VECTOR,
    MarkKey,
    clear_engine_registry,
)
from repro.datagen import generate_item_scan
from repro.quality import Constraint, QualityGuard
from repro.relational import (
    Attribute,
    AttributeType,
    CategoricalDomain,
    Schema,
    Table,
)


@pytest.fixture
def key() -> MarkKey:
    return MarkKey.from_seed("vector-equivalence")


@pytest.fixture
def watermark() -> Watermark:
    return Watermark.from_int(0b1011001110, 10)


@pytest.fixture
def relation() -> Table:
    return generate_item_scan(1500, item_count=40, seed=11)


@pytest.fixture
def placeholder_table() -> Table:
    schema = Schema(
        (
            Attribute("K", AttributeType.INTEGER),
            Attribute(
                "A",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"a{i}" for i in range(12)]),
            ),
            Attribute(
                "B",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"b{i}" for i in range(8)]),
            ),
        ),
        primary_key="K",
    )
    rng = random.Random(7)
    rows = [
        (i, f"a{rng.randrange(12)}", f"b{rng.randrange(8)}")
        for i in range(900)
    ]
    return Table(schema, rows, name="placeholder")


def _embed_stats(result):
    return (
        result.fit_count,
        result.applied,
        result.vetoed,
        result.unchanged,
        result.slots_written,
        result.embedding_map,
    )


@pytest.mark.parametrize("variant", ["keyed", "map"])
def test_embed_and_extract_bit_identical(relation, watermark, key, variant):
    spec = make_spec(relation, watermark, "Item_Nbr", e=20, variant=variant)
    tables, stats, slot_sets = [], [], []
    for backend in BACKENDS:
        table = relation.clone()
        result = embed(table, watermark, key, spec, engine=backend)
        kwargs = {"embedding_map": result.embedding_map}
        slot_sets.append(
            extract_slots(table, key, spec, engine=backend, **kwargs)
        )
        tables.append(list(table))
        stats.append(_embed_stats(result))
    assert tables[0] == tables[1]
    assert stats[0] == stats[1]
    assert slot_sets[0] == slot_sets[1]


@pytest.mark.parametrize("variant", ["keyed", "map"])
def test_placeholder_duplicates_bit_identical(
    placeholder_table, watermark, key, variant
):
    """§3.3 place-holder keys: grouped carriers, per-group noops, and the
    batched write-back must agree with the per-cell reference."""
    spec = make_spec(
        placeholder_table, watermark, mark_attribute="B", e=2,
        key_attribute="A", variant=variant,
    )
    tables, stats, guards = [], [], []
    for backend in BACKENDS:
        table = placeholder_table.clone()
        guard = QualityGuard([])
        guard.bind(table)
        result = embed(
            table, watermark, key, spec, guard=guard, engine=backend
        )
        tables.append(list(table))
        stats.append(_embed_stats(result))
        guards.append(guard)
    assert tables[0] == tables[1]
    assert stats[0] == stats[1]
    # The fast-path batched write-back must leave the guard's log, report
    # and incremental statistics exactly as the per-cell path does.
    reference = guards[0]
    for guard in guards[1:]:
        assert guard.log.entries == reference.log.entries
        assert guard.report.applied == reference.report.applied
        assert guard.report.noop == reference.report.noop
        assert guard.context.change_count == reference.context.change_count
        assert guard.context.count_deltas == reference.context.count_deltas


class _VetoEveryThird(Constraint):
    name = "veto-3rd"

    def __init__(self):
        self.proposals = 0

    def violated(self, context):
        self.proposals += 1
        return "every third" if self.proposals % 3 == 0 else None


def test_constrained_guard_vetoes_identically(
    placeholder_table, watermark, key
):
    spec = make_spec(
        placeholder_table, watermark, mark_attribute="B", e=1,
        key_attribute="A", variant="map",
    )
    outcomes = []
    for backend in BACKENDS:
        table = placeholder_table.clone()
        guard = QualityGuard([_VetoEveryThird()])
        guard.bind(table)
        result = embed(
            table, watermark, key, spec, guard=guard, engine=backend
        )
        assert guard.report.vetoed > 0  # the constraint actually fired
        outcomes.append(
            (list(table), _embed_stats(result), guard.log.entries,
             guard.report.vetoed)
        )
    assert outcomes[0] == outcomes[1]


def test_remap_recovery_inputs_identical(placeholder_table, watermark, key):
    """Domain overrides + partial value_mapping (the §4.5 recovery path)
    decode identically, including out-of-domain skips."""
    spec = make_spec(
        placeholder_table, watermark, mark_attribute="B", e=2,
        key_attribute="A", variant="keyed",
    )
    marked = placeholder_table.clone()
    embed(marked, watermark, key, spec, engine=SCALAR)
    forward = {f"b{i}": f"z{i}" for i in range(8)}
    inverse = {f"z{i}": f"b{i}" for i in range(0, 8, 2)}  # partial
    remapped_schema = Schema(
        (
            Attribute("K", AttributeType.INTEGER),
            Attribute(
                "A",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"a{i}" for i in range(12)]),
            ),
            Attribute(
                "B",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"z{i}" for i in range(8)]),
            ),
        ),
        primary_key="K",
    )
    remapped = Table(
        remapped_schema,
        [(k, a, forward[b]) for k, a, b in marked],
        name="remapped",
    )
    domain = CategoricalDomain([f"b{i}" for i in range(8)])
    recovered = [
        extract_slots(
            remapped, key, spec, domain=domain, value_mapping=inverse,
            engine=backend,
        )
        for backend in BACKENDS
    ]
    assert recovered[0] == recovered[1]


def test_watermarker_verdicts_identical(relation, watermark, key):
    verdicts = []
    for backend in BACKENDS:
        clear_engine_registry()
        marker = Watermarker(key, e=25, engine=backend)
        outcome = marker.embed(relation, watermark, "Item_Nbr")
        verdict = marker.verify(outcome.table, outcome.record)
        verdicts.append(
            (
                list(outcome.table),
                verdict.association.matching_bits,
                verdict.association.false_hit_probability,
                verdict.association.detected,
            )
        )
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][3] is True


def test_detection_after_attack_identical(relation, watermark, key):
    from repro.attacks import SubsetAlterationAttack

    spec = make_spec(relation, watermark, "Item_Nbr", e=20)
    marked = relation.clone()
    embed(marked, watermark, key, spec, engine=SCALAR)
    attacked = SubsetAlterationAttack("Item_Nbr", 0.25).apply(
        marked, random.Random(3)
    )
    reference = extract_slots(attacked, key, spec, engine=SCALAR)
    for _ in range(3):  # warm re-detections stay identical
        assert extract_slots(
            attacked, key, spec, engine=VECTOR
        ) == reference


def test_frequency_channel_identical(relation, watermark, key):
    """The bincount-over-codes histogram path (taken when a fresh
    factorization is cached) is bit-identical to the Counter pass."""
    results = []
    for warm_codes in (False, True):
        table = relation.clone()
        if warm_codes:
            table.column_codes("Item_Nbr")  # embed reads counts pre-write
        outcome = embed_frequency(table, watermark, key, "Item_Nbr")
        if warm_codes:
            table.column_codes("Item_Nbr")  # re-factorize post-relabelling
        detected = detect_frequency(table, key, outcome.record)
        results.append(
            (
                list(table),
                outcome.target_counts,
                outcome.relabelled,
                detected.bits,
            )
        )
    assert results[0] == results[1]


def test_multiattribute_identical(relation, watermark, key):
    outcomes = []
    for backend in BACKENDS:
        clear_engine_registry()
        table = relation.clone()
        embedding = embed_pairs(table, watermark, key, e=10, backend=backend)
        verification = verify_pairs(
            table, key, embedding, watermark, backend=backend
        )
        outcomes.append(
            (
                list(table),
                {
                    label: _embed_stats(result)
                    for label, result in embedding.passes.items()
                },
                {
                    label: result.matching_bits
                    for label, result in verification.per_pair.items()
                },
            )
        )
    assert outcomes[0] == outcomes[1]


# -- the backend set ----------------------------------------------------------

def test_backends_are_scalar_and_vector():
    assert BACKENDS == ("scalar", "vector")


@pytest.mark.parametrize("removed", ["engine", "auto"])
def test_removed_backend_names_are_rejected(relation, watermark, key, removed):
    """Names of retired backends fail loudly instead of running a default,
    and the error names the backends that remain."""
    spec = make_spec(relation, watermark, "Item_Nbr", e=20)
    named = r"\('scalar', 'vector'\)"
    table = relation.clone()
    with pytest.raises(ValueError, match=named):
        embed(table, watermark, key, spec, engine=removed)
    assert list(table) == list(relation)
    with pytest.raises(ValueError, match=named):
        extract_slots(relation, key, spec, engine=removed)
    with pytest.raises(SpecError, match=named):
        Watermarker(key, e=20, engine=removed)


# -- the default backend on relations of every size --------------------------

def _small_table(row_count: int, shared_keys: bool = False) -> Table:
    schema = Schema(
        (
            Attribute("K", AttributeType.INTEGER),
            Attribute(
                "A",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"a{i}" for i in range(12)]),
            ),
            Attribute(
                "B",
                AttributeType.CATEGORICAL,
                CategoricalDomain([f"b{i}" for i in range(8)]),
            ),
        ),
        primary_key="K",
    )
    rng = random.Random(row_count)
    rows = [
        (
            i,
            "a1" if shared_keys else f"a{rng.randrange(12)}",
            f"b{rng.randrange(8)}",
        )
        for i in range(row_count)
    ]
    return Table(schema, rows, name=f"small-{row_count}")


SMALL_CASES = {
    # id: (table, make_spec keyword arguments, constrained guard?)
    "empty": (lambda: _small_table(0), {"e": 1}, False),
    "one-row": (lambda: _small_table(1), {"e": 1}, False),
    "two-rows-shared-key": (
        lambda: _small_table(2, shared_keys=True),
        {"e": 1, "key_attribute": "A"},
        False,
    ),
    "all-unfit": (lambda: _small_table(50), {"e": 10**12}, False),
    "map-variant": (
        lambda: _small_table(40), {"e": 2, "variant": "map"}, False
    ),
    "constrained-guard": (lambda: _small_table(200), {"e": 1}, True),
}


@pytest.mark.parametrize("case", sorted(SMALL_CASES))
def test_default_backend_matches_scalar_on_small_relations(
    watermark, key, case
):
    """The default (VECTOR) backend serves every relation size the way
    the SCALAR reference does: marked rows, statistics, guard state and
    recovered slots."""
    build, spec_kwargs, constrained = SMALL_CASES[case]
    base = build()
    spec = make_spec(base, watermark, mark_attribute="B", **spec_kwargs)
    outcomes = []
    for backend in (SCALAR, None):
        clear_engine_registry()
        table = base.clone()
        guard = QualityGuard([_VetoEveryThird()] if constrained else [])
        guard.bind(table)
        result = embed(
            table, watermark, key, spec, guard=guard, engine=backend
        )
        slots = extract_slots(
            table, key, spec, embedding_map=result.embedding_map,
            engine=backend,
        )
        outcomes.append(
            (
                list(table),
                _embed_stats(result),
                guard.log.entries,
                guard.report.vetoed,
                slots,
            )
        )
    assert outcomes[0] == outcomes[1]
    fit_count = outcomes[0][1][0]
    if case == "all-unfit":
        assert fit_count == 0
    elif case == "constrained-guard":
        assert outcomes[0][3] > 0  # the constraint actually fired
    elif case != "empty":
        assert fit_count > 0
