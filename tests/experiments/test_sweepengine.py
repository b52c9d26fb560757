"""Tests for repro.experiments.sweepengine — mode equivalence, caching,
pool lifecycle.

The load-bearing property is the determinism contract: serial
(re-embed-per-cell), hoisted (embed-once-per-seed) and pooled (worker
processes) execution must produce bit-identical ``PassResult`` lists, so
the engine is free to pick the fastest path without changing the science.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.attacks import Attack, DataLossAttack, SubsetAlterationAttack
from repro.core import Watermark, Watermarker
from repro.crypto import MarkKey
from repro.datagen import generate_item_scan
from repro.experiments import (
    MODE_HOISTED,
    MODE_POOLED,
    MODE_SERIAL,
    SweepEngine,
    SweepProtocol,
    run_attack_experiment,
    shutdown_sweep_pool,
    sweep,
)
from repro.experiments import sweepengine


@pytest.fixture(scope="module")
def base_table():
    return generate_item_scan(1200, item_count=80, seed=13)


@pytest.fixture(autouse=True)
def _pool_cleanup():
    yield
    shutdown_sweep_pool()


PROTOCOL = SweepProtocol(mark_attribute="Item_Nbr", e=40)
XS = (0.2, 0.5)
SEEDS = range(3)


def _attacks():
    return [(x, SubsetAlterationAttack("Item_Nbr", x, 0.7)) for x in XS]


def _flatten(points):
    return [(point.x, result) for point in points for result in point.passes]


class TestModeEquivalence:
    def test_serial_hoisted_pooled_bit_identical(self, base_table):
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base_table, PROTOCOL, _attacks(), SEEDS
        )
        hoisted = SweepEngine(mode=MODE_HOISTED).run(
            base_table, PROTOCOL, _attacks(), SEEDS
        )
        pooled_one = SweepEngine(mode=MODE_POOLED, max_workers=1).run(
            base_table, PROTOCOL, _attacks(), SEEDS
        )
        pooled_two = SweepEngine(mode=MODE_POOLED, max_workers=2).run(
            base_table, PROTOCOL, _attacks(), SEEDS
        )
        assert (
            _flatten(serial)
            == _flatten(hoisted)
            == _flatten(pooled_one)
            == _flatten(pooled_two)
        )

    def test_equivalence_under_data_loss_attack(self, base_table):
        attacks = [(x, DataLossAttack(x)) for x in (0.3, 0.6)]
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base_table, PROTOCOL, attacks, SEEDS
        )
        pooled = SweepEngine(mode=MODE_POOLED, max_workers=1).run(
            base_table, PROTOCOL, attacks, SEEDS
        )
        assert _flatten(serial) == _flatten(pooled)

    def test_unpicklable_attack_falls_back_to_hoisted(self, base_table):
        class ClosureAttack(Attack):
            """Carries a lambda, so it cannot cross a process boundary."""

            name = "closure"

            def __init__(self):
                self.pick = lambda rng: DataLossAttack(0.4)

            def apply(self, table, rng):
                return self.pick(rng).apply(table, rng)

        attacks = [(0.4, ClosureAttack())]
        pooled = SweepEngine(mode=MODE_POOLED, max_workers=1).run(
            base_table, PROTOCOL, attacks, SEEDS
        )
        serial = SweepEngine(mode=MODE_SERIAL).run(
            base_table, PROTOCOL, attacks, SEEDS
        )
        assert _flatten(pooled) == _flatten(serial)

    def test_pool_fallback_is_logged_and_counted(self, base_table, caplog):
        class ClosureAttack(Attack):
            name = "closure"

            def __init__(self):
                self.pick = lambda rng: DataLossAttack(0.4)

            def apply(self, table, rng):
                return self.pick(rng).apply(table, rng)

        engine = SweepEngine(mode=MODE_POOLED, max_workers=1)
        with caplog.at_level("WARNING", logger="repro.experiments.sweepengine"):
            engine.run(base_table, PROTOCOL, [(0.4, ClosureAttack())], SEEDS)
        # the degradation is visible, not silent: a warning naming the
        # cause plus a counter in both telemetry surfaces
        assert any("falling back" in record.message for record in caplog.records)
        assert engine.reliability_report().pool_fallbacks == 1
        assert engine.cache_info()["pool_fallbacks"] == 1

    def test_cache_info_exposes_reliability_counters(self, base_table):
        engine = SweepEngine(mode=MODE_SERIAL)
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        info = engine.cache_info()
        for field in (
            "passes_cached", "embeds_performed", "cells_executed",
            "cell_retries", "pool_respawns", "pool_fallbacks",
        ):
            assert field in info
        assert info["pool_fallbacks"] == 0
        assert info["cells_executed"] == len(XS) * len(list(SEEDS))


class TestEmbedHoisting:
    def test_one_embed_per_seed_across_points(self, base_table):
        engine = SweepEngine(mode=MODE_HOISTED)
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        assert engine.embeds_performed == len(list(SEEDS))

    def test_second_sweep_reuses_embedded_passes(self, base_table):
        engine = SweepEngine(mode=MODE_HOISTED)
        first = engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        after_first = engine.embeds_performed
        second = engine.run(
            base_table,
            PROTOCOL,
            [(0.7, SubsetAlterationAttack("Item_Nbr", 0.7, 0.7))],
            SEEDS,
        )
        assert engine.embeds_performed == after_first
        assert _flatten(first) != _flatten(second)  # different cells, and
        # the reused passes still answer them
        assert all(result.fit_count > 0 for _, result in _flatten(second))

    def test_serial_mode_re_embeds_every_cell(self, base_table):
        engine = SweepEngine(mode=MODE_SERIAL)
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        assert engine.embeds_performed == len(XS) * len(list(SEEDS))

    def test_changed_table_is_not_conflated(self, base_table):
        engine = SweepEngine(mode=MODE_HOISTED)
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        other = generate_item_scan(1200, item_count=80, seed=14)
        before = engine.embeds_performed
        engine.run(other, PROTOCOL, _attacks(), SEEDS)
        assert engine.embeds_performed == before + len(list(SEEDS))


def _sleep_task(table, seconds):
    """A pooled table task that outlives any short batch timeout."""
    time.sleep(seconds)
    return len(table)


class TestPersistentPool:
    def test_pool_survives_across_runs(self, base_table):
        engine = SweepEngine(mode=MODE_POOLED, max_workers=1)
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        first_pool = sweepengine._POOL.executor
        assert first_pool is not None
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        assert sweepengine._POOL.executor is first_pool

    def test_new_table_retires_the_pool(self, base_table):
        engine = SweepEngine(mode=MODE_POOLED, max_workers=1)
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        first_pool = sweepengine._POOL.executor
        other = generate_item_scan(1000, item_count=80, seed=15)
        engine.run(other, PROTOCOL, _attacks(), SEEDS)
        assert sweepengine._POOL.executor is not first_pool

    def test_shutdown_clears_state(self, base_table):
        engine = SweepEngine(mode=MODE_POOLED, max_workers=1)
        engine.run(base_table, PROTOCOL, _attacks(), SEEDS)
        shutdown_sweep_pool()
        assert sweepengine._POOL.executor is None
        assert sweepengine._POOL.heartbeat_dir is None

    def test_table_tasks_time_out_and_retire_the_pool(
        self, base_table, monkeypatch
    ):
        # The batch ceiling is read at call time; a hung task trips it
        # promptly, its worker is killed and the pool retired.
        monkeypatch.setattr(sweepengine, "DEFAULT_TASK_TIMEOUT", 0.5)
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            sweepengine.pool_table_tasks(
                base_table, _sleep_task, [(30.0,)], max_workers=1
            )
        assert time.monotonic() - started < 10.0
        assert sweepengine._POOL.executor is None


class TestRunnerCompatibility:
    """The public runner API must keep the historical per-pass protocol."""

    def test_run_attack_experiment_matches_pre_engine_runner(self, base_table):
        attack = SubsetAlterationAttack("Item_Nbr", 0.4, 0.7)
        results = run_attack_experiment(
            base_table, "Item_Nbr", 40, attack, passes=3
        )

        # The pre-sweep-engine runner, inlined: fresh key + watermark +
        # marker per pass, attack rng seeded f"attack:{seed}".
        expected = []
        for seed in range(3):
            key = MarkKey.from_seed(seed)
            watermark = Watermark.random(10, random.Random(f"wm:{seed}"))
            marker = Watermarker(key, e=40)
            outcome = marker.embed(base_table, watermark, "Item_Nbr")
            attacked = attack.apply(
                outcome.table, random.Random(f"attack:{seed}")
            )
            verdict = marker.verify(attacked, outcome.record)
            association = verdict.association
            expected.append(
                (
                    seed,
                    association.mark_alteration,
                    association.detected,
                    association.false_hit_probability,
                    association.detection.fit_count,
                    association.detection.slots_recovered,
                )
            )
        assert [
            (
                r.seed,
                r.mark_alteration,
                r.detected,
                r.false_hit_probability,
                r.fit_count,
                r.slots_recovered,
            )
            for r in results
        ] == expected

    def test_sweep_shares_seeds_across_points(self, base_table):
        points = sweep(
            base_table,
            "Item_Nbr",
            40,
            lambda x: SubsetAlterationAttack("Item_Nbr", x, 0.7),
            [0.2, 0.6],
            passes=3,
        )
        assert [point.x for point in points] == [0.2, 0.6]
        seeds_per_point = [
            [result.seed for result in point.passes] for point in points
        ]
        # The paper's protocol: the *same* 15 keyed passes swept over the
        # attack axis — seeds repeat across points, attacks differ.
        assert seeds_per_point[0] == seeds_per_point[1] == [0, 1, 2]

    def test_sweep_mode_override_is_bit_identical(self, base_table):
        factory = lambda x: SubsetAlterationAttack("Item_Nbr", x, 0.7)
        auto = sweep(
            base_table, "Item_Nbr", 40, factory, [0.2, 0.6], passes=3
        )
        serial = sweep(
            base_table, "Item_Nbr", 40, factory, [0.2, 0.6], passes=3,
            mode=MODE_SERIAL,
        )
        assert _flatten(auto) == _flatten(serial)


class TestBackendEquivalence:
    """The execution backend (SCALAR / VECTOR) never changes a sweep's
    results — in-process or across the worker pool."""

    def _run(self, base_table, backend, mode, max_workers=None):
        from repro.crypto import clear_engine_registry

        clear_engine_registry()
        shutdown_sweep_pool()
        protocol = SweepProtocol(
            mark_attribute="Item_Nbr", e=40, backend=backend
        )
        engine = SweepEngine(mode=mode, max_workers=max_workers)
        return _flatten(
            engine.run(base_table, protocol, _attacks(), SEEDS)
        )

    def test_backends_bit_identical_hoisted(self, base_table):
        from repro.crypto import SCALAR, VECTOR

        scalar = self._run(base_table, SCALAR, MODE_HOISTED)
        vector = self._run(base_table, VECTOR, MODE_HOISTED)
        assert scalar == vector

    def test_vector_backend_bit_identical_pooled(self, base_table):
        """Acceptance: a pooled sweep on the vector backend matches the
        hoisted SCALAR reference cell for cell."""
        from repro.crypto import SCALAR, VECTOR

        reference = self._run(base_table, SCALAR, MODE_HOISTED)
        pooled = self._run(
            base_table, VECTOR, MODE_POOLED, max_workers=2
        )
        assert pooled == reference

    def test_vector_backend_is_default_and_identical(self, base_table):
        from repro.crypto import SCALAR, VECTOR

        protocol = SweepProtocol(mark_attribute="Item_Nbr", e=40)
        assert protocol.backend == VECTOR
        vector = self._run(base_table, VECTOR, MODE_HOISTED)
        scalar = self._run(base_table, SCALAR, MODE_SERIAL)
        assert vector == scalar
