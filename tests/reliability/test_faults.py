"""Tests for repro.reliability.faults — the injection harness itself."""

import random

import pytest

from repro.reliability import (
    FaultPlan,
    IO_ERROR,
    InjectedFaultError,
    KINDS,
    TORN_WRITE,
    active_plan,
    arm,
    disarm,
    fault_point,
    injection_armed,
)


class TestFaultPlan:
    def test_add_chains_and_validates(self):
        plan = FaultPlan().add("a", IO_ERROR).add("b", TORN_WRITE, at=3)
        assert plan.scheduled("a", 0)
        assert plan.scheduled("b", 3)
        assert not plan.scheduled("b", 0)
        with pytest.raises(ValueError, match="fault kind"):
            plan.add("a", "meteor-strike")
        with pytest.raises(ValueError, match="times"):
            plan.add("a", IO_ERROR, times=0)

    def test_draw_consumes_bounded_triggers(self):
        plan = FaultPlan().add("sink.write", IO_ERROR, at=2, times=2)
        assert plan.pending() == 2
        assert plan.draw("sink.write", 2) == IO_ERROR
        assert plan.draw("sink.write", 2) == IO_ERROR
        assert plan.draw("sink.write", 2) is None  # exhausted: retry runs clean
        assert plan.pending() == 0
        assert plan.fired == [
            ("sink.write", 2, IO_ERROR),
            ("sink.write", 2, IO_ERROR),
        ]

    def test_rng_follows_literal_label_contract(self):
        plan = FaultPlan(seed=7)
        expected = random.Random("fault:7:sink.write:3").random()
        assert plan.rng("sink.write", 3).random() == expected
        # fresh generator per call — no shared mutable state
        assert plan.rng("sink.write", 3).random() == expected


class TestArming:
    def test_disarmed_fault_point_is_inert(self):
        disarm()
        assert not injection_armed()
        assert active_plan() is None
        assert fault_point("anything", 0) is None

    def test_armed_context_restores_previous_plan(self):
        outer = FaultPlan()
        previous = arm(outer)
        try:
            inner = FaultPlan()
            with inner.armed():
                assert active_plan() is inner
            assert active_plan() is outer
        finally:
            arm(previous)

    def test_io_error_raises_oserror_at_the_address(self):
        plan = FaultPlan().add("source.read", IO_ERROR, at=1)
        with plan.armed():
            assert fault_point("source.read", 0) is None
            with pytest.raises(InjectedFaultError) as excinfo:
                fault_point("source.read", 1)
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.label == "source.read"
        assert excinfo.value.index == 1
        assert "injected io-error fault at source.read[1]" in str(excinfo.value)

    def test_cooperative_kinds_are_returned_not_raised(self):
        plan = (
            FaultPlan()
            .add("sink.write.mid", TORN_WRITE, at=0)
            .add("journal.append", TORN_WRITE, at=1)
        )
        with plan.armed():
            assert fault_point("sink.write.mid", 0) == TORN_WRITE
            assert fault_point("journal.append", 1) == TORN_WRITE
            assert fault_point("sink.write.mid", 0) is None  # consumed

    def test_all_kinds_enumerated(self):
        assert set(KINDS) == {
            "io-error", "torn-write", "truncated-gzip", "kill",
            "hang", "slow", "memory", "bitflip", "disk-full",
        }
