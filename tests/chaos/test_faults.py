"""Chaos tests: fault injection and the thread->serial fallback.

Injects transient task errors and delays through the
:mod:`repro.core.faults` seam — both in-process (plans) and through
exactly-once stamp files — and asserts the engine's answers stay
bit-identical to the seed path while the execution log records the
degradations taken.
"""

from __future__ import annotations

import os

import pytest

from repro.core import faults
from repro.core.engine import DependencyEngine
from repro.core.errors import ReproError
from repro.core.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.core.system import System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var


@pytest.fixture
def relay() -> System:
    b = SystemBuilder().booleans("a", "m", "b")
    b.op_assign("d1", "m", var("a"))
    b.op_assign("d2", "b", var("m"))
    return b.build()


def seed_matrix(system: System) -> dict[str, dict[str, bool]]:
    """The reference answer: a fresh engine, serial, no faults."""
    return DependencyEngine(system).matrix()


class TestFaultSpecs:
    def test_parse_round_trip(self):
        spec = FaultSpec.parse("delay:task:3:0.25")
        assert spec == FaultSpec(kind="delay", point="task", task=3, arg=0.25)
        assert FaultSpec.parse("err:task:1").arg == 0.0

    @pytest.mark.parametrize(
        "bad", ["kill", "kill:worker", "boom:worker:1", "kill:nowhere:1"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_injected_fault_is_repro_error(self):
        assert issubclass(InjectedFaultError, ReproError)

    def test_inject_is_noop_without_plan_or_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
        faults.inject("task", 0)  # must not raise

    def test_in_process_plan_fires_exactly_once(self):
        plan = FaultPlan(specs=(FaultSpec(kind="err", point="task", task=0),))
        with faults.active_plan(plan):
            with pytest.raises(InjectedFaultError):
                faults.inject("task", 0)
            faults.inject("task", 0)  # claimed; second call is a no-op

    def test_stamp_file_claims_exactly_once(self, tmp_path):
        stamp = str(tmp_path / "stamp")
        plan = FaultPlan(
            specs=(FaultSpec(kind="err", point="task", task=0),), stamp=stamp
        )
        with pytest.raises(InjectedFaultError):
            plan.enact("task", 0)
        assert os.path.exists(f"{stamp}.0")
        plan.enact("task", 0)  # stamp exists; refused


class TestDegradationLadder:
    def test_thread_fault_degrades_to_serial(self, relay):
        plan = FaultPlan(specs=(FaultSpec(kind="err", point="task", task=0),))
        engine = DependencyEngine(relay)
        with faults.active_plan(plan):
            matrix = engine.matrix(max_workers=2)
        assert matrix == seed_matrix(relay)
        warm = [r for r in engine.execution_log.reports if r.label.startswith("warm")]
        assert warm and "thread->serial" in warm[0].degradations
        assert warm[0].executor == "serial"
        assert warm[0].completed

    def test_delay_fault_is_pure_latency(self, relay):
        plan = FaultPlan(
            specs=(FaultSpec(kind="delay", point="task", task=0, arg=0.01),)
        )
        engine = DependencyEngine(relay)
        with faults.active_plan(plan):
            matrix = engine.matrix()
        assert matrix == seed_matrix(relay)
