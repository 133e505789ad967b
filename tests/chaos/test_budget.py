"""Chaos tests: budget-governed execution.

Exercises the :mod:`repro.core.budget` governor end to end: zero-state
budgets trip before any expansion, exact budgets complete, every limit
kind (expansions, pairs, deadline, cancellation) raises with a usable
:class:`~repro.core.budget.PartialResult`, trips never corrupt the
closure memo, and re-running with a larger budget refines UNKNOWN to the
seed-path verdict (monotone refinement).
"""

from __future__ import annotations


import pytest

from repro.cli import main
from repro.core.budget import (
    BudgetExceededError,
    CancellationToken,
    ExecutionBudget,
    PartialResult,
)
from repro.core.dependency import transmits
from repro.core.engine import DependencyEngine
from repro.core.induction import prove_no_dependency, prove_via_relation
from repro.core.system import System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var


@pytest.fixture
def relay() -> System:
    """a -> m -> b relay: information flows only along the chain."""
    b = SystemBuilder().booleans("a", "m", "b")
    b.op_assign("d1", "m", var("a"))
    b.op_assign("d2", "b", var("m"))
    return b.build()


class TestBudgetTrips:
    def test_zero_state_budget_raises_with_partial(self, relay):
        engine = DependencyEngine(relay)
        budget = ExecutionBudget(max_expanded=0)
        with pytest.raises(BudgetExceededError) as info:
            engine.depends_ever({"a"}, "b", budget=budget)
        partial = info.value.partial
        assert isinstance(partial, PartialResult)
        assert partial.verdict == "UNKNOWN"
        assert partial.reason == "max_expanded"
        assert partial.expanded == 0
        assert partial.frontier > 0
        assert "UNKNOWN" in partial.describe()
        # The trip is accounted: an incomplete ExecutionReport carrying
        # the partial result lands on the engine's log.
        incomplete = [r for r in engine.execution_log.reports if not r.completed]
        assert incomplete and incomplete[0].partial == partial

    def test_exact_budget_completes(self, relay):
        size = len(DependencyEngine(relay)._closure({"a"}))
        engine = DependencyEngine(relay)
        budget = ExecutionBudget(max_expanded=size, check_interval=1)
        result = engine.depends_ever({"a"}, "b", budget=budget)
        assert bool(result)

    def test_deadline_trips(self, relay):
        engine = DependencyEngine(relay)
        with pytest.raises(BudgetExceededError) as info:
            engine.depends_ever({"a"}, "b", budget=ExecutionBudget(max_seconds=0.0))
        assert info.value.partial.reason == "deadline"

    def test_max_pairs_trips(self, relay):
        engine = DependencyEngine(relay)
        with pytest.raises(BudgetExceededError) as info:
            engine.depends_ever({"a"}, "b", budget=ExecutionBudget(max_pairs=1))
        assert info.value.partial.reason == "max_pairs"

    def test_cancellation_token(self, relay):
        token = CancellationToken()
        token.cancel()
        engine = DependencyEngine(relay)
        with pytest.raises(BudgetExceededError) as info:
            engine.depends_ever({"a"}, "b", budget=ExecutionBudget(token=token))
        assert info.value.partial.reason == "cancelled"

    def test_history_sweep_governed(self, relay):
        d1 = relay.operation("d1")
        with pytest.raises(BudgetExceededError):
            transmits(relay, {"a"}, "m", d1, budget=ExecutionBudget(max_expanded=0))

    def test_operation_flows_governed(self, relay):
        engine = DependencyEngine(relay)
        with pytest.raises(BudgetExceededError):
            engine.operation_flows(budget=ExecutionBudget(max_expanded=0))

    def test_engine_default_budget_and_per_call_override(self, relay):
        engine = DependencyEngine(relay, budget=ExecutionBudget(max_expanded=0))
        with pytest.raises(BudgetExceededError):
            engine.depends_ever({"a"}, "b")
        # An explicit unbounded budget overrides the engine default.
        assert bool(engine.depends_ever({"a"}, "b", budget=ExecutionBudget()))


class TestMemoIntegrity:
    def test_trip_memoizes_nothing(self, relay):
        engine = DependencyEngine(relay)
        with pytest.raises(BudgetExceededError):
            engine.depends_ever({"a"}, "b", budget=ExecutionBudget(max_expanded=0))
        assert not engine._closures  # cache holds only complete closures

    def test_monotone_refinement_to_seed_verdict(self, relay):
        seed = DependencyEngine(relay)
        engine = DependencyEngine(relay)
        with pytest.raises(BudgetExceededError):
            engine.depends_ever({"a"}, "b", budget=ExecutionBudget(max_expanded=0))
        # Larger budget on the same engine: UNKNOWN refines to the exact
        # verdict, identical to an ungoverned engine's — and once the
        # closure is memoized, even a zero budget answers for free.
        for target in ("a", "m", "b"):
            refined = engine.depends_ever(
                {"a"}, target, budget=ExecutionBudget(max_expanded=10**9)
            )
            assert bool(refined) == bool(seed.depends_ever({"a"}, target))
        cached = engine.depends_ever(
            {"a"}, "b", budget=ExecutionBudget(max_expanded=0)
        )
        assert bool(cached) == bool(seed.depends_ever({"a"}, "b"))

    def test_budgeted_yes_still_carries_witness(self, relay):
        # A budget generous enough to finish behaves exactly like no
        # budget at all — same verdict, same shortest witness.
        governed = DependencyEngine(relay).depends_ever(
            {"a"}, "b", budget=ExecutionBudget(max_expanded=10**9, max_seconds=60)
        )
        plain = DependencyEngine(relay).depends_ever({"a"}, "b")
        assert bool(governed) and bool(plain)
        assert [op.name for op in governed.witness.history] == [
            op.name for op in plain.witness.history
        ]


class TestProverDegradation:
    def test_prover_returns_unknown_obligation(self, relay):
        proof = prove_no_dependency(
            relay, None, "b", "a", budget=ExecutionBudget(max_expanded=0)
        )
        assert not proof.valid
        assert any("UNKNOWN" in ob.description for ob in proof.failures)
        # The partial result rides along for a scaled retry.
        assert any(
            isinstance(ob.witness, PartialResult) for ob in proof.failures
        )

    def test_prover_refines_with_larger_budget(self, relay):
        # The scaled retry runs first, before anything is memoized on
        # the shared engine — it must succeed on its own budget, not on
        # a cache warmed by the unbudgeted reference run.
        retried = prove_no_dependency(
            relay, None, "b", "a",
            budget=ExecutionBudget(max_expanded=0).scaled(10**9),
        )
        unbudgeted = prove_no_dependency(relay, None, "b", "a")
        assert retried.valid == unbudgeted.valid

    def test_relation_prover_degrades(self, relay):
        proof = prove_via_relation(
            relay, None, lambda x, y: True, budget=ExecutionBudget(max_expanded=0)
        )
        assert not proof.valid
        assert any("UNKNOWN" in ob.description for ob in proof.failures)


class TestBudgetHelpers:
    def test_unbounded_budget_has_no_meter(self):
        assert ExecutionBudget().start("x") is None
        assert not ExecutionBudget().bounded

    def test_scaled(self):
        budget = ExecutionBudget(max_seconds=1.0, max_expanded=10, max_pairs=4)
        bigger = budget.scaled(3)
        assert bigger.max_seconds == 3.0
        assert bigger.max_expanded == 30
        assert bigger.max_pairs == 12
        assert ExecutionBudget().scaled(3) == ExecutionBudget()

    def test_scaled_grows_zero_budgets(self, relay):
        # Zero limits scale from one unit — otherwise 0 * k == 0 and a
        # retry of an exhausted budget could never make progress.
        retry = ExecutionBudget(max_expanded=0, max_seconds=0.0).scaled(10**6)
        assert retry.max_expanded == 10**6
        assert retry.max_seconds == pytest.approx(1000.0)
        assert bool(DependencyEngine(relay).depends_ever({"a"}, "b", budget=retry))


class TestCliBudget:
    def _args(self, program: str, *extra: str) -> list[str]:
        return [
            "program",
            program,
            "--var",
            "secret=0..1",
            "--var",
            "public=0..1",
            "--source",
            "secret",
            "--target",
            "public",
            *extra,
        ]

    @pytest.fixture
    def leaky_program(self, tmp_path):
        path = tmp_path / "leaky.prog"
        path.write_text("if secret > 0 then public := 1 else public := 0")
        return str(path)

    def test_budget_exhaustion_exits_3(self, leaky_program, capsys):
        code = main(self._args(leaky_program, "--budget-states", "0"))
        out = capsys.readouterr().out
        assert code == 3
        assert "UNKNOWN" in out
        assert "max_expanded" in out

    def test_generous_budget_matches_seed_verdict(self, leaky_program, capsys):
        code = main(
            self._args(
                leaky_program,
                "--budget-states",
                "1000000",
                "--execution-report",
            )
        )
        out = capsys.readouterr().out
        assert code == 1  # flow found, same as the unbudgeted run
        assert "FLOW" in out
        assert "execution:" in out
