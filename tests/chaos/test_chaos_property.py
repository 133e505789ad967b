"""Chaos property tests: random systems under injected faults and budgets.

Seeded random systems are run through the governed, fault-tolerant
execution layer and compared cell-for-cell against the fault-free seed
path.  The invariants under test:

- budget trips never corrupt the memo (later unbudgeted answers are
  bit-identical to a fresh engine's),
- budgeted runs never flip a verdict — they either agree with the seed
  or raise UNKNOWN, and a larger budget monotonically refines UNKNOWN
  to the seed verdict.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.random_systems import random_system
from repro.core import faults
from repro.core.budget import BudgetExceededError, ExecutionBudget
from repro.core.engine import DependencyEngine

from tests.chaos.test_faults import seed_matrix

SEEDS = (7, 19, 42)


def _system(seed: int):
    return random_system(random.Random(seed), n_objects=3, domain_size=2,
                         n_operations=2)


@pytest.mark.parametrize("seed", SEEDS)
def test_budget_never_flips_and_refines_monotonically(seed):
    system = _system(seed)
    names = system.space.names
    reference = DependencyEngine(system)
    engine = DependencyEngine(system)
    tight = ExecutionBudget(max_expanded=1, check_interval=1)
    for x in names:
        for y in names:
            expected = bool(reference.depends_ever({x}, y))
            try:
                governed = bool(engine.depends_ever({x}, y, budget=tight))
            except BudgetExceededError:
                governed = None  # UNKNOWN — allowed, never a wrong verdict
            if governed is not None:
                assert governed == expected
            # Retrying with a larger budget refines UNKNOWN to the seed
            # verdict (and leaves agreeing verdicts unchanged).
            refined = bool(
                engine.depends_ever({x}, y, budget=tight.scaled(10**9))
            )
            assert refined == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_memo_survives_faults_and_budget_trips(seed):
    """After a barrage of budget trips and injected thread faults, the
    engine's unbudgeted answers are bit-identical to a fresh engine's —
    nothing partial or corrupt was ever memoized."""
    system = _system(seed)
    engine = DependencyEngine(system)
    names = system.space.names
    for x in names:
        try:
            engine.depends_ever({x}, names[0],
                                budget=ExecutionBudget(max_expanded=0))
        except BudgetExceededError:
            pass
    plan = faults.FaultPlan(
        specs=(faults.FaultSpec(kind="err", point="task", task=0),)
    )
    with faults.active_plan(plan):
        battered = engine.matrix(max_workers=2)
    assert battered == seed_matrix(system)
