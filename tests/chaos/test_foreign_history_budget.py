"""Chaos tests: one budget governs every fixed history.

A history of operations the system does not own — here the composite
``cp.then(cp)`` — is composed on the same kernel as the system's own
operations, so an :class:`ExecutionBudget` trips on it exactly where it
trips on ``cp``: a zero-expansion budget raises
:class:`BudgetExceededError` before any sweep, in the dependency
wrappers and in every quantitative measure that takes a budget.
(``QuantEngine.push_forward`` takes none, for own operations or any
other, so it is not listed.)
"""

from __future__ import annotations

import pytest

from repro.core.budget import BudgetExceededError, ExecutionBudget
from repro.core.dependency import transmits, transmits_to_set
from repro.core.system import History
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var
from repro.quantitative import QuantEngine


@pytest.fixture
def copier():
    """``dst := src`` over 3-bit integers: 3 bits flow per copy."""
    b = SystemBuilder().integers("src", "dst", bits=3)
    b.op_assign("cp", "dst", var("src"))
    return b.build()


QUERIES = (
    "transmits",
    "transmits_to_set",
    "bits_transmitted",
    "bits_transmitted_averaged",
    "capacity_table",
    "channel_matrix",
)


def _run(system, query, history, budget):
    if query == "transmits":
        return transmits(system, {"src"}, "dst", history, budget=budget)
    if query == "transmits_to_set":
        return transmits_to_set(system, {"src"}, {"dst"}, history, budget=budget)
    quant = QuantEngine(system)
    if query == "capacity_table":
        return quant.capacity_table(quant.uniform(), history, budget=budget)
    return getattr(quant, query)(
        quant.uniform(), {"src"}, "dst", history, budget=budget
    )


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("composite", [False, True], ids=["own", "composite"])
def test_zero_budget_trips(copier, query, composite):
    cp = copier.operation("cp")
    history = History.of(cp.then(cp) if composite else cp)
    with pytest.raises(BudgetExceededError) as info:
        _run(copier, query, history, ExecutionBudget(max_expanded=0))
    assert info.value.partial.verdict == "UNKNOWN"
    assert info.value.partial.reason == "max_expanded"


def test_unbudgeted_composite_answers_like_its_operation(copier):
    """Without a budget the composite answers: a copy of a copy moves
    all 3 bits, exactly as one copy does."""
    cp = copier.operation("cp")
    own, composite = History.of(cp), History.of(cp.then(cp))
    assert transmits(copier, {"src"}, "dst", composite)
    quant = QuantEngine(copier)
    assert quant.bits_transmitted(quant.uniform(), {"src"}, "dst", composite) == 3.0
    assert quant.capacity_table(quant.uniform(), composite) == quant.capacity_table(
        quant.uniform(), own
    )
