"""Column evaluation of the ``lang`` ASTs: the edge cases.

``Expr.lanes`` / ``Command.lanes`` evaluate a whole batch of states at
once, and ``System.successor_tables`` uses them for every structured
operation.  Each case here pins one way the column path could differ
from running the operation state by state: a branch the guard does not
take, ``Apply``, node classes that only know ``eval``, operations that
are plain callables, a program that leaves its domain, and ``State``
objects built where none are needed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import pytest

from repro.core.engine import DependencyEngine, shared_engine
from repro.core.errors import EvaluationError, OperationError, StateError
from repro.core.state import Lanes, Space, State
from repro.core.system import Operation, System
from repro.lang.cmd import Command, assign, seq, when
from repro.lang.expr import BinOp, Expr, apply, if_expr, var
from repro.lang.ops import StructuredOperation, op
from repro.systems.program import build_program_system, program_transmits


@pytest.fixture
def space() -> Space:
    return Space({"x": range(3), "y": range(3)})


def per_state_table(space: Space, operation: Operation) -> bytes:
    states = list(space.states())
    index = {state: i for i, state in enumerate(states)}
    return array("L", (index[operation(state)] for state in states)).tobytes()


def column_table(space: Space, operation: StructuredOperation) -> array | None:
    return operation.column_table(Lanes(space.index, list(range(space.size))))


def assert_column_agrees(space: Space, operation: StructuredOperation) -> None:
    table = column_table(space, operation)
    assert table is not None, "expected the column path"
    assert table.tobytes() == per_state_table(space, operation)
    (built,) = System(space, [operation]).successor_tables()
    assert built.tobytes() == table.tobytes()


class TestUntakenBranches:
    def test_if_command_guards_division(self, space):
        divide = op("div", when(var("y") != 0, assign("x", var("x") // var("y"))))
        assert_column_agrees(space, divide)

    def test_if_expr_guards_division(self, space):
        divide = op(
            "div", assign("x", if_expr(var("y") != 0, var("x") // var("y"), 0))
        )
        assert_column_agrees(space, divide)

    def test_unguarded_division_raises_the_per_state_error(self, space):
        divide = op("div", assign("x", var("x") // var("y")))
        with pytest.raises(EvaluationError) as per_state:
            divide(space.state(x=0, y=0))
        with pytest.raises(EvaluationError) as tabulated:
            System(space, [divide])
        assert str(tabulated.value) == str(per_state.value)

    def test_assignment_to_an_unknown_object_raises_the_per_state_error(
        self, space
    ):
        stray = op("stray", when(var("x") == 2, assign("z", 1)))
        with pytest.raises(StateError) as per_state:
            stray(space.state(x=2, y=0))
        with pytest.raises(StateError) as tabulated:
            System(space, [stray])
        assert str(tabulated.value) == str(per_state.value)

    def test_guard_is_read_once_per_lane_after_earlier_writes(self, space):
        # The guard sees the first assignment's write, lane by lane.
        body = seq(
            assign("y", (var("y") + 1) % 3),
            when(var("y") == 0, assign("x", 2), assign("x", var("x") // var("y"))),
        )
        assert_column_agrees(space, op("mixed", body))


class TestApply:
    def test_apply_runs_on_columns(self, space):
        biggest = op(
            "max", assign("x", apply(max, var("x"), var("y"), symbol="max"))
        )
        assert_column_agrees(space, biggest)

    def test_nullary_apply(self, space):
        zero = op("zero", assign("y", apply(lambda: 0, symbol="zero")))
        assert_column_agrees(space, zero)

    def test_non_integer_values(self):
        space = Space({"s": ("a", "b"), "t": ("a", "b", "ab", "ba")})
        last = apply(lambda s, t: s + t[-1], var("s"), var("t"), symbol="last")
        concat = op("concat", when(var("s") == "a", assign("t", last)))
        # "a" + "b" = "ab" and "a" + "a" = "aa": the latter leaves the
        # space, on both paths.
        with pytest.raises(OperationError, match="outside the space"):
            System(space, [concat])
        flip = op("flip", assign("s", if_expr(var("s") == "a", "b", "a")))
        assert_column_agrees(space, flip)


@dataclass(frozen=True)
class Doubled(Expr):
    """A user node that only knows how to evaluate one state."""

    inner: Expr

    def eval(self, state: State) -> object:
        return 2 * self.inner.eval(state)

    def reads(self) -> frozenset[str]:
        return self.inner.reads()


class ShiftedBinOp(BinOp):
    """A subclass that redefines ``eval`` but not ``lanes``."""

    def eval(self, state: State) -> object:
        return (super().eval(state) + 1) % 3


class CountingOperation(Operation):
    """Tallies calls so a test can see which path tabulated it."""

    def __init__(self, inner: Operation) -> None:
        super().__init__(inner.name, inner)
        self.calls = 0

    def __call__(self, state: State) -> State:
        self.calls += 1
        return super().__call__(state)


class TestPerStateFallback:
    def test_user_expr_subclass_falls_back(self, space):
        doubled = op("dbl", assign("y", Doubled(var("x")) % 3))
        assert column_table(space, doubled) is None
        counted = CountingOperation(doubled)
        (table,) = System(space, [counted]).successor_tables()
        assert counted.calls == space.size
        assert table.tobytes() == per_state_table(space, doubled)

    def test_subclass_overriding_eval_does_not_inherit_lanes(self, space):
        shifted = op(
            "shift",
            assign("y", ShiftedBinOp(var("x"), var("y"), lambda a, b: a + b, "+")),
        )
        assert column_table(space, shifted) is None
        (table,) = System(space, [shifted]).successor_tables()
        assert table.tobytes() == per_state_table(space, shifted)

    def test_user_command_subclass_falls_back(self, space):
        class Swap(Command):
            def run(self, state: State) -> State:
                return state.replace(x=state["y"], y=state["x"])

            def writes(self) -> frozenset[str]:
                return frozenset({"x", "y"})

            def reads(self) -> frozenset[str]:
                return frozenset({"x", "y"})

        swap = op("swap", seq(assign("x", var("x")), Swap()))
        assert column_table(space, swap) is None
        (table,) = System(space, [swap]).successor_tables()
        assert table.tobytes() == per_state_table(space, swap)

    def test_lambda_and_composite_operations_run_per_state(self, space):
        bump = CountingOperation(
            Operation("bump", lambda s: s.replace(x=(s["x"] + 1) % 3))
        )
        copy = Operation("copy", lambda s: s.replace(y=s["x"]))
        both = CountingOperation(bump.then(copy))
        assert bump.column_table(Lanes(space.index, [0])) is None
        system = System(space, [bump, both])
        tables = [t.tobytes() for t in system.successor_tables()]
        # Closure check and tables are one pass, kept: each state once
        # per operation (``both`` calls ``bump`` once more per state).
        assert both.calls == space.size
        assert bump.calls == 2 * space.size
        assert tables == [per_state_table(space, bump), per_state_table(space, both)]


class TestProgramSystems:
    def test_out_of_domain_program_keeps_the_closure_check_text(self):
        with pytest.raises(OperationError) as info:
            build_program_system("x := x + 1", {"x": range(4), "y": range(2)})
        assert str(info.value) == (
            "operation 'delta1' maps State(pc=1, x=3, y=0) to "
            "State(pc=2, x=4, y=0), which lies outside the space"
        )

    def test_unchecked_system_is_checked_at_compile(self, space):
        bump = op("bump", assign("x", var("x") + 1))
        system = System(space, [bump], check_closed=False)
        with pytest.raises(OperationError, match="outside the space"):
            DependencyEngine(system).compiled_system()

    def test_no_state_objects_between_program_and_verdict(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("a State was enumerated or run")

        monkeypatch.setattr(Space, "states", forbidden)
        monkeypatch.setattr(Operation, "__call__", forbidden)
        ps = build_program_system(
            "gate := secret > limit;\nif gate then out := 1 else out := 0",
            {"secret": range(4), "limit": (0, 1), "gate": (False, True), "out": (0, 1)},
        )
        result = program_transmits(ps, {"secret"}, "out")
        assert result.holds
        assert result.witness is not None  # decoded id by id
        compiled = shared_engine(ps.system).compiled_system()
        assert compiled._states is None
