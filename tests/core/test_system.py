"""Unit tests for operations, histories, systems, behaviors (Def 1-3)."""

import pytest

from repro.core.errors import OperationError, SpaceError
from repro.core.state import boolean_space, integer_space
from repro.core.system import (
    Behavior,
    History,
    Operation,
    System,
)


@pytest.fixture
def space():
    return integer_space(2, "a", "b")


@pytest.fixture
def copy_op():
    return Operation("copy", lambda s: s.replace(b=s["a"]))


@pytest.fixture
def incr_op():
    return Operation("incr", lambda s: s.replace(a=(s["a"] + 1) % 4))


@pytest.fixture
def system(space, copy_op, incr_op):
    return System(space, [copy_op, incr_op])


class TestOperation:
    def test_application(self, space, copy_op):
        s = space.state(a=3, b=0)
        assert copy_op(s)["b"] == 3

    def test_requires_name(self):
        with pytest.raises(OperationError):
            Operation("", lambda s: s)

    def test_bad_return_type(self, space):
        bad = Operation("bad", lambda s: {"a": 1})
        with pytest.raises(OperationError):
            bad(space.state(a=0, b=0))

    def test_then_composes_left_to_right(self, space, copy_op, incr_op):
        # copy then incr: b gets old a, then a increments.
        composed = copy_op.then(incr_op)
        result = composed(space.state(a=1, b=0))
        assert result["b"] == 1 and result["a"] == 2


class TestHistory:
    def test_empty_history_is_identity(self, space):
        s = space.state(a=2, b=1)
        assert History.empty()(s) == s
        assert History.empty().is_empty

    def test_left_to_right_application(self, space, copy_op, incr_op):
        # Def 1-3: (H delta)(s) == delta(H(s))
        h = History.of(copy_op, incr_op)
        result = h(space.state(a=1, b=0))
        assert result == incr_op(copy_op(space.state(a=1, b=0)))

    def test_concatenation(self, copy_op, incr_op):
        h1 = History.of(copy_op)
        h2 = History.of(incr_op)
        assert list(h1 + h2) == [copy_op, incr_op]
        assert list(h1 + incr_op) == [copy_op, incr_op]
        assert list(incr_op + h1) == [incr_op, copy_op]

    def test_concatenation_not_commutative(self, space, copy_op, incr_op):
        s = space.state(a=1, b=0)
        assert (History.of(copy_op) + incr_op)(s) != (
            History.of(incr_op) + copy_op
        )(s)

    def test_sequence_protocol(self, copy_op, incr_op):
        h = History.of(copy_op, incr_op, copy_op)
        assert len(h) == 3
        assert h[0] is copy_op
        assert isinstance(h[:2], History)
        assert len(h[:2]) == 2

    def test_equality_and_hash(self, copy_op, incr_op):
        assert History.of(copy_op) == History.of(copy_op)
        assert History.of(copy_op) != History.of(incr_op)
        assert hash(History.of(copy_op)) == hash(History.of(copy_op))

    def test_splits(self, copy_op, incr_op):
        h = History.of(copy_op, incr_op)
        splits = list(h.splits())
        assert len(splits) == 3
        for prefix, suffix in splits:
            assert prefix + suffix == h

    def test_rejects_non_operations(self):
        with pytest.raises(OperationError):
            History([lambda s: s])


class TestSystem:
    def test_operation_lookup(self, system, copy_op):
        assert system.operation("copy") is copy_op
        with pytest.raises(SpaceError):
            system.operation("nope")

    def test_duplicate_names_rejected(self, space, copy_op):
        with pytest.raises(SpaceError):
            System(space, [copy_op, Operation("copy", lambda s: s)])

    def test_closure_check(self, space):
        escape = Operation("escape", lambda s: s.replace(a=99))
        with pytest.raises(OperationError):
            System(space, [escape])
        # Disabled check allows construction.
        System(space, [escape], check_closed=False)

    def test_history_by_name(self, system):
        h = system.history("copy", "incr")
        assert [op.name for op in h] == ["copy", "incr"]

    def test_histories_enumeration(self, system):
        hs = list(system.histories(2))
        # 1 empty + 2 length-1 + 4 length-2.
        assert len(hs) == 7
        assert History.empty() in hs
        assert len({h for h in hs}) == 7


class TestBehavior:
    def test_trace_and_final(self, space, system):
        h = system.history("copy", "incr")
        behavior = Behavior(space.state(a=1, b=0), h)
        trace = list(behavior.trace())
        assert len(trace) == 3
        assert trace[0] == behavior.initial
        assert trace[-1] == behavior.final()

    def test_prefixes(self, space, system):
        behavior = Behavior(space.state(a=0, b=0), system.history("copy", "incr"))
        prefixes = list(behavior.prefixes())
        assert len(prefixes) == 3
        assert prefixes[0].history.is_empty
