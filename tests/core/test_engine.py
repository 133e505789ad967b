"""Unit tests for the shared pair-graph dependency engine."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis.explorer import dependency_matrix
from repro.core.constraints import Constraint
from repro.core.engine import DependencyEngine, shared_engine
from repro.core.errors import ConstraintError, UnknownObjectError
from repro.core.state import boolean_space
from repro.core.system import Operation, System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var
from repro.systems.program import build_program_system, program_transmits


@pytest.fixture
def relay() -> System:
    """a -> m -> b relay: information flows only along the chain."""
    b = SystemBuilder().booleans("a", "m", "b")
    b.op_assign("d1", "m", var("a"))
    b.op_assign("d2", "b", var("m"))
    return b.build()


class TestDependencyEngine:
    def test_single_target_matches_chain(self, relay):
        engine = DependencyEngine(relay)
        assert bool(engine.depends_ever({"a"}, "b"))
        assert not bool(engine.depends_ever({"b"}, "a"))
        result = engine.depends_ever({"a"}, "b")
        assert [op.name for op in result.witness.history] == ["d1", "d2"]

    def test_closure_is_computed_once_per_source_and_constraint(self):
        calls = {"n": 0}

        def counted(s):
            calls["n"] += 1
            return s.replace(b=s["a"])

        space = boolean_space("a", "b")
        system = System(space, [Operation("copy", counted)], check_closed=False)
        engine = DependencyEngine(system)
        engine.depends_ever({"a"}, "b")
        tabulated = calls["n"]
        assert tabulated == space.size  # one execution per state: the table
        engine.depends_ever({"a"}, "a")
        engine.depends_ever_set({"a"}, {"a", "b"})
        engine.matrix()
        assert calls["n"] == tabulated  # everything else is dict lookups

    def test_constraint_closures_are_keyed_separately(self, relay):
        engine = DependencyEngine(relay)
        phi = Constraint(relay.space, lambda s: not s["a"], name="~a")
        assert bool(engine.depends_ever({"a"}, "b"))
        assert not bool(engine.depends_ever({"a"}, "b", phi))

    def test_set_target_requires_simultaneous_difference(self, relay):
        engine = DependencyEngine(relay)
        # a reaches both m and b, and a single pair differs at both at once.
        assert bool(engine.depends_ever_set({"a"}, {"m", "b"}))
        # b reaches nothing downstream of itself.
        assert not bool(engine.depends_ever_set({"b"}, {"a", "b"}))
        with pytest.raises(ConstraintError):
            engine.depends_ever_set({"a"}, [])

    def test_matrix_matches_explorer_wrapper(self, relay):
        engine = DependencyEngine(relay)
        assert engine.matrix() == dependency_matrix(relay)

    def test_parallel_matrix_matches_serial(self, relay):
        serial = DependencyEngine(relay).matrix()
        parallel = DependencyEngine(relay).matrix(max_workers=4)
        assert serial == parallel

    def test_parallel_closure_matches_serial(self, relay):
        serial = DependencyEngine(relay).closure()
        parallel = DependencyEngine(relay).closure(max_workers=4)
        assert set(serial) == set(parallel)
        for key in serial:
            assert bool(serial[key]) == bool(parallel[key])

    def test_unknown_names_and_foreign_constraints_are_rejected(self, relay):
        engine = DependencyEngine(relay)
        with pytest.raises(UnknownObjectError):
            engine.depends_ever({"zz"}, "b")
        with pytest.raises(UnknownObjectError):
            engine.depends_ever({"a"}, "zz")
        foreign = Constraint(boolean_space("q"), lambda s: True, name="q")
        with pytest.raises(ConstraintError):
            engine.depends_ever({"a"}, "b", foreign)

    def test_operation_flows_on_relay(self, relay):
        flows = DependencyEngine(relay).operation_flows()
        assert ("a", "m") in flows["d1"]
        assert ("m", "b") in flows["d2"]
        assert ("a", "b") not in flows["d1"]  # one step cannot skip m


class TestSharedEngine:
    def test_one_engine_per_system_instance(self, relay):
        assert shared_engine(relay) is shared_engine(relay)

    def test_distinct_systems_get_distinct_engines(self):
        b1 = SystemBuilder().booleans("a", "b")
        b1.op_assign("copy", "b", var("a"))
        b2 = SystemBuilder().booleans("a", "b")
        b2.op_assign("copy", "b", var("a"))
        assert shared_engine(b1.build()) is not shared_engine(b2.build())

    def test_engines_die_with_their_systems(self):
        """A system and its shared engine hold each other, so once a
        program system is dropped the pair is one unreachable cycle and
        gc reclaims both."""
        refs = []
        for k in range(20):
            ps = build_program_system(
                "if secret > limit then out := 1 else out := 0",
                {"secret": range(k % 4 + 2), "limit": (0, 1), "out": (0, 1)},
            )
            assert program_transmits(ps, {"secret"}, "out")
            refs.append(weakref.ref(ps.system))
            refs.append(weakref.ref(shared_engine(ps.system)))
            del ps
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
