"""Column tabulation agrees with per-state tabulation, byte for byte.

``System.successor_tables`` runs structured operations once on the
space's value columns instead of once per state.  The tables key the
persistent store (``system_hash``), so they must equal what running
every operation on every ``State`` gives — the oracle here is that
per-state loop with a ``{State: id}`` dict, written out independently.
Equality-built constraints likewise resolve their satisfying ids from the
domains, and must equal the predicate evaluated state by state.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.random_systems import random_system
from repro.core.compiled import CompiledSystem
from repro.core.constraints import Constraint
from repro.core.errors import EvaluationError
from repro.core.state import Lanes, Space
from repro.core.store import sat_key, system_hash
from repro.core.system import System
from repro.lang.builders import SystemBuilder
from repro.lang.cmd import assign, seq, when
from repro.lang.expr import apply, const, if_expr, var
from repro.systems.program import build_program_system
from repro.systems.program.flowchart import AssignNode, Flowchart, TestNode

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def per_state_tables(system: System) -> list[bytes]:
    """Every operation run on every state, in enumeration order."""
    states = list(system.space.states())
    index = {state: i for i, state in enumerate(states)}
    return [
        array("L", (index[op(state)] for state in states)).tobytes()
        for op in system.operations
    ]


def assert_tables_agree(system: System) -> None:
    expected = per_state_tables(system)
    assert [t.tobytes() for t in system.successor_tables()] == expected
    kernel = CompiledSystem(system).kernel
    assert [t.tobytes() for t in kernel.successors] == expected


#: The variable domains ``examples/program_certifier.py`` builds with.
CERTIFIER_DOMAINS = {
    "secret": range(4),
    "limit": range(4),
    "gate": (False, True),
    "audit": (0, 1),
    "temp": (0, 1),
    "public": (0, 1),
}


def _certifier_source() -> str:
    spec = importlib.util.spec_from_file_location(
        "program_certifier", EXAMPLES / "program_certifier.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


def affine_program(rng: random.Random, statements: int, p: int = 5) -> str:
    """A program shaped like the benchmark's: 4 variables mod ``p``,
    each statement ``x_t := (a*x_t + c*x_j + d) % p`` with ``j < t``."""
    lines = []
    for _ in range(statements):
        t = rng.randrange(1, 4)
        j = rng.randrange(t)
        a, c, d = rng.randrange(1, p), rng.randrange(1, p), rng.randrange(p)
        lines.append(f"x{t} := ({a}*x{t} + {c}*x{j} + {d}) % {p}")
    return ";\n".join(lines)


@pytest.mark.parametrize("seed", range(60))
def test_random_systems(seed):
    rng = random.Random(seed)
    system = random_system(
        rng,
        n_objects=rng.choice([2, 3, 4]),
        domain_size=rng.choice([2, 3, 4]),
        n_operations=rng.choice([1, 2, 3]),
    )
    assert_tables_agree(system)


@pytest.mark.parametrize("statements", [3, 7])
@pytest.mark.parametrize("seed", range(4))
def test_benchmark_shaped_programs(seed, statements):
    rng = random.Random(1000 * statements + seed)
    ps = build_program_system(
        affine_program(rng, statements), {f"x{i}": range(5) for i in range(4)}
    )
    assert ps.system.space.size == 625 * (statements + 1)
    assert_tables_agree(ps.system)


def test_example_programs():
    programs = [_certifier_source()] + [
        path.read_text() for path in sorted(EXAMPLES.glob("*.prog"))
    ]
    assert len(programs) >= 2
    for text in programs:
        assert_tables_agree(build_program_system(text, CERTIFIER_DOMAINS).system)


def test_paper_figure_programs():
    """The two section 6.5 flowcharts, node for node."""
    first = Flowchart(
        [
            AssignNode(1, "t", if_expr(var("q") > 10, True, False), 2),
            AssignNode(2, "beta", if_expr(var("t"), var("alpha"), var("beta")), 3),
        ],
        entry=1,
        halt=3,
    )
    assert_tables_agree(
        build_program_system(
            first,
            {"q": range(8, 13), "t": (False, True), "alpha": (0, 1), "beta": (0, 1)},
        ).system
    )
    branchy = Flowchart(
        [
            TestNode(1, var("alpha"), 2, 3),
            AssignNode(2, "beta", 0, 4),
            AssignNode(3, "beta", 0, 4),
        ],
        entry=1,
        halt=4,
    )
    ps = build_program_system(branchy, {"alpha": (False, True), "beta": range(38)})
    assert_tables_agree(ps.system)
    # The step system's one operation is a plain callable: per state.
    assert_tables_agree(
        branchy.to_step_system({"alpha": (False, True), "beta": range(38)})
    )


def test_loop_programs():
    for text, domains in [
        (
            "while x != 3 do x := (x + 1) % 4; y := x",
            {"x": range(4), "y": range(4)},
        ),
        (
            "while go do { acc := (acc * 3 + secret) % 7; out := (out + acc) % 7 }",
            {"secret": range(3), "acc": range(7), "out": range(7), "go": (False, True)},
        ),
        (
            "if s > 0 then { p := 1; q := s / 2 } else q := p - 1",
            {"s": range(3), "p": range(2), "q": range(-1, 2)},
        ),
    ]:
        assert_tables_agree(build_program_system(text, domains).system)


# -- random ASTs, lane by lane ----------------------------------------------
#
# The systems above reach only the node shapes their generators emit.
# Here random expression and command trees (every node class, mixed
# int/bool values, division that can hit zero) run on the lanes of a
# whole space and, state by state, through eval/run.

LANE_SPACE = Space({"a": range(-2, 3), "b": (False, True), "c": range(3)})

_BINARY = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "//": lambda x, y: x // y,
    "%": lambda x, y: x % y,
    "==": lambda x, y: x == y,
    "!=": lambda x, y: x != y,
    "<": lambda x, y: x < y,
    "<=": lambda x, y: x <= y,
    "and": lambda x, y: x & y,
    "or": lambda x, y: x | y,
}

_leaves = st.one_of(
    st.sampled_from(LANE_SPACE.names).map(var),
    st.integers(-2, 2).map(const),
    st.booleans().map(const),
)


def _extend(children):
    return st.one_of(
        st.tuples(children, children, st.sampled_from(sorted(_BINARY))).map(
            lambda t: _BINARY[t[2]](t[0], t[1])
        ),
        children.map(lambda e: -e),
        children.map(lambda e: ~e),
        st.tuples(children, children, children).map(lambda t: if_expr(*t)),
        st.tuples(children, children).map(
            lambda t: apply(max, t[0], t[1], symbol="max")
        ),
    )


_exprs = st.recursive(_leaves, _extend, max_leaves=10)


def _commands(exprs):
    assigns = st.tuples(st.sampled_from(LANE_SPACE.names), exprs).map(
        lambda t: assign(*t)
    )
    return st.recursive(
        assigns,
        lambda children: st.one_of(
            st.tuples(exprs, children, children).map(lambda t: when(*t)),
            st.tuples(exprs, children).map(lambda t: when(*t)),
            st.tuples(children, children).map(lambda t: seq(*t)),
        ),
        max_leaves=5,
    )


def _all_lanes() -> Lanes:
    return Lanes(LANE_SPACE.index, list(range(LANE_SPACE.size)))


def _per_state(fn):
    """``fn`` on every state, or ``None`` if any state raises."""
    try:
        return [fn(state) for state in LANE_SPACE.states()]
    except EvaluationError:
        return None


@settings(max_examples=300, deadline=None)
@given(_exprs)
def test_random_expressions_lane_by_lane(expr):
    expected = _per_state(expr.eval)
    if expected is None:
        with pytest.raises(EvaluationError):
            expr.lanes(_all_lanes())
        return
    got = expr.lanes(_all_lanes())
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


@settings(max_examples=200, deadline=None)
@given(_commands(_exprs))
def test_random_commands_lane_by_lane(command):
    expected = _per_state(command.run)
    if expected is None:
        with pytest.raises(EvaluationError):
            command.lanes(_all_lanes())
        return
    states = list(LANE_SPACE.states())
    seen = []
    for batch in command.lanes(_all_lanes()):
        for p, i in enumerate(batch.ids):
            seen.append(i)
            after = {
                name: batch.columns[name][p] if name in batch.written else value
                for name, value in states[i].items()
            }
            assert after == dict(expected[i].items())
    assert sorted(seen) == list(range(LANE_SPACE.size))


# -- pinned hashes ---------------------------------------------------------
#
# Computed before column tabulation existed.  A changed table would key
# every stored closure differently and turn the whole store cold.


def test_flowchart_system_hash_is_pinned():
    ps = build_program_system(_certifier_source(), CERTIFIER_DOMAINS)
    kernel = CompiledSystem(ps.system).kernel
    assert system_hash(kernel) == "1e7b3f8b50a87e78f3522ae0e4918b5e"


def test_builder_system_hash_is_pinned():
    b = SystemBuilder()
    b.booleans("m")
    b.integers("alpha", "beta", bits=2)
    b.op_if("delta", var("m"), "beta", var("alpha"))
    b.op_assign("gamma", "alpha", (var("alpha") + var("beta")) % 4)
    kernel = CompiledSystem(b.build()).kernel
    assert system_hash(kernel) == "8c1b67b33a9c102084f4bd4737f29adb"


# -- equality constraints ----------------------------------------------------


@pytest.fixture(scope="module")
def mixed() -> System:
    space = Space(
        {"a": (0, 1, 2), "b": (False, True), "c": ("x", "y"), "pc": (1, 2, 3)}
    )
    return System(space, [])


def _predicate_ids(compiled: CompiledSystem, constraint: Constraint):
    states = list(compiled.system.space.states())
    ids = [i for i, state in enumerate(states) if constraint(state)]
    return None if len(ids) == len(states) else ids


def _constraints(space: Space):
    at_one = Constraint.equals(space, "pc", 1)
    yield Constraint.true(space)
    yield Constraint.where(space)
    yield at_one
    yield Constraint.equals(space, "c", "y")
    yield Constraint.where(space, a=2, c="x")
    yield at_one & Constraint.equals(space, "b", True)
    yield (at_one & Constraint.equals(space, "a", 0)).renamed("entry")
    yield at_one.renamed("pc=1")
    yield at_one & Constraint.equals(space, "pc", 2)  # contradictory
    yield Constraint.equals(space, "a", 7)  # outside the domain: empty
    yield Constraint.equals(space, "b", 1)  # 1 == True
    yield Constraint.equals(space, "a", True)  # True == 1
    yield Constraint.where(space, b=0.0)  # 0.0 == False


@pytest.mark.parametrize("case", range(13))
def test_equality_sat_ids_match_the_predicate(mixed, case):
    constraint = list(_constraints(mixed.space))[case]
    assert constraint.equalities is not None
    compiled = CompiledSystem(mixed)
    structural = compiled.sat_ids(constraint)
    expected = _predicate_ids(compiled, constraint)
    assert (None if structural is None else list(structural)) == expected
    # The opaque path (same predicate, no recorded equalities) agrees,
    # so both resolve to one store key.
    opaque = Constraint(mixed.space, constraint, name=constraint.name)
    assert opaque.equalities is None
    assert sat_key(CompiledSystem(mixed).sat_ids(opaque)) == sat_key(structural)


def test_equality_edge_cases(mixed):
    compiled = CompiledSystem(mixed)
    space = mixed.space
    assert compiled.sat_ids(Constraint.true(space)) is None
    assert list(compiled.sat_ids(Constraint.equals(space, "a", 7))) == []
    ones = compiled.sat_ids(Constraint.equals(space, "a", True))
    assert list(ones) == list(compiled.sat_ids(Constraint.equals(space, "a", 1)))
    assert len(ones) == space.size // 3


def test_opaque_operands_stay_opaque(mixed):
    space = mixed.space
    opaque = Constraint(space, lambda s: s["a"] > 0, name="a>0")
    at_one = Constraint.equals(space, "pc", 1)
    assert (opaque & at_one).equalities is None
    assert (at_one & opaque).equalities is None
    assert (at_one | at_one).equalities is None
    assert (~at_one).equalities is None
    assert Constraint.from_states(space, []).equalities is None
    compiled = CompiledSystem(mixed)
    both = opaque & at_one
    assert list(compiled.sat_ids(both)) == _predicate_ids(compiled, both)
