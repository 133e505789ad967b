"""The generator's verdicts against the repository's seed reference.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

from gen import ProgramGenerator, Shape
from repro.core.reachability import _seed_depends_ever
from repro.systems.program import build_program_system
from repro.cli import parse_domain

SMALL = [Shape(3, 3, 4), Shape(5, 3, 3), Shape(3, 4, 2)]


def _system(program):
    domains = dict(parse_domain(f"{n}={spec}") for n, spec in program.vars.items())
    return build_program_system(program.text, domains)


@pytest.mark.parametrize("shape", SMALL, ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_verdicts_match_seed_reference(shape, seed):
    program = ProgramGenerator(seed, shape).next()
    ps = _system(program)
    assert ps.system.space.size == shape.states
    phi = ps.entry_constraint()
    for source, target in program.pairs():
        reference = _seed_depends_ever(ps.system, {source}, target, phi)
        verdict, length = program.expect(source, target)
        assert bool(reference) == (verdict == "flow"), (source, target)
        if reference:
            assert len(reference.witness.history) == length, (source, target)


def _closure_size(ps, source):
    """Reachable unordered pairs of distinct states from the Def 2-8 seeds,
    by a plain BFS over ``State`` objects."""
    seeds = {}
    for state in ps.entry_constraint().states():
        seeds.setdefault(state.restrict_away(frozenset([source])), []).append(state)
    frontier = {
        frozenset((a, b))
        for bucket in seeds.values()
        for i, a in enumerate(bucket)
        for b in bucket[i + 1 :]
    }
    seen = set(frontier)
    while frontier:
        nxt = set()
        for pair in frontier:
            a, b = tuple(pair)
            for op in ps.system.operations:
                succ = frozenset((op(a), op(b)))
                if len(succ) == 2 and succ not in seen:
                    seen.add(succ)
                    nxt.add(succ)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("shape", SMALL, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_closure_size_is_fixed_by_shape(shape, seed):
    program = ProgramGenerator(seed, shape).next()
    ps = _system(program)
    for source in program.names:
        assert _closure_size(ps, source) == shape.closure_pairs


def test_stream_is_seeded_and_distinct():
    shape = Shape(5, 4, 3)
    assert ProgramGenerator(7, shape).next() == ProgramGenerator(7, shape).next()
    gen = ProgramGenerator(7, shape)
    texts = [gen.next().text for _ in range(200)]
    assert len(set(texts)) == len(texts)


def test_both_verdicts_occur():
    program = ProgramGenerator(0, Shape(5, 4, 7)).next()
    verdicts = {program.expect(s, o)[0] for s, o in program.pairs()}
    assert verdicts == {"flow", "no_flow"}
