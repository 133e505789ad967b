"""Compiled-kernel agreement: integer closures must change nothing but speed.

The compiled engine (:mod:`repro.core.compiled`) answers every query from
a BFS over *canonical unordered* integer-encoded pairs;
``reachability._seed_depends_ever`` and ``dependency._seed_transmits``
remain the per-query executable specification.  Over seeded random
systems (:mod:`repro.analysis.random_systems`) these tests assert, across
constraint flavours:

- identical ``holds`` verdicts for every (source, target) query against
  the seed reference, for single and set targets;
- every positive compiled witness *replays* (phi-satisfying pair, equal
  except at A, history produces the difference) and is shortest (same
  length as the seed BFS's);
- the explicit unordered-pair symmetry invariant: the canonical closure
  equals the ordered Def 2-8 pair graph modulo swap (minus diagonal
  pairs, which carry no distinguishing information and are pruned by the
  kernel);
- compiled single-step flows match the seed fixed-history checker on
  every one-operation history;
- the thread-pool warm (``max_workers``) produces closures identical to
  serial.

Two test names still mention the object engine they were first written
against; they keep their names so their results stay comparable.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.random_systems import random_constraint, random_system
from repro.core.constraints import Constraint
from repro.core.dependency import DependencyResult
from repro.core.engine import DependencyEngine
from repro.core.dependency import _seed_transmits
from repro.core.reachability import _seed_depends_ever, _seed_depends_ever_set
from repro.core.system import History, System

FLAVOURS = [None, "subset", "autonomous", "coupled"]


def _random_case(seed: int) -> tuple[System, Constraint | None, random.Random]:
    rng = random.Random(seed)
    system = random_system(
        rng,
        n_objects=rng.choice([2, 3, 4]),
        domain_size=rng.choice([2, 3]),
        n_operations=rng.choice([1, 2, 3]),
    )
    flavour = FLAVOURS[seed % len(FLAVOURS)]
    phi = (
        random_constraint(rng, system.space, flavour)
        if flavour is not None
        else None
    )
    return system, phi, rng


def _assert_witness_replays(
    result: DependencyResult, phi: Constraint | None
) -> None:
    witness = result.witness
    s1, s2 = witness.sigma1, witness.sigma2
    if phi is not None:
        assert phi(s1) and phi(s2), "witness states must satisfy phi"
    assert s1.equal_except_at(s2, witness.sources), (
        "witness states must be equal except at the source set"
    )
    after1 = witness.history(s1)
    after2 = witness.history(s2)
    for target in witness.targets:
        assert after1[target] != after2[target], (
            f"witness history does not produce a difference at {target!r}"
        )


def _ordered_closure(
    system: System, source: str, phi: Constraint | None
) -> set:
    """The Def 2-8 pair graph itself: ordered pairs of phi-states equal
    except at ``source``, closed under applying one operation to both."""
    states = list((phi or Constraint.true(system.space)).states())
    frontier = [
        (s1, s2)
        for s1 in states
        for s2 in states
        if s1 != s2 and s1.equal_except_at(s2, {source})
    ]
    seen = set(frontier)
    while frontier:
        s1, s2 = frontier.pop()
        for op in system.operations:
            pair = (op(s1), op(s2))
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return seen


@pytest.mark.parametrize("seed", range(24))
def test_compiled_matches_object_engine_and_seed(seed):
    system, phi, _ = _random_case(seed)
    compiled = DependencyEngine(system)
    for source in system.space.names:
        for target in system.space.names:
            seed_result = _seed_depends_ever(system, {source}, target, phi)
            compiled_result = compiled.depends_ever({source}, target, phi)
            assert bool(compiled_result) == bool(seed_result), (
                f"verdict mismatch for {source} |> {target} "
                f"under {phi.name if phi else 'tt'}"
            )
            if compiled_result:
                _assert_witness_replays(compiled_result, phi)
                assert len(compiled_result.witness.history) == len(
                    seed_result.witness.history
                ), "compiled witness must be shortest, like the seed BFS's"


@pytest.mark.parametrize("seed", range(24))
def test_compiled_matches_seed_set_targets(seed):
    system, phi, rng = _random_case(seed)
    compiled = DependencyEngine(system)
    names = list(system.space.names)
    for _ in range(6):
        sources = frozenset(rng.sample(names, rng.randint(1, len(names))))
        targets = frozenset(rng.sample(names, rng.randint(1, len(names))))
        seed_result = _seed_depends_ever_set(system, sources, targets, phi)
        compiled_result = compiled.depends_ever_set(sources, targets, phi)
        assert bool(compiled_result) == bool(seed_result), (
            f"set-target verdict mismatch for {sorted(sources)} |> "
            f"{sorted(targets)} under {phi.name if phi else 'tt'}"
        )
        if compiled_result:
            _assert_witness_replays(compiled_result, phi)
            assert len(compiled_result.witness.history) == len(
                seed_result.witness.history
            )


@pytest.mark.parametrize("seed", range(16))
def test_unordered_pair_symmetry_invariant(seed):
    """The canonical closure IS the ordered closure modulo swap.

    Swap-symmetry lemma (docs/FORMALISM.md): applying one operation to
    both pair components commutes with swapping them, so the ordered
    closure is swap-closed up to orientation and quotients onto the
    canonical unordered closure.  Diagonal pairs are the one exception by
    construction: they distinguish nothing and the kernel prunes them.
    """
    system, phi, _ = _random_case(seed)
    compiled = DependencyEngine(system)
    position = {
        state: i
        for i, state in enumerate(compiled.compiled_system().states)
    }
    for source in system.space.names:
        canonical_set = set(compiled._closure({source}, phi).pairs())
        projected = {
            (s1, s2) if position[s1] <= position[s2] else (s2, s1)
            for s1, s2 in _ordered_closure(system, source, phi)
            if s1 != s2
        }
        assert canonical_set == projected, (
            f"canonical closure for ({source}, "
            f"{phi.name if phi else 'tt'}) is not the ordered closure "
            "modulo swap"
        )
        # Every canonical pair is canonically oriented and off-diagonal.
        for s1, s2 in canonical_set:
            assert position[s1] < position[s2]


@pytest.mark.parametrize("seed", range(12))
def test_compiled_flows_match_object_engine(seed):
    system, phi, _ = _random_case(seed)
    flows = DependencyEngine(system).operation_flows(phi)
    names = system.space.names
    for op in system.operations:
        assert flows[op.name] == {
            (x, y)
            for x in names
            for y in names
            if _seed_transmits(system, {x}, y, History.of(op), phi)
        }, op.name


@pytest.mark.parametrize("seed", [1, 6, 11])
def test_threaded_warm_matches_serial(seed):
    """The ``max_workers`` thread fan-out must be invisible in the
    results: same verdicts, same (shortest) witness lengths, witnesses
    replay."""
    system, phi, _ = _random_case(seed)
    serial = DependencyEngine(system).closure(phi)
    fanned = DependencyEngine(system).closure(phi, max_workers=2)
    assert set(serial) == set(fanned)
    for key, serial_cell in serial.items():
        fanned_cell = fanned[key]
        assert bool(fanned_cell) == bool(serial_cell), key
        if fanned_cell:
            _assert_witness_replays(fanned_cell, phi)
            assert len(fanned_cell.witness.history) == len(
                serial_cell.witness.history
            )
