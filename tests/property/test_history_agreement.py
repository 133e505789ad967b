"""Batched fixed-history agreement: composed arrays must change nothing
but speed.

:meth:`DependencyEngine.depends_history` / :meth:`depends_history_set`
answer Def 2-10 / Def 5-6 queries from one sweep of the composed
successor array of H over the Def 1-1 buckets of sat(phi), memoized per
``(A, H, phi)``; ``dependency._seed_transmits`` /
``_seed_transmits_to_set`` remain the direct per-state executable
specification.  Over seeded random systems and random multi-operation
histories these tests assert, across constraint flavours:

- identical ``holds`` verdicts against the seed reference, for single
  and set targets;
- witness pairs are not merely valid but *identical* to the seed
  checker's (both scan the same buckets in enumeration order and
  compare to the bucket's first member), and every witness replays;
- the public :func:`transmits` / :func:`transmits_to_set` wrappers route
  through the shared engine without observable change, and fall back to
  the seed path for histories built from foreign operation objects
  (``Operation.then`` composites);
- the step-flow memo is keyed by the *resolved* constraint: ``None`` and
  any trivially-true instance share one entry.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.random_systems import random_constraint, random_system
from repro.core.constraints import Constraint
from repro.core.dependency import (
    DependencyResult,
    _seed_transmits,
    _seed_transmits_to_set,
    transmits,
    transmits_to_set,
)
from repro.core.engine import DependencyEngine, shared_engine
from repro.core.errors import ForeignOperationError
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


def _random_history(system: System, rng: random.Random) -> History:
    length = rng.randint(0, 4)
    return History(rng.choice(system.operations) for _ in range(length))


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


def _assert_same_witness(
    batched: DependencyResult, seed_result: DependencyResult
) -> None:
    assert batched.witness.sigma1 == seed_result.witness.sigma1
    assert batched.witness.sigma2 == seed_result.witness.sigma2
    assert batched.witness.history == seed_result.witness.history


@pytest.mark.parametrize("seed", range(24))
def test_depends_history_matches_seed_single_target(seed):
    system, phi, rng = _random_case(seed)
    engine = DependencyEngine(system)
    for _ in range(3):
        history = _random_history(system, rng)
        for source in system.space.names:
            for target in system.space.names:
                seed_result = _seed_transmits(
                    system, {source}, target, history, phi
                )
                batched = engine.depends_history({source}, target, history, phi)
                assert bool(batched) == bool(seed_result), (
                    f"verdict mismatch for {source} |>^{history!r} "
                    f"{target} under {phi.name if phi else 'tt'}"
                )
                if batched:
                    _assert_witness_replays(batched, phi)
                    _assert_same_witness(batched, seed_result)


@pytest.mark.parametrize("seed", range(24))
def test_depends_history_set_matches_seed(seed):
    system, phi, rng = _random_case(seed)
    engine = DependencyEngine(system)
    names = list(system.space.names)
    for _ in range(6):
        history = _random_history(system, rng)
        sources = frozenset(rng.sample(names, rng.randint(1, len(names))))
        targets = frozenset(rng.sample(names, rng.randint(1, len(names))))
        seed_result = _seed_transmits_to_set(
            system, sources, targets, history, phi
        )
        batched = engine.depends_history_set(sources, targets, history, phi)
        assert bool(batched) == bool(seed_result), (
            f"set-target verdict mismatch for {sorted(sources)} "
            f"|>^{history!r} {sorted(targets)} under "
            f"{phi.name if phi else 'tt'}"
        )
        if batched:
            _assert_witness_replays(batched, phi)
            _assert_same_witness(batched, seed_result)


@pytest.mark.parametrize("seed", range(12))
def test_routed_public_api_matches_seed(seed):
    """transmits/transmits_to_set route through shared_engine invisibly."""
    system, phi, rng = _random_case(seed)
    names = list(system.space.names)
    for _ in range(4):
        history = _random_history(system, rng)
        source = rng.choice(names)
        target = rng.choice(names)
        routed = transmits(system, {source}, target, history, phi)
        seed_result = _seed_transmits(system, {source}, target, history, phi)
        assert bool(routed) == bool(seed_result)
        if routed:
            _assert_same_witness(routed, seed_result)
        sources = frozenset(rng.sample(names, rng.randint(1, len(names))))
        targets = frozenset(rng.sample(names, rng.randint(1, len(names))))
        routed_set = transmits_to_set(system, sources, targets, history, phi)
        seed_set = _seed_transmits_to_set(system, sources, targets, history, phi)
        assert bool(routed_set) == bool(seed_set)
        if routed_set:
            _assert_same_witness(routed_set, seed_set)


@pytest.mark.parametrize("seed", range(8))
def test_memoized_requery_is_stable(seed):
    """A second identical query must return the same verdict and witness
    pair (served from the memoized table, not recomputed)."""
    system, phi, rng = _random_case(seed)
    engine = DependencyEngine(system)
    history = _random_history(system, rng)
    for source in system.space.names:
        for target in system.space.names:
            first = engine.depends_history({source}, target, history, phi)
            second = engine.depends_history({source}, target, history, phi)
            assert bool(first) == bool(second)
            if first:
                _assert_same_witness(second, first)


@pytest.mark.parametrize("seed", range(6))
def test_foreign_operations_fall_back_to_seed(seed):
    """Histories of ad-hoc composites (Operation.then) are not the
    system's own operations: the engine refuses them and the public
    wrapper falls back to the direct checker, verdict unchanged."""
    system, phi, rng = _random_case(seed)
    ops = system.operations
    composite = ops[0].then(ops[-1])
    engine = DependencyEngine(system)
    names = list(system.space.names)
    source, target = rng.choice(names), rng.choice(names)
    with pytest.raises(ForeignOperationError):
        engine.depends_history({source}, target, composite, phi)
    routed = transmits(system, {source}, target, composite, phi)
    seed_result = _seed_transmits(system, {source}, target, composite, phi)
    assert bool(routed) == bool(seed_result)
    if routed:
        _assert_same_witness(routed, seed_result)


def test_step_flow_memo_keyed_by_resolved_constraint():
    """operation_flows(None) and any trivially-true constraint instance
    share one memo entry (and one computation)."""
    rng = random.Random(5)
    system = random_system(rng, n_objects=3, domain_size=2, n_operations=2)
    engine = shared_engine(system)
    tt = Constraint.true(system.space)
    everything = Constraint(system.space, lambda s: True, name="custom-true")
    flows = engine.operation_flows(None)
    assert engine.operation_flows(tt) is flows
    assert engine.operation_flows(everything) is flows
    # A genuinely restrictive constraint still gets its own entry.
    some_state = next(iter(system.space.states()))
    narrow = Constraint.from_states(system.space, [some_state], name="narrow")
    assert engine.operation_flows(narrow) is not flows
