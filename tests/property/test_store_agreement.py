"""Store agreement and invalidation soundness over random systems.

Two properties anchor the persistence layer:

1. **Agreement.**  A store-backed engine — cold (computing and
   persisting) or warm (deserializing another engine's rows) — must be
   *bit-identical* to the seed storeless path: same verdicts, same
   witness histories, same closure order/parents.  Checked for both
   kernels with telemetry enabled, across constraint flavours.

2. **Invalidation soundness.**  Mutate one random operation of a random
   system.  ``diff_systems`` reuses every closure whose touched-states
   bitset avoids the changed successor entries and recomputes the rest;
   soundness (docs/FORMALISM.md) demands that *every verdict that
   actually changed came from a recomputed (invalidated) closure* and
   that the reported after-verdicts equal a full from-scratch recompute.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.analysis.diff import diff_systems
from repro.analysis.random_systems import random_constraint, random_system
from repro.core.engine import DependencyEngine
from repro.core.store import PersistentStore
from repro.core.system import Operation, System

FLAVOURS = [None, "subset", "autonomous", "coupled"]


def _random_case(seed: int):
    rng = random.Random(seed)
    system = random_system(
        rng,
        n_objects=rng.choice([2, 3]),
        domain_size=rng.choice([2, 3]),
        n_operations=rng.choice([1, 2, 3]),
    )
    flavour = FLAVOURS[seed % len(FLAVOURS)]
    phi = (
        random_constraint(rng, system.space, flavour)
        if flavour is not None
        else None
    )
    return rng, system, phi


def _witness_ops(result):
    if result.witness is None:
        return None
    return tuple(op.name for op in result.witness.history)


def _all_verdicts(engine, names, phi):
    return {
        (a, b): (bool(r), _witness_ops(r))
        for a in names
        for b in names
        for r in [engine.depends_ever({a}, b, phi)]
    }


@pytest.mark.parametrize("kernel", ["scalar", "bitset"])
@pytest.mark.parametrize("seed", range(12))
def test_store_backed_equals_cold_equals_seed(tmp_path, seed, kernel):
    _, system, phi = _random_case(seed)
    names = list(system.space.names)
    obs.enable(reset=True)
    try:
        seed_verdicts = _all_verdicts(
            DependencyEngine(system, kernel=kernel), names, phi
        )
        path = tmp_path / "memo.sqlite"
        with PersistentStore(path) as store:
            cold_engine = DependencyEngine(system, kernel=kernel, store=store)
            cold = _all_verdicts(cold_engine, names, phi)
        with PersistentStore(path) as store:
            warm_engine = DependencyEngine(system, kernel=kernel, store=store)
            warm = _all_verdicts(warm_engine, names, phi)
            assert store.misses == 0 and store.hits > 0
            # The deserialized closures are bit-identical, not merely
            # verdict-equivalent.
            for a in names:
                cold_closure = cold_engine._closure(frozenset({a}), phi)
                warm_closure = warm_engine._closure(frozenset({a}), phi)
                assert list(warm_closure.order) == list(cold_closure.order)
                assert list(warm_closure.parents) == list(cold_closure.parents)
        assert cold == seed_verdicts
        assert warm == seed_verdicts
        counters = obs.snapshot().counters
        assert counters.get("store.write", 0) > 0
        assert counters.get("store.hit", 0) > 0
    finally:
        obs.disable()


def _mutate_one_operation(rng: random.Random, system: System):
    """A copy of ``system`` with one operation redirected on one state
    (possibly to itself — the delta may be empty, which diff must report
    as zero changed entries)."""
    states = list(system.space.states())
    victim = rng.choice(system.operations)
    moved_state = rng.choice(states)
    new_image = rng.choice(states)

    def mutated(s, _victim=victim, _from=moved_state, _to=new_image):
        return _to if s == _from else _victim(s)

    operations = [
        Operation(op.name, mutated) if op is victim else op
        for op in system.operations
    ]
    return System(system.space, operations, check_closed=False)


@pytest.mark.parametrize("seed", range(16))
def test_invalidation_soundness(tmp_path, seed):
    rng, old, phi = _random_case(seed)
    new = _mutate_one_operation(rng, old)
    names = list(old.space.names)

    with PersistentStore(tmp_path / "memo.sqlite") as store:
        report = diff_systems(
            old, new, constraints=[phi], store=store
        )

    # Full recompute on fresh engines: the ground truth.
    e_old = DependencyEngine(old)
    e_new = DependencyEngine(new)
    expected_changed = set()
    for a in names:
        before = e_old._closure(frozenset({a}), phi).first_differing()
        after = e_new._closure(frozenset({a}), phi).first_differing()
        for b in names:
            if (b in before) != (b in after):
                expected_changed.add((a, b))

    got_changed = {
        (change.sources[0], change.target) for change in report.changed
    }
    assert got_changed == expected_changed

    # Soundness: a verdict can only change inside the invalidated set.
    for change in report.changed:
        assert change.recomputed, (
            f"changed verdict {change} came from a reused closure — "
            "the touched-states invalidation is unsound"
        )
    if not report.changed_states:
        # Empty delta (the mutation was the identity redirect): every
        # closure must have been carried across.
        assert report.closures_recomputed == 0
    assert report.closures_total == len(names)
