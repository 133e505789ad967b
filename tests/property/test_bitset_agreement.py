"""Bitset-kernel agreement: bulk expansion must change nothing but speed.

The bulk frontier kernel (:mod:`repro.core.bitset`) claims something
stronger than verdict agreement with the scalar compiled kernel: its
``order`` sequence and parent pointers are *byte-identical*, so every
shortest witness — not just every verdict — survives the kernel swap.
Over seeded random systems these tests assert, across constraint
flavours:

- identical closure ``order`` and ``parents`` (compared as lists — the
  scalar kernel returns an ``array('q')``, the bulk kernel its int64
  NumPy vector, both packed by BFS position);
- identical verdicts *and identical witness histories* for every
  (source, target) single and set query;
- with NumPy switched off (``REPRO_BITSET_NUMPY=0``) a bitset-requested
  engine runs the scalar loop, reports ``compiled`` provenance, and still
  matches the NumPy bitset kernel byte for byte;
- zero-expansion budgets trip identically, and a tripped bulk run
  memoizes nothing (soundness: the memo only ever holds complete
  closures);
- agreement is unchanged with telemetry enabled;
- the thread-pool warm (``max_workers``) in bitset mode produces
  closures identical to serial scalar ones.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro import obs
from repro.analysis.random_systems import random_constraint, random_system
from repro.core.bitset import ENV_NUMPY_FLAG
from repro.core.budget import BudgetExceededError, ExecutionBudget
from repro.core.constraints import Constraint
from repro.core.engine import DependencyEngine
from repro.core.system import System

FLAVOURS = [None, "subset", "autonomous", "coupled"]


def _random_case(seed: int) -> tuple[System, Constraint | None]:
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
    return system, phi


def _witness_ops(result) -> tuple[str, ...] | None:
    if result.witness is None:
        return None
    return tuple(op.name for op in result.witness.history)


def _scalar_twin(system, numpy_path, monkeypatch) -> DependencyEngine:
    """The engine to compare the NumPy bitset kernel against: a
    ``kernel="scalar"`` engine, or with ``numpy_path`` off a
    ``kernel="bitset"`` engine under ``REPRO_BITSET_NUMPY=0``, which runs
    the scalar loop too.  Compute the bitset closures before calling this
    with ``numpy_path`` off."""
    if numpy_path:
        return DependencyEngine(system, kernel="scalar")
    monkeypatch.setenv(ENV_NUMPY_FLAG, "0")
    return DependencyEngine(system, kernel="bitset")


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("numpy_path", [True, False])
def test_closures_and_witnesses_identical(seed, numpy_path, monkeypatch):
    system, phi = _random_case(seed)
    bulk = DependencyEngine(system, kernel="bitset")
    for source in system.space.names:
        bulk._closure({source}, phi)
    scalar = _scalar_twin(system, numpy_path, monkeypatch)
    for source in system.space.names:
        s_closure = scalar._closure({source}, phi)
        b_closure = bulk._closure({source}, phi)
        assert list(b_closure.order) == list(s_closure.order)
        assert list(b_closure.parents) == list(s_closure.parents)
        assert b_closure.kernel_path == "compiled-bitset"
        assert s_closure.kernel_path == "compiled"
        for target in system.space.names:
            s_result = scalar.depends_ever({source}, target, phi)
            b_result = bulk.depends_ever({source}, target, phi)
            assert bool(b_result) == bool(s_result)
            assert _witness_ops(b_result) == _witness_ops(s_result)
            assert b_result.provenance.kernel == "compiled-bitset"


@pytest.mark.parametrize("seed", range(8))
def test_set_targets_identical(seed):
    system, phi = _random_case(seed)
    scalar = DependencyEngine(system, kernel="scalar")
    bulk = DependencyEngine(system, kernel="bitset")
    names = sorted(system.space.names)
    target_sets = [set(names[:2]), set(names)]
    for source in names:
        for targets in target_sets:
            s_result = scalar.depends_ever_set({source}, targets, phi)
            b_result = bulk.depends_ever_set({source}, targets, phi)
            assert bool(b_result) == bool(s_result)
            assert _witness_ops(b_result) == _witness_ops(s_result)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("numpy_path", [True, False])
def test_zero_budget_trips_identically(seed, numpy_path, monkeypatch):
    system, phi = _random_case(seed)
    budget = ExecutionBudget(max_expanded=0)
    source = system.space.names[0]
    target = system.space.names[-1]

    def outcome(engine):
        try:
            engine.depends_ever({source}, target, phi, budget=budget)
            return "completed"
        except BudgetExceededError as exc:
            # Soundness: a tripped run memoizes nothing.
            assert engine.cache_stats()["closures"]["size"] == 0
            return ("tripped", exc.partial.expanded)

    bulk = outcome(DependencyEngine(system, kernel="bitset"))
    assert outcome(_scalar_twin(system, numpy_path, monkeypatch)) == bulk


@pytest.mark.parametrize("seed", range(4))
def test_agreement_with_telemetry_enabled(seed):
    system, phi = _random_case(seed)
    obs.enable(reset=True)
    try:
        scalar = DependencyEngine(system, kernel="scalar")
        bulk = DependencyEngine(system, kernel="bitset")
        for source in system.space.names:
            for target in system.space.names:
                s_result = scalar.depends_ever({source}, target, phi)
                b_result = bulk.depends_ever({source}, target, phi)
                assert bool(b_result) == bool(s_result)
                assert _witness_ops(b_result) == _witness_ops(s_result)
        snap = obs.snapshot()
        # A non-empty bulk closure must have reported its level count;
        # degenerate systems (no seed pairs) legitimately report none.
        any_pairs = any(
            len(bulk._closure({source}, phi)) > 0
            for source in system.space.names
        )
        if any_pairs:
            assert snap.counters.get("kernel.bitset.levels", 0) >= 1
    finally:
        obs.disable()


@pytest.mark.parametrize("seed", [0, 5, 10])
def test_threaded_bitset_warm_identical_to_serial_scalar(seed):
    system, phi = _random_case(seed)
    pooled = DependencyEngine(system, kernel="bitset")
    serial = DependencyEngine(system, kernel="scalar")
    family = [frozenset([n]) for n in system.space.names]
    pooled._warm(family, phi, max_workers=2)
    for source_set in family:
        p_closure = pooled._closure(source_set, phi)
        s_closure = serial._closure(source_set, phi)
        assert list(p_closure.order) == list(s_closure.order)
        assert list(p_closure.parents) == list(s_closure.parents)
