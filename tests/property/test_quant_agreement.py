"""Compiled quantitative substrate agreement: gathers and bucket passes
must change nothing but speed.

Over seeded random systems, histories, and constraint flavours these
tests assert:

- the single-joint measures (`bits_transmitted`, `source_entropy`,
  `equivocation`) are **float-for-float identical** across the compiled
  and object paths — both reduce the same exact ``Fraction`` joint table
  through the deterministic repr-sorted summation in
  :func:`repro.quantitative.entropy.entropy`;
- the averaged measure agrees to float dust (its per-slice terms sum in
  bucket order on the compiled path, support order on the object path);
- **averaged > 0 iff fixed-history strong dependency**: under a uniform
  prior over sat(phi) a Def 1-1 bucket contributes positive mutual
  information exactly when the composed history maps two of its members
  to different target values, which is Def 2-10 — so the quantitative
  measure and `DependencyEngine.depends_history` must agree on
  positivity, query for query;
- the channel layer (matrix cells and Blahut-Arimoto capacity) agrees
  with the object path with NumPy both enabled and forced off;
- histories containing foreign (ad-hoc composite) operations are
  composed on the kernel and return the object path's numbers in all
  five measures that take a history.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.random_systems import (
    random_constraint,
    random_history,
    random_system,
)
from repro.core.engine import DependencyEngine
from repro.core.system import History
from repro.quantitative import (
    QuantEngine,
    StateDistribution,
    bits_transmitted,
    bits_transmitted_averaged,
    capacity_table,
    equivocation,
    source_entropy,
)
from repro.quantitative.bandwidth import capacity as object_capacity
from repro.quantitative.bandwidth import channel_matrix as object_channel_matrix

FLAVOURS = [None, "subset", "autonomous", "coupled"]


def _random_case(seed: int):
    rng = random.Random(seed)
    system = random_system(
        rng,
        n_objects=rng.choice([2, 3]),
        domain_size=rng.choice([2, 3]),
        n_operations=rng.choice([1, 2]),
    )
    flavour = FLAVOURS[seed % len(FLAVOURS)]
    phi = (
        random_constraint(rng, system.space, flavour)
        if flavour is not None
        else None
    )
    return system, phi, rng


def _cells(inputs, outputs, matrix):
    """A channel matrix as ``{(input, output): probability}``."""
    return {
        (a, b): matrix[x][y]
        for x, a in enumerate(inputs)
        for y, b in enumerate(outputs)
    }


def _uniform_pair(system, phi):
    """The same uniform prior on both paths."""
    if phi is None:
        return StateDistribution.uniform_over_space(system.space)
    return StateDistribution.uniform(phi)


@pytest.mark.parametrize("seed", range(20))
def test_single_joint_measures_bit_identical(seed):
    system, phi, rng = _random_case(seed)
    dist = _uniform_pair(system, phi)
    quant = QuantEngine(engine=DependencyEngine(system))
    cdist = quant.uniform(phi)
    names = list(system.space.names)
    for _ in range(2):
        history = random_history(rng, system)
        sources = set(rng.sample(names, rng.randint(1, len(names))))
        target = rng.choice(names)
        assert quant.bits_transmitted(cdist, sources, target, history) == \
            bits_transmitted(dist, sources, target, history)
        assert quant.source_entropy(cdist, sources) == \
            source_entropy(dist, sources)
        assert quant.equivocation(cdist, sources, target, history) == \
            equivocation(dist, sources, target, history)


@pytest.mark.parametrize("seed", range(20))
def test_averaged_measure_agrees_and_tracks_dependency(seed):
    system, phi, rng = _random_case(seed)
    dist = _uniform_pair(system, phi)
    engine = DependencyEngine(system)
    quant = QuantEngine(engine=engine)
    cdist = quant.uniform(phi)
    names = list(system.space.names)
    for _ in range(2):
        history = random_history(rng, system)
        sources = set(rng.sample(names, rng.randint(1, len(names))))
        target = rng.choice(names)
        compiled = quant.bits_transmitted_averaged(
            cdist, sources, target, history
        )
        objective = bits_transmitted_averaged(
            dist, sources, target, history
        )
        assert compiled == pytest.approx(objective, abs=1e-9)
        # Positivity <=> Def 2-10 strong dependency under the same phi:
        # a bucket has positive within-slice MI iff the composed history
        # sends two of its members to different target values.
        holds = bool(engine.depends_history(sources, target, history, phi))
        assert (compiled > 1e-12) == holds, (
            f"averaged={compiled} but depends_history={holds} for "
            f"{sorted(sources)} |>^{history!r} {target}"
        )


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("numpy_env", ["0", "1"])
def test_channel_layer_agreement_both_kernels(seed, numpy_env, monkeypatch):
    monkeypatch.setenv("REPRO_BITSET_NUMPY", numpy_env)
    system, phi, rng = _random_case(seed)
    dist = _uniform_pair(system, phi)
    quant = QuantEngine(engine=DependencyEngine(system))
    cdist = quant.uniform(phi)
    names = list(system.space.names)
    history = random_history(rng, system)
    sources = set(rng.sample(names, rng.randint(1, len(names))))
    target = rng.choice(names)
    ci, co, cm = quant.channel_matrix(cdist, sources, target, history)
    oi, oo, om = object_channel_matrix(dist, sources, target, history)
    assert ci == oi
    assert _cells(ci, co, cm) == _cells(oi, oo, om)
    assert quant.capacity(cdist, sources, target, history) == pytest.approx(
        object_capacity(dist, sources, target, history), abs=1e-6
    )


@pytest.mark.parametrize("seed", range(8))
def test_foreign_history_falls_back_to_object_numbers(seed):
    system, phi, rng = _random_case(seed)
    if len(system.operations) < 1:
        pytest.skip("needs an operation to compose")
    dist = _uniform_pair(system, phi)
    quant = QuantEngine(engine=DependencyEngine(system))
    cdist = quant.uniform(phi)
    names = list(system.space.names)
    d = rng.choice(system.operations)
    composite = d.then(rng.choice(system.operations))
    history = History.of(composite)
    sources = set(rng.sample(names, rng.randint(1, len(names))))
    target = rng.choice(names)
    pushed = quant.push_forward(cdist, history).to_state_distribution()
    assert dict(pushed.items()) == dict(dist.push_forward(history).items())
    assert quant.bits_transmitted(cdist, sources, target, history) == \
        bits_transmitted(dist, sources, target, history)
    assert quant.bits_transmitted_averaged(
        cdist, sources, target, history
    ) == pytest.approx(
        bits_transmitted_averaged(dist, sources, target, history), abs=1e-12
    )
    assert quant.capacity_table(cdist, history) == capacity_table(dist, history)
    ci, co, cm = quant.channel_matrix(cdist, sources, target, history)
    oi, oo, om = object_channel_matrix(dist, sources, target, history)
    assert ci == oi
    assert _cells(ci, co, cm) == _cells(oi, oo, om)
    assert quant.capacity(cdist, sources, target, history) == pytest.approx(
        object_capacity(dist, sources, target, history), abs=1e-6
    )
