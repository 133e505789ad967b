"""Unit tests for the compiled quantitative substrate
(:mod:`repro.quantitative.compiled`): distribution round-trips, exact
parity with the object channel path, the batched channel layer, and
the foreign-operation fallback."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro import obs
from repro.core.constraints import Constraint
from repro.core.errors import DistributionError
from repro.core.system import History
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var
from repro.quantitative import (
    CompiledDistribution,
    QuantEngine,
    StateDistribution,
    bits_transmitted,
    bits_transmitted_averaged,
    capacity_table,
    equivocation,
    interference,
    source_entropy,
)
from repro.quantitative.bandwidth import capacity as object_capacity
from repro.quantitative.bandwidth import channel_matrix as object_channel_matrix


@pytest.fixture(scope="module")
def modsum():
    """beta <- (a1 + a2) mod 8, the paper's example at 3 bits."""
    b = SystemBuilder().integers("a1", "a2", "beta", bits=3)
    b.op_assign("d", "beta", (var("a1") + var("a2")) % 8)
    system = b.build()
    return system, History.of(system.operation("d"))


@pytest.fixture(scope="module")
def quant(modsum):
    system, _ = modsum
    return QuantEngine(system)


@pytest.fixture(scope="module")
def uniform_obj(modsum):
    system, _ = modsum
    return StateDistribution.uniform_over_space(system.space)


class TestCompiledDistribution:
    def test_round_trip_preserves_exact_masses(self, modsum, quant, uniform_obj):
        cd = CompiledDistribution.from_state_distribution(
            quant.engine.compiled_system(), uniform_obj
        )
        back = cd.to_state_distribution()
        assert dict(back.items()) == dict(uniform_obj.items())

    def test_uniform_over_space_matches_object(self, quant, uniform_obj):
        cd = quant.uniform()
        assert cd.uniform
        assert dict(cd.to_state_distribution().items()) == dict(
            uniform_obj.items()
        )

    def test_uniform_over_constraint(self, modsum, quant):
        system, _ = modsum
        phi = Constraint(system.space, lambda s: s["beta"] == 0, name="b0")
        cd = quant.uniform(phi)
        dist = cd.to_state_distribution()
        assert all(s["beta"] == 0 for s, _ in dist.items())
        assert sum(p for _, p in dist.items()) == 1

    def test_uniform_over_unsatisfiable_rejected(self, modsum, quant):
        system, _ = modsum
        never = Constraint(system.space, lambda s: False, name="ff")
        with pytest.raises(DistributionError):
            quant.uniform(never)

    def test_parallel_arrays_enforced(self, quant):
        compiled = quant.engine.compiled_system()
        with pytest.raises(DistributionError):
            CompiledDistribution(compiled, [0, 1], [Fraction(1)])

    def test_push_forward_matches_object(self, modsum, quant, uniform_obj):
        _, h = modsum
        pushed = quant.push_forward(quant.uniform(), h)
        expected = uniform_obj.push_forward(h)
        assert dict(pushed.to_state_distribution().items()) == dict(
            expected.items()
        )


class TestMeasureParity:
    """Single-joint measures must be float-for-float identical: both
    paths reduce the same exact Fraction table with the same
    deterministic repr-sorted summation."""

    def test_bits_transmitted_identical(self, modsum, quant, uniform_obj):
        _, h = modsum
        cd = quant.uniform()
        for sources in ({"a1"}, {"a2"}, {"a1", "a2"}):
            assert quant.bits_transmitted(cd, sources, "beta", h) == \
                bits_transmitted(uniform_obj, sources, "beta", h)

    def test_source_entropy_identical(self, quant, uniform_obj):
        cd = quant.uniform()
        assert quant.source_entropy(cd, {"a1"}) == \
            source_entropy(uniform_obj, {"a1"})

    def test_equivocation_identical(self, modsum, quant, uniform_obj):
        _, h = modsum
        assert quant.equivocation(quant.uniform(), {"a1"}, "beta", h) == \
            equivocation(uniform_obj, {"a1"}, "beta", h)

    def test_averaged_measure_close(self, modsum, quant, uniform_obj):
        _, h = modsum
        compiled = quant.bits_transmitted_averaged(
            quant.uniform(), {"a1"}, "beta", h
        )
        assert compiled == pytest.approx(
            bits_transmitted_averaged(uniform_obj, {"a1"}, "beta", h),
            abs=1e-9,
        )
        assert compiled == pytest.approx(3.0)

    def test_interference_matches(self, modsum, quant, uniform_obj):
        _, h = modsum
        assert quant.interference(
            quant.uniform(), {"a1"}, {"a2"}, "beta", h
        ) == pytest.approx(
            interference(uniform_obj, {"a1"}, {"a2"}, "beta", h)
        )

    def test_capacity_table_identical(self, modsum, quant, uniform_obj):
        _, h = modsum
        assert quant.capacity_table(quant.uniform(), h) == capacity_table(
            uniform_obj, h
        )

    def test_weighted_distribution_parity(self, modsum, quant, uniform_obj):
        """The non-uniform code path agrees too."""
        _, h = modsum
        skewed = uniform_obj.condition(lambda s: s["a2"] < 3)
        cd = quant._as_compiled(skewed)
        assert not cd.uniform
        assert quant.bits_transmitted(cd, {"a1"}, "beta", h) == \
            bits_transmitted(skewed, {"a1"}, "beta", h)
        assert quant.bits_transmitted_averaged(
            cd, {"a1"}, "beta", h
        ) == pytest.approx(
            bits_transmitted_averaged(skewed, {"a1"}, "beta", h), abs=1e-9
        )

    def test_empty_history_transmits_nothing(self, quant):
        assert quant.bits_transmitted(
            quant.uniform(), {"a1"}, "beta", History(())
        ) == 0.0


class TestChannelLayer:
    def test_channel_matrix_matches_object(self, modsum, quant, uniform_obj):
        _, h = modsum
        ci, co, cm = quant.channel_matrix(quant.uniform(), {"a1"}, "beta", h)
        oi, oo, om = object_channel_matrix(uniform_obj, {"a1"}, "beta", h)
        assert ci == oi
        cells = lambda I, O, M: {
            (a, b): M[x][y]
            for x, a in enumerate(I)
            for y, b in enumerate(O)
        }
        assert cells(ci, co, cm) == cells(oi, oo, om)
        # Every row is an exact conditional distribution.
        for row in cm:
            assert sum(row) == pytest.approx(1.0)

    def test_capacity_matches_object(self, modsum, quant, uniform_obj):
        _, h = modsum
        assert quant.capacity(
            quant.uniform(), {"a1"}, "beta", h
        ) == pytest.approx(
            object_capacity(uniform_obj, {"a1"}, "beta", h), abs=1e-6
        )

    def test_noiseless_copy_capacity(self):
        b = SystemBuilder().integers("src", "dst", bits=2)
        b.op_assign("cp", "dst", var("src"))
        system = b.build()
        quant = QuantEngine(system)
        cap = quant.capacity(
            quant.uniform(), {"src"}, "dst", system.operation("cp")
        )
        assert cap == pytest.approx(2.0, abs=1e-6)


class TestForeignOperationFallback:
    def test_composite_falls_back_to_object_path(self, modsum, quant, uniform_obj):
        system, _ = modsum
        d = system.operation("d")
        composite = d.then(d)  # not one of the system's operations
        h = History.of(composite)
        obs.enable(reset=True)
        try:
            got = quant.bits_transmitted(quant.uniform(), {"a1"}, "beta", h)
            counters = obs.snapshot().counters
        finally:
            obs.disable()
            obs.reset()
        assert got == bits_transmitted(uniform_obj, {"a1"}, "beta", h)
        assert counters.get("quant.fallback_object", 0) >= 1
