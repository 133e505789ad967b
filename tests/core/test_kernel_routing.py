"""Engine-side kernel selection.

The engine picks between the scalar and bulk (bitset) compiled kernels
per :data:`~repro.core.compiled.KERNEL_MODES`: explicitly via the
``kernel=`` constructor argument, ambiently via ``REPRO_KERNEL``, or by
the ``auto`` space-size threshold.  Without NumPy every mode runs the
scalar loop.
"""

from __future__ import annotations

import pytest

from repro.core.bitset import ENV_NUMPY_FLAG
from repro.core.compiled import BITSET_AUTO_MIN_STATES
from repro.core.engine import ENV_KERNEL, DependencyEngine, _resolve_kernel_mode
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var


def xor_ring(n: int):
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def relay():
    b = SystemBuilder().booleans("a", "m", "b")
    b.op_assign("d1", "m", var("a"))
    b.op_assign("d2", "b", var("m"))
    return b.build()


class TestModeResolution:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(ENV_KERNEL, raising=False)
        assert _resolve_kernel_mode(None) == "auto"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, "bitset")
        assert _resolve_kernel_mode(None) == "bitset"
        # The explicit argument beats the environment.
        assert _resolve_kernel_mode("scalar") == "scalar"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _resolve_kernel_mode("vectorized")
        with pytest.raises(ValueError):
            DependencyEngine(relay(), kernel="vectorized")

    def test_auto_threshold_routes_by_space_size(self):
        small = DependencyEngine(relay())  # 8 states
        assert small.system.space.size < BITSET_AUTO_MIN_STATES
        assert small._closure_mode() == "scalar"
        big = DependencyEngine(xor_ring(6))  # 64 states
        assert big.system.space.size >= BITSET_AUTO_MIN_STATES
        assert big._closure_mode() == "bitset"

    def test_provenance_tracks_the_closure_kernel(self):
        scalar = DependencyEngine(xor_ring(6), kernel="scalar")
        assert scalar.depends_ever({"x0"}, "x1").provenance.kernel == "compiled"
        bulk = DependencyEngine(xor_ring(6), kernel="bitset")
        assert (
            bulk.depends_ever({"x0"}, "x1").provenance.kernel
            == "compiled-bitset"
        )

    @pytest.mark.parametrize("kernel", ["auto", "bitset"])
    def test_without_numpy_every_mode_runs_scalar(self, kernel, monkeypatch):
        system = xor_ring(6)  # 64 states: auto would pick the bitset kernel
        bulk = DependencyEngine(system, kernel="bitset")
        names = system.space.names
        expected = {(x, y): bulk.depends_ever({x}, y) for x in names for y in names}
        monkeypatch.setenv(ENV_NUMPY_FLAG, "0")
        engine = DependencyEngine(system, kernel=kernel)
        assert engine._closure_mode() == "scalar"
        for (x, y), reference in expected.items():
            result = engine.depends_ever({x}, y)
            assert result.provenance.kernel == "compiled"
            assert bool(result) == bool(reference)
            if reference:
                assert result.witness == reference.witness


class TestCacheStats:
    def test_cache_stats_includes_kernel_sections(self):
        engine = DependencyEngine(relay())
        stats = engine.cache_stats()
        for key in ("kernel_composed", "kernel_sat_ids"):
            assert key in stats
        # Before compilation the kernel memos report empty at capacity.
        assert stats["kernel_composed"]["size"] == 0
        assert stats["kernel_composed"]["capacity"] > 0
