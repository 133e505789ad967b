"""Unit tests for the bulk frontier kernel (repro.core.bitset).

These pin the *mechanics*: vectorized Def 1-1 seeding reproduces the
scalar bucket order exactly, the bulk BFS emits the byte-identical
``order``/parents sequence of the scalar kernel (parents packed by BFS
position), and the vectorized column scans agree with the scalar
sweeps.  Statistical agreement over
random systems lives in ``tests/property/test_bitset_agreement.py``.
"""

from __future__ import annotations

from array import array

import pytest

from repro.core import bitset
from repro.core.bitset import (
    ENV_NUMPY_FLAG,
    INITIAL,
    SCAN_MIN_PAIRS,
    BitsetKernel,
    load_numpy,
)
from repro.core.budget import BudgetExceededError, ExecutionBudget
from repro.core.compiled import CompiledSystem
from repro.core.state import Space
from repro.core.system import Operation, System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var

pytest.importorskip("numpy")


@pytest.fixture
def mixed() -> System:
    space = Space({"a": (0, 1, 2), "b": (False, True), "c": ("x", "y")})
    ops = [
        Operation("bump", lambda s: s.replace(a=(s["a"] + 1) % 3)),
        Operation(
            "couple", lambda s: s.replace(b=s["a"] > 0, c="y" if s["b"] else "x")
        ),
    ]
    return System(space, ops)


def xor_ring(n: int) -> System:
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def scalar_seeds(kernel, source_indices, sat_ids=None) -> list[int]:
    """The Def 2-8 seed codes exactly as the scalar nested loops emit
    them — the reference the vectorized seeding must reproduce."""
    n = kernel.n
    seeds: list[int] = []
    for bucket in kernel.buckets(source_indices, sat_ids).values():
        m = len(bucket)
        for a in range(m - 1):
            base = bucket[a] * n
            for b in range(a + 1, m):
                seeds.append(base + bucket[b])
    return seeds


class TestSeeding:
    def test_seed_codes_match_scalar_bucket_order(self, mixed):
        compiled = CompiledSystem(mixed)
        bulk = BitsetKernel(compiled.kernel)
        for sources in [(0,), (1,), (0, 2), (0, 1, 2)]:
            got = bulk._seed_codes_np(sources, None).tolist()
            assert got == scalar_seeds(compiled.kernel, sources)

    def test_seed_codes_match_on_constrained_subsets(self, mixed):
        compiled = CompiledSystem(mixed)
        bulk = BitsetKernel(compiled.kernel)
        # Every third state: uneven buckets, some singletons.
        sat = array("L", range(0, compiled.kernel.n, 3))
        for sources in [(0,), (2,), (0, 1)]:
            got = bulk._seed_codes_np(sources, sat).tolist()
            assert got == scalar_seeds(compiled.kernel, sources, sat)

    def test_empty_source_set_seeds_within_single_bucket(self, mixed):
        compiled = CompiledSystem(mixed)
        bulk = BitsetKernel(compiled.kernel)
        got = bulk._seed_codes_np((), None).tolist()
        assert got == scalar_seeds(compiled.kernel, ())


class TestClosureIdentity:
    def test_closure_identical_to_scalar(self, mixed):
        compiled = CompiledSystem(mixed)
        bulk = BitsetKernel(compiled.kernel)
        for sources in [(0,), (1,), (2,), (0, 1)]:
            s_order, s_parents = compiled.kernel.closure(sources)
            b_order, b_parents = bulk.closure(sources)
            assert list(b_order) == list(s_order)
            assert list(b_parents) == list(s_parents)

    def test_closure_identical_on_xor_ring(self):
        compiled = CompiledSystem(xor_ring(6))
        bulk = BitsetKernel(compiled.kernel)
        s_order, s_parents = compiled.kernel.closure((0,))
        b_order, b_parents = bulk.closure((0,))
        assert list(b_order) == list(s_order)
        assert list(b_parents) == list(s_parents)

    def test_closure_with_constrained_sat_ids(self, mixed):
        compiled = CompiledSystem(mixed)
        bulk = BitsetKernel(compiled.kernel)
        sat = array("L", range(0, compiled.kernel.n, 2))
        s_order, s_parents = compiled.kernel.closure((0,), sat)
        b_order, b_parents = bulk.closure((0,), sat)
        assert list(b_order) == list(s_order)
        assert list(b_parents) == list(s_parents)

    def test_no_operations_closure_is_seeds_only(self):
        space = Space({"a": (0, 1), "b": (0, 1)})
        compiled = CompiledSystem(System(space, []))
        bulk = BitsetKernel(compiled.kernel)
        s_order, s_parents = compiled.kernel.closure((0,))
        b_order, b_parents = bulk.closure((0,))
        assert list(b_order) == list(s_order)
        assert list(b_parents) == list(s_parents)
        assert all(v == INITIAL for v in b_parents)

    def test_numpy_required_raises_without_numpy(self, mixed, monkeypatch):
        monkeypatch.setenv(ENV_NUMPY_FLAG, "0")
        assert load_numpy() is None
        with pytest.raises(RuntimeError):
            BitsetKernel(CompiledSystem(mixed).kernel)


class TestBudget:
    def test_zero_budget_trips_before_expansion(self):
        compiled = CompiledSystem(xor_ring(6))
        bulk = BitsetKernel(compiled.kernel)
        meter = ExecutionBudget(max_expanded=0).start("test")
        with pytest.raises(BudgetExceededError) as exc:
            bulk.closure((0,), meter=meter)
        assert exc.value.partial.expanded == 0

    def test_small_budget_trips_and_completed_run_is_exact(self):
        compiled = CompiledSystem(xor_ring(6))
        bulk = BitsetKernel(compiled.kernel)
        full_order, _ = compiled.kernel.closure((0,))
        meter = ExecutionBudget(max_expanded=10).start("test")
        with pytest.raises(BudgetExceededError):
            bulk.closure((0,), meter=meter)
        # A budget generous enough to finish changes nothing.
        meter = ExecutionBudget(max_expanded=len(full_order) * 2).start("t")
        order, _ = bulk.closure((0,), meter=meter)
        assert list(order) == list(full_order)

    def test_stats_include_levels(self):
        compiled = CompiledSystem(xor_ring(5))
        bulk = BitsetKernel(compiled.kernel)
        stats: dict[str, int] = {}
        order, parents = bulk.closure((0,), stats=stats)
        assert stats["discovered"] == len(order) == len(parents)
        assert stats["expansions"] == len(order)
        assert stats["levels"] >= 1
        assert stats["frontier_high_water"] >= 1


class TestVectorScans:
    def _big_closure(self):
        compiled = CompiledSystem(xor_ring(6))
        order, parents = compiled.kernel.closure((0,))
        assert len(order) >= SCAN_MIN_PAIRS, "fixture must clear the threshold"
        return compiled, order

    def test_first_differing_scan_matches_scalar_sweep(self, monkeypatch):
        compiled, order = self._big_closure()
        scanned = bitset.first_differing_scan(compiled.kernel, order)
        assert scanned is not None
        # Scalar reference: the sweep CompiledClosure runs when the scan
        # is unavailable.
        kernel = compiled.kernel
        reference: dict[str, int] = {}
        for pos, pair in enumerate(order):
            i, j = divmod(pair, kernel.n)
            for name, column in zip(kernel.names, kernel.columns):
                if name not in reference and column[i] != column[j]:
                    reference[name] = pos
        assert scanned == reference

    def test_first_differing_at_all_scan_matches_scalar(self):
        compiled, order = self._big_closure()
        kernel = compiled.kernel
        for targets in (["x0", "x1"], ["x2"], list(kernel.names)):
            handled, pos = bitset.first_differing_at_all_scan(
                kernel, order, sorted(targets)
            )
            assert handled
            column_of = dict(zip(kernel.names, kernel.columns))
            cols = [column_of[t] for t in sorted(targets)]
            expected = None
            for k, pair in enumerate(order):
                i, j = divmod(pair, kernel.n)
                if all(c[i] != c[j] for c in cols):
                    expected = k
                    break
            assert pos == expected

    def test_scans_decline_below_threshold(self, mixed):
        compiled = CompiledSystem(mixed)
        order, _ = compiled.kernel.closure((0,))
        assert len(order) < SCAN_MIN_PAIRS
        assert bitset.first_differing_scan(compiled.kernel, order) is None
        handled, _ = bitset.first_differing_at_all_scan(
            compiled.kernel, order, ["a"]
        )
        assert not handled

    def test_scans_decline_without_numpy(self, monkeypatch):
        compiled, order = self._big_closure()
        monkeypatch.setenv(ENV_NUMPY_FLAG, "0")
        assert bitset.first_differing_scan(compiled.kernel, order) is None
        handled, _ = bitset.first_differing_at_all_scan(
            compiled.kernel, order, ["x0"]
        )
        assert not handled
