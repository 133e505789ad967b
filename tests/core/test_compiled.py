"""Unit tests for the compiled integer kernel (repro.core.compiled).

These pin the *encoding*: dense ids agree with the canonical
``Space.states()`` enumeration, columns are the mixed-radix digits of the
id, successor arrays are the operations, and closures live entirely on
canonically oriented off-diagonal pairs.  Semantic agreement with the
object engine and the seed reference is covered separately by
``tests/property/test_compiled_agreement.py``.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analysis.random_systems import random_system
from repro.core.bitset import load_numpy
from repro.core.compiled import INITIAL, CompiledSystem
from repro.core.constraints import Constraint
from repro.core.engine import DependencyEngine
from repro.core.state import Space
from repro.core.system import Operation, System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var


@pytest.fixture
def mixed() -> System:
    """Mixed-radix space (domains of size 3, 2, 2) with two operations."""
    space = Space({"a": (0, 1, 2), "b": (False, True), "c": ("x", "y")})
    ops = [
        Operation("bump", lambda s: s.replace(a=(s["a"] + 1) % 3)),
        Operation(
            "couple", lambda s: s.replace(b=s["a"] > 0, c="y" if s["b"] else "x")
        ),
    ]
    return System(space, ops)


@pytest.fixture
def relay() -> System:
    b = SystemBuilder().booleans("a", "m", "b")
    b.op_assign("d1", "m", var("a"))
    b.op_assign("d2", "b", var("m"))
    return b.build()


class TestEncoding:
    def test_states_follow_space_enumeration(self, mixed):
        compiled = CompiledSystem(mixed)
        assert compiled.states == tuple(mixed.space.states())
        assert compiled.kernel.n == mixed.space.size

    def test_columns_are_domain_indices(self, mixed):
        compiled = CompiledSystem(mixed)
        kernel = compiled.kernel
        for k, name in enumerate(kernel.names):
            domain = mixed.space.domain(name)
            for i, state in enumerate(compiled.states):
                assert domain[kernel.columns[k][i]] == state[name]

    def test_strides_reconstruct_the_id(self, mixed):
        kernel = CompiledSystem(mixed).kernel
        for i in range(kernel.n):
            digits = sum(
                ((i // stride) % size) * stride
                for stride, size in zip(kernel.strides, kernel.sizes)
            )
            assert digits == i

    def test_successor_arrays_are_the_operations(self, mixed):
        compiled = CompiledSystem(mixed)
        kernel = compiled.kernel
        assert kernel.op_names == tuple(op.name for op in mixed.operations)
        for op, successor in zip(mixed.operations, kernel.successors):
            for i, state in enumerate(compiled.states):
                assert compiled.states[successor[i]] == op(state)

    def test_source_indices_are_sorted_column_positions(self, mixed):
        compiled = CompiledSystem(mixed)
        assert compiled.source_indices({"c", "a"}) == (0, 2)


class TestConstraints:
    def test_sat_ids_match_satisfying_set(self, mixed):
        compiled = CompiledSystem(mixed)
        phi = Constraint(mixed.space, lambda s: s["a"] != 1, name="a!=1")
        sat = compiled.sat_ids(phi)
        expected = [
            i for i, state in enumerate(compiled.states) if state in phi.satisfying
        ]
        assert list(sat) == expected
        assert compiled.sat_ids(phi) is sat  # cached per instance

    def test_unconstrained_is_none_fast_path(self, mixed):
        assert CompiledSystem(mixed).sat_ids(None) is None


class TestClosure:
    def test_pairs_are_canonical_and_off_diagonal(self, mixed):
        compiled = CompiledSystem(mixed)
        closure = compiled.closure(frozenset({"a"}))
        n = compiled.kernel.n
        assert len(closure) > 0
        for pair in closure.order:
            i, j = divmod(pair, n)
            assert i < j

    def test_seeds_are_def_2_8_pairs(self, mixed):
        compiled = CompiledSystem(mixed)
        phi = Constraint(mixed.space, lambda s: s["b"], name="b")
        closure = compiled.closure(frozenset({"a"}), phi, "b")
        assert len(closure.parents) == len(closure.order)
        for pos, packed in enumerate(closure.parents):
            if packed == INITIAL:
                s1, s2 = closure.decode_pair(closure.order[pos])
                assert phi(s1) and phi(s2)
                assert s1.equal_except_at(s2, {"a"})
                assert s1 != s2

    def test_witness_path_replays_to_the_pair(self, mixed):
        compiled = CompiledSystem(mixed)
        closure = compiled.closure(frozenset({"a"}))
        first = closure.first_differing()
        for name, pos in first.items():
            ops, (s1, s2) = closure.witness_path(pos)
            history = mixed.history(*ops)
            after1, after2 = history(s1), history(s2)
            assert (after1, after2) == closure.decode_pair(closure.order[pos])
            assert after1[name] != after2[name]

    def test_first_differing_at_all_needs_simultaneous_difference(self, relay):
        compiled = CompiledSystem(relay)
        closure = compiled.closure(frozenset({"a"}))
        pos = closure.first_differing_at_all({"m", "b"})
        assert pos is not None
        s1, s2 = closure.decode_pair(closure.order[pos])
        assert s1["m"] != s2["m"] and s1["b"] != s2["b"]
        # From source {b} nothing ever reaches back to "a": no such pair.
        assert compiled.closure(frozenset({"b"})).first_differing_at_all(
            {"a"}
        ) is None

    def test_decoded_pairs_match_engine_pair_closure(self, relay):
        compiled = CompiledSystem(relay)
        closure = compiled.closure(frozenset({"a"}))
        engine = DependencyEngine(relay)
        decoded = engine._closure({"a"}).pairs()
        assert list(closure.pairs()) == list(decoded)


def _xor_ring(n: int) -> System:
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def _bfs_tree_case(case):
    """``xor_ring(6)`` unconstrained, or a small random system under a
    constraint that rules out one value of its first object."""
    if case == "xor_ring6":
        return _xor_ring(6), None
    rng = random.Random(case)
    system = random_system(
        rng,
        n_objects=rng.choice([2, 3]),
        domain_size=rng.choice([2, 3]),
        n_operations=rng.choice([1, 2, 3]),
    )
    first = system.space.names[0]
    value = system.space.domain(first)[0]
    phi = Constraint(system.space, lambda s: s[first] != value, name="phi")
    return system, phi


class TestBfsTree:
    """Parents are a BFS tree over order positions, for both kernels:
    ``parents[p] == INITIAL`` exactly when ``order[p]`` is a Def 2-8
    seed, and otherwise ``q, d = divmod(parents[p], n_ops)`` names an
    *earlier* position whose pair operation ``d`` maps, canonically
    oriented, onto ``order[p]``."""

    @pytest.mark.parametrize("kernel", ["scalar", "bitset"])
    @pytest.mark.parametrize("case", ["xor_ring6", *range(6)])
    def test_parents_form_a_bfs_tree(self, case, kernel):
        if kernel == "bitset" and load_numpy() is None:
            pytest.skip("the bitset kernel needs NumPy")
        system, phi = _bfs_tree_case(case)
        compiled = CompiledSystem(system)
        k = compiled.kernel
        n, n_ops = k.n, len(k.successors)
        sat_ids = compiled.sat_ids(phi)
        sat = set(range(n)) if sat_ids is None else set(sat_ids)
        for name in system.space.names:
            sources = frozenset({name})
            closure = compiled.closure(sources, phi, mode=kernel)
            order, parents = closure.order, closure.parents
            assert len(parents) == len(order)
            for p, pair in enumerate(order):
                i, j = divmod(pair, n)
                s1, s2 = compiled.states[i], compiled.states[j]
                seed = i in sat and j in sat and s1.equal_except_at(s2, sources)
                packed = int(parents[p])
                assert (packed == INITIAL) == seed, (name, p)
                if packed == INITIAL:
                    continue
                q, d = divmod(packed, n_ops)
                assert 0 <= q < p
                qi, qj = divmod(order[q], n)
                si, sj = k.successors[d][qi], k.successors[d][qj]
                assert min(si, sj) * n + max(si, sj) == pair


class TestPickling:
    def test_kernel_roundtrips_through_pickle(self, mixed):
        kernel = CompiledSystem(mixed).kernel
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.n == kernel.n
        assert clone.names == kernel.names
        assert clone.sizes == kernel.sizes
        assert clone.strides == kernel.strides
        assert clone.op_names == kernel.op_names
        assert [list(c) for c in clone.columns] == [list(c) for c in kernel.columns]
        assert [list(s) for s in clone.successors] == [
            list(s) for s in kernel.successors
        ]

    def test_cloned_kernel_computes_identical_closures(self, mixed):
        compiled = CompiledSystem(mixed)
        kernel = compiled.kernel
        clone = pickle.loads(pickle.dumps(kernel))
        sources = compiled.source_indices({"b"})
        order, parents = kernel.closure(sources)
        clone_order, clone_parents = clone.closure(sources)
        assert list(order) == list(clone_order)
        assert parents == clone_parents


class TestBuckets:
    def test_buckets_partition_all_states(self, mixed):
        kernel = CompiledSystem(mixed).kernel
        groups = kernel.buckets((0,))
        seen = sorted(i for bucket in groups.values() for i in bucket)
        assert seen == list(range(kernel.n))

    def test_buckets_agree_with_equal_except_at(self, mixed):
        compiled = CompiledSystem(mixed)
        kernel = compiled.kernel
        for bucket in kernel.buckets(compiled.source_indices({"a"})).values():
            for a in bucket:
                for b in bucket:
                    assert compiled.states[a].equal_except_at(
                        compiled.states[b], {"a"}
                    )


class TestClosureNoDuplicates:
    """Regression for the ``setdefault(...) is packed`` membership test.

    The old BFS loops decided "already visited" by ``setdefault``
    returning the *identical* packed int object — true on CPython only
    because equal large ints happen not to be interned; a value-interning
    runtime would re-record visited pairs.  The explicit containment
    check must keep every closure duplicate-free.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_random_closures_have_unique_orders(self, seed):
        import random

        from repro.analysis.random_systems import random_system

        rng = random.Random(seed)
        system = random_system(
            rng,
            n_objects=rng.choice([2, 3, 4]),
            domain_size=rng.choice([2, 3]),
            n_operations=rng.choice([1, 2, 3]),
        )
        compiled = CompiledSystem(system)
        for name in system.space.names:
            closure = compiled.closure(frozenset({name}))
            order = list(closure.order)
            assert len(order) == len(set(order)) == len(closure.parents)

    def test_governed_closure_has_unique_order(self, mixed):
        from repro.core.budget import ExecutionBudget

        compiled = CompiledSystem(mixed)
        meter = ExecutionBudget(max_expanded=10**6).start("test")
        closure = compiled.closure(frozenset({"a"}), meter=meter)
        order = list(closure.order)
        assert len(order) == len(set(order)) == len(closure.parents)


class TestBoundedKernelCaches:
    """The compiled substrate's memos are bounded LRUs (PR-6): the
    composed-prefix memo and the satisfying-id memo must evict without
    ever returning a wrong array."""

    def test_composed_memo_evicts_and_recomputes_correctly(self, mixed):
        from repro.core.cache import LRUCache

        compiled = CompiledSystem(mixed)
        reference = CompiledSystem(mixed)
        # Shrink the cap so a short sweep forces evictions.
        compiled._composed = LRUCache(3, "kernel.history_compose.evictions")
        keys = [(0,), (1,), (0, 1), (1, 0), (0, 0, 1), (1, 1), (0, 1, 0)]
        first_pass = [list(compiled.history_array(k)) for k in keys]
        assert compiled._composed.stats()["evictions"] > 0
        # Evicted prefixes re-gather from whatever is still cached; the
        # arrays must match an unbounded-memo engine exactly.
        for key, expected in zip(keys, first_pass):
            assert list(compiled.history_array(key)) == expected
            assert list(reference.history_array(key)) == expected

    def test_composed_identity_survives_eviction(self, mixed):
        from repro.core.cache import LRUCache

        compiled = CompiledSystem(mixed)
        compiled._composed = LRUCache(1, "kernel.history_compose.evictions")
        compiled.history_array((0, 1))  # churns the identity out
        assert list(compiled.history_array(())) == list(
            range(compiled.kernel.n)
        )

    def test_sat_ids_caches_trivial_constraints_as_none(self, mixed):
        compiled = CompiledSystem(mixed)
        trivial = Constraint(mixed.space, lambda s: True, name="tt2")
        # Full-space constraints resolve to the shared None fast path
        # instead of minting a range(n) copy per instance.
        assert compiled.sat_ids(trivial) is None
        assert compiled.sat_ids(None) is None

    def test_sat_ids_memo_is_bounded(self, mixed):
        from repro.core.cache import LRUCache

        compiled = CompiledSystem(mixed)
        compiled._sat_ids = LRUCache(2, "kernel.sat_ids.evictions")
        constraints = [
            Constraint(mixed.space, lambda s, v=v: s["a"] != v, name=f"a!={v}")
            for v in (0, 1, 2)
        ]
        results = [list(compiled.sat_ids(phi)) for phi in constraints]
        assert compiled._sat_ids.stats()["evictions"] > 0
        # Evicted entries recompute to the same ids.
        for phi, expected in zip(constraints, results):
            assert list(compiled.sat_ids(phi)) == expected

    def test_cache_stats_shape(self, mixed):
        compiled = CompiledSystem(mixed)
        stats = compiled.cache_stats()
        assert set(stats) == {"composed", "sat_ids"}
        for entry in stats.values():
            assert set(entry) == {"size", "capacity", "evictions"}
