"""Persistent store unit coverage: hashing, round-trips, invalidation
primitives, bounding, and degradation."""

from __future__ import annotations

import sqlite3
import warnings

import pytest

from repro import obs
from repro.core.compiled import CompiledSystem
from repro.core.constraints import Constraint
from repro.core.engine import DependencyEngine
from repro.core.store import (
    SCHEMA_VERSION,
    PersistentStore,
    bitset_count,
    bitset_intersects,
    changed_op_indices,
    changed_state_bitset,
    delta_hash,
    sat_key,
    system_hash,
)
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var


def _ring(n: int = 3, twist: int = 0):
    """Small xor ring; ``twist`` perturbs operation m0's effect so the
    compiled tables (and therefore the hash) change."""
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        bump = twist if i == 0 else 0
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}") + bump) % 2)
    return b.build()


def _kernel(system):
    return CompiledSystem(system).kernel


@pytest.fixture
def telemetry():
    obs.enable(reset=True)
    try:
        yield
    finally:
        obs.disable()


# -- canonical hashing --------------------------------------------------------


def test_system_hash_stable_across_rebuilds():
    assert system_hash(_kernel(_ring())) == system_hash(_kernel(_ring()))


def test_system_hash_sensitive_to_behaviour():
    assert system_hash(_kernel(_ring(twist=0))) != system_hash(
        _kernel(_ring(twist=1))
    )


def test_delta_hash_equal_tables_equal_hash():
    k1, k2 = _kernel(_ring()), _kernel(_ring())
    for t1, t2 in zip(k1.successors, k2.successors):
        assert delta_hash(t1) == delta_hash(t2)
    assert delta_hash([0, 1, 2]) != delta_hash([0, 1, 3])


def test_sat_key_unconstrained_and_content():
    assert sat_key(None) == "*"
    assert sat_key([1, 2, 3]) == sat_key((1, 2, 3))
    assert sat_key([1, 2, 3]) != sat_key([1, 2])


# -- bitset primitives --------------------------------------------------------


def test_bitset_intersects_and_count():
    assert bitset_intersects(b"\x03", b"\x02")
    assert not bitset_intersects(b"\x01", b"\x02")
    assert not bitset_intersects(b"", b"\xff")
    assert bitset_count(b"\x07") == 3


def test_changed_state_bitset_matches_bruteforce():
    k_old = _kernel(_ring(twist=0))
    k_new = _kernel(_ring(twist=1))
    indices = changed_op_indices(k_old.successors, k_new.successors)
    assert indices == [0]  # only m0 was twisted
    bits = changed_state_bitset(
        k_old.n, k_old.successors, k_new.successors, indices
    )
    expected = {
        i
        for d in indices
        for i in range(k_old.n)
        if k_old.successors[d][i] != k_new.successors[d][i]
    }
    got = {i for i in range(k_old.n) if bits[i >> 3] & (1 << (i & 7))}
    assert got == expected and expected  # the twist changed something


def test_touched_states_matches_bruteforce():
    engine = DependencyEngine(_ring())
    closure = engine._closure(frozenset({"x0"}), None)
    n = engine.compiled_system().kernel.n
    bits = closure.touched_states()
    expected = set()
    for code in closure.order:
        expected.add(code // n)
        expected.add(code % n)
    got = {i for i in range(n) if bits[i >> 3] & (1 << (i & 7))}
    assert got == expected


# -- round-trips --------------------------------------------------------------


def test_closure_round_trip_warm_engine(tmp_path):
    path = tmp_path / "memo.sqlite"
    system = _ring()
    cold = DependencyEngine(system, store=PersistentStore(path))
    cold_result = cold.depends_ever({"x0"}, "x1")
    assert cold_result.provenance.store == "miss"
    cold.store.close()

    warm_store = PersistentStore(path)
    warm = DependencyEngine(_ring(), store=warm_store)
    warm_result = warm.depends_ever({"x0"}, "x1")
    assert warm_result.provenance.store == "hit"
    assert warm_store.hits == 1 and warm_store.misses == 0
    assert bool(warm_result) == bool(cold_result)
    assert tuple(op.name for op in warm_result.witness.history) == tuple(
        op.name for op in cold_result.witness.history
    )
    # Same process, same engine: now the RAM memo answers first.
    again = warm.depends_ever({"x0"}, "x1")
    assert again.provenance.store == "ram"
    warm_store.close()


def test_derived_artifacts_round_trip(tmp_path):
    """A stored row carries the first-differing scan; a warm closure
    adopts it instead of re-deriving it."""
    pytest.importorskip("numpy")
    path = tmp_path / "memo.sqlite"
    system = _ring()
    with PersistentStore(path) as store:
        cold = DependencyEngine(system, kernel="bitset", store=store)
        cold_closure = cold._closure(frozenset({"x0"}), None)
        cold_first = dict(cold_closure.first_differing())
    with PersistentStore(path) as store:
        warm = DependencyEngine(_ring(), kernel="bitset", store=store)
        warm_closure = warm._closure(frozenset({"x0"}), None)
        # Pre-seeded at construction: no lazy re-scan pending.
        assert warm_closure._first_diff == cold_first
        assert dict(warm_closure.first_differing()) == cold_first
        # The stored positions answer real lookups: witnesses replay.
        assert bool(warm.depends_ever({"x0"}, "x1"))


def test_derived_artifacts_corrupt_fall_back_lazily(tmp_path):
    """A tampered first-differing column — unparseable, or naming a
    position past the closure's end — degrades to lazy recomputation:
    never a miss, never a degraded store, same answers."""
    path = tmp_path / "memo.sqlite"
    with PersistentStore(path) as store:
        cold = DependencyEngine(_ring(), store=store)
        expected = cold.matrix()
    for tampered in ("not json", '{"x1": 1000000}'):
        conn = sqlite3.connect(path)
        conn.execute("UPDATE closures SET first_diff=?", (tampered,))
        conn.commit()
        conn.close()
        with PersistentStore(path) as store:
            warm = DependencyEngine(_ring(), store=store)
            assert warm.matrix() == expected
            assert store.misses == 0 and store.hits > 0
            assert not store.degraded


def test_matrix_round_trip_identical(tmp_path):
    path = tmp_path / "memo.sqlite"
    with PersistentStore(path) as store:
        cold = DependencyEngine(_ring(), store=store).matrix()
    with PersistentStore(path) as store:
        warm_engine = DependencyEngine(_ring(), store=store)
        warm = warm_engine.matrix()
        assert store.misses == 0 and store.hits > 0
    assert warm == cold


def test_constraint_key_shared_across_instances(tmp_path):
    path = tmp_path / "memo.sqlite"
    system = _ring()
    phi1 = Constraint(system.space, lambda s: s["x2"] == 0, name="a")
    with PersistentStore(path) as store:
        DependencyEngine(system, store=store).depends_ever({"x0"}, "x1", phi1)
    # A distinct instance (different name, different lambda object) with
    # the same satisfying set shares the disk entry.
    system2 = _ring()
    phi2 = Constraint(system2.space, lambda s: s["x2"] + 0 == 0, name="b")
    with PersistentStore(path) as store:
        warm = DependencyEngine(system2, store=store)
        result = warm.depends_ever({"x0"}, "x1", phi2)
        assert result.provenance.store == "hit"
        assert store.hits == 1


# -- bounding -----------------------------------------------------------------


def test_eviction_under_byte_budget(tmp_path, telemetry):
    store = PersistentStore(tmp_path / "memo.sqlite", max_bytes=256)
    engine = DependencyEngine(_ring(n=3), store=store)
    engine.matrix()
    assert store.meter.evictions > 0
    stats = store.stats()
    assert stats["max_bytes"] == 256
    assert stats["payload_bytes"] <= 256
    assert stats["lifetime"]["evictions"] == store.meter.evictions
    assert obs.snapshot().counters.get("store.evictions", 0) > 0
    store.close()


def test_env_max_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "512")
    store = PersistentStore(tmp_path / "memo.sqlite")
    assert store.meter.capacity == 512
    store.close()


# -- corruption and degradation ----------------------------------------------


def test_corrupt_closure_row_deleted_and_recomputed(tmp_path, telemetry):
    path = tmp_path / "memo.sqlite"
    with PersistentStore(path) as store:
        cold = DependencyEngine(_ring(), store=store).depends_ever(
            {"x0"}, "x1"
        )
    conn = sqlite3.connect(path)
    conn.execute("UPDATE closures SET order_blob = X'00'")
    conn.commit()
    conn.close()
    with PersistentStore(path) as store:
        warm = DependencyEngine(_ring(), store=store)
        result = warm.depends_ever({"x0"}, "x1")
        assert bool(result) == bool(cold)
        assert result.provenance.store == "miss"  # corrupt row -> recompute
        assert store.degraded is False
        with store._lock:
            remaining = store._connect().execute(
                "SELECT COUNT(*) FROM closures WHERE length(order_blob) = 1"
            ).fetchone()[0]
        assert remaining == 0  # the bad row was dropped (then rewritten)
    assert obs.snapshot().counters.get("store.corrupt", 0) >= 1


def test_schema_mismatch_degrades(tmp_path, telemetry):
    path = tmp_path / "memo.sqlite"
    seed = PersistentStore(path)
    seed.stats()  # force the lazy connection to create the schema
    seed.close()
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE meta SET value='999' WHERE key='schema_version'"
    )
    conn.commit()
    conn.close()
    store = PersistentStore(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        engine = DependencyEngine(_ring(), store=store)
        result = engine.depends_ever({"x0"}, "x1")
    assert bool(result) == bool(DependencyEngine(_ring()).depends_ever(
        {"x0"}, "x1"
    ))
    assert store.degraded
    assert "schema version mismatch" in store.degraded_reason
    assert any(
        issubclass(w.category, RuntimeWarning) for w in caught
    )
    assert obs.snapshot().counters.get("store.degraded", 0) == 1


def test_stats_shapes(tmp_path):
    store = PersistentStore(tmp_path / "memo.sqlite")
    DependencyEngine(_ring(), store=store).depends_ever({"x0"}, "x1")
    brief = store.stats_brief()
    assert brief["attached"] == 1
    assert all(isinstance(v, int) for v in brief.values())
    full = store.stats()
    assert full["schema_version"] == SCHEMA_VERSION
    assert full["rows"]["systems"] == 1
    assert full["rows"]["closures"] == 1
    assert full["lifetime"]["writes"] == store.writes
    assert full["file_bytes"] > 0
    store.close()


def test_cache_stats_has_store_section(tmp_path):
    engine = DependencyEngine(_ring())
    assert engine.cache_stats()["store"] == {"attached": 0}
    engine.attach_store(tmp_path / "memo.sqlite")
    engine.depends_ever({"x0"}, "x1")
    section = engine.cache_stats()["store"]
    assert section["attached"] == 1
    assert section["writes"] > 0
    engine.store.close()
