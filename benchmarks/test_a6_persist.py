"""A6 (perf): persistent warm starts and incremental `repro diff`.

Two claims, two cases:

1. **Warm start.**  A process that attaches a populated
   :class:`~repro.core.store.PersistentStore` answers a repeat
   ``matrix()`` by deserializing stored closures instead of running the
   pair-graph BFS.  Cold and warm legs are *explicit*: every cold round
   gets a brand-new store path and asserts ``hits == 0`` (a cold leg
   that accidentally reads a populated store would invalidate the
   comparison — the store counters prove which leg was which).  The
   acceptance bar is warm >= 10x cold on the xor_ring n=10 matrix.
   Table compilation runs outside both measurements, as in A5: the
   tables are identical either way and the store swap only changes the
   closure phase.

2. **Incremental diff.**  The *gated ring* family: a read-only gate
   ``g`` in 0..7 plus a xor ring whose version-2 delta perturbs one
   operation only where ``g = 7``.  Per-gate constraints partition the
   closures, so the one-operation delta invalidates exactly the
   ``g = 7`` slice — 1/8 of the closures — and
   :func:`~repro.analysis.diff.diff_systems` must reuse the rest
   (recompute fraction < 20% bar) while reporting verdict changes
   identical to a from-scratch comparison of the two versions.

Rows append to ``BENCH_persist.json``; every row carries the store's
``schema_version`` stamp so bars are only ever compared within one
on-disk format.  ``REPRO_BENCH_QUICK=1`` shrinks sizes, runs one round,
and skips recording and the bars.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from bench_record import record

from repro.analysis.diff import diff_systems
from repro.analysis.report import Table
from repro.core.constraints import Constraint
from repro.core.engine import DependencyEngine
from repro.core.store import SCHEMA_VERSION, PersistentStore
from repro.lang.builders import SystemBuilder
from repro.lang.expr import if_expr, var

pytest.importorskip("numpy")

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_persist.json"
BENCH_HEADER = {"bench": "A6 persistent store"}
BENCH_KEY = ("case", "n")

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
WARM_SPEEDUP_TARGET = 10.0  # warm start over cold compute, xor_ring matrix
DIFF_RECOMPUTE_BAR = 0.20  # closures recomputed on a one-op gated delta
RING_N = 6 if QUICK else 10
WARM_ROUNDS = 1 if QUICK else 3
GATES = 8
GATED_RING = 3 if QUICK else 4


def _xor_ring(n: int):
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def _gated_ring(ring: int, perturbed: bool):
    """Gate ``g`` in 0..GATES-1 (read-only) plus a xor ring.  The
    version-2 delta flips operation ``m0``'s effect only where
    ``g = GATES-1``, so per-gate closures elsewhere are untouched."""
    b = SystemBuilder()
    b.ranged("g", lo=0, hi=GATES - 1)
    for i in range(ring):
        b.integers(f"x{i}", bits=1)
    for i in range(ring):
        nxt = f"x{(i + 1) % ring}"
        bump = (
            if_expr(var("g") == GATES - 1, 1, 0)
            if perturbed and i == 0
            else 0
        )
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}") + bump) % 2)
    return b.build()


def test_a6_warm_start_vs_cold(tmp_path, show):
    n = RING_N
    store_path = tmp_path / "memo.sqlite"

    # Cold leg: brand-new store, full BFS, everything persisted.
    cold_store = PersistentStore(store_path)
    engine = DependencyEngine(_xor_ring(n), store=cold_store)
    engine.compiled_system()
    start = time.perf_counter()
    cold_result = engine.matrix()
    cold_seconds = time.perf_counter() - start
    assert cold_store.hits == 0, "cold leg accidentally read a warm store"
    assert cold_store.writes > 0
    cold_store.close()

    # Warm legs: new engine + new store handle on the populated file.
    warm_seconds = float("inf")
    warm_result: dict = {}
    for _ in range(WARM_ROUNDS):
        warm_store = PersistentStore(store_path)
        warm_engine = DependencyEngine(_xor_ring(n), store=warm_store)
        warm_engine.compiled_system()
        start = time.perf_counter()
        warm_result = warm_engine.matrix()
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert warm_store.misses == 0, "warm leg recomputed a closure"
        assert warm_store.hits > 0
        warm_store.close()

    assert warm_result == cold_result
    speedup = cold_seconds / warm_seconds
    states = 2**n

    if not QUICK:
        record(BENCH_PATH, BENCH_HEADER, {
            "case": "xor_ring_warm",
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "states": states,
            "store_bytes": store_path.stat().st_size,
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "speedup_warm_vs_cold": round(speedup, 2),
        }, BENCH_KEY)

    table = Table(
        ["family", "n", "states", "cold (s)", "warm (s)", "speedup"],
        title=f"A6: warm start, xor_ring n={n}",
    )
    table.add("xor_ring", n, states, f"{cold_seconds:.4f}",
              f"{warm_seconds:.4f}", f"{speedup:.1f}x")
    show(table)

    if not QUICK:
        assert speedup >= WARM_SPEEDUP_TARGET, (
            f"warm start only {speedup:.1f}x faster than cold on "
            f"xor_ring n={n} (target {WARM_SPEEDUP_TARGET}x)"
        )


def test_a6_diff_incremental(tmp_path, show):
    ring = GATED_RING
    old = _gated_ring(ring, perturbed=False)
    new = _gated_ring(ring, perturbed=True)
    ring_names = [f"x{i}" for i in range(ring)]
    constraints = [
        Constraint.equals(old.space, "g", v).renamed(f"g={v}")
        for v in range(GATES)
    ]
    sources = [[name] for name in ring_names]

    store = PersistentStore(tmp_path / "memo.sqlite")
    start = time.perf_counter()
    report = diff_systems(
        old, new, constraints=constraints, sources=sources, store=store
    )
    diff_seconds = time.perf_counter() - start
    store.close()

    # A from-scratch comparison (fresh engines, no store) must see the
    # same verdict flips.
    e_old = DependencyEngine(old)
    e_new = DependencyEngine(new)
    full_changed = set()
    start = time.perf_counter()
    for phi in constraints:
        for name in ring_names:
            before = e_old._closure(frozenset({name}), phi).first_differing()
            after = e_new._closure(frozenset({name}), phi).first_differing()
            for target in old.space.names:
                if (target in before) != (target in after):
                    full_changed.add((name, target, phi.name))
    full_seconds = time.perf_counter() - start

    assert {
        (change.sources[0], change.target, change.constraint)
        for change in report.changed
    } == full_changed
    assert report.closures_total == GATES * len(sources)
    assert report.closures_recomputed == len(sources)  # the g=7 slice only

    fraction = report.recompute_fraction
    if not QUICK:
        record(BENCH_PATH, BENCH_HEADER, {
            "case": "gated_ring_diff",
            "schema_version": SCHEMA_VERSION,
            "n": ring,
            "states": GATES * 2**ring,
            "closures_total": report.closures_total,
            "closures_reused": report.closures_reused,
            "closures_recomputed": report.closures_recomputed,
            "recompute_fraction": round(fraction, 4),
            "verdicts_changed": len(report.changed),
            "diff_seconds": round(diff_seconds, 6),
            "full_recompute_seconds": round(full_seconds, 6),
        }, BENCH_KEY)

    table = Table(
        ["family", "states", "closures", "reused", "recomputed",
         "fraction", "diff (s)", "full (s)"],
        title=f"A6: one-op delta diff, gated_ring ring={ring}",
    )
    table.add("gated_ring", GATES * 2**ring, report.closures_total,
              report.closures_reused, report.closures_recomputed,
              f"{fraction:.1%}", f"{diff_seconds:.4f}",
              f"{full_seconds:.4f}")
    show(table)

    assert fraction < DIFF_RECOMPUTE_BAR, (
        f"one-operation delta recomputed {fraction:.1%} of closures "
        f"(bar {DIFF_RECOMPUTE_BAR:.0%})"
    )
