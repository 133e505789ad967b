"""A3 (perf): the shared pair-graph dependency engine vs the seed path.

The seed decision procedure runs one independent pair-graph BFS per
``(A, phi, beta)`` query, re-executing semantic operation lambdas at every
step.  The :class:`~repro.core.engine.DependencyEngine` tabulates each
operation once and computes one memoized closure per ``(A, phi)``, from
which *every* target is answered.  This bench measures both paths on the
A1 relay-chain scaling family for the two batched analyses the Worth data
needs — ``dependency_matrix`` and ``dependency_closure`` — asserts
cell-for-cell agreement and the >= 5x speedup target, and appends the
measurements to ``BENCH_engine.json`` (the start of the repo's perf
trajectory).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from bench_record import record

from repro.analysis.report import Table
from repro.core.engine import DependencyEngine
from repro.core.reachability import (
    _seed_dependency_closure,
    _seed_depends_ever,
)
from repro.core.system import System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
BENCH_HEADER = {"bench": "A3 engine", "family": "A1 relay chain"}
BENCH_KEY = ("case", "n")

# REPRO_BENCH_QUICK=1 (the CI bench-smoke job / `make bench-quick`)
# shrinks the sizes and skips recording and the speedup bar — agreement
# asserts still run.
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

# The largest size is the one the acceptance threshold is asserted at;
# smaller sizes are recorded for the scaling curve.
SIZES = [4, 5] if QUICK else [6, 8]
ROUNDS = 1 if QUICK else 3
SPEEDUP_TARGET = 5.0


def _chain_system(n: int) -> System:
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n - 1):
        b.op_assign(f"d{i}", f"x{i + 1}", var(f"x{i}"))
    return b.build()


def _seed_matrix(system: System) -> dict[str, dict[str, bool]]:
    """The pre-engine dependency_matrix: one BFS per cell."""
    names = system.space.names
    return {
        x: {
            y: bool(_seed_depends_ever(system, {x}, y))
            for y in names
        }
        for x in names
    }


@pytest.mark.parametrize("n", SIZES)
def test_a3_matrix_engine_vs_seed(benchmark, n, show):
    """dependency_matrix: n cold engine builds (tabulation included) vs
    the seed per-cell BFS, measured on the same chain."""
    system = _chain_system(n)

    start = time.perf_counter()
    seed_result = _seed_matrix(system)
    seed_seconds = time.perf_counter() - start

    # Fresh system + engine per round: measure a *cold* engine, so the
    # tabulation and closure costs are inside the measurement.
    def setup():
        return (DependencyEngine(_chain_system(n)),), {}

    engine_result = benchmark.pedantic(
        lambda engine: engine.matrix(), setup=setup, rounds=ROUNDS, iterations=1
    )
    engine_seconds = benchmark.stats.stats.mean

    assert engine_result == seed_result
    speedup = seed_seconds / engine_seconds
    row = {
        "n": n,
        "states": system.space.size,
        "seed_seconds": round(seed_seconds, 6),
        "engine_seconds": round(engine_seconds, 6),
        "speedup": round(speedup, 2),
    }
    if not QUICK:
        record(
            BENCH_PATH, BENCH_HEADER, {"case": "dependency_matrix", **row}, BENCH_KEY
        )

    table = Table(
        ["objects", "states", "seed (s)", "engine (s)", "speedup"],
        title=f"A3: dependency_matrix, n={n}",
    )
    table.add(n, system.space.size, f"{seed_seconds:.4f}",
              f"{engine_seconds:.4f}", f"{speedup:.1f}x")
    show(table)

    if not QUICK and n == max(SIZES):
        assert speedup >= SPEEDUP_TARGET, (
            f"engine only {speedup:.1f}x faster than seed at n={n} "
            f"(target {SPEEDUP_TARGET}x)"
        )


@pytest.mark.parametrize("n", SIZES)
def test_a3_closure_engine_vs_seed(benchmark, n, show):
    """dependency_closure (Worth raw data, witnesses included): engine vs
    the seed per-cell BFS, with verdict agreement and witness replay."""
    system = _chain_system(n)

    start = time.perf_counter()
    seed_result = _seed_dependency_closure(system)
    seed_seconds = time.perf_counter() - start

    def setup():
        return (DependencyEngine(_chain_system(n)),), {}

    engine_result = benchmark.pedantic(
        lambda engine: engine.closure(), setup=setup, rounds=ROUNDS, iterations=1
    )
    engine_seconds = benchmark.stats.stats.mean

    assert set(engine_result) == set(seed_result)
    for key, seed_cell in seed_result.items():
        engine_cell = engine_result[key]
        assert bool(engine_cell) == bool(seed_cell), key
        if engine_cell:
            witness = engine_cell.witness
            after1 = witness.history(witness.sigma1)
            after2 = witness.history(witness.sigma2)
            assert all(after1[t] != after2[t] for t in witness.targets)
            # Both BFS orders are shortest-path, so lengths must agree.
            assert len(witness.history) == len(seed_cell.witness.history)

    speedup = seed_seconds / engine_seconds
    row = {
        "n": n,
        "states": system.space.size,
        "seed_seconds": round(seed_seconds, 6),
        "engine_seconds": round(engine_seconds, 6),
        "speedup": round(speedup, 2),
    }
    if not QUICK:
        record(
            BENCH_PATH, BENCH_HEADER, {"case": "dependency_closure", **row}, BENCH_KEY
        )

    table = Table(
        ["objects", "states", "seed (s)", "engine (s)", "speedup"],
        title=f"A3: dependency_closure, n={n}",
    )
    table.add(n, system.space.size, f"{seed_seconds:.4f}",
              f"{engine_seconds:.4f}", f"{speedup:.1f}x")
    show(table)

    if not QUICK and n == max(SIZES):
        assert speedup >= SPEEDUP_TARGET, (
            f"engine only {speedup:.1f}x faster than seed at n={n} "
            f"(target {SPEEDUP_TARGET}x)"
        )
