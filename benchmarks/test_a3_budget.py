"""A3 (robustness): overhead of the execution governor on the hot loop.

PR 4 threads an optional :class:`~repro.core.budget.BudgetMeter` through
the compiled closure BFS, which checks its budget only every
``check_interval`` expansions — so a *generous* budget (one that never
trips) must cost nearly nothing.  This benchmark pins that down on the
xor ring, the dense-closure regime where per-expansion costs dominate:
the acceptance bar is **governed <= 1.05x ungoverned** (<5% overhead) at
the largest case, recorded in ``BENCH_budget.json``.

The engines here use the default ``auto`` kernel selection, so the
full-size cases (128 and 256 states) run the NumPy bitset kernel, which
meters per chunk; they never run the scalar loop.  The scalar loop's
own ungoverned cost is measured with ``kernel="scalar"`` engines.

``REPRO_BENCH_QUICK=1`` shrinks the case and skips the bar/recording —
it checks the benchmark runs and the governed matrix agrees, not speed.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from bench_record import record

from repro.analysis.report import Table
from repro.core.budget import ExecutionBudget
from repro.core.engine import DependencyEngine
from repro.core.system import System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_budget.json"
BENCH_HEADER = {
    "bench": "A3 budget overhead",
    "paths": ["ungoverned", "governed"],
}
BENCH_KEY = ("n",)

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
OVERHEAD_BAR = 1.05  # governed / ungoverned, largest case

CASES = [4] if QUICK else [7, 8]
ROUNDS = 1 if QUICK else 5
LARGEST = max(CASES)

#: A budget far beyond what any case needs: every check passes, no trip —
#: the measurement isolates pure metering overhead.
GENEROUS = ExecutionBudget(max_seconds=3600.0, max_expanded=10**12)


def _xor_ring(n: int) -> System:
    """Same mixing family as test_a3_compiled: dense closures, so the
    BFS inner loop — where the meter sits — dominates."""
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def _time_matrix(n: int, budget: ExecutionBudget | None, rounds: int):
    """Best-of-``rounds`` cold matrix time (fresh engine per round, so
    compilation is inside the measurement on both sides of the ratio)."""
    best = float("inf")
    result: dict = {}
    for _ in range(rounds):
        engine = DependencyEngine(_xor_ring(n))
        start = time.perf_counter()
        result = engine.matrix(budget=budget)
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize("n", CASES)
def test_a3_budget_overhead(benchmark, n, show):
    plain_result, plain_seconds = _time_matrix(n, None, ROUNDS)

    # The governed path goes through pytest-benchmark.
    def setup():
        return (DependencyEngine(_xor_ring(n)),), {}

    governed_result = benchmark.pedantic(
        lambda engine: engine.matrix(budget=GENEROUS),
        setup=setup,
        rounds=ROUNDS,
        iterations=1,
    )
    governed_seconds = benchmark.stats.stats.min

    # A budget that never trips changes nothing but the clock.
    assert governed_result == plain_result

    overhead = governed_seconds / plain_seconds
    row = {
        "n": n,
        "states": 2**n,
        "check_interval": GENEROUS.check_interval,
        "ungoverned_seconds": round(plain_seconds, 6),
        "governed_seconds": round(governed_seconds, 6),
        "overhead": round(overhead, 4),
    }
    if not QUICK:
        record(BENCH_PATH, BENCH_HEADER, row, BENCH_KEY)

    table = Table(
        ["n", "states", "ungoverned (s)", "governed (s)", "overhead"],
        title=f"A3: budget governor overhead, xor_ring n={n}",
    )
    table.add(n, 2**n, f"{plain_seconds:.4f}", f"{governed_seconds:.4f}",
              f"{overhead:.3f}x")
    show(table)

    if not QUICK and n == LARGEST:
        assert overhead <= OVERHEAD_BAR, (
            f"budget governor costs {overhead:.3f}x on xor_ring n={n} "
            f"(bar {OVERHEAD_BAR}x)"
        )
