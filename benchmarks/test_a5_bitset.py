"""A5 (perf): the bulk bitset frontier kernel vs the scalar compiled path.

Same decision procedure, same integer tables — the only change is how
the pair-graph BFS walks them: the scalar kernel expands one pair per
inner-loop iteration, the bitset kernel (``kernel="bitset"``) expands
whole frontier chunks through NumPy successor gathers and resolves the
Def 5-5 / 5-7 column tests with vectorized scans.  Because the bulk
path is witness-identical (``tests/property/test_bitset_agreement.py``),
the timing comparison is apples-to-apples: both sides produce the same
closures, parents, and matrix cells.

Cases are the dense *xor ring* family — the regime the bulk kernel
exists for, where closures approach all ``n_states^2 / 2`` canonical
pairs.  Both sides pay table compilation (``CompiledSystem``) *outside*
the measurement: the tables are byte-identical and shared, so including
that fixed cost would only dilute the kernel comparison; the row records
it separately as ``compile_seconds``.  The >= 10x acceptance bar is
asserted at the largest matrix case, and one n=12 closure (4096 states,
~8.4M pairs) demonstrates a size the scalar inner loop cannot reach
interactively.  Rows append to ``BENCH_bitset.json``;
``REPRO_BENCH_QUICK=1`` shrinks sizes, runs one round, and skips
recording and the bar.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from bench_record import record

from repro.analysis.report import Table
from repro.core.engine import DependencyEngine
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var

pytest.importorskip("numpy")

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_bitset.json"
BENCH_HEADER = {"bench": "A5 bitset kernel", "paths": ["scalar", "bitset"]}
BENCH_KEY = ("case", "n")

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
SPEEDUP_TARGET = 10.0  # bitset over the scalar compiled path, largest matrix
MATRIX_CASES = [5] if QUICK else [7, 8, 10]
ROUNDS = 1 if QUICK else 3
LARGEST = max(MATRIX_CASES)
LARGE_RING = 12  # closure-only case: beyond interactive scalar reach


def _xor_ring(n: int):
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def _time_matrix(make_engine, rounds: int) -> tuple[dict, float, float]:
    """Best-of-``rounds`` matrix time on a freshly compiled engine.

    ``compiled_system()`` runs before the clock starts — the successor
    tables are identical for both kernels, so the comparison measures
    the BFS/query phase the kernel swap actually changes.  The compile
    cost is returned separately for the record.
    """
    best = float("inf")
    compile_seconds = float("inf")
    result: dict = {}
    for _ in range(rounds):
        engine = make_engine()
        start = time.perf_counter()
        engine.compiled_system()
        compile_seconds = min(compile_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        result = engine.matrix()
        best = min(best, time.perf_counter() - start)
    return result, best, compile_seconds


@pytest.mark.parametrize("n", MATRIX_CASES)
def test_a5_bitset_vs_scalar_matrix(benchmark, n, show):
    scalar_result, scalar_seconds, compile_seconds = _time_matrix(
        lambda: DependencyEngine(_xor_ring(n), kernel="scalar"), ROUNDS
    )

    def setup():
        engine = DependencyEngine(_xor_ring(n), kernel="bitset")
        engine.compiled_system()
        return (engine,), {}

    bitset_result = benchmark.pedantic(
        lambda engine: engine.matrix(), setup=setup, rounds=ROUNDS, iterations=1
    )
    bitset_seconds = benchmark.stats.stats.min

    assert bitset_result == scalar_result

    system = _xor_ring(n)
    pairs = sum(
        len(DependencyEngine(system, kernel="bitset")._closure(
            frozenset({name}), None
        ))
        for name in system.space.names
    )
    speedup = scalar_seconds / bitset_seconds
    row = {
        "n": n,
        "states": system.space.size,
        "pairs": pairs,
        "compile_seconds": round(compile_seconds, 6),
        "scalar_seconds": round(scalar_seconds, 6),
        "bitset_seconds": round(bitset_seconds, 6),
        "speedup_bitset_vs_scalar": round(speedup, 2),
    }
    if not QUICK:
        record(
            BENCH_PATH, BENCH_HEADER, {"case": "xor_ring", **row}, BENCH_KEY
        )

    table = Table(
        ["family", "n", "states", "pairs", "scalar (s)", "bitset (s)",
         "speedup"],
        title=f"A5: bitset kernel, xor_ring n={n}",
    )
    table.add("xor_ring", n, system.space.size, pairs,
              f"{scalar_seconds:.4f}", f"{bitset_seconds:.4f}",
              f"{speedup:.1f}x")
    show(table)

    if not QUICK and n == LARGEST:
        assert speedup >= SPEEDUP_TARGET, (
            f"bitset kernel only {speedup:.1f}x faster than the scalar "
            f"compiled path on xor_ring n={n} (target {SPEEDUP_TARGET}x)"
        )


def test_a5_bitset_large_ring(show):
    """One n=12 closure — 4096 states, ~8.4M canonical pairs.

    No scalar comparison: at this size the scalar inner loop is minutes
    of Python bytecode.  The row records that the bulk kernel finishes
    the closure (and the Def 5-5 verdict on top of it) in seconds.
    """
    if QUICK:
        pytest.skip("large-ring case is skipped in quick mode")
    n = LARGE_RING
    engine = DependencyEngine(_xor_ring(n), kernel="bitset")
    engine.compiled_system()
    start = time.perf_counter()
    result = engine.depends_ever({"x0"}, f"x{n // 2}")
    seconds = time.perf_counter() - start
    assert bool(result)  # information circulates the whole ring
    assert result.provenance.kernel == "compiled-bitset"
    pairs = result.provenance.closure_pairs

    record(BENCH_PATH, BENCH_HEADER, {
        "case": "xor_ring_closure",
        "n": n,
        "states": engine.system.space.size,
        "pairs": pairs,
        "bitset_seconds": round(seconds, 6),
        "query": f"depends_ever({{x0}}, x{n // 2})",
    }, BENCH_KEY)

    table = Table(
        ["family", "n", "states", "pairs", "bitset (s)"],
        title=f"A5: bitset kernel, xor_ring n={n} single closure",
    )
    table.add("xor_ring", n, engine.system.space.size, pairs, f"{seconds:.4f}")
    show(table)
