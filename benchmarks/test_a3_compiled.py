"""A3 (perf): the compiled integer kernel vs the seed reference.

Two implementations of the same exact decision procedure, measured on
the same systems in the same run:

- **seed** — one independent ordered-pair BFS per ``(A, phi, beta)``
  query, re-executing semantic operation lambdas at every step
  (``reachability._seed_depends_ever``);
- **compiled** — the engine (``DependencyEngine(system)``): dense state
  ids, flat successor arrays, canonical unordered pairs, one memoized
  closure per ``(A, phi)``.  With the default ``auto`` kernel selection
  every full-size case (81 to 1,024 states) runs the NumPy bitset kernel
  and the quick sizes run the scalar loop.

Families:

- the A1 *relay chain* (x0 -> x1 -> ... -> x{n-1}): sparse closures, so
  compile cost is a visible fraction — the honest lower bound;
- the *xor ring* (``x_{i+1} += x_i mod 2`` cyclically): a mixing system
  whose closures approach all ``n_states^2 / 2`` canonical pairs — the
  BFS-bound regime the kernel exists for, and where the >= 8x
  acceptance bar over the seed path is asserted (at the largest case);
- one seeded *random system* for an unstructured middle ground.

Each case appends one row to ``BENCH_compiled.json`` carrying both
timings and the speedup, and asserts cell-for-cell matrix agreement
between the two paths.  ``REPRO_BENCH_QUICK=1`` (the CI
bench-smoke job / ``make bench-quick``) shrinks the sizes, runs a single
round, and skips recording and the speedup bar — it checks that the
benchmark itself still runs and agrees, not the machine's speed.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import pytest

from bench_record import record

from repro.analysis.random_systems import random_system
from repro.analysis.report import Table
from repro.core.engine import DependencyEngine
from repro.core.reachability import _seed_depends_ever
from repro.core.system import System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_compiled.json"
BENCH_HEADER = {"bench": "A3 compiled kernel", "paths": ["seed", "compiled"]}
BENCH_KEY = ("case", "n")

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
SPEEDUP_TARGET = 8.0  # compiled over the seed path, largest case

# (family, n) cases; the lexicographically-largest xor_ring is the one
# the acceptance threshold is asserted at.
CASES = (
    [("relay", 4), ("xor_ring", 4), ("random", 3)]
    if QUICK
    else [("relay", 8), ("relay", 10), ("xor_ring", 7), ("xor_ring", 8), ("random", 4)]
)
ROUNDS = 1 if QUICK else 3
LARGEST = ("xor_ring", max(n for f, n in CASES if f == "xor_ring"))


def _relay(n: int) -> System:
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n - 1):
        b.op_assign(f"d{i}", f"x{i + 1}", var(f"x{i}"))
    return b.build()


def _xor_ring(n: int) -> System:
    """n one-bit objects; operation m_i mixes x_i into x_{i+1} (mod n).

    Unlike the relay, information circulates, so every (A, phi) closure
    is dense — the regime where per-pair costs dominate compile costs.
    """
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def _random(n: int) -> System:
    return random_system(
        random.Random(1977), n_objects=n, domain_size=3, n_operations=4
    )


FAMILIES = {"relay": _relay, "xor_ring": _xor_ring, "random": _random}


def _seed_matrix(system: System) -> dict[str, dict[str, bool]]:
    """The pre-engine dependency_matrix: one BFS per cell."""
    names = system.space.names
    return {
        x: {y: bool(_seed_depends_ever(system, {x}, y)) for y in names}
        for x in names
    }


def _closure_pairs(system: System) -> int:
    """Total canonical pairs across all single-source closures — the
    work the BFS actually does, recorded for the scaling curve."""
    engine = DependencyEngine(system)
    return sum(
        len(engine._closure(frozenset({name}), None))
        for name in system.space.names
    )


@pytest.mark.parametrize("family,n", CASES)
def test_a3_compiled_vs_seed(benchmark, family, n, show):
    build = FAMILIES[family]
    system = build(n)

    start = time.perf_counter()
    seed_result = _seed_matrix(system)
    seed_seconds = time.perf_counter() - start

    # The headline path goes through pytest-benchmark; fresh system +
    # engine per round keeps the compile step inside the measurement.
    def setup():
        return (DependencyEngine(build(n)),), {}

    compiled_result = benchmark.pedantic(
        lambda engine: engine.matrix(), setup=setup, rounds=ROUNDS, iterations=1
    )
    compiled_seconds = benchmark.stats.stats.min

    assert compiled_result == seed_result

    pairs = _closure_pairs(system)
    vs_seed = seed_seconds / compiled_seconds
    row = {
        "n": n,
        "states": system.space.size,
        "pairs": pairs,
        "seed_seconds": round(seed_seconds, 6),
        "compiled_seconds": round(compiled_seconds, 6),
        "speedup_compiled_vs_seed": round(vs_seed, 2),
    }
    if not QUICK:
        record(BENCH_PATH, BENCH_HEADER, {"case": family, **row}, BENCH_KEY)

    table = Table(
        ["family", "n", "states", "pairs", "seed (s)", "compiled (s)",
         "vs seed"],
        title=f"A3: compiled kernel, {family} n={n}",
    )
    table.add(family, n, system.space.size, pairs, f"{seed_seconds:.4f}",
              f"{compiled_seconds:.4f}", f"{vs_seed:.1f}x")
    show(table)

    if not QUICK and (family, n) == LARGEST:
        assert vs_seed >= SPEEDUP_TARGET, (
            f"compiled kernel only {vs_seed:.1f}x faster than the seed "
            f"path on {family} n={n} (target {SPEEDUP_TARGET}x)"
        )
