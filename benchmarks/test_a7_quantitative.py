"""A7 (perf): the compiled quantitative substrate vs the object path.

Three cases:

1. **Measure bundle speedup** (the acceptance bar).  The E20 mod-sum
   channel scaled to N = 16 (4096 states >= the 1024-state bar): the
   equivocation measure (singleton and pair), the equivocation itself,
   and the averaged measure, computed by the object path (per-state
   ``history(state)`` replay, per-z-slice ``condition`` loop) and by
   :class:`~repro.quantitative.compiled.QuantEngine` (one composed-array
   gather, one bucket-grouped pass).  Results must agree — the
   single-joint measures to the last float bit (both paths reduce the
   *same* exact ``Fraction`` table with the same deterministic
   summation), the averaged measure to float dust — and the compiled
   bundle must run >= 20x faster.

2. **Channel capacity speedup**, the E27 workload scaled up (request and
   disk 5 bits wide, one-time-pad jitter, 32768 states): one batched
   composed-history sweep for the whole channel matrix vs per-input
   replay, then vectorized Blahut-Arimoto.  The transition matrices must
   be identical cell-for-cell as exact fractions-of-unity floats.

3. **Bits-per-operation curves** (compiled path): the access-matrix
   guarded-copy system (2048 states) and a two-statement accumulator
   program (12288 states), reporting equivocation-measure and
   averaged-measure bits after k operations — the section 7.4 numbers at
   a scale the object path would crawl on.

Rows append to ``BENCH_quantitative.json``.  ``REPRO_BENCH_QUICK=1``
shrinks sizes, skips recording and the bars.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

from bench_record import record

from repro.analysis.report import Table
from repro.core.engine import shared_engine
from repro.core.system import History
from repro.lang.builders import SystemBuilder
from repro.lang.expr import apply, var
from repro.quantitative import (
    QuantEngine,
    StateDistribution,
    bits_transmitted,
    bits_transmitted_averaged,
    equivocation,
)
from repro.quantitative.bandwidth import capacity as object_capacity
from repro.quantitative.bandwidth import channel_matrix as object_channel_matrix
from repro.systems.access_matrix import AccessMatrixSystem
from repro.systems.program import build_program_system

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_quantitative.json"
BENCH_HEADER = {"bench": "A7 compiled quantitative substrate"}
BENCH_KEY = ("case", "n")

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
SPEEDUP_TARGET = 20.0  # compiled vs object path, >= 1024-state systems
MOD_N = 8 if QUICK else 16  # mod-sum channel: space = MOD_N ** 3 states
DISK_BITS = 3 if QUICK else 5  # disk channel: space = 2 ** (3 * DISK_BITS)
COMPILED_ROUNDS = 3
CURVE_LENGTH = 3


def _mod_sum(n: int):
    width = int(math.log2(n))
    b = SystemBuilder().integers("alpha1", "alpha2", "beta", bits=width)
    b.op_assign("delta", "beta", (var("alpha1") + var("alpha2")) % n)
    return b.build()


def _disk(bits: int):
    residue = 2**bits
    mix = lambda r, j: (r + j) % residue
    b = SystemBuilder().integers("request", "disk", bits=bits)
    b.obj("jitter", tuple(range(residue)))
    b.op_assign(
        "seek", "disk", apply(mix, var("request"), var("jitter"), symbol="mix")
    )
    return b.build()


def test_a7_measures_compiled_vs_object(show):
    system = _mod_sum(MOD_N)
    states = system.space.size
    h = History.of(system.operation("delta"))
    width = int(math.log2(MOD_N))

    def object_bundle():
        dist = StateDistribution.uniform_over_space(system.space)
        return {
            "pair": bits_transmitted(
                dist, {"alpha1", "alpha2"}, "beta", h
            ),
            "single": bits_transmitted(dist, {"alpha1"}, "beta", h),
            "equivocation": equivocation(dist, {"alpha1"}, "beta", h),
            "averaged": bits_transmitted_averaged(
                dist, {"alpha1"}, "beta", h
            ),
        }

    quant = QuantEngine(system)
    shared_engine(system).compiled_system()  # compile outside both legs

    def compiled_bundle():
        dist = quant.uniform()
        return {
            "pair": quant.bits_transmitted(
                dist, {"alpha1", "alpha2"}, "beta", h
            ),
            "single": quant.bits_transmitted(dist, {"alpha1"}, "beta", h),
            "equivocation": quant.equivocation(dist, {"alpha1"}, "beta", h),
            "averaged": quant.bits_transmitted_averaged(
                dist, {"alpha1"}, "beta", h
            ),
        }

    start = time.perf_counter()
    object_result = object_bundle()
    object_seconds = time.perf_counter() - start

    compiled_seconds = float("inf")
    compiled_result: dict = {}
    for _ in range(COMPILED_ROUNDS):
        start = time.perf_counter()
        compiled_result = compiled_bundle()
        compiled_seconds = min(
            compiled_seconds, time.perf_counter() - start
        )

    # Single-joint measures reduce the same exact Fraction table with the
    # same deterministic summation — the floats must be identical bits.
    for key in ("pair", "single", "equivocation"):
        assert compiled_result[key] == object_result[key], key
    # The averaged measure's per-slice terms come from integer-count
    # entropies and sum in bucket order — float dust only.
    assert math.isclose(
        compiled_result["averaged"], object_result["averaged"], abs_tol=1e-9
    )
    assert compiled_result["pair"] == float(width)
    assert compiled_result["single"] == 0.0

    speedup = object_seconds / compiled_seconds
    if not QUICK:
        record(BENCH_PATH, BENCH_HEADER, {
            "case": "mod_sum_measures",
            "n": MOD_N,
            "states": states,
            "object_seconds": round(object_seconds, 6),
            "compiled_seconds": round(compiled_seconds, 6),
            "speedup_compiled_vs_object": round(speedup, 2),
        }, BENCH_KEY)

    table = Table(
        ["family", "states", "object (s)", "compiled (s)", "speedup"],
        title=f"A7: sec 7.4 measure bundle, mod-sum N={MOD_N}",
    )
    table.add("mod_sum", states, f"{object_seconds:.4f}",
              f"{compiled_seconds:.4f}", f"{speedup:.1f}x")
    show(table)

    if not QUICK:
        assert states >= 1024
        assert speedup >= SPEEDUP_TARGET, (
            f"compiled quantitative bundle only {speedup:.1f}x faster "
            f"than the object path on {states} states "
            f"(target {SPEEDUP_TARGET}x)"
        )


def test_a7_capacity_compiled_vs_object(show):
    system = _disk(DISK_BITS)
    states = system.space.size
    h = History.of(system.operation("seek"))

    start = time.perf_counter()
    dist = StateDistribution.uniform_over_space(system.space)
    obj_inputs, obj_outputs, obj_matrix = object_channel_matrix(
        dist, {"request"}, "disk", h
    )
    obj_capacity = object_capacity(dist, {"request"}, "disk", h)
    object_seconds = time.perf_counter() - start

    quant = QuantEngine(system)
    shared_engine(system).compiled_system()

    compiled_seconds = float("inf")
    for _ in range(COMPILED_ROUNDS):
        start = time.perf_counter()
        cdist = quant.uniform()
        cmp_inputs, cmp_outputs, cmp_matrix = quant.channel_matrix(
            cdist, {"request"}, "disk", h
        )
        cmp_capacity = quant.capacity(cdist, {"request"}, "disk", h)
        compiled_seconds = min(
            compiled_seconds, time.perf_counter() - start
        )

    # Cell-for-cell identity, independent of output enumeration order.
    as_cells = lambda inputs, outputs, matrix: {
        (i, o): matrix[a][b]
        for a, i in enumerate(inputs)
        for b, o in enumerate(outputs)
    }
    assert as_cells(cmp_inputs, cmp_outputs, cmp_matrix) == as_cells(
        obj_inputs, obj_outputs, obj_matrix
    )
    assert math.isclose(cmp_capacity, obj_capacity, abs_tol=1e-9)
    # One-time-pad jitter: the channel carries nothing.
    assert math.isclose(cmp_capacity, 0.0, abs_tol=1e-6)

    speedup = object_seconds / compiled_seconds
    if not QUICK:
        record(BENCH_PATH, BENCH_HEADER, {
            "case": "disk_capacity",
            "n": DISK_BITS,
            "states": states,
            "inputs": len(cmp_inputs),
            "object_seconds": round(object_seconds, 6),
            "compiled_seconds": round(compiled_seconds, 6),
            "speedup_compiled_vs_object": round(speedup, 2),
        }, BENCH_KEY)

    table = Table(
        ["family", "states", "inputs", "object (s)", "compiled (s)",
         "speedup"],
        title=f"A7: channel matrix + capacity, disk bits={DISK_BITS}",
    )
    table.add("disk", states, len(cmp_inputs), f"{object_seconds:.4f}",
              f"{compiled_seconds:.4f}", f"{speedup:.1f}x")
    show(table)

    if not QUICK:
        assert speedup >= SPEEDUP_TARGET, (
            f"batched channel layer only {speedup:.1f}x faster than "
            f"per-input replay on {states} states "
            f"(target {SPEEDUP_TARGET}x)"
        )


def _curve_row(quant, dist, source, history, k):
    """One curve point: ``(k, equivocation-measure bits, averaged bits,
    seconds)``, timed on its own.  Composed prefixes are memoized, so a
    row's time is the cost of extending the previous row's history."""
    start = time.perf_counter()
    bits = quant.bits_transmitted(dist, {source}, "beta", history)
    averaged = quant.bits_transmitted_averaged(dist, {source}, "beta", history)
    return k, bits, averaged, time.perf_counter() - start


def test_a7_bits_per_operation_curves(show):
    # Access-matrix family: the guarded copy transmits alpha -> beta
    # only where the rights allow it (2048 states).
    ams = AccessMatrixSystem(
        subjects=["x"],
        files={"alpha": (0, 1), "beta": (0, 1)},
        entries=[("x", "x"), ("x", "alpha"), ("x", "beta")],
        copy_operations=[("x", "beta", "alpha")],
    )
    copy = ams.system.operation("copy(x,beta,alpha)")
    quant = QuantEngine(ams.system)
    dist = quant.uniform()

    am_rows = [
        _curve_row(quant, dist, "alpha", History([copy] * k), k)
        for k in range(CURVE_LENGTH + 1)
    ]
    assert am_rows[0][1] == 0.0 and am_rows[0][2] == 0.0
    assert am_rows[1][2] > 0.0  # the copy does transmit where allowed
    # The guarded copy is idempotent: the curve is flat after one use.
    assert all(row[1] == am_rows[1][1] for row in am_rows[1:])

    # Program family: two-statement accumulator (12288 states, support
    # 4096 at the entry pc).
    ps = build_program_system(
        "beta := (beta + alpha1) % 16; beta := (beta + alpha2) % 16",
        {"alpha1": range(16), "alpha2": range(16), "beta": range(16)},
    )
    pq = QuantEngine(ps.system)
    pdist = pq.uniform(ps.entry_constraint())
    ops = ps.system.operations

    prog_rows = [
        _curve_row(pq, pdist, "alpha1", History(ops[:k]), k)
        for k in range(len(ops) + 1)
    ]
    assert prog_rows[0][1] == 0.0 and prog_rows[0][2] == 0.0
    # One accumulation: beta holds beta0 + alpha1 — all 4 bits under the
    # averaged measure, zero under the equivocation measure (beta0 pads).
    assert prog_rows[1][1] == 0.0
    assert math.isclose(prog_rows[1][2], 4.0, abs_tol=1e-9)
    assert math.isclose(prog_rows[2][2], 4.0, abs_tol=1e-9)

    if not QUICK:
        for k, bits, averaged, seconds in am_rows:
            record(BENCH_PATH, BENCH_HEADER, {
                "case": "access_matrix_curve",
                "n": k,
                "states": ams.space.size,
                "bits_equivocation_measure": round(bits, 6),
                "bits_averaged_measure": round(averaged, 6),
                "seconds": round(seconds, 6),
            }, BENCH_KEY)
        for k, bits, averaged, seconds in prog_rows:
            record(BENCH_PATH, BENCH_HEADER, {
                "case": "program_curve",
                "n": k,
                "states": ps.space.size,
                "bits_equivocation_measure": round(bits, 6),
                "bits_averaged_measure": round(averaged, 6),
                "seconds": round(seconds, 6),
            }, BENCH_KEY)

    table = Table(
        ["family", "states", "|H|", "equivocation measure", "averaged"],
        title="A7: bits per operation (compiled path)",
    )
    for k, bits, averaged, _ in am_rows:
        table.add("access_matrix", ams.space.size, k,
                  f"{bits:.4f}", f"{averaged:.4f}")
    for k, bits, averaged, _ in prog_rows:
        table.add("program", ps.space.size, k,
                  f"{bits:.4f}", f"{averaged:.4f}")
    show(table)
