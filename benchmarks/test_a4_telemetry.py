"""A4 (observability): overhead of the telemetry layer on the hot loop.

PR 5 instruments the dependency stack with spans, counters and verdict
provenance.  The contract is **off by default, and free when off**: every
instrumentation point is one module-flag read, the compiled BFS keeps its
pristine loop when no stats dict is requested, and provenance is a single
frozen-dataclass allocation per public answer.  This benchmark pins that
down on the xor ring (the dense-closure regime where per-expansion costs
dominate) by timing the full dependency matrix three ways:

- ``baseline`` — the instrumentation entry points monkeypatched to bare
  no-ops, approximating the pre-PR-5 uninstrumented code;
- ``disabled`` — the real code with telemetry off (the default);
- ``enabled`` — collector live, spans/counters recorded.

Acceptance bar: **disabled <= 1.05x baseline** (<5% overhead) at the
largest case, recorded in ``BENCH_telemetry.json``.  The enabled ratio
is recorded for information — collection is allowed to cost, it is
opt-in.

``REPRO_BENCH_QUICK=1`` shrinks the case and skips the bar/recording.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from bench_record import record

from repro import obs
from repro.analysis.report import Table
from repro.core.engine import DependencyEngine
from repro.core.system import System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var
from repro.obs import telemetry

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
BENCH_HEADER = {
    "bench": "A4 telemetry overhead",
    "paths": ["baseline", "disabled", "enabled"],
}
BENCH_KEY = ("n",)

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
OVERHEAD_BAR = 1.05  # disabled / baseline, largest case

CASES = [4] if QUICK else [7, 8]
ROUNDS = 1 if QUICK else 5
LARGEST = max(CASES)


def _xor_ring(n: int) -> System:
    """Same mixing family as test_a3_*: dense closures, so the BFS inner
    loop — the code telemetry must not slow down — dominates."""
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n):
        nxt = f"x{(i + 1) % n}"
        b.op_assign(f"m{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def _one_matrix(n: int):
    """One cold matrix run (fresh engine, so compilation is inside the
    measurement on every side of the ratio)."""
    engine = DependencyEngine(_xor_ring(n))
    start = time.perf_counter()
    result = engine.matrix()
    return result, time.perf_counter() - start


def _noop(*args, **kwargs):
    return None


def _null_span(*args, **kwargs):
    return telemetry.NULL_SPAN


def _baseline_matrix(n: int, monkeypatch):
    """One matrix run with the uninstrumented approximation: every obs
    entry point the hot paths call becomes a bare no-op (is_enabled stays
    False-returning, so the stats-dict branches stay off exactly as in
    the disabled run)."""
    with monkeypatch.context() as patch:
        patch.setattr(obs, "span", _null_span)
        patch.setattr(obs, "count", _noop)
        patch.setattr(obs, "gauge_max", _noop)
        patch.setattr(obs, "observe", _noop)
        patch.setattr(obs, "is_enabled", lambda: False)
        return _one_matrix(n)


def _enabled_matrix(n: int):
    """One matrix run with the collector live."""
    obs.enable(reset=True)
    try:
        result, seconds = _one_matrix(n)
        return result, seconds, len(obs.snapshot().spans)
    finally:
        obs.disable()
        obs.reset()


@pytest.mark.parametrize("n", CASES)
def test_a4_telemetry_overhead(benchmark, n, show, monkeypatch):
    assert not obs.is_enabled(), "telemetry must be off for the benchmark"

    # The three paths are timed *interleaved*, one of each per round, so
    # slow clock drift (thermal throttling, background load) hits all
    # three equally instead of biasing whichever path ran last; the
    # ratios are taken best-of-rounds per path.
    baseline_seconds = disabled_seconds = enabled_seconds = float("inf")
    baseline_result = disabled_result = enabled_result = None
    spans = 0
    for _ in range(ROUNDS):
        baseline_result, seconds = _baseline_matrix(n, monkeypatch)
        baseline_seconds = min(baseline_seconds, seconds)
        disabled_result, seconds = _one_matrix(n)
        disabled_seconds = min(disabled_seconds, seconds)
        enabled_result, seconds, spans = _enabled_matrix(n)
        enabled_seconds = min(enabled_seconds, seconds)

    # One extra disabled round through pytest-benchmark for its table.
    assert benchmark.pedantic(
        lambda: _one_matrix(n)[0], rounds=1, iterations=1
    ) == disabled_result

    # Telemetry never changes verdicts, on or off or absent.
    assert disabled_result == baseline_result == enabled_result
    assert spans > 0, "the enabled run must actually have collected"

    disabled_overhead = disabled_seconds / baseline_seconds
    enabled_overhead = enabled_seconds / baseline_seconds
    row = {
        "n": n,
        "states": 2**n,
        "baseline_seconds": round(baseline_seconds, 6),
        "disabled_seconds": round(disabled_seconds, 6),
        "enabled_seconds": round(enabled_seconds, 6),
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
    }
    if not QUICK:
        record(BENCH_PATH, BENCH_HEADER, row, BENCH_KEY)

    table = Table(
        ["n", "states", "baseline (s)", "disabled (s)", "enabled (s)",
         "off overhead", "on overhead"],
        title=f"A4: telemetry overhead, xor_ring n={n}",
    )
    table.add(n, 2**n, f"{baseline_seconds:.4f}", f"{disabled_seconds:.4f}",
              f"{enabled_seconds:.4f}", f"{disabled_overhead:.3f}x",
              f"{enabled_overhead:.3f}x")
    show(table)

    if not QUICK and n == LARGEST:
        assert disabled_overhead <= OVERHEAD_BAR, (
            f"disabled telemetry costs {disabled_overhead:.3f}x on "
            f"xor_ring n={n} (bar {OVERHEAD_BAR}x)"
        )
