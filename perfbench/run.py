"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones.  The line before it (``perfbench-report {...}``) carries the
environment stamp, the /stats counter deltas and any failed checks.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

from layers import TOLERANCE_MS, TOLERANCE_SHARE, attribute
from workloads import (
    RATE, ROOT, STATS_COUNTERS, TAIL, WORK, WORKLOADS, BenchError, Pass,
)

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3

#: Stop issuing timed operations this long after the run started.
DEADLINE_S = 140.0


def host_ref_ms() -> float:
    """Median of five timings of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def _source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or None


def _fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        mount, fstype = line.split()[1:3]
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def stamp() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _source_sha(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` percent of
    the sample at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def latencies(result: Pass) -> list[float]:
    return [op.latency_ms for op in result.timed if op.ok]


def tiers(result: Pass) -> dict[str, int]:
    """Timed answers per memo tier, from each answer's provenance."""
    return {t: sum(op.ok and op.tier == t for op in result.timed)
            for t in ("ram", "store", "compute")}


def end_to_end(workload: str, passes: list[Pass]) -> dict[str, float]:
    last = passes[-1]
    lat = latencies(last)
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "p50_ms": statistics.median(lat),
        "tail_ms": percentile(lat, TAIL[workload]),
        "throughput_qps": len(lat) / last.wall_s,
        "peak_rss_mb": last.peak_rss_mb,
        "store_mb": last.store_mb,
    }


def per_layer(base: Pass, traced: Pass) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of ``traced``; ``base`` is the untraced server that
    answered the same requests alongside it."""
    requests = [(op.trace, op.sent, op.received) for op in traced.timed if op.ok]
    out = attribute(requests, traced.spans, traced.span_counts)
    out["cli.start_ms"] = traced.start_ms
    # A shed request fails, so count sheds over every timed request.
    out["admission.shed"] = sum(
        traced.span_counts.get(op.trace, {}).get("admission.shed", 0) for op in traced.timed
    )
    out["engine.closures_held"] = traced.closures_held
    out["engine.closures_added"] = traced.closures_added
    for name in STATS_COUNTERS:
        out[f"stats.{name}"] = traced.counters.get(f"stats.{name}", 0)
    out["sessions.evicted"] = out["stats.serve.sessions.evicted"]
    answered = tiers(traced)
    for tier, count in answered.items():
        out[f"engine.tier_{tier}"] = count
    out["engine.ram_hit_ratio"] = answered["ram"] / len(requests)
    n = len(requests)
    out["obs.spans_per_request"] = traced.counters.get("stats.obs.spans", 0) / n
    out["obs.spans_dropped"] = traced.counters.get("stats.obs.spans_dropped", 0)
    base_p50 = statistics.median(latencies(base))
    traced_p50 = statistics.median(latencies(traced))
    out["trace.overhead_ms"] = traced_p50 - base_p50
    out["trace.overhead_pct"] = 100.0 * (traced_p50 - base_p50) / base_p50
    out["trace.sum_tolerance_ms"] = TOLERANCE_MS + TOLERANCE_SHARE * traced_p50
    checks = []
    if out["trace.sum_violations"]:
        checks.append(
            f"{out['trace.sum_violations']} requests' layers do not sum to their "
            f"latency (max error {out['trace.sum_max_err_ms']:.3f} ms)"
        )
    return out, checks


def run(workload: str, seed: int, seconds: int, traced: bool, run_dir: Path) -> dict:
    fn = WORKLOADS[workload]
    n_ops = max(1, round(RATE[workload] * seconds))
    deadline = time.monotonic() + DEADLINE_S
    if not traced:
        passes = [fn(run_dir, [(f"setup{k}", False)], seed, 0, deadline)[0]
                  for k in range(SETUPS - 1)]
        passes += fn(run_dir, [("timed", False)], seed, n_ops, deadline)
        metrics = end_to_end(workload, passes)
        checks: list[str] = []
    else:
        # Two servers answer the same requests in alternating blocks, so
        # host drift hits both alike; each gets half the operations.
        passes = fn(run_dir, [("untraced", False), ("traced", True)], seed,
                    max(1, n_ops // 2), deadline)
        metrics, checks = per_layer(*passes)
    ops = [op for p in passes for op in (*p.other, *p.timed)]
    failures = [op.detail for op in ops if not op.ok]
    checks += [c for p in passes for c in p.checks]
    last = passes[-1]
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": len(failures),
        "checks": checks,
        "failures": failures[:10],
        "timed_ops": len(last.timed),
        "setup_s_each": [p.setup_s for p in passes],
        "answer_tiers": tiers(last),
        "counters": last.counters,
        "store": {
            "dir": str(run_dir.relative_to(ROOT)),
            "fs": _fs_type(run_dir),
            "journal_mode": last.store_journal,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = {**stamp(), "loadavg_before": os.getloadavg(), "host_ref_ms_before": host_ref_ms()}
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env.update(loadavg_after=os.getloadavg(), host_ref_ms_after=host_ref_ms())
    metrics = {
        m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, env=env)
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["checks"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
