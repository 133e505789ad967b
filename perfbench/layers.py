"""Per-layer metrics from the spans ``tracer.py`` writes.

A request's spans form a tree: each span's parent is the span that was
open in the same thread or task when it started, and spans with no such
parent hang off the request's root, ``serve.request``, from the first
request byte to the encoded response.  A span's self time is its
duration minus the part its children cover, so the self times of one
request add up to its root's duration.  Adding the time outside the root
(``wire_ms``: socket, event-loop hand-off and client overhead) gives
back the latency the client saw; ``attribute`` checks that sum per
request.
"""

from __future__ import annotations

from collections import defaultdict

#: Span name -> the layer metric its self time is charged to.
TIME_OF = {
    "serve.request": "serve.app_ms",
    "program.build": "program.build_ms",
    "compiled.compile": "compiled.compile_ms",
    "constraints.satisfying": "constraints.sat_ms",
    "constraints.sat_ids": "constraints.sat_ms",
    "engine.query": "engine.query_ms",
    "kernel.closure": "kernel.closure_ms",
    "store.hash": "store.hash_ms",
    "store.register": "store.register_ms",
    "store.load": "store.load_ms",
    "store.save": "store.save_ms",
    "witness.path": "witness.decode_ms",
    "witness.describe": "witness.decode_ms",
    "http.parse": "http.parse_ms",
    "http.encode": "http.encode_ms",
    "admission.wait": "admission.wait_ms",
    "sessions.create": "sessions.create_ms",
    "sessions.lookup": "sessions.lookup_ms",
}

#: (span name, count the tracer took) -> layer metric.
COUNT_OF = {
    ("program.build", "op_execs"): "program.op_execs",
    ("compiled.compile", "op_execs"): "compiled.op_execs",
    ("constraints.satisfying", "evals"): "constraints.evals",
    ("kernel.closure", "pairs_expanded"): "kernel.pairs_expanded",
    ("kernel.closure", "mask_bytes"): "kernel.mask_bytes",
    ("http.encode", "bytes_out"): "http.bytes_out",
    ("sessions.create", "created"): "sessions.created",
}

#: Counts the tracer keeps per trace rather than per span.
TRACE_COUNTS = ("store.rows_written", "store.bytes_written", "store.commits")

#: Layer counts reported as totals over the timed phase; every other
#: count is reported per timed operation.
TOTALS = {"sessions.created"}

#: Allowed |layer sum - client latency| per request.
TOLERANCE_MS = 0.05
TOLERANCE_SHARE = 0.005


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _request(spans: list[list], sent: float, received: float):
    """Layer self times (ms), counts, wire time and sum error of one request."""
    root = next(s for s in spans if s[0] == "serve.request")
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span is root:
            continue
        children[span[4] if span[4] is not None else root[3]].append(span)
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    covered = 0.0
    for span in spans:
        name, start, end, span_id, _, _, span_counts = span
        kids = [(max(c[1], start), min(c[2], end)) for c in children.get(span_id, ())]
        own = (end - start) - _union([k for k in kids if k[1] > k[0]])
        times[TIME_OF[name]] += own * 1000.0
        covered += own
        for key, value in span_counts.items():
            counts[COUNT_OF[(name, key)]] += value
    first = min(s[1] for s in spans)
    wire = (first - sent) + (received - root[2])
    error = (covered + wire) - (received - sent)
    return times, counts, wire * 1000.0, error * 1000.0, wire >= 0


def attribute(requests: list[tuple[str, float, float]], spans: list[list],
              trace_counts: dict[str, dict[str, int]]) -> dict[str, float]:
    """Per-layer metrics over the timed requests ``(trace id, sent, received)``.

    Times are mean self time per request; counts are per request unless
    listed in :data:`TOTALS`.
    """
    by_trace: dict[str, list] = defaultdict(list)
    for span in spans:
        by_trace[span[5]].append(span)
    n = len(requests)
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    wire_total = max_error = 0.0
    violations = 0
    for trace, sent, received in requests:
        layer_times, layer_counts, wire, error, aligned = _request(
            by_trace[trace], sent, received
        )
        for key, value in layer_times.items():
            times[key] += value
        for key, value in layer_counts.items():
            counts[key] += value
        for key, value in trace_counts.get(trace, {}).items():
            counts[key] += value
        wire_total += wire
        max_error = max(max_error, abs(error))
        limit = TOLERANCE_MS + TOLERANCE_SHARE * (received - sent) * 1000.0
        violations += abs(error) > limit or not aligned
    out = {key: 0.0 for key in set(TIME_OF.values())}
    out.update({key: value / n for key, value in times.items()})
    for key in {*COUNT_OF.values(), *TRACE_COUNTS}:
        total = counts.get(key, 0)
        out[key] = total if key in TOTALS else total / n
    out["wire_ms"] = wire_total / n
    out["trace.sum_max_err_ms"] = max_error
    out["trace.sum_violations"] = violations
    return out
