"""Prometheus text exposition for the telemetry collector.

:func:`render` turns a :class:`~repro.obs.telemetry.TelemetrySnapshot`
into the Prometheus text exposition format (version 0.0.4): counters as
``<name>_total``, gauges as plain gauges, and the fixed-bucket latency
histograms as standard ``_bucket{le=...}`` / ``_sum`` / ``_count``
families with **cumulative** bucket counts ending in ``le="+Inf"``.
The service's ``/metrics`` endpoint serves exactly this text, so any
Prometheus-compatible scraper works against ``repro serve`` unchanged.

:func:`lint` is the reverse direction: a dependency-free validator for
the exposition format used by ``scripts/validate_metrics.py`` and the CI
metrics-smoke job.  It checks what a scraper would choke on — malformed
sample lines, samples without a ``# TYPE`` declaration, non-cumulative
histogram buckets, missing ``+Inf`` buckets, and ``_count`` samples
disagreeing with their ``+Inf`` bucket.

Everything here is pure string work over an immutable snapshot — no
collector locks are held while rendering.
"""

from __future__ import annotations

import re

from repro.obs import telemetry
from repro.obs.telemetry import HIST_BUCKETS, TelemetrySnapshot

#: The Content-Type the ``/metrics`` endpoint must serve.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every exposed metric is prefixed so repro metrics never collide with
#: another job's families on a shared Prometheus.
PREFIX = "repro_"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$"
)


def metric_name(name: str) -> str:
    """A telemetry name (``serve.request.seconds``) as a Prometheus
    family name (``repro_serve_request_seconds``)."""
    return PREFIX + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _fmt(value: float) -> str:
    """Prometheus sample values: integers without a trailing ``.0``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def render(
    snap: TelemetrySnapshot | None = None,
    extra_gauges: dict[str, float] | None = None,
) -> str:
    """The snapshot in Prometheus text exposition format.

    ``extra_gauges`` lets the serving layer add point-in-time values the
    collector does not own (queue depth now, sessions resident) without
    routing them through gauge high-water marks.
    """
    if snap is None:
        snap = telemetry.snapshot()
    lines: list[str] = []

    for name in sorted(snap.counters):
        family = metric_name(name) + "_total"
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {_fmt(snap.counters[name])}")

    gauges = dict(snap.gauges)
    if extra_gauges:
        gauges.update(extra_gauges)
    for name in sorted(gauges):
        family = metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_fmt(gauges[name])}")

    for name in sorted(snap.hists):
        hist = snap.hists[name]
        family = metric_name(name)
        lines.append(f"# TYPE {family} histogram")
        cumulative = 0
        for bound, count in zip(HIST_BUCKETS, hist.counts):
            cumulative += count
            lines.append(f'{family}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        cumulative += hist.counts[len(HIST_BUCKETS)]
        lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{family}_sum {_fmt(hist.sum_seconds)}")
        lines.append(f"{family}_count {cumulative}")

    return "\n".join(lines) + "\n"


def _base_family(name: str) -> str:
    """The family a sample belongs to: histogram/summary suffixes fold
    into the declared family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _parse_labels(text: str | None) -> dict[str, str]:
    labels: dict[str, str] = {}
    if not text:
        return labels
    for part in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', text):
        labels[part[0]] = part[1]
    return labels


def lint(text: str, require: tuple[str, ...] | list[str] = ()) -> list[str]:
    """Validate Prometheus text exposition; returns a list of problems
    (empty means valid).

    ``require`` names families (or family prefixes for histograms, e.g.
    ``repro_serve_request_seconds``) that must be present with at least
    one sample — the CI smoke job uses it to assert the request-latency
    histogram actually appeared.
    """
    problems: list[str] = []
    types: dict[str, str] = {}
    seen: set[str] = set()
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) < 4:
                    problems.append(f"line {lineno}: malformed TYPE comment")
                    continue
                family, kind = parts[2], parts[3].strip()
                if not _NAME_OK.match(family):
                    problems.append(
                        f"line {lineno}: invalid family name {family!r}"
                    )
                if kind not in ("counter", "gauge", "histogram",
                                "summary", "untyped"):
                    problems.append(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                if family in types:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {family}"
                    )
                types[family] = kind
            continue
        match = _SAMPLE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        family = _base_family(name)
        declared = types.get(family) or types.get(name)
        if declared is None:
            problems.append(
                f"line {lineno}: sample {name} has no preceding TYPE"
            )
            continue
        try:
            value = float(match.group("value").replace("+Inf", "inf"))
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            )
            continue
        seen.add(family if types.get(family) else name)
        if declared == "counter" and value < 0:
            problems.append(f"line {lineno}: negative counter {name}")
        if declared == "histogram":
            labels = _parse_labels(match.group("labels"))
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    problems.append(
                        f"line {lineno}: histogram bucket without le label"
                    )
                else:
                    bound = float("inf") if le == "+Inf" else float(le)
                    buckets.setdefault(family, []).append((bound, value))
            elif name.endswith("_count"):
                counts[family] = value

    for family, pairs in buckets.items():
        bounds = [b for b, _ in pairs]
        values = [v for _, v in pairs]
        if bounds != sorted(bounds):
            problems.append(f"{family}: bucket bounds not sorted")
        if values != sorted(values):
            problems.append(f"{family}: bucket counts not cumulative")
        if not bounds or bounds[-1] != float("inf"):
            problems.append(f"{family}: missing +Inf bucket")
        elif family in counts and counts[family] != values[-1]:
            problems.append(
                f"{family}: _count {counts[family]} != +Inf bucket "
                f"{values[-1]}"
            )

    for family in require:
        if family not in seen:
            problems.append(f"required metric missing: {family}")
    return problems
