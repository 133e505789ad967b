"""Telemetry for the dependency stack: spans, counters, gauges and
verdict provenance.

Everything is zero-dependency and off by default; ``obs.enable()`` (or
``REPRO_TELEMETRY=1``) switches the collector on without changing a
single verdict.  See :mod:`repro.obs.telemetry` for the collection
model, :mod:`repro.obs.export` for the Chrome-trace / JSONL exporters,
:mod:`repro.obs.provenance` for the per-verdict provenance records, and
``docs/OBSERVABILITY.md`` for the span taxonomy and counter glossary.

Typical use::

    from repro import obs

    obs.enable(reset=True)
    ... run queries ...
    obs.export.write_chrome_trace("trace.json")
    print(obs.export.aggregate(obs.export.jsonl_events()))
"""

from repro.obs import export, flight, metrics, schema
from repro.obs.provenance import Provenance
from repro.obs.telemetry import (
    COUNTER_NAMES,
    GAUGE_NAMES,
    HIST_BUCKETS,
    HISTOGRAM_NAMES,
    NULL_SPAN,
    SPAN_HISTOGRAMS,
    SPAN_NAMES,
    Histogram,
    Span,
    SpanRecord,
    TelemetrySnapshot,
    count,
    current_trace,
    disable,
    enable,
    gauge_max,
    is_enabled,
    new_trace_id,
    observe,
    reset,
    reset_trace,
    set_trace,
    snapshot,
    span,
    trace_context,
    traced,
)

__all__ = [
    "COUNTER_NAMES",
    "GAUGE_NAMES",
    "HIST_BUCKETS",
    "HISTOGRAM_NAMES",
    "Histogram",
    "NULL_SPAN",
    "SPAN_HISTOGRAMS",
    "SPAN_NAMES",
    "Provenance",
    "Span",
    "SpanRecord",
    "TelemetrySnapshot",
    "count",
    "current_trace",
    "disable",
    "enable",
    "export",
    "flight",
    "gauge_max",
    "is_enabled",
    "metrics",
    "new_trace_id",
    "observe",
    "reset",
    "reset_trace",
    "schema",
    "set_trace",
    "snapshot",
    "span",
    "trace_context",
    "traced",
]
