"""Bounded flight recorder: span trees retained for failed requests.

A resident service cannot keep every request's spans — the collector's
span ring (PR 10) constantly overwrites old spans — but the requests an
operator actually needs post-mortems for are exactly the ones that went
wrong: a 504 deadline trip, a 429/503 shed, a store-degraded fallback.
The :class:`FlightRecorder` is a small ring of **complete span trees**
captured at failure time, keyed by trace id: when the serving layer
sees a failure status it calls :meth:`record`, which filters the
current collector snapshot down to the request's trace id and stores
the tree alongside the access-log facts.

The ring is bounded (default 64 records) so a failure storm costs a
fixed amount of memory; the oldest post-mortems are overwritten first.
Dump it with ``GET /stats?flight=1`` or ``repro stats --flight FILE``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs import telemetry
from repro.obs.telemetry import TelemetrySnapshot

#: Default ring capacity — enough for a meaningful failure window,
#: bounded enough that a storm cannot grow memory.
DEFAULT_CAPACITY = 64

#: The reasons the serving layer records flights for.
REASONS = (
    "deadline",        # 504: cooperative deadline tripped
    "shed",            # 429/503: admission controller refused the work
    "store-degraded",  # persistent store fell back to compute
    "error",           # unexpected 5xx
    "slow",            # over the slow-request threshold (operator-set)
)


def spans_for_trace(
    trace_id: str, snap: TelemetrySnapshot | None = None
) -> list[dict]:
    """Every collected span carrying ``trace_id``, as plain dicts with
    microsecond timestamps re-based to the trace's earliest span (the
    same normalized form the exporters use)."""
    if snap is None:
        snap = telemetry.snapshot()
    matched = [s for s in snap.spans if s.trace_id == trace_id]
    if not matched:
        return []
    base_ns = min(s.start_ns for s in matched)
    return [
        {
            "name": s.name,
            "id": s.span_id,
            "parent": s.parent_id,
            "ts_us": (s.start_ns - base_ns) / 1000.0,
            "dur_us": s.duration_ns / 1000.0,
            "pid": s.pid,
            "tid": s.tid,
            "trace": s.trace_id,
            "args": dict(s.attrs),
        }
        for s in sorted(matched, key=lambda s: s.start_ns)
    ]


@dataclass(frozen=True)
class FlightRecord:
    """One retained post-mortem: the request facts plus its span tree."""

    trace_id: str
    reason: str
    status: int
    method: str = ""
    path: str = ""
    session: str | None = None
    duration_ms: float | None = None
    recorded_at: float = 0.0
    detail: str = ""
    spans: tuple = ()

    def to_doc(self) -> dict:
        return {
            "trace": self.trace_id,
            "reason": self.reason,
            "status": self.status,
            "method": self.method,
            "path": self.path,
            "session": self.session,
            "duration_ms": self.duration_ms,
            "recorded_at": self.recorded_at,
            "detail": self.detail,
            "spans": list(self.spans),
        }


class FlightRecorder:
    """A thread-safe bounded ring of :class:`FlightRecord`."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._ring: deque[FlightRecord] = deque(maxlen=max(1, capacity))
        self._recorded = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def record(
        self,
        trace_id: str,
        reason: str,
        status: int,
        *,
        method: str = "",
        path: str = "",
        session: str | None = None,
        duration_ms: float | None = None,
        detail: str = "",
        snap: TelemetrySnapshot | None = None,
    ) -> FlightRecord:
        """Capture the span tree for ``trace_id`` right now and retain
        it.  Span capture reads one collector snapshot; with telemetry
        disabled the record still lands, just with an empty tree — the
        access-log facts alone are worth keeping."""
        spans = tuple(spans_for_trace(trace_id, snap)) if trace_id else ()
        rec = FlightRecord(
            trace_id=trace_id,
            reason=reason,
            status=status,
            method=method,
            path=path,
            session=session,
            duration_ms=duration_ms,
            recorded_at=time.time(),
            detail=detail,
            spans=spans,
        )
        with self._lock:
            self._ring.append(rec)
            self._recorded += 1
        telemetry.count("serve.flight.recorded")
        return rec

    def dump(self) -> list[dict]:
        """Every retained record, oldest first, as JSON-able dicts."""
        with self._lock:
            records = list(self._ring)
        return [r.to_doc() for r in records]

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._ring),
                "recorded": self._recorded,
            }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
