"""Zero-dependency telemetry: hierarchical spans, counters and gauges.

The dependency stack is four layers deep (object pair-graph, compiled
integer kernel, batched fixed-history sweeps, budget-governed execution)
and, before this module, emitted exactly one coarse signal — the
:class:`~repro.core.budget.ExecutionLog`.  This module supplies the
tracing/metrics vocabulary every serving stack needs, with the two
properties the hot loops demand:

- **Off by default, and free when off.**  The module-level
  :data:`_ENABLED` flag is read once per instrumentation point; a
  disabled :func:`span` returns the shared :data:`NULL_SPAN` singleton
  (no allocation, no clock read) and disabled counters return before
  touching the collector.  The BFS inner loops are *not* instrumented at
  all when disabled — per-expansion statistics (frontier high-water
  marks) are gathered only by the telemetry variant of the loop, which
  is selected once per closure (see ``CompiledKernel.closure``).
- **Thread-safe.**  The collector is lock-protected; spans parent
  through a :class:`contextvars.ContextVar`, so thread-pool and asyncio
  fan-outs nest correctly.

Telemetry **never changes verdicts**: instrumentation only reads the
loop state the algorithms already maintain, and every governed code path
is byte-identical whether or not the collector is live (property-tested
in ``tests/property/test_telemetry_agreement.py``).

Enable with :func:`enable` (or ``REPRO_TELEMETRY=1`` in the
environment); export with :mod:`repro.obs.export` (Chrome
``chrome://tracing`` JSON or a flat JSONL event stream); summarize a
written trace with ``repro stats TRACE``.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Environment variable that enables telemetry at import time (any
#: non-empty value other than "0").  This is how child processes and CI
#: jobs switch the collector on without code changes.
ENV_FLAG = "REPRO_TELEMETRY"

#: Environment variable bounding the collector's span ring.  A resident
#: service runs with telemetry enabled for days; an unbounded span list
#: would be a slow leak.  The newest spans always win — the oldest are
#: dropped and counted on the ``obs.spans_dropped`` counter.
ENV_MAX_SPANS = "REPRO_TELEMETRY_MAX_SPANS"

_DEFAULT_MAX_SPANS = 65536

#: Category tag stamped on every span record; exporters map it to the
#: Chrome trace ``cat`` field.
CATEGORY = "repro"


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span: a named, timed region of work.

    ``start_ns``/``duration_ns`` come from :func:`time.perf_counter_ns`
    (monotonic); ``parent_id`` is the span id of the enclosing span in
    the same context, or ``None`` for roots.  ``attrs`` holds small
    key→value annotations (source sets, constraint names, memo
    outcomes) — values must be JSON-serializable.
    ``trace_id`` is the request/trace correlation id active when the
    span closed (see :func:`trace_context`), or ``None`` outside any
    trace — e.g. a CLI run that never minted one.
    """

    name: str
    span_id: int
    parent_id: int | None
    start_ns: int
    duration_ns: int
    pid: int
    tid: int
    attrs: Mapping[str, object] = field(default_factory=dict)
    trace_id: str | None = None


# -- latency histograms -------------------------------------------------------

#: Fixed bucket upper bounds in **seconds** for every latency histogram.
#: Fixed and shared means histograms merge exactly (element-wise count
#: addition) across threads and scraped servers — the property
#: Prometheus exposition relies on.
#: One implicit +Inf overflow bucket follows the last bound.
HIST_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Span names whose durations also feed a fixed-bucket histogram on the
#: enabled path (one dict lookup per span exit; the disabled path never
#: allocates a span at all, so its cost is unchanged).
SPAN_HISTOGRAMS = {
    "engine.closure": "engine.closure.seconds",
    "engine.history_sweep": "engine.history_sweep.seconds",
    "serve.query": "serve.query.seconds",
    "serve.session.create": "serve.session.seconds",
}

#: Every histogram the stack records (the span-fed ones above plus the
#: explicitly observed service-level ones).
HISTOGRAM_NAMES = tuple(sorted(SPAN_HISTOGRAMS.values())) + (
    "serve.queue_wait.seconds",   # admission: arrival -> execution slot
    "serve.request.seconds",      # full request: read -> response bytes
)


@dataclass(frozen=True)
class Histogram:
    """One immutable fixed-bucket latency histogram.

    ``counts[i]`` is the number of observations with
    ``value <= HIST_BUCKETS[i]`` (non-cumulative, one extra overflow
    slot at the end); ``sum_seconds`` is the exact sum of observed
    values, so mean latency survives the bucketing.
    """

    counts: tuple[int, ...]
    sum_seconds: float

    @property
    def count(self) -> int:
        return sum(self.counts)

    def percentile(self, q: float) -> float | None:
        """The upper bucket bound covering quantile ``q`` (0 < q <= 1),
        or ``None`` for an empty histogram.  Overflow observations
        report the largest finite bound (Prometheus convention)."""
        total = self.count
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= rank:
                return HIST_BUCKETS[min(i, len(HIST_BUCKETS) - 1)]
        return HIST_BUCKETS[-1]

    def merge(self, other: "Histogram") -> "Histogram":
        return Histogram(
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum_seconds=self.sum_seconds + other.sum_seconds,
        )


class _Collector:
    """Thread-safe sink for finished spans, counters and gauges.

    Counters accumulate (``+= n``); gauges keep a high-water mark
    (``max``).  Both are plain ``str -> int/float`` dicts, so snapshots
    are cheap copies.
    """

    def __init__(self, max_spans: int | None = None) -> None:
        if max_spans is None:
            try:
                max_spans = int(
                    os.environ.get(ENV_MAX_SPANS, _DEFAULT_MAX_SPANS)
                )
            except ValueError:
                max_spans = _DEFAULT_MAX_SPANS
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=max(1, max_spans))
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, list] = {}  # name -> [counts list, sum]
        self._next_id = 1

    def new_span_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def add_span(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                # The ring is full: the oldest span is about to fall off.
                self._counters["obs.spans_dropped"] = (
                    self._counters.get("obs.spans_dropped", 0) + 1
                )
            self._spans.append(record)

    def add_count(self, name: str, n: int) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def add_gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        bucket = bisect.bisect_left(HIST_BUCKETS, seconds)
        with self._lock:
            entry = self._hists.get(name)
            if entry is None:
                entry = [[0] * (len(HIST_BUCKETS) + 1), 0.0]
                self._hists[name] = entry
            entry[0][bucket] += 1
            entry[1] += seconds

    def snapshot(self) -> "TelemetrySnapshot":
        with self._lock:
            return TelemetrySnapshot(
                spans=tuple(self._spans),
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                hists={
                    name: Histogram(counts=tuple(entry[0]), sum_seconds=entry[1])
                    for name, entry in self._hists.items()
                },
            )

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


@dataclass(frozen=True)
class TelemetrySnapshot:
    """An immutable copy of the collector state at one instant."""

    spans: tuple[SpanRecord, ...]
    counters: dict[str, int]
    gauges: dict[str, float]
    hists: dict[str, Histogram] = field(default_factory=dict)


_COLLECTOR = _Collector()

#: The one flag every instrumentation point reads.  Mutated only by
#: :func:`enable` / :func:`disable`; reads are unsynchronized on purpose
#: (a stale read during the enable race loses at most one event).
_ENABLED = False

_CURRENT_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

_TRACE_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_trace_id", default=None
)


# -- trace context ------------------------------------------------------------
#
# A trace id is the per-request correlation key: minted once at the edge
# (``serve/http.py`` per HTTP request, or any caller via trace_context),
# carried by contextvar through the engine layers, and stamped on every
# span, access-log line and Provenance record produced underneath it.
# Trace propagation is deliberately NOT gated on _ENABLED — access logs
# and provenance want correlation ids even when span collection is off,
# and a contextvar read costs nanoseconds.


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random; collision odds are
    negligible at service scale and ids never need to be sequential)."""
    return os.urandom(8).hex()


def current_trace() -> str | None:
    """The trace id active in this context, or ``None`` outside any."""
    return _TRACE_ID.get()


def set_trace(trace_id: str | None) -> contextvars.Token:
    """Install ``trace_id`` in this context; returns the token for
    :func:`reset_trace`.  Use this form from executor threads, where a
    ``with`` block cannot span the thread hop."""
    return _TRACE_ID.set(trace_id)


def reset_trace(token: contextvars.Token) -> None:
    _TRACE_ID.reset(token)


@contextmanager
def trace_context(trace_id: str | None = None):
    """Run a block under a trace id (minting one when not given)::

        with obs.trace_context() as trace_id:
            ... every span/provenance in here carries trace_id ...
    """
    if trace_id is None:
        trace_id = new_trace_id()
    token = _TRACE_ID.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)


def enable(reset: bool = False) -> None:
    """Switch the collector on (optionally clearing prior state)."""
    global _ENABLED
    if reset:
        _COLLECTOR.clear()
    _ENABLED = True


def disable() -> None:
    """Switch the collector off.  Already-collected data is kept until
    :func:`reset` — so a CLI run can disable then export."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    return _ENABLED


def reset() -> None:
    """Drop all collected spans, counters and gauges."""
    _COLLECTOR.clear()


def snapshot() -> TelemetrySnapshot:
    """Copy out everything collected so far."""
    return _COLLECTOR.snapshot()


# -- spans --------------------------------------------------------------------


class _NullSpan:
    """The disabled-path span: a reusable, reentrant no-op context
    manager.  A single shared instance serves every disabled call, so
    ``with obs.span(...)`` costs one attribute load when telemetry is
    off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """A live span: times a region on the monotonic clock and records a
    :class:`SpanRecord` on exit.  Nesting is tracked per-context via a
    :class:`contextvars.ContextVar`, so spans parent correctly across
    threads (each thread pool task runs in a copied context)."""

    __slots__ = ("name", "attrs", "span_id", "_parent_token", "_start_ns")

    def __init__(self, name: str, attrs: dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = _COLLECTOR.new_span_id()
        self._parent_token: contextvars.Token | None = None
        self._start_ns = 0

    def set(self, key: str, value: object) -> None:
        """Attach an attribute mid-span (e.g. a memo outcome discovered
        after entry)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._parent_token = _CURRENT_SPAN.set(self.span_id)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        end_ns = time.perf_counter_ns()
        token = self._parent_token
        parent_id = token.old_value if token is not None else None
        if parent_id is contextvars.Token.MISSING:
            parent_id = None
        if token is not None:
            _CURRENT_SPAN.reset(token)
        _COLLECTOR.add_span(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=parent_id,
                start_ns=self._start_ns,
                duration_ns=end_ns - self._start_ns,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self.attrs,
                trace_id=_TRACE_ID.get(),
            )
        )
        hist = SPAN_HISTOGRAMS.get(self.name)
        if hist is not None:
            _COLLECTOR.observe(hist, (end_ns - self._start_ns) / 1e9)


def span(name: str, **attrs: object) -> Span | _NullSpan:
    """A context manager timing one named region.

    Disabled telemetry returns the shared no-op singleton.  Attribute
    values should be small and JSON-serializable; expensive attrs should
    be computed behind an :func:`is_enabled` guard at the call site.
    """
    if not _ENABLED:
        return NULL_SPAN
    return Span(name, attrs)


def traced(name: str) -> Callable:
    """Decorator form of :func:`span` — wraps the function body in a
    span named ``name`` when telemetry is enabled, and is a plain
    passthrough call when disabled."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object):
            if not _ENABLED:
                return fn(*args, **kwargs)
            with Span(name, {}):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -- counters / gauges --------------------------------------------------------


def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` (no-op when disabled)."""
    if not _ENABLED:
        return
    _COLLECTOR.add_count(name, n)


def gauge_max(name: str, value: float) -> None:
    """Raise gauge ``name`` to ``value`` if it is a new high-water mark
    (no-op when disabled)."""
    if not _ENABLED:
        return
    _COLLECTOR.add_gauge_max(name, value)


def observe(name: str, seconds: float) -> None:
    """Record one duration into the fixed-bucket histogram ``name``
    (no-op when disabled).  Bucket bounds are :data:`HIST_BUCKETS`."""
    if not _ENABLED:
        return
    _COLLECTOR.observe(name, seconds)


# -- span/counter taxonomy ----------------------------------------------------

#: The span names the stack emits, for reference and for the trace
#: validator (docs/OBSERVABILITY.md is the prose glossary).
SPAN_NAMES = (
    "engine.closure",          # one (A, phi) pair-graph closure (memo miss)
    "engine.history_sweep",    # one (A, H, phi) fixed-history bucket sweep
    "engine.history_set",      # one (A, H, phi, B) set-target pair scan
    "engine.operation_flows",  # one per-constraint single-step flow matrix
    "engine.warm",             # one batched closure fan-out
    "kernel.closure",          # the compiled integer BFS itself
    "audit.cell",              # one (source, target) audit cell
    "taint.closure",           # the syntactic taint baseline
    "induction.per_operation_flows",
    "induction.cor4_2",        # prove_no_dependency
    "induction.cor4_3",        # prove_via_relation
    "induction.cor5_6",        # prove_no_dependency_nonautonomous
    "obligation.preconditions",
    "obligation.alternative_a",
    "obligation.alternative_b",
    "obligation.relation_closure",
    "store.load",              # one persistent-store row fetch (+kind attr)
    "store.save",              # one persistent-store row write (+kind attr)
    "diff.compare",            # one repro-diff closure sweep over two versions
    "quant.measure",           # one compiled quantitative measure (+kind attr)
    "quant.channel_matrix",    # one batched channel-matrix sweep
    "quant.capacity",          # one Blahut-Arimoto capacity solve
    "serve.query",             # one service query's engine work
    "serve.session.create",    # build + compile + key one session
    "serve.warm",              # one session prewarm fan-out
    "serve.drain",             # the SIGTERM drain sequence
)

#: Counter names (cumulative) and gauge names (high-water marks).
COUNTER_NAMES = (
    "engine.closure.requests",
    "engine.closure.memo_hit",
    "engine.closure.memo_miss",
    "engine.history_table.memo_hit",
    "engine.history_table.memo_miss",
    "engine.history_table.evictions",
    "engine.history_set.memo_hit",
    "engine.history_set.memo_miss",
    "engine.history_set.evictions",
    "engine.step_flows.memo_hit",
    "engine.step_flows.memo_miss",
    "kernel.pair_expansions",
    "kernel.pairs_discovered",
    "kernel.history_compose.memo_hit",
    "kernel.history_compose.gathers",
    "kernel.history_compose.evictions",
    "kernel.sat_ids.evictions",
    "kernel.bitset.levels",
    "pool.degradations",
    "budget.trips",
    "execution.reports",
    "execution.reports_dropped",
    "store.hit",
    "store.miss",
    "store.write",
    "store.invalidate",
    "store.evictions",
    "store.degraded",
    "store.corrupt",
    "quant.states_scanned",
    "quant.buckets_scanned",
    "quant.ba_iterations",
    "engine.buckets.evictions",
    "serve.requests",
    "serve.shed",
    "serve.deadline_timeouts",
    "serve.sessions.created",
    "serve.sessions.evicted",
    "serve.drain.flushed",
    "serve.access.lines",
    "serve.access.write_errors",
    "serve.flight.recorded",
    "obs.spans_dropped",
)

GAUGE_NAMES = (
    "kernel.frontier_high_water",
    "engine.closure.pairs",
    "engine.history_table.evictions",
    "engine.history_set.evictions",
    "kernel.history_compose.evictions",
    "kernel.sat_ids.evictions",
    "execution.log_size",
    "store.evictions",
    "store.bytes",
    "serve.queue_depth",
    "serve.inflight",
)


if os.environ.get(ENV_FLAG, "0") not in ("", "0"):
    enable()
