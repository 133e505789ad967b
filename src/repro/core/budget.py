"""Execution governor: budgets, partial results and execution reports.

The exact decision procedures in this library are BFS/sweep loops over a
state space that is exponential in the number of objects (Defs 2-8…2-11):
one unlucky ``(A, phi)`` query can pin a core for minutes.  Long-running,
many-query workloads — lattice certification, covert-channel audits —
need *bounded, degradable* execution rather than all-or-nothing runs.

This module supplies the vocabulary:

- :class:`ExecutionBudget` — an immutable bundle of limits (wall-clock
  deadline, max pair-node expansions, max distinct pair nodes, a
  cooperative :class:`CancellationToken`).  ``budget.start(label)``
  produces a :class:`BudgetMeter` that the hot loops consult.
- :class:`BudgetMeter` — the per-run counter.  Hot loops call
  :meth:`BudgetMeter.check` every ``check_interval`` expansions; when a
  limit trips it raises :class:`BudgetExceededError` carrying a
  :class:`PartialResult` snapshot (states expanded, frontier size,
  elapsed time, verdict ``UNKNOWN``).
- :class:`ExecutionReport` / :class:`ExecutionLog` — per-query and
  per-engine accounting (expansions, fan-out degradations, the executor
  that finished), surfaced through the CLI and the audit report.

Soundness of ``UNKNOWN``: a budget can only *truncate* the exploration of
the pair graph, i.e. under-approximate the reachable pair set.  A ``YES``
verdict needs one reachable differing pair — any pair found before the
budget tripped is still a genuine witness — and a ``NO`` verdict needs
the *complete* closure.  So a budgeted run either returns the same
verdict an unbudgeted run would, or raises with ``UNKNOWN``; it can never
flip a YES to a NO or vice versa.  Re-running with a larger budget
monotonically refines ``UNKNOWN`` toward the exact verdict
(docs/FORMALISM.md, "Budgeted execution").

Persistence posture (PR 7): budget-tripped partial results are **never
persisted**.  A trip raises out of the hot loop *before* the engine's
memoization point, and the persistent store
(:mod:`repro.core.store`) only receives closures at that point — so
neither the RAM memo nor the on-disk store can ever serve a truncated
closure to a later (possibly unbudgeted) query.  Governed runs that
*complete* within budget are exact by the argument above and are
persisted like any other result.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace

from repro import obs
from repro.core.errors import ReproError

#: Default number of expansions between two budget checks inside a hot
#: loop.  Large enough that the check amortizes to well under 5% of the
#: loop body (see benchmarks/test_a3_budget.py), small enough that a
#: deadline is honoured within a few milliseconds of work.
CHECK_INTERVAL = 256


class CancellationToken:
    """Cooperative cancellation: callers :meth:`cancel`, governed loops
    observe ``token.cancelled`` at their next budget check.

    Thread-safe (a :class:`threading.Event` underneath), so one token
    governs every closure of a thread fan-out.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancellationToken(cancelled={self.cancelled})"


@dataclass(frozen=True)
class PartialResult:
    """What a governed run had established when its budget tripped.

    The verdict is always ``UNKNOWN``: the run saw ``expanded`` pair
    expansions of ``discovered`` discovered pair nodes, with ``frontier``
    still unexplored — an under-approximation of the closure, so no
    negative verdict is available (see module docstring).
    """

    label: str
    reason: str  # "deadline" | "max_expanded" | "max_pairs" | "cancelled"
    expanded: int
    discovered: int
    frontier: int
    elapsed: float
    verdict: str = "UNKNOWN"

    def describe(self) -> str:
        return (
            f"{self.verdict} [{self.reason}] {self.label}: "
            f"{self.expanded} expanded / {self.discovered} discovered, "
            f"frontier {self.frontier}, {self.elapsed:.3f}s elapsed"
        )


class BudgetExceededError(ReproError):
    """A governed loop ran out of budget.  Carries the
    :class:`PartialResult` snapshot so callers can degrade (report
    ``UNKNOWN``, fall back to per-operation obligations, retry with a
    larger budget) instead of aborting a whole certification."""

    def __init__(self, partial: PartialResult) -> None:
        self.partial = partial
        super().__init__(partial.describe())


@dataclass(frozen=True)
class ExecutionBudget:
    """Limits for one governed execution region.

    All limits are optional; an all-``None`` budget is unbounded and
    :meth:`start` returns ``None`` so hot loops keep their unmetered fast
    path.  ``max_seconds`` is wall-clock per governed run (each closure /
    sweep started under the budget gets its own clock); ``max_expanded``
    bounds pair-node *expansions*; ``max_pairs`` bounds distinct pair
    nodes *discovered* (memory); ``token`` cancels cooperatively.
    """

    max_seconds: float | None = None
    max_expanded: int | None = None
    max_pairs: int | None = None
    token: CancellationToken | None = None
    check_interval: int = CHECK_INTERVAL

    @property
    def bounded(self) -> bool:
        return (
            self.max_seconds is not None
            or self.max_expanded is not None
            or self.max_pairs is not None
            or self.token is not None
        )

    def start(self, label: str = "") -> "BudgetMeter | None":
        """A fresh meter for one governed run, or ``None`` if unbounded."""
        if not self.bounded:
            return None
        return BudgetMeter(self, label)

    def scaled(self, factor: float) -> "ExecutionBudget":
        """The same budget with every numeric limit multiplied by
        ``factor`` — the retry-with-a-larger-budget helper.  A zero
        limit scales from one unit (1 ms / 1 expansion / 1 pair):
        multiplying zero would return the same exhausted budget and the
        retry could never make progress."""
        return replace(
            self,
            max_seconds=None
            if self.max_seconds is None
            else max(self.max_seconds, 1e-3) * factor,
            max_expanded=None
            if self.max_expanded is None
            else int(max(self.max_expanded, 1) * factor),
            max_pairs=None
            if self.max_pairs is None
            else int(max(self.max_pairs, 1) * factor),
        )


class BudgetMeter:
    """The mutable per-run counterpart of an :class:`ExecutionBudget`.

    Hot loops call :meth:`check` periodically (every
    ``budget.check_interval`` expansions); the meter raises
    :class:`BudgetExceededError` with a :class:`PartialResult` when a
    limit trips.  One meter governs one logical run — a closure BFS plus
    the sweeps answered from it share the meter's clock.
    """

    __slots__ = ("budget", "label", "started", "deadline", "expanded", "discovered")

    def __init__(self, budget: ExecutionBudget, label: str = "") -> None:
        self.budget = budget
        self.label = label
        self.started = time.perf_counter()
        self.deadline = (
            None
            if budget.max_seconds is None
            else self.started + budget.max_seconds
        )
        self.expanded = 0
        self.discovered = 0

    @property
    def interval(self) -> int:
        return self.budget.check_interval

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def check(self, expanded: int, discovered: int, frontier: int = 1) -> None:
        """Record progress and raise if any limit has tripped.

        ``frontier`` is the remaining-work estimate at the check point.
        The expansion limit trips only while work remains (``frontier >
        0``): a run that finishes using exactly its budget *completes* —
        tripping it would turn a correct verdict into ``UNKNOWN``.  A
        zero-expansion budget therefore trips at the pre-loop check,
        before any pair is expanded.
        """
        self.expanded = expanded
        self.discovered = discovered
        budget = self.budget
        if (
            budget.max_expanded is not None
            and frontier > 0
            and expanded >= budget.max_expanded
        ):
            raise BudgetExceededError(self._snapshot("max_expanded", frontier))
        if budget.max_pairs is not None and discovered > budget.max_pairs:
            raise BudgetExceededError(self._snapshot("max_pairs", frontier))
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceededError(self._snapshot("deadline", frontier))
        if budget.token is not None and budget.token.cancelled:
            raise BudgetExceededError(self._snapshot("cancelled", frontier))

    def advance(self, delta: int, discovered: int, frontier: int = 1) -> None:
        """Bulk-loop metering: add ``delta`` expansions to the running
        count and check.  The scalar BFS calls :meth:`check` with an
        absolute cursor every ``interval`` expansions; bulk kernels
        (:mod:`repro.core.bitset`) expand a whole frontier chunk per
        step, so they meter in frontier-sized increments instead.  The
        same trip semantics apply — in particular ``frontier == 0``
        (nothing left after this chunk) never trips ``max_expanded``.
        """
        self.check(self.expanded + delta, discovered, frontier)

    def _snapshot(self, reason: str, frontier: int) -> PartialResult:
        return PartialResult(
            label=self.label,
            reason=reason,
            expanded=self.expanded,
            discovered=self.discovered,
            frontier=frontier,
            elapsed=self.elapsed,
        )


@dataclass(frozen=True)
class ExecutionReport:
    """Accounting for one governed execution (a closure, a sweep, or a
    whole warm fan-out): how much work ran, how it was executed, and how
    it degraded.

    ``executor`` is the path that ultimately produced the result
    (``"thread"`` or ``"serial"``); ``degradations`` lists the fallback
    steps taken (e.g. ``("thread->serial",)``).  ``completed`` is False
    exactly when the run ended in :class:`BudgetExceededError`, in which
    case ``partial`` holds the snapshot.
    """

    label: str
    executor: str = "serial"
    expansions: int = 0
    degradations: tuple[str, ...] = ()
    elapsed: float = 0.0
    completed: bool = True
    partial: PartialResult | None = None

    def describe(self) -> str:
        bits = [
            f"{self.label}: {self.expansions} expansions via {self.executor}",
            f"{self.elapsed:.3f}s",
        ]
        if self.degradations:
            bits.append("degraded " + ", ".join(self.degradations))
        if not self.completed:
            bits.append(
                "BUDGET EXCEEDED"
                + (f" ({self.partial.reason})" if self.partial else "")
            )
        return "  ".join(bits)


#: Default :class:`ExecutionLog` ring-buffer capacity.  Long sessions
#: (one shared engine per system, many audits) previously grew the log
#: without bound; a ring keeps the freshest reports and counts the rest.
LOG_CAPACITY = 1024


class ExecutionLog:
    """Thread-safe **bounded** collector of :class:`ExecutionReport`
    entries — one per governed run on an engine.

    The log is a ring buffer of ``capacity`` reports: the newest always
    fit, the oldest are dropped and counted (:attr:`dropped`), so a
    long-lived shared engine cannot leak memory through its own
    accounting.  Every :meth:`record` also feeds the telemetry counters
    (``execution.reports``, ``budget.trips``, ``pool.degradations``)
    when :mod:`repro.obs` is enabled, which is how the coarse PR-4
    signal and the PR-5 trace stream stay in sync.

    ``describe()`` renders the audit/CLI "execution" section;
    ``summary()`` aggregates the counters.
    """

    def __init__(self, capacity: int = LOG_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self.capacity = capacity
        self._reports: deque[ExecutionReport] = deque(maxlen=capacity)
        self._dropped = 0
        self._recorded = 0

    def record(self, report: ExecutionReport) -> None:
        with self._lock:
            if len(self._reports) == self.capacity:
                self._dropped += 1
                obs.count("execution.reports_dropped")
            self._reports.append(report)
            self._recorded += 1
            size = len(self._reports)
        obs.count("execution.reports")
        obs.gauge_max("execution.log_size", size)
        if not report.completed:
            obs.count("budget.trips")
        if report.degradations:
            obs.count("pool.degradations", len(report.degradations))

    @property
    def reports(self) -> tuple[ExecutionReport, ...]:
        with self._lock:
            return tuple(self._reports)

    @property
    def dropped(self) -> int:
        """Reports evicted by the ring since construction/clear."""
        with self._lock:
            return self._dropped

    @property
    def recorded(self) -> int:
        """Total reports ever recorded (kept + dropped)."""
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._reports.clear()
            self._dropped = 0
            self._recorded = 0

    def summary(self) -> dict[str, object]:
        with self._lock:
            reports = tuple(self._reports)
            dropped = self._dropped
        degradations: list[str] = []
        for report in reports:
            degradations.extend(report.degradations)
        return {
            "runs": len(reports),
            "capacity": self.capacity,
            "dropped": dropped,
            "expansions": sum(r.expansions for r in reports),
            "degradations": tuple(degradations),
            "incomplete": sum(1 for r in reports if not r.completed),
            "elapsed": sum(r.elapsed for r in reports),
        }

    def describe(self) -> str:
        reports = self.reports
        if not reports:
            return "execution: no governed runs recorded"
        lines = ["execution:"]
        lines.extend("  " + report.describe() for report in reports)
        s = self.summary()
        tail = (
            f"  total: {s['runs']} runs, {s['expansions']} expansions, "
            f"{s['incomplete']} incomplete"
        )
        if s["dropped"]:
            tail += (
                f" (ring capacity {s['capacity']}, "
                f"{s['dropped']} older report(s) dropped)"
            )
        lines.append(tail)
        return "\n".join(lines)
