"""The ``repro serve`` server: routes, deadlines, drain.

One asyncio event loop owns the sockets and the admission gate; engine
work runs in a small thread-pool executor sized by ``--workers``
(closure BFS mostly holds the GIL, but requests overlap on store I/O
and on NumPy sweeps).  The pieces compose as::

    client ──> http.read_request ──> dispatch
                    │ POST /v1/query
                    ▼
         AdmissionController.admit  ── full ──> 429 / 503 (shed)
                    │ slot, deadline still live
                    ▼
         ExecutionBudget(remaining deadline, max_states, token)
                    │ run_in_executor
                    ▼
         program_transmits / engine  ── trip ──> UNKNOWN partial
                    │
                    ▼ verdict identical to the CLI path

**Deadline propagation.**  The request's deadline is fixed at arrival;
queue wait spends it.  The event loop waits for the executor future
only up to the remaining deadline (plus a small cancellation grace);
on timeout it cancels the budget token, and the governed loop trips at
its next check — the response is an honest 504 UNKNOWN and the worker
thread is released, never abandoned mid-computation holding locks.

**Status contract** (see ``docs/SERVICE.md``): 200 carries a verdict
(``flow`` / ``no_flow``, or ``unknown`` when a *client-chosen* state cap
tripped); 504 is a deadline/cancellation UNKNOWN; 429/503 are shed
before any work; 400/404/405 are protocol errors; 500 is an internal
failure (including injected ``err`` faults) — with the error named,
never a fabricated verdict.

**Drain.**  SIGTERM/SIGINT stop the listener, let in-flight requests
finish (up to ``drain_grace_seconds``, then cancel their tokens), flush
every session's completed closures to the store, and exit 0.  A drained
server that restarts answers warm from those rows.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from dataclasses import dataclass
from functools import partial

from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.core import faults
from repro.core.budget import BudgetExceededError, CancellationToken
from repro.core.constraints import Constraint
from repro.core.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs.flight import FlightRecorder
from repro.serve.accesslog import AccessLog, AccessRecord
from repro.serve.admission import AdmissionController, RequestQuota, ShedError
from repro.serve.http import (
    HttpError,
    Request,
    json_response,
    read_request,
    text_response,
)
from repro.serve.sessions import Session, SessionRegistry
from repro.systems.program import PC, parse_expr, program_transmits

#: Extra wall clock the loop grants past the deadline for the
#: cooperative trip to surface before it cancels the token itself.
_DEADLINE_GRACE = 0.25

#: How long to wait for a cancelled worker to acknowledge the trip
#: before answering 504 without it (the thread finishes in background).
_CANCEL_ACK = 2.0


@dataclass
class ServeConfig:
    """Everything ``repro serve`` accepts on the command line."""

    host: str = "127.0.0.1"
    port: int = 0
    store: str | None = None
    workers: int = 4
    max_concurrency: int = 4
    max_queue: int = 16
    session_capacity: int = 32
    default_deadline_ms: float = 5000.0
    default_queue_wait_ms: float = 1000.0
    default_max_states: int | None = None
    drain_grace_seconds: float = 5.0
    max_body: int = 1 << 20
    access_log: str | None = None
    flight_capacity: int = 64
    slow_request_ms: float | None = None


@dataclass
class _TextPayload:
    """A non-JSON response body (`/metrics` exposition text)."""

    text: str
    content_type: str


def _parse_vars(doc: dict) -> dict:
    """``{"x": "0..3", "b": "bool"}`` -> domain dict, via the CLI parser
    so the two front doors accept exactly the same domain language."""
    from repro.cli import parse_domain

    raw = doc.get("vars")
    if not isinstance(raw, dict) or not raw:
        raise HttpError(400, "vars must be a non-empty object")
    try:
        return dict(
            parse_domain(f"{name}={spec}") for name, spec in raw.items()
        )
    except Exception as exc:
        raise HttpError(400, f"bad vars: {exc}") from None


class ReproServer:
    """The service.  ``await run()`` from :func:`asyncio.run`."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = SessionRegistry(
            store_path=config.store, capacity=config.session_capacity
        )
        self.admission = AdmissionController(
            config.max_concurrency, config.max_queue
        )
        self.executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self.draining = False
        self.ready = False
        self.port: int | None = None
        self._seq = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._active_tokens: set[CancellationToken] = set()
        self.requests_by_status: dict[int, int] = {}
        self.drain_flushed = 0
        self.access_log = AccessLog(config.access_log)
        self.flight = FlightRecorder(config.flight_capacity)
        #: Per-request side facts (queue wait, shed reason) keyed by
        #: trace id: written while handling, popped when the access line
        #: is emitted.  Requests are funneled through one event loop and
        #: every trace id is unique, so plain dict ops suffice.
        self._notes: dict[str, dict] = {}

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        obs.enable()
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready = True

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(self.drain())
                )
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass

    async def run(self, port_file: str | None = None) -> None:
        await self.start()
        self.install_signal_handlers()
        if port_file:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{self.port}\n")
        print(
            f"repro serve listening on {self.config.host}:{self.port}",
            file=sys.stderr,
            flush=True,
        )
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish or trip in-flight,
        flush completed memos, then release :meth:`run`."""
        if self.draining:
            return
        self.draining = True
        self.ready = False
        with obs.span("serve.drain"):
            if self._server is not None:
                # close() stops accepting; wait_closed() is deliberately
                # not awaited — on 3.12+ it also waits for every client
                # handler, and an idle keep-alive connection would wedge
                # the drain forever.
                self._server.close()
            deadline = time.monotonic() + self.config.drain_grace_seconds
            while self.admission.inflight and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            if self.admission.inflight:
                for token in tuple(self._active_tokens):
                    token.cancel()
                while (
                    self.admission.inflight
                    and time.monotonic() < deadline + _CANCEL_ACK
                ):
                    await asyncio.sleep(0.02)
            loop = asyncio.get_running_loop()
            self.drain_flushed = await loop.run_in_executor(
                self.executor, self.registry.flush
            )
            obs.count("serve.drain.flushed", self.drain_flushed)
            # Let responses for just-finished requests reach the wire
            # before run() returns and the process exits.
            await asyncio.sleep(0.05)
            self.executor.shutdown(wait=False, cancel_futures=True)
            self.access_log.close()
        print(
            f"repro serve drained ({self.drain_flushed} memo rows flushed)",
            file=sys.stderr,
            flush=True,
        )
        self._stopped.set()

    # -- connection loop ------------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = False
                request: Request | None = None
                trace_id: str | None = None
                started = time.monotonic()
                try:
                    request = await read_request(reader, self.config.max_body)
                    if request is None:
                        break
                    trace_id = request.trace_id
                    keep_alive = request.keep_alive
                    token = obs.set_trace(trace_id)
                    try:
                        status, doc = await self._dispatch(request)
                    finally:
                        obs.reset_trace(token)
                except HttpError as exc:
                    status, doc = exc.status, {"error": exc.message}
                    keep_alive = False
                except Exception as exc:
                    status, doc = 500, {"error": f"{type(exc).__name__}: {exc}"}
                if trace_id is None:
                    # The request never parsed (bad request line, huge
                    # body): mint an id anyway so the rejection is still
                    # a correlatable access-log line.
                    trace_id = obs.new_trace_id()
                duration_ms = (time.monotonic() - started) * 1000.0
                self.requests_by_status[status] = (
                    self.requests_by_status.get(status, 0) + 1
                )
                obs.count("serve.requests")
                obs.observe("serve.request.seconds", duration_ms / 1000.0)
                self._finish_request(
                    request, trace_id, status, duration_ms, doc
                )
                headers = {"X-Trace-Id": trace_id}
                if isinstance(doc, _TextPayload):
                    writer.write(
                        text_response(
                            status, doc.text, doc.content_type,
                            keep_alive, headers,
                        )
                    )
                else:
                    writer.write(
                        json_response(status, doc, keep_alive, headers)
                    )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _finish_request(
        self,
        request: Request | None,
        trace_id: str,
        status: int,
        duration_ms: float,
        doc,
    ) -> None:
        """Emit the access-log line and, for failures, a flight record."""
        note = self._notes.pop(trace_id, {})
        body = doc if isinstance(doc, dict) else {}
        budget = note.get("budget")
        if budget is None and isinstance(body.get("partial"), dict):
            budget = "exhausted"
        record = AccessRecord(
            trace_id=trace_id,
            method=request.method if request else "",
            path=request.path if request else "",
            status=status,
            duration_ms=duration_ms,
            session=body.get("session") or note.get("session"),
            verdict=body.get("verdict"),
            queue_wait_ms=note.get("queue_wait_ms"),
            budget=budget,
            shed=bool(body.get("shed")),
            error=body.get("error") if isinstance(body.get("error"), str)
            else None,
        )
        self.access_log.write(record)
        reason = note.get("reason")
        if reason is None:
            if status == 504:
                reason = "deadline"
            elif status in (429, 503):
                reason = "shed"
            elif status >= 500:
                reason = "error"
            elif (
                self.config.slow_request_ms is not None
                and duration_ms >= self.config.slow_request_ms
            ):
                reason = "slow"
        if reason is not None:
            self.flight.record(
                trace_id,
                reason,
                status,
                method=record.method,
                path=record.path,
                session=record.session,
                duration_ms=duration_ms,
                detail=record.error or "",
            )

    def _note(self, trace_id: str | None, **facts) -> None:
        if trace_id:
            self._notes.setdefault(trace_id, {}).update(facts)

    def _in_trace(self, trace_id: str | None, fn, *args):
        """Executor-thread entry: ``run_in_executor`` does not propagate
        contextvars, so the request's trace id is re-installed
        explicitly around the thread body (spans and Provenance read it
        from there)."""
        token = obs.set_trace(trace_id)
        try:
            return fn(*args)
        finally:
            obs.reset_trace(token)

    async def _dispatch(self, request: Request) -> tuple[int, dict]:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, self._healthz()
        if route == ("GET", "/readyz"):
            if self.ready and not self.draining:
                return 200, {"ready": True}
            return 503, {"ready": False, "draining": self.draining}
        if route == ("GET", "/stats"):
            if request.query.get("flight"):
                return 200, {
                    "flight": self.flight.dump(),
                    **self.flight.stats(),
                }
            return 200, self._stats()
        if route == ("GET", "/metrics"):
            return 200, _TextPayload(
                obs_metrics.render(extra_gauges=self._live_gauges()),
                obs_metrics.CONTENT_TYPE,
            )
        if route == ("POST", "/v1/sessions"):
            return await self._handle_sessions(request)
        if route == ("POST", "/v1/query"):
            return await self._handle_query(request)
        if request.path in (
            "/healthz", "/readyz", "/stats", "/metrics",
            "/v1/sessions", "/v1/query",
        ):
            return 405, {"error": f"{request.method} not allowed"}
        return 404, {"error": f"no route {request.path}"}

    # -- health / stats -------------------------------------------------------

    def _healthz(self) -> dict:
        store_degraded = self.registry.any_store_degraded()
        if self.draining:
            status = "draining"
        elif store_degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "store_degraded": store_degraded,
            "sessions": len(self.registry.sessions()),
            "inflight": self.admission.inflight,
            "queue_depth": self.admission.waiting,
        }

    def _live_gauges(self) -> dict[str, float]:
        """Point-in-time values for ``/metrics`` that the collector's
        high-water gauges do not capture."""
        return {
            "serve.inflight.current": float(self.admission.inflight),
            "serve.queue_depth.current": float(self.admission.waiting),
            "serve.sessions.resident": float(len(self.registry.sessions())),
            "serve.flight.retained": float(self.flight.stats()["retained"]),
        }

    def _stats(self) -> dict:
        snap = obs.snapshot()
        hists = {}
        for name in sorted(snap.hists):
            hist = snap.hists[name]
            hists[name] = {
                "count": hist.count,
                "sum_seconds": round(hist.sum_seconds, 6),
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
                "p99": hist.percentile(0.99),
            }
        return {
            "health": self._healthz(),
            "requests_by_status": {
                str(k): v for k, v in sorted(self.requests_by_status.items())
            },
            "admission": self.admission.stats(),
            "sessions": self.registry.stats(),
            "access": self.access_log.stats(),
            "flight": self.flight.stats(),
            "telemetry": {
                "counters": dict(sorted(snap.counters.items())),
                "gauges": dict(sorted(snap.gauges.items())),
                "hists": hists,
                "spans": len(snap.spans),
            },
        }

    # -- sessions -------------------------------------------------------------

    async def _handle_sessions(self, request: Request) -> tuple[int, dict]:
        if self.draining:
            return 503, {"error": "draining"}
        doc = request.json()
        program = doc.get("program")
        if not isinstance(program, str) or not program.strip():
            raise HttpError(400, "program must be a non-empty string")
        domains = _parse_vars(doc)
        prewarm = bool(doc.get("prewarm", False))
        loop = asyncio.get_running_loop()
        trace_id = obs.current_trace()
        try:
            session, created = await loop.run_in_executor(
                self.executor,
                partial(
                    self._in_trace,
                    trace_id,
                    partial(self.registry.create, program, domains),
                ),
            )
        except ReproError as exc:
            raise HttpError(400, f"bad program: {exc}") from None
        self._note(trace_id, session=session.key)
        if prewarm:
            await loop.run_in_executor(
                self.executor,
                partial(
                    self._in_trace,
                    trace_id,
                    partial(self._warm_session, session),
                ),
            )
        store = session.engine.store
        return 200, {
            "session": session.key,
            "created": created,
            "states": session.ps.system.space.size,
            "store_attached": store is not None,
            "store_degraded": session.store_degraded,
            "prewarmed": prewarm,
        }

    def _warm_session(self, session: Session) -> None:
        """Compute the closures the session's queries read: one per
        program variable, under the ``pc = entry`` constraint
        :func:`program_transmits` asks with.  Serial: this already runs
        on a request executor thread, beside concurrent requests."""
        ps = session.ps
        sources = [frozenset([name]) for name in ps.space.names if name != PC]
        with obs.span("serve.warm"):
            session.engine.closure(ps.entry_constraint(), sources)

    # -- queries --------------------------------------------------------------

    async def _handle_query(self, request: Request) -> tuple[int, dict]:
        if self.draining:
            return 503, {"error": "draining"}
        arrival = time.monotonic()
        self._seq += 1
        ordinal = self._seq
        doc = request.json()
        try:
            quota = RequestQuota.from_doc(
                doc,
                self.config.default_deadline_ms,
                self.config.default_queue_wait_ms,
                self.config.default_max_states,
            )
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad quota: {exc}") from None
        source = doc.get("source")
        target = doc.get("target")
        if not isinstance(source, str) or not isinstance(target, str):
            raise HttpError(400, "source and target are required strings")
        session = await self._resolve_session(doc)
        deadline_at = arrival + quota.deadline_ms / 1000.0
        try:
            faults.inject("serve.admit", ordinal)
        except faults.InjectedFaultError as exc:
            return 503, {"error": str(exc)}
        trace_id = obs.current_trace()
        try:
            queue_wait = min(
                quota.queue_wait_ms / 1000.0,
                max(0.0, deadline_at - time.monotonic()),
            )
            wait_from = time.monotonic()
            async with self.admission.admit(queue_wait):
                self._note(
                    trace_id,
                    queue_wait_ms=(time.monotonic() - wait_from) * 1000.0,
                    budget="governed",
                )
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    obs.count("serve.deadline_timeouts")
                    self._note(trace_id, budget="exhausted")
                    return 504, _unknown_doc(
                        "deadline", "deadline spent queueing"
                    )
                return await self._execute_query(
                    ordinal, session, doc, quota, remaining
                )
        except ShedError as exc:
            self._note(
                trace_id,
                reason="shed",
                queue_wait_ms=(time.monotonic() - wait_from) * 1000.0,
            )
            return exc.status, {
                "error": exc.reason,
                "shed": True,
                "retry_after_ms": int(self.config.default_queue_wait_ms),
            }

    async def _resolve_session(self, doc: dict) -> Session:
        key = doc.get("session")
        if key is not None:
            session = self.registry.get(str(key))
            if session is None:
                raise HttpError(404, f"no session {key!r}")
            return session
        program = doc.get("program")
        if not isinstance(program, str) or not program.strip():
            raise HttpError(
                400, "give either session (hash) or program + vars"
            )
        domains = _parse_vars(doc)
        loop = asyncio.get_running_loop()
        try:
            session, _ = await loop.run_in_executor(
                self.executor,
                partial(
                    self._in_trace,
                    obs.current_trace(),
                    partial(self.registry.create, program, domains),
                ),
            )
        except ReproError as exc:
            raise HttpError(400, f"bad program: {exc}") from None
        return session

    async def _execute_query(
        self,
        ordinal: int,
        session: Session,
        doc: dict,
        quota: RequestQuota,
        remaining: float,
    ) -> tuple[int, dict]:
        token = CancellationToken()
        budget = quota.budget(remaining, token)
        self._active_tokens.add(token)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self.executor,
            partial(
                self._in_trace,
                obs.current_trace(),
                partial(self._run_query, ordinal, session, doc, budget),
            ),
        )
        try:
            # shield(): a wait_for timeout must not cancel the executor
            # future — the thread is still running and its (possibly
            # just-late) result is awaited again below.
            return await asyncio.wait_for(
                asyncio.shield(future), remaining + _DEADLINE_GRACE
            )
        except asyncio.TimeoutError:
            token.cancel()
            obs.count("serve.deadline_timeouts")
            try:
                status, body = await asyncio.wait_for(
                    asyncio.shield(future), _CANCEL_ACK
                )
            except asyncio.TimeoutError:
                return 504, _unknown_doc(
                    "deadline", "worker did not acknowledge cancellation"
                )
            if status == 200:
                # Finished just past the wire deadline: the verdict is
                # still correct, but the client has already timed out —
                # report it as late rather than pretend it was in time.
                body = dict(body)
                body["late"] = True
                return 200, body
            return status, body
        finally:
            self._active_tokens.discard(token)

    def _run_query(
        self, ordinal: int, session: Session, doc: dict, budget
    ) -> tuple[int, dict]:
        """Executor-thread body: the same path the CLI walks."""
        faults.inject("serve.request", ordinal)
        session.count_query()
        entry = None
        entry_text = doc.get("entry")
        if entry_text is not None:
            expr = parse_expr(str(entry_text))
            entry = Constraint(
                session.ps.space,
                lambda s: bool(expr.eval(s)),
                name=str(entry_text),
            )
        with obs.span("serve.query"):
            try:
                result = program_transmits(
                    session.ps,
                    {str(doc["source"])},
                    str(doc["target"]),
                    entry,
                    budget,
                )
            except BudgetExceededError as exc:
                partial_doc = _unknown_doc(
                    exc.partial.reason,
                    exc.partial.describe(),
                    partial=exc.partial,
                )
                self._note(obs.current_trace(), budget="exhausted")
                if exc.partial.reason in ("deadline", "cancelled"):
                    obs.count("serve.deadline_timeouts")
                    return 504, partial_doc
                # A client-chosen cap (max_states) tripped: the request
                # succeeded at what it asked for — an honest UNKNOWN.
                return 200, partial_doc
        body: dict = {
            "verdict": "flow" if result else "no_flow",
            "source": doc["source"],
            "target": doc["target"],
            "session": session.key,
        }
        if result and result.witness is not None:
            body["witness"] = result.witness.describe()
        if result.provenance is not None:
            body["provenance"] = result.provenance.describe()
        return 200, body


def _unknown_doc(reason: str, detail: str, partial=None) -> dict:
    doc = {"verdict": "unknown", "reason": reason, "detail": detail}
    if partial is not None:
        doc["partial"] = {
            "label": partial.label,
            "expanded": partial.expanded,
            "discovered": partial.discovered,
            "frontier": partial.frontier,
            "elapsed": partial.elapsed,
        }
    return doc


__all__ = ["ReproServer", "ServeConfig"]
