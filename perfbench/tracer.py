"""Run the repro CLI with timing wrappers around each layer's calls.

    python perfbench/tracer.py --spans OUT.json --spawned-at T -- serve ARGS...

behaves like ``python -m repro serve ARGS...`` after wrapping the public
calls listed in ``install()``.  Each wrapped call becomes a span: name,
start, end, span id, parent span id, the request's trace id (its
``X-Trace-Id``; ``-`` outside a request) and the counts the wrapper
took.  Spans stay in memory and are written to OUT.json when the process
exits.

Times come from ``time.monotonic()``, the system-wide CLOCK_MONOTONIC on
Linux, so the benchmark lines them up with its own client timestamps and
with ``--spawned-at``, the moment it started this process.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import contextvars
import functools
import itertools
import json
import sys
import threading
import time
import weakref

_now = time.monotonic
_ids = itertools.count(1)
_parent: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_parent", default=None
)


class Recorder:
    """Spans, per-trace counts and per-thread tallies of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.local = threading.local()
        self._lock = threading.Lock()
        self._current_trace = lambda: None

    def trace(self) -> str:
        return self._current_trace() or "-"

    def add(self, name, start, end, trace=None, parent=None, span_id=None, **counts):
        self.spans.append(
            [name, start, end, span_id or next(_ids), parent, trace or self.trace(), counts]
        )

    def count(self, name: str, n: int = 1) -> None:
        trace = self.trace()
        with self._lock:
            per_trace = self.counts.setdefault(trace, {})
            per_trace[name] = per_trace.get(name, 0) + n

    def tick(self, name: str) -> None:
        """Add one to this thread's tally ``name``."""
        setattr(self.local, name, getattr(self.local, name, 0) + 1)

    @contextlib.contextmanager
    def span(self, name: str, tallies: tuple[str, ...] = ()):
        """Time the body; the yielded dict collects the span's counts,
        starting with how far each of ``tallies`` grew in this thread."""
        span_id = next(_ids)
        parent = _parent.get()
        token = _parent.set(span_id)
        counts: dict[str, int] = {}
        before = [getattr(self.local, t, 0) for t in tallies]
        start = _now()
        try:
            yield counts
        finally:
            end = _now()
            _parent.reset(token)
            for tally, was in zip(tallies, before):
                counts[tally] = getattr(self.local, tally, 0) - was
            self.add(name, start, end, None, parent, span_id, **counts)

    def dump(self, path: str, extra: dict) -> None:
        doc = {"spans": self.spans, "counts": self.counts, **extra}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded module's reference to ``original`` at ``wrapper``
    (``from m import f`` copies the name into the importing module)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not module.__name__.startswith("repro"):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


def _timed(rec: Recorder, name: str, fn, tallies: tuple[str, ...] = ()):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, tallies):
            return fn(*args, **kwargs)

    return wrapper


class _FirstLine:
    """StreamReader proxy that notes when the request's first line arrived,
    so the parse span excludes keep-alive idle time."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.at: float | None = None

    async def readuntil(self, separator=b"\n"):
        line = await self._reader.readuntil(separator)
        if self.at is None:
            self.at = _now()
        return line

    def __getattr__(self, name):
        return getattr(self._reader, name)


class _Connection:
    """sqlite3 connection proxy counting rows, bytes and commits."""

    def __init__(self, rec: Recorder, conn) -> None:
        self._rec = rec
        self._conn = conn

    def execute(self, sql, params=()):
        before = self._conn.total_changes
        cursor = self._conn.execute(sql, params)
        changed = self._conn.total_changes - before
        if changed:
            self._rec.count("store.rows_written", changed)
            self._rec.count(
                "store.bytes_written",
                sum(len(p) for p in params if isinstance(p, (bytes, str))),
            )
        return cursor

    def commit(self):
        self._rec.count("store.commits")
        return self._conn.commit()

    def __getattr__(self, name):
        return getattr(self._conn, name)


class _Sqlite:
    def __init__(self, rec: Recorder, module) -> None:
        self._rec = rec
        self._module = module

    def connect(self, *args, **kwargs):
        return _Connection(self._rec, self._module.connect(*args, **kwargs))

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(rec: Recorder) -> None:
    """Wrap the layer calls named in perfbench/README.md."""
    import repro.cli  # noqa: F401  (loads every module the CLI uses)
    from repro import obs
    from repro.core import store
    from repro.core.compiled import CompiledClosure, CompiledSystem
    from repro.core.constraints import Constraint
    from repro.core.dependency import Witness
    from repro.core.engine import DependencyEngine
    from repro.core.system import Operation
    from repro.systems.program import build_program_system

    rec._current_trace = obs.current_trace

    # Every operation call, tallied per thread as op_execs.
    call = Operation.__call__

    @functools.wraps(call)
    def call_wrapper(op, state):
        rec.tick("op_execs")
        return call(op, state)

    Operation.__call__ = call_wrapper

    # systems.program
    _replace_everywhere(
        build_program_system,
        _timed(rec, "program.build", build_program_system, ("op_execs",)),
    )

    # core.compiled: the first compiled_system() call per engine compiles.
    compiled_system = DependencyEngine.compiled_system
    compiled_engines: weakref.WeakSet = weakref.WeakSet()

    @functools.wraps(compiled_system)
    def compiled_wrapper(engine):
        if engine in compiled_engines:
            return compiled_system(engine)
        compiled_engines.add(engine)
        with rec.span("compiled.compile", ("op_execs",)):
            return compiled_system(engine)

    DependencyEngine.compiled_system = compiled_wrapper

    # core.constraints: every predicate call, tallied per thread as evals.
    init = Constraint.__init__

    @functools.wraps(init)
    def constraint_init(self, space, fn, name="phi"):
        if not getattr(fn, "_perfbench_counted", False):
            inner = fn

            def fn(state):
                rec.tick("evals")
                return inner(state)

            fn._perfbench_counted = True
        init(self, space, fn, name)

    Constraint.__init__ = constraint_init
    satisfying = _timed(rec, "constraints.satisfying", Constraint.satisfying.fget, ("evals",))
    Constraint.satisfying = property(satisfying)
    CompiledSystem.sat_ids = _timed(rec, "constraints.sat_ids", CompiledSystem.sat_ids)

    # core.engine
    DependencyEngine.depends_ever = _timed(rec, "engine.query", DependencyEngine.depends_ever)

    # core.bitset (the closure BFS, whichever kernel mode runs it)
    closure = CompiledSystem.closure

    @functools.wraps(closure)
    def closure_wrapper(self, sources, constraint=None, constraint_name="tt",
                        meter=None, mode="scalar"):
        with rec.span("kernel.closure") as counts:
            result = closure(self, sources, constraint, constraint_name, meter, mode)
            n = self.kernel.n
            counts["pairs_expanded"] = len(result)
            counts["mask_bytes"] = 5 * n * n if mode == "bitset" else 0
            return result

    CompiledSystem.closure = closure_wrapper

    # core.store
    _replace_everywhere(store.system_hash, _timed(rec, "store.hash", store.system_hash))
    for method, name in (
        ("register_system", "store.register"),
        ("load_closure", "store.load"),
        ("save_closure", "store.save"),
    ):
        original = getattr(store.PersistentStore, method)
        setattr(store.PersistentStore, method, _timed(rec, name, original))
    store.sqlite3 = _Sqlite(rec, store.sqlite3)

    # witness decoding
    CompiledClosure.witness_path = _timed(
        rec, "witness.path", CompiledClosure.witness_path
    )
    Witness.describe = _timed(rec, "witness.describe", Witness.describe)

    # serve
    from repro.serve import app, http
    from repro.serve.admission import AdmissionController, ShedError
    from repro.serve.sessions import SessionRegistry

    arrived: dict[str, float] = {}
    read_request = http.read_request
    json_response = http.json_response

    @functools.wraps(read_request)
    async def read_wrapper(reader, *args, **kwargs):
        timed = _FirstLine(reader)
        request = await read_request(timed, *args, **kwargs)
        if request is not None and timed.at is not None:
            arrived[request.trace_id] = timed.at
            rec.add("http.parse", timed.at, _now(), request.trace_id)
        return request

    @functools.wraps(json_response)
    def json_wrapper(status, doc, keep_alive=True, headers=None):
        start = _now()
        payload = json_response(status, doc, keep_alive, headers)
        end = _now()
        trace = (headers or {}).get("X-Trace-Id")
        rec.add("http.encode", start, end, trace, bytes_out=len(payload))
        began = arrived.pop(trace, None)
        if began is not None:
            rec.add("serve.request", began, end, trace)
        return payload

    app.read_request = http.read_request = read_wrapper
    app.json_response = http.json_response = json_wrapper

    admit = AdmissionController.admit

    class _Admit:
        def __init__(self, manager) -> None:
            self._manager = manager

        async def __aenter__(self):
            start = _now()
            try:
                return await self._manager.__aenter__()
            except ShedError:
                rec.count("admission.shed")
                raise
            finally:
                rec.add("admission.wait", start, _now())

        async def __aexit__(self, *exc_info):
            return await self._manager.__aexit__(*exc_info)

    @functools.wraps(admit)
    def admit_wrapper(self, *args, **kwargs):
        return _Admit(admit(self, *args, **kwargs))

    AdmissionController.admit = admit_wrapper

    create = SessionRegistry.create

    @functools.wraps(create)
    def create_wrapper(registry, *args, **kwargs):
        with rec.span("sessions.create") as counts:
            session, created = create(registry, *args, **kwargs)
            counts["created"] = int(created)
            return session, created

    SessionRegistry.create = create_wrapper
    SessionRegistry.get = _timed(rec, "sessions.lookup", SessionRegistry.get)

    # GET /stats reads the registry: note the closures its engines hold,
    # under the /stats request's trace id.
    stats = SessionRegistry.stats

    @functools.wraps(stats)
    def stats_wrapper(registry):
        held = sum(
            s.engine.cache_stats()["closures"]["size"] for s in registry.sessions()
        )
        rec.count("engine.closures_held", held)
        return stats(registry)

    SessionRegistry.stats = stats_wrapper


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    rec = Recorder()
    install(rec)
    from repro.cli import main as repro_main

    extra = {"spawned_at": opts.spawned_at, "main_entered": _now()}
    atexit.register(rec.dump, opts.spans, extra)
    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
