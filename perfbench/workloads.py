"""The two workloads, each driving real ``repro serve`` processes.

Each workload function starts one server per entry of ``servers``, sets
each up, then runs a timed phase of a fixed number of operations, closed
loop, on all of them.  It returns one :class:`Pass` per server, holding
every operation it checked plus the figures the metrics need.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from gen import Program, ProgramGenerator, Shape

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
#: Everything a run writes lives under here (listed in .gitignore).
WORK = ROOT / ".perfbench_work"
_now = time.monotonic

#: Program shapes: 5,000 states for serve_warm, 2,500 for serve_churn
#: (see README.md).
WARM_SHAPE = Shape(p=5, nvars=4, nstmts=7)
CHURN_SHAPE = Shape(p=5, nvars=4, nstmts=3)
WARM_PROGRAMS = 3
CHURN_WARMUP = 2
CONNECTIONS = 2

#: Give up on a server or request after this long; a run must end in 180 s.
TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


@dataclass
class Op:
    """One checked operation."""

    ok: bool
    sent: float = 0.0
    received: float = 0.0
    trace: str = ""
    tier: str = ""
    detail: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000.0


@dataclass
class Pass:
    """What one set-up plus timed phase measured."""

    setup_s: float = 0.0
    timed: list[Op] = field(default_factory=list)
    other: list[Op] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    store_mb: float = 0.0
    store_journal: str = ""
    counters: dict[str, float] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    span_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    closures_held: float = 0.0
    closures_added: float = 0.0
    start_ms: float = 0.0


def child_env() -> dict[str, str]:
    """The environment of every server: this checkout's sources, byte
    code cached under WORK, no REPRO_* overrides."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def repro_command(args: list[str], spans: Path | None, spawned: float) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [
        sys.executable, str(TRACER), "--spans", str(spans),
        "--spawned-at", repr(spawned), "--", *args,
    ]


def provenance(text: str | None) -> dict[str, str]:
    """``"kernel=compiled memo=hit store=hit ..."`` -> dict."""
    return dict(part.split("=", 1) for part in (text or "").split() if "=" in part)


def tier_of(prov: dict[str, str]) -> str:
    if prov.get("memo") != "hit":
        return "compute"
    return "store" if prov.get("store") == "hit" else "ram"


def check_answer(program: Program, source: str, target: str, verdict: str,
                 prov: dict[str, str]) -> str:
    """Empty when the answer matches the generator's; else what differs."""
    expected, length = program.expect(source, target)
    if verdict != expected:
        return f"{source}->{target}: verdict {verdict!r}, expected {expected!r}"
    if length is not None and prov.get("witness_len") != str(length):
        return f"{source}->{target}: witness_len {prov.get('witness_len')}, expected {length}"
    if prov.get("closure_pairs") != str(program.shape.closure_pairs):
        return (f"{source}->{target}: closure_pairs {prov.get('closure_pairs')}, "
                f"expected {program.shape.closure_pairs}")
    return ""


def store_size(path: Path) -> tuple[float, str]:
    """Logical store size in MB (``page_count * page_size / 2**20``) and
    journal mode, from a fresh read-only connection."""
    conn = sqlite3.connect(f"{path.as_uri()}?mode=ro", uri=True)
    try:
        pages = conn.execute("PRAGMA page_count").fetchone()[0]
        size = conn.execute("PRAGMA page_size").fetchone()[0]
        journal = conn.execute("PRAGMA journal_mode").fetchone()[0]
    finally:
        conn.close()
    return pages * size / 2**20, journal


class Server:
    """One ``repro serve`` process with its own store."""

    def __init__(self, work: Path, name: str, traced: bool) -> None:
        self.dir = work / name
        self.dir.mkdir(parents=True)
        self.store = self.dir / "store.sqlite"
        self.spans = self.dir / "spans.json" if traced else None
        self.env = child_env()
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait until the port file appears; returns the launch time."""
        port_file = self.dir / "port"
        args = [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--store", str(self.store),
            "--workers", "2", "--max-concurrency", str(CONNECTIONS),
        ]
        spawned = _now()
        with open(self.dir / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                repro_command(args, self.spans, spawned),
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        while True:
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                return spawned
            if self.proc.poll() is not None or _now() - spawned > TIMEOUT_S:
                raise BenchError(f"repro serve did not start; see {self.dir}/server.log")
            time.sleep(0.002)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)

    def stats(self, trace: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/stats", headers={"X-Trace-Id": trace})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        line = next(x for x in status.splitlines() if x.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024

    def stop(self) -> None:
        """SIGTERM (the server drains), or SIGKILL after TIMEOUT_S / 2."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=TIMEOUT_S / 2)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def finish(self, result: Pass) -> None:
        """Drain the server, then read the store and the spans it left."""
        self.stop()
        if self.proc.returncode != 0:
            raise BenchError(f"repro serve exited {self.proc.returncode}")
        result.store_mb, result.store_journal = store_size(self.store)
        if self.spans is not None:
            doc = json.loads(self.spans.read_text())
            result.spans = doc["spans"]
            result.span_counts = doc["counts"]
            held = [doc["counts"].get(f"pb-stats-{when}", {}).get("engine.closures_held", 0)
                    for when in ("before", "after")]
            result.closures_held = held[1]
            result.closures_added = (held[1] - held[0]) / max(1, len(result.timed))
            result.start_ms = (doc["main_entered"] - doc["spawned_at"]) * 1000.0


def post(conn: http.client.HTTPConnection, path: str, doc: dict,
         trace: str) -> tuple[int, dict, float, float]:
    body = json.dumps(doc).encode()
    headers = {"Content-Type": "application/json", "X-Trace-Id": trace}
    sent = _now()
    conn.request("POST", path, body, headers)
    response = conn.getresponse()
    data = response.read()
    received = _now()
    return response.status, json.loads(data), sent, received


def ask(conn, program: Program, source: str, target: str, trace: str,
        session: str | None = None) -> Op:
    """One checked ``POST /v1/query``, by session key or with the program inline."""
    doc: dict = {"source": source, "target": target}
    if session is None:
        doc.update(program=program.text, vars=program.vars)
    else:
        doc["session"] = session
    status, body, sent, received = post(conn, "/v1/query", doc, trace)
    prov = provenance(body.get("provenance"))
    problem = (f"HTTP {status}: {body}" if status != 200
               else check_answer(program, source, target, body.get("verdict"), prov))
    return Op(not problem, sent, received, trace, tier_of(prov), problem)


def closed_loop(servers: list[Server], jobs: list, fire, block: int,
                deadline: float) -> tuple[list[list[Op]], float]:
    """Run ``fire(conn, job, trace_id)`` for every job on every server
    from CONNECTIONS client threads, each sending its next request only
    after the previous answer.  The jobs go out in blocks of ``block``,
    each block to every server in turn, so all servers answer the same
    jobs in the same order and within a second of each other.  A thread
    holds one keep-alive connection at a time, opened before its first
    timed request.  Returns each server's ops in job order, and the wall
    time."""
    ops: list[list[Op | None]] = [[None] * len(jobs) for _ in servers]
    pending = iter([
        (k, index)
        for first in range(0, len(jobs), block)
        for k in range(len(servers))
        for index in range(first, min(first + block, len(jobs)))
    ])
    lock = threading.Lock()

    def client() -> None:
        conn, current = None, -1
        try:
            while _now() < deadline:
                with lock:
                    entry = next(pending, None)
                if entry is None:
                    return
                k, index = entry
                trace = f"pb-t-{index:06d}"
                try:
                    if k != current:
                        if conn is not None:
                            conn.close()
                        conn, current = servers[k].connect(), k
                        conn.connect()
                    ops[k][index] = fire(conn, jobs[index], trace)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    ops[k][index] = Op(False, trace=trace, detail=repr(exc))
                    current = -1
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    started = _now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = _now() - started
    missed = Op(False, detail="not sent before the run deadline")
    return [[op or missed for op in server_ops] for server_ops in ops], wall


#: The /stats telemetry counters reported as timed-phase deltas.
STATS_COUNTERS = (
    "engine.closure.requests", "engine.closure.memo_hit",
    "engine.closure.memo_miss", "store.hit", "store.miss", "store.write",
    "kernel.pair_expansions", "serve.sessions.created",
    "serve.sessions.rebound", "serve.sessions.evicted", "serve.shed",
    "obs.spans_dropped",
)


def _counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """``stats.<counter>`` deltas between two /stats reads."""
    b, a = before["telemetry"]["counters"], after["telemetry"]["counters"]
    out = {f"stats.{n}": a.get(n, 0) - b.get(n, 0) for n in STATS_COUNTERS}
    out["stats.serve.sessions.rebound"] = (
        after["sessions"]["rebound"] - before["sessions"]["rebound"]
    )
    out["stats.obs.spans"] = (
        after["telemetry"]["spans"] - before["telemetry"]["spans"]
        + out["stats.obs.spans_dropped"]
    )
    return out


#: Servers of one run: ``(name, traced)`` each.
Servers = Sequence[tuple[str, bool]]


def _serve_passes(work: Path, servers: Servers, setup, jobs: list, fire,
                  block: int, deadline: float) -> list[Pass]:
    """Start and set up each server in turn (``setup(server)``), time
    ``jobs`` on all of them (see :func:`closed_loop`), drain them."""
    procs = [Server(work, name, traced) for name, traced in servers]
    results = [Pass() for _ in procs]
    try:
        for server, result in zip(procs, results):
            spawned = server.start()
            result.other = setup(server)
            result.setup_s = _now() - spawned
        before = [server.stats("pb-stats-before") for server in procs]
        timed, wall = closed_loop(procs, jobs, fire, block, deadline)
        for server, result, stats, ops in zip(procs, results, before, timed):
            result.timed, result.wall_s = ops, wall
            result.counters = _counter_deltas(stats, server.stats("pb-stats-after"))
            result.peak_rss_mb = server.peak_rss_mb()
        for server, result in zip(procs, results):
            server.finish(result)
    finally:
        for server in procs:
            server.stop()
    return results


# -- serve_warm ---------------------------------------------------------------


def serve_warm(work: Path, servers: Servers, seed: int, n_ops: int,
               deadline: float) -> list[Pass]:
    gen = ProgramGenerator(seed, WARM_SHAPE)
    programs = [gen.next() for _ in range(WARM_PROGRAMS)]
    queries = [(i, s, o) for i, prog in enumerate(programs) for s, o in prog.pairs()]
    rng = random.Random(seed)
    jobs = [rng.choice(queries) for _ in range(n_ops)]
    #: Session keys are content hashes, so every server gives the same ones.
    keys: dict[int, str] = {}

    def setup(server: Server) -> list[Op]:
        ops = []
        conn = server.connect()
        try:
            for i, program in enumerate(programs):
                status, body, sent, received = post(
                    conn, "/v1/sessions", {"program": program.text, "vars": program.vars},
                    f"pb-s-session{i}",
                )
                key = keys.setdefault(i, body.get("session", ""))
                ok = (status == 200 and body.get("states") == WARM_SHAPE.states
                      and body.get("session") == key)
                ops.append(Op(ok, sent, received, detail="" if ok else str(body)))
            for k, (i, s, o) in enumerate(queries):
                ops.append(ask(conn, programs[i], s, o, f"pb-s-{k:06d}", keys[i]))
        finally:
            conn.close()
        return ops

    def fire(conn, job, trace: str) -> Op:
        i, s, o = job
        return ask(conn, programs[i], s, o, trace, keys[i])

    return _serve_passes(work, servers, setup, jobs, fire, BLOCK["serve_warm"], deadline)


# -- serve_churn --------------------------------------------------------------


def serve_churn(work: Path, servers: Servers, seed: int, n_ops: int,
                deadline: float) -> list[Pass]:
    gen = ProgramGenerator(seed, CHURN_SHAPE)
    rng = random.Random(seed)

    def draw(count: int) -> list[tuple[Program, str, str]]:
        out = []
        for _ in range(count):
            program = gen.next()
            out.append((program, *rng.choice(program.pairs())))
        return out

    warmup, jobs = draw(CHURN_WARMUP), draw(n_ops)

    def setup(server: Server) -> list[Op]:
        conn = server.connect()
        try:
            return [ask(conn, *job, f"pb-s-{k:06d}") for k, job in enumerate(warmup)]
        finally:
            conn.close()

    def fire(conn, job, trace: str) -> Op:
        return ask(conn, *job, trace)

    results = _serve_passes(work, servers, setup, jobs, fire, BLOCK["serve_churn"], deadline)
    for result in results:
        created = result.counters["stats.serve.sessions.created"]
        if created != n_ops or result.counters["stats.serve.sessions.rebound"]:
            result.checks.append(
                f"serve_churn: {created} sessions created for {n_ops} requests"
            )
    return results


WORKLOADS = {"serve_warm": serve_warm, "serve_churn": serve_churn}

#: Timed operations per --seconds, so a run is counted in operations: on
#: the reference host (2 vCPU) the timed phase lasts about --seconds.
RATE = {"serve_warm": 30, "serve_churn": 5}

#: Jobs per block when several servers share a timed phase: about a
#: third of a second of work at RATE.
BLOCK = {"serve_warm": 10, "serve_churn": 2}

#: The tail percentile per workload: the highest with at least ten of the
#: run's samples beyond it at --seconds 40.
TAIL = {"serve_warm": 99, "serve_churn": 95}
