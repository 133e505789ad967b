"""Warm engine sessions keyed by the canonical system hash.

A *session* is the server-side unit of warmth: one built
:class:`ProgramSystem` plus its shared :class:`DependencyEngine`, alive
across requests so every closure, history table and bucket memo is paid
once.  Sessions are keyed by the PR-7 canonical :func:`system_hash` of
the compiled kernel — the same content key the persistent store uses —
so two clients posting byte-different but semantically identical
programs (same shape, same transition tables) land on one session, and
a *restarted* server hydrates from the store: the new session's first
query finds its closures as store-tier row fetches instead of BFS.

The registry is an LRU bounded by ``capacity``.  Eviction persists the
victim's completed memos first (when a store is attached), so capping
RAM never discards finished work — the same never-lose-completed-work
contract the SIGTERM drain honors.

Thread-safety: sessions are created inside executor threads while the
event loop reads stats; all registry state is lock-protected.  The
registry keeps strong references to the systems it serves — the engine
table in :mod:`repro.core.engine` is weakly keyed, so the registry is
what keeps a session's engine alive.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs
from repro.core.engine import DependencyEngine, shared_engine
from repro.core.store import system_hash
from repro.systems.program import ProgramSystem, build_program_system


@dataclass
class Session:
    """One warm program system + engine, shared across requests."""

    key: str
    ps: ProgramSystem
    engine: DependencyEngine
    created_at: float
    queries: int = 0
    last_trace: str | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def count_query(self) -> None:
        trace = obs.current_trace()
        with self._lock:
            self.queries += 1
            if trace is not None:
                self.last_trace = trace

    @property
    def store_degraded(self) -> bool:
        store = self.engine.store
        return bool(store is not None and store.degraded)

    def persist(self) -> int:
        """Flush completed closures to the store; 0 when none attached."""
        return self.engine.persist_memos()

    def brief(self) -> dict[str, object]:
        store = self.engine.store
        return {
            "states": self.ps.system.space.size,
            "queries": self.queries,
            "last_trace": self.last_trace,
            "uptime_seconds": round(time.monotonic() - self.created_at, 3),
            "store": store.stats_brief() if store is not None else None,
        }


class SessionRegistry:
    """LRU map ``system_hash -> Session`` with persist-on-evict."""

    def __init__(self, store_path: str | None = None, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("session capacity must be >= 1")
        self.store_path = store_path
        self.capacity = capacity
        self._lock = threading.Lock()
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self.created = 0
        self.evicted = 0
        self.rebound = 0

    def create(self, program_text: str, domains: dict) -> tuple[Session, bool]:
        """Build (or rebind to) the session for this program.

        Returns ``(session, created)``; ``created`` is False when an
        equivalent system was already warm.  Building and compiling run
        in the calling (executor) thread — only the registry update is
        under the lock.
        """
        with obs.span("serve.session.create"):
            ps = build_program_system(program_text, domains)
            engine = shared_engine(ps.system)
            if self.store_path:
                engine.attach_store(self.store_path)
            kernel = engine.compiled_system().kernel
            key = system_hash(kernel)
        evict: Session | None = None
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                self._sessions.move_to_end(key)
                self.rebound += 1
                return existing, False
            session = Session(
                key=key, ps=ps, engine=engine, created_at=time.monotonic()
            )
            self._sessions[key] = session
            self.created += 1
            if len(self._sessions) > self.capacity:
                _, evict = self._sessions.popitem(last=False)
                self.evicted += 1
        obs.count("serve.sessions.created")
        if evict is not None:
            obs.count("serve.sessions.evicted")
            evict.persist()
        return session, True

    def get(self, key: str) -> Session | None:
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
            return session

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def flush(self) -> int:
        """Persist every session's completed memos; returns rows written."""
        return sum(session.persist() for session in self.sessions())

    def any_store_degraded(self) -> bool:
        return any(s.store_degraded for s in self.sessions())

    def stats(self) -> dict[str, object]:
        with self._lock:
            per_session = {
                key: session.brief() for key, session in self._sessions.items()
            }
        return {
            "capacity": self.capacity,
            "count": len(per_session),
            "created": self.created,
            "evicted": self.evicted,
            "rebound": self.rebound,
            "sessions": per_session,
        }
