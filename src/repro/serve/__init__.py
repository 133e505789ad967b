"""Long-lived dependency-analysis service (``repro serve``).

PRs 4-7 built every ingredient a server needs — governed budgets with
cooperative cancellation, fault injection, and a content-addressed
persistent store — but each analysis still paid a cold process.  This
package is the thin, *hostile conditions first* composition of those
pieces into a stdlib-only asyncio HTTP/JSON service:

- :mod:`repro.serve.http` — a minimal HTTP/1.1 reader/writer on asyncio
  streams (no frameworks; the container has only the stdlib),
- :mod:`repro.serve.admission` — bounded-queue admission control
  mapping per-request quotas onto :class:`ExecutionBudget`,
- :mod:`repro.serve.sessions` — warm :class:`DependencyEngine` sessions
  keyed by the canonical system hash, hydrated from the store,
- :mod:`repro.serve.app` — the server: routes, deadline propagation,
  graceful drain.

The correctness contract mirrors the engine's: a response is either a
verdict the CLI path would also produce, or an explicit UNKNOWN —
overload, store corruption and deadline storms degrade answers to
honest UNKNOWNs/shed requests, never to wrong verdicts and never to a
wedged server.  See ``docs/SERVICE.md``.
"""

from repro.serve.admission import AdmissionController, RequestQuota, ShedError
from repro.serve.app import ReproServer, ServeConfig
from repro.serve.sessions import Session, SessionRegistry

__all__ = [
    "AdmissionController",
    "ReproServer",
    "RequestQuota",
    "ServeConfig",
    "Session",
    "SessionRegistry",
    "ShedError",
]
