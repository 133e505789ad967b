"""Fault injection for the execution layer (chaos testing).

The engine's thread fan-out and the service's request path are only
trustworthy if task delays and transient task errors are *rehearsed*.
This module is the single seam the execution layer passes through:
:func:`inject` is called at each instrumented point with the point name
and the task index, and either returns silently (the overwhelmingly
common case — one dict lookup plus an env probe) or enacts a configured
fault.

Faults are configured two ways:

- **Monkeypatching** (unit tests): replace :func:`inject` or install a
  :class:`FaultPlan` via :func:`set_plan` / the :func:`active_plan`
  context manager.
- **Environment** (a live server, cross-process runs): ``REPRO_FAULTS``
  holds a comma-separated spec list, e.g.::

      REPRO_FAULTS="delay:serve.request:1:0.5,err:task:0"
      REPRO_FAULTS_STAMP=/tmp/run-xyz   # exactly-once marker prefix

  Each spec is ``kind:point:task[:arg]``.  Kinds:

  - ``delay`` — ``time.sleep(arg)`` seconds,
  - ``err``   — raise :class:`InjectedFaultError`.

  With ``REPRO_FAULTS_STAMP`` set, each spec fires **exactly once**
  across all processes: before enacting, the injector atomically creates
  ``<stamp>.<spec-index>`` (``O_CREAT | O_EXCL``); if the file already
  exists the fault is skipped.

Faults never corrupt data: a delay is pure latency, an error is a clean
raise.  There is deliberately no "corrupt result" fault — the
memo-integrity chaos tests assert that whatever survives a fault is
bit-identical to the seed path, and a corruption fault would turn that
invariant into a tautology about the injector instead of the engine.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.errors import ReproError

#: Instrumented points, for reference: ``"task"`` — the engine's
#: thread-pool / serial warm path about to compute task ``index``;
#: ``"serve.admit"`` — the service's admission controller about to admit
#: request number ``index``; ``"serve.request"`` — a service executor
#: thread about to run the engine work for request number ``index``.
#: The serve points index by *request ordinal* (1-based arrival order),
#: not task id, so chaos suites can hit "the third request" exactly.
POINTS = ("task", "serve.admit", "serve.request")

ENV_FAULTS = "REPRO_FAULTS"
ENV_STAMP = "REPRO_FAULTS_STAMP"


class InjectedFaultError(ReproError):
    """A deliberately injected task failure (the ``err`` fault kind)."""

    def __init__(self, point: str, task: int) -> None:
        self.point = point
        self.task = task
        super().__init__(f"injected fault at {point}:{task}")


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: fire ``kind`` when ``point``/``task`` match."""

    kind: str  # "delay" | "err"
    point: str
    task: int
    arg: float = 0.0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.strip().split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad fault spec {text!r} (kind:point:task[:arg])")
        kind, point, task = parts[0], parts[1], int(parts[2])
        if kind not in ("delay", "err"):
            raise ValueError(f"unknown fault kind {kind!r} in {text!r}")
        if point not in POINTS:
            raise ValueError(f"unknown fault point {point!r} in {text!r}")
        arg = float(parts[3]) if len(parts) == 4 else 0.0
        return cls(kind=kind, point=point, task=task, arg=arg)


@dataclass
class FaultPlan:
    """A parsed set of fault specs plus the exactly-once stamp prefix.

    In-process plans (installed with :func:`set_plan`) track firing in
    the ``fired`` set; env plans re-parsed in other processes coordinate
    through stamp files instead.
    """

    specs: tuple[FaultSpec, ...] = ()
    stamp: str | None = None
    fired: set[int] = field(default_factory=set)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        raw = os.environ.get(ENV_FAULTS)
        if not raw:
            return None
        specs = tuple(
            FaultSpec.parse(part) for part in raw.split(",") if part.strip()
        )
        return cls(specs=specs, stamp=os.environ.get(ENV_STAMP))

    def _claim(self, index: int) -> bool:
        """True iff this process wins the right to fire spec ``index``."""
        if self.stamp is None:
            if index in self.fired:
                return False
            self.fired.add(index)
            return True
        path = f"{self.stamp}.{index}"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def enact(self, point: str, task: int) -> None:
        for index, spec in enumerate(self.specs):
            if spec.point != point or spec.task != task:
                continue
            if not self._claim(index):
                continue
            if spec.kind == "delay":
                time.sleep(spec.arg)
            else:
                raise InjectedFaultError(point, task)


#: The in-process plan, if any (tests install one via set_plan()).
_PLAN: FaultPlan | None = None


def set_plan(plan: FaultPlan | None) -> None:
    """Install (or clear) the in-process fault plan."""
    global _PLAN
    _PLAN = plan


@contextmanager
def active_plan(plan: FaultPlan):
    """Scoped :func:`set_plan` for tests."""
    previous = _PLAN
    set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)


def inject(point: str, task: int) -> None:
    """The execution layer's fault seam.  No-op unless a plan is
    installed in-process or ``REPRO_FAULTS`` is set in the environment.
    """
    plan = _PLAN
    if plan is None:
        if ENV_FAULTS not in os.environ:
            return
        plan = FaultPlan.from_env()
        if plan is None:
            return
    plan.enact(point, task)
