"""Guarded-command bodies for operations.

The paper describes operations with guarded assignments, e.g.::

    delta1: if y.ptr = x then y.data <- x.data
    delta2: (flag <- tt; alpha <- x)

:class:`Command` is a tiny AST of such bodies.  Commands both *execute*
(against a state, producing a new state) and *expose structure*: targets
possibly written, expressions read, and guards.  Execution keeps operations
purely semantic; the structure is what the syntactic baselines
(:mod:`repro.baselines.taint`, flow-specification extraction) interpret.

Commands execute *simultaneously reading, sequentially writing*: a ``Seq``
applies its parts left to right, each seeing the writes of the previous —
matching the paper's ``(beta <- alpha; alpha <- -alpha)`` oscillator where
beta receives the *old* alpha.

:meth:`Command.lanes` runs a command on a whole batch of states at once
(a :class:`~repro.core.state.Lanes`): an ``If`` splits the batch by its
guard and runs each branch only on the lanes that take it, so the batch
comes back as disjoint sub-batches whose written columns are, lane by
lane, what :meth:`Command.run` writes on that lane's state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.state import Lanes, State
from repro.lang.expr import Expr, LanesUnsupported, coerce, partition


class Command:
    """Base class for command ASTs."""

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that redefines run without lanes must not inherit
        # the column semantics of the class it extends.
        if "run" in cls.__dict__ and "lanes" not in cls.__dict__:
            cls.lanes = Command.lanes  # type: ignore[method-assign]

    def run(self, state: State) -> State:
        raise NotImplementedError

    def lanes(self, lanes: Lanes) -> list[Lanes]:
        """Run on every lane of ``lanes``: the result is disjoint
        non-empty sub-batches covering the input lanes, each carrying
        its lanes' written columns."""
        raise LanesUnsupported(type(self).__name__)

    def writes(self) -> frozenset[str]:
        """Object names the command may write (over-approximation)."""
        raise NotImplementedError

    def reads(self) -> frozenset[str]:
        """Object names the command may read, including guards
        (over-approximation)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Skip(Command):
    """Do nothing."""

    def run(self, state: State) -> State:
        return state

    def lanes(self, lanes: Lanes) -> list[Lanes]:
        return [lanes]

    def writes(self) -> frozenset[str]:
        return frozenset()

    def reads(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class Assign(Command):
    """``target <- expr``."""

    target: str
    expr: Expr

    def run(self, state: State) -> State:
        return state.replace(**{self.target: self.expr.eval(state)})

    def lanes(self, lanes: Lanes) -> list[Lanes]:
        return [lanes.assign(self.target, self.expr.lanes(lanes))]

    def writes(self) -> frozenset[str]:
        return frozenset([self.target])

    def reads(self) -> frozenset[str]:
        return self.expr.reads()

    def __repr__(self) -> str:
        return f"{self.target} <- {self.expr!r}"


@dataclass(frozen=True)
class Seq(Command):
    """``(c1; c2; ...)`` — left to right, later parts see earlier writes."""

    parts: tuple[Command, ...]

    def run(self, state: State) -> State:
        for part in self.parts:
            state = part.run(state)
        return state

    def lanes(self, lanes: Lanes) -> list[Lanes]:
        batches = [lanes]
        for part in self.parts:
            batches = [out for batch in batches for out in part.lanes(batch)]
        return batches

    def writes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for part in self.parts:
            out |= part.writes()
        return out

    def reads(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for part in self.parts:
            out |= part.reads()
        return out

    def __repr__(self) -> str:
        return "(" + "; ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class If(Command):
    """``if guard then then_cmd [else else_cmd]``."""

    guard: Expr
    then_cmd: Command
    else_cmd: Command

    def run(self, state: State) -> State:
        if self.guard.eval(state):
            return self.then_cmd.run(state)
        return self.else_cmd.run(state)

    def lanes(self, lanes: Lanes) -> list[Lanes]:
        taken, untaken = partition(self.guard.lanes(lanes))
        if not untaken:
            return self.then_cmd.lanes(lanes)
        if not taken:
            return self.else_cmd.lanes(lanes)
        return self.then_cmd.lanes(lanes.take(taken)) + self.else_cmd.lanes(
            lanes.take(untaken)
        )

    def writes(self) -> frozenset[str]:
        return self.then_cmd.writes() | self.else_cmd.writes()

    def reads(self) -> frozenset[str]:
        # The guard is read; branch bodies may read.  (Implicit flows from
        # the guard to the branch targets are a *flow* notion, handled by
        # the baselines, not a read/write notion.)
        return self.guard.reads() | self.then_cmd.reads() | self.else_cmd.reads()

    def __repr__(self) -> str:
        if isinstance(self.else_cmd, Skip):
            return f"if {self.guard!r} then {self.then_cmd!r}"
        return f"if {self.guard!r} then {self.then_cmd!r} else {self.else_cmd!r}"


def skip() -> Skip:
    return Skip()


def assign(target: str, expr: object) -> Assign:
    """``target <- expr`` (raw values are lifted to constants)."""
    return Assign(target, coerce(expr))


def seq(*parts: Command) -> Command:
    """Sequence commands; a singleton collapses to itself."""
    if not parts:
        return Skip()
    if len(parts) == 1:
        return parts[0]
    return Seq(tuple(parts))


def when(guard: object, then_cmd: Command, else_cmd: Command | None = None) -> If:
    """``if guard then then_cmd else else_cmd`` with an optional else."""
    return If(coerce(guard), then_cmd, else_cmd if else_cmd is not None else Skip())
