"""A tiny expression language over object names.

Operations in the paper are written in "an informal programming-like
language" (section 1.2), e.g.::

    delta:  if m then beta <- alpha

This module provides the expression half of an executable version of that
language.  Expressions evaluate against a :class:`~repro.core.state.State`
and support Python operator overloading, so paper operations transcribe
almost verbatim::

    >>> from repro.lang.expr import var, const
    >>> alpha, beta = var("alpha"), var("beta")
    >>> e = (alpha + const(1)) % const(4)
    >>> from repro.core.state import Space
    >>> sp = Space({"alpha": range(4), "beta": range(4)})
    >>> e.eval(sp.state(alpha=3, beta=0))
    0

Expressions are *inspectable*: :meth:`Expr.reads` returns the object names
an expression mentions, which the syntactic baselines (Denning-style flow
analysis, taint tracking) rely on.

Every node also evaluates on a whole batch of states at once:
:meth:`Expr.lanes` takes a :class:`~repro.core.state.Lanes` batch and
returns one value per lane, applying the node's own callable element-wise
(so big ints, ``//``, ``%``, bool/int mixing and non-integer domains keep
Python's semantics), and :class:`IfExpr` evaluates each branch only on the
lanes whose condition selects it.  Lane by lane the result equals
:meth:`Expr.eval` on that lane's state:

    >>> sp.state(alpha=3, beta=0) == sp.index.state(12)
    True
    >>> from repro.core.state import Lanes
    >>> e.lanes(Lanes(sp.index, [0, 4, 8, 12]))
    [1, 2, 3, 0]
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.errors import EvaluationError
from repro.core.state import Lanes, State, Value


class LanesUnsupported(Exception):
    """Raised by :meth:`Expr.lanes` / ``Command.lanes`` on a node class
    that only evaluates state by state; its operation is then tabulated
    per state instead."""


class Expr:
    """Base class for expressions.  Subclasses implement :meth:`eval` and
    :meth:`reads`, and optionally :meth:`lanes`."""

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that redefines eval without lanes must not inherit
        # the column semantics of the class it extends.
        if "eval" in cls.__dict__ and "lanes" not in cls.__dict__:
            cls.lanes = Expr.lanes  # type: ignore[method-assign]

    def eval(self, state: State) -> Value:
        raise NotImplementedError

    def lanes(self, lanes: Lanes) -> list[Value]:
        """The value on every lane of ``lanes``, in lane order — lane by
        lane equal to :meth:`eval` on that lane's state."""
        raise LanesUnsupported(type(self).__name__)

    def reads(self) -> frozenset[str]:
        """Object names this expression may read."""
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------------

    def _bin(self, other: object, op: Callable[[Value, Value], Value], sym: str) -> Expr:
        return BinOp(self, coerce(other), op, sym)

    def _rbin(self, other: object, op: Callable[[Value, Value], Value], sym: str) -> Expr:
        return BinOp(coerce(other), self, op, sym)

    def __add__(self, other: object) -> Expr:
        return self._bin(other, operator.add, "+")

    def __radd__(self, other: object) -> Expr:
        return self._rbin(other, operator.add, "+")

    def __sub__(self, other: object) -> Expr:
        return self._bin(other, operator.sub, "-")

    def __rsub__(self, other: object) -> Expr:
        return self._rbin(other, operator.sub, "-")

    def __mul__(self, other: object) -> Expr:
        return self._bin(other, operator.mul, "*")

    def __rmul__(self, other: object) -> Expr:
        return self._rbin(other, operator.mul, "*")

    def __mod__(self, other: object) -> Expr:
        return self._bin(other, operator.mod, "%")

    def __floordiv__(self, other: object) -> Expr:
        return self._bin(other, operator.floordiv, "//")

    def __eq__(self, other: object) -> Expr:  # type: ignore[override]
        return self._bin(other, operator.eq, "==")

    def __ne__(self, other: object) -> Expr:  # type: ignore[override]
        return self._bin(other, operator.ne, "!=")

    def __lt__(self, other: object) -> Expr:
        return self._bin(other, operator.lt, "<")

    def __le__(self, other: object) -> Expr:
        return self._bin(other, operator.le, "<=")

    def __gt__(self, other: object) -> Expr:
        return self._bin(other, operator.gt, ">")

    def __ge__(self, other: object) -> Expr:
        return self._bin(other, operator.ge, ">=")

    def __and__(self, other: object) -> Expr:
        return BinOp(self, coerce(other), lambda a, b: bool(a) and bool(b), "and")

    def __or__(self, other: object) -> Expr:
        return BinOp(self, coerce(other), lambda a, b: bool(a) or bool(b), "or")

    def __invert__(self) -> Expr:
        return UnaryOp(self, lambda a: not a, "not")

    def __neg__(self) -> Expr:
        return UnaryOp(self, operator.neg, "-")

    def __hash__(self) -> int:  # __eq__ is overloaded, restore hashability
        return id(self)


@dataclass(frozen=True, eq=False)
class Var(Expr):
    """A reference to an object's value: ``sigma.name``."""

    name: str

    def eval(self, state: State) -> Value:
        try:
            return state[self.name]
        except KeyError:
            raise EvaluationError(f"unknown object {self.name!r}") from None

    def lanes(self, lanes: Lanes) -> list[Value]:
        try:
            return lanes.column(self.name)
        except KeyError:
            raise EvaluationError(f"unknown object {self.name!r}") from None

    def reads(self) -> frozenset[str]:
        return frozenset([self.name])

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """A literal value."""

    value: Value

    def eval(self, state: State) -> Value:
        return self.value

    def lanes(self, lanes: Lanes) -> list[Value]:
        return [self.value] * len(lanes)

    def reads(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, eq=False)
class BinOp(Expr):
    left: Expr
    right: Expr
    fn: Callable[[Value, Value], Value]
    symbol: str

    def eval(self, state: State) -> Value:
        try:
            return self.fn(self.left.eval(state), self.right.eval(state))
        except (TypeError, ZeroDivisionError) as exc:
            raise EvaluationError(f"{self!r}: {exc}") from exc

    def lanes(self, lanes: Lanes) -> list[Value]:
        try:
            return list(map(self.fn, self.left.lanes(lanes), self.right.lanes(lanes)))
        except (TypeError, ZeroDivisionError) as exc:
            raise EvaluationError(f"{self!r}: {exc}") from exc

    def reads(self) -> frozenset[str]:
        return self.left.reads() | self.right.reads()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


@dataclass(frozen=True, eq=False)
class UnaryOp(Expr):
    operand: Expr
    fn: Callable[[Value], Value]
    symbol: str

    def eval(self, state: State) -> Value:
        try:
            return self.fn(self.operand.eval(state))
        except TypeError as exc:
            raise EvaluationError(f"{self!r}: {exc}") from exc

    def lanes(self, lanes: Lanes) -> list[Value]:
        try:
            return list(map(self.fn, self.operand.lanes(lanes)))
        except TypeError as exc:
            raise EvaluationError(f"{self!r}: {exc}") from exc

    def reads(self) -> frozenset[str]:
        return self.operand.reads()

    def __repr__(self) -> str:
        return f"({self.symbol} {self.operand!r})"


@dataclass(frozen=True, eq=False)
class IfExpr(Expr):
    """Conditional expression: ``then_value if cond else else_value``."""

    cond: Expr
    then_value: Expr
    else_value: Expr

    def eval(self, state: State) -> Value:
        branch = self.then_value if self.cond.eval(state) else self.else_value
        return branch.eval(state)

    def lanes(self, lanes: Lanes) -> list[Value]:
        taken, untaken = partition(self.cond.lanes(lanes))
        if not untaken:
            return self.then_value.lanes(lanes)
        if not taken:
            return self.else_value.lanes(lanes)
        out: list[Value] = [None] * len(lanes)
        for p, value in zip(taken, self.then_value.lanes(lanes.take(taken))):
            out[p] = value
        for p, value in zip(untaken, self.else_value.lanes(lanes.take(untaken))):
            out[p] = value
        return out

    def reads(self) -> frozenset[str]:
        # Conservative: both branches plus the condition (the condition is
        # an *implicit* source in Denning's terminology).
        return self.cond.reads() | self.then_value.reads() | self.else_value.reads()

    def __repr__(self) -> str:
        return f"({self.then_value!r} if {self.cond!r} else {self.else_value!r})"


@dataclass(frozen=True, eq=False)
class Apply(Expr):
    """Escape hatch: apply an arbitrary Python function to sub-expressions.

    The reads-set is the union of the arguments' reads, so syntactic
    analyses remain sound as long as ``fn`` is a pure function of its
    arguments.
    """

    fn: Callable[..., Value]
    args: tuple[Expr, ...]
    symbol: str = "apply"

    def eval(self, state: State) -> Value:
        return self.fn(*(arg.eval(state) for arg in self.args))

    def lanes(self, lanes: Lanes) -> list[Value]:
        if not self.args:
            return [self.fn() for _ in range(len(lanes))]
        return list(map(self.fn, *(arg.lanes(lanes) for arg in self.args)))

    def reads(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.reads()
        return out

    def __repr__(self) -> str:
        return f"{self.symbol}({', '.join(map(repr, self.args))})"


def partition(flags: Iterable[object]) -> tuple[list[int], list[int]]:
    """Lane positions whose flag is truthy, and the rest — each flag's
    truth is taken once, as a per-state ``if`` takes it."""
    taken: list[int] = []
    untaken: list[int] = []
    for p, flag in enumerate(flags):
        (taken if flag else untaken).append(p)
    return taken, untaken


def var(name: str) -> Var:
    """Shorthand constructor for :class:`Var`."""
    return Var(name)

def const(value: Value) -> Const:
    """Shorthand constructor for :class:`Const`."""
    return Const(value)


def coerce(value: object) -> Expr:
    """Lift a raw Python value to an expression; pass expressions through."""
    if isinstance(value, Expr):
        return value
    return Const(value)  # type: ignore[arg-type]


def if_expr(cond: object, then_value: object, else_value: object) -> IfExpr:
    """Conditional-expression constructor accepting raw values."""
    return IfExpr(coerce(cond), coerce(then_value), coerce(else_value))


def apply(fn: Callable[..., Value], *args: object, symbol: str = "apply") -> Apply:
    """Apply an arbitrary pure function to expressions."""
    return Apply(fn, tuple(coerce(a) for a in args), symbol)
