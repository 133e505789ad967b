"""Constraints on states: the paper's phi predicates.

A *constraint* characterizes a set of admissible initial states (section 2.4).
Constraints drive the whole theory:

- They reduce *variety* and thereby prevent transmission (section 2.2).
- Classes of constraints determine where Strong Dependency matches intuition:
  **A-independent** (Def 3-1), **A-strict** (Def 5-1), **A-autonomous**
  (Def 5-2, decided via the substitution characterization of Theorem 5-1),
  and **autonomous** (Def 5-4).
- **Invariance** under a system's operations enables Strong Dependency
  Induction (chapter 4); ``[H]phi`` (Def 6-1) generalizes to non-invariant
  constraints (chapter 6).

A :class:`Constraint` binds a predicate to a finite :class:`~repro.core.state.Space`,
so every classification above is *decided* by enumeration, with witnesses.

Implementation notes
--------------------
The satisfying set is computed once and cached.  Constraints built from
equalities (:meth:`Constraint.true`, :meth:`Constraint.equals`,
:meth:`Constraint.where`, and ``&`` / :meth:`Constraint.renamed` of such
constraints) also record them as :attr:`Constraint.equalities`, so the
compiled kernel reads their satisfying ids off the domains without
evaluating the predicate on any state.  The structural classes have
fast set-theoretic characterizations used instead of the naive quantifier
scans:

- phi is A-independent  iff  truth depends only on the values outside A.
- phi is A-strict       iff  truth depends only on the values at A.
- phi is A-autonomous   iff  sat(phi) = (projection onto A) x (projection
  outside A) — i.e. the satisfying set is a rectangle in those coordinates.
  This is exactly Theorem 5-1's closure under substitution.
- phi is autonomous     iff  sat(phi) is the full product of its per-object
  projections (closure under single-object substitution, Def 5-4).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

from repro.core.errors import ConstraintError, EmptyConstraintError
from repro.core.state import Space, State, Value
from repro.core.system import History, System


class Constraint:
    """A predicate over the states of a finite space.

    >>> from repro.core.state import Space
    >>> sp = Space({"alpha": range(16), "beta": range(16)})
    >>> phi = Constraint(sp, lambda s: s["alpha"] < 10, name="alpha<10")
    >>> phi.is_autonomous()
    True
    >>> phi.is_independent_of({"alpha"})
    False
    >>> phi.is_strict_on({"alpha"})
    True
    """

    __slots__ = ("space", "name", "_fn", "_equalities", "_sat")

    def __init__(
        self,
        space: Space,
        fn: Callable[[State], bool],
        name: str = "phi",
    ) -> None:
        self.space = space
        self.name = name
        self._fn = fn
        self._equalities: tuple[tuple[str, Value], ...] | None = None
        self._sat: frozenset[State] | None = None

    def _with_equalities(
        self, equalities: tuple[tuple[str, Value], ...] | None
    ) -> Constraint:
        # Set after construction: __init__ keeps its (space, fn, name)
        # signature, which wrappers of it rely on.
        object.__setattr__(self, "_equalities", equalities)
        return self

    def __setattr__(self, key: str, value: object) -> None:
        if key == "_sat" or not hasattr(self, "_sat"):
            object.__setattr__(self, key, value)
        else:
            raise AttributeError("Constraint is immutable")

    # -- basic protocol -------------------------------------------------------

    def __call__(self, state: State) -> bool:
        return bool(self._fn(state))

    def holds(self, state: State) -> bool:
        """Alias for ``phi(state)``."""
        return self(state)

    def __repr__(self) -> str:
        return f"Constraint({self.name!r})"

    # -- satisfying set -------------------------------------------------------

    @property
    def satisfying(self) -> frozenset[State]:
        """All states of the space satisfying the constraint (cached)."""
        if self._sat is None:
            object.__setattr__(
                self,
                "_sat",
                frozenset(s for s in self.space.states() if self._fn(s)),
            )
        return self._sat  # type: ignore[return-value]

    @property
    def equalities(self) -> tuple[tuple[str, Value], ...] | None:
        """The ``(name, value)`` pairs this constraint is the conjunction
        of (``sigma.name == value`` each, ``()`` for ``tt``), or ``None``
        when its predicate is opaque."""
        return self._equalities

    def states(self) -> Iterator[State]:
        """Iterate satisfying states (deterministic order)."""
        sat = self.satisfying
        return (s for s in self.space.states() if s in sat)

    @property
    def is_satisfiable(self) -> bool:
        return bool(self.satisfying)

    def require_satisfiable(self) -> None:
        if not self.is_satisfiable:
            raise EmptyConstraintError(
                f"constraint {self.name!r} admits no state of the space"
            )

    def count(self) -> int:
        """Number of satisfying states."""
        return len(self.satisfying)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def true(cls, space: Space) -> Constraint:
        """The trivial constraint ``tt`` (no restriction at all)."""
        return cls(space, lambda _s: True, name="tt")._with_equalities(())

    @classmethod
    def false(cls, space: Space) -> Constraint:
        """The unsatisfiable constraint."""
        return cls(space, lambda _s: False, name="ff")

    @classmethod
    def equals(cls, space: Space, name: str, value: Value) -> Constraint:
        """``sigma.name = value`` — the paper's constant constraints
        (e.g. ``sigma.alpha = 13`` in section 3.2)."""
        space.check_names([name])
        return cls(
            space, lambda s: s[name] == value, name=f"{name}={value!r}"
        )._with_equalities(((name, value),))

    @classmethod
    def where(cls, space: Space, **fixed: Value) -> Constraint:
        """Conjunction of equalities, one per keyword."""
        space.check_names(fixed)
        items = tuple(sorted(fixed.items()))
        label = " & ".join(f"{n}={v!r}" for n, v in items)
        return cls(
            space,
            lambda s: all(s[n] == v for n, v in items),
            name=label or "tt",
        )._with_equalities(items)

    @classmethod
    def from_states(
        cls, space: Space, states: Iterable[State], name: str = "phi"
    ) -> Constraint:
        """A constraint holding exactly on the given states."""
        chosen = frozenset(states)
        constraint = cls(space, lambda s: s in chosen, name=name)
        object.__setattr__(constraint, "_sat", chosen & frozenset(space.states()))
        return constraint

    # -- algebra ---------------------------------------------------------------

    def _check_same_space(self, other: Constraint) -> None:
        if self.space != other.space:
            raise ConstraintError(
                f"constraints {self.name!r} and {other.name!r} "
                "are over different spaces"
            )

    def __and__(self, other: Constraint) -> Constraint:
        self._check_same_space(other)
        both = (
            None
            if self._equalities is None or other._equalities is None
            else self._equalities + other._equalities
        )
        return Constraint(
            self.space,
            lambda s: self._fn(s) and other._fn(s),
            name=f"({self.name} & {other.name})",
        )._with_equalities(both)

    def __or__(self, other: Constraint) -> Constraint:
        """The *join* of two constraints (section 3.5 studies when joins of
        solutions remain solutions — they generally do not)."""
        self._check_same_space(other)
        return Constraint(
            self.space,
            lambda s: self._fn(s) or other._fn(s),
            name=f"({self.name} | {other.name})",
        )

    def __invert__(self) -> Constraint:
        return Constraint(self.space, lambda s: not self._fn(s), name=f"~{self.name}")

    def implies(self, other: Constraint) -> bool:
        """``phi1 <= phi2`` in the paper's ordering: every phi1-state is a
        phi2-state (used by Theorem 2-3 monotonicity)."""
        self._check_same_space(other)
        return self.satisfying <= other.satisfying

    def equivalent(self, other: Constraint) -> bool:
        self._check_same_space(other)
        return self.satisfying == other.satisfying

    def renamed(self, name: str) -> Constraint:
        clone = Constraint(self.space, self._fn, name=name)
        object.__setattr__(clone, "_sat", self._sat)
        return clone._with_equalities(self._equalities)

    # -- structural classes -----------------------------------------------------

    def independence_witness(
        self, names: Iterable[str]
    ) -> tuple[State, State] | None:
        """A pair violating Def 3-1 (A-independence), or None.

        Def 3-1: phi is A-independent iff any two states equal except at A
        get the same truth value — i.e. phi never constrains objects in A.
        """
        chosen = self.space.check_names(names)
        truth_by_rest: dict[tuple[Value, ...], tuple[bool, State]] = {}
        for state in self.space.states():
            key = state.restrict_away(chosen)
            value = self._fn(state)
            seen = truth_by_rest.get(key)
            if seen is None:
                truth_by_rest[key] = (value, state)
            elif seen[0] != value:
                return (seen[1], state)
        return None

    def is_independent_of(self, names: Iterable[str]) -> bool:
        """Def 3-1: phi does not constrain any object in ``names``."""
        return self.independence_witness(names) is None

    def strictness_witness(self, names: Iterable[str]) -> tuple[State, State] | None:
        """A pair violating Def 5-1 (A-strictness), or None.

        Def 5-1: phi is A-strict iff states agreeing at A get the same truth
        value — phi constrains *only* objects in A.
        """
        chosen = self.space.check_names(names)
        truth_by_a: dict[tuple[Value, ...], tuple[bool, State]] = {}
        for state in self.space.states():
            key = state.project(chosen)
            value = self._fn(state)
            seen = truth_by_a.get(key)
            if seen is None:
                truth_by_a[key] = (value, state)
            elif seen[0] != value:
                return (seen[1], state)
        return None

    def is_strict_on(self, names: Iterable[str]) -> bool:
        """Def 5-1: phi constrains only objects in ``names``."""
        return self.strictness_witness(names) is None

    def relative_autonomy_witness(
        self, names: Iterable[str]
    ) -> tuple[State, State] | None:
        """A pair (sigma1, sigma2) with phi(sigma1), phi(sigma2) but not
        phi(sigma2 <|A sigma1) — a violation of Theorem 5-1's
        characterization of A-autonomy — or None if phi is A-autonomous.

        Equivalently (and how it is computed): the satisfying set must be a
        *rectangle* in the (A, not-A) coordinates: every combination of an
        observed A-part with an observed rest-part must itself satisfy phi.
        """
        chosen = self.space.check_names(names)
        sat = self.satisfying
        if not sat:
            return None  # vacuously autonomous
        a_parts: dict[tuple[Value, ...], State] = {}
        rest_parts: dict[tuple[Value, ...], State] = {}
        for state in sorted(sat, key=lambda s: tuple(map(repr, s.values()))):
            a_parts.setdefault(state.project(chosen), state)
            rest_parts.setdefault(state.restrict_away(chosen), state)
        if len(sat) == len(a_parts) * len(rest_parts):
            return None
        # Rectangle property fails; find a concrete violating combination.
        for rest_state in rest_parts.values():
            for a_state in a_parts.values():
                combined = rest_state.substitute(a_state, chosen)
                if combined not in sat:
                    return (a_state, rest_state)
        raise AssertionError("rectangle size mismatch without witness")

    def is_autonomous_relative_to(self, names: Iterable[str]) -> bool:
        """Def 5-2 / Theorem 5-1: phi is A-autonomous — it decomposes into an
        A-strict part and an A-independent part, equivalently its satisfying
        set is closed under substitution at A between satisfying states."""
        return self.relative_autonomy_witness(names) is None

    def autonomy_witness(self) -> tuple[str, State, State] | None:
        """A triple (name, sigma1, sigma2) violating Def 5-4, or None.

        Def 5-4: phi is autonomous iff for every single object alpha and
        satisfying sigma1, sigma2, the state ``sigma2 <|alpha sigma1`` also
        satisfies phi.  Equivalently the satisfying set is the full product
        of its per-object projections.
        """
        sat = self.satisfying
        if not sat:
            return None
        projections: dict[str, set[Value]] = {n: set() for n in self.space.names}
        for state in sat:
            for name in self.space.names:
                projections[name].add(state[name])
        expected = math.prod(len(v) for v in projections.values())
        if len(sat) == expected:
            return None
        # Find a violating single-object substitution.
        sat_sorted = sorted(sat, key=lambda s: tuple(map(repr, s.values())))
        for name in self.space.names:
            for sigma1 in sat_sorted:
                for sigma2 in sat_sorted:
                    if sigma2.substitute(sigma1, [name]) not in sat:
                        return (name, sigma1, sigma2)
        raise AssertionError("product size mismatch without witness")

    def is_autonomous(self) -> bool:
        """Def 5-4 (informally section 2.6): the constraint restricts each
        object's variety independently of every other object."""
        return self.autonomy_witness() is None

    def eliminates_variety_in(self, names: Iterable[str]) -> bool:
        """True when the constraint leaves *no* variety in the named set:
        every satisfying state agrees on all of ``names`` (Theorem 2-4's
        hypothesis, written |sigma.A| = 1 in the paper)."""
        chosen = self.space.check_names(names)
        projections = {s.project(chosen) for s in self.satisfying}
        return len(projections) <= 1

    # -- dynamics ---------------------------------------------------------------

    def invariance_witness(
        self, system: System
    ) -> tuple[State, "str", State] | None:
        """A triple (state, operation name, successor) showing phi is not
        invariant under the system, or None if it is.

        phi is *invariant* when every operation maps phi-states to
        phi-states (the standing assumption of chapter 4).
        """
        if system.space != self.space:
            raise ConstraintError("constraint and system are over different spaces")
        for state in self.states():
            for op in system.operations:
                successor = op(state)
                if not self._fn(successor):
                    return (state, op.name, successor)
        return None

    def is_invariant(self, system: System) -> bool:
        return self.invariance_witness(system) is None

    def after(self, history: History, name: str | None = None) -> Constraint:
        """Def 6-1: ``[H]phi`` — the constraint characterizing the states
        reachable by executing ``history`` from a phi-state.

        >>> from repro.core.state import Space
        >>> from repro.core.system import Operation, History
        >>> sp = Space({"a": range(4), "b": range(4)})
        >>> phi = Constraint(sp, lambda s: s["a"] < 2)
        >>> dec = Operation("dec", lambda s: s.replace(b=max(s["b"] - 1, 0)))
        >>> after = phi.after(History.of(dec))
        >>> all(s["a"] < 2 and s["b"] < 3 for s in after.satisfying)
        True
        """
        image = frozenset(history(s) for s in self.satisfying)
        label = name or f"[{'.'.join(op.name for op in history) or 'lambda'}]{self.name}"
        return Constraint.from_states(self.space, image, name=label)


def conjoin(constraints: Iterable[Constraint], name: str | None = None) -> Constraint:
    """Conjunction of several constraints over the same space."""
    items = list(constraints)
    if not items:
        raise ConstraintError("conjoin requires at least one constraint")
    result = items[0]
    for item in items[1:]:
        result = result & item
    if name is not None:
        result = result.renamed(name)
    return result


def disjoin(constraints: Iterable[Constraint], name: str | None = None) -> Constraint:
    """Disjunction (join) of several constraints over the same space."""
    items = list(constraints)
    if not items:
        raise ConstraintError("disjoin requires at least one constraint")
    result = items[0]
    for item in items[1:]:
        result = result | item
    if name is not None:
        result = result.renamed(name)
    return result
