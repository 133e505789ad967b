"""Computational systems, operations, and histories.

The paper (section 1.2) defines a computational system as a pair
``<Sigma, Delta>`` where ``Sigma`` is the set of states and ``Delta`` the set
of operations; an operation is a total function from states to states, and a
*history* is a finite sequence of operations applied left to right
(Def 1-3)::

    lambda(sigma)   == sigma                (the null history)
    (H delta)(sigma) == delta(H(sigma))

A pair ``<sigma, H>`` is a *behavior* (or computation).

This module keeps operations fully semantic — any callable ``State -> State``
will do — while encouraging named, inspectable operations (see
:mod:`repro.lang.ops` for combinators that build them).
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.core.errors import OperationError, SpaceError
from repro.core.state import Lanes, Space, State


class Operation:
    """A named total function from states to states.

    >>> from repro.core.state import boolean_space
    >>> sp = boolean_space("a", "b")
    >>> copy = Operation("copy", lambda s: s.replace(b=s["a"]))
    >>> copy(sp.state(a=True, b=False))["b"]
    True
    """

    __slots__ = ("name", "_fn", "description")

    def __init__(
        self,
        name: str,
        fn: Callable[[State], State],
        description: str = "",
    ) -> None:
        if not name:
            raise OperationError("operations must be named")
        self.name = name
        self._fn = fn
        self.description = description

    def __call__(self, state: State) -> State:
        result = self._fn(state)
        if not isinstance(result, State):
            raise OperationError(
                f"operation {self.name!r} returned {type(result).__name__}, "
                "expected State"
            )
        return result

    def __repr__(self) -> str:
        return f"Operation({self.name!r})"

    def column_table(self, lanes: Lanes) -> array | None:
        """This operation's successor table computed from the value
        columns of ``lanes`` (the whole space), or ``None`` when it can
        only run state by state — as a plain callable always does."""
        return None

    def then(self, other: Operation) -> Operation:
        """Sequential composition as a single operation (left first)."""
        return Operation(
            f"{self.name};{other.name}",
            lambda s: other(self(s)),
            description=f"{self.name} then {other.name}",
        )


class History(Sequence[Operation]):
    """A finite sequence of operations, applied left to right (Def 1-3).

    Histories are immutable; ``h1 + h2`` concatenates, and ``h(state)``
    applies.  The empty history is the identity (the paper's lambda).

    >>> History.empty().is_empty
    True
    """

    __slots__ = ("_ops",)

    def __init__(self, operations: Iterable[Operation] = ()) -> None:
        self._ops = tuple(operations)
        for op in self._ops:
            if not isinstance(op, Operation):
                raise OperationError(f"history element {op!r} is not an Operation")

    @classmethod
    def empty(cls) -> History:
        """The null history lambda."""
        return cls(())

    @classmethod
    def of(cls, *operations: Operation) -> History:
        """Build a history from operations left to right."""
        return cls(operations)

    @property
    def is_empty(self) -> bool:
        return not self._ops

    def __call__(self, state: State) -> State:
        for op in self._ops:
            state = op(state)
        return state

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return History(self._ops[index])
        return self._ops[index]

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __add__(self, other: History | Operation) -> History:
        if isinstance(other, Operation):
            return History(self._ops + (other,))
        if isinstance(other, History):
            return History(self._ops + other._ops)
        return NotImplemented

    def __radd__(self, other: Operation) -> History:
        if isinstance(other, Operation):
            return History((other,) + self._ops)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __repr__(self) -> str:
        if not self._ops:
            return "History(<lambda>)"
        return "History(" + " ".join(op.name for op in self._ops) + ")"

    def splits(self) -> Iterator[tuple[History, History]]:
        """All ways of writing this history as ``H Hprime`` (used by the
        induction theorems, e.g. Theorem 4-1)."""
        for i in range(len(self._ops) + 1):
            yield History(self._ops[:i]), History(self._ops[i:])


class System:
    """A computational system ``<Sigma, Delta>`` over a finite space.

    ``Sigma`` is the set of states of :attr:`space`; ``Delta`` is the finite
    set of named operations.  A system optionally checks that every operation
    is *closed* over the space (maps space states to space states) — this is
    the executable analogue of operations being functions ``Sigma -> Sigma``.
    The check is the tabulation of :meth:`successor_tables`, which the
    system keeps for its compilation.

    >>> from repro.core.state import boolean_space
    >>> sp = boolean_space("a", "b")
    >>> sys_ = System(sp, [Operation("swap", lambda s: s.replace(a=s["b"], b=s["a"]))])
    >>> sorted(sys_.operation_names)
    ['swap']
    """

    # __weakref__ lets repro.core.engine.shared_engine key its process-wide
    # engine table weakly by system, so engines die with their systems.
    __slots__ = ("space", "_operations", "_tables", "__weakref__")

    def __init__(
        self,
        space: Space,
        operations: Iterable[Operation],
        check_closed: bool = True,
    ) -> None:
        self.space = space
        ops: dict[str, Operation] = {}
        for op in operations:
            if op.name in ops:
                raise SpaceError(f"duplicate operation name {op.name!r}")
            ops[op.name] = op
        self._operations = ops
        self._tables: tuple[array, ...] | None = None
        if check_closed:
            self.successor_tables()

    def successor_tables(self) -> tuple[array, ...]:
        """One ``array('L')`` per operation, in operation order, with
        ``tables[d][i]`` the id (:attr:`Space.index
        <repro.core.state.Space.index>`) of ``delta_d(state_i)``.

        Built once, by :func:`tabulate`; an operation that leaves the
        space raises :class:`~repro.core.errors.OperationError`.
        """
        if self._tables is None:
            self._tables = tabulate(self.space, self.operations)
        return self._tables

    @property
    def operations(self) -> tuple[Operation, ...]:
        """The operations of the system, in insertion order."""
        return tuple(self._operations.values())

    @property
    def operation_names(self) -> tuple[str, ...]:
        return tuple(self._operations)

    def operation(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise SpaceError(
                f"system has no operation {name!r}; "
                f"known: {sorted(self._operations)!r}"
            ) from None

    def history(self, *names: str) -> History:
        """Build a history from operation names, left to right.

        >>> from repro.core.state import boolean_space
        >>> sp = boolean_space("a")
        >>> ident = Operation("id", lambda s: s)
        >>> System(sp, [ident]).history("id", "id")
        History(id id)
        """
        return History(self.operation(name) for name in names)

    def histories(self, max_length: int) -> Iterator[History]:
        """Enumerate all histories of length 0..max_length.

        The count is ``sum(|Delta|**k)`` — use with small systems, or prefer
        the pair-graph fixpoint in :mod:`repro.analysis.explorer` for exact
        unbounded dependency questions.
        """
        frontier: list[History] = [History.empty()]
        yield History.empty()
        for _ in range(max_length):
            next_frontier: list[History] = []
            for history in frontier:
                for op in self._operations.values():
                    extended = history + op
                    next_frontier.append(extended)
                    yield extended
            frontier = next_frontier

    def __repr__(self) -> str:
        return (
            f"System(space={self.space!r}, "
            f"operations=[{', '.join(self._operations)}])"
        )


def tabulate(space: Space, operations: Sequence[Operation]) -> tuple[array, ...]:
    """The successor table of every operation over ``space``.

    An operation that can (:meth:`Operation.column_table`, e.g. a
    :class:`~repro.lang.ops.StructuredOperation`) is evaluated once on
    the space's value columns; any other runs once per state.  If any
    operation fails — it maps a state outside the space, or raises —
    the states are replayed one by one, operations in order, so the
    error raised is the one for the first failing ``(state, operation)``
    in enumeration order, with the :class:`OperationError` text a
    state-by-state closure check gives.
    """
    index = space.index
    lanes = Lanes(index, list(range(index.n)))
    states: list[State] | None = None
    tables: list[array] = []
    try:
        for op in operations:
            table = op.column_table(lanes)
            if table is None:
                if states is None:
                    states = list(space.states())
                table = array("L", [index.id_of(op(state)) for state in states])
            tables.append(table)
    except Exception:
        for state in space.states():
            for op in operations:
                result = op(state)
                if result not in space:
                    raise OperationError(
                        f"operation {op.name!r} maps {state!r} to {result!r}, "
                        "which lies outside the space"
                    ) from None
        raise
    return tuple(tables)


class Behavior:
    """A behavior (computation): a pair ``<sigma, H>`` (section 1.2).

    Mostly a convenience for examples and the enforcement-problem machinery:
    ``behavior.trace()`` yields the state sequence the behavior visits.
    """

    __slots__ = ("initial", "history")

    def __init__(self, initial: State, history: History) -> None:
        self.initial = initial
        self.history = history

    def final(self) -> State:
        return self.history(self.initial)

    def trace(self) -> Iterator[State]:
        """The states visited, beginning with the initial state."""
        state = self.initial
        yield state
        for op in self.history:
            state = op(state)
            yield state

    def prefixes(self) -> Iterator[Behavior]:
        """Behaviors for every prefix of the history (including empty)."""
        for i in range(len(self.history) + 1):
            yield Behavior(self.initial, self.history[:i])

    def __repr__(self) -> str:
        return f"Behavior({self.initial!r}, {self.history!r})"
