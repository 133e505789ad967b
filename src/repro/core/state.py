"""States and finite state spaces.

The paper models a computational system over states that are vectors of
named *objects* (section 1.2)::

    sigma == <sigma.n1, sigma.n2, ...>

with names in lexicographic order.  This module provides:

- :class:`State` — an immutable, hashable assignment of values to object
  names.  Equality-except-at-a-set (Def 1-1/1-2) and the substitution
  operator ``sigma2 <|A sigma1`` (Def 5-3) are methods on states.
- :class:`Space` — a finite state space: a fixed set of object names, each
  with a finite domain of values.  Strong dependency quantifies over *all*
  pairs of states, which a finite space makes exactly checkable.

Values may be any hashable Python objects (booleans, ints, strings,
frozensets of rights, tuples modelling structured objects, ...).

The paper's abstract spaces are typically infinite; every worked example,
however, only exercises finitely many values per object.  Finite spaces are
the faithful executable substitute: the definitions are universally
quantified over state pairs, and enumeration decides them exactly.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Hashable, Iterable, Iterator, Mapping

from repro.core.errors import DomainError, SpaceError, StateError, UnknownObjectError

Value = Hashable
ObjectName = str


class State(Mapping[str, Value]):
    """An immutable assignment of values to object names.

    A state is logically the vector ``<sigma.n1, sigma.n2, ...>`` with names
    in lexicographic order (Def in section 1.2).  ``State`` behaves as a
    read-only mapping and is hashable, so states can be set members and dict
    keys — the dependency checkers rely on this heavily.

    >>> s = State({"alpha": 1, "beta": 2})
    >>> s["alpha"]
    1
    >>> s.replace(alpha=9)["alpha"]
    9
    """

    __slots__ = ("_names", "_values", "_hash")

    def __init__(self, assignment: Mapping[str, Value] | Iterable[tuple[str, Value]]):
        items = sorted(dict(assignment).items())
        names = tuple(name for name, _ in items)
        for name in names:
            if not isinstance(name, str):
                raise StateError(f"object names must be strings, got {name!r}")
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_values", tuple(value for _, value in items))
        object.__setattr__(self, "_hash", hash((names, self._values)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("State is immutable")

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, name: str) -> Value:
        try:
            index = self._index(name)
        except ValueError:
            raise KeyError(name) from None
        return self._values[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._names == other._names and self._values == other._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._names, self._values))
        return f"State({inner})"

    def _index(self, name: str) -> int:
        # Binary search over the sorted name tuple.
        lo, hi = 0, len(self._names)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._names[mid] < name:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self._names) and self._names[lo] == name:
            return lo
        raise ValueError(name)

    # -- Formalism operations ------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """All object names, in lexicographic order."""
        return self._names

    def project(self, names: Iterable[str]) -> tuple[Value, ...]:
        """``sigma.A``: the vector of values at ``names`` in lexicographic
        order (section 1.2).  Raises :class:`KeyError` for unknown names."""
        return tuple(self[name] for name in sorted(set(names)))

    def restrict_away(self, names: Iterable[str]) -> tuple[Value, ...]:
        """The vector of values at every object *not* in ``names``.

        Two states ``s1, s2`` satisfy ``s1 =/A= s2`` (Def 1-1: equal except
        possibly at A) iff ``s1.restrict_away(A) == s2.restrict_away(A)``.
        This is the partition key used by the dependency checkers.
        """
        excluded = set(names)
        return tuple(
            value
            for name, value in zip(self._names, self._values)
            if name not in excluded
        )

    def equal_except_at(self, other: State, names: Iterable[str]) -> bool:
        """Def 1-1: ``self =/A= other`` — the states may differ only in the
        values of the objects named by ``names``."""
        if self._names != other._names:
            raise StateError("states are over different object sets")
        excluded = set(names)
        return all(
            v1 == v2
            for name, v1, v2 in zip(self._names, self._values, other._values)
            if name not in excluded
        )

    def differs_at(self, other: State) -> frozenset[str]:
        """The set of object names at which the two states differ."""
        if self._names != other._names:
            raise StateError("states are over different object sets")
        return frozenset(
            name
            for name, v1, v2 in zip(self._names, self._values, other._values)
            if v1 != v2
        )

    def substitute(self, source: State, names: Iterable[str]) -> State:
        """Def 5-3: ``self <|A source`` — a state just like ``self`` except
        that it takes the values of ``source`` at ``names``.

        The paper writes this ``sigma2 <|A sigma1`` and uses it to
        characterize relative autonomy (Theorem 5-1).
        """
        if self._names != source._names:
            raise StateError("states are over different object sets")
        chosen = set(names)
        unknown = chosen - set(self._names)
        if unknown:
            raise StateError(f"substitute: unknown object names {sorted(unknown)!r}")
        return State(
            {
                name: (source._values[i] if name in chosen else self._values[i])
                for i, name in enumerate(self._names)
            }
        )

    def replace(self, **changes: Value) -> State:
        """A state like this one with the given objects rebound.

        >>> State({"a": 1, "b": 2}).replace(b=3)["b"]
        3
        """
        unknown = set(changes) - set(self._names)
        if unknown:
            raise StateError(f"replace: unknown object names {sorted(unknown)!r}")
        merged = dict(zip(self._names, self._values))
        merged.update(changes)
        return State(merged)


class Space:
    """A finite state space: object names with finite value domains.

    >>> sp = Space({"alpha": range(4), "m": (False, True)})
    >>> sp.size
    8
    >>> len(list(sp.states()))
    8

    Domains are stored as tuples in their given order (enumeration order is
    deterministic).  ``Space`` instances are immutable and hashable.
    """

    __slots__ = ("_domains", "_domain_sets", "_names", "_size", "_hash", "_state_index")

    def __init__(self, domains: Mapping[str, Iterable[Value]]):
        if not domains:
            raise SpaceError("a space must define at least one object")
        normalized: dict[str, tuple[Value, ...]] = {}
        for name in sorted(domains):
            if not isinstance(name, str) or not name:
                raise SpaceError(f"object names must be non-empty strings: {name!r}")
            values = tuple(domains[name])
            if not values:
                raise SpaceError(f"object {name!r} has an empty domain")
            if len(set(values)) != len(values):
                raise SpaceError(f"object {name!r} has duplicate domain values")
            normalized[name] = values
        object.__setattr__(self, "_domains", normalized)
        # Frozen per-object value sets: membership checks (__contains__,
        # state()) must not rebuild a set per lookup.
        object.__setattr__(
            self,
            "_domain_sets",
            {name: frozenset(values) for name, values in normalized.items()},
        )
        object.__setattr__(self, "_names", tuple(normalized))
        # The domain product is read in guard/reporting loops; compute it
        # once here instead of on every `size` access.
        size = 1
        for values in normalized.values():
            size *= len(values)
        object.__setattr__(self, "_size", size)
        object.__setattr__(
            self, "_hash", hash(tuple((n, v) for n, v in normalized.items()))
        )
        object.__setattr__(self, "_state_index", None)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Space is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self._domains == other._domains

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{len(d)}" for n, d in self._domains.items())
        return f"Space({inner})"

    def __contains__(self, state: object) -> bool:
        if not isinstance(state, State):
            return False
        if state.names != self._names:
            return False
        return all(
            state[name] in self._domain_sets[name] for name in self._names
        )

    @property
    def names(self) -> tuple[str, ...]:
        """All object names, lexicographically ordered."""
        return self._names

    @property
    def size(self) -> int:
        """Number of states in the space (product of domain sizes,
        computed once at construction)."""
        return self._size

    def domain(self, name: str) -> tuple[Value, ...]:
        """The domain (the paper's *variety*) of a single object."""
        try:
            return self._domains[name]
        except KeyError:
            raise UnknownObjectError(name, self._names) from None

    def check_names(self, names: Iterable[str]) -> frozenset[str]:
        """Validate that every name exists in the space; return them as a
        frozenset.  Raises :class:`UnknownObjectError` otherwise."""
        result = frozenset(names)
        for name in result:
            if name not in self._domains:
                raise UnknownObjectError(name, self._names)
        return result

    @property
    def index(self) -> StateIndex:
        """The dense-id coding of this space's states (built once)."""
        if self._state_index is None:
            object.__setattr__(self, "_state_index", StateIndex(self))
        return self._state_index  # type: ignore[return-value]

    def states(self) -> Iterator[State]:
        """Enumerate every state of the space, deterministically."""
        names = self._names
        for values in itertools.product(*(self._domains[n] for n in names)):
            yield State(zip(names, values))

    def state(self, **values: Value) -> State:
        """Construct a state of this space, validating names and domains.

        Every object of the space must be given a value:

        >>> sp = Space({"a": (0, 1)})
        >>> sp.state(a=1)["a"]
        1
        """
        missing = set(self._names) - set(values)
        if missing:
            raise SpaceError(f"state: missing values for {sorted(missing)!r}")
        extra = set(values) - set(self._names)
        if extra:
            raise UnknownObjectError(sorted(extra)[0], self._names)
        for name, value in values.items():
            if value not in self._domain_sets[name]:
                raise DomainError(name, value)
        return State(values)

    def variants(self, state: State, names: Iterable[str]) -> Iterator[State]:
        """All states that agree with ``state`` except possibly at ``names``.

        This enumerates the equivalence class of ``state`` under
        ``=/A=`` (Def 1-1), including ``state`` itself.
        """
        chosen = sorted(self.check_names(names))
        for values in itertools.product(*(self._domains[n] for n in chosen)):
            yield state.replace(**dict(zip(chosen, values)))

    def restrict(self, **domains: Iterable[Value]) -> Space:
        """A space like this one with some domains replaced.

        Useful for building constrained sub-spaces in tests and examples;
        note that *constraints* (predicates) are the paper's mechanism and
        are usually preferable (see :mod:`repro.core.constraints`).
        """
        merged: dict[str, Iterable[Value]] = dict(self._domains)
        for name, domain in domains.items():
            if name not in self._domains:
                raise UnknownObjectError(name, self._names)
            merged[name] = tuple(domain)
        return Space(merged)

    def with_objects(self, **domains: Iterable[Value]) -> Space:
        """A space extended with additional objects."""
        merged: dict[str, Iterable[Value]] = dict(self._domains)
        for name, domain in domains.items():
            if name in merged:
                raise SpaceError(f"object {name!r} already exists")
            merged[name] = tuple(domain)
        return Space(merged)


class StateIndex:
    """Dense ids for the states of a space, in ``Space.states()`` order.

    Enumeration is the mixed-radix product of the per-object domains
    (objects in lexicographic order, the last varying fastest), so the
    id of a state is ``sum(code_k * stride_k)``: ``code_k`` is the
    position of its value in object ``k``'s domain and ``stride_k`` the
    product of the domain sizes after ``k``.  Ids and states convert by
    that arithmetic and one value-to-code dict per object, without
    enumerating the space.
    """

    __slots__ = ("names", "domains", "sizes", "strides", "codes", "position", "n")

    def __init__(self, space: Space) -> None:
        self.names = space.names
        self.domains = tuple(space.domain(name) for name in self.names)
        self.sizes = tuple(len(domain) for domain in self.domains)
        strides: list[int] = []
        acc = 1
        for size in reversed(self.sizes):
            strides.append(acc)
            acc *= size
        self.strides = tuple(reversed(strides))
        self.n = acc
        self.codes = tuple(
            {value: code for code, value in enumerate(domain)}
            for domain in self.domains
        )
        self.position = {name: k for k, name in enumerate(self.names)}

    def state(self, i: int) -> State:
        """The state with id ``i``."""
        return State(
            zip(
                self.names,
                (
                    domain[i // stride % size]
                    for domain, stride, size in zip(
                        self.domains, self.strides, self.sizes
                    )
                ),
            )
        )

    def id_of(self, state: State) -> int:
        """The id of ``state``; :class:`KeyError` when it is not a state
        of the space (the test ``state in space`` performs)."""
        if state.names != self.names:
            raise KeyError(state)
        i = 0
        for codes, stride, value in zip(self.codes, self.strides, state._values):
            i += codes[value] * stride
        return i

    def code_column(self, k: int) -> array:
        """``column[i]`` is the domain position of object ``k`` in state
        ``i``: each code repeated ``stride_k`` times, cycled."""
        stride, size = self.strides[k], self.sizes[k]
        run: list[int] = []
        for code in range(size):
            run += [code] * stride
        return array("L", run) * (self.n // (stride * size))

    def values(self, k: int, ids: Iterable[int]) -> list[Value]:
        """The values of object ``k`` in the states ``ids``."""
        domain, stride, size = self.domains[k], self.strides[k], self.sizes[k]
        return [domain[i // stride % size] for i in ids]


class Lanes:
    """A batch of states of one space, side by side as value columns.

    ``ids`` are the batch's state ids (:class:`StateIndex`); ``columns``
    maps object names to value lists aligned with ``ids``.  The column
    evaluators of the ``lang`` ASTs (``Expr.lanes``, ``Command.lanes``)
    run on lanes: a column is decoded from the ids the first time it is
    read, an assignment replaces one column (recorded in ``written``),
    and a guard splits the batch with :meth:`take`.
    :meth:`successor_ids` turns the written columns back into ids.
    """

    __slots__ = ("index", "ids", "columns", "written")

    def __init__(
        self,
        index: StateIndex,
        ids: list[int],
        columns: dict[str, list[Value]] | None = None,
        written: frozenset[str] = frozenset(),
    ) -> None:
        self.index = index
        self.ids = ids
        self.columns = {} if columns is None else columns
        self.written = written

    def __len__(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> list[Value]:
        """The values of ``name`` across the batch; :class:`KeyError`
        for an object the space does not have."""
        column = self.columns.get(name)
        if column is None:
            column = self.index.values(self.index.position[name], self.ids)
            self.columns[name] = column
        return column

    def take(self, positions: list[int]) -> Lanes:
        """The sub-batch at ``positions`` (written columns carried over,
        the rest decoded again on demand)."""
        return Lanes(
            self.index,
            list(map(self.ids.__getitem__, positions)),
            {
                name: list(map(self.columns[name].__getitem__, positions))
                for name in self.written
            },
            self.written,
        )

    def assign(self, name: str, values: list[Value]) -> Lanes:
        """The batch with object ``name`` rebound lane by lane
        (:meth:`State.replace` across the batch)."""
        if name not in self.index.position:
            raise StateError(f"replace: unknown object names {[name]!r}")
        return Lanes(
            self.index,
            self.ids,
            {**self.columns, name: values},
            self.written | {name},
        )

    def successor_ids(self) -> list[int]:
        """Each lane's state id after its writes.  :class:`KeyError`
        when a written value lies outside its object's domain (the
        state would lie outside the space)."""
        index = self.index
        ids = self.ids
        out = ids
        for name in self.written:
            k = index.position[name]
            codes, stride, size = index.codes[k], index.strides[k], index.sizes[k]
            out = [
                j + (codes[value] - i // stride % size) * stride
                for j, i, value in zip(out, ids, self.columns[name])
            ]
        return out


def boolean_space(*names: str) -> Space:
    """A space in which every named object is a boolean.

    >>> boolean_space("p", "q").size
    4
    """
    return Space({name: (False, True) for name in names})


def integer_space(bits: int, *names: str) -> Space:
    """A space of unsigned ``bits``-bit integers (the paper's running
    "16 bit integer" examples scale down to small widths for enumeration)."""
    if bits < 1:
        raise SpaceError("bits must be >= 1")
    domain = tuple(range(2**bits))
    return Space({name: domain for name in names})
