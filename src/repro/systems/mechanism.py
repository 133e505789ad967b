"""Mechanisms and observers (section 7.3).

The paper's work-in-progress chapter sketches a *mechanism* formalism:
what an observer of an object can infer depends on what of the behavior
``<sigma, H>`` they can see.  Strong dependency implicitly assumes the
observer of beta knows the executed history (section 6.5's discussion);
under weaker observers, information paths disappear.

This module makes the observation model explicit:

- an :class:`Observer` maps a behavior to the *observation* it yields
  (any hashable value);
- :func:`observed_transmits` generalizes Def 2-10: information is
  transmitted from A to the observer iff two phi-states equal except at A
  produce different observations;
- stock observers reproduce the paper's cases:
  :func:`value_observer` (see beta's final value only),
  :func:`history_observer` (final value + the executed history — strong
  dependency's implicit assumption), and
  :func:`timed_observer` (final value + only the *time*, i.e. history
  length — section 6.5's "ordinarily we might instead assume beta's
  observer can only detect the passage of time").

With these, the section 6.5 two-branch program is provably safe for the
timed observer and provably leaky for the history observer — the claim
the paper defers to future work, discharged by enumeration (see
benchmark E19 and the mechanism tests).

The module also provides :func:`restrict_operations` — the simplest
mechanism in the paper's sense (an augmented system exposing a subset of
the base operations) — and :func:`added_paths`, which detects the
Rotenberg phenomenon: a mechanism *adding* information paths.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.constraints import Constraint
from repro.core.state import State, Value
from repro.core.system import History, Operation, System

Observation = Value
Observer = Callable[[State, History], Observation]


def value_observer(*names: str) -> Observer:
    """Observe only the final values of the named objects."""
    chosen = tuple(sorted(names))

    def observe(initial: State, history: History) -> Observation:
        final = history(initial)
        return tuple(final[n] for n in chosen)

    # For a *fixed* history the observation is a function of the final
    # values at `chosen` alone, which lets observed_transmits run on the
    # engine's batched fixed-history tables instead of re-executing the
    # observer per state.
    observe.final_value_names = chosen  # type: ignore[attr-defined]
    return observe


def history_observer(*names: str) -> Observer:
    """Observe the final values *and* the executed history — the
    assumption under which observed transmission coincides with strong
    dependency (section 6.5)."""
    base = value_observer(*names)

    def observe(initial: State, history: History) -> Observation:
        return (base(initial, history), tuple(op.name for op in history))

    # Both runs of a fixed H contribute the same history component, so
    # observations differ iff the final values do.
    observe.final_value_names = base.final_value_names  # type: ignore[attr-defined]
    return observe


def timed_observer(*names: str) -> Observer:
    """Observe the final values and only the *passage of time* (the
    history's length), not its contents."""
    base = value_observer(*names)

    def observe(initial: State, history: History) -> Observation:
        return (base(initial, history), len(history))

    # len(H) is shared by both runs of a fixed H — final values decide.
    observe.final_value_names = base.final_value_names  # type: ignore[attr-defined]
    return observe


def trace_observer(*names: str) -> Observer:
    """Observe the named objects at *every* step (the strongest
    object-local observer: a full trace of beta)."""
    chosen = tuple(sorted(names))

    def observe(initial: State, history: History) -> Observation:
        out = [tuple(initial[n] for n in chosen)]
        state = initial
        for op in history:
            state = op(state)
            out.append(tuple(state[n] for n in chosen))
        return tuple(out)

    return observe


@dataclass(frozen=True)
class ObservedWitness:
    """Two runs the observer can tell apart, differing only at A."""

    sigma1: State
    sigma2: State
    history: History
    observation1: Observation
    observation2: Observation


def observed_transmits(
    system: System,
    sources: Iterable[str],
    observer: Observer,
    history: History | Operation,
    constraint: Constraint | None = None,
) -> ObservedWitness | None:
    """Generalized Def 2-10: can A's variety reach the *observer* over
    this history?  Returns a witness or None.

    With ``observer = history_observer(beta)`` this coincides with
    ``transmits(system, A, beta, history, phi)`` for any fixed history
    (both runs execute the same H, so the history component never
    distinguishes) — the identification section 6.5 makes implicitly.

    Observers whose observation of a fixed history is a function of the
    final values at known objects (the stock value/history/timed
    observers advertise theirs via ``final_value_names``) are decided on
    the engine's batched fixed-history tables: one memoized query per
    observed object instead of an observer call per state.  Arbitrary
    observers (e.g. :func:`trace_observer`) take the generic scan below.
    """
    if isinstance(history, Operation):
        history = History.of(history)
    source_set = system.space.check_names(sources)
    observed = getattr(observer, "final_value_names", None)
    if observed is not None:
        from repro.core.engine import shared_engine  # lazy: avoid cycles

        engine = shared_engine(system)
        for target in observed:
            result = engine.depends_history(
                source_set, target, history, constraint
            )
            if result:
                w = result.witness
                return ObservedWitness(
                    w.sigma1,
                    w.sigma2,
                    history,
                    observer(w.sigma1, history),
                    observer(w.sigma2, history),
                )
        return None
    phi = constraint if constraint is not None else Constraint.true(system.space)
    buckets: dict[tuple[Value, ...], list[State]] = {}
    for state in phi.states():
        buckets.setdefault(state.restrict_away(source_set), []).append(state)
    for bucket in buckets.values():
        first: State | None = None
        first_obs: Observation = None
        for state in bucket:
            obs = observer(state, history)
            if first is None:
                first, first_obs = state, obs
            elif obs != first_obs:
                return ObservedWitness(first, state, history, first_obs, obs)
    return None


def observed_transmits_ever(
    system: System,
    sources: Iterable[str],
    observer: Observer,
    max_length: int,
    constraint: Constraint | None = None,
) -> ObservedWitness | None:
    """Bounded existential-history form of :func:`observed_transmits`.

    Observation functions are arbitrary, so no pair-graph fixpoint is
    available in general; the bound must cover the interesting histories
    (for pc-guarded program systems, the program length).
    """
    for history in system.histories(max_length):
        witness = observed_transmits(
            system, sources, observer, history, constraint
        )
        if witness is not None:
            return witness
    return None


# -- mechanisms -------------------------------------------------------------------


def restrict_operations(
    system: System, allowed: Iterable[str], check_closed: bool = False
) -> System:
    """The simplest mechanism: an augmented system exposing only a subset
    of the base operations (e.g. hiding a raw write behind a guarded
    entry point)."""
    names = set(allowed)
    return System(
        system.space,
        [op for op in system.operations if op.name in names],
        check_closed=check_closed,
    )


def added_paths(
    base: System,
    augmented: System,
    constraint: Constraint | None = None,
) -> frozenset[tuple[str, str]]:
    """Information paths present in the augmented system but not the base
    — the Rotenberg 73 covert-channel phenomenon the paper warns about.

    Both systems must share a space.  Paths are singleton-source exact
    dependencies (pair-graph decision).
    """
    from repro.core.reachability import depends_ever

    if base.space != augmented.space:
        raise ValueError("base and augmented systems are over different spaces")
    out: set[tuple[str, str]] = set()
    for x in base.space.names:
        for y in base.space.names:
            before = bool(depends_ever(base, {x}, y, constraint))
            after = bool(depends_ever(augmented, {x}, y, constraint))
            if after and not before:
                out.add((x, y))
    return frozenset(out)
