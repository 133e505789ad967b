"""Strong dependency: the paper's central formalism.

``beta`` *strongly depends* on a source set ``A`` after history ``H`` given
an initial constraint ``phi`` (Def 2-10) iff there exist two states, both
satisfying phi and equal except possibly at A, for which executing H leaves
different values in beta.  Written ``A |>_phi^H beta``.

This captures information transmission cybernetically: variety in A can be
*conveyed* to beta.  ``not (A |>_phi^H beta)`` is exactly "no information is
transmitted from A to beta by H" in a phi-constrained system (Def 2-1 when
phi = tt), subject to the autonomy caveats of chapter 5.

Definitions implemented here:

- Def 2-1/2-4/2-6: unconstrained dependency (phi = tt).
- Def 2-8/2-9/2-10: dependency given an initial constraint phi.
- Def 2-7/2-11: existential-history dependency ``A |>_phi beta``; exact for
  finite systems via the pair-graph fixpoint in
  :mod:`repro.analysis.explorer`, and available here as a bounded search.
- Def 5-5/5-6/5-7: set-valued targets ``A |>_phi^H B`` (states must differ
  at *every* object of B after H).

Every positive answer carries a :class:`Witness` — the concrete state pair —
and every API returns a result object that explains itself.

Complexity: the checker partitions the phi-states by their values *outside*
A (two states are candidates iff they share that restriction, Def 1-1), so
a history check costs ``O(|sat(phi)| * |H|)`` operation applications rather
than a quadratic pair scan.  :func:`transmits` and :func:`transmits_to_set`
answer every history through the shared engine's batched fixed-history
path (composed successor arrays on the compiled kernel, with operations
the system does not own tabulated on demand; one sweep answers all
targets of ``(A, H, phi)``, memoized).  The direct checkers survive as
``_seed_transmits`` / ``_seed_transmits_to_set`` — the executable
specification the engine is tested against; no library code calls them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.core.budget import ExecutionBudget
from repro.core.constraints import Constraint
from repro.core.errors import ConstraintError
from repro.core.state import State, Value
from repro.core.system import History, Operation, System
from repro.obs.provenance import Provenance


@dataclass(frozen=True)
class Witness:
    """A concrete demonstration that ``A |>_phi^H B``.

    ``sigma1`` and ``sigma2`` satisfy phi, agree everywhere outside
    ``sources``, and executing ``history`` yields states differing at every
    object of ``targets`` (for the single-target forms, at the one target).
    """

    sources: frozenset[str]
    targets: frozenset[str]
    history: History
    sigma1: State
    sigma2: State

    @property
    def before(self) -> tuple[State, State]:
        return (self.sigma1, self.sigma2)

    @property
    def after(self) -> tuple[State, State]:
        return (self.history(self.sigma1), self.history(self.sigma2))

    def describe(self) -> str:
        a1, a2 = self.after
        lines = [
            f"sources A = {sorted(self.sources)}, targets = {sorted(self.targets)}",
            f"history   = {self.history!r}",
            f"sigma1    = {self.sigma1!r}",
            f"sigma2    = {self.sigma2!r}",
        ]
        for target in sorted(self.targets):
            lines.append(
                f"H(sigma1).{target} = {a1[target]!r}  !=  "
                f"H(sigma2).{target} = {a2[target]!r}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class DependencyResult:
    """Outcome of a strong-dependency query.

    Truthiness equals :attr:`holds`, so results read naturally::

        if transmits(system, {"alpha"}, "beta", h):
            ...
    """

    holds: bool
    sources: frozenset[str]
    targets: frozenset[str]
    constraint_name: str
    witness: Witness | None = field(default=None)
    #: How the answer was produced (which kernel, memo hit or fresh,
    #: budget state) — see :class:`repro.obs.provenance.Provenance`.
    #: Excluded from equality/repr: two results are the same verdict even
    #: when one came from the memo and the other from a fresh BFS.
    provenance: Provenance | None = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        src = sorted(self.sources)
        tgt = sorted(self.targets)
        verdict = "|>" if self.holds else "not |>"
        head = f"{src} {verdict}_{self.constraint_name} {tgt}"
        if self.provenance is not None:
            head += f"\n[{self.provenance.describe()}]"
        if self.witness is not None:
            return head + "\n" + self.witness.describe()
        return head


def _resolve(
    system: System,
    constraint: Constraint | None,
) -> Constraint:
    if constraint is None:
        return Constraint.true(system.space)
    if constraint.space != system.space:
        raise ConstraintError(
            "constraint and system are over different spaces "
            f"({constraint.space!r} vs {system.space!r})"
        )
    return constraint


def _groups(
    system: System,
    sources: frozenset[str],
    constraint: Constraint,
) -> Iterator[list[State]]:
    """Partition sat(phi) into classes of states equal except at ``sources``.

    Each class is a maximal set of candidate (sigma1, sigma2) pairs for
    Def 2-8; singleton classes cannot witness dependency and are skipped.
    """
    buckets: dict[tuple[Value, ...], list[State]] = {}
    for state in constraint.states():
        buckets.setdefault(state.restrict_away(sources), []).append(state)
    for bucket in buckets.values():
        if len(bucket) > 1:
            yield bucket


def transmits(
    system: System,
    sources: Iterable[str],
    target: str,
    history: History | Operation,
    constraint: Constraint | None = None,
    budget: ExecutionBudget | None = None,
) -> DependencyResult:
    """Decide ``A |>_phi^H beta`` (Def 2-10; Def 2-6 when phi is omitted).

    Returns a result whose witness, when positive, is the concrete state
    pair conveying A's variety to ``target``.

    Routed through the shared :class:`~repro.core.engine.DependencyEngine`:
    one sweep of the composed successor array of H over the Def 1-1
    buckets of sat(phi) answers every target of ``(A, H, phi)`` at once,
    and is memoized on the engine.  Operations the system does not own
    (ad-hoc :meth:`Operation.then` composites, lambdas) are tabulated
    once and composed like its own; :func:`_seed_transmits` is the
    reference the verdicts and witnesses are tested against.

    >>> from repro.core.state import boolean_space
    >>> from repro.core.system import Operation, System
    >>> sp = boolean_space("alpha", "beta")
    >>> copy = Operation("copy", lambda s: s.replace(beta=s["alpha"]))
    >>> sys_ = System(sp, [copy])
    >>> bool(transmits(sys_, {"alpha"}, "beta", copy))
    True
    """
    from repro.core.engine import shared_engine  # lazy: engine imports us

    return shared_engine(system).depends_history(
        sources, target, history, constraint, budget
    )


def _seed_transmits(
    system: System,
    sources: Iterable[str],
    target: str,
    history: History | Operation,
    constraint: Constraint | None = None,
) -> DependencyResult:
    """The direct Def 2-10 checker: re-executes H per state, per query.

    Kept as the executable specification the engine's batched
    fixed-history path is property-tested against.  Unlike the engine it
    does not check that H stays in the space.
    """
    if isinstance(history, Operation):
        history = History.of(history)
    source_set = system.space.check_names(sources)
    system.space.check_names([target])
    phi = _resolve(system, constraint)
    for bucket in _groups(system, source_set, phi):
        first_state: State | None = None
        first_value: Value = None
        for state in bucket:
            value = history(state)[target]
            if first_state is None:
                first_state, first_value = state, value
            elif value != first_value:
                witness = Witness(
                    sources=source_set,
                    targets=frozenset([target]),
                    history=history,
                    sigma1=first_state,
                    sigma2=state,
                )
                return DependencyResult(
                    True, source_set, frozenset([target]), phi.name, witness
                )
    return DependencyResult(False, source_set, frozenset([target]), phi.name)


def transmits_to_set(
    system: System,
    sources: Iterable[str],
    targets: Iterable[str],
    history: History | Operation,
    constraint: Constraint | None = None,
    budget: ExecutionBudget | None = None,
) -> DependencyResult:
    """Decide ``A |>_phi^H B`` for a *set* of targets (Def 5-6).

    Def 5-5 requires the two final states to differ at **every** object of
    B simultaneously, which is strictly stronger than each single-target
    dependency holding (Theorem 5-3 gives only the forward implication).

    Routed through the shared engine like :func:`transmits`; the engine
    additionally prunes via the single-target table (Theorem 5-3's
    forward direction) before running the in-bucket pair scan.
    """
    from repro.core.engine import shared_engine  # lazy: engine imports us

    return shared_engine(system).depends_history_set(
        sources, targets, history, constraint, budget
    )


def _seed_transmits_to_set(
    system: System,
    sources: Iterable[str],
    targets: Iterable[str],
    history: History | Operation,
    constraint: Constraint | None = None,
) -> DependencyResult:
    """The direct Def 5-6 checker (reference path; see
    :func:`_seed_transmits`).  Each bucket member's final state is
    evaluated once — not once per target — before the pair scan."""
    if isinstance(history, Operation):
        history = History.of(history)
    source_set = system.space.check_names(sources)
    target_set = system.space.check_names(targets)
    if not target_set:
        raise ConstraintError("target set B must be non-empty")
    phi = _resolve(system, constraint)
    target_list = sorted(target_set)
    for bucket in _groups(system, source_set, phi):
        finals = [history(state) for state in bucket]
        outcomes = [
            (state, tuple(final[t] for t in target_list))
            for state, final in zip(bucket, finals)
        ]
        for i, (s1, v1) in enumerate(outcomes):
            for s2, v2 in outcomes[i + 1 :]:
                if all(x != y for x, y in zip(v1, v2)):
                    witness = Witness(
                        sources=source_set,
                        targets=target_set,
                        history=history,
                        sigma1=s1,
                        sigma2=s2,
                    )
                    return DependencyResult(
                        True, source_set, target_set, phi.name, witness
                    )
    return DependencyResult(False, source_set, target_set, phi.name)


def no_transmission(
    system: System,
    sources: Iterable[str],
    target: str,
    history: History | Operation,
    constraint: Constraint | None = None,
) -> bool:
    """Def 2-1 (and its phi-relative form): no information is transmitted
    from ``sources`` to ``target`` by ``history``."""
    return not transmits(system, sources, target, history, constraint)


def depends_within(
    system: System,
    sources: Iterable[str],
    target: str,
    max_length: int,
    constraint: Constraint | None = None,
) -> DependencyResult:
    """Bounded search for ``A |>_phi beta`` (Def 2-11): does *some* history
    of length at most ``max_length`` transmit?

    For an exact (unbounded) answer on finite systems use
    :func:`repro.analysis.explorer.depends_ever`, which runs the pair-graph
    fixpoint; this bounded form is the convenient hammer for small examples
    where a short witness is expected.
    """
    source_set = system.space.check_names(sources)
    phi = _resolve(system, constraint)
    for history in system.histories(max_length):
        result = transmits(system, source_set, target, history, phi)
        if result:
            return result
    return DependencyResult(False, source_set, frozenset([target]), phi.name)


def dependency_pairs(
    system: System,
    history: History | Operation,
    constraint: Constraint | None = None,
    sources_of_interest: Iterable[frozenset[str]] | None = None,
) -> dict[tuple[frozenset[str], str], DependencyResult]:
    """Compute ``A |>_phi^H beta`` for a family of sources against every
    target object — the raw material of the Worth measure (section 3.6).

    By default the sources are all singletons; pass explicit frozensets to
    query clumps (chapter 5's pseudo-objects).
    """
    if sources_of_interest is None:
        sources_of_interest = [frozenset([n]) for n in system.space.names]
    results: dict[tuple[frozenset[str], str], DependencyResult] = {}
    for source in sources_of_interest:
        for target in system.space.names:
            results[(source, target)] = transmits(
                system, source, target, history, constraint
            )
    return results


def sources_transmitting(
    system: System,
    sources: Iterable[str],
    target: str,
    history: History | Operation,
    constraint: Constraint | None = None,
) -> frozenset[str]:
    """The singletons of A that individually transmit to the target.

    Theorem 2-6 guarantees this set is non-empty whenever
    ``A |>_phi^H beta`` holds and phi is autonomous.
    """
    return frozenset(
        name
        for name in system.space.check_names(sources)
        if transmits(system, {name}, target, history, constraint)
    )
