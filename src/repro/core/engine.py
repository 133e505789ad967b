"""Shared pair-graph dependency engine: one BFS per ``(A, phi)``.

The exact existential-history decision (Def 2-7/2-11) runs a BFS over the
*pair graph* — nodes are state pairs, edges apply one operation to both
components (see :mod:`repro.core.reachability` for the construction).
The crucial observation is that the **explored node set depends only on
the source set A and the constraint phi**: the target ``beta`` enters the
algorithm solely through the stopping test ``s1.beta != s2.beta``.  Every
batched analysis in the library (dependency matrices, Worth, audits, flow
graphs, the problem checkers) asks about *many* targets for the *same*
``(A, phi)``, so running an independent BFS per target redoes identical
traversals n times over.

:class:`DependencyEngine` fixes that:

1. **Compiled integer kernel.**  The system is compiled once by
   :class:`~repro.core.compiled.CompiledSystem`: dense state ids, one flat
   successor array per operation, per-object value columns.  The BFS then
   runs over *canonical unordered* pairs encoded as single ints — sound by
   the swap-symmetry lemma (docs/FORMALISM.md), and roughly half the
   nodes of the ordered pair graph with O(1) integer work per edge.  A
   closure runs on the scalar loop (small spaces, or no NumPy) or the
   NumPy bitset kernel; the seed per-query checkers in
   :mod:`repro.core.reachability` and :mod:`repro.core.dependency` stay
   as the reference the property tests compare against.
2. **One closure per (A, phi), memoized.**  The full reachable pair set is
   computed once — with parent pointers and in BFS (shortest-path) order —
   and cached on the engine.  :meth:`depends_ever` then answers *every*
   target ``beta`` (and every set target ``B``, Def 5-5/5-7) from that
   single closure, including shortest-witness reconstruction.  Witnesses
   decode back to :class:`~repro.core.state.State` objects only at this
   API boundary.
3. **Batched APIs.**  :meth:`matrix` and :meth:`closure` answer whole
   source-family × target-grid queries.  With ``max_workers`` they fan
   the independent per-source closures out across a thread pool, which
   overlaps where the kernel releases the GIL (NumPy bitset sweeps on
   wide frontiers); a task that fails is finished serially.

Caching semantics: an engine is bound to one immutable
:class:`~repro.core.system.System`; operations, spaces and constraints are
immutable by construction, so cache entries never invalidate.  Closures
are keyed by ``(frozenset(A), constraint-object)`` — two *distinct*
:class:`~repro.core.constraints.Constraint` instances with the same
predicate occupy separate entries (``None`` always shares one entry).
:func:`shared_engine` hands out one engine per system, kept on the system
so it dies with it, which is how the thin wrappers in
:mod:`repro.core.reachability` share work across the whole library.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections.abc import Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.core import bitset, faults
from repro.core.budget import (
    BudgetExceededError,
    BudgetMeter,
    ExecutionBudget,
    ExecutionLog,
    ExecutionReport,
)
from repro.core.cache import LRUCache as _LRUCache
from repro.core.compiled import (
    BITSET_AUTO_MIN_STATES,
    COMPOSED_CAP,
    KERNEL_MODES,
    SAT_IDS_CAP,
    CompiledClosure,
    CompiledSystem,
)
from repro.core.constraints import Constraint
from repro.core.store import PersistentStore, sat_key
from repro.core.dependency import DependencyResult, Witness
from repro.core.errors import ConstraintError
from repro.core.state import State
from repro.core.system import History, Operation, System
from repro.obs.provenance import Provenance

Pair = tuple[State, State]

#: Distinguishes "never computed" from a memoized negative (``None``) in
#: the set-target memo.
_UNCOMPUTED = object()

#: LRU caps on the fixed-history memos.  The closure memo stays unbounded
#: (closures are few and huge — recomputing one costs a full BFS), but the
#: history memos grow with the number of *histories* queried, which
#: ``System.histories(max_length)`` sweeps make combinatorial.
#: (``_LRUCache`` itself moved to :mod:`repro.core.cache` in PR 6 so the
#: compiled substrate can bound its own memos without a circular import.)
_HISTORY_TABLE_CAP = 1024
_HISTORY_SET_CAP = 4096
#: LRU cap on the Def 1-1 bucket-partition memo: one entry per (source
#: columns, flow key) pair actually swept.  Bucket lists are O(sat(phi))
#: ints, so a few hundred entries bound memory while keeping the serve
#: layer's repeated sweeps free.
_BUCKETS_CAP = 512

#: How often a *governed* waiter blocked behind another thread's
#: single-flight compute re-checks its own deadline/cancellation token
#: (seconds).  Ungoverned waiters block outright.
_FLIGHT_POLL = 0.02

#: Environment override for the engine's kernel selection mode; any value
#: in :data:`~repro.core.compiled.KERNEL_MODES` ("auto"/"scalar"/"bitset").
ENV_KERNEL = "REPRO_KERNEL"


def _resolve_kernel_mode(kernel: str | None) -> str:
    """The engine's kernel-selection mode: the explicit constructor
    argument, else the :data:`ENV_KERNEL` environment variable, else
    ``auto``.  Rejects unknown modes loudly — a typo silently falling
    back to scalar would be an invisible 10x."""
    if kernel is None:
        kernel = os.environ.get(ENV_KERNEL) or "auto"
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
        )
    return kernel


class DependencyEngine:
    """Answers exact existential-history dependency queries from shared,
    memoized pair-graph closures.

    >>> from repro.lang.builders import SystemBuilder
    >>> from repro.lang.expr import var
    >>> b = SystemBuilder().booleans("a", "m", "b")
    >>> _ = b.op_assign("d1", "m", var("a")).op_assign("d2", "b", var("m"))
    >>> engine = DependencyEngine(b.build())
    >>> result = engine.depends_ever({"a"}, "b")
    >>> bool(result), len(result.witness.history)
    (True, 2)
    >>> bool(engine.depends_ever({"b"}, "a"))  # same closure, free answer
    False
    """

    def __init__(
        self,
        system: System,
        budget: ExecutionBudget | None = None,
        kernel: str | None = None,
        store: "PersistentStore | str | os.PathLike | None" = None,
    ) -> None:
        self.system = system
        #: Optional persistent closure store (a :class:`PersistentStore`,
        #: a path, or ``None``): a memo tier below the RAM closure memo —
        #: RAM -> disk -> compute.
        self._store = PersistentStore.coerce(store)
        self._store_hash: str | None = None
        #: Kernel selection (see :data:`~repro.core.compiled.KERNEL_MODES`):
        #: ``auto`` (default) runs the bulk bitset kernel on spaces of at
        #: least :data:`~repro.core.compiled.BITSET_AUTO_MIN_STATES` states
        #: and the scalar kernel below; ``scalar``/``bitset`` force one.
        #: ``None`` defers to the ``REPRO_KERNEL`` environment variable.
        self._kernel_mode = _resolve_kernel_mode(kernel)
        #: Engine-wide default :class:`~repro.core.budget.ExecutionBudget`.
        #: Every governed loop (closure BFS, history sweep, flow sweep)
        #: starts a fresh meter from it; per-call ``budget=`` arguments
        #: override it.  ``None`` leaves the hot loops unmetered.
        self.budget = budget
        #: Per-engine :class:`~repro.core.budget.ExecutionLog`: one
        #: :class:`~repro.core.budget.ExecutionReport` per governed run
        #: and per warm fan-out (degradations, executor that finished).
        self.execution_log = ExecutionLog()
        self._compiled: CompiledSystem | None = None
        self._closures: dict[
            tuple[frozenset[str], Constraint | None], CompiledClosure
        ] = {}
        self._step_flows: dict[
            Constraint | None, dict[str, frozenset[tuple[str, str]]]
        ] = {}
        self._ops: tuple[Operation, ...] = system.operations
        self._op_position: dict[str, int] = {
            op.name: k for k, op in enumerate(self._ops)
        }
        # Bounded LRU memos (see _LRUCache): keys are
        # (A, steps, flow-key) and (A, steps, flow-key, B), with steps as
        # _history_indices resolves them;
        # values are target->pair tables and set-target pairs (or None).
        self._history_tables = _LRUCache(
            _HISTORY_TABLE_CAP, "engine.history_table.evictions"
        )
        self._history_set_memo = _LRUCache(
            _HISTORY_SET_CAP, "engine.history_set.evictions"
        )
        self._bucket_memo = _LRUCache(_BUCKETS_CAP, "engine.buckets.evictions")
        #: Single-flight locks, one per in-progress memo key (see
        #: :meth:`_flight`): the serve layer's executor threads hit one
        #: session engine concurrently, and without these two threads
        #: missing the same key would run the same BFS twice.
        self._flights: dict[object, threading.Lock] = {}
        self._lock = threading.Lock()

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Sizes (and, for the bounded memos, capacities and eviction
        totals) of every engine cache — the observability surface the
        ``repro stats`` subcommand and tests read.  Includes the
        kernel-side bounded memos (composed prefixes, satisfying ids)
        when the system has been compiled; before compilation they
        report empty at their configured capacities."""
        if self._compiled is not None:
            kernel_stats = self._compiled.cache_stats()
        else:
            kernel_stats = {
                "composed": {"size": 0, "capacity": COMPOSED_CAP, "evictions": 0},
                "sat_ids": {"size": 0, "capacity": SAT_IDS_CAP, "evictions": 0},
            }
        store_stats = (
            self._store.stats_brief()
            if self._store is not None
            else {"attached": 0}
        )
        with self._lock:
            return {
                "closures": {"size": len(self._closures)},
                "step_flows": {"size": len(self._step_flows)},
                "history_tables": self._history_tables.stats(),
                "history_set": self._history_set_memo.stats(),
                "buckets": self._bucket_memo.stats(),
                "kernel_composed": kernel_stats["composed"],
                "kernel_sat_ids": kernel_stats["sat_ids"],
                "store": store_stats,
            }

    # -- persistent store -----------------------------------------------------

    def attach_store(
        self, store: "PersistentStore | str | os.PathLike | None"
    ) -> None:
        """Attach (or replace, or with ``None`` detach) the persistent
        memo store.  Closures already in RAM stay; the disk tier starts
        serving the next miss."""
        self._store = PersistentStore.coerce(store)
        self._store_hash = None

    @property
    def store(self) -> PersistentStore | None:
        return self._store

    def persist_memos(self) -> int:
        """Write every *complete* in-RAM closure through to the attached
        persistent store, returning the number of rows written.

        The normal path already persists at the memoization point, but
        work computed before a store was attached may exist only in
        RAM.  The graceful-shutdown paths (service drain, CLI interrupt)
        call this so no completed closure is lost; writes are idempotent
        replaces, so double-persisting is safe.  Budget-tripped partials
        never enter the RAM memos, so they can never leak to disk here.
        """
        store = self._store_for()
        if store is None:
            return 0
        written = 0
        with self._lock:
            closures = list(self._closures.items())
        for (_, constraint), closure in closures:
            store.save_closure(
                self._store_hash, self._constraint_key(constraint), closure
            )
            written += 1
        return written

    def _store_for(self) -> PersistentStore | None:
        """The store, ready to serve this engine — or ``None`` when no
        store is attached or the store has degraded.  First use registers
        the compiled kernel and caches the system hash."""
        store = self._store
        if store is None or store.degraded:
            return None
        if self._store_hash is None:
            self._store_hash = store.register_system(self.compiled_system().kernel)
        return store if self._store_hash is not None else None

    def _constraint_key(self, constraint: Constraint | None) -> str:
        return sat_key(self.compiled_system().sat_ids(constraint))

    def _closure_from_store(
        self,
        store: PersistentStore,
        source_set: frozenset[str],
        constraint: Constraint | None,
        constraint_name: str,
    ) -> CompiledClosure | None:
        row = store.load_closure(
            self._store_hash, source_set, self._constraint_key(constraint)
        )
        if row is None:
            return None
        kernel_path, order, parents, first_diff = row
        return CompiledClosure(
            self.compiled_system(),
            source_set,
            constraint_name,
            order,
            parents,
            kernel_path,
            first_diff=first_diff,
        )

    def adopt_closure(
        self,
        sources: Iterable[str],
        constraint: Constraint | None,
        order,
        parents,
        kernel_path: str = "compiled",
    ) -> CompiledClosure:
        """Install a closure computed elsewhere — a surviving memo from
        a previous system version (:mod:`repro.analysis.diff`) or a
        peer process — into the RAM memo (first writer wins) and, when a
        store is attached, onto disk under *this* system's hash."""
        source_set = self.system.space.check_names(sources)
        phi = self._resolve(constraint)
        closure = CompiledClosure(
            self.compiled_system(), source_set, phi.name, order, parents, kernel_path
        )
        with self._lock:
            closure = self._closures.setdefault((source_set, constraint), closure)
        store = self._store_for()
        if store is not None:
            store.save_closure(
                self._store_hash, self._constraint_key(constraint), closure
            )
        return closure

    # -- compilation ----------------------------------------------------------

    def compiled_system(self) -> CompiledSystem:
        """The integer-kernel compilation of the system, built once (lazy).

        Compilation adopts the system's successor tables (tabulated when
        the system was built, or now for an unchecked system) and adds
        the per-object code columns; everything afterwards is indexed
        array reads.
        """
        if self._compiled is None:
            compiled = CompiledSystem(self.system)
            with self._lock:
                if self._compiled is None:
                    self._compiled = compiled
        return self._compiled

    # -- single-flight memo coordination --------------------------------------

    def _flight(self, key: object) -> threading.Lock:
        """The single-flight lock for one memo key.

        Concurrent get-or-compute for the *same* key serializes (the
        loser re-checks the memo and finds the winner's entry), while
        distinct keys still compute in parallel.  Lock objects are a few
        hundred bytes and the registry tracks the memo population, so it
        is not separately bounded.
        """
        with self._lock:
            lock = self._flights.get(key)
            if lock is None:
                lock = self._flights.setdefault(key, threading.Lock())
            return lock

    def _acquire_flight(
        self, lock: threading.Lock, meter: BudgetMeter | None = None
    ) -> None:
        """Acquire a single-flight lock, staying responsive to the
        caller's budget: a governed waiter re-checks its deadline and
        cancellation token every :data:`_FLIGHT_POLL` seconds instead of
        blocking indefinitely behind another thread's compute — a client
        timeout must cancel a *queued* query as surely as a running one.
        """
        if meter is None:
            lock.acquire()
            return
        while not lock.acquire(timeout=_FLIGHT_POLL):
            meter.check(meter.expanded, meter.discovered)

    # -- closures -------------------------------------------------------------

    def _resolve(self, constraint: Constraint | None) -> Constraint:
        if constraint is None:
            return Constraint.true(self.system.space)
        if constraint.space != self.system.space:
            raise ConstraintError(
                "constraint and system are over different spaces "
                f"({constraint.space!r} vs {self.system.space!r})"
            )
        return constraint

    def _flow_key(self, constraint: Constraint | None) -> Constraint | None:
        """The memo key for constraint-resolved caches: ``None`` for any
        constraint the whole space satisfies, the instance otherwise.

        ``operation_flows(None)`` and ``operation_flows(Constraint.true(...))``
        (or any other trivially-true instance) denote the same matrix, so
        they share one entry.  Distinct non-trivial instances keep separate
        entries — per-instance keying, like ``_closures``.
        """
        if constraint is None:
            return None
        if len(constraint.satisfying) == self.system.space.size:
            return None
        return constraint

    def _resolve_budget(
        self, budget: ExecutionBudget | None
    ) -> ExecutionBudget | None:
        """Per-call budgets override the engine default; ``None`` inherits
        it.  Pass an explicit all-``None`` :class:`ExecutionBudget` to run
        a single call ungoverned on a budgeted engine."""
        return budget if budget is not None else self.budget

    def _closure_mode(self) -> str:
        """The concrete kernel this engine's closures run on: ``scalar``
        or ``bitset``.  ``auto`` resolves by space size — bulk expansion
        only pays off once frontiers are wide, and small systems keep
        their historical ``compiled`` provenance.  Without NumPy (absent,
        or ``REPRO_BITSET_NUMPY=0``) every mode runs the scalar loop."""
        if bitset.load_numpy() is None:
            return "scalar"
        if self._kernel_mode == "auto":
            return (
                "bitset"
                if self.system.space.size >= BITSET_AUTO_MIN_STATES
                else "scalar"
            )
        return self._kernel_mode

    def _closure(
        self,
        sources: Iterable[str],
        constraint: Constraint | None = None,
        budget: ExecutionBudget | None = None,
    ) -> CompiledClosure:
        """The memoized :class:`~repro.core.compiled.CompiledClosure`
        for ``(A, phi)``.

        Under a budget the BFS is metered; a trip raises
        :class:`~repro.core.budget.BudgetExceededError` and **nothing is
        memoized** — the cache only ever holds complete closures, so a
        budget-truncated run can never corrupt later unbudgeted answers.
        """
        return self._closure_info(sources, constraint, budget)[0]

    def _closure_info(
        self,
        sources: Iterable[str],
        constraint: Constraint | None = None,
        budget: ExecutionBudget | None = None,
    ) -> tuple[CompiledClosure, bool, str]:
        """:meth:`_closure` plus which memo tier served it — the memo
        outcome and store outcome feed the
        :class:`~repro.obs.provenance.Provenance` record every public
        answer carries.  Tiers: RAM memo -> persistent store -> compute
        (computing persists the fresh closure when a store is attached;
        budget trips raise before either memo point, so partial results
        never enter RAM or disk)."""
        source_set = self.system.space.check_names(sources)
        phi = self._resolve(constraint)
        key = (source_set, constraint)
        obs.count("engine.closure.requests")
        with self._lock:
            cached = self._closures.get(key)
        if cached is not None:
            obs.count("engine.closure.memo_hit")
            return cached, True, "ram" if self._store is not None else "off"
        budget = self._resolve_budget(budget)
        label = f"closure A={sorted(source_set)} phi={phi.name}"
        meter = budget.start(label) if budget is not None else None
        flight = self._flight(("closure", key))
        self._acquire_flight(flight, meter)
        try:
            with self._lock:
                cached = self._closures.get(key)
            if cached is not None:
                # Another thread computed it while we queued.
                obs.count("engine.closure.memo_hit")
                return cached, True, "ram" if self._store is not None else "off"
            obs.count("engine.closure.memo_miss")
            store = self._store_for()
            if store is not None:
                loaded = self._closure_from_store(
                    store, source_set, constraint, phi.name
                )
                if loaded is not None:
                    with self._lock:
                        return self._closures.setdefault(key, loaded), True, "hit"
            started = time.perf_counter()
            try:
                with obs.span(
                    "engine.closure",
                    sources=",".join(sorted(source_set)),
                    constraint=phi.name,
                ):
                    closure = self.compiled_system().closure(
                        source_set,
                        constraint,
                        phi.name,
                        meter,
                        self._closure_mode(),
                    )
            except BudgetExceededError as exc:
                self.execution_log.record(
                    ExecutionReport(
                        label=label,
                        executor="serial",
                        expansions=exc.partial.expanded,
                        elapsed=exc.partial.elapsed,
                        completed=False,
                        partial=exc.partial,
                    )
                )
                raise
            self.execution_log.record(
                ExecutionReport(
                    label=label,
                    executor="serial",
                    expansions=len(closure),
                    elapsed=time.perf_counter() - started,
                )
            )
            obs.gauge_max("engine.closure.pairs", len(closure))
            if store is not None:
                store.save_closure(
                    self._store_hash, self._constraint_key(constraint), closure
                )
            with self._lock:
                return (
                    self._closures.setdefault(key, closure),
                    False,
                    "miss" if store is not None else "off",
                )
        finally:
            flight.release()

    # -- single queries -------------------------------------------------------

    def _witness(
        self,
        closure: CompiledClosure,
        pos: int,
        targets: frozenset[str],
    ) -> Witness:
        op_names, initial = closure.witness_path(pos)
        history = History(self.system.operation(name) for name in op_names)
        return Witness(
            sources=closure.sources,
            targets=targets,
            history=history,
            sigma1=initial[0],
            sigma2=initial[1],
        )

    def _provenance(
        self,
        hit: bool,
        budget: ExecutionBudget | None,
        witness: Witness | None = None,
        closure_pairs: int | None = None,
        kernel: str = "compiled",
        store: str = "off",
    ) -> Provenance:
        """The provenance record for one engine answer: which kernel
        decided it, whether the memo served it (and, with a persistent
        store attached, which tier — see
        :data:`~repro.obs.provenance.STORE_STATES`), and under what
        budget.  ``kernel`` is the closure's own recorded path
        (``compiled-bitset`` vs ``compiled``) when the answer came from a
        specific closure."""
        return Provenance(
            kernel=kernel,
            memo="hit" if hit else "fresh",
            budget=(
                "governed" if self._resolve_budget(budget) is not None else "none"
            ),
            witness_length=len(witness.history) if witness is not None else None,
            closure_pairs=closure_pairs,
            store=store,
        )

    def depends_ever(
        self,
        sources: Iterable[str],
        target: str,
        constraint: Constraint | None = None,
        budget: ExecutionBudget | None = None,
    ) -> DependencyResult:
        """Exact ``A |>_phi beta`` (Def 2-7/2-11) from the shared closure,
        with a shortest witness when positive.

        Under a budget (per-call or the engine default) the closure BFS
        is governed and may raise
        :class:`~repro.core.budget.BudgetExceededError` with a partial
        result instead of answering — it never returns a wrong verdict.
        """
        self.system.space.check_names([target])
        closure, hit, store_tier = self._closure_info(sources, constraint, budget)
        targets = frozenset([target])
        kernel_path = closure.kernel_path
        pos = closure.first_differing().get(target)
        if pos is None:
            return DependencyResult(
                False,
                closure.sources,
                targets,
                closure.constraint_name,
                provenance=self._provenance(
                    hit,
                    budget,
                    closure_pairs=len(closure),
                    kernel=kernel_path,
                    store=store_tier,
                ),
            )
        witness = self._witness(closure, pos, targets)
        return DependencyResult(
            True,
            closure.sources,
            targets,
            closure.constraint_name,
            witness,
            provenance=self._provenance(
                hit,
                budget,
                witness,
                closure_pairs=len(closure),
                kernel=kernel_path,
                store=store_tier,
            ),
        )

    def depends_ever_set(
        self,
        sources: Iterable[str],
        targets: Iterable[str],
        constraint: Constraint | None = None,
        budget: ExecutionBudget | None = None,
    ) -> DependencyResult:
        """Exact ``A |>_phi B`` (Def 5-7): the earliest reachable pair
        differing at *every* object of B, from the same shared closure."""
        target_set = self.system.space.check_names(targets)
        if not target_set:
            raise ConstraintError("target set B must be non-empty")
        closure, hit, store_tier = self._closure_info(sources, constraint, budget)
        kernel_path = closure.kernel_path
        pos = closure.first_differing_at_all(target_set)
        if pos is None:
            return DependencyResult(
                False,
                closure.sources,
                target_set,
                closure.constraint_name,
                provenance=self._provenance(
                    hit,
                    budget,
                    closure_pairs=len(closure),
                    kernel=kernel_path,
                    store=store_tier,
                ),
            )
        witness = self._witness(closure, pos, target_set)
        return DependencyResult(
            True,
            closure.sources,
            target_set,
            closure.constraint_name,
            witness,
            provenance=self._provenance(
                hit,
                budget,
                witness,
                closure_pairs=len(closure),
                kernel=kernel_path,
                store=store_tier,
            ),
        )

    # -- fixed-history queries ------------------------------------------------

    def _history_indices(
        self, history: History | Operation
    ) -> tuple[int | Operation, ...]:
        """Resolve a history to the steps
        :meth:`CompiledSystem.history_array` composes: each of the
        system's own operations as its index into the successor arrays,
        matched by *identity* (via its name), and any other operation —
        an ad-hoc ``op1.then(op2)``, a lambda, a same-named operation of
        another system — as itself, to be tabulated on demand rather
        than answered for a different operation of the same name."""
        if isinstance(history, Operation):
            history = History.of(history)
        ops = self._ops
        position = self._op_position
        steps: list[int | Operation] = []
        for op in history:
            k = position.get(op.name)
            steps.append(k if k is not None and ops[k] is op else op)
        return tuple(steps)

    def _history_table(
        self,
        source_set: frozenset[str],
        indices: tuple[int | Operation, ...],
        constraint: Constraint | None,
        budget: ExecutionBudget | None = None,
    ) -> Mapping[str, tuple[int, int]]:
        """For one ``(A, H, phi)``: the first witness pair per target.

        One sweep over the Def 1-1 buckets of sat(phi) answers **all**
        targets at once: within a bucket every state's composed final is
        compared to the first member's, and the first member whose final
        differs at a still-unassigned target claims it.  Compare-to-first
        is complete for single targets — if two bucket members differ at
        ``t`` after H, at least one of them differs from the bucket's
        first member at ``t`` — and scanning buckets/members in
        enumeration order makes the recorded pair *identical* to the
        seed checker's.  Memoized per ``(A, steps, flow-key)``.

        Like the closures, a budget governs the sweep (checked once per
        bucket) and a trip memoizes nothing.
        """
        return self._history_table_info(source_set, indices, constraint, budget)[0]

    def _history_table_info(
        self,
        source_set: frozenset[str],
        indices: tuple[int | Operation, ...],
        constraint: Constraint | None,
        budget: ExecutionBudget | None = None,
    ) -> tuple[Mapping[str, tuple[int, int]], bool]:
        """:meth:`_history_table` plus whether the RAM LRU served it.
        Sweep tables are not persisted: next to the compile a warm
        process pays anyway, one sweep is cheap, so fixed-history
        answers report the store tier ``off``."""
        key = (source_set, indices, self._flow_key(constraint))
        cached = self._history_tables.get(key)
        if cached is not None:
            obs.count("engine.history_table.memo_hit")
            return cached, True
        budget = self._resolve_budget(budget)
        meter = (
            budget.start(f"history sweep A={sorted(source_set)} |H|={len(indices)}")
            if budget is not None
            else None
        )
        flight = self._flight(("history", key))
        self._acquire_flight(flight, meter)
        try:
            cached = self._history_tables.get(key)
            if cached is not None:
                obs.count("engine.history_table.memo_hit")
                return cached, True
            obs.count("engine.history_table.memo_miss")
            try:
                with obs.span(
                    "engine.history_sweep",
                    sources=",".join(sorted(source_set)),
                    length=len(indices),
                ):
                    table = self._compiled_history_table(
                        source_set, indices, constraint, meter
                    )
            except BudgetExceededError as exc:
                self.execution_log.record(
                    ExecutionReport(
                        label=exc.partial.label,
                        executor="serial",
                        expansions=exc.partial.expanded,
                        elapsed=exc.partial.elapsed,
                        completed=False,
                        partial=exc.partial,
                    )
                )
                raise
            return self._history_tables.put(key, table), False
        finally:
            flight.release()

    def _buckets(
        self,
        source_indices: tuple[int, ...],
        constraint: Constraint | None,
    ) -> list[list[int]]:
        """The Def 1-1 bucket partition for (source columns, sat(phi))
        as a list of id lists — ``kernel.buckets(...).values()`` in
        first-seen order.  Every compiled bucket sweep (history tables,
        set scans, operation flows) goes through here, so repeated
        sweeps share one O(n) partition pass: a bounded RAM LRU with
        single-flight get-or-compute, like the closures."""
        compiled = self.compiled_system()
        memo_key = (source_indices, self._flow_key(constraint))
        cached = self._bucket_memo.get(memo_key)
        if cached is not None:
            return cached
        flight = self._flight(("buckets", memo_key))
        self._acquire_flight(flight)
        try:
            cached = self._bucket_memo.get(memo_key)
            if cached is not None:
                return cached
            buckets = list(
                compiled.kernel.buckets(
                    source_indices, compiled.sat_ids(constraint)
                ).values()
            )
            return self._bucket_memo.put(memo_key, buckets)
        finally:
            flight.release()

    def history_indices(
        self, history: History | Operation
    ) -> tuple[int | Operation, ...]:
        """Resolve a history to the steps of
        :meth:`CompiledSystem.history_array` (public form of the resolver
        the fixed-history provers use; the compiled quantitative layer
        composes its histories through it)."""
        return self._history_indices(history)

    def def11_buckets(
        self,
        sources: Iterable[str],
        constraint: Constraint | None = None,
    ) -> list[list[int]]:
        """The Def 1-1 bucket partition of sat(phi) for a source set, as
        id lists in first-seen order — memoized like every other
        compiled bucket sweep.  Conditioning on "everything outside A
        held at z" *is* membership in one of these buckets, which is how
        the quantitative layer reads equivocation off them."""
        source_set = self.system.space.check_names(sources)
        compiled = self.compiled_system()
        return self._buckets(compiled.source_indices(source_set), constraint)

    def _compiled_history_table(
        self,
        source_set: frozenset[str],
        indices: tuple[int | Operation, ...],
        constraint: Constraint | None,
        meter: BudgetMeter | None = None,
    ) -> dict[str, tuple[int, int]]:
        if meter is not None:
            meter.check(0, 0)
        compiled = self.compiled_system()
        kernel = compiled.kernel
        comp = compiled.history_array(indices)
        names = kernel.names
        columns = kernel.columns
        n_names = len(names)
        first: dict[str, tuple[int, int]] = {}
        scanned = 0
        for bucket in self._buckets(compiled.source_indices(source_set), constraint):
            if meter is not None:
                meter.check(scanned, scanned)
            scanned += len(bucket)
            if len(bucket) < 2:
                continue
            i0 = bucket[0]
            f0 = comp[i0]
            for i in bucket[1:]:
                fi = comp[i]
                if fi == f0:
                    continue
                for name, column in zip(names, columns):
                    if name not in first and column[f0] != column[fi]:
                        first[name] = (i0, i)
            if len(first) == n_names:
                break
        return first

    def _decode_history_pair(self, pair: tuple[int, int]) -> Pair:
        compiled = self.compiled_system()
        return (compiled.state(pair[0]), compiled.state(pair[1]))

    def depends_history(
        self,
        sources: Iterable[str],
        target: str,
        history: History | Operation,
        constraint: Constraint | None = None,
        budget: ExecutionBudget | None = None,
    ) -> DependencyResult:
        """Exact ``A |>_phi^H beta`` for a *fixed* history (Def 2-10).

        The first query for a given ``(A, H, phi)`` pays one sweep over
        the Def 1-1 buckets of sat(phi) against the composed successor
        array of H; every further target is a dict lookup.  Witnesses are
        the same state pairs the seed checker returns.  Operations that
        are not the system's own are tabulated on first use (see
        :meth:`CompiledSystem.history_array`).
        """
        if isinstance(history, Operation):
            history = History.of(history)
        source_set = self.system.space.check_names(sources)
        self.system.space.check_names([target])
        phi = self._resolve(constraint)
        indices = self._history_indices(history)
        table, hit = self._history_table_info(
            source_set, indices, constraint, budget
        )
        targets = frozenset([target])
        pair = table.get(target)
        if pair is None:
            return DependencyResult(
                False,
                source_set,
                targets,
                phi.name,
                provenance=self._provenance(hit, budget),
            )
        sigma1, sigma2 = self._decode_history_pair(pair)
        witness = Witness(
            sources=source_set,
            targets=targets,
            history=history,
            sigma1=sigma1,
            sigma2=sigma2,
        )
        return DependencyResult(
            True,
            source_set,
            targets,
            phi.name,
            witness,
            provenance=self._provenance(hit, budget, witness),
        )

    def depends_history_set(
        self,
        sources: Iterable[str],
        targets: Iterable[str],
        history: History | Operation,
        constraint: Constraint | None = None,
        budget: ExecutionBudget | None = None,
    ) -> DependencyResult:
        """Exact ``A |>_phi^H B`` for a *set* target (Def 5-6): the two
        finals must differ at **every** object of B simultaneously.

        The single-target table prunes first (Theorem 5-3's forward
        direction: if some member of B is never distinguished by H, no
        pair differs at all of B); only then does the quadratic in-bucket
        pair scan run, over composed finals — each state's final is
        evaluated once, not once per target.  Memoized per
        ``(A, steps, flow-key, B)``.
        """
        if isinstance(history, Operation):
            history = History.of(history)
        source_set = self.system.space.check_names(sources)
        target_set = self.system.space.check_names(targets)
        if not target_set:
            raise ConstraintError("target set B must be non-empty")
        phi = self._resolve(constraint)
        indices = self._history_indices(history)
        key = (source_set, indices, self._flow_key(constraint), target_set)
        pair = self._history_set_memo.get(key, _UNCOMPUTED)
        hit = pair is not _UNCOMPUTED
        if hit:
            obs.count("engine.history_set.memo_hit")
        else:
            flight = self._flight(("history_set", key))
            self._acquire_flight(flight)
            try:
                pair = self._history_set_memo.get(key, _UNCOMPUTED)
                if pair is not _UNCOMPUTED:
                    hit = True
                    obs.count("engine.history_set.memo_hit")
                else:
                    obs.count("engine.history_set.memo_miss")
                    with obs.span(
                        "engine.history_set",
                        sources=",".join(sorted(source_set)),
                        targets=",".join(sorted(target_set)),
                        length=len(indices),
                    ):
                        table = self._history_table(
                            source_set, indices, constraint, budget
                        )
                        if not all(t in table for t in target_set):
                            pair = None
                        else:
                            pair = self._compiled_history_set_pair(
                                source_set, indices, sorted(target_set), constraint
                            )
                    pair = self._history_set_memo.put(key, pair)
            finally:
                flight.release()
        if pair is None:
            return DependencyResult(
                False,
                source_set,
                target_set,
                phi.name,
                provenance=self._provenance(hit, budget),
            )
        sigma1, sigma2 = self._decode_history_pair(pair)
        witness = Witness(
            sources=source_set,
            targets=target_set,
            history=history,
            sigma1=sigma1,
            sigma2=sigma2,
        )
        return DependencyResult(
            True,
            source_set,
            target_set,
            phi.name,
            witness,
            provenance=self._provenance(hit, budget, witness),
        )

    def _compiled_history_set_pair(
        self,
        source_set: frozenset[str],
        indices: tuple[int | Operation, ...],
        target_list: list[str],
        constraint: Constraint | None,
    ) -> tuple[int, int] | None:
        compiled = self.compiled_system()
        kernel = compiled.kernel
        comp = compiled.history_array(indices)
        column_of = dict(zip(kernel.names, kernel.columns))
        cols = [column_of[t] for t in target_list]
        for bucket in self._buckets(compiled.source_indices(source_set), constraint):
            m = len(bucket)
            if m < 2:
                continue
            finals = [comp[i] for i in bucket]
            for a in range(m - 1):
                fa = finals[a]
                for b in range(a + 1, m):
                    fb = finals[b]
                    for column in cols:
                        if column[fa] == column[fb]:
                            break
                    else:
                        return (bucket[a], bucket[b])
        return None

    # -- batched queries ------------------------------------------------------

    def _source_family(
        self, sources: Iterable[frozenset[str]] | None
    ) -> list[frozenset[str]]:
        if sources is None:
            return [frozenset([n]) for n in self.system.space.names]
        return [frozenset(a) for a in sources]

    def _warm(
        self,
        family: list[frozenset[str]],
        constraint: Constraint | None,
        max_workers: int | None,
        budget: ExecutionBudget | None = None,
    ) -> None:
        """Compute the independent per-source closures, optionally fanned
        out across a thread pool (each closure is an isolated BFS; the
        memo dict is the only shared state and is lock-protected).

        Threads overlap only where the kernel releases the GIL — the
        NumPy bitset sweeps of wide frontiers — so on small systems the
        pool costs more than it saves, and callers opt in with
        ``max_workers``.

        **Fault tolerance.**  A thread task that fails for any reason
        but a budget trip hands its source to the serial loop::

            threads  --(task failure)-->  serial

        Completed closures are memoized as they finish, so no finished
        work is ever recomputed or lost.  Budget trips
        (:class:`~repro.core.budget.BudgetExceededError`) are a verdict
        about the query, not the executor, and propagate to the caller.
        Every warm records an :class:`~repro.core.budget.ExecutionReport`
        (degradations, final executor) on :attr:`execution_log`.
        """
        budget = self._resolve_budget(budget)
        # Dedupe preserving order (a source family with repeats must not
        # run the same BFS twice) and read the memo under the lock — a
        # concurrent warm may be filling it.
        unique = list(dict.fromkeys(family))
        with self._lock:
            pending = [a for a in unique if (a, constraint) not in self._closures]
        if not pending:
            return
        # Disk tier before any fan-out: a warm store turns the whole
        # batch into row fetches — no pool, no BFS.
        store = self._store_for()
        if store is not None:
            phi_name = self._resolve(constraint).name
            still_pending = []
            for a in pending:
                loaded = self._closure_from_store(store, a, constraint, phi_name)
                if loaded is None:
                    still_pending.append(a)
                else:
                    with self._lock:
                        self._closures.setdefault((a, constraint), loaded)
            pending = still_pending
        if not pending:
            return
        total = len(pending)
        started = time.perf_counter()
        degradations: list[str] = []
        path = "serial"
        try:
            with obs.span("engine.warm", pending=total):
                if max_workers is not None and len(pending) > 1:
                    path = "thread"
                    pending = self._warm_threads(
                        pending, constraint, max_workers, budget
                    )
                    if pending:
                        degradations.append("thread->serial")
                        path = "serial"
                for k, a in enumerate(pending):
                    faults.inject("task", k)
                    self._closure(a, constraint, budget)
        finally:
            with self._lock:
                completed = all(
                    (a, constraint) in self._closures for a in unique
                )
            self.execution_log.record(
                ExecutionReport(
                    label=f"warm {total} closures "
                    f"phi={self._resolve(constraint).name}",
                    executor=path,
                    degradations=tuple(degradations),
                    elapsed=time.perf_counter() - started,
                    completed=completed,
                )
            )

    def _warm_threads(
        self,
        pending: list[frozenset[str]],
        constraint: Constraint | None,
        max_workers: int,
        budget: ExecutionBudget | None = None,
    ) -> list[frozenset[str]]:
        """Fan closures across a thread pool, returning the sources whose
        tasks failed (for the serial loop).  Budget trips propagate; any
        other per-task failure is contained — completed closures are
        already memoized by :meth:`_closure`."""
        # Compile once, not per thread.
        self.compiled_system()

        def run(task: tuple[int, frozenset[str]]) -> None:
            k, a = task
            faults.inject("task", k)
            self._closure(a, constraint, budget)

        failed: list[frozenset[str]] = []
        budget_trip: BudgetExceededError | None = None
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            # copy_context(): thread-pool tasks inherit the caller's
            # contextvars (trace id, span parent), so fan-out closures
            # stay correlated with the request that triggered them.
            futures = [
                (
                    a,
                    pool.submit(
                        contextvars.copy_context().run, run, (k, a)
                    ),
                )
                for k, a in enumerate(pending)
            ]
            for a, future in futures:
                try:
                    future.result()
                except BudgetExceededError as exc:
                    budget_trip = exc
                except Exception:
                    failed.append(a)
        if budget_trip is not None:
            raise budget_trip
        return failed

    def closure(
        self,
        constraint: Constraint | None = None,
        sources: Iterable[frozenset[str]] | None = None,
        max_workers: int | None = None,
        budget: ExecutionBudget | None = None,
    ) -> dict[tuple[frozenset[str], str], DependencyResult]:
        """All exact dependencies for a family of source sets (default:
        singletons) against every target — the Worth raw data (section
        3.6) — from one closure per source set.  Under a budget, the
        first per-source closure to trip raises
        :class:`~repro.core.budget.BudgetExceededError`; closures already
        completed stay memoized, so a caller can catch, degrade, and
        still answer the finished rows for free."""
        family = self._source_family(sources)
        self._warm(family, constraint, max_workers, budget)
        out: dict[tuple[frozenset[str], str], DependencyResult] = {}
        for source in family:
            for target in self.system.space.names:
                out[(source, target)] = self.depends_ever(
                    source, target, constraint, budget
                )
        return out

    def matrix(
        self,
        constraint: Constraint | None = None,
        max_workers: int | None = None,
        budget: ExecutionBudget | None = None,
    ) -> dict[str, dict[str, bool]]:
        """``matrix[x][y]`` iff ``x |>_phi y`` over some history (exact),
        one BFS per row."""
        names = self.system.space.names
        self._warm(
            [frozenset([n]) for n in names], constraint, max_workers, budget
        )
        return {
            x: {
                y: bool(
                    self.depends_ever(frozenset([x]), y, constraint, budget)
                )
                for y in names
            }
            for x in names
        }

    # -- single-step flows ----------------------------------------------------

    def operation_flows(
        self,
        constraint: Constraint | None = None,
        budget: ExecutionBudget | None = None,
    ) -> Mapping[str, frozenset[tuple[str, str]]]:
        """Per-operation single-step flows: for each operation ``delta``,
        the pairs ``(x, y)`` with ``{x} |>_phi^delta y`` (Def 2-10 with the
        one-step history).

        Computed in one pass per source object — all targets of all
        operations fall out of each state pair — and memoized per
        *resolved* constraint (:meth:`_flow_key`): ``None`` and any
        trivially-true instance share one entry.  On a compiled engine
        the pass is integer column comparison over the successor arrays.
        This is what the Millen baseline, the per-operation flow graph
        and the induction provers consume.
        """
        phi = self._resolve(constraint)
        key = self._flow_key(constraint)
        with self._lock:
            cached = self._step_flows.get(key)
        if cached is not None:
            obs.count("engine.step_flows.memo_hit")
            return cached
        budget = self._resolve_budget(budget)
        meter = (
            budget.start(f"operation flows phi={phi.name}")
            if budget is not None
            else None
        )
        flight = self._flight(("flows", key))
        self._acquire_flight(flight, meter)
        try:
            with self._lock:
                cached = self._step_flows.get(key)
            if cached is not None:
                obs.count("engine.step_flows.memo_hit")
                return cached
            obs.count("engine.step_flows.memo_miss")
            try:
                with obs.span("engine.operation_flows", constraint=phi.name):
                    result = self._compiled_operation_flows(key, meter)
            except BudgetExceededError as exc:
                self.execution_log.record(
                    ExecutionReport(
                        label=exc.partial.label,
                        executor="serial",
                        expansions=exc.partial.expanded,
                        elapsed=exc.partial.elapsed,
                        completed=False,
                        partial=exc.partial,
                    )
                )
                raise
            with self._lock:
                return self._step_flows.setdefault(key, result)
        finally:
            flight.release()

    def _compiled_operation_flows(
        self,
        constraint: Constraint | None,
        meter: BudgetMeter | None = None,
    ) -> dict[str, frozenset[tuple[str, str]]]:
        compiled = self.compiled_system()
        kernel = compiled.kernel
        names = kernel.names
        columns = kernel.columns
        successors = kernel.successors
        op_names = kernel.op_names
        flows: dict[str, set[tuple[str, str]]] = {name: set() for name in op_names}
        scanned = 0
        if meter is not None:
            meter.check(0, 0)
        for k, x in enumerate(names):
            for bucket in self._buckets((k,), constraint):
                if meter is not None:
                    meter.check(scanned, scanned)
                m = len(bucket)
                scanned += m
                for a in range(m - 1):
                    i = bucket[a]
                    for b in range(a + 1, m):
                        j = bucket[b]
                        for op_name, successor in zip(op_names, successors):
                            si = successor[i]
                            sj = successor[j]
                            if si == sj:
                                continue
                            add = flows[op_name].add
                            for y, column in zip(names, columns):
                                if column[si] != column[sj]:
                                    add((x, y))
        return {name: frozenset(pairs) for name, pairs in flows.items()}

_ENGINE_LOCK = threading.Lock()


def shared_engine(system: System) -> DependencyEngine:
    """The shared engine for ``system`` (one per live instance).

    Engines hold compiled tables and memoized closures; sharing one per
    system means e.g. an audit followed by a Worth computation pays for
    each ``(A, phi)`` BFS once.  The engine is kept on the system itself,
    so the two form one reference cycle and are reclaimed together.
    """
    engine = system._engine
    if engine is None:
        with _ENGINE_LOCK:
            engine = system._engine
            if engine is None:
                engine = system._engine = DependencyEngine(system)
    return engine
