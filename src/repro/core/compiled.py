"""Compiled integer kernel for the pair-graph decision procedure.

The exact decision ``A |>_phi beta`` (Def 2-7/2-11) is a BFS over the
pair graph.  Run over :class:`~repro.core.state.State` objects, as the
seed reference checkers do, every edge hashes a ``(State, State)`` tuple
and every stopping test compares Python values field by field.  This
module compiles the whole decision down to integers:

1. **Dense state ids.**  Each state's id is its index ``i`` in the
   canonical ``Space.states()`` order.  Because enumeration is the
   mixed-radix product of the per-object domains, the id decomposes
   arithmetically::

       i == sum(code_k(i) * stride_k)   with   code_k(i) = (i // stride_k) % size_k

   where ``stride_k`` is the product of the domain sizes of the objects
   after object ``k`` in lexicographic order
   (:class:`~repro.core.state.StateIndex`).  Ids and states convert by
   that arithmetic, so the space is never enumerated as ``State``
   objects.

2. **Flat successor arrays.**  ``successors[d][i] = id(delta(state_i))``
   in ``array('L')``, adopted from the system's one tabulation
   (:meth:`~repro.core.system.System.successor_tables`): a structured
   operation's command runs once on the space's value columns, any
   other operation once per state.  A BFS edge is one O(1) indexed load
   instead of a ``State``-keyed dict lookup.

3. **Per-object value columns.**  ``columns[k][i]`` is the domain index
   of object ``k`` in state ``i``; "do two states differ at beta" is an
   integer comparison of two column entries.

4. **Canonical unordered pairs.**  A pair node is the single int
   ``i * n + j`` with ``i <= j``.  Applying one operation to both
   components commutes with swapping the components, and both the
   Def 2-8 initial set and the stopping test ``s1.beta != s2.beta`` are
   symmetric under that swap, so BFS over *unordered* pairs is sound and
   complete and halves the explored set (the swap-symmetry lemma is
   proved in docs/FORMALISM.md; shortest-witness lengths are preserved).

5. **Parents by BFS position.**  A closure is ``order`` (the pair codes
   in BFS order) plus one order-aligned int64 array of parent pointers,
   ``parent_position * n_ops + op`` or :data:`INITIAL` for Def 2-8
   seeds.  A witness walks positions back by plain indexing, so no
   code-to-position index is ever built — in RAM or on disk.

The kernel (:class:`CompiledKernel`) is deliberately free of ``State``,
``Operation`` and lambda references — plain integer tables — and
:class:`CompiledSystem` binds it to its
:class:`~repro.core.system.System` so results decode back to
``State``/``Witness`` objects only at the API boundary.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro import obs
from repro.core import bitset
from repro.core.budget import CHECK_INTERVAL, BudgetMeter
from repro.core.cache import LRUCache
from repro.core.constraints import Constraint
from repro.core.state import State, Value
from repro.core.system import Operation, System, tabulate

#: Packed-parent sentinel for Def 2-8 initial pairs (no predecessor).
INITIAL = -1

#: Bound on the per-system satisfying-id memo.  Entries are keyed by
#: constraint *instance* (predicates cannot be hashed semantically), so
#: a query stream minting equal-but-distinct constraints would otherwise
#: grow it forever; the cap turns that into LRU churn.
SAT_IDS_CAP = 256

#: Bound on the composed-prefix memo.  ``System.histories(max_length)``
#: sweeps touch a combinatorial number of prefixes; eviction only costs
#: re-gathering from the longest prefix still cached.
COMPOSED_CAP = 2048

#: Kernel selection vocabulary: ``auto`` picks the bulk kernel for
#: spaces of at least :data:`BITSET_AUTO_MIN_STATES` states and the
#: scalar kernel below (tiny systems are faster scalar, and keep their
#: historical ``compiled`` provenance).
KERNEL_MODES = ("auto", "scalar", "bitset")
BITSET_AUTO_MIN_STATES = 64

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISSING = object()


class CompiledKernel:
    """The pure-integer tables of a finite system.

    Holds no ``State``/``Operation``/lambda references.  All methods
    speak state ids and encoded pair ints only.
    """

    __slots__ = ("n", "names", "sizes", "strides", "columns", "op_names", "successors")

    def __init__(
        self,
        n: int,
        names: tuple[str, ...],
        sizes: tuple[int, ...],
        strides: tuple[int, ...],
        columns: tuple[array, ...],
        op_names: tuple[str, ...],
        successors: tuple[array, ...],
    ) -> None:
        self.n = n
        self.names = names
        self.sizes = sizes
        self.strides = strides
        self.columns = columns
        self.op_names = op_names
        self.successors = successors

    # -- Def 1-1 partitions ---------------------------------------------------

    def buckets(
        self,
        source_indices: Sequence[int],
        sat_ids: Iterable[int] | None = None,
    ) -> dict[int, list[int]]:
        """Partition ``sat_ids`` (default: all states) into classes equal
        except at the source objects (Def 1-1), keyed by the id with the
        source coordinates zeroed.  Bucket members are ascending, and
        buckets appear in first-seen (enumeration) order — identical to
        the ``State``-level partition, so BFS seeding order matches."""
        ids: Iterable[int] = range(self.n) if sat_ids is None else sat_ids
        src = [(self.strides[k], self.sizes[k]) for k in source_indices]
        groups: dict[int, list[int]] = {}
        for i in ids:
            rest = i
            for stride, size in src:
                rest -= ((i // stride) % size) * stride
            group = groups.get(rest)
            if group is None:
                groups[rest] = [i]
            else:
                group.append(i)
        return groups

    # -- the BFS kernel -------------------------------------------------------

    def closure(
        self,
        source_indices: Sequence[int],
        sat_ids: Iterable[int] | None = None,
        meter: BudgetMeter | None = None,
        stats: dict[str, int] | None = None,
    ) -> tuple[array, array]:
        """The reachable canonical-pair set for ``(A, phi)``.

        Returns ``(order, parents)``: ``order`` is an ``array('L')`` of
        encoded pairs ``i * n + j`` (``i < j``) in BFS layer order, and
        ``parents`` an order-aligned ``array('q')`` whose entry ``p``
        packs the predecessor of ``order[p]`` as
        ``parent_position * len(ops) + op_index`` (or :data:`INITIAL` for
        Def 2-8 seeds).  Pure int arithmetic, no object hashing.

        Diagonal pairs (two equal components) are pruned: they differ
        nowhere, and equal states have equal successors, so no stopping
        test is ever reachable through one — skipping them is sound and
        trims every converging edge of the graph.

        With a ``meter`` (see :class:`~repro.core.budget.BudgetMeter`)
        the BFS checks its budget once after seeding and then every
        ``meter.interval`` expansions, raising
        :class:`~repro.core.budget.BudgetExceededError` with the partial
        counts.  With a ``stats`` dict (passed only when telemetry is
        enabled) the loop writes ``expansions`` / ``discovered`` /
        ``frontier_high_water`` into it; the frontier is sampled at each
        check (every ``meter.interval`` expansions, or every
        :data:`~repro.core.budget.CHECK_INTERVAL` when ungoverned), so
        the high-water mark is a sampled lower bound.  An ungoverned,
        untraced run sets the next check to a sentinel it never reaches,
        so one loop serves every case.
        """
        n = self.n
        successors = self.successors
        n_ops = len(successors) or 1
        # Visited set and parent pointers in one dict: insertion order is
        # BFS order, so its values come out aligned with ``order``.
        parents: dict[int, int] = {}
        seed: deque[int] = deque()
        for bucket in self.buckets(source_indices, sat_ids).values():
            m = len(bucket)
            for a in range(m - 1):
                base = bucket[a] * n
                for b in range(a + 1, m):
                    pair = base + bucket[b]
                    if pair not in parents:
                        parents[pair] = INITIAL
                        seed.append(pair)
        # The order list doubles as the BFS queue (a cursor walks it);
        # every visited pair stays in it, in layer order.
        order = list(seed)
        record = order.append
        cursor = 0
        max_frontier = len(order)
        # Amortized checks: a zero-expansion budget trips before the
        # first pair is expanded.
        if meter is not None:
            meter.check(0, len(parents), len(order))
            interval = meter.interval
        elif stats is not None:
            interval = CHECK_INTERVAL
        else:
            interval = sys.maxsize
        next_check = interval
        try:
            while cursor < len(order):
                if cursor >= next_check:
                    frontier = len(order) - cursor
                    if frontier > max_frontier:
                        max_frontier = frontier
                    if meter is not None:
                        meter.check(cursor, len(parents), frontier)
                    next_check = cursor + interval
                i, j = divmod(order[cursor], n)
                # `packed` runs through cursor*n_ops + d as d walks the
                # operations, so the parent pointer is one add per edge.
                packed = cursor * n_ops
                cursor += 1
                for successor in successors:
                    si = successor[i]
                    sj = successor[j]
                    if si != sj:
                        succ_pair = si * n + sj if si < sj else sj * n + si
                        # Explicit containment, NOT `setdefault(...) is
                        # packed`: identity of equal ints beyond the small
                        # cache is a CPython detail, and a value-interning
                        # runtime would re-record visited pairs.
                        if succ_pair not in parents:
                            parents[succ_pair] = packed
                            record(succ_pair)
                    packed += 1
        finally:
            if stats is not None:
                stats["expansions"] = cursor
                stats["discovered"] = len(parents)
                stats["frontier_high_water"] = max_frontier
        # Through a list: array() fills from a list in one pass, but
        # grows item by item from a dict view (~1.5x slower here).
        return array("L", order), array("q", list(parents.values()))


class CompiledSystem:
    """A :class:`~repro.core.system.System` compiled to integer tables.

    Adopts the system's successor tables
    (:meth:`~repro.core.system.System.successor_tables`, tabulated from
    value columns for structured operations and once per state for the
    rest) and serves every pair-graph question from :attr:`kernel`.
    ``State`` objects appear only when an id is decoded at the API
    boundary (:meth:`state`); :attr:`states` materializes all of them
    only for callers that ask.
    """

    __slots__ = ("system", "kernel", "_states", "_bitset", "_lock", "_sat_ids", "_composed")

    def __init__(self, system: System) -> None:
        self.system = system
        index = system.space.index
        self.kernel = CompiledKernel(
            index.n,
            index.names,
            index.sizes,
            index.strides,
            tuple(index.code_column(k) for k in range(len(index.names))),
            tuple(op.name for op in system.operations),
            system.successor_tables(),
        )
        self._states: tuple[State, ...] | None = None
        self._bitset: bitset.BitsetKernel | None = None
        self._lock = threading.Lock()
        self._sat_ids = LRUCache(SAT_IDS_CAP, "kernel.sat_ids.evictions")
        self._composed = LRUCache(COMPOSED_CAP, "kernel.history_compose.evictions")

    @property
    def states(self) -> tuple[State, ...]:
        """Every state, indexed by id (built on first use)."""
        if self._states is None:
            self._states = tuple(self.system.space.states())
        return self._states

    def state(self, i: int) -> State:
        """The state with id ``i``, decoded arithmetically."""
        return self.system.space.index.state(i)

    def bitset_kernel(self) -> bitset.BitsetKernel:
        """The bulk (bitset/NumPy) twin of :attr:`kernel`, built once
        (lazy — scalar-only engines never pay for the table copies)."""
        if self._bitset is None:
            built = bitset.BitsetKernel(self.kernel)
            with self._lock:
                if self._bitset is None:
                    self._bitset = built
        return self._bitset

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Size/capacity/eviction stats of the kernel-side bounded memos
        — surfaced through ``DependencyEngine.cache_stats()``."""
        with self._lock:
            return {
                "composed": self._composed.stats(),
                "sat_ids": self._sat_ids.stats(),
            }

    # -- constraints ----------------------------------------------------------

    def sat_ids(self, constraint: Constraint | None) -> array | None:
        """The satisfying state ids of ``constraint`` in ascending order,
        or ``None`` for the unconstrained (full-space) fast path.

        Keyed by the *resolved* constraint identity, following the
        engine's ``_flow_key`` convention: any constraint the whole
        space satisfies resolves to ``None`` — the shared fast path —
        so semantically-trivial instances stop minting per-instance
        ``range(n)`` copies.  Distinct non-trivial instances still get
        separate entries (predicates cannot be compared semantically
        without enumerating them), but the memo is now a bounded LRU
        (:data:`SAT_IDS_CAP`) instead of growing with the query stream.
        """
        if constraint is None:
            return None
        with self._lock:
            cached = self._sat_ids.get(constraint, _MISSING)
        if cached is not _MISSING:
            return cached
        equalities = constraint.equalities
        if equalities is not None:
            value = self._equality_ids(equalities)
        else:
            sat = constraint.satisfying
            if len(sat) == self.kernel.n:
                value = None
            else:
                id_of = self.system.space.index.id_of
                value = array("L", sorted(id_of(state) for state in sat))
        with self._lock:
            return self._sat_ids.put(constraint, value)

    def _equality_ids(
        self, equalities: tuple[tuple[str, Value], ...]
    ) -> array | None:
        """The ascending ids of the states meeting every ``name == value``
        equality, read off the domains: each object keeps the codes whose
        value passes the predicate's own ``bool(value == wanted)``, and
        the ids are the mixed-radix product of the kept codes."""
        index = self.system.space.index
        kept = [list(range(size)) for size in index.sizes]
        for name, wanted in equalities:
            k = index.position[name]
            domain = index.domains[k]
            kept[k] = [code for code in kept[k] if domain[code] == wanted]
        if all(len(codes) == size for codes, size in zip(kept, index.sizes)):
            return None
        ids = [0]
        for codes, stride in zip(kept, index.strides):
            ids = [base + code * stride for base in ids for code in codes]
        return array("L", ids)

    # -- fixed histories ------------------------------------------------------

    def history_array(self, steps: Sequence[int | Operation]) -> array:
        """The composed successor array of a fixed history.

        For ``H = delta_1 ... delta_k``, returns ``comp`` with
        ``comp[i] = id(H(state_i))`` — one flat ``array('L')`` built by
        index-gather composition, so evaluating ``H`` over any subset of
        the space is pure integer loads.  The empty history is the
        identity permutation.  Each step is an index into
        :attr:`CompiledKernel.successors` (one of the system's own
        operations) or any other :class:`~repro.core.system.Operation`
        — an :meth:`~repro.core.system.Operation.then` composite, a
        lambda, another system's operation — which is tabulated over
        the space once by :func:`~repro.core.system.tabulate` and then
        gathered like the rest.  An operation that leaves the space
        raises the :class:`~repro.core.errors.OperationError` that
        building a system from it would.

        Memoized per step tuple *including every prefix built along
        the way*: ``H`` and ``H' = H ; delta`` share all of ``H``'s work,
        which is what makes sweeps over ``System.histories(max_length)``
        linear in the number of histories rather than their total length.
        The memo is a bounded LRU (:data:`COMPOSED_CAP`): long sweeps
        churn the cold tail instead of growing without bound, and
        eviction stays correct for prefix reuse because composition
        always restarts from the *longest prefix still cached* (the
        identity if everything was evicted) — an evicted prefix only
        costs its gathers back, never a wrong array.  A key holds its
        operations, so an operation's identity cannot be reused while
        its entries are cached.
        """
        key = tuple(steps)
        with self._lock:
            cached = self._composed.get(key)
            if cached is not None:
                obs.count("kernel.history_compose.memo_hit")
                return cached
            identity = self._composed.get(())
            if identity is None:
                identity = self._composed.put(
                    (), array("L", range(self.kernel.n))
                )
            # Longest already-composed prefix, then extend one gather at
            # a time (each written back, refreshing its recency).
            prefix = len(key)
            base = None
            while prefix > 0:
                base = self._composed.get(key[:prefix])
                if base is not None:
                    break
                prefix -= 1
            if base is None:
                base = identity
                prefix = 0
        successors = self.kernel.successors
        for pos in range(prefix, len(key)):
            step = key[pos]
            if isinstance(step, Operation):
                # Its table is the composed array of the history (step,),
                # so it is tabulated once while that entry is cached.
                succ = self._composed.get((step,))
                if succ is None:
                    succ = self._composed.put(
                        (step,), tabulate(self.system.space, (step,))[0]
                    )
            else:
                succ = successors[step]
            base = array("L", (succ[i] for i in base))
            with self._lock:
                base = self._composed.put(key[: pos + 1], base)
        if len(key) > prefix:
            obs.count("kernel.history_compose.gathers", len(key) - prefix)
        return base

    # -- value decoding -------------------------------------------------------

    def value_column(self, name: str) -> tuple[array, tuple[Value, ...]]:
        """``(column, domain)`` for one object: ``domain[column[i]]`` is
        the value of ``name`` in ``state_i`` — value reads off ids with
        no ``State`` materialization."""
        k = self.kernel.names.index(name)
        return self.kernel.columns[k], self.system.space.domain(name)

    def value_columns(
        self, names: Iterable[str]
    ) -> tuple[tuple[array, tuple[Value, ...]], ...]:
        """:meth:`value_column` over several objects, in the given order."""
        return tuple(self.value_column(name) for name in names)

    def source_indices(self, sources: Iterable[str]) -> tuple[int, ...]:
        """Object names to column indices (ascending)."""
        position = {name: k for k, name in enumerate(self.kernel.names)}
        return tuple(sorted(position[name] for name in sources))

    def closure(
        self,
        sources: frozenset[str],
        constraint: Constraint | None = None,
        constraint_name: str = "tt",
        meter: BudgetMeter | None = None,
        mode: str = "scalar",
    ) -> "CompiledClosure":
        """Compute one canonical-pair closure.

        ``mode`` selects the kernel: ``"scalar"`` runs the per-pair loop
        above, ``"bitset"`` the bulk frontier kernel
        (:class:`~repro.core.bitset.BitsetKernel`).  Both produce the
        identical ``order``/parents sequence — the mode only changes how
        fast it is computed and is recorded as the closure's
        :attr:`~CompiledClosure.kernel_path` for provenance.
        """
        if mode == "bitset":
            runner = self.bitset_kernel().closure
            kernel_path = "compiled-bitset"
        else:
            runner = self.kernel.closure
            kernel_path = "compiled"
        if not obs.is_enabled():
            order, parents = runner(
                self.source_indices(sources), self.sat_ids(constraint), meter
            )
            return CompiledClosure(
                self, sources, constraint_name, order, parents, kernel_path
            )
        stats: dict[str, int] = {}
        with obs.span(
            "kernel.closure",
            sources=",".join(sorted(sources)),
            constraint=constraint_name,
            kernel=kernel_path,
        ):
            try:
                order, parents = runner(
                    self.source_indices(sources),
                    self.sat_ids(constraint),
                    meter,
                    stats,
                )
            finally:
                _emit_kernel_stats(stats)
        return CompiledClosure(
            self, sources, constraint_name, order, parents, kernel_path
        )


class CompiledClosure:
    """A canonical unordered-pair closure in integer form.

    ``order`` lists encoded pairs in BFS (shortest-path) order and
    ``parents`` is the order-aligned int64 array of parent pointers
    (``parent_position * n_ops + op``; an ``array('q')``, or the bitset
    kernel's NumPy vector), so every target — single or set-valued — is
    answered by integer column comparisons, and decoding to ``State``
    objects happens only when a witness is materialized.  Queries speak
    *order positions*: ``order[p]`` is the pair at position ``p``.
    """

    __slots__ = (
        "compiled",
        "sources",
        "constraint_name",
        "order",
        "parents",
        "kernel_path",
        "_first_diff",
    )

    def __init__(
        self,
        compiled: CompiledSystem,
        sources: frozenset[str],
        constraint_name: str,
        order: array,
        parents: Sequence[int],
        kernel_path: str = "compiled",
        first_diff: Mapping[str, int] | None = None,
    ) -> None:
        self.compiled = compiled
        self.sources = sources
        self.constraint_name = constraint_name
        self.order = order
        self.parents = parents
        self.kernel_path = kernel_path
        # A persistent-store row may carry the first-differing scan it
        # computed before persisting; adopting it here skips the
        # re-scan on warm starts.
        self._first_diff = dict(first_diff) if first_diff is not None else None

    def __len__(self) -> int:
        return len(self.order)

    # -- queries --------------------------------------------------------------

    def first_differing(self) -> Mapping[str, int]:
        """For each object name, the order position of the earliest
        reachable pair differing there (one integer sweep over the BFS
        order, cached).  A name absent from the mapping is one no
        reachable pair distinguishes.

        Large closures are scanned as vectorized column comparisons
        (:func:`repro.core.bitset.first_differing_scan`); small ones, or
        NumPy-less runs, fall through to the scalar sweep — same result
        either way."""
        if self._first_diff is None:
            kernel = self.compiled.kernel
            scanned = bitset.first_differing_scan(kernel, self.order)
            if scanned is not None:
                self._first_diff = scanned
                return self._first_diff
            n = kernel.n
            pending = list(zip(kernel.names, kernel.columns))
            first: dict[str, int] = {}
            for pos, pair in enumerate(self.order):
                i, j = divmod(pair, n)
                found = False
                for name, column in pending:
                    if column[i] != column[j]:
                        first[name] = pos
                        found = True
                if found:
                    pending = [nc for nc in pending if nc[0] not in first]
                    if not pending:
                        break
            self._first_diff = first
        return self._first_diff

    def touched_states(self) -> bytes:
        """The closure's *read set* as a little-endian state bitset: the
        ids appearing as a component of some reachable pair.  The BFS
        read each operation's successor table exactly at these ids, so a
        modified system whose changed entries avoid them replays this
        closure bit-identically — the provenance delta invalidation
        tests against, computed from ``order`` when a diff asks
        (docs/FORMALISM.md, "Persistent memoization")."""
        return bitset.touched_scan(self.compiled.kernel.n, self.order)

    def first_differing_at_all(self, targets: Iterable[str]) -> int | None:
        """The order position of the earliest reachable pair differing
        at *every* object of the target set (Def 5-5/5-7), or ``None``."""
        kernel = self.compiled.kernel
        first = self.first_differing()
        target_list = sorted(targets)
        if not all(t in first for t in target_list):
            return None
        handled, pos = bitset.first_differing_at_all_scan(
            kernel, self.order, target_list
        )
        if handled:
            return pos
        column_of = dict(zip(kernel.names, kernel.columns))
        cols = [column_of[t] for t in target_list]
        n = kernel.n
        for pos, pair in enumerate(self.order):
            i, j = divmod(pair, n)
            for column in cols:
                if column[i] == column[j]:
                    break
            else:
                return pos
        return None

    # -- decoding -------------------------------------------------------------

    def witness_path(
        self, pos: int
    ) -> tuple[tuple[str, ...], tuple[State, State]]:
        """The operation names leading from a Def 2-8 initial pair to the
        pair at order position ``pos``, plus that initial pair decoded to
        ``State`` objects."""
        kernel = self.compiled.kernel
        n_ops = len(kernel.op_names) or 1
        parents = self.parents
        ops: list[str] = []
        while True:
            packed = int(parents[pos])
            if packed < 0:
                break
            pos, d = divmod(packed, n_ops)
            ops.append(kernel.op_names[d])
        ops.reverse()
        return tuple(ops), self.decode_pair(self.order[pos])

    def decode_pair(self, pair: int) -> tuple[State, State]:
        """One encoded pair ``i * n + j`` as its two ``State`` objects."""
        i, j = divmod(pair, self.compiled.kernel.n)
        return (self.compiled.state(i), self.compiled.state(j))

    def pairs(self) -> Iterator[tuple[State, State]]:
        """Decode the whole closure in BFS order (API-boundary use only —
        this materializes the Python objects the kernel avoids)."""
        for pair in self.order:
            yield self.decode_pair(pair)


def _emit_kernel_stats(stats: dict[str, int]) -> None:
    """Publish one traced BFS run's counters.  ``stats`` may be partial
    when the budget tripped mid-sweep — only the keys the kernel managed
    to write are emitted.  ``levels`` is written by the bulk kernel
    only (the scalar loop has no level barrier to count)."""
    if "expansions" in stats:
        obs.count("kernel.pair_expansions", stats["expansions"])
    if "discovered" in stats:
        obs.count("kernel.pairs_discovered", stats["discovered"])
    if "frontier_high_water" in stats:
        obs.gauge_max("kernel.frontier_high_water", stats["frontier_high_water"])
    if "levels" in stats:
        obs.count("kernel.bitset.levels", stats["levels"])
