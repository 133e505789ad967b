"""Compiled quantitative substrate: section 7.4 measures on state ids.

The object path (:mod:`repro.quantitative.channel`,
:mod:`repro.quantitative.bandwidth`) replays ``history(state)`` once per
(input, state) pair over ``State`` dicts.  This module reruns the same
exact arithmetic on the compiled integer kernel (PR 2/3):

- :class:`CompiledDistribution` — exact probabilities as parallel
  ``sat_ids``/weight arrays; uniform-over-phi comes straight from
  :meth:`CompiledSystem.sat_ids`.
- push-forward is one index-gather through the composed successor array
  (``comp[i] = id(H(state_i))``), memoized per history by
  :meth:`CompiledSystem.history_array`.
- marginals and joints read off the kernel's per-object value columns
  (``domain[column[i]]``) — no ``State`` is materialized.
- the averaged measure is one bucket-grouped pass over the Def 1-1
  partition (conditioning on "everything outside A held at z" *is*
  membership in one bucket), replacing the O(|support|^2) per-z-slice
  ``condition(lambda ...)`` loop.
- the channel layer is batched: every channel input is an additive
  stride offset on the source-zeroed "rest part" of a support id, so one
  composed sweep serves the whole matrix, and ``capacity_table`` shares
  one composed table across every (source, target) pair.

Every measure is *exact* (``Fraction`` tables, floats only inside
``log2`` — the same boundary the object path draws), falls back to the
object path on :class:`~repro.core.errors.ForeignOperationError` (ad-hoc
composite operations the kernel has no successor column for), honours
:class:`~repro.core.budget.ExecutionBudget` metering (a trip raises with
a ``PartialResult`` — bits are UNKNOWN, never a wrong number), and emits
``quant.*`` telemetry.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from repro import obs
from repro.core.budget import BudgetMeter, ExecutionBudget
from repro.core.compiled import CompiledSystem
from repro.core.constraints import Constraint
from repro.core.engine import DependencyEngine, shared_engine
from repro.core.errors import DistributionError, ForeignOperationError
from repro.core.state import Value
from repro.core.system import History, Operation, System
from repro.quantitative import bandwidth as _bandwidth
from repro.quantitative import channel as _channel
from repro.quantitative.bandwidth import blahut_arimoto
from repro.quantitative.distributions import StateDistribution
from repro.quantitative.entropy import entropy, mutual_information


def _counts_mutual_information(
    counts: dict[tuple[object, object], int], total: int
) -> float:
    """``I(X; Y)`` from integer joint counts summing to ``total``.

    For a uniform slice every mass is ``c / total``, so each entropy is
    ``log2(total) - sum(c * log2(c)) / total`` on plain integers — no
    ``Fraction`` arithmetic at all.  Used only where the caller compares
    with tolerance (the averaged measure's per-slice terms); the
    single-joint measures keep the exact-table path so their floats stay
    bit-identical to the object path's.
    """
    xs: dict[object, int] = {}
    ys: dict[object, int] = {}
    for (x, y), c in counts.items():
        xs[x] = xs.get(x, 0) + c
        ys[y] = ys.get(y, 0) + c
    log2 = math.log2

    def h(tab: dict) -> float:
        return log2(total) - sum(c * log2(c) for c in tab.values()) / total

    value = h(xs) + h(ys) - h(counts)
    return value if value > 0.0 else 0.0


class CompiledDistribution:
    """An exact distribution over dense state ids.

    ``ids`` (ascending) and ``weights`` are parallel: ``weights[k]`` is
    the probability of ``state_{ids[k]}`` as a ``Fraction``.  The
    constraint a uniform distribution was built over is retained so the
    bucket sweeps can reuse the engine's memoized Def 1-1 partition
    for the same ``sat(phi)``.
    """

    __slots__ = ("compiled", "ids", "weights", "constraint", "uniform")

    def __init__(
        self,
        compiled: CompiledSystem,
        ids: Sequence[int],
        weights: Sequence[Fraction],
        constraint: Constraint | None = None,
        uniform: bool = False,
    ) -> None:
        if len(ids) != len(weights):
            raise DistributionError("ids and weights must be parallel")
        self.compiled = compiled
        self.ids = ids
        self.weights = weights
        self.constraint = constraint
        self.uniform = uniform

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def space_names(self) -> tuple[str, ...]:
        return self.compiled.kernel.names

    @classmethod
    def uniform_over(
        cls, compiled: CompiledSystem, constraint: Constraint | None = None
    ) -> "CompiledDistribution":
        """Equal probability over sat(phi), straight from the kernel's
        satisfying-id memo (``None`` = the whole space)."""
        sat = compiled.sat_ids(constraint)
        ids: Sequence[int] = range(compiled.kernel.n) if sat is None else sat
        if len(ids) == 0:
            raise DistributionError(
                "uniform distribution over an unsatisfiable constraint"
            )
        p = Fraction(1, len(ids))
        return cls(
            compiled, ids, [p] * len(ids), constraint=constraint, uniform=True
        )

    @classmethod
    def from_state_distribution(
        cls, compiled: CompiledSystem, dist: StateDistribution
    ) -> "CompiledDistribution":
        """Encode an object-path distribution (support states -> ids)."""
        index = {state: i for i, state in enumerate(compiled.states)}
        pairs = sorted((index[s], p) for s, p in dist.items())
        ids = array("L", (i for i, _ in pairs))
        return cls(compiled, ids, [p for _, p in pairs])

    def to_state_distribution(self) -> StateDistribution:
        """Decode back to the object path (the fallback boundary)."""
        states = self.compiled.states
        return StateDistribution(
            self.compiled.system.space,
            {states[i]: w for i, w in zip(self.ids, self.weights)},
        )

    def push_forward(self, comp: Sequence[int]) -> "CompiledDistribution":
        """``[H]pr`` through a composed successor array — one gather."""
        out: dict[int, Fraction] = {}
        for i, w in zip(self.ids, self.weights):
            j = comp[i]
            prev = out.get(j)
            out[j] = w if prev is None else prev + w
        ids = array("L", sorted(out))
        return CompiledDistribution(
            self.compiled, ids, [out[i] for i in ids]
        )


class QuantEngine:
    """Section 7.4 / 1.8 measures over one system's compiled kernel.

    Binds to a :class:`~repro.core.engine.DependencyEngine` (the
    process-shared one by default) so composed successor arrays and
    Def 1-1 buckets are shared with the qualitative provers.  Histories containing operations that are not
    the system's own fall back to the object path (counted as
    ``quant.fallback_object``), so every method accepts exactly what the
    object functions accept.
    """

    def __init__(
        self,
        system: System | None = None,
        engine: DependencyEngine | None = None,
        budget: ExecutionBudget | None = None,
    ) -> None:
        if engine is None:
            if system is None:
                raise ValueError("QuantEngine needs a system or an engine")
            engine = shared_engine(system)
        self.engine = engine
        self.system = engine.system
        self.budget = budget

    # -- distribution plumbing ------------------------------------------------

    def uniform(
        self, constraint: Constraint | None = None
    ) -> CompiledDistribution:
        return CompiledDistribution.uniform_over(
            self.engine.compiled_system(), constraint
        )

    def _as_compiled(self, dist) -> CompiledDistribution:
        if isinstance(dist, CompiledDistribution):
            return dist
        return CompiledDistribution.from_state_distribution(
            self.engine.compiled_system(), dist
        )

    @staticmethod
    def _as_object(dist) -> StateDistribution:
        if isinstance(dist, CompiledDistribution):
            return dist.to_state_distribution()
        return dist

    def push_forward(
        self, dist, history: History | Operation
    ) -> CompiledDistribution:
        """``[H]pr`` as one index-gather (falls back to per-state replay
        only for foreign operations)."""
        try:
            indices = self.engine.history_indices(history)
        except ForeignOperationError:
            obs.count("quant.fallback_object")
            pushed = self._as_object(dist).push_forward(
                self._coerce_history(history)
            )
            return self._as_compiled(pushed)
        comp = self.engine.compiled_system().history_array(indices)
        return self._as_compiled(dist).push_forward(comp)

    @staticmethod
    def _coerce_history(history: History | Operation) -> History:
        if isinstance(history, Operation):
            return History.of(history)
        return history

    def _meter(
        self, budget: ExecutionBudget | None, label: str
    ) -> BudgetMeter | None:
        budget = budget if budget is not None else self.budget
        if budget is None or not budget.bounded:
            return None
        return budget.start(label)

    # -- marginals / joints on value columns ----------------------------------

    def _joint_initial_final(
        self,
        cdist: CompiledDistribution,
        comp: Sequence[int],
        source_names: Sequence[str],
        target: str,
        meter: BudgetMeter | None,
    ) -> dict[tuple[object, object], Fraction]:
        """Joint table of the initial source tuple against the final
        target value — same keys and the same exact ``Fraction`` masses
        as the object path's ``_joint_initial_final``."""
        compiled = self.engine.compiled_system()
        cols = compiled.value_columns(source_names)
        tcol, tdom = compiled.value_column(target)
        scanned = 0
        next_check = 0
        if cdist.uniform:
            # Equal weights: tally integer counts and normalize once.
            # Fraction(c, n) is the same exact value as c summed copies
            # of Fraction(1, n), so the table is bit-identical to the
            # object path's — only built with |keys| constructions
            # instead of |support| additions.
            n = len(cdist)
            counts: dict[tuple[object, object], int] = {}
            for i in cdist.ids:
                if meter is not None and scanned >= next_check:
                    meter.check(scanned, scanned)
                    next_check = scanned + meter.interval
                scanned += 1
                key = (
                    tuple(dom[col[i]] for col, dom in cols),
                    tdom[tcol[comp[i]]],
                )
                counts[key] = counts.get(key, 0) + 1
            obs.count("quant.states_scanned", scanned)
            return {key: Fraction(c, n) for key, c in counts.items()}
        out: dict[tuple[object, object], Fraction] = {}
        for i, w in zip(cdist.ids, cdist.weights):
            if meter is not None and scanned >= next_check:
                meter.check(scanned, scanned)
                next_check = scanned + meter.interval
            scanned += 1
            key = (
                tuple(dom[col[i]] for col, dom in cols),
                tdom[tcol[comp[i]]],
            )
            prev = out.get(key)
            out[key] = w if prev is None else prev + w
        obs.count("quant.states_scanned", scanned)
        return out

    def _source_marginal(
        self, cdist: CompiledDistribution, source_names: Sequence[str]
    ) -> dict[object, Fraction]:
        compiled = self.engine.compiled_system()
        cols = compiled.value_columns(source_names)
        if cdist.uniform:
            n = len(cdist)
            counts: dict[object, int] = {}
            for i in cdist.ids:
                key = tuple(dom[col[i]] for col, dom in cols)
                counts[key] = counts.get(key, 0) + 1
            return {key: Fraction(c, n) for key, c in counts.items()}
        out: dict[object, Fraction] = {}
        for i, w in zip(cdist.ids, cdist.weights):
            key = tuple(dom[col[i]] for col, dom in cols)
            prev = out.get(key)
            out[key] = w if prev is None else prev + w
        return out

    # -- fixed-input measures (section 7.4) -----------------------------------

    def source_entropy(self, dist, sources: Iterable[str]) -> float:
        """Initial entropy of the source tuple, in bits."""
        source_names = sorted(frozenset(sources))
        return entropy(
            self._source_marginal(self._as_compiled(dist), source_names)
        )

    def bits_transmitted(
        self,
        dist,
        sources: Iterable[str],
        target: str,
        history: History | Operation,
        budget: ExecutionBudget | None = None,
    ) -> float:
        """The equivocation measure ``I(A_initial ; target_final)``."""
        source_names = sorted(frozenset(sources))
        try:
            indices = self.engine.history_indices(history)
        except ForeignOperationError:
            obs.count("quant.fallback_object")
            return _channel.bits_transmitted(
                self._as_object(dist),
                source_names,
                target,
                self._coerce_history(history),
            )
        cdist = self._as_compiled(dist)
        with obs.span(
            "quant.measure",
            kind="bits_transmitted",
            sources=",".join(source_names),
            target=target,
        ):
            meter = self._meter(
                budget, f"quantify bits A={source_names} |H|={len(indices)}"
            )
            if meter is not None:
                meter.check(0, 0)
            comp = self.engine.compiled_system().history_array(indices)
            joint = self._joint_initial_final(
                cdist, comp, source_names, target, meter
            )
            return mutual_information(joint)

    def equivocation(
        self,
        dist,
        sources: Iterable[str],
        target: str,
        history: History | Operation,
        budget: ExecutionBudget | None = None,
    ) -> float:
        """``H(A_initial | target_final)`` — source entropy minus bits."""
        return self.source_entropy(dist, sources) - self.bits_transmitted(
            dist, sources, target, history, budget
        )

    def _slices(
        self, cdist: CompiledDistribution, source_names: Sequence[str]
    ) -> Iterator[tuple[Fraction, list[tuple[int, Fraction]]]]:
        """The conditional slices of the averaged measure as
        ``(mass, [(id, normalized weight), ...])`` groups.

        A slice — "everything outside A held at z" — is exactly one
        Def 1-1 bucket of the partition for source set A, so the uniform
        case reuses the engine's memoized partition (the very
        buckets the history sweep builds).  Non-uniform supports group
        by the same source-zeroed rest id arithmetically.
        """
        if cdist.uniform:
            n = len(cdist)
            buckets = self.engine.def11_buckets(
                source_names, cdist.constraint
            )
            for bucket in buckets:
                share = Fraction(1, len(bucket))
                yield Fraction(len(bucket), n), [(i, share) for i in bucket]
            return
        kernel = self.engine.compiled_system().kernel
        src = [
            (kernel.strides[k], kernel.sizes[k])
            for k in self.engine.compiled_system().source_indices(source_names)
        ]
        groups: dict[int, list[tuple[int, Fraction]]] = {}
        for i, w in zip(cdist.ids, cdist.weights):
            rest = i
            for stride, size in src:
                rest -= ((i // stride) % size) * stride
            groups.setdefault(rest, []).append((i, w))
        for members in groups.values():
            mass = sum((w for _, w in members), Fraction(0))
            yield mass, [(i, w / mass) for i, w in members]

    def bits_transmitted_averaged(
        self,
        dist,
        sources: Iterable[str],
        target: str,
        history: History | Operation,
        budget: ExecutionBudget | None = None,
    ) -> float:
        """The averaged measure ``I(A_init ; target_final | rest_init)``
        in one bucket-grouped pass: each Def 1-1 bucket *is* one z-slice,
        contributing its bucket-mass-weighted per-slice MI."""
        source_names = sorted(frozenset(sources))
        try:
            indices = self.engine.history_indices(history)
        except ForeignOperationError:
            obs.count("quant.fallback_object")
            return _channel.bits_transmitted_averaged(
                self._as_object(dist),
                source_names,
                target,
                self._coerce_history(history),
            )
        cdist = self._as_compiled(dist)
        rest = frozenset(cdist.space_names) - frozenset(source_names)
        if not rest:
            return self.bits_transmitted(
                cdist, source_names, target, history, budget
            )
        compiled = self.engine.compiled_system()
        with obs.span(
            "quant.measure",
            kind="averaged",
            sources=",".join(source_names),
            target=target,
        ):
            meter = self._meter(
                budget,
                f"quantify averaged A={source_names} |H|={len(indices)}",
            )
            if meter is not None:
                meter.check(0, 0)
            comp = compiled.history_array(indices)
            cols = compiled.value_columns(source_names)
            tcol, tdom = compiled.value_column(target)
            total = 0.0
            scanned = 0
            n_slices = 0
            if cdist.uniform:
                # Every slice is uniform over its bucket, so the joint
                # is a pure count table — per-slice MI on integers.
                n = len(cdist)
                buckets = self.engine.def11_buckets(
                    source_names, cdist.constraint
                )
                for bucket in buckets:
                    if meter is not None:
                        meter.check(scanned, scanned)
                    counts: dict[tuple[object, object], int] = {}
                    for i in bucket:
                        key = (
                            tuple(dom[col[i]] for col, dom in cols),
                            tdom[tcol[comp[i]]],
                        )
                        counts[key] = counts.get(key, 0) + 1
                    size = len(bucket)
                    scanned += size
                    n_slices += 1
                    total += (size / n) * _counts_mutual_information(
                        counts, size
                    )
                obs.count("quant.states_scanned", scanned)
                obs.count("quant.buckets_scanned", n_slices)
                return max(total, 0.0)
            for mass, members in self._slices(cdist, source_names):
                if meter is not None:
                    meter.check(scanned, scanned)
                joint: dict[tuple[object, object], Fraction] = {}
                for i, share in members:
                    key = (
                        tuple(dom[col[i]] for col, dom in cols),
                        tdom[tcol[comp[i]]],
                    )
                    prev = joint.get(key)
                    joint[key] = share if prev is None else prev + share
                scanned += len(members)
                n_slices += 1
                total += float(mass) * mutual_information(joint)
            obs.count("quant.states_scanned", scanned)
            obs.count("quant.buckets_scanned", n_slices)
            return max(total, 0.0)

    def interference(
        self,
        dist,
        a1: Iterable[str],
        a2: Iterable[str],
        target: str,
        history: History | Operation,
        budget: ExecutionBudget | None = None,
    ) -> float:
        """``b(A1) + b(A2) - b(A1 u A2)`` under the equivocation measure
        (negative = contingent transmission, as in the mod-sum example)."""
        b1 = self.bits_transmitted(dist, a1, target, history, budget)
        b2 = self.bits_transmitted(dist, a2, target, history, budget)
        union = frozenset(a1) | frozenset(a2)
        b12 = self.bits_transmitted(dist, union, target, history, budget)
        return b1 + b2 - b12

    def capacity_table(
        self,
        dist,
        history: History | Operation,
        targets: Iterable[str] | None = None,
        budget: ExecutionBudget | None = None,
    ) -> dict[tuple[str, str], float]:
        """Equivocation-measure bits for every (singleton source, target)
        pair, sharing ONE composed table and one support sweep per
        source across all targets — the batched analogue of the nested
        object loop."""
        try:
            indices = self.engine.history_indices(history)
        except ForeignOperationError:
            obs.count("quant.fallback_object")
            return _channel.capacity_table(
                self._as_object(dist),
                self._coerce_history(history),
                targets,
            )
        cdist = self._as_compiled(dist)
        compiled = self.engine.compiled_system()
        names = compiled.kernel.names
        target_list = tuple(targets) if targets is not None else names
        with obs.span("quant.measure", kind="capacity_table"):
            meter = self._meter(
                budget, f"quantify table |H|={len(indices)}"
            )
            if meter is not None:
                meter.check(0, 0)
            comp = compiled.history_array(indices)
            tcols = [(t, compiled.value_column(t)) for t in target_list]
            out: dict[tuple[str, str], float] = {}
            scanned = 0
            next_check = 0
            n = len(cdist)
            for source in names:
                scol, sdom = compiled.value_column(source)
                if cdist.uniform:
                    # Tally counts, normalize once (same exact table).
                    tallies: dict[str, dict[tuple[object, object], int]] = {
                        t: {} for t in target_list
                    }
                    for i in cdist.ids:
                        if meter is not None and scanned >= next_check:
                            meter.check(scanned, scanned)
                            next_check = scanned + meter.interval
                        scanned += 1
                        sval = (sdom[scol[i]],)
                        fi = comp[i]
                        for t, (tcol, tdom) in tcols:
                            key = (sval, tdom[tcol[fi]])
                            jt = tallies[t]
                            jt[key] = jt.get(key, 0) + 1
                    for t in target_list:
                        out[(source, t)] = mutual_information(
                            {k: Fraction(c, n) for k, c in tallies[t].items()}
                        )
                    continue
                joints: dict[str, dict[tuple[object, object], Fraction]] = {
                    t: {} for t in target_list
                }
                for i, w in zip(cdist.ids, cdist.weights):
                    if meter is not None and scanned >= next_check:
                        meter.check(scanned, scanned)
                        next_check = scanned + meter.interval
                    scanned += 1
                    sval = (sdom[scol[i]],)
                    fi = comp[i]
                    for t, (tcol, tdom) in tcols:
                        key = (sval, tdom[tcol[fi]])
                        jt = joints[t]
                        prev = jt.get(key)
                        jt[key] = w if prev is None else prev + w
                for t in target_list:
                    out[(source, t)] = mutual_information(joints[t])
            obs.count("quant.states_scanned", scanned)
            return out

    # -- the channel layer (section 1.8) --------------------------------------

    def channel_matrix(
        self,
        rest_distribution,
        sources: Iterable[str],
        target: str,
        history: History | Operation,
        budget: ExecutionBudget | None = None,
    ) -> tuple[list[tuple[Value, ...]], list[Value], list[list[float]]]:
        """The induced discrete channel, from ONE composed-history sweep.

        Each channel input is an additive offset ``sum(code_k * stride_k)``
        on the source-zeroed rest part of a support id, so forcing the
        source cells is integer addition — no ``state.replace`` and no
        per-input replay.  Same ``(inputs, outputs, matrix)`` contract as
        the object path.
        """
        source_names = sorted(frozenset(sources))
        try:
            indices = self.engine.history_indices(history)
        except ForeignOperationError:
            obs.count("quant.fallback_object")
            return _bandwidth.channel_matrix(
                self._as_object(rest_distribution),
                source_names,
                target,
                self._coerce_history(history),
            )
        cdist = self._as_compiled(rest_distribution)
        compiled = self.engine.compiled_system()
        kernel = compiled.kernel
        space = compiled.system.space
        with obs.span(
            "quant.channel_matrix",
            sources=",".join(source_names),
            target=target,
        ):
            meter = self._meter(
                budget,
                f"quantify channel A={source_names} |H|={len(indices)}",
            )
            if meter is not None:
                meter.check(0, 0)
            comp = compiled.history_array(indices)
            tcol, tdom = compiled.value_column(target)
            position = {name: k for k, name in enumerate(kernel.names)}
            src = [
                (kernel.strides[position[name]], kernel.sizes[position[name]])
                for name in source_names
            ]
            # Marginalize onto the source-zeroed rest part first: every
            # support id with the same rest assignment lands on the same
            # part, so each input's sweep touches |rest support| ids, not
            # |support|.  Uniform supports keep integer multiplicities
            # (exact: Fraction(c, total) == c summed copies of 1/n after
            # normalization); weighted supports accumulate Fractions
            # once, shared across every input.
            rest_mass: dict[int, object] = {}
            if cdist.uniform:
                for i in cdist.ids:
                    rest = i
                    for stride, size in src:
                        rest -= ((i // stride) % size) * stride
                    rest_mass[rest] = rest_mass.get(rest, 0) + 1
            else:
                for i, w in zip(cdist.ids, cdist.weights):
                    rest = i
                    for stride, size in src:
                        rest -= ((i // stride) % size) * stride
                    prev = rest_mass.get(rest)
                    rest_mass[rest] = w if prev is None else prev + w
            rest_items = list(rest_mass.items())
            # Each source value is an additive stride offset (value
            # domain order, matching the object path's product order).
            per_source = [
                [
                    (value, idx * kernel.strides[position[name]])
                    for idx, value in enumerate(space.domain(name))
                ]
                for name in source_names
            ]
            inputs: list[tuple[Value, ...]] = []
            row_tables: list[dict[Value, Fraction]] = []
            outputs_seen: dict[Value, None] = {}
            scanned = 0
            for combo in itertools.product(*per_source):
                if meter is not None:
                    meter.check(scanned, scanned)
                offset = sum(off for _, off in combo)
                inputs.append(tuple(value for value, _ in combo))
                row: dict[Value, object] = {}
                for rp, mass in rest_items:
                    observation = tdom[tcol[comp[rp + offset]]]
                    prev = row.get(observation)
                    row[observation] = mass if prev is None else prev + mass
                scanned += len(rest_items)
                total = sum(row.values())
                if total == 0:
                    raise DistributionError("empty conditional distribution")
                row = {o: Fraction(p, total) for o, p in row.items()}
                row_tables.append(row)
                for o in row:
                    outputs_seen.setdefault(o)
            outputs = list(outputs_seen)
            matrix = [
                [float(row.get(o, Fraction(0))) for o in outputs]
                for row in row_tables
            ]
            obs.count("quant.states_scanned", scanned)
        return inputs, outputs, matrix

    def capacity(
        self,
        rest_distribution,
        sources: Iterable[str],
        target: str,
        history: History | Operation,
        tolerance: float = 1e-9,
        max_iterations: int = 10_000,
        budget: ExecutionBudget | None = None,
    ) -> float:
        """Shannon capacity of the induced channel via Blahut-Arimoto
        (vectorized when NumPy is available; see
        :func:`repro.quantitative.bandwidth.blahut_arimoto`)."""
        _inputs, _outputs, matrix = self.channel_matrix(
            rest_distribution, sources, target, history, budget
        )
        with obs.span("quant.capacity", target=target):
            return blahut_arimoto(matrix, tolerance, max_iterations)
