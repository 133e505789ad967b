"""One-call system audit: everything the formalism can say, structured.

:func:`audit_system` is the "just tell me about my system" entry point a
downstream user reaches for first: it classifies the constraint,
checks invariance, computes the exact flow matrix, evaluates a policy
(forbidden paths), and reports which proof technique certifies each
absent path.  The result renders as text via :meth:`AuditReport.describe`.

Under an :class:`~repro.core.budget.ExecutionBudget` the audit *degrades*
instead of aborting: a row whose pair-graph closure exhausts its budget
falls back to the one-step flow relation — an **under-approximation** of
``|>_phi`` (a one-step flow is a length-1 witness, so ``flows=True`` from
it is exact; its absence proves nothing) — and rows the fallback cannot
decide carry verdict ``"unknown"``.  A report with unknown *forbidden*
rows is not ``ok``: absence-of-evidence never certifies a policy.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro import obs
from repro.analysis.report import Table
from repro.core.budget import BudgetExceededError, ExecutionBudget
from repro.core.constraints import Constraint
from repro.core.engine import shared_engine
from repro.core.induction import (
    prove_no_dependency,
    prove_no_dependency_nonautonomous,
)
from repro.core.system import System
from repro.obs.provenance import Provenance


@dataclass(frozen=True)
class PathFinding:
    """One (source, target) cell of the audit.

    ``verdict`` records how the cell was decided: ``"exact"`` (pair-graph
    closure), ``"one-step"`` (budget-degraded but sound — a length-1
    witness), or ``"unknown"`` (budget exhausted, nothing established;
    ``flows`` is ``False`` only as a placeholder in that case).
    ``provenance`` carries the machine-readable lineage of the verdict —
    which kernel decided it, memo hit or fresh BFS, budget state (see
    :class:`repro.obs.provenance.Provenance`).  Every cell has one.
    """

    source: str
    target: str
    flows: bool
    witness_history: tuple[str, ...] = ()
    forbidden: bool = False
    certificate: str = ""  # which technique certifies absence, if any
    verdict: str = "exact"  # "exact" | "one-step" | "unknown"
    provenance: Provenance | None = None


@dataclass(frozen=True)
class AuditReport:
    constraint_name: str
    autonomous: bool
    invariant: bool
    relative_clumps: tuple[frozenset[str], ...]
    findings: tuple[PathFinding, ...] = field(default_factory=tuple)
    execution: str = ""  # rendered ExecutionLog, when the audit was governed

    @property
    def violations(self) -> tuple[PathFinding, ...]:
        """Forbidden paths that flow."""
        return tuple(f for f in self.findings if f.forbidden and f.flows)

    @property
    def unknowns(self) -> tuple[PathFinding, ...]:
        """Cells the budget left undecided."""
        return tuple(f for f in self.findings if f.verdict == "unknown")

    @property
    def ok(self) -> bool:
        """No forbidden path flows *and* none is left unknown — an audit
        that ran out of budget on a policy-relevant row cannot certify
        the policy."""
        return not self.violations and not any(
            f.forbidden for f in self.unknowns
        )

    def describe(self) -> str:
        lines = [
            f"constraint: {self.constraint_name}",
            f"  autonomous: {self.autonomous}   invariant: {self.invariant}",
        ]
        if self.relative_clumps:
            clumps = ", ".join(
                "{" + ",".join(sorted(c)) + "}" for c in self.relative_clumps
            )
            lines.append(f"  autonomous relative to: {clumps}")
        table = Table(["source", "target", "flows?", "policy", "evidence", "via"])
        for f in self.findings:
            policy = "FORBIDDEN" if f.forbidden else "-"
            shown: object = "?" if f.verdict == "unknown" else f.flows
            if f.flows:
                evidence = (
                    " ".join(f.witness_history) or f.certificate or "<lambda>"
                )
            else:
                evidence = f.certificate or "exact search"
            via = f.provenance.short() if f.provenance is not None else "-"
            table.add(f.source, f.target, shown, policy, evidence, via)
        lines.append(table.render())
        bits: list[str] = []
        if self.violations:
            bits.append(f"{len(self.violations)} forbidden path(s) flow")
        unknown_forbidden = [f for f in self.unknowns if f.forbidden]
        if unknown_forbidden:
            bits.append(
                f"{len(unknown_forbidden)} forbidden path(s) "
                "UNKNOWN (budget exhausted)"
            )
        lines.append(
            "VERDICT: " + ("; ".join(bits) if bits else "no policy violations")
        )
        if self.execution:
            lines.append(self.execution)
        return "\n".join(lines)


def _minimal_clumps(phi: Constraint, max_size: int = 2):
    """Small object sets phi is autonomous relative to (informational)."""
    import itertools

    names = phi.space.names
    found: list[frozenset[str]] = []
    for size in range(2, max_size + 1):
        for combo in itertools.combinations(names, size):
            clump = frozenset(combo)
            if any(existing <= clump for existing in found):
                continue
            if phi.is_autonomous_relative_to(clump):
                found.append(clump)
    return tuple(found)


def audit_system(
    system: System,
    constraint: Constraint | None = None,
    forbidden: Iterable[tuple[str, str]] = (),
    find_clumps: bool = False,
    budget: ExecutionBudget | None = None,
    max_workers: int | None = None,
) -> AuditReport:
    """Audit every singleton information path of a system.

    ``forbidden`` marks policy pairs; for absent paths the audit attaches
    the cheapest certificate that works — Corollary 4-2 when the
    constraint is autonomous and invariant, Corollary 5-6 when merely
    invariant, otherwise the exact pair-graph search itself.

    ``budget`` governs every closure and sweep; exhausted rows degrade to
    the one-step flow under-approximation (see module docstring) instead
    of failing the whole audit, and the report carries the engine's
    execution log.  ``max_workers`` fans the per-row closures out across
    the engine's thread pool.

    >>> from repro.lang.builders import SystemBuilder
    >>> from repro.lang.expr import var
    >>> b = SystemBuilder().booleans("a", "b")
    >>> _ = b.op_assign("copy", "b", var("a"))
    >>> report = audit_system(b.build(), forbidden=[("a", "b")])
    >>> report.ok
    False
    """
    phi = constraint if constraint is not None else Constraint.true(system.space)
    forbidden_set = {tuple(pair) for pair in forbidden}
    autonomous = phi.is_autonomous()
    invariant = phi.is_invariant(system)
    clumps = (
        _minimal_clumps(phi) if (find_clumps and not autonomous) else ()
    )

    engine = shared_engine(system)
    names = system.space.names

    # One shared pair-graph closure per source row answers every target;
    # warm them up front (fanned out when max_workers is set).  A budget
    # trip here is fine — completed rows stay memoized, exhausted rows
    # degrade per-cell below.
    try:
        engine.closure(constraint, max_workers=max_workers, budget=budget)
    except BudgetExceededError:
        pass

    # The one-step flow relation, fetched lazily the first time a row
    # exhausts its budget.  Sound fallback: a one-step flow is a
    # length-1 witness of |>_phi, so a positive cell is exact.
    step_flows: dict[str, frozenset[tuple[str, str]]] | None = None
    step_failed = False

    def one_step() -> dict[str, frozenset[tuple[str, str]]] | None:
        nonlocal step_flows, step_failed
        if step_flows is None and not step_failed:
            try:
                step_flows = dict(engine.operation_flows(constraint, budget))
            except BudgetExceededError:
                step_failed = True
        return None if step_failed else step_flows

    findings: list[PathFinding] = []
    for source in names:
        for target in names:
            if source == target:
                continue
            certificate = ""
            history: tuple[str, ...] = ()
            verdict = "exact"
            provenance: Provenance | None = None
            with obs.span("audit.cell", source=source, target=target):
                try:
                    result = engine.depends_ever(
                        {source}, target, constraint, budget
                    )
                    flows = bool(result)
                    provenance = result.provenance
                    if flows:
                        history = tuple(
                            op.name for op in result.witness.history
                        )
                    else:
                        if autonomous and invariant:
                            proof = prove_no_dependency(
                                system, phi, source, target, budget
                            )
                            if proof.valid:
                                certificate = "Corollary 4-2"
                        if not certificate and invariant:
                            proof = prove_no_dependency_nonautonomous(
                                system, phi, {source}, target, budget
                            )
                            if proof.valid:
                                certificate = "Corollary 5-6"
                        if not certificate:
                            certificate = "exact pair-graph search"
                except BudgetExceededError:
                    step = one_step()
                    op_name = (
                        next(
                            (
                                name
                                for name, pairs in step.items()
                                if (source, target) in pairs
                            ),
                            None,
                        )
                        if step is not None
                        else None
                    )
                    if op_name is not None:
                        flows = True
                        history = (op_name,)
                        verdict = "one-step"
                        certificate = "one-step flow (budget-degraded)"
                        provenance = Provenance(
                            kernel="one-step",
                            budget="exhausted",
                            witness_length=1,
                        )
                    else:
                        flows = False
                        verdict = "unknown"
                        certificate = (
                            "budget exhausted (one-step under-approximation)"
                        )
                        provenance = Provenance(
                            kernel="unknown", budget="exhausted"
                        )
            findings.append(
                PathFinding(
                    source=source,
                    target=target,
                    flows=flows,
                    witness_history=history,
                    forbidden=(source, target) in forbidden_set,
                    certificate=certificate,
                    verdict=verdict,
                    provenance=provenance,
                )
            )
    execution = (
        engine.execution_log.describe()
        if (budget is not None or max_workers is not None)
        else ""
    )
    return AuditReport(
        constraint_name=phi.name,
        autonomous=autonomous,
        invariant=invariant,
        relative_clumps=clumps,
        findings=tuple(findings),
        execution=execution,
    )
