"""Verdict provenance: every public engine answer says how it was made."""

import dataclasses

import pytest

from repro.analysis.audit import audit_system
from repro.core.budget import (
    BudgetExceededError,
    ExecutionBudget,
    PartialResult,
)
from repro.core.dependency import transmits, transmits_to_set
from repro.core.engine import DependencyEngine, shared_engine
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var
from repro.obs.provenance import (
    BUDGET_STATES,
    KERNEL_PATHS,
    MEMO_OUTCOMES,
    Provenance,
)


@pytest.fixture
def relay():
    b = SystemBuilder().booleans("a", "m", "bb")
    b.op_assign("d1", "m", var("a"))
    b.op_assign("d2", "bb", var("m"))
    return b.build()


class TestProvenanceRecord:
    def test_describe_includes_optional_fields_only_when_set(self):
        p = Provenance(kernel="compiled", memo="fresh", budget="none")
        assert p.describe() == "kernel=compiled memo=fresh budget=none"
        q = Provenance(
            kernel="compiled",
            memo="hit",
            budget="governed",
            witness_length=2,
            closure_pairs=7,
        )
        assert q.describe() == (
            "kernel=compiled memo=hit budget=governed "
            "witness_len=2 closure_pairs=7"
        )

    def test_short_form(self):
        assert Provenance(kernel="compiled", memo="hit").short() == "compiled/hit"

    def test_vocabularies(self):
        assert "compiled" in KERNEL_PATHS and "seed-fallback" in KERNEL_PATHS
        assert MEMO_OUTCOMES == ("hit", "fresh", "n/a")
        assert "exhausted" in BUDGET_STATES


class TestEngineProvenance:
    def test_depends_ever_fresh_then_memo_hit(self, relay):
        engine = DependencyEngine(relay)
        first = engine.depends_ever({"a"}, "bb")
        p = first.provenance
        assert p is not None
        assert p.kernel == "compiled" and p.memo == "fresh"
        assert p.budget == "none"
        assert p.witness_length == 2  # d1 then d2 is the shortest witness
        assert p.closure_pairs is not None and p.closure_pairs > 0
        second = engine.depends_ever({"a"}, "m")  # same (A, phi) closure
        assert second.provenance.memo == "hit"

    def test_negative_verdict_has_provenance_without_witness(self, relay):
        result = DependencyEngine(relay).depends_ever({"bb"}, "a")
        assert not result
        p = result.provenance
        assert p.kernel == "compiled" and p.witness_length is None

    def test_depends_ever_set_provenance(self, relay):
        engine = DependencyEngine(relay)
        result = engine.depends_ever_set({"a"}, {"m", "bb"})
        p = result.provenance
        assert p is not None and p.kernel == "compiled"
        assert engine.depends_ever_set({"a"}, {"m"}).provenance.memo == "hit"

    def test_depends_history_fresh_then_hit(self, relay):
        engine = DependencyEngine(relay)
        d1 = relay.operation("d1")
        first = engine.depends_history({"a"}, "m", d1)
        assert first.provenance.memo == "fresh"
        assert first.provenance.witness_length == 1
        assert engine.depends_history({"a"}, "m", d1).provenance.memo == "hit"

    def test_depends_history_set_fresh_then_hit(self, relay):
        engine = DependencyEngine(relay)
        d1 = relay.operation("d1")
        first = engine.depends_history_set({"a"}, {"m"}, d1)
        assert first.provenance.memo == "fresh"
        again = engine.depends_history_set({"a"}, {"m"}, d1)
        assert again.provenance.memo == "hit"

    def test_governed_query_reports_governed_budget(self, relay):
        result = DependencyEngine(relay).depends_ever(
            {"a"}, "bb", budget=ExecutionBudget(max_expanded=10**9)
        )
        assert result.provenance.budget == "governed"

    def test_provenance_never_affects_equality_or_repr(self, relay):
        result = DependencyEngine(relay).depends_ever({"a"}, "m")
        stripped = dataclasses.replace(result, provenance=None)
        assert stripped == result
        assert "provenance" not in repr(result)

    def test_describe_renders_the_provenance_line(self, relay):
        result = DependencyEngine(relay).depends_ever({"a"}, "m")
        text = result.describe()
        assert "[kernel=compiled memo=fresh" in text


class TestSeedFallbackProvenance:
    def test_foreign_history_positive(self, relay):
        d1 = relay.operation("d1")
        d2 = relay.operation("d2")
        composite = d1.then(d2)  # not owned by the system: seed path
        result = transmits(relay, {"a"}, "bb", composite)
        assert result
        p = result.provenance
        assert p.kernel == "seed-fallback" and p.witness_length == 1

    def test_foreign_history_negative(self, relay):
        d1 = relay.operation("d1")
        d2 = relay.operation("d2")
        result = transmits(relay, {"bb"}, "a", d1.then(d2))
        assert not result
        assert result.provenance.kernel == "seed-fallback"
        assert result.provenance.witness_length is None

    def test_foreign_history_set_target(self, relay):
        d1 = relay.operation("d1")
        d2 = relay.operation("d2")
        result = transmits_to_set(relay, {"a"}, {"bb"}, d1.then(d2))
        assert result.provenance.kernel == "seed-fallback"


class TestAuditProvenance:
    def test_every_cell_carries_provenance(self, relay):
        report = audit_system(relay)
        assert report.findings
        for finding in report.findings:
            assert finding.provenance is not None
            assert finding.provenance.kernel in KERNEL_PATHS

    def test_flowing_cells_carry_witness_length(self, relay):
        report = audit_system(relay)
        flowing = [f for f in report.findings if f.flows]
        assert flowing
        for finding in flowing:
            assert finding.provenance.witness_length == len(
                finding.witness_history
            )

    def test_describe_shows_the_via_column(self, relay):
        text = audit_system(relay).describe()
        assert "via" in text
        assert "compiled/" in text

    def test_budget_degraded_cells_report_their_kernel(self, relay, monkeypatch):
        engine = shared_engine(relay)
        partial = PartialResult(
            label="test",
            reason="max_expanded",
            expanded=0,
            discovered=0,
            frontier=1,
            elapsed=0.0,
        )

        def trip(*args, **kwargs):
            raise BudgetExceededError(partial)

        monkeypatch.setattr(engine, "depends_ever", trip)
        report = audit_system(relay)
        by_cell = {(f.source, f.target): f for f in report.findings}
        one_step = by_cell[("a", "m")]
        assert one_step.verdict == "one-step" and one_step.flows
        assert one_step.provenance == Provenance(
            kernel="one-step", budget="exhausted", witness_length=1
        )
        unknown = by_cell[("a", "bb")]
        assert unknown.verdict == "unknown"
        assert unknown.provenance == Provenance(
            kernel="unknown", budget="exhausted"
        )
        # the via column renders the degraded kernels too
        text = report.describe()
        assert "one-step/" in text and "unknown/" in text
