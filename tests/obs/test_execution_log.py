"""The bounded ExecutionLog ring buffer and its telemetry feed."""

import pytest

from repro import obs
from repro.core.budget import (
    ExecutionLog,
    ExecutionReport,
    PartialResult,
)


def _report(k: int, **kwargs) -> ExecutionReport:
    return ExecutionReport(label=f"run{k}", **kwargs)


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionLog(capacity=0)

    def test_newest_reports_always_fit(self):
        log = ExecutionLog(capacity=3)
        for k in range(5):
            log.record(_report(k))
        assert [r.label for r in log.reports] == ["run2", "run3", "run4"]
        assert log.dropped == 2
        assert log.recorded == 5

    def test_summary_counts_drops_and_capacity(self):
        log = ExecutionLog(capacity=2)
        for k in range(4):
            log.record(_report(k, expansions=10))
        s = log.summary()
        assert s["runs"] == 2 and s["capacity"] == 2 and s["dropped"] == 2
        assert s["expansions"] == 20  # only retained reports are summed

    def test_clear_resets_drop_accounting(self):
        log = ExecutionLog(capacity=1)
        log.record(_report(0))
        log.record(_report(1))
        log.clear()
        assert log.dropped == 0 and log.recorded == 0 and not log.reports


class TestDescribe:
    def test_empty_log_keeps_exact_sentinel_line(self):
        assert ExecutionLog().describe() == (
            "execution: no governed runs recorded"
        )

    def test_describe_mentions_ring_drops(self):
        log = ExecutionLog(capacity=2)
        for k in range(5):
            log.record(_report(k))
        text = log.describe()
        assert "ring capacity 2" in text
        assert "3 older report(s) dropped" in text

    def test_describe_without_drops_stays_quiet_about_the_ring(self):
        log = ExecutionLog(capacity=8)
        log.record(_report(0))
        assert "ring capacity" not in log.describe()

    def test_incomplete_report_renders_budget_exceeded(self):
        partial = PartialResult(
            label="run0",
            reason="deadline",
            expanded=5,
            discovered=9,
            frontier=2,
            elapsed=0.01,
        )
        report = _report(0, completed=False, partial=partial)
        assert "BUDGET EXCEEDED (deadline)" in report.describe()
        log = ExecutionLog()
        log.record(report)
        assert "1 incomplete" in log.describe()


class TestPartialResult:
    def test_describe_carries_the_snapshot(self):
        partial = PartialResult(
            label="closure a/tt",
            reason="max_expanded",
            expanded=128,
            discovered=200,
            frontier=31,
            elapsed=0.25,
        )
        text = partial.describe()
        assert "UNKNOWN" in text and "max_expanded" in text
        assert "128 expanded / 200 discovered" in text
        assert "frontier 31" in text


class TestTelemetryFeed:
    def test_record_feeds_counters_and_gauges(self):
        obs.enable(reset=True)
        log = ExecutionLog(capacity=2)
        partial = PartialResult(
            label="x", reason="deadline", expanded=0, discovered=0,
            frontier=1, elapsed=0.0,
        )
        log.record(_report(0, degradations=("thread->serial",)))
        log.record(_report(1, completed=False, partial=partial))
        log.record(_report(2))  # evicts run0
        counters = obs.snapshot().counters
        assert counters["execution.reports"] == 3
        assert counters["execution.reports_dropped"] == 1
        assert counters["budget.trips"] == 1
        assert counters["pool.degradations"] == 1
        assert obs.snapshot().gauges["execution.log_size"] == 2

    def test_disabled_telemetry_records_silently(self):
        log = ExecutionLog()
        log.record(_report(0, degradations=("thread->serial",)))
        assert obs.snapshot().counters == {}
        assert log.recorded == 1
