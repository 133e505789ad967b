"""PR-10 unit tests: fixed-bucket latency histograms (merge semantics,
percentiles, Prometheus render/lint) and trace-context propagation —
including across the engine's thread->serial fallback."""

from __future__ import annotations

import contextvars
import re
import threading

import pytest

from repro import obs
from repro.core import faults
from repro.core.engine import DependencyEngine
from repro.core.faults import FaultPlan, FaultSpec
from repro.lang.builders import SystemBuilder
from repro.lang.expr import var
from repro.obs import metrics, telemetry
from repro.obs.telemetry import HIST_BUCKETS, Histogram


class TestHistogram:
    def test_observe_lands_in_the_right_bucket(self):
        obs.enable()
        obs.observe("serve.request.seconds", 0.003)  # between 0.0025 and 0.005
        hist = obs.snapshot().hists["serve.request.seconds"]
        assert hist.count == 1
        assert hist.counts[HIST_BUCKETS.index(0.005)] == 1
        assert hist.sum_seconds == pytest.approx(0.003)

    def test_overflow_observation_uses_the_inf_slot(self):
        obs.enable()
        obs.observe("serve.request.seconds", 100.0)  # past the 30s bound
        hist = obs.snapshot().hists["serve.request.seconds"]
        assert hist.counts[len(HIST_BUCKETS)] == 1

    def test_disabled_observe_is_a_noop(self):
        obs.observe("serve.request.seconds", 0.1)
        assert obs.snapshot().hists == {}

    def test_percentile_reports_bucket_upper_bounds(self):
        obs.enable()
        for _ in range(99):
            obs.observe("serve.request.seconds", 0.002)
        obs.observe("serve.request.seconds", 4.0)
        hist = obs.snapshot().hists["serve.request.seconds"]
        assert hist.percentile(0.50) == 0.0025
        assert hist.percentile(0.95) == 0.0025
        assert hist.percentile(1.00) == 5.0

    def test_percentile_of_empty_histogram_is_none(self):
        empty = Histogram(
            counts=(0,) * (len(HIST_BUCKETS) + 1), sum_seconds=0.0
        )
        assert empty.percentile(0.5) is None

    def test_overflow_percentile_reports_largest_finite_bound(self):
        obs.enable()
        obs.observe("serve.request.seconds", 100.0)
        hist = obs.snapshot().hists["serve.request.seconds"]
        assert hist.percentile(0.5) == HIST_BUCKETS[-1]

    def test_merge_is_exact_elementwise_addition(self):
        obs.enable()
        obs.observe("x.seconds", 0.002)
        obs.observe("x.seconds", 0.2)
        a = obs.snapshot().hists["x.seconds"]
        obs.enable(reset=True)
        obs.observe("x.seconds", 0.002)
        b = obs.snapshot().hists["x.seconds"]
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.sum_seconds == pytest.approx(a.sum_seconds + b.sum_seconds)
        assert merged.counts == tuple(
            x + y for x, y in zip(a.counts, b.counts)
        )

    def test_span_exit_feeds_its_mapped_histogram(self):
        obs.enable()
        with obs.span("engine.closure"):
            pass
        hist = obs.snapshot().hists["engine.closure.seconds"]
        (record,) = obs.snapshot().spans
        assert hist.count == 1
        assert hist.sum_seconds == pytest.approx(record.duration_ns / 1e9)

    def test_unmapped_span_feeds_no_histogram(self):
        obs.enable()
        with obs.span("engine.history_set"):
            pass
        assert obs.snapshot().hists == {}


class TestTraceContext:
    def test_new_trace_id_shape(self):
        tid = obs.new_trace_id()
        assert re.fullmatch(r"[0-9a-f]{16}", tid)
        assert tid != obs.new_trace_id()

    def test_trace_context_works_with_telemetry_disabled(self):
        # Provenance and access-log stamping must not depend on the
        # collector being on.
        assert not obs.is_enabled()
        assert obs.current_trace() is None
        with obs.trace_context("abc"):
            assert obs.current_trace() == "abc"
        assert obs.current_trace() is None

    def test_set_reset_token_pair(self):
        token = obs.set_trace("t1")
        assert obs.current_trace() == "t1"
        obs.reset_trace(token)
        assert obs.current_trace() is None

    def test_spans_are_stamped_with_the_current_trace(self):
        obs.enable()
        with obs.trace_context("t-span"):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        with obs.span("untraced"):
            pass
        traces = {s.name: s.trace_id for s in obs.snapshot().spans}
        assert traces == {"outer": "t-span", "inner": "t-span",
                          "untraced": None}

    def test_plain_thread_does_not_inherit_copied_context_does(self):
        obs.enable()
        seen = {}

        def work(label):
            with obs.span(label):
                seen[label] = obs.current_trace()

        with obs.trace_context("t-thread"):
            bare = threading.Thread(target=work, args=("bare",))
            bare.start()
            bare.join()
            ctx = contextvars.copy_context()
            copied = threading.Thread(
                target=ctx.run, args=(work, "copied")
            )
            copied.start()
            copied.join()
        assert seen == {"bare": None, "copied": "t-thread"}


@pytest.fixture
def relay():
    b = SystemBuilder().booleans("a", "m", "b")
    b.op_assign("d1", "m", var("a"))
    b.op_assign("d2", "b", var("m"))
    return b.build()


class TestLadderTraceStability:
    """The same trace id must land on every span a warm fan-out
    produces, whether threads or the serial fallback ran the
    closures."""

    def _warm_under_trace(self, relay, tid, **kwargs):
        obs.enable(reset=True)
        engine = DependencyEngine(relay)
        with obs.trace_context(tid):
            engine.matrix(**kwargs)
        spans = obs.snapshot().spans
        assert spans, "warm produced no spans"
        assert {s.trace_id for s in spans} == {tid}

    def test_serial_spans_carry_the_trace(self, relay):
        self._warm_under_trace(relay, "t-serial")

    def test_thread_fanout_spans_carry_the_trace(self, relay):
        self._warm_under_trace(relay, "t-thread", max_workers=2)

    def test_degraded_thread_to_serial_keeps_one_trace(self, relay):
        plan = FaultPlan(specs=(FaultSpec(kind="err", point="task", task=0),))
        obs.enable(reset=True)
        engine = DependencyEngine(relay)
        with obs.trace_context("t-degrade"):
            with faults.active_plan(plan):
                engine.matrix(max_workers=2)
        spans = obs.snapshot().spans
        assert spans and {s.trace_id for s in spans} == {"t-degrade"}
        report = next(
            r for r in engine.execution_log.reports
            if r.label.startswith("warm")
        )
        assert "thread->serial" in report.degradations


class TestMetricsExposition:
    def _snapshot(self):
        obs.enable(reset=True)
        obs.count("serve.requests", 3)
        obs.gauge_max("serve.queue_depth", 2)
        obs.observe("serve.request.seconds", 0.002)
        obs.observe("serve.request.seconds", 0.3)
        obs.observe("serve.request.seconds", 99.0)  # overflow bucket
        return obs.snapshot()

    def test_render_lints_clean_with_required_families(self):
        text = metrics.render(self._snapshot())
        assert metrics.lint(
            text,
            require=[
                "repro_serve_request_seconds",
                "repro_serve_requests_total",
            ],
        ) == []

    def test_render_shapes(self):
        text = metrics.render(self._snapshot())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 3" in text
        assert "repro_serve_queue_depth 2" in text
        assert '# TYPE repro_serve_request_seconds histogram' in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_serve_request_seconds_count 3" in text

    def test_extra_gauges_ride_along(self):
        text = metrics.render(self._snapshot(),
                              extra_gauges={"serve.inflight.current": 1})
        assert "repro_serve_inflight_current 1" in text
        assert metrics.lint(text) == []

    def test_bucket_counts_are_cumulative(self):
        text = metrics.render(self._snapshot())
        values = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_request_seconds_bucket")
        ]
        assert values == sorted(values)
        assert values[-1] == 3

    def test_lint_rejects_missing_type_and_broken_cumulative(self):
        assert metrics.lint("repro_orphan 1\n") == [
            "line 1: sample repro_orphan has no preceding TYPE"
        ]
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\n"
            "h_count 3\n"
        )
        problems = metrics.lint(bad)
        assert any("not cumulative" in p for p in problems)

    def test_lint_rejects_missing_inf_and_count_mismatch(self):
        no_inf = "# TYPE h histogram\n" 'h_bucket{le=\"0.1\"} 1\n'
        assert any("missing +Inf" in p for p in metrics.lint(no_inf))
        mismatch = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 2\n'
            "h_count 3\n"
        )
        assert any("_count" in p for p in metrics.lint(mismatch))

    def test_lint_flags_missing_required_family(self):
        assert metrics.lint("", require=["repro_nope"]) == [
            "required metric missing: repro_nope"
        ]

    def test_metric_name_sanitizes(self):
        assert metrics.metric_name("serve.request.seconds") == (
            "repro_serve_request_seconds"
        )
