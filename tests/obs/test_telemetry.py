"""Unit tests for the telemetry core: spans, counters, gauges, and the
exporters (Chrome trace / JSONL / aggregate / schema)."""

import json
import threading

import pytest

from repro import obs
from repro.obs import export, schema, telemetry


class TestEnableDisable:
    def test_disabled_by_default_in_tests(self):
        assert not obs.is_enabled()

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.is_enabled()
        obs.disable()
        assert not obs.is_enabled()

    def test_disable_keeps_collected_data(self):
        obs.enable()
        obs.count("x")
        obs.disable()
        assert obs.snapshot().counters == {"x": 1}

    def test_enable_reset_clears_prior_state(self):
        obs.enable()
        obs.count("x")
        obs.enable(reset=True)
        assert obs.snapshot().counters == {}

    def test_reset_drops_everything(self):
        obs.enable()
        with obs.span("s"):
            pass
        obs.count("c")
        obs.gauge_max("g", 3)
        obs.reset()
        snap = obs.snapshot()
        assert snap.spans == () and snap.counters == {} and snap.gauges == {}


class TestSpans:
    def test_disabled_span_is_the_shared_null_singleton(self):
        s = obs.span("anything", attr="ignored")
        assert s is telemetry.NULL_SPAN
        with s as inner:
            inner.set("k", "v")  # no-op, no error
        assert obs.snapshot().spans == ()

    def test_span_records_name_attrs_and_duration(self):
        obs.enable()
        with obs.span("work", source="a,b", constraint="tt"):
            pass
        (record,) = obs.snapshot().spans
        assert record.name == "work"
        assert record.attrs == {"source": "a,b", "constraint": "tt"}
        assert record.duration_ns >= 0
        assert record.parent_id is None

    def test_nested_spans_parent_correctly(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        spans = {s.name: s for s in obs.snapshot().spans}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["outer"].parent_id is None

    def test_sibling_spans_share_a_parent(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        spans = {s.name: s for s in obs.snapshot().spans}
        assert spans["first"].parent_id == outer.span_id
        assert spans["second"].parent_id == outer.span_id

    def test_set_attaches_attribute_mid_span(self):
        obs.enable()
        with obs.span("work") as s:
            s.set("memo", "hit")
        (record,) = obs.snapshot().spans
        assert record.attrs["memo"] == "hit"

    def test_span_records_on_exception(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        assert [s.name for s in obs.snapshot().spans] == ["failing"]

    def test_thread_spans_are_roots_not_children(self):
        # contextvar parenting: a fresh thread has no current span, so
        # its spans must not attach under the main thread's.
        obs.enable()

        def work():
            with obs.span("in_thread"):
                pass

        with obs.span("main"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        spans = {s.name: s for s in obs.snapshot().spans}
        assert spans["in_thread"].parent_id is None


class TestTraced:
    def test_traced_passthrough_when_disabled(self):
        @obs.traced("fn.span")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert obs.snapshot().spans == ()
        assert double.__name__ == "double"

    def test_traced_emits_span_when_enabled(self):
        obs.enable()

        @obs.traced("fn.span")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert [s.name for s in obs.snapshot().spans] == ["fn.span"]


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        obs.enable()
        obs.count("hits")
        obs.count("hits", 4)
        assert obs.snapshot().counters == {"hits": 5}

    def test_gauges_keep_high_water_mark(self):
        obs.enable()
        obs.gauge_max("frontier", 10)
        obs.gauge_max("frontier", 3)
        obs.gauge_max("frontier", 12)
        assert obs.snapshot().gauges == {"frontier": 12}

    def test_disabled_metrics_are_noops(self):
        obs.count("hits")
        obs.gauge_max("frontier", 10)
        snap = obs.snapshot()
        assert snap.counters == {} and snap.gauges == {}


class TestExporters:
    def _collect(self):
        obs.enable(reset=True)
        with obs.span("engine.closure", constraint="tt"):
            with obs.span("kernel.closure"):
                pass
        obs.count("engine.closure.memo_miss")
        obs.gauge_max("engine.closure.pairs", 7)
        return obs.snapshot()

    def test_chrome_trace_shape(self):
        snap = self._collect()
        trace = export.chrome_trace(snap)
        events = trace["traceEvents"]
        assert [e["ph"] for e in events if e["ph"] == "M"], "process metadata"
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "engine.closure",
            "kernel.closure",
        }
        counters = [e for e in events if e["ph"] == "C"]
        assert counters[0]["args"] == {"value": 1}
        assert trace["otherData"]["counters"] == {"engine.closure.memo_miss": 1}
        assert trace["otherData"]["gauges"] == {"engine.closure.pairs": 7}

    def test_chrome_trace_timestamps_rebased_to_zero(self):
        trace = export.chrome_trace(self._collect())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in spans) == 0.0

    def test_chrome_trace_is_json_serializable(self):
        json.dumps(export.chrome_trace(self._collect()))

    def test_write_and_load_chrome_trace(self, tmp_path):
        snap = self._collect()
        path = str(tmp_path / "trace.json")
        export.write_chrome_trace(path, snap)
        events = export.load_trace(path)
        kinds = {e["type"] for e in events}
        assert kinds == {"span", "counter", "gauge", "hist"}

    def test_write_and_load_jsonl(self, tmp_path):
        snap = self._collect()
        path = str(tmp_path / "trace.jsonl")
        export.write_jsonl(path, snap)
        events = export.load_trace(path)
        assert {e["type"] for e in events} == {
            "span", "counter", "gauge", "hist",
        }
        spans = [e for e in events if e["type"] == "span"]
        assert {s["name"] for s in spans} == {
            "engine.closure",
            "kernel.closure",
        }

    def test_aggregate_over_both_formats_agrees(self, tmp_path):
        snap = self._collect()
        chrome = str(tmp_path / "t.json")
        jsonl = str(tmp_path / "t.jsonl")
        export.write_chrome_trace(chrome, snap)
        export.write_jsonl(jsonl, snap)
        agg_chrome = export.aggregate(export.load_trace(chrome))
        agg_jsonl = export.aggregate(export.load_trace(jsonl))
        assert agg_chrome["counters"] == agg_jsonl["counters"]
        assert agg_chrome["gauges"] == agg_jsonl["gauges"]
        assert set(agg_chrome["spans"]) == set(agg_jsonl["spans"])
        for name, stat in agg_chrome["spans"].items():
            assert stat["count"] == agg_jsonl["spans"][name]["count"]
            assert stat["total_us"] >= stat["max_us"] >= 0

    def test_emitted_trace_validates_against_checked_in_schema(self, tmp_path):
        import pathlib

        schema_path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "docs"
            / "trace.schema.json"
        )
        trace_schema = json.loads(schema_path.read_text())
        trace = export.chrome_trace(self._collect())
        # round-trip through JSON so tuples etc. become plain data
        instance = json.loads(json.dumps(trace, default=str))
        assert schema.validate(instance, trace_schema) == []


class TestSchemaValidator:
    SCHEMA = {
        "type": "object",
        "required": ["name", "ph"],
        "properties": {
            "name": {"type": "string"},
            "ph": {"type": "string", "enum": ["M", "X", "C"]},
            "ts": {"type": "number", "minimum": 0},
        },
        "additionalProperties": False,
    }

    def test_valid_instance_has_no_errors(self):
        ok = {"name": "a", "ph": "X", "ts": 1.5}
        assert schema.validate(ok, self.SCHEMA) == []

    def test_each_violation_is_reported_with_its_path(self):
        bad = {"ph": "Q", "ts": -1, "extra": True}
        errors = schema.validate(bad, self.SCHEMA)
        text = "\n".join(errors)
        assert "missing required property 'name'" in text
        assert "not in enum" in text
        assert "minimum" in text
        assert "unexpected property 'extra'" in text

    def test_type_mismatch_short_circuits(self):
        errors = schema.validate("not an object", self.SCHEMA)
        assert len(errors) == 1 and "expected type object" in errors[0]

    def test_items_are_validated_with_indices(self):
        arr_schema = {"type": "array", "items": {"type": "integer"}}
        errors = schema.validate([1, "x", 3], arr_schema)
        assert len(errors) == 1 and "$[1]" in errors[0]

    def test_check_raises_value_error(self):
        with pytest.raises(ValueError, match="schema validation failed"):
            schema.check({}, self.SCHEMA)
        schema.check({"name": "a", "ph": "M"}, self.SCHEMA)  # silent
