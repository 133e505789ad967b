"""PR-10 serve-layer observability contract: trace IDs end to end
(headers, spans, provenance, access log, flight recorder), the
``/metrics`` Prometheus exposition, and the ``repro stats`` views over
access logs and flight dumps."""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs import metrics

from tests.serve.helpers import PROGRAM, VARS, create_session, rpc, serving

_TRACE_RE = re.compile(r"^[0-9a-f]{16}$")


@pytest.fixture(autouse=True)
def clean_telemetry():
    """The collector is module-global; leave it as we found it (other
    serve tests run with telemetry off)."""
    was_enabled = obs.is_enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


async def raw_rpc(
    port: int,
    method: str,
    path: str,
    doc: dict | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """Like helpers.rpc but keeps the response headers and raw body —
    the trace header and the non-JSON ``/metrics`` body are part of the
    contract under test."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if doc is None else json.dumps(doc).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 60)
    finally:
        writer.close()
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    resp_headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        resp_headers[name.strip().lower()] = value.strip()
    return status, resp_headers, payload


class TestTraceHeader:
    def test_every_response_carries_a_minted_trace_id(self):
        async def body():
            async with serving() as server:
                status, headers, _ = await raw_rpc(
                    server.port, "GET", "/healthz"
                )
                assert status == 200
                assert _TRACE_RE.fullmatch(headers["x-trace-id"])

        asyncio.run(body())

    def test_client_supplied_trace_id_is_honored_and_echoed(self):
        async def body():
            async with serving() as server:
                _, headers, _ = await raw_rpc(
                    server.port, "GET", "/healthz",
                    headers={"X-Trace-Id": "caller-trace-01"},
                )
                assert headers["x-trace-id"] == "caller-trace-01"

        asyncio.run(body())

    def test_invalid_client_trace_id_is_replaced(self):
        async def body():
            async with serving() as server:
                for bad in ("has space", "x" * 65):
                    _, headers, _ = await raw_rpc(
                        server.port, "GET", "/healthz",
                        headers={"X-Trace-Id": bad},
                    )
                    assert _TRACE_RE.fullmatch(headers["x-trace-id"])

        asyncio.run(body())

    def test_query_provenance_carries_the_request_trace(self):
        async def body():
            async with serving() as server:
                key = await create_session(server)
                status, headers, payload = await raw_rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": "secret", "target": "out"},
                    headers={"X-Trace-Id": "prov-trace-01"},
                )
                doc = json.loads(payload)
                assert status == 200 and doc["verdict"] == "flow"
                assert headers["x-trace-id"] == "prov-trace-01"
                assert "trace=prov-trace-01" in doc["provenance"]

        asyncio.run(body())


class TestAccessLog:
    def test_protocol_errors_still_produce_access_lines(self):
        async def body():
            async with serving() as server:
                await rpc(server.port, "GET", "/nope")
                await rpc(server.port, "PUT", "/healthz")
                await rpc(server.port, "POST", "/v1/query", {"source": "a"})
                tail = server.access_log.tail()
                statuses = [line["status"] for line in tail]
                assert statuses == [404, 405, 400]
                assert all(line["trace"] for line in tail)
                assert all(line["type"] == "access" for line in tail)

        asyncio.run(body())

    def test_access_lines_reach_the_jsonl_file(self, tmp_path):
        async def body():
            path = str(tmp_path / "access.jsonl")
            async with serving(access_log=path) as server:
                key = await create_session(server)
                await raw_rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": "secret", "target": "out"},
                    headers={"X-Trace-Id": "file-trace-01"},
                )
            lines = [
                json.loads(line) for line in open(path, encoding="utf-8")
            ]
            q = next(line for line in lines if line["path"] == "/v1/query")
            assert q["trace"] == "file-trace-01"
            assert q["status"] == 200 and q["verdict"] == "flow"
            assert q["session"] == key
            return path

        path = asyncio.run(body())
        # Satellite: `repro stats` summarizes the access JSONL directly.
        assert cli_main(["stats", path]) == 0

    def test_unwritable_access_log_is_fail_open(self, tmp_path):
        async def body():
            bad = str(tmp_path / "no" / "such" / "dir" / "a.jsonl")
            async with serving(access_log=bad) as server:
                status, _ = await rpc(server.port, "GET", "/healthz")
                assert status == 200
                stats = server.access_log.stats()
                assert stats["write_errors"] >= 1
                assert stats["ring"] >= 1  # the in-memory tail survives

        asyncio.run(body())


class TestMetricsEndpoint:
    def test_metrics_is_valid_prometheus_exposition(self):
        async def body():
            async with serving() as server:
                key = await create_session(server)
                await rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": "secret", "target": "out"},
                )
                status, headers, payload = await raw_rpc(
                    server.port, "GET", "/metrics"
                )
                assert status == 200
                assert headers["content-type"] == metrics.CONTENT_TYPE
                text = payload.decode("utf-8")
                assert metrics.lint(
                    text,
                    require=[
                        "repro_serve_request_seconds",
                        "repro_serve_requests_total",
                    ],
                ) == []
                # Live gauges the collector does not own ride along.
                assert "repro_serve_sessions_resident 1" in text

        asyncio.run(body())

    def test_request_histogram_counts_every_request(self):
        async def body():
            async with serving() as server:
                for _ in range(3):
                    await rpc(server.port, "GET", "/healthz")
                _, _, payload = await raw_rpc(server.port, "GET", "/metrics")
                count = next(
                    int(line.rsplit(" ", 1)[1])
                    for line in payload.decode().splitlines()
                    if line.startswith("repro_serve_request_seconds_count")
                )
                assert count >= 3

        asyncio.run(body())


class TestFlightRecorder:
    def test_504_joins_access_log_flight_and_spans(self, tmp_path):
        """The acceptance path: a deadline-tripped request appears in
        the access log and the flight recorder, and the flight record's
        span tree carries the same trace id as the request."""
        async def body():
            obs.enable(reset=True)
            async with serving() as server:
                key = await create_session(server)
                status, headers, payload = await raw_rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": "secret", "target": "out",
                     "quota": {"deadline_ms": 1}},
                    headers={"X-Trace-Id": "deadline-trace-01"},
                )
                doc = json.loads(payload)
                assert status == 504, doc
                assert headers["x-trace-id"] == "deadline-trace-01"
                # Access log: the 504 line carries the trace and the
                # exhausted budget.
                line = next(
                    l for l in server.access_log.tail()
                    if l["status"] == 504
                )
                assert line["trace"] == "deadline-trace-01"
                assert line["budget"] == "exhausted"
                # Flight recorder: same trace, reason deadline, and a
                # captured span tree whose every span carries the trace.
                _, flight = await rpc(
                    server.port, "GET", "/stats?flight=1"
                )
                rec = next(
                    r for r in flight["flight"]
                    if r["trace"] == "deadline-trace-01"
                )
                assert rec["reason"] == "deadline"
                assert rec["status"] == 504
                assert rec["spans"], "504 must retain its span tree"
                names = {s["name"] for s in rec["spans"]}
                assert "serve.query" in names
                assert all(
                    s["trace"] == "deadline-trace-01" for s in rec["spans"]
                )
                # The same spans are in the live collector, same trace.
                live = {
                    s.name for s in obs.snapshot().spans
                    if s.trace_id == "deadline-trace-01"
                }
                assert "serve.query" in live
                return flight

        flight = asyncio.run(body())
        # Satellite: `repro stats --flight` renders the dump offline.
        dump = tmp_path / "flight.json"
        dump.write_text(json.dumps(flight["flight"]))
        assert cli_main(["stats", "--flight", str(dump)]) == 0

    def test_shed_requests_are_recorded_with_empty_trees(self):
        async def body():
            async with serving(max_concurrency=1, max_queue=0) as server:
                key = await create_session(server)
                # The shed test is arrival-counted on inflight+waiting;
                # pin it at capacity so the next arrival bounces 429.
                server.admission.inflight = 1
                try:
                    status, headers, payload = await raw_rpc(
                        server.port, "POST", "/v1/query",
                        {"session": key, "source": "secret",
                         "target": "out"},
                        headers={"X-Trace-Id": "shed-trace-01"},
                    )
                finally:
                    server.admission.inflight = 0
                assert status == 429, payload
                _, flight = await rpc(server.port, "GET", "/stats?flight=1")
                rec = next(
                    r for r in flight["flight"]
                    if r["trace"] == "shed-trace-01"
                )
                assert rec["reason"] == "shed" and rec["status"] == 429
                # Shed before any work ran: an empty tree is the record.
                assert rec["spans"] == []
                line = next(
                    l for l in server.access_log.tail()
                    if l["trace"] == "shed-trace-01"
                )
                assert line["shed"] is True

        asyncio.run(body())

    def test_prewarm_session_spans_carry_the_request_trace(self):
        """Closure spans from the session prewarm carry the creating
        request's trace."""
        async def body():
            obs.enable(reset=True)
            async with serving() as server:
                status, headers, payload = await raw_rpc(
                    server.port, "POST", "/v1/sessions",
                    {"program": PROGRAM, "vars": VARS, "prewarm": True},
                    headers={"X-Trace-Id": "sess-trace-01"},
                )
                assert status == 200, payload
                names = {
                    s.name for s in obs.snapshot().spans
                    if s.trace_id == "sess-trace-01"
                }
                assert "serve.session.create" in names
                assert "serve.warm" in names and "engine.warm" in names
                assert names & {"engine.closure", "kernel.closure"}, names

        asyncio.run(body())

    def test_slow_request_threshold_records_successes(self):
        async def body():
            async with serving(slow_request_ms=0.0) as server:
                status, _ = await rpc(server.port, "GET", "/healthz")
                assert status == 200
                rec = server.flight.dump()[-1]
                assert rec["reason"] == "slow" and rec["status"] == 200

        asyncio.run(body())


class TestStatsSections:
    def test_stats_exposes_hists_access_and_flight(self):
        async def body():
            obs.enable(reset=True)
            async with serving() as server:
                key = await create_session(server)
                await rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": "secret", "target": "out"},
                )
                _, stats = await rpc(server.port, "GET", "/stats")
                hists = stats["telemetry"]["hists"]
                assert "serve.request.seconds" in hists
                for col in ("count", "p50", "p95", "p99"):
                    assert col in hists["serve.request.seconds"]
                assert stats["access"]["lines"] >= 2
                assert "retained" in stats["flight"]

        asyncio.run(body())
