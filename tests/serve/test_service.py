"""Functional contract of the serve layer: routes, verdict parity with
the CLI path, quotas, shedding, deadline propagation, drain.

The chaos counterparts (injected request errors, store corruption,
storms) live in ``tests/chaos/test_serve_chaos.py``; this file pins the
sunny-day and plain-overload behavior every chaos test builds on.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import parse_domain
from repro.core import faults
from repro.serve.admission import AdmissionController, RequestQuota, ShedError
from repro.systems.program import build_program_system, program_transmits

from tests.serve.helpers import (
    PROGRAM,
    SLOW_PROGRAM,
    SLOW_VARS,
    VARS,
    create_session,
    rpc,
    serving,
)


def _cli_verdict(source: str, target: str) -> bool:
    domains = dict(parse_domain(f"{n}={s}") for n, s in VARS.items())
    ps = build_program_system(PROGRAM, domains)
    return bool(program_transmits(ps, {source}, target))


def test_query_verdicts_match_cli_path():
    async def body():
        async with serving() as server:
            key = await create_session(server)
            for source, target in [
                ("secret", "out"), ("limit", "out"), ("out", "secret"),
            ]:
                status, doc = await rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": source, "target": target},
                )
                assert status == 200
                expected = "flow" if _cli_verdict(source, target) else "no_flow"
                assert doc["verdict"] == expected, (source, target, doc)
            status, doc = await rpc(server.port, "GET", "/healthz")
            assert status == 200 and doc["status"] == "ok"

    asyncio.run(body())


def test_session_reuse_and_inline_program_land_on_same_engine():
    async def body():
        async with serving() as server:
            key = await create_session(server)
            key2 = await create_session(server)
            assert key2 == key  # content-keyed: same program, one session
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"program": PROGRAM, "vars": VARS,
                 "source": "secret", "target": "out"},
            )
            assert status == 200 and doc["session"] == key
            assert server.registry.stats()["count"] == 1

    asyncio.run(body())


def test_protocol_errors():
    async def body():
        async with serving() as server:
            checks = [
                ("GET", "/nope", None, 404),
                ("PUT", "/healthz", None, 405),
                ("POST", "/v1/query", {"source": "a"}, 400),
                ("POST", "/v1/query",
                 {"session": "missing", "source": "a", "target": "b"}, 404),
                ("POST", "/v1/sessions", {"program": "", "vars": VARS}, 400),
                ("POST", "/v1/sessions",
                 {"program": "x := y +", "vars": {"x": "0,1", "y": "0,1"}},
                 400),
            ]
            for method, path, doc, expected in checks:
                status, _ = await rpc(server.port, method, path, doc)
                assert status == expected, (method, path, status)
            # Malformed JSON straight onto the socket.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 5\r\nConnection: close\r\n\r\n{{{{{"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 30)
            writer.close()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]

    asyncio.run(body())


def test_queue_saturation_sheds_instead_of_queueing():
    async def body():
        plan = faults.FaultPlan(
            specs=tuple(
                faults.FaultSpec.parse(f"delay:serve.request:{n}:0.5")
                for n in range(1, 9)
            ),
            # No stamp: each spec fires at most once in-process, and each
            # targets a distinct request ordinal anyway.
        )
        async with serving(max_concurrency=1, max_queue=1,
                           default_queue_wait_ms=150.0) as server:
            key = await create_session(server)
            with faults.active_plan(plan):
                results = await asyncio.gather(*[
                    rpc(server.port, "POST", "/v1/query",
                        {"session": key, "source": "secret", "target": "out"})
                    for _ in range(6)
                ])
            statuses = sorted(s for s, _ in results)
            # One runs, one waits (and times out of its 150ms wait while
            # the runner sleeps 500ms), the rest bounce off the full
            # queue.  Every shed is explicit, nothing hangs.
            assert statuses.count(429) >= 3, statuses
            assert all(s in (200, 429, 503) for s in statuses), statuses
            for status, doc in results:
                if status == 200:
                    assert doc["verdict"] == "flow"
                else:
                    assert doc.get("shed"), doc
            # The server recovers: next request is served normally.
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")

    asyncio.run(body())


def test_deadline_propagation_trips_to_unknown():
    async def body():
        async with serving() as server:
            key = await create_session(
                server, program=SLOW_PROGRAM, vars=SLOW_VARS
            )
            # A 1ms deadline cannot admit + compute this program's cold
            # closure (tens of ms of BFS); the budget trips cooperatively
            # and the answer is an honest 504.
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out",
                 "quota": {"deadline_ms": 1}},
            )
            assert status == 504, doc
            assert doc["verdict"] == "unknown"
            assert doc["reason"] in ("deadline", "cancelled")
            # Budget trips are never memoized: the same query with a
            # sane deadline now computes and answers correctly.
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")

    asyncio.run(body())


def test_client_state_cap_is_honest_unknown_at_200():
    async def body():
        async with serving() as server:
            key = await create_session(server)
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out",
                 "quota": {"max_states": 1}},
            )
            # The client asked for at most one expansion: trip is the
            # requested outcome, not a server failure.
            assert status == 200 and doc["verdict"] == "unknown"
            assert doc["reason"] == "max_expanded"

    asyncio.run(body())


def test_drain_finishes_inflight_and_flushes_store(tmp_path):
    async def body():
        db = str(tmp_path / "memo.db")
        async with serving(store=db) as server:
            key = await create_session(server)
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")
            await server.drain()
            assert server.drain_flushed >= 1
            with pytest.raises(OSError):
                await rpc(server.port, "GET", "/healthz")
        # A restarted server hydrates the same session warm: the closure
        # arrives as a store row, no BFS.
        async with serving(store=db) as server2:
            key2 = await create_session(server2)
            assert key2 == key
            status, doc = await rpc(
                server2.port, "POST", "/v1/query",
                {"session": key2, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")
            session = server2.registry.get(key2)
            assert session.engine.store.hits >= 1

    asyncio.run(body())


def test_prewarmed_session_answers_first_queries_from_the_store(tmp_path):
    """Prewarm computes the closures queries read — one per program
    variable under ``pc = entry`` — so with a store attached every
    variable's first query is a memo hit served from the store tier."""
    async def body():
        async with serving(store=str(tmp_path / "memo.sqlite")) as server:
            key = await create_session(server, prewarm=True)
            for source in VARS:
                target = "out" if source != "out" else "secret"
                status, doc = await rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": source, "target": target},
                )
                assert status == 200, doc
                assert "memo=hit" in doc["provenance"], (source, doc)
                assert "store=hit" in doc["provenance"], (source, doc)

    asyncio.run(body())


def test_readyz_reflects_draining():
    async def body():
        async with serving() as server:
            status, doc = await rpc(server.port, "GET", "/readyz")
            assert status == 200 and doc["ready"]
            server.draining = True  # simulate: drain() closes the socket
            status, doc = await rpc(server.port, "GET", "/readyz")
            assert status == 503 and not doc["ready"]
            server.draining = False

    asyncio.run(body())


# -- unit corners -------------------------------------------------------------


def test_quota_parsing_and_validation():
    quota = RequestQuota.from_doc(
        {"quota": {"deadline_ms": 250, "max_states": 10, "queue_wait_ms": 50}},
        5000.0, 1000.0,
    )
    assert (quota.deadline_ms, quota.max_states, quota.queue_wait_ms) == (
        250.0, 10, 50.0,
    )
    defaults = RequestQuota.from_doc({}, 5000.0, 1000.0)
    assert defaults.deadline_ms == 5000.0
    assert defaults.max_states is None
    for bad in (
        {"quota": {"deadline_ms": 0}},
        {"quota": {"deadline_ms": -5}},
        {"quota": {"max_states": 0}},
        {"quota": {"queue_wait_ms": -1}},
        {"quota": 7},
    ):
        with pytest.raises(ValueError):
            RequestQuota.from_doc(bad, 5000.0, 1000.0)


def test_admission_controller_bounds():
    async def body():
        controller = AdmissionController(max_concurrency=1, max_queue=0)
        async with controller.admit(0.1):
            with pytest.raises(ShedError) as err:
                async with controller.admit(0.1):
                    pass
            assert err.value.status == 429
        # Slot free again: admission succeeds.
        async with controller.admit(0.1):
            assert controller.inflight == 1
        assert controller.stats()["shed_queue_full"] == 1

    asyncio.run(body())
