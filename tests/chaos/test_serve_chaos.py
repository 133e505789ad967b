"""Chaos suite for the serve layer (PR-9 tentpole acceptance).

Under injected request errors, store corruption, queue saturation and
deadline storms the service must return only **correct verdicts or
explicit UNKNOWNs** — verified against the CLI-path reference — while
``/healthz`` reports a degraded store and a drain under load loses no
completed closure.  A wedged server (any request without a response)
fails these tests by timeout.
"""

from __future__ import annotations

import asyncio
import os
import random

from repro.cli import parse_domain
from repro.core import faults
from repro.systems.program import build_program_system, program_transmits

from tests.serve.helpers import PROGRAM, VARS, create_session, rpc, serving

#: The CLI-path reference verdicts every chaos response is checked
#: against ("flow"/"no_flow" by (source, target)).
_DOMAINS = dict(parse_domain(f"{n}={s}") for n, s in VARS.items())
_REFERENCE_PS = build_program_system(PROGRAM, _DOMAINS)
REFERENCE = {
    (source, target): bool(program_transmits(_REFERENCE_PS, {source}, target))
    for source in _DOMAINS
    for target in _DOMAINS
}


def _check_response(status: int, doc: dict, source: str, target: str) -> None:
    """The chaos invariant: correct verdict or explicit UNKNOWN."""
    if status == 200 and doc.get("verdict") in ("flow", "no_flow"):
        expected = "flow" if REFERENCE[(source, target)] else "no_flow"
        assert doc["verdict"] == expected, (source, target, doc)
    elif status in (200, 504):
        assert doc.get("verdict") == "unknown", doc
    else:
        assert status in (429, 503), (status, doc)


def test_store_corruption_mid_session_degrades_not_lies(tmp_path):
    async def body():
        db = tmp_path / "memo.db"
        async with serving(store=str(db)) as server:
            key = await create_session(server)
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")
            # Kill the live handle, then scribble over the database and
            # its WAL sidecars.  Order matters for the simulation: an
            # open connection masks on-disk corruption behind its page
            # cache, and closing *after* corrupting heals the file from
            # the WAL checkpoint.  The store reconnects lazily on its
            # next touch and meets the garbage.
            server.registry.get(key).engine.store.close()
            db.write_bytes(b"\x00" * 512 + os.urandom(512))
            for side in (f"{db}-wal", f"{db}-shm"):
                if os.path.exists(side):
                    os.unlink(side)
            # Every verdict stays correct: the store degrades to the
            # in-memory path on its first failed touch, never raises,
            # and the engine recomputes what it can no longer load.
            for (source, target), flows in REFERENCE.items():
                status, doc = await rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": source, "target": target},
                )
                assert status == 200, doc
                assert doc["verdict"] == ("flow" if flows else "no_flow")
            status, health = await rpc(server.port, "GET", "/healthz")
            assert health["store_degraded"]
            assert health["status"] == "degraded"

    asyncio.run(body())


def test_deadline_storm_yields_only_correct_or_unknown():
    async def body():
        rng = random.Random(1977)
        pairs = list(REFERENCE)
        async with serving(max_concurrency=2, max_queue=4,
                           default_queue_wait_ms=100.0) as server:
            key = await create_session(server)

            async def one(i: int):
                source, target = pairs[i % len(pairs)]
                status, doc = await rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": source, "target": target,
                     "quota": {"deadline_ms": rng.choice((1, 2, 5, 50))}},
                )
                _check_response(status, doc, source, target)
                return status

            statuses = await asyncio.gather(*[one(i) for i in range(24)])
            assert len(statuses) == 24  # every request got an answer
            # The storm over, a normal request answers normally.
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")
            _, health = await rpc(server.port, "GET", "/healthz")
            assert health["status"] == "ok"

    asyncio.run(body())


def test_queue_saturation_with_injected_stalls_never_wedges():
    async def body():
        plan = faults.FaultPlan(
            specs=tuple(
                faults.FaultSpec.parse(f"delay:serve.request:{n}:0.4")
                for n in range(1, 4)
            ),
        )
        async with serving(max_concurrency=1, max_queue=2,
                           default_queue_wait_ms=200.0) as server:
            key = await create_session(server)
            with faults.active_plan(plan):
                results = await asyncio.gather(*[
                    rpc(server.port, "POST", "/v1/query",
                        {"session": key, "source": "secret", "target": "out"})
                    for _ in range(10)
                ])
            for status, doc in results:
                _check_response(status, doc, "secret", "out")
            shed = sum(1 for s, _ in results if s in (429, 503))
            served = sum(1 for s, _ in results if s == 200)
            assert shed >= 1 and served >= 1, [s for s, _ in results]

    asyncio.run(body())


def test_injected_request_error_is_named_never_a_verdict():
    async def body():
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec.parse("err:serve.request:1"),)
        )
        async with serving() as server:
            key = await create_session(server)
            with faults.active_plan(plan):
                status, doc = await rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": "secret", "target": "out"},
                )
            assert status == 500
            assert "InjectedFaultError" in doc["error"]
            assert "verdict" not in doc
            # And the next request is fine.
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")

    asyncio.run(body())


def test_drain_under_load_loses_no_completed_closure(tmp_path):
    async def body():
        db = str(tmp_path / "memo.db")
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec.parse("delay:serve.request:2:0.6"),)
        )
        async with serving(store=db, drain_grace_seconds=3.0) as server:
            key = await create_session(server)
            status, doc = await rpc(
                server.port, "POST", "/v1/query",
                {"session": key, "source": "secret", "target": "out"},
            )
            assert (status, doc["verdict"]) == (200, "flow")
            with faults.active_plan(plan):
                slow = asyncio.create_task(rpc(
                    server.port, "POST", "/v1/query",
                    {"session": key, "source": "limit", "target": "out"},
                ))
                await asyncio.sleep(0.15)  # let it get in flight
                await server.drain()
                try:
                    status, doc = await slow
                    _check_response(status, doc, "limit", "out")
                except OSError:
                    pass  # connection torn down by exit: no wrong answer
            assert server.drain_flushed >= 1
        # The completed closure survived the drain.
        from repro.core.store import PersistentStore

        with PersistentStore(db) as store:
            assert store.stats()["rows"]["closures"] >= 1

    asyncio.run(body())
