"""Shared plumbing for the service tests: an in-process server context
and a tiny raw-socket JSON client (the tests deliberately speak HTTP
bytes themselves, so the server's wire format is part of the contract).
"""

from __future__ import annotations

import asyncio
import json
from contextlib import asynccontextmanager

from repro.serve.app import ReproServer, ServeConfig

PROGRAM = "gate := secret > limit;\nif gate then out := 1 else out := 0"
VARS = {"secret": "0..3", "limit": "0,1", "gate": "bool", "out": "0,1"}

#: A program whose cold ``secret -> out`` closure is 174,930 pairs over
#: 3,430 states: tens of milliseconds of BFS on the bitset kernel and
#: hundreds on the scalar loop, so a 1 ms deadline always trips at one
#: of the budget checks the BFS makes (every 64 expansions under a serve
#: quota, or every frontier chunk on the bitset kernel).
SLOW_PROGRAM = (
    "while go do { acc := (acc * 3 + secret) % 7; out := (out + acc) % 7 }"
)
SLOW_VARS = {"secret": "0..6", "acc": "0..6", "out": "0..6", "go": "bool"}


async def rpc(
    port: int,
    method: str,
    path: str,
    doc: dict | None = None,
    host: str = "127.0.0.1",
) -> tuple[int, dict]:
    """One request over a fresh connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if doc is None else json.dumps(doc).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 60)
    finally:
        writer.close()
    header, _, payload = raw.partition(b"\r\n\r\n")
    return int(header.split()[1]), json.loads(payload)


@asynccontextmanager
async def serving(**overrides):
    """A started :class:`ReproServer` on an ephemeral port; drains on
    exit unless the test already drained it."""
    config = ServeConfig(port=0, **overrides)
    server = ReproServer(config)
    await server.start()
    try:
        yield server
    finally:
        if not server.draining:
            await server.drain()


async def create_session(
    server, prewarm: bool = False, program: str = PROGRAM, vars: dict = VARS
) -> str:
    status, doc = await rpc(
        server.port,
        "POST",
        "/v1/sessions",
        {"program": program, "vars": vars, "prewarm": prewarm},
    )
    assert status == 200, doc
    return doc["session"]
