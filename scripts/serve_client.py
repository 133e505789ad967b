#!/usr/bin/env python3
"""Worked-example client for ``repro serve`` (stdlib only).

Start a server, then talk to it::

    PYTHONPATH=src python -m repro serve --port 8080 --store memo.sqlite &
    printf 'gate := secret > limit;\\nif gate then out := 1 else out := 0' \
        > gate.prog
    python scripts/serve_client.py health --port 8080
    python scripts/serve_client.py session --port 8080 --program gate.prog \
        --var secret=0..3 --var limit=0,1 --var gate=bool --var out=0,1 \
        --prewarm
    python scripts/serve_client.py query --port 8080 \
        --session <key> --source secret --target out
    python scripts/serve_client.py stats --port 8080

``query`` mirrors the CLI's exit-code convention so scripts can compare
the two paths directly: 0 = NO FLOW, 1 = FLOW, 3 = UNKNOWN, 2 = error
(HTTP error, shed, or unreachable server).
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request

EXIT_NO_FLOW = 0
EXIT_FLOW = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3


def call(host: str, port: int, method: str, path: str,
         doc: dict | None = None, timeout: float = 60.0) -> tuple[int, dict]:
    """One HTTP round-trip; returns (status, parsed JSON body)."""
    body = None if doc is None else json.dumps(doc).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _read_port(args) -> int:
    if args.port is not None:
        return args.port
    if args.port_file:
        return int(open(args.port_file).read().strip())
    raise SystemExit("need --port or --port-file")


def cmd_health(args) -> int:
    status, doc = call(args.host, _read_port(args), "GET", "/healthz")
    print(json.dumps(doc, indent=2))
    return EXIT_NO_FLOW if status == 200 and doc.get("status") == "ok" \
        else EXIT_ERROR


def cmd_stats(args) -> int:
    _, doc = call(args.host, _read_port(args), "GET", "/stats")
    print(json.dumps(doc, indent=2))
    return EXIT_NO_FLOW


def cmd_metrics(args) -> int:
    """GET /metrics — raw Prometheus text exposition."""
    port = _read_port(args)
    request = urllib.request.Request(
        f"http://{args.host}:{port}/metrics", method="GET"
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        sys.stdout.write(response.read().decode("utf-8"))
    return EXIT_NO_FLOW


def cmd_flight(args) -> int:
    """GET /stats?flight=1 — retained failure span trees."""
    _, doc = call(args.host, _read_port(args), "GET", "/stats?flight=1")
    print(json.dumps(doc, indent=2))
    return EXIT_NO_FLOW


def cmd_session(args) -> int:
    program = open(args.program).read()
    variables = dict(v.split("=", 1) for v in args.var)
    status, doc = call(
        args.host, _read_port(args), "POST", "/v1/sessions",
        {"program": program, "vars": variables, "prewarm": args.prewarm},
    )
    print(json.dumps(doc, indent=2))
    return EXIT_NO_FLOW if status == 200 else EXIT_ERROR


def cmd_query(args) -> int:
    doc: dict = {"session": args.session, "source": args.source,
                 "target": args.target}
    quota = {}
    if args.deadline_ms is not None:
        quota["deadline_ms"] = args.deadline_ms
    if args.max_states is not None:
        quota["max_states"] = args.max_states
    if quota:
        doc["quota"] = quota
    status, body = call(args.host, _read_port(args), "POST", "/v1/query", doc)
    print(json.dumps(body, indent=2))
    verdict = body.get("verdict")
    if verdict == "flow":
        return EXIT_FLOW
    if verdict == "no_flow":
        return EXIT_NO_FLOW
    if verdict == "unknown":
        return EXIT_UNKNOWN
    return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--host", default="127.0.0.1")
    common.add_argument("--port", type=int)
    common.add_argument("--port-file",
                        help="file holding the port (repro serve --port-file)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("health", help="GET /healthz",
                   parents=[common]).set_defaults(fn=cmd_health)
    sub.add_parser("stats", help="GET /stats",
                   parents=[common]).set_defaults(fn=cmd_stats)
    sub.add_parser("metrics", help="GET /metrics (Prometheus text)",
                   parents=[common]).set_defaults(fn=cmd_metrics)
    sub.add_parser("flight", help="GET /stats?flight=1 (post-mortems)",
                   parents=[common]).set_defaults(fn=cmd_flight)

    session = sub.add_parser("session", help="POST /v1/sessions",
                             parents=[common])
    session.add_argument("--program", required=True,
                         help="program file (mini-language)")
    session.add_argument("--var", action="append", default=[],
                         metavar="NAME=SPEC", help="domain, e.g. x=0..3")
    session.add_argument("--prewarm", action="store_true",
                         help="compute each program variable's entry "
                         "closure now")
    session.set_defaults(fn=cmd_session)

    query = sub.add_parser("query", help="POST /v1/query", parents=[common])
    query.add_argument("--session", required=True)
    query.add_argument("--source", required=True)
    query.add_argument("--target", required=True)
    query.add_argument("--deadline-ms", type=float)
    query.add_argument("--max-states", type=int)
    query.set_defaults(fn=cmd_query)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
