"""Command-line interface: information-flow queries on mini-language
programs.

Usage::

    python -m repro program FILE --var secret=0..3 --var public=0,1 \\
        --source secret --target public [--entry "secret <= 1"]

    python -m repro taint FILE --var ... --source secret

    python -m repro quantify FILE --var ... --source secret \\
        --target public [--capacity] [--json OUT.json]

``program`` decides exact strong dependency on the compiled flowchart
system (pair-graph, all histories) and prints a witness run when a flow
exists.  ``taint`` runs the syntactic taint closure for comparison.
``quantify`` computes the section 7.4 bits-transmitted measures (both
the equivocation and the averaged measure, optionally Blahut-Arimoto
channel capacity) on the compiled quantitative substrate, with JSON
output validating against ``docs/quantify.schema.json``.

Domains: ``name=lo..hi`` (integer range, inclusive), ``name=v1,v2,...``
(explicit integers), or ``name=bool``.

Resource governance: ``program`` accepts ``--budget-seconds`` and
``--budget-states``; when the governed search exhausts its budget the
verdict is ``UNKNOWN`` (exit code 3 — distinct from flow/1, no-flow/0
and error/2), with the partial-result snapshot printed.
``--execution-report`` appends the engine's execution log (expansions,
fan-out degradations) to any outcome (``program`` and ``taint``).

Observability: ``--trace FILE`` (``program`` and ``taint``) enables the
telemetry collector for the run and writes a Chrome ``chrome://tracing``
JSON trace on exit — including the UNKNOWN/exit-3 path, so a
budget-exhausted run still explains where the time went.  ``repro stats
TRACE`` summarizes a written trace (per-span timing, counters, gauges).
``program`` verdicts also print their provenance line (kernel path, memo
outcome, budget state).

Persistence: ``--store PATH`` (or the ``REPRO_STORE`` environment
variable) attaches a disk-backed closure store to ``program``, ``diff``
and ``serve``, so a repeat query in a new process is a row fetch instead
of a recompute.  ``repro diff OLD NEW``
compares two versions of a program, reuses every closure the delta left
intact, and reports which verdicts changed (exit 1 when any did).
``repro stats --store PATH`` reports the store's contents.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro import obs
from repro.baselines.taint import taint_closure
from repro.core.budget import (
    BudgetExceededError,
    CancellationToken,
    ExecutionBudget,
)
from repro.core.constraints import Constraint
from repro.core.engine import shared_engine
from repro.core.errors import ReproError
from repro.core.signals import EXIT_INTERRUPTED, interrupt_token
from repro.core.state import Value
from repro.systems.program import (
    build_program_system,
    parse_expr,
    program_transmits,
)

#: Exit code for a budget-exhausted (UNKNOWN) verdict.
EXIT_UNKNOWN = 3


def parse_domain(spec: str) -> tuple[str, tuple[Value, ...]]:
    """Parse one ``--var`` specification."""
    if "=" not in spec:
        raise argparse.ArgumentTypeError(
            f"--var needs name=domain, got {spec!r}"
        )
    name, _, body = spec.partition("=")
    name = name.strip()
    body = body.strip()
    if not name:
        raise argparse.ArgumentTypeError(f"empty variable name in {spec!r}")
    if body == "bool":
        return name, (False, True)
    if ".." in body:
        lo_text, _, hi_text = body.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad range in {spec!r}"
            ) from None
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range in {spec!r}")
        return name, tuple(range(lo, hi + 1))
    try:
        values = tuple(int(part) for part in body.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad values in {spec!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {spec!r}")
    return name, values


def _read_program(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _build(args: argparse.Namespace):
    source_text = _read_program(args.file)
    domains = dict(parse_domain(spec) for spec in args.var)
    return build_program_system(source_text, domains)


def _store_path(args: argparse.Namespace) -> str | None:
    """Resolve the persistent-store path: ``--store`` wins, then the
    ``REPRO_STORE`` environment variable, else no store."""
    return getattr(args, "store", None) or os.environ.get("REPRO_STORE") or None


def _attach_store(args: argparse.Namespace, ps) -> None:
    path = _store_path(args)
    if path:
        shared_engine(ps.system).attach_store(path)


def _parse_budget(
    args: argparse.Namespace,
    token: CancellationToken | None = None,
) -> ExecutionBudget | None:
    max_seconds = getattr(args, "budget_seconds", None)
    max_expanded = getattr(args, "budget_states", None)
    if max_seconds is None and max_expanded is None and token is None:
        return None
    return ExecutionBudget(
        max_seconds=max_seconds, max_expanded=max_expanded, token=token
    )


def _flush_on_interrupt(ps) -> None:
    """Persist already-completed closures after a cooperative interrupt,
    so the work a cancelled sweep did finish survives the exit (only
    meaningful when a store is attached)."""
    engine = shared_engine(ps.system)
    if engine.store is None:
        return
    written = engine.persist_memos()
    print(f"interrupted: flushed {written} completed memo(s) to the store",
          file=sys.stderr)


def _print_execution_report(ps) -> None:
    print(shared_engine(ps.system).execution_log.describe())


def _dump_cache_stats(args: argparse.Namespace, ps) -> None:
    """Write the shared engine's ``cache_stats()`` as JSON when
    ``--cache-stats FILE`` was given.  Runs in ``finally`` so the
    UNKNOWN/exit-3 path still reports what the caches held."""
    path = getattr(args, "cache_stats", None)
    if not path or ps is None:
        return
    import json

    stats = shared_engine(ps.system).cache_stats()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"cache stats written: {path}", file=sys.stderr)


def _start_trace(args: argparse.Namespace) -> str | None:
    """Enable telemetry when ``--trace FILE`` was given; returns the
    target path (or ``None``)."""
    path = getattr(args, "trace", None)
    if path:
        obs.enable(reset=True)
    return path


def _finish_trace(path: str | None) -> None:
    """Write the collected trace.  Runs in ``finally`` so the exit-3
    (UNKNOWN) and error paths still produce a loadable trace."""
    if path:
        obs.export.write_chrome_trace(path)
        print(f"trace written: {path}", file=sys.stderr)


def cmd_program(args: argparse.Namespace) -> int:
    trace = _start_trace(args)
    try:
        return _run_program(args)
    finally:
        _finish_trace(trace)


def _run_program(args: argparse.Namespace) -> int:
    # The interrupt scope covers the build too: a Ctrl-C during system
    # construction cancels the token, and the governed search trips at
    # its first budget check (a second Ctrl-C force-kills as usual).
    with interrupt_token() as token:
        ps = _build(args)
        _attach_store(args, ps)
        try:
            return _decide_program(args, ps, token)
        finally:
            _dump_cache_stats(args, ps)


def _decide_program(
    args: argparse.Namespace, ps, token: CancellationToken | None = None
) -> int:
    entry = None
    if args.entry:
        expr = parse_expr(args.entry)
        entry = Constraint(
            ps.space, lambda s: bool(expr.eval(s)), name=args.entry
        )
    label = f" given {args.entry!r}" if args.entry else ""
    try:
        budget = _parse_budget(args, token)
        result = program_transmits(
            ps, {args.source}, args.target, entry, budget
        )
    except BudgetExceededError as exc:
        if exc.partial.reason == "cancelled":
            print(f"INTERRUPTED: {args.source} |>? {args.target}{label}")
            print(exc.partial.describe())
            _flush_on_interrupt(ps)
            if args.execution_report:
                _print_execution_report(ps)
            return EXIT_INTERRUPTED
        print(f"UNKNOWN: {args.source} |>? {args.target}{label}")
        print(exc.partial.describe())
        print("(rerun with a larger --budget-seconds/--budget-states "
              "to refine)")
        if args.execution_report:
            _print_execution_report(ps)
        return EXIT_UNKNOWN
    if result.provenance is not None:
        provenance_line = f"[{result.provenance.describe()}]"
    else:
        provenance_line = ""
    if result:
        print(f"FLOW: {args.source} |> {args.target}{label}")
        if provenance_line:
            print(provenance_line)
        print(result.witness.describe())
        if args.execution_report:
            _print_execution_report(ps)
        return 1
    print(f"NO FLOW: {args.source} cannot transmit to {args.target}{label}")
    if provenance_line:
        print(provenance_line)
    if args.execution_report:
        _print_execution_report(ps)
    return 0


def cmd_quantify(args: argparse.Namespace) -> int:
    trace = _start_trace(args)
    try:
        return _run_quantify(args)
    finally:
        _finish_trace(trace)


def _run_quantify(args: argparse.Namespace) -> int:
    with interrupt_token() as token:
        ps = _build(args)
        try:
            return _decide_quantify(args, ps, token)
        finally:
            _dump_cache_stats(args, ps)


_QUANTIFY_MEASURES = (
    "source_entropy",
    "bits_transmitted",
    "equivocation",
    "bits_transmitted_averaged",
    "capacity",
)


def _write_quantify_json(args: argparse.Namespace, doc: dict) -> None:
    path = getattr(args, "json", None)
    if not path:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written: {path}", file=sys.stderr)


def _decide_quantify(
    args: argparse.Namespace, ps, token: CancellationToken | None = None
) -> int:
    from repro.core.system import History
    from repro.quantitative.compiled import QuantEngine

    entry = None
    if args.entry:
        expr = parse_expr(args.entry)
        entry = Constraint(
            ps.space, lambda s: bool(expr.eval(s)), name=args.entry
        )
    phi = ps.entry_constraint(entry)
    system = ps.system
    if args.history:
        names = [n.strip() for n in args.history.split(",") if n.strip()]
        history = system.history(*names)
    else:
        # Each operation once, in program order — one full run of a
        # straight-line flowchart.  Loops/branches need an explicit
        # --history.
        history = History(system.operations)
    sources = sorted(set(args.source))
    engine = shared_engine(system)
    doc = {
        "schema_version": 1,
        "program": args.file,
        "sources": sources,
        "target": args.target,
        "history": [op.name for op in history],
        "states": system.space.size,
        "verdict": "ok",
        "measures": dict.fromkeys(_QUANTIFY_MEASURES),
        "partial": None,
    }
    try:
        quant = QuantEngine(engine=engine, budget=_parse_budget(args, token))
        dist = quant.uniform(phi)
        doc["support"] = len(dist)
        measures = doc["measures"]
        measures["source_entropy"] = quant.source_entropy(dist, sources)
        measures["bits_transmitted"] = quant.bits_transmitted(
            dist, sources, args.target, history
        )
        measures["equivocation"] = (
            measures["source_entropy"] - measures["bits_transmitted"]
        )
        measures["bits_transmitted_averaged"] = (
            quant.bits_transmitted_averaged(
                dist, sources, args.target, history
            )
        )
        if args.capacity:
            measures["capacity"] = quant.capacity(
                dist, sources, args.target, history
            )
    except BudgetExceededError as exc:
        doc["verdict"] = "unknown"
        doc["measures"] = dict.fromkeys(_QUANTIFY_MEASURES)
        doc.setdefault("support", None)
        doc["partial"] = {
            "label": exc.partial.label,
            "reason": exc.partial.reason,
            "expanded": exc.partial.expanded,
            "discovered": exc.partial.discovered,
            "elapsed": exc.partial.elapsed,
        }
        if exc.partial.reason == "cancelled":
            print(f"INTERRUPTED: b({'+'.join(sources)} -> {args.target}) "
                  "cancelled by signal")
            print(exc.partial.describe())
            _write_quantify_json(args, doc)
            return EXIT_INTERRUPTED
        print(f"UNKNOWN: b({'+'.join(sources)} -> {args.target}) not "
              "determined within budget")
        print(exc.partial.describe())
        print("(rerun with a larger --budget-seconds/--budget-states "
              "to refine)")
        _write_quantify_json(args, doc)
        return EXIT_UNKNOWN
    measures = doc["measures"]
    print(f"quantify {'+'.join(sources)} -> {args.target} "
          f"over H={','.join(doc['history'])} "
          f"({doc['support']} of {doc['states']} states)")
    print(f"  source entropy:    {measures['source_entropy']:.6g} bits")
    print(f"  bits transmitted:  {measures['bits_transmitted']:.6g} "
          "(equivocation measure)")
    print(f"  equivocation:      {measures['equivocation']:.6g} bits")
    print(f"  averaged measure:  {measures['bits_transmitted_averaged']:.6g} "
          "bits")
    if measures["capacity"] is not None:
        print(f"  channel capacity:  {measures['capacity']:.6g} bits/use")
    _write_quantify_json(args, doc)
    return 0


def cmd_taint(args: argparse.Namespace) -> int:
    trace = _start_trace(args)
    ps = None
    try:
        ps = _build(args)
        tainted = taint_closure(ps.system, {args.source})
        print(f"taint closure from {args.source!r}:")
        for name in sorted(tainted):
            print(f"  {name}")
        if args.execution_report:
            _print_execution_report(ps)
        return 0
    finally:
        _dump_cache_stats(args, ps)
        _finish_trace(trace)


def _fmt_pctl(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1000.0:.3f}"


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a trace written by ``--trace`` (either format), a
    service access log (``{"type": "access"}`` JSONL), a flight-recorder
    dump (``--flight FILE``), and/or a persistent store's contents
    (``--store PATH``)."""
    import json

    from repro.analysis.report import Table

    if args.flight:
        with open(args.flight, encoding="utf-8") as handle:
            doc = json.load(handle)
        records = doc.get("flight", doc) if isinstance(doc, dict) else doc
        if not isinstance(records, list):
            print("error: not a flight dump", file=sys.stderr)
            return 2
        table = Table(
            ["trace", "reason", "status", "path", "ms", "spans"]
        )
        for rec in records:
            table.add(
                rec.get("trace", "?"),
                rec.get("reason", "?"),
                rec.get("status", "?"),
                rec.get("path", ""),
                "-" if rec.get("duration_ms") is None
                else f"{rec['duration_ms']:.1f}",
                len(rec.get("spans", [])),
            )
        print(table.render())
        for rec in records:
            spans = rec.get("spans", [])
            if not spans:
                continue
            print(f"\ntrace {rec.get('trace', '?')} "
                  f"[{rec.get('reason', '?')}]:")
            children: dict = {}
            for s in spans:
                children.setdefault(s.get("parent"), []).append(s)
            span_ids = {s.get("id") for s in spans}

            def walk(parent, depth: int) -> None:
                for s in sorted(
                    children.get(parent, []),
                    key=lambda s: s.get("ts_us", 0.0),
                ):
                    print(
                        f"  {'  ' * depth}{s['name']}  "
                        f"{s.get('dur_us', 0.0) / 1000.0:.3f}ms"
                        f"  pid={s.get('pid')}"
                    )
                    walk(s.get("id"), depth + 1)

            # Roots: no parent, or a parent outside the captured tree.
            roots = [
                s for s in spans
                if s.get("parent") is None
                or s.get("parent") not in span_ids
            ]
            for root in sorted(roots, key=lambda s: s.get("ts_us", 0.0)):
                print(
                    f"  {root['name']}  "
                    f"{root.get('dur_us', 0.0) / 1000.0:.3f}ms"
                    f"  pid={root.get('pid')}"
                )
                walk(root.get("id"), 1)
        if not args.trace_file and not args.store:
            return 0
    if args.store:
        from repro.core.store import PersistentStore

        store = PersistentStore(args.store)
        try:
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
        finally:
            store.close()
        if not args.trace_file:
            return 0
    if not args.trace_file:
        print(
            "error: give a trace file and/or --store PATH (or --flight FILE)",
            file=sys.stderr,
        )
        return 2
    events = obs.export.load_trace(args.trace_file)
    summary = obs.export.aggregate(events)
    spans = sorted(
        summary["spans"].items(),
        key=lambda item: item[1]["total_us"],
        reverse=True,
    )
    if args.top:
        spans = spans[: args.top]
    table = Table(["span", "count", "total ms", "max ms"])
    for name, stat in spans:
        table.add(
            name,
            stat["count"],
            f"{stat['total_us'] / 1000.0:.3f}",
            f"{stat['max_us'] / 1000.0:.3f}",
        )
    if summary["spans"]:
        print(table.render())
    if summary["counters"]:
        counters = Table(["counter", "value"])
        for name in sorted(summary["counters"]):
            counters.add(name, summary["counters"][name])
        print(counters.render())
    if summary["gauges"]:
        gauges = Table(["gauge (high-water)", "value"])
        for name in sorted(summary["gauges"]):
            gauges.add(name, summary["gauges"][name])
        print(gauges.render())
    if summary.get("hists"):
        hists = Table(
            ["histogram", "count", "p50 ms", "p95 ms", "p99 ms", "mean ms"]
        )
        for name in sorted(summary["hists"]):
            stat = summary["hists"][name]
            mean = (
                stat["sum_seconds"] / stat["count"] if stat["count"] else 0.0
            )
            hists.add(
                name,
                stat["count"],
                _fmt_pctl(stat["p50"]),
                _fmt_pctl(stat["p95"]),
                _fmt_pctl(stat["p99"]),
                f"{mean * 1000.0:.3f}",
            )
        print(hists.render())
    if summary.get("access"):
        access = summary["access"]
        statuses = ", ".join(
            f"{status}:{count}"
            for status, count in sorted(access["statuses"].items())
        )
        print(
            f"access: {access['count']} requests "
            f"({access['traced']} traced)  [{statuses}]"
        )
        if "p50_ms" in access:
            print(
                f"access latency ms: p50={access['p50_ms']:.3f} "
                f"p95={access['p95_ms']:.3f} p99={access['p99_ms']:.3f}"
            )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two versions of a program: which verdicts changed?

    Builds both flowchart systems over the same variable domains, reuses
    every closure whose touched states avoid the delta (recomputing only
    the invalidated frontier — against a ``--store``, surviving closures
    are carried across as row fetches), and reports the flipped
    verdicts.  Exit 0 when no verdict changed, 1 when any did.
    """
    from repro.analysis.diff import diff_systems

    domains = dict(parse_domain(spec) for spec in args.var)
    ps_old = build_program_system(_read_program(args.old_file), domains)
    ps_new = build_program_system(_read_program(args.new_file), domains)
    extra_old = extra_new = None
    if args.entry:
        expr = parse_expr(args.entry)
        extra_old = Constraint(
            ps_old.space, lambda s: bool(expr.eval(s)), name=args.entry
        )
        extra_new = Constraint(
            ps_new.space, lambda s: bool(expr.eval(s)), name=args.entry
        )
    phi_old = ps_old.entry_constraint(extra_old)
    phi_new = ps_new.entry_constraint(extra_new)
    report = diff_systems(
        ps_old.system,
        ps_new.system,
        constraints=[(phi_old, phi_new)],
        sources=[[name] for name in sorted(domains)],
        store=_store_path(args),
    )
    print(report.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json_text())
            handle.write("\n")
        print(f"diff report written: {args.json}", file=sys.stderr)
    return 1 if report.changed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived analysis service (see docs/SERVICE.md)."""
    import asyncio

    from repro.serve.app import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        store=_store_path(args),
        workers=args.workers,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        default_queue_wait_ms=args.default_queue_wait_ms,
        drain_grace_seconds=args.drain_grace_seconds,
        access_log=args.access_log,
        flight_capacity=args.flight_capacity,
        slow_request_ms=args.slow_request_ms,
    )
    server = ReproServer(config)
    asyncio.run(server.run(port_file=args.port_file))
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    """Print the exact information-flow graph of a program as dot."""
    from repro.analysis.graph import exact_flow_graph, render_dot

    ps = _build(args)
    entry = None
    if args.entry:
        expr = parse_expr(args.entry)
        entry = Constraint(
            ps.space, lambda s: bool(expr.eval(s)), name=args.entry
        )
    phi = ps.entry_constraint(entry)
    graph = exact_flow_graph(ps.system, phi)
    print(render_dot(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Strong-dependency information-flow analysis "
        "(Cohen, SOSP 1977)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_target: bool) -> None:
        p.add_argument("file", help="mini-language program file, or - for stdin")
        p.add_argument(
            "--var",
            action="append",
            default=[],
            metavar="NAME=DOMAIN",
            help="variable domain: lo..hi, v1,v2,..., or bool (repeatable)",
        )
        p.add_argument("--source", required=True, help="source object A")
        if need_target:
            p.add_argument("--target", required=True, help="target object beta")

    p_program = sub.add_parser(
        "program", help="exact strong dependency on the compiled flowchart"
    )
    common(p_program, need_target=True)
    p_program.add_argument(
        "--entry",
        help="entry assertion (mini-language boolean expression)",
    )
    p_program.add_argument(
        "--budget-seconds",
        type=float,
        metavar="S",
        help="wall-clock budget for the governed search; exhaustion "
        "prints UNKNOWN and exits 3",
    )
    p_program.add_argument(
        "--budget-states",
        type=int,
        metavar="N",
        help="max pair-node expansions for the governed search; "
        "exhaustion prints UNKNOWN and exits 3",
    )
    p_program.add_argument(
        "--execution-report",
        action="store_true",
        help="print the engine's execution log (expansions, "
        "degradations) after the verdict",
    )
    p_program.add_argument(
        "--trace",
        metavar="FILE",
        help="enable telemetry and write a Chrome trace JSON on exit "
        "(including the UNKNOWN/exit-3 path); summarize with "
        "`repro stats FILE`",
    )
    p_program.add_argument(
        "--cache-stats",
        metavar="FILE",
        help="write the engine's cache statistics (sizes, capacities, "
        "evictions) as JSON on exit",
    )
    p_program.add_argument(
        "--store",
        metavar="PATH",
        help="attach a persistent memo store (sqlite) so repeat queries "
        "in new processes start warm; REPRO_STORE is the env fallback",
    )
    p_program.set_defaults(handler=cmd_program)

    p_quantify = sub.add_parser(
        "quantify",
        help="section 7.4 bits-transmitted measures on the compiled "
        "quantitative substrate",
    )
    p_quantify.add_argument(
        "file", help="mini-language program file, or - for stdin"
    )
    p_quantify.add_argument(
        "--var",
        action="append",
        default=[],
        metavar="NAME=DOMAIN",
        help="variable domain: lo..hi, v1,v2,..., or bool (repeatable)",
    )
    p_quantify.add_argument(
        "--source",
        action="append",
        required=True,
        metavar="NAME",
        help="source object (repeatable: the set A)",
    )
    p_quantify.add_argument(
        "--target", required=True, help="target object beta"
    )
    p_quantify.add_argument(
        "--entry",
        help="entry assertion (mini-language boolean expression); the "
        "initial distribution is uniform over sat(entry & pc=entry)",
    )
    p_quantify.add_argument(
        "--history",
        metavar="OP1,OP2,...",
        help="operation names of the fixed history H (default: every "
        "operation once, in program order)",
    )
    p_quantify.add_argument(
        "--capacity",
        action="store_true",
        help="also solve the Blahut-Arimoto channel capacity (one "
        "channel input per source-value combination; opt-in because "
        "the input set is the product of the source domains)",
    )
    p_quantify.add_argument(
        "--json",
        metavar="FILE",
        help="also write the report as JSON (docs/quantify.schema.json)",
    )
    p_quantify.add_argument(
        "--budget-seconds",
        type=float,
        metavar="S",
        help="wall-clock budget for the governed sweeps; exhaustion "
        "prints UNKNOWN (null measures) and exits 3",
    )
    p_quantify.add_argument(
        "--budget-states",
        type=int,
        metavar="N",
        help="max states scanned by the governed sweeps; exhaustion "
        "prints UNKNOWN (null measures) and exits 3",
    )
    p_quantify.add_argument(
        "--trace",
        metavar="FILE",
        help="enable telemetry and write a Chrome trace JSON on exit",
    )
    p_quantify.add_argument(
        "--cache-stats",
        metavar="FILE",
        help="write the engine's cache statistics as JSON on exit",
    )
    p_quantify.set_defaults(handler=cmd_quantify)

    p_taint = sub.add_parser(
        "taint", help="syntactic taint closure (baseline)"
    )
    common(p_taint, need_target=False)
    p_taint.add_argument(
        "--execution-report",
        action="store_true",
        help="print the engine's execution log after the closure",
    )
    p_taint.add_argument(
        "--trace",
        metavar="FILE",
        help="enable telemetry and write a Chrome trace JSON on exit",
    )
    p_taint.add_argument(
        "--cache-stats",
        metavar="FILE",
        help="write the engine's cache statistics as JSON on exit",
    )
    p_taint.set_defaults(handler=cmd_taint)

    p_stats = sub.add_parser(
        "stats",
        help="summarize a telemetry trace written by --trace and/or a "
        "persistent store",
    )
    p_stats.add_argument(
        "trace_file",
        nargs="?",
        default=None,
        help="Chrome trace JSON or JSONL file to summarize",
    )
    p_stats.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="show only the N spans with the largest total time",
    )
    p_stats.add_argument(
        "--store",
        metavar="PATH",
        help="report a persistent memo store's contents (rows, bytes, "
        "hit counters) as JSON",
    )
    p_stats.add_argument(
        "--flight",
        metavar="FILE",
        help="pretty-print a flight-recorder dump (the JSON from "
        "GET /stats?flight=1): one row per retained failure plus its "
        "span tree",
    )
    p_stats.set_defaults(handler=cmd_stats)

    p_diff = sub.add_parser(
        "diff",
        help="compare two program versions: reuse surviving closures, "
        "recompute the invalidated frontier, report changed verdicts",
    )
    p_diff.add_argument(
        "old_file", help="old program version, or - for stdin"
    )
    p_diff.add_argument("new_file", help="new program version")
    p_diff.add_argument(
        "--var",
        action="append",
        default=[],
        metavar="NAME=DOMAIN",
        help="variable domain: lo..hi, v1,v2,..., or bool (repeatable; "
        "shared by both versions)",
    )
    p_diff.add_argument(
        "--entry",
        help="entry assertion applied to both versions",
    )
    p_diff.add_argument(
        "--store",
        metavar="PATH",
        help="persistent memo store shared by both versions "
        "(REPRO_STORE is the env fallback)",
    )
    p_diff.add_argument(
        "--json",
        metavar="FILE",
        help="also write the report as JSON (docs/diff.schema.json)",
    )
    p_diff.set_defaults(handler=cmd_diff)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived HTTP/JSON analysis service with warm sessions, "
        "admission control and graceful drain (docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 = ephemeral; see --port-file)",
    )
    p_serve.add_argument(
        "--port-file",
        metavar="FILE",
        help="write the bound port here once listening (for scripts "
        "that start the server on an ephemeral port)",
    )
    p_serve.add_argument(
        "--store",
        metavar="PATH",
        help="persistent memo store shared by all sessions; a restarted "
        "server answers warm from it (REPRO_STORE is the env fallback)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="executor threads running engine work (default 4)",
    )
    p_serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="requests executing at once; more wait in the queue",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait; beyond this, shed with 429",
    )
    p_serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=5000.0,
        help="per-request deadline when the quota omits one",
    )
    p_serve.add_argument(
        "--default-queue-wait-ms",
        type=float,
        default=1000.0,
        help="per-request queue-wait quota when the quota omits one",
    )
    p_serve.add_argument(
        "--drain-grace-seconds",
        type=float,
        default=5.0,
        help="SIGTERM drain: seconds to let in-flight requests finish "
        "before cancelling their budgets",
    )
    p_serve.add_argument(
        "--access-log",
        metavar="FILE",
        help="append one JSON line per request (trace id, status, "
        "queue wait) here; always also kept in a bounded in-memory "
        "ring served under /stats",
    )
    p_serve.add_argument(
        "--flight-capacity",
        type=int,
        default=64,
        help="failed-request span trees retained for post-mortems "
        "(GET /stats?flight=1; default 64)",
    )
    p_serve.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        help="also flight-record successful requests slower than this",
    )
    p_serve.set_defaults(handler=cmd_serve)

    p_flows = sub.add_parser(
        "flows", help="exact information-flow graph (GraphViz dot)"
    )
    p_flows.add_argument(
        "file", help="mini-language program file, or - for stdin"
    )
    p_flows.add_argument(
        "--var",
        action="append",
        default=[],
        metavar="NAME=DOMAIN",
        help="variable domain: lo..hi, v1,v2,..., or bool (repeatable)",
    )
    p_flows.add_argument(
        "--entry",
        help="entry assertion (mini-language boolean expression)",
    )
    p_flows.set_defaults(handler=cmd_flows)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
