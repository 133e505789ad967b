"""A3 (perf): induction provers on the batched fixed-history kernel.

The paper's scalability story is Strong Dependency Induction: reduce the
for-all-histories question to per-operation obligations (Cor 4-3,
Thm 6-7).  Before PR 3 those obligations were the *slow* path — one
``transmits`` call per (operation, source, target) triple, each
re-enumerating sat(phi) and re-executing operation lambdas.  This bench
measures the two certification workloads the issue names, seed vs
batched, on the same systems in the same run:

- **lattice** — Corollary 4-3 over all object pairs on an n-object xor
  *chain* (``x_{i+1} += x_i``) with the level order
  ``q(x_i, x_j) = i <= j``: the multilevel-security argument.  The seed
  path replays the pre-PR-3 prover loop verbatim with
  ``dependency._seed_transmits``; the batched path is
  :func:`~repro.core.induction.prove_via_relation`, whose closure
  obligations now read the engine's ``operation_flows`` matrix (one
  bucket pass per source object, all operations and targets at once).
  The >= 10x acceptance bar is asserted here, at the largest case.
- **floyd** — the section 6.5 technique end to end on a scaled
  chain-of-temps program (``t1 <- q>10; t_i <- t_{i-1}; beta <- t_n ?
  alpha : beta`` with entry assertion ``q < 10``): Floyd VCs, inductive
  cover, then Theorem 6-7's per-(member, operation) obligations.  The
  seed path replays the pre-PR-3 cover-prover loop with
  ``_seed_transmits``; the batched path is
  :func:`~repro.systems.program.prove_program_no_flow`, riding the
  engine's per-(A, op, member) fixed-history tables.

Each case appends one row to ``BENCH_induction.json`` with both timings
and the speedup, and asserts the two paths reach identical verdicts
(valid proofs, identical failing-obligation sets).  ``REPRO_BENCH_QUICK=1``
(the CI bench-smoke job / ``make bench-quick``) shrinks sizes, runs one
round and skips recording and the speedup bar.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from bench_record import record

from repro.analysis.report import Table
from repro.core.constraints import Constraint
from repro.core.dependency import _seed_transmits
from repro.core.induction import prove_via_relation
from repro.core.system import History, System
from repro.lang.builders import SystemBuilder
from repro.lang.expr import if_expr, var
from repro.systems.program import (
    AssignNode,
    Flowchart,
    FloydAssertions,
    build_program_system,
    prove_program_no_flow,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_induction.json"
BENCH_HEADER = {"bench": "A3 batched induction", "paths": ["seed", "batched"]}
BENCH_KEY = ("workload", "n")

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
SPEEDUP_TARGET = 10.0  # batched over seed, lattice workload, largest case

LATTICE_CASES = [4] if QUICK else [8, 10, 11]
FLOYD_CASES = [2] if QUICK else [3, 4]
ROUNDS = 1 if QUICK else 3
LATTICE_LARGEST = max(LATTICE_CASES)


# -- lattice certification (Cor 4-3) ------------------------------------------


def _xor_chain(n: int) -> System:
    """n one-bit objects; d_i mixes x_i upward into x_{i+1} — information
    only climbs, so the level order certifies."""
    b = SystemBuilder()
    for i in range(n):
        b.integers(f"x{i}", bits=1)
    for i in range(n - 1):
        nxt = f"x{i + 1}"
        b.op_assign(f"d{i}", nxt, (var(nxt) + var(f"x{i}")) % 2)
    return b.build()


def _level_order(x: str, y: str) -> bool:
    return int(x[1:]) <= int(y[1:])


def _seed_certify_lattice(system: System) -> tuple[bool, set]:
    """The pre-PR-3 Corollary 4-3 prover, verbatim: precondition checks
    plus one ``_seed_transmits`` per (operation, x, y) triple outside q."""
    phi = Constraint.true(system.space)
    names = system.space.names
    ok = phi.is_invariant(system) and phi.is_autonomous()
    ok = ok and all(_level_order(x, x) for x in names)
    failures: set = set()
    for op in system.operations:
        for x in names:
            for y in names:
                if _level_order(x, y):
                    continue
                if _seed_transmits(system, {x}, y, History.of(op), phi):
                    failures.add((op.name, x, y))
    return (ok and not failures), failures


@pytest.mark.parametrize("n", LATTICE_CASES)
def test_a3_lattice_certification(benchmark, n, show):
    system = _xor_chain(n)

    start = time.perf_counter()
    seed_valid, seed_failures = _seed_certify_lattice(system)
    seed_seconds = time.perf_counter() - start

    # Fresh system per round: shared_engine is keyed per instance, so the
    # compile + operation_flows cost stays inside the measurement.
    def setup():
        return (_xor_chain(n),), {}

    proof = benchmark.pedantic(
        lambda sys_: prove_via_relation(sys_, None, _level_order, q_name="<="),
        setup=setup,
        rounds=ROUNDS,
        iterations=1,
    )
    batched_seconds = benchmark.stats.stats.min

    assert proof.valid, "the xor chain must certify against the level order"
    assert proof.valid == seed_valid
    assert not seed_failures
    # Both paths agree obligation-for-obligation, not just on the verdict.
    batched_failures = {
        ob.description for ob in proof.obligations if not ob.ok
    }
    assert not batched_failures

    speedup = seed_seconds / batched_seconds
    row = {
        "n": n,
        "states": system.space.size,
        "obligations": len(proof.obligations),
        "seed_seconds": round(seed_seconds, 6),
        "batched_seconds": round(batched_seconds, 6),
        "speedup": round(speedup, 2),
    }
    if not QUICK:
        record(
            BENCH_PATH, BENCH_HEADER, {"workload": "lattice", **row}, BENCH_KEY
        )

    table = Table(
        ["workload", "n", "states", "obligations", "seed (s)",
         "batched (s)", "speedup"],
        title=f"A3: lattice certification (Cor 4-3), n={n}",
    )
    table.add("lattice", n, system.space.size, len(proof.obligations),
              f"{seed_seconds:.4f}", f"{batched_seconds:.4f}",
              f"{speedup:.1f}x")
    show(table)

    if not QUICK and n == LATTICE_LARGEST:
        assert speedup >= SPEEDUP_TARGET, (
            f"batched induction only {speedup:.1f}x faster than the seed "
            f"transmits path on lattice n={n} (target {SPEEDUP_TARGET}x)"
        )


# -- Floyd-assertion program analysis (Thm 6-7) -------------------------------


def _chain_program(n: int):
    """E18's flowchart scaled: the secret test propagates through n temps
    before guarding the copy into beta; ``q < 10`` keeps every temp ff."""
    nodes = [AssignNode(1, "t1", if_expr(var("q") > 10, True, False), 2)]
    for i in range(2, n + 1):
        nodes.append(AssignNode(i, f"t{i}", var(f"t{i - 1}"), i + 1))
    nodes.append(
        AssignNode(
            n + 1, "beta", if_expr(var(f"t{n}"), var("alpha"), var("beta")),
            n + 2,
        )
    )
    fc = Flowchart(nodes, entry=1, halt=n + 2)
    domains = {"q": range(8, 13), "alpha": (0, 1), "beta": (0, 1)}
    for i in range(1, n + 1):
        domains[f"t{i}"] = (False, True)
    return build_program_system(fc, domains)


def _chain_assertions(ps, n: int) -> dict[int, Constraint]:
    sp = ps.space
    assertions = {1: Constraint(sp, lambda s: s["q"] < 10, name="q<10")}
    for i in range(2, n + 2):
        assertions[i] = Constraint(
            sp,
            lambda s, j=i - 1: not s[f"t{j}"],
            name=f"~t{i - 1}",
        )
    assertions[n + 2] = Constraint.true(sp)
    return assertions


def _seed_certify_floyd(ps, assertions) -> bool:
    """The pre-PR-3 Theorem 6-7 cover prover, verbatim: Floyd VCs and the
    Def 6-2 cover check, then one ``_seed_transmits`` per
    (member, intermediate object, operation) for alternative (a) and per
    (member, operation) for alternative (b)."""
    system = ps.system
    network = FloydAssertions(ps.flowchart, ps.space, assertions)
    vc_ok = network.check(system).valid
    cover = network.global_cover()
    phi = network.entry_constraint()
    cover_ok = cover.check(system, phi).valid
    source_set = system.space.check_names({"alpha"})
    alt_a_ok = True
    for member in cover.members:
        for m in system.space.names:
            if m in source_set:
                continue
            for op in system.operations:
                if _seed_transmits(system, source_set, m, op, member):
                    alt_a_ok = False
    everything_else = frozenset(system.space.names) - {"beta"}
    alt_b_ok = True
    for member in cover.members:
        for op in system.operations:
            if _seed_transmits(system, everything_else, "beta", op, member):
                alt_b_ok = False
                break
        if not alt_b_ok:
            break
    return vc_ok and cover_ok and (alt_a_ok or alt_b_ok)


@pytest.mark.parametrize("n", FLOYD_CASES)
def test_a3_floyd_certification(benchmark, n, show):
    ps = _chain_program(n)
    assertions = _chain_assertions(ps, n)

    start = time.perf_counter()
    seed_valid = _seed_certify_floyd(ps, assertions)
    seed_seconds = time.perf_counter() - start

    def setup():
        fresh = _chain_program(n)
        return (fresh, _chain_assertions(fresh, n)), {}

    proof = benchmark.pedantic(
        lambda fresh, asserts: prove_program_no_flow(
            fresh, asserts, {"alpha"}, "beta", cover_style="global"
        ),
        setup=setup,
        rounds=ROUNDS,
        iterations=1,
    )
    batched_seconds = benchmark.stats.stats.min

    assert proof.valid, "the guarded chain program must certify"
    assert proof.valid == seed_valid

    speedup = seed_seconds / batched_seconds
    row = {
        "n": n,
        "states": ps.space.size,
        "obligations": len(proof.obligations),
        "seed_seconds": round(seed_seconds, 6),
        "batched_seconds": round(batched_seconds, 6),
        "speedup": round(speedup, 2),
    }
    if not QUICK:
        record(
            BENCH_PATH, BENCH_HEADER, {"workload": "floyd", **row}, BENCH_KEY
        )

    table = Table(
        ["workload", "n", "states", "obligations", "seed (s)",
         "batched (s)", "speedup"],
        title=f"A3: Floyd-assertion analysis (Thm 6-7), {n} temps",
    )
    table.add("floyd", n, ps.space.size, len(proof.obligations),
              f"{seed_seconds:.4f}", f"{batched_seconds:.4f}",
              f"{speedup:.1f}x")
    show(table)
