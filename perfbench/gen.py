"""Seeded mini-language programs whose flow verdicts are known by construction.

A generated program is straight-line code over variables ``x0 .. x{v-1}``,
each with domain ``0..p-1`` for a prime ``p``::

    x2 := (3*x2 + 4*x1 + 2) % 5

Every assignment rewrites one variable ``x_t`` as ``a*x_t`` plus a nonzero
multiple of one lower-numbered variable plus a constant, with ``a != 0``.
All assignments have the same expression shape, so every program of one
size costs the same to build and compile.  After any prefix of the
program each variable is an affine form over the inputs, and the
generator tracks its coefficients.

On the pc-guarded flowchart system (entry constraint ``pc = 1``) every
history executes some prefix of the program, so for ``s != o``:

* ``s`` transmits to ``o`` iff some prefix gives ``o`` a nonzero
  coefficient on ``s`` (two entry states that differ only at ``s`` then
  differ at ``o`` by that coefficient times a nonzero difference, which
  is nonzero mod a prime);
* a shortest witness history is the shortest such prefix.

Each assignment is a bijection of the value vector, so no two reachable
pairs ever merge: the pair closure of any source holds exactly
``(statements + 1) * p**(v - 1) * p * (p - 1) / 2`` pairs, whatever the
seed.  The verdicts come from this arithmetic alone, never from the code
under test; ``test_gen.py`` checks them against the repository's seed
reference BFS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """The size of every program in a workload."""

    p: int
    nvars: int
    nstmts: int

    @property
    def states(self) -> int:
        return self.p**self.nvars * (self.nstmts + 1)

    @property
    def closure_pairs(self) -> int:
        """Pairs in the closure of any single source (see module doc)."""
        p = self.p
        return (self.nstmts + 1) * p ** (self.nvars - 1) * p * (p - 1) // 2


@dataclass(frozen=True)
class Program:
    """One generated program with the verdict of every (source, target)."""

    shape: Shape
    text: str
    #: ``(source, target) -> shortest witness length``, or ``None`` when
    #: the source never reaches the target.  Covers every ordered pair of
    #: distinct variables.
    witness_len: dict[tuple[str, str], int | None]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.shape.nvars))

    @property
    def vars(self) -> dict[str, str]:
        """Domains in the ``--var`` / ``"vars"`` syntax both front doors take."""
        return {name: f"0..{self.shape.p - 1}" for name in self.names}

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self.witness_len)

    def expect(self, source: str, target: str) -> tuple[str, int | None]:
        """``("flow", witness length)`` or ``("no_flow", None)``."""
        length = self.witness_len[(source, target)]
        return ("flow", length) if length is not None else ("no_flow", None)


class ProgramGenerator:
    """Draws distinct programs of one shape from a seeded stream."""

    def __init__(self, seed: int, shape: Shape) -> None:
        if shape.nvars < 2 or shape.nstmts < 1:
            raise ValueError("a shape needs two variables and one statement")
        self.shape = shape
        self._rng = random.Random(seed)
        self._seen: set[tuple] = set()

    def _statement(self) -> tuple[int, int, int, int, int]:
        rng, p = self._rng, self.shape.p
        target = rng.randrange(1, self.shape.nvars)
        read = rng.randrange(target)
        return target, rng.randrange(1, p), read, rng.randrange(1, p), rng.randrange(p)

    def next(self) -> Program:
        """A program no earlier call returned.  Distinct statement lists
        give distinct transition tables, so every program has its own
        system hash."""
        while True:
            stmts = tuple(self._statement() for _ in range(self.shape.nstmts))
            if stmts not in self._seen:
                self._seen.add(stmts)
                return self._build(stmts)

    def _build(self, stmts) -> Program:
        p, nvars = self.shape.p, self.shape.nvars
        coeff = [[int(i == j) for j in range(nvars)] for i in range(nvars)]
        first: dict[tuple[str, str], int | None] = {
            (f"x{s}", f"x{o}"): None
            for s in range(nvars)
            for o in range(nvars)
            if s != o
        }
        lines = []
        for step, (t, a, j, c, d) in enumerate(stmts, start=1):
            coeff[t] = [(a * coeff[t][i] + c * coeff[j][i]) % p for i in range(nvars)]
            for s in range(nvars):
                key = (f"x{s}", f"x{t}")
                if s != t and coeff[t][s] and first[key] is None:
                    first[key] = step
            lines.append(f"x{t} := ({a}*x{t} + {c}*x{j} + {d}) % {p}")
        return Program(self.shape, ";\n".join(lines) + "\n", first)
