"""Operation combinators: build named, inspectable operations from commands.

A :class:`StructuredOperation` is an ordinary
:class:`~repro.core.system.Operation` that additionally carries its
:class:`~repro.lang.cmd.Command` body.  Semantic analyses (strong
dependency) ignore the body; syntactic analyses (taint, flow extraction)
interpret it.  Tabulation runs the body on value columns
(:meth:`StructuredOperation.column_table`) instead of once per state.

The constructors here let the paper's operations transcribe directly::

    delta1 = op("delta1", when(var("q"), assign("m", var("alpha"))))
    delta2 = op("delta2", when(~var("q"), assign("beta", var("m"))))
"""

from __future__ import annotations

from array import array

from repro.core.state import Lanes
from repro.core.system import Operation
from repro.lang.cmd import Command, assign as _assign, seq, when
from repro.lang.expr import LanesUnsupported, coerce


class StructuredOperation(Operation):
    """An operation whose body is a :class:`Command` AST."""

    __slots__ = ("command",)

    def __init__(self, name: str, command: Command, description: str = "") -> None:
        self.command = command
        super().__init__(
            name, command.run, description=description or repr(command)
        )

    def __repr__(self) -> str:
        return f"StructuredOperation({self.name!r}: {self.command!r})"

    def writes(self) -> frozenset[str]:
        return self.command.writes()

    def reads(self) -> frozenset[str]:
        return self.command.reads()

    def column_table(self, lanes: Lanes) -> array | None:
        """The successor table from one run of the body on ``lanes``
        (the whole space), or ``None`` when a node of the body only
        evaluates state by state."""
        try:
            batches = self.command.lanes(lanes)
        except LanesUnsupported:
            return None
        table = list(range(len(lanes)))
        for batch in batches:
            if batch.written:
                for i, j in zip(batch.ids, batch.successor_ids()):
                    table[i] = j
        return array("L", table)


def op(name: str, command: Command, description: str = "") -> StructuredOperation:
    """Wrap a command as a named operation."""
    return StructuredOperation(name, command, description)


def assign_op(name: str, target: str, expr: object) -> StructuredOperation:
    """``name: target <- expr``."""
    return StructuredOperation(name, _assign(target, expr))


def guarded_assign_op(
    name: str, guard: object, target: str, expr: object
) -> StructuredOperation:
    """``name: if guard then target <- expr`` — the most common paper shape."""
    return StructuredOperation(name, when(coerce(guard), _assign(target, expr)))


__all__ = [
    "StructuredOperation",
    "op",
    "assign_op",
    "guarded_assign_op",
    "seq",
    "when",
]
