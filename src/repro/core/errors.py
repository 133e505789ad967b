"""Exception hierarchy for the repro library.

All library-specific exceptions derive from :class:`ReproError`, so callers
can catch a single base class.  Errors are deliberately fine-grained: the
formalism is used as a *checker*, and a precise error type (e.g. "this name
is not an object of the space") is the difference between a usable tool and
a confusing one.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpaceError(ReproError):
    """A state space was constructed or used inconsistently."""


class UnknownObjectError(SpaceError):
    """An object name was referenced that the space does not define."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown object name {name!r}; space defines {sorted(known)!r}"
        )


class DomainError(SpaceError):
    """A value outside an object's declared domain was used."""

    def __init__(self, name: str, value: object) -> None:
        self.name = name
        self.value = value
        super().__init__(f"value {value!r} is not in the domain of object {name!r}")


class StateError(ReproError):
    """A state was constructed or combined inconsistently."""


class OperationError(ReproError):
    """An operation misbehaved (e.g. produced a state outside the space)."""


class ConstraintError(ReproError):
    """A constraint was used with an incompatible space or is unsatisfiable
    where satisfiability was required."""


class EmptyConstraintError(ConstraintError):
    """A computation required at least one state satisfying the constraint,
    but none exists in the space."""


class CoverError(ReproError):
    """A claimed cover fails one of its obligations (raised when a cover is
    *asserted* rather than checked; checking APIs return result objects)."""


class ProofError(ReproError):
    """An inductive proof obligation failed where an exception was requested."""


class ProgramError(ReproError):
    """Errors in the mini-language substrate (parse errors, bad flowcharts)."""


class ParseError(ProgramError):
    """The mini-language parser rejected its input."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EvaluationError(ProgramError):
    """Expression evaluation failed (unknown variable, type mismatch)."""


class DistributionError(ReproError):
    """A probability distribution over states is malformed."""
