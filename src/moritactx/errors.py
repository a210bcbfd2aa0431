"""Exception hierarchy for the finite-algebra operations in this package."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for structured errors raised by this package."""


class MalformedTableError(AlgebraError):
    """A Cayley table is ragged, mis-sized, or has out-of-range entries."""


class InvalidOrderError(AlgebraError):
    """A carrier size is not supported (unital rings need order >= 2)."""


class ValidationFailedError(AlgebraError):
    """Structure axioms failed for a candidate presentation.

    Carries the full ``ValidationReport`` so callers can surface witnesses.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotAnIdealError(AlgebraError):
    """A subset is not closed the way the requested sidedness demands."""


class NotASubmoduleError(AlgebraError):
    """A subset of a module carrier is not action- or addition-closed."""


class NotProperError(AlgebraError):
    """A predicate that is only defined for proper subobjects got the whole carrier."""


class CapacityError(AlgebraError):
    """An enumeration or construction exceeded its configured cap, or (with
    ``cap`` None) its tables would exceed physical memory under any cap."""

    def __init__(self, message: str, cap: int | None):
        super().__init__(message)
        self.cap = cap


class CentralityError(AlgebraError):
    """The scaling element of a scaled-product context is not central."""

    def __init__(self, message: str, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


class WellDefinednessError(AlgebraError):
    """An induced quotient operation depends on the chosen representatives."""


class UnknownBuiltinError(AlgebraError):
    """A builtin context name did not resolve."""

    def __init__(self, message: str, available: tuple[str, ...] = ()):
        super().__init__(message)
        self.available = available


class MctxError(AlgebraError):
    """Parse or resolve failure for a context description, with position info."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
