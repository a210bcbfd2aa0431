"""Shared result types, raw-table normalization and the law kernel: one
witness search (``law_witness``) in the three shapes every ring, bimodule
and pairing law takes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedTableError, ValidationFailedError

__all__ = [
    "Violation",
    "ValidationReport",
    "Verdict",
    "as_table",
    "as_square_table",
    "law_witness",
    "associative",
    "additive_first",
    "additive_second",
    "violations_of",
    "require_ok",
    "abelian_group_violations",
]


@dataclass(frozen=True)
class Violation:
    """One failed axiom with a minimal witness tuple (element indices)."""

    law: str
    witness: tuple

    def __str__(self) -> str:
        items = ", ".join(str(x) for x in self.witness)
        return f"{self.law} fails at ({items})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive axiom check.

    ``ok`` is True when no violations were recorded. Each violation carries
    one witness; checks stop at the first witness per axiom.
    """

    subject: str
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return [f"{self.subject}: ok"]
        out = [f"{self.subject}: {len(self.violations)} violation(s)"]
        out.extend(f"  {v}" for v in self.violations)
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


@dataclass(frozen=True)
class Verdict:
    """Boolean answer plus a witness for the failing (or falsifying) case.

    The witness layout is documented by whichever predicate produced the
    verdict; it is always a tuple of element indices, or None when the
    predicate holds.
    """

    holds: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


def as_table(data, rows: int | None, cols: int | None, what: str, limit: int | None = None) -> np.ndarray:
    """Normalize raw table data to a read-only int32 array, checking shape and range.

    ``rows``/``cols`` may be None to accept whatever square-ish shape arrives;
    ``limit`` bounds the entries (defaults to ``cols`` when omitted). An
    array that is already read-only int32 is returned as is, not copied.
    """
    integer = isinstance(data, np.ndarray) and data.dtype.kind in "iu"
    try:        # an integer array is range-checked in its own dtype, not widened
        arr = data if integer else np.asarray(data, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise MalformedTableError(f"{what}: ragged or non-integer table") from exc
    if arr.ndim != 2:
        raise MalformedTableError(f"{what}: expected a 2-d table, got shape {arr.shape}")
    r, c = arr.shape
    if rows is not None and r != rows:
        raise MalformedTableError(f"{what}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise MalformedTableError(f"{what}: expected {cols} columns, got {c}")
    hi = limit if limit is not None else c
    if arr.size and (arr.min() < 0 or arr.max() >= hi):
        bad = np.argwhere((arr < 0) | (arr >= hi))[0]
        raise MalformedTableError(
            f"{what}: entry {arr[bad[0], bad[1]]} at ({bad[0]}, {bad[1]}) outside 0..{hi - 1}"
        )
    if arr.dtype == np.int32 and not arr.flags.writeable:
        return arr
    out = arr.astype(np.int32)
    out.setflags(write=False)
    return out


def as_square_table(data, what: str) -> np.ndarray:
    """``as_table`` for an operation on one carrier: square, entries in range."""
    arr = as_table(data, None, None, what)
    if arr.shape[1] != arr.shape[0]:
        raise MalformedTableError(f"{what}: expected a square table, got {arr.shape}")
    return arr


def law_witness(n: int, lhs, rhs) -> tuple | None:
    """Lex-first (i, j, k) with ``lhs(i)[j, k] != rhs(i)[j, k]``, i below n,
    computing both sides one 2-d slab i at a time, never a whole cube."""
    for i in range(n):
        diff = lhs(i) != rhs(i)
        if diff.any():
            j, k = map(int, np.argwhere(diff)[0])
            return (i, j, k)
    return None


def associative(ab: np.ndarray, bc: np.ndarray, ab_c: np.ndarray,
                a_bc: np.ndarray) -> tuple | None:
    """First (a, b, c) with (a·b)·c != a·(b·c): ``ab[a, b]`` is a·b, ``bc[b, c]``
    is b·c, and ``ab_c``, ``a_bc`` multiply those products by c and by a."""
    return law_witness(ab.shape[0], lambda a: ab_c[ab[a]], lambda a: a_bc[a][bc])


def additive_first(op: np.ndarray, add_in: np.ndarray, add_out: np.ndarray) -> tuple | None:
    """First (x, y, z) with (x+y)·z != x·z + y·z, where ``op[x, z]`` is x·z."""
    return law_witness(add_in.shape[0], lambda x: op[add_in[x]],
                       lambda x: add_out[op[x][None, :], op])


def additive_second(op: np.ndarray, add_in: np.ndarray, add_out: np.ndarray) -> tuple | None:
    """First (x, y, z) with x·(y+z) != x·y + x·z, where ``op[x, y]`` is x·y."""
    return law_witness(op.shape[0], lambda x: op[x][add_in],
                       lambda x: add_out[op[x][:, None], op[x][None, :]])


def violations_of(witnesses) -> list[Violation]:
    """A Violation for each (law, witness) pair that found a witness."""
    return [Violation(law, w) for law, w in witnesses if w is not None]


def require_ok(report: ValidationReport, message: str) -> None:
    """Raise ValidationFailedError, ``message`` then the violations, unless ``report`` is ok."""
    if not report.ok:
        raise ValidationFailedError(message + "; ".join(str(v) for v in report.violations), report)


def abelian_group_violations(add: np.ndarray) -> list[Violation]:
    """Inverse, commutativity and associativity of an addition table.

    The identity law is left to the caller, whose witness shape differs
    between rings and modules.
    """
    idx = np.arange(add.shape[0], dtype=np.int32)
    violations: list[Violation] = []
    rows = np.flatnonzero((np.sort(add, axis=1) != idx).any(axis=1))     # not a permutation
    if rows.size:
        violations.append(Violation("additive-inverse", (int(rows[0]),)))
    if (add != add.T).any():
        a, b = map(int, np.argwhere(add != add.T)[0])
        violations.append(Violation("additive-commutativity", (a, b)))
    return violations + violations_of([("additive-associativity",
                                        associative(add, add, add, add))])
