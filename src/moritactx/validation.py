"""Shared result types, raw-table normalization and the group-axiom block."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedTableError

__all__ = [
    "Violation",
    "ValidationReport",
    "Verdict",
    "as_table",
    "as_square_table",
    "assoc_witness",
    "distributive_witness",
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


def assoc_witness(table: np.ndarray) -> tuple | None:
    """First (a, b, c) with (a.b).c != a.(b.c) in a square operation table."""
    for a in range(table.shape[0]):
        left = table[table[a], :]
        right = table[a][table]
        if (left != right).any():
            b, c = map(int, np.argwhere(left != right)[0])
            return (a, b, c)
    return None


def distributive_witness(add: np.ndarray, act: np.ndarray) -> tuple | None:
    """First (a, x, y) with a.(x+y) != a.x + a.y, where row ``act[a]`` is a acting."""
    for a in range(act.shape[0]):
        left = act[a][add]
        right = add[np.ix_(act[a], act[a])]
        if (left != right).any():
            x, y = map(int, np.argwhere(left != right)[0])
            return (a, x, y)
    return None


def abelian_group_violations(add: np.ndarray) -> list[Violation]:
    """Inverse, commutativity and associativity of an addition table.

    The identity law is left to the caller, whose witness shape differs
    between rings and modules.
    """
    idx = np.arange(add.shape[0], dtype=np.int32)
    violations: list[Violation] = []
    if (np.sort(add, axis=1) != idx[None, :]).any():
        row = int(np.flatnonzero((np.sort(add, axis=1) != idx[None, :]).any(axis=1))[0])
        violations.append(Violation("additive-inverse", (row,)))
    if (add != add.T).any():
        a, b = map(int, np.argwhere(add != add.T)[0])
        violations.append(Violation("additive-commutativity", (a, b)))
    w = assoc_witness(add)
    if w:
        violations.append(Violation("additive-associativity", w))
    return violations
