"""Shared result types, raw-table normalization and the law kernels.

The bimodule and context validators decide at generator width first. The
group laws of + are O(n²), with associativity by Light's test on the
additive generators (Clifford & Preston, *The Algebraic Theory of
Semigroups* I, §1.2); an additive law is checked with one summand over
the generators; and every other law is multi-additive once those hold, so
it is checked on tuples of generators alone. Only when one of these
checks fails does the validator run the full scans, which name each
failed law's lex-first witness; ``validate_ring`` always runs them. Every
check goes through one search (``law_witness``), which decides a block of
rows, about ``_BLOCK`` entries, per numpy call and never holds a whole cube;
the full scans use it in the three shapes every ring, bimodule and pairing
law takes. ``_BLOCK`` is the package's one scratch budget: every chunked
kernel of the package holds one block of about that many entries at a
time, so a job's peak is the tables it keeps plus one block."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedTableError, ValidationFailedError

__all__ = [
    "Violation",
    "ValidationReport",
    "Verdict",
    "index_dtype",
    "SplitTable",
    "as_table",
    "as_square_table",
    "law_witness",
    "associative",
    "additive_first",
    "additive_second",
    "violations_of",
    "require_ok",
    "abelian_group_violations",
    "group_generators",
    "ring_generators",
    "additive_on",
    "associative_on",
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


def index_dtype(order: int) -> np.dtype:
    """The dtype of a table the package builds whose entries are element
    indices below ``order``: uint16 up to 1 << 16 elements, else int32.
    Arithmetic on such entries picks its dtype explicitly (an ``astype``
    or a lookup table of that dtype): uint16 times a Python int stays
    uint16 under numpy 1.24 and 2 alike, and wraps past 65 535."""
    return np.dtype(np.uint16 if order <= 1 << 16 else np.int32)


# The one scratch budget of every chunked kernel: the entries one block
# holds (of a law's side, a table's slab, zero masks, packed masks), or one
# row or column when that alone is wider. Numpy's call overhead is paid per
# block, not per row, and no kernel holds a whole cube or n × |U| slab.
_BLOCK = 1 << 16

_ALL = slice(None)


class SplitTable:
    """A read-only n×n table whose row x is ``top[hi] + bottom[lo]``, (hi, lo)
    = ``digits`` of x: a 2×2 array ring's product, whose first row depends
    only on the first row of the left factor and its second row on the
    second. The digits carry nothing, so each entry is one sum and the
    table holds n·(|top| + |bottom|) entries, not n².

    It reads as an ndarray would, with numpy's result shapes: int, slice
    and array row keys, ``[:, cols]``, ``np.ix_`` and broadcast index
    pairs, and ``.T`` for the transpose. A block of columns is a broadcast
    add of the two halves; a row or an entry elsewhere is two gathers. It
    has no ``__array__``, so nothing forms the n×n table by accident:
    ``table[:, :]`` does so on purpose.
    """

    __slots__ = ("top", "bottom", "digits", "shape", "dtype", "_flip")

    def __init__(self, top: np.ndarray, bottom: np.ndarray, digits, flip: bool = False):
        self.top, self.bottom, self.digits, self._flip = top, bottom, digits, flip
        self.shape = (top.shape[1],) * 2
        self.dtype = top.dtype

    @property
    def T(self) -> SplitTable:
        return SplitTable(self.top, self.bottom, self.digits, not self._flip)

    @property
    def nbytes(self) -> int:
        """The bytes of the two halves: all the table holds."""
        return self.top.nbytes + self.bottom.nbytes

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        if len(key) > 2:
            raise IndexError(f"too many indices for a 2-d table: {len(key)}")
        rows, cols = key + (_ALL,) * (2 - len(key))
        if not self._flip:
            return self._read(rows, cols)
        out = self._read(cols, rows)                # the transpose's [rows, cols]
        if isinstance(rows, slice) == isinstance(cols, slice):     # two slice axes, or broadcast
            return out.T if isinstance(rows, slice) else out
        return np.moveaxis(out, -1, 0) if isinstance(rows, slice) else np.moveaxis(out, 0, -1)

    def column_zeros(self, zero: int) -> np.ndarray:
        """#{r : self[r, x] = zero} for each column x, from the halves alone.
        An entry is ``zero`` exactly when its top part is zero's and its
        bottom part is zero's, the digits carrying nothing. Down a column
        that count is the product of the two halves' column counts; down a
        column of the transpose (a row x) it is (A @ Bᵀ)[hi(x), lo(x)], A
        and B the halves' zero masks. Both read a block of columns at a
        time, the two masks of a block within ``_BLOCK`` entries: float32
        products, exact as a block has at most ``_BLOCK`` columns. The
        product is ``einsum``'s own loop, not a BLAS call: a threaded BLAS
        took 30 ms and more for one (36 × 1296) · (1296 × 36) product on a
        2-core host, 300 times its single-threaded time."""
        top, bottom, n = self.top, self.bottom, self.shape[0]
        m = bottom.shape[0]
        counts = np.zeros((top.shape[0], m) if self._flip else n, dtype=np.int64)
        step = max(1, _BLOCK // (top.shape[0] + m))
        for lo in range(0, n, step):
            cols = slice(lo, lo + step)
            at_top, at_bottom = top[:, cols] == zero - zero % m, bottom[:, cols] == zero % m
            if not self._flip:
                counts[cols] = at_top.sum(axis=0) * at_bottom.sum(axis=0)
            else:
                counts += np.einsum("ac,bc->ab", at_top.astype(np.float32),
                                    at_bottom.astype(np.float32)).astype(np.int64)
        hi, lo = self.digits
        return counts[hi, lo] if self._flip else counts

    def _read(self, rows, cols):
        """numpy's ``[rows, cols]`` of the table, not of its transpose."""
        top, bottom, (hi, lo) = self.top, self.bottom, self.digits
        if isinstance(cols, slice) and cols == _ALL:
            return np.add(top[hi[rows]], bottom[lo[rows]])
        if isinstance(rows, slice) and rows == _ALL:               # (a, b, ...) -> (n, ...)
            out = top[:, cols][:, None] + bottom[:, cols][None]
            return out.reshape(self.shape[:1] + out.shape[2:])
        if isinstance(rows, slice) or isinstance(cols, slice):     # numpy's outer shape
            every = np.arange(self.shape[0])
            if isinstance(cols, slice):
                cols = every[cols]
                rows = rows if isinstance(rows, slice) else np.asarray(rows)[..., None]
            if isinstance(rows, slice):
                rows = every[rows].reshape((-1,) + (1,) * np.ndim(cols))
        return top[hi[rows], cols] + bottom[lo[rows], cols]


def as_table(data, rows: int | None, cols: int | None, what: str, limit: int | None = None) -> np.ndarray:
    """Normalize raw table data to a read-only index table, checking shape and range.

    ``rows``/``cols`` may be None to accept whatever square-ish shape arrives;
    ``limit`` bounds the entries (defaults to ``cols`` when omitted). An
    array that is already read-only int32 or uint16 (a table the package
    built in ``index_dtype``) is returned as is, not copied, and so is a
    ``SplitTable``, after the shape check; anything else is copied to int32.
    """
    integer = isinstance(data, (np.ndarray, SplitTable)) and data.dtype.kind in "iu"
    try:        # an integer array is range-checked in its own dtype, not widened
        arr = data if integer else np.asarray(data, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise MalformedTableError(f"{what}: ragged or non-integer table") from exc
    if len(arr.shape) != 2:
        raise MalformedTableError(f"{what}: expected a 2-d table, got shape {arr.shape}")
    r, c = arr.shape
    if rows is not None and r != rows:
        raise MalformedTableError(f"{what}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise MalformedTableError(f"{what}: expected {cols} columns, got {c}")
    if isinstance(arr, SplitTable):             # a context ring's product, built in range
        return arr
    hi = limit if limit is not None else c
    if arr.size and (arr.min() < 0 or arr.max() >= hi):
        bad = np.argwhere((arr < 0) | (arr >= hi))[0]
        raise MalformedTableError(
            f"{what}: entry {arr[bad[0], bad[1]]} at ({bad[0]}, {bad[1]}) outside 0..{hi - 1}"
        )
    if arr.dtype in (np.int32, np.uint16) and not arr.flags.writeable:
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


def law_witness(shape: tuple[int, int, int], lhs, rhs) -> tuple | None:
    """Lex-first (i, j, k) with ``lhs(rows)[., j, k] != rhs(rows)[., j, k]``
    over a law's cube of ``shape`` (n, J, K), or None when none differs.

    ``lhs`` and ``rhs`` take a slice of rows i and return both sides on
    those rows as an (r, J, K) slab. Rows are decided a block at a time, as
    many as fit in ``_BLOCK`` entries; a row wider than that goes alone, so
    no whole cube is ever built. A cube that fits one block is decided in
    one call of each side. A slice, not an index array, so that a block of
    a table's rows is a view, not a copy."""
    n, width = shape[0], shape[1] * shape[2]
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        diff = lhs(rows) != rhs(rows)
        if diff.any():                      # the first differing entry, not a list of all
            i, j, k = map(int, np.unravel_index(diff.argmax(), diff.shape))
            return (start + i, j, k)
    return None


def associative(ab: np.ndarray, bc: np.ndarray, ab_c: np.ndarray,
                a_bc: np.ndarray) -> tuple | None:
    """First (a, b, c) with (a·b)·c != a·(b·c): ``ab[a, b]`` is a·b, ``bc[b, c]``
    is b·c, and ``ab_c``, ``a_bc`` multiply those products by c and by a."""
    return law_witness((ab.shape[0],) + bc.shape, lambda a: ab_c[ab[a]],
                       lambda a: a_bc[a][:, bc])


def additive_first(op: np.ndarray, add_in: np.ndarray, add_out: np.ndarray) -> tuple | None:
    """First (x, y, z) with (x+y)·z != x·z + y·z, where ``op[x, z]`` is x·z."""
    return law_witness(add_in.shape + op.shape[1:], lambda x: op[add_in[x]],
                       lambda x: add_out[op[x][:, None, :], op])


def additive_second(op: np.ndarray, add_in: np.ndarray, add_out: np.ndarray) -> tuple | None:
    """First (x, y, z) with x·(y+z) != x·y + x·z, where ``op[x, y]`` is x·y."""
    return law_witness(op.shape[:1] + add_in.shape, lambda x: op[x][:, add_in],
                       lambda x: add_out[op[x][:, :, None], op[x][:, None, :]])


def violations_of(witnesses) -> list[Violation]:
    """A Violation for each (law, witness) pair that found a witness."""
    return [Violation(law, w) for law, w in witnesses if w is not None]


def require_ok(report: ValidationReport, message: str) -> None:
    """Raise ValidationFailedError, ``message`` then the violations, unless ``report`` is ok."""
    if not report.ok:
        raise ValidationFailedError(message + "; ".join(str(v) for v in report.violations), report)


def _inverse_commutativity_violations(add: np.ndarray) -> list[Violation]:
    """The O(n²) group laws of an addition table: every row a permutation
    (inverses), and the table symmetric (commutativity)."""
    idx = np.arange(add.shape[0], dtype=np.int32)
    violations: list[Violation] = []
    rows = np.flatnonzero((np.sort(add, axis=1) != idx).any(axis=1))     # not a permutation
    if rows.size:
        violations.append(Violation("additive-inverse", (int(rows[0]),)))
    if (add != add.T).any():
        a, b = map(int, np.argwhere(add != add.T)[0])
        violations.append(Violation("additive-commutativity", (a, b)))
    return violations


def abelian_group_violations(add: np.ndarray) -> list[Violation]:
    """Inverse, commutativity and associativity of an addition table.

    The identity law is left to the caller, whose witness shape differs
    between rings and modules.
    """
    return _inverse_commutativity_violations(add) + violations_of(
        [("additive-associativity", associative(add, add, add, add))])


# -- generator width ---------------------------------------------------------------


def group_generators(group) -> np.ndarray | None:
    """The additive generators of an ``AddGroup`` whose table is an abelian
    group with identity ``group.zero``, else None.

    Identity, inverses and commutativity are read off the whole table. Only
    then are the generators computed: the greedy loop need not end on a
    table whose zero is not an identity. Associativity is Light's test,
    (x+g)+y = x+(g+y) for every x, y and generator g, in n²·k entries,
    a block of k×n slabs at a time.
    """
    add, zero, n = group.add, group.zero, group.order
    idx = np.arange(n, dtype=np.int32)
    if (not ((add[zero] == idx).all() and (add[:, zero] == idx).all())
            or _inverse_commutativity_violations(add)):
        return None
    gens = group.generators
    g_plus = add[gens]
    if law_witness((n, gens.size, n), lambda x: add[add[x, gens]],
                   lambda x: add[x][:, g_plus]) is not None:
        return None
    return gens


def ring_generators(group, mul: np.ndarray) -> np.ndarray | None:
    """``group_generators``, provided ``mul`` also distributes over + on both
    sides; else None. With these laws a product is additive in each factor,
    so a multi-additive law over the ring can be checked on its generators."""
    gens = group_generators(group)
    if gens is None:
        return None
    add, zero = group.add, group.zero
    if additive_on(mul, add, add, gens, zero) and additive_on(mul.T, add, add, gens, zero):
        return gens
    return None


def additive_on(op: np.ndarray, add_in: np.ndarray, add_out: np.ndarray,
                gens: np.ndarray, zero: int) -> bool:
    """Is x·z = ``op[x, z]`` additive in x? Both additions must be groups, and
    ``gens`` the generators of ``add_in``, ``zero`` its zero: x·z is additive
    iff (x+g)·z = x·z + g·z for every x, z and generator g. At x = 0 that
    reads g·z = 0·z + g·z, so 0·z = 0 follows; only a trivial group, which
    has no generators, takes its zero as the one step, to check 0·z = 0.
    A block of |gens|-row slabs at a time. For the second argument, pass
    ``op.T``."""
    steps = gens if gens.size else np.array([zero])
    at_steps = op[steps]
    return law_witness((op.shape[0], steps.size, op.shape[1]),
                       lambda x: op[add_in[x, steps]],
                       lambda x: add_out[op[x][:, None, :], at_steps]) is None


def associative_on(ga: np.ndarray, gb: np.ndarray, gc: np.ndarray, ab: np.ndarray,
                   bc: np.ndarray, ab_c: np.ndarray, a_bc: np.ndarray) -> bool:
    """Does (a·b)·c = a·(b·c) hold for a, b, c in ``ga``, ``gb``, ``gc``?
    The tables are ``associative``'s. When both sides are additive in each
    argument, the law holds everywhere iff it holds on generators."""
    return associative(ab[np.ix_(ga, gb)], bc[np.ix_(gb, gc)], ab_c[:, gc], a_bc[ga]) is None
