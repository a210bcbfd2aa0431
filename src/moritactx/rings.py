"""Finite unital rings presented by Cayley tables.

Elements are the indices 0..order-1; the multiplication table is a
read-only int32 array, or a uint16 one where the package built it in
``index_dtype``, or a context ring's ``SplitTable`` over two row halves;
the addition is an ``AddGroup``: a read-only table, or a direct sum of
smaller groups with no table of its own (a context ring's). Rings
constructed by this package (``make_zn``, quotients, context rings) are
correct by construction and only get cheap sanity checks; user-supplied
tables must go through ``validate_ring``.
"""

from __future__ import annotations

import numpy as np

from .bitsets import as_mask
from .errors import InvalidOrderError, MalformedTableError
from .ideals import verify_ideal
from .spans import Carrier, as_group
from .validation import (_BLOCK, ValidationReport, Verdict, Violation, abelian_group_violations,
                         additive_second, as_square_table, as_table, associative, law_witness,
                         require_ok, ring_generators, violations_of)

__all__ = [
    "FiniteRing",
    "make_zn",
    "ring_from_tables",
    "validate_ring",
    "quotient_ring",
    "verify_ring_map",
]


class FiniteRing(Carrier):
    """A finite ring with identity, on the index set 0..order-1.

    ``add`` is a square table or an ``AddGroup`` (a context ring passes a
    direct sum); ``mul`` is a square table, or a ``SplitTable`` read from
    two row halves (a context ring's, with no n×n table behind it). Every
    kernel reads ``mul`` by numpy indexing, which both serve alike. Treat
    instances as immutable.
    Identity-based equality is intentional: structurally equal rings built
    twice are distinct carriers.
    """

    __slots__ = ("order", "mul", "zero", "one", "name", "_cache")
    SIDEDNESS = {"left": ("left",), "right": ("right",), "two": ("left", "right")}
    SIDEDNESS_TEXT = f"one of {tuple(SIDEDNESS)}"

    def __init__(self, add, mul, zero: int, one: int, labels=None, name: str | None = None, label_fn=None):
        group = as_group(add, zero, "add")          # a table, or an AddGroup such as a direct sum
        k = group.order
        mul = as_table(mul, k, k, "mul")
        if not (0 <= zero < k and 0 <= one < k):
            raise MalformedTableError(f"zero/one indices out of range for order {k}")
        if zero == one:
            raise InvalidOrderError("a unital ring needs one != zero (order >= 2)")
        self.order = k
        self.mul = mul
        self.zero = int(zero)
        self.one = int(one)
        self.name = name or f"ring{k}"
        self._present(group, labels, label_fn)
        self._cache: dict = {}
        self._basic_sanity()

    def _basic_sanity(self) -> None:
        # Zero and inverses are checked on each summand's table: the sum's
        # zero is the tuple of the summands' zeros, and (a, b) has a unique
        # inverse exactly when a and b do.
        summands = self.addgroup.summands
        for add, zero in summands:
            idx = np.arange(add.shape[0], dtype=np.int32)
            if not (add[zero] == idx).all() or not (add[:, zero] == idx).all():
                raise MalformedTableError("zero is not an additive identity")
        idx = np.arange(self.order, dtype=np.int32)
        if not (self.mul[self.one] == idx).all() or not (self.mul[:, self.one] == idx).all():
            raise MalformedTableError("one is not a two-sided multiplicative identity")
        for add, zero in summands:
            step = max(1, _BLOCK // add.shape[0])   # rows per chunk: within _BLOCK bools
            for lo in range(0, add.shape[0], step):
                if not ((add[lo:lo + step] == zero).sum(axis=1) == 1).all():
                    raise MalformedTableError("some element lacks a unique additive inverse")

    def action(self, side: str) -> tuple:
        """The ring over itself, as (ring, act) with act[r] r acting on every
        element: ``mul`` on the left, ``mul.T`` on the right."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self, self.mul if side == "left" else self.mul.T

    def __repr__(self) -> str:
        return f"<FiniteRing {self.name} order={self.order}>"


def make_zn(n: int) -> FiniteRing:
    """The ring of integers mod n, with labels 0..n-1."""
    if n < 2:
        raise InvalidOrderError(f"make_zn needs n >= 2, got {n}")
    # Read-only int32, kept uncopied by as_table: a sum of residues needs one
    # conditional subtract, and a product fits int32 up to n = 46 341.
    idx = np.arange(n, dtype=np.int32 if (n - 1) ** 2 < 2**31 else np.int64)
    add, mul = idx[:, None] + idx, idx[:, None] * idx
    np.subtract(add, n, out=add, where=add >= n)
    mul %= n
    for table in (add, mul):
        table.setflags(write=False)
    return FiniteRing(add, mul, zero=0, one=1, labels=[str(i) for i in range(n)], name=f"Z{n}")


def _identity(table: np.ndarray) -> int | None:
    """The least e whose row and column in ``table`` both fix every element."""
    idx = np.arange(table.shape[0])
    hits = np.flatnonzero((table == idx).all(axis=1) & (table == idx[:, None]).all(axis=0))
    return int(hits[0]) if hits.size else None


def checked_generators(ring: FiniteRing) -> np.ndarray | None:
    """``ring_generators`` of a ring's tables: its additive generators when +
    is an abelian group and · distributes over it, else None, as a ring
    built without ``validate_ring`` may be. Found once per ring, whose
    tables are read-only."""
    if "ring_generators" not in ring._cache:
        ring._cache["ring_generators"] = ring_generators(ring.addgroup, ring.mul)
    return ring._cache["ring_generators"]


def validate_ring(add, mul, zero: int | None = None, one: int | None = None) -> ValidationReport:
    """Scan the unital-ring axioms on raw tables in full.

    ``zero``/``one`` are inferred by scanning when not supplied. Shape or
    range problems, supplied indices among them, raise MalformedTableError;
    axiom failures come back as violations with one lex-first witness each.
    Unlike the bimodule and context validators, this one runs no
    generator-width pass first.
    """
    add = as_square_table(add, "add")
    k = add.shape[0]
    mul = as_table(mul, k, k, "mul")
    if not all(i is None or 0 <= i < k for i in (zero, one)):
        raise MalformedTableError(f"zero/one indices out of range for order {k}")
    idx = np.arange(k, dtype=np.int32)
    zero = _identity(add) if zero is None else zero
    if zero is None:
        return ValidationReport("ring", (Violation("additive-identity", ("no candidate",)),))

    violations: list[Violation] = []
    bad = np.flatnonzero(np.concatenate([add[zero] != idx, add[:, zero] != idx]))
    if bad.size:                                 # first bad entry of row zero, else of its column
        violations.append(Violation("additive-identity", (zero, int(bad[0]) % k)))
    violations.extend(abelian_group_violations(add))
    violations += violations_of([("multiplicative-associativity",
                                  associative(mul, mul, mul, mul))])

    one = _identity(mul) if one is None else one
    if one is None:
        violations.append(Violation("multiplicative-identity", ("no candidate",)))
    else:
        if not ((mul[one] == idx).all() and (mul[:, one] == idx).all()):
            violations.append(Violation("multiplicative-identity", (one,)))
        if one == zero:
            violations.append(Violation("identity-distinct", (zero,)))

    right = additive_second(mul.T, add, add)     # a, b, c with (b+c)*a != b*a + c*a
    violations += violations_of([("left-distributivity", additive_second(mul, add, add)),
                                 ("right-distributivity", right and (*right[1:], right[0]))])
    return ValidationReport("ring", tuple(violations))


def ring_from_tables(add, mul, zero: int | None = None, one: int | None = None,
                     labels=None, name: str | None = None) -> FiniteRing:
    """Validating constructor for user-supplied tables."""
    require_ok(validate_ring(add, mul, zero, one), "ring axioms failed: ")
    add, mul = as_square_table(add, "add"), as_square_table(mul, "mul")
    return FiniteRing(add, mul, _identity(add) if zero is None else zero,
                      _identity(mul) if one is None else one, labels=labels, name=name)


def quotient_ring(ring: FiniteRing, ideal) -> tuple[FiniteRing, np.ndarray]:
    """Quotient by a two-sided ideal, with the projection as an int array.

    Cosets are ordered by their least member index; the projection sends
    each element to the rank of its coset representative.
    """
    mask = as_mask(ideal)
    verify_ideal(ring, mask, "two")
    reps, proj = ring.addgroup.cosets(mask)
    q_add = proj[ring.addgroup.sums(reps[:, None], reps)]
    q_mul = proj[ring.mul[np.ix_(reps, reps)]]
    labels = [ring.label(int(r)) for r in reps]
    qname = f"{ring.name}/<{mask.bit_count()}>"
    quotient = FiniteRing(q_add, q_mul, zero=int(proj[ring.zero]), one=int(proj[ring.one]),
                          labels=labels, name=qname)
    return quotient, proj


def verify_ring_map(source: FiniteRing, target: FiniteRing, image) -> Verdict:
    """Check that x -> ``image[x]`` preserves the identity, + and ·.

    Both tables must be rings, as every ``FiniteRing`` is assumed to be;
    then the map is decided at generator width, as ``check_closed`` decides
    a mask. It is additive iff f(x+g) = f(x)+f(g) for every x and every
    additive generator g of the source (every element is a sum of
    generators), and an additive map is multiplicative iff f(g·h) =
    f(g)·f(h) on generator pairs, both sides being biadditive. Only a map
    that fails is scanned in full, a block of rows at a time
    (``law_witness``), for the lex-first witness: ("one",) for a moved
    identity, else ("add"|"mul", a, b). An image of the wrong length or out
    of range raises MalformedTableError.
    """
    img = np.asarray(image, dtype=np.int64)
    if img.shape != (source.order,):
        raise MalformedTableError(
            f"map image has {img.size} entries for a source of order {source.order}")
    bad = np.flatnonzero((img < 0) | (img >= target.order))
    if bad.size:
        raise MalformedTableError(f"map image value {img[bad[0]]} out of range")
    if img[source.one] != target.one:
        return Verdict(False, ("one",))
    gens = source.addgroup.generators
    at, every = img[gens], np.arange(source.order)
    src_sum, tgt_sum = source.addgroup.sums, target.addgroup.sums
    if ((img[src_sum(every[:, None], gens)] == tgt_sum(img[:, None], at)).all()
            and (img[source.mul[np.ix_(gens, gens)]] == target.mul[np.ix_(at, at)]).all()):
        return Verdict(True)
    for op, src, tgt in (("add", src_sum, tgt_sum),
                         ("mul", lambda x, y: source.mul[x, y], lambda x, y: target.mul[x, y])):
        found = law_witness((source.order, 1, source.order),
                            lambda a: img[src(every[a, None], every)][:, None],
                            lambda a: tgt(img[a][:, None, None], img))
        if found is not None:
            return Verdict(False, (op, found[0], found[2]))
    return Verdict(True)
