"""Ideals of finite rings: lattices, primeness, radicals.

Two observations keep every kernel here off the n² entries of the table.
Products are biadditive, so for an additively closed target a condition
quantified over all ring elements between two fixed ones ("a, anything,
b"), or an absorption test, only needs the additive generators. And in a
unital ring the right ideal generated by a is the row set aT = {a*t}, the
left one the column set Ta; whether a*T*b lands inside depends on a only
through aT, so the prime scan works one class of aT at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitsets import bool_array, full_mask, indices_of
from .errors import NotAnIdealError, NotProperError
from .validation import Verdict

__all__ = [
    "Ideal",
    "DEFAULT_LATTICE_CAP",
    "principal_ideal",
    "enumerate_ideals",
    "check_ideal",
    "verify_ideal",
    "is_prime_ideal",
    "is_semiprime_ideal",
    "confirm_prime_witness",
    "prime_spectrum",
    "prime_radical",
    "is_prime_ring",
    "is_semiprime_ring",
]

DEFAULT_LATTICE_CAP = 20_000

SIDES = ("left", "right", "two")


@dataclass(frozen=True)
class Ideal:
    """A subset of a ring closed under + and absorbing on the named sides."""

    ring: object
    members: int
    sidedness: str

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def member_indices(self) -> np.ndarray:
        return indices_of(self.members, self.ring.order)

    def is_proper(self) -> bool:
        return self.members != full_mask(self.ring.order)

    def is_zero(self) -> bool:
        return self.size == 1

    def contains(self, index: int) -> bool:
        return bool((self.members >> index) & 1)

    def __str__(self) -> str:
        return self.ring.format_subset(self.members)


def check_ideal(ring, mask: int, sidedness: str) -> Verdict:
    """Closure check with a witness; no exception on failure.

    Decided at generator width: the mask holds zero, the span of its own
    additive generators is the mask, and the products of its generators
    with T's land inside on each absorbing side (enough, as products are
    biadditive). A mask that fails is scanned in full for the lex-first
    witness. Witness forms: ("zero",), ("add", a, b), ("left", r, a),
    ("right", a, r).
    """
    if sidedness not in SIDES:
        raise ValueError(f"sidedness must be one of {SIDES}, got {sidedness!r}")
    k = ring.order
    inside = bool_array(mask, k)
    if inside[ring.zero]:
        group = ring.addgroup
        gens, tgens = group.subgroup_generators(mask), group.generators
        if (group.span_mask(gens) == mask
                and (sidedness == "right" or inside[ring.mul[np.ix_(tgens, gens)]].all())
                and (sidedness == "left" or inside[ring.mul[np.ix_(gens, tgens)]].all())):
            return Verdict(True)
    members = indices_of(mask, k)
    if members.size == 0 or not inside[ring.zero]:
        return Verdict(False, ("zero",))
    sums = inside[ring.add[np.ix_(members, members)]]
    if not sums.all():
        i, j = map(int, np.argwhere(~sums)[0])
        return Verdict(False, ("add", int(members[i]), int(members[j])))
    if sidedness in ("left", "two"):
        prods = inside[ring.mul[:, members]]
        if not prods.all():
            r, i = map(int, np.argwhere(~prods)[0])
            return Verdict(False, ("left", r, int(members[i])))
    if sidedness in ("right", "two"):
        prods = inside[ring.mul[members, :]]
        if not prods.all():
            i, r = map(int, np.argwhere(~prods)[0])
            return Verdict(False, ("right", int(members[i]), r))
    return Verdict(True)


def verify_ideal(ring, mask: int, sidedness: str) -> Ideal:
    """Closure check that wraps the mask or raises NotAnIdealError."""
    verdict = check_ideal(ring, mask, sidedness)
    if not verdict:
        raise NotAnIdealError(
            f"subset {ring.format_subset(mask)} of {ring.name} is not a {sidedness}-sided ideal; "
            f"first failure {verdict.witness}")
    return Ideal(ring, mask, sidedness)


# -- principal ideals and the lattice ------------------------------------------


def _classes(rows: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """Class of each row, numbered by first appearance, and each class's bytes."""
    seen: dict[bytes, int] = {}
    classes = np.fromiter((seen.setdefault(row.tobytes(), len(seen)) for row in rows),
                          dtype=np.int64, count=len(rows))
    return classes, list(seen)


def _row_classes(ring, side: str) -> tuple[np.ndarray, list[int]]:
    """Classes of the row sets aT (side "right") or Ta ("left"), cached.

    Returns the class of each a and the mask of each class. The packed
    bit-rows are built a chunk of rows at a time from a one-hot of the
    table, so no n×n boolean array is ever held.
    """
    key = ("row-classes", side)
    if key not in ring._cache:
        k = ring.order
        table = ring.mul if side == "right" else ring.mul.T
        rows = np.empty((k, (k + 7) // 8), dtype=np.uint8)
        step = max(1, 2**22 // k)                  # one-hot chunks of at most 4 MiB
        for lo in range(0, k, step):
            hot = np.zeros((min(step, k - lo), k), dtype=bool)
            np.put_along_axis(hot, table[lo:lo + step], True, axis=1)
            rows[lo:lo + step] = np.packbits(hot, axis=1, bitorder="little")
        classes, keys = _classes(rows)
        ring._cache[key] = (classes, [int.from_bytes(row, "little") for row in keys])
    return ring._cache[key]


def _principal_masks(ring, sidedness: str) -> list[int]:
    """Masks of the ideals generated by each single element (cached).

    One-sided, they are the row sets aT and Ta, read off with no span. The
    two-sided ideal TaT is the sum of the (g*a)T over the middle generators
    g, so elements with the same classes (g*a)T share it; it is spanned
    once per such key, from the products g*a*h of its least element.
    """
    key = ("principal", sidedness)
    if key not in ring._cache:
        if sidedness == "two":
            right, _ = _row_classes(ring, "right")
            gens = _mid_generators(ring)
            classes, _ = _classes(np.sort(right[ring.mul[gens, :].T], axis=1))  # of the (g*a)T
            _, first = np.unique(classes, return_index=True)
            masks = [ring.addgroup.span_mask(ring.mul[ring.mul[gens, a][:, None], gens[None, :]])
                     for a in first]
        else:
            classes, masks = _row_classes(ring, sidedness)
        ring._cache[key] = [masks[c] for c in classes]
    return ring._cache[key]


def principal_ideal(ring, a: int, sidedness: str = "two") -> Ideal:
    """Smallest ideal of the named sidedness containing the element index a."""
    if sidedness not in SIDES:
        raise ValueError(f"sidedness must be one of {SIDES}, got {sidedness!r}")
    return Ideal(ring, _principal_masks(ring, sidedness)[int(a)], sidedness)


def enumerate_ideals(ring, sidedness: str = "two", cap: int = DEFAULT_LATTICE_CAP) -> list[Ideal]:
    """All ideals of the named sidedness, sorted by (size, mask).

    Principal ideals are closed under pairwise join to a fixpoint; every
    ideal is a join of principal ones. CapacityError when the lattice would
    hold more than ``cap`` ideals; the principal ones count too.
    """
    if sidedness not in SIDES:
        raise ValueError(f"sidedness must be one of {SIDES}, got {sidedness!r}")
    key = ("ideals", sidedness, cap)
    if key in ring._cache:
        return ring._cache[key]
    masks = ring.addgroup.join_closure(_principal_masks(ring, sidedness), cap,
                                       f"{sidedness}-sided ideal lattice of {ring.name}")
    out = [Ideal(ring, m, sidedness) for m in masks]
    ring._cache[key] = out
    return out


# -- primeness -------------------------------------------------------------------


def _mid_generators(ring) -> np.ndarray:
    """Additive generators plus the identity: the middle factors that matter."""
    return np.append(ring.addgroup.generators, ring.one).astype(np.int64)


def _prime_scan(ring, inside: np.ndarray) -> tuple[int, int] | None:
    """First (a, b) with a*T*b inside the target but a, b outside.

    a*T*b = (aT)*b, so a's outcome depends only on its class aT: the least
    outside a of each class is tested, in ascending order, which keeps the
    witness lex-first. The condition on b reads the products a*g over the
    middle generators g.
    """
    mul, gens = ring.mul, _mid_generators(ring)
    classes, _ = _row_classes(ring, "right")
    outside = np.flatnonzero(~inside)
    _, first = np.unique(classes[outside], return_index=True)
    for a in np.sort(outside[first]):
        u = np.unique(mul[a, gens])
        bad = np.flatnonzero(inside[mul[u, :]].all(axis=0) & ~inside)  # (a*mid)*b inside
        if bad.size:
            return int(a), int(bad[0])
    return None


def is_prime_ideal(ideal: Ideal) -> Verdict:
    """Decide primeness of a proper two-sided ideal; witness is lex-first (a, b).

    Prime: a*x*b inside for all x forces a or b inside. Improper input
    raises NotProperError rather than answering.
    """
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProperError("primeness is only defined for proper ideals")
    inside = bool_array(ideal.members, ring.order)
    hit = _prime_scan(ring, inside)
    if hit is not None:
        return Verdict(False, hit)
    return Verdict(True)


def is_semiprime_ideal(ideal: Ideal) -> Verdict:
    """Decide semiprimeness of a proper two-sided ideal; witness is the least a.

    Semiprime: a*x*a inside for all x forces a inside. Fully vectorized —
    the diagonal pairs make the whole table small.
    """
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProperError("semiprimeness is only defined for proper ideals")
    inside = bool_array(ideal.members, ring.order)
    gens = _mid_generators(ring)
    k = ring.order
    arange = np.arange(k)
    # t[a, j] = a * gens[j] * a
    t = ring.mul[ring.mul[arange[:, None], gens[None, :]], arange[:, None]]
    cond = inside[t].all(axis=1)
    bad = cond & ~inside
    if bad.any():
        return Verdict(False, int(np.flatnonzero(bad)[0]))
    return Verdict(True)


def confirm_prime_witness(ring, mask: int, a: int, b: int) -> bool:
    """Does the pair (a, b) actually refute primeness of the given subset?

    True when a and b are both outside but every a*x*b lands inside. Accepts
    any claimed pair, not just the lex-first one the scan would report.
    """
    inside = bool_array(mask, ring.order)
    if inside[a] or inside[b]:
        return False
    u = np.unique(ring.mul[a, _mid_generators(ring)])
    return bool(inside[ring.mul[u, b]].all())


# -- spectra and radicals -----------------------------------------------------------


def prime_spectrum(ring, cap: int = DEFAULT_LATTICE_CAP) -> list[Ideal]:
    """All proper prime two-sided ideals, sorted by (size, mask)."""
    key = ("spectrum", cap)
    if key in ring._cache:
        return ring._cache[key]
    out = [c for c in enumerate_ideals(ring, "two", cap)
           if c.is_proper() and is_prime_ideal(c)]
    ring._cache[key] = out
    return out


def prime_radical(ring, cap: int = DEFAULT_LATTICE_CAP) -> Ideal:
    """Intersection of all proper prime two-sided ideals.

    A finite unital ring always has a maximal (hence prime) ideal, so the
    degenerate all-elements answer would only signal a broken input; it is
    still returned rather than invented around.
    """
    key = ("radical", cap)
    if key in ring._cache:
        return ring._cache[key]
    mask = full_mask(ring.order)
    for p in prime_spectrum(ring, cap):
        mask &= p.members
    out = Ideal(ring, mask, "two")
    ring._cache[key] = out
    return out


def is_prime_ring(ring) -> Verdict:
    """Is the zero ideal prime — i.e. no nonzero a, b with a*ring*b = 0."""
    return is_prime_ideal(Ideal(ring, 1 << ring.zero, "two"))


def is_semiprime_ring(ring) -> Verdict:
    """Is the zero ideal semiprime — i.e. no nonzero a with a*ring*a = 0."""
    return is_semiprime_ideal(Ideal(ring, 1 << ring.zero, "two"))
