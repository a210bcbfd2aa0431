"""Ideals of finite rings: lattices, primeness, radicals, nilpotency.

Everything here leans on one observation: for an additively closed target
set, a condition quantified over all ring elements between two fixed ones
("a, anything, b") only needs checking at the additive generators of the
middle factor, because products are biadditive. That turns the cubic scans
into generator-width ones and keeps rings of a few thousand elements
comfortable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitsets import bool_array, full_mask, indices_of, is_subset
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
    "confirm_semiprime_witness",
    "is_prime_ideal_pairwise",
    "is_semiprime_ideal_pairwise",
    "prime_spectrum",
    "prime_radical",
    "is_prime_ring",
    "is_semiprime_ring",
    "is_nilpotent_ideal",
    "ideal_product_mask",
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

    Witness forms: ("zero",), ("add", a, b), ("left", r, a), ("right", a, r).
    """
    if sidedness not in SIDES:
        raise ValueError(f"sidedness must be one of {SIDES}, got {sidedness!r}")
    k = ring.order
    members = indices_of(mask, k)
    inside = bool_array(mask, k)
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


def _principal_masks(ring, sidedness: str) -> list[int]:
    """Masks of the ideals generated by each single element (dedup-cached).

    The two-sided ideal of a is the additive span of {g*a*h} with g, h over
    the additive generators plus identity; one-sided drops a factor. Rows of
    generator products fingerprint duplicate generators cheaply.
    """
    key = ("principal", sidedness)
    if key in ring._cache:
        return ring._cache[key]
    group = ring.addgroup
    gens = np.append(group.generators, ring.one).astype(np.int64)
    k = ring.order
    if sidedness == "left":
        prods = ring.mul[gens, :].T                  # (k, g): row a lists g*a
    elif sidedness == "right":
        prods = ring.mul[:, gens]                    # (k, g): row a lists a*h
    else:
        parts = [ring.mul[ring.mul[g]][:, gens] for g in gens]   # each (k, g): g*a*h
        prods = np.concatenate(parts, axis=1)
    prods = np.sort(prods, axis=1)
    uniq, inverse = np.unique(prods, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    spans = [group.span_mask(row) for row in uniq]
    out = [spans[inverse[a]] for a in range(k)]
    ring._cache[key] = out
    return out


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


def _prime_scan(mul: np.ndarray, gens: np.ndarray, inside: np.ndarray) -> tuple[int, int] | None:
    """First (a, b) with a*mid*b all inside the target but a, b outside.

    Rows a*g are deduplicated: distinct a with the same product row impose
    the same condition on b, so the b-vector is computed once per row.
    """
    k = mul.shape[0]
    outside = np.flatnonzero(~inside)
    cache: dict[bytes, np.ndarray] = {}
    for a in outside:
        u = np.unique(mul[a, gens])
        fp = u.tobytes()
        cond_b = cache.get(fp)
        if cond_b is None:
            cond_b = inside[mul[u, :]].all(axis=0)   # per b: (a*mid)*b inside
            cache[fp] = cond_b
        bad = cond_b & ~inside
        if bad.any():
            return int(a), int(np.flatnonzero(bad)[0])
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
    hit = _prime_scan(ring.mul, _mid_generators(ring), inside)
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


def confirm_semiprime_witness(ring, mask: int, a: int) -> bool:
    """Does the element a actually refute semiprimeness of the given subset?"""
    return confirm_prime_witness(ring, mask, a, a)


def ideal_product_mask(ring, amask: int, bmask: int) -> int:
    """Additive span of pairwise products of two additively closed sets.

    Products of subgroup generators generate the span: every member of
    either factor is a sum of its generators and multiplication is
    biadditive.
    """
    group = ring.addgroup
    agens = group.subgroup_generators(amask)
    bgens = group.subgroup_generators(bmask)
    if agens.size == 0 or bgens.size == 0:
        return 1 << ring.zero
    prods = ring.mul[np.ix_(agens, bgens)].ravel()
    return group.span_mask(np.unique(prods))


def is_prime_ideal_pairwise(ideal: Ideal, cap: int = DEFAULT_LATTICE_CAP) -> Verdict:
    """Primeness via products of ideals: A*B inside forces A or B inside.

    Quantifies over the two-sided ideal lattice — an independent route from
    the elementwise definition, kept separate on purpose. The witness is a
    pair of ideal masks.
    """
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProperError("primeness is only defined for proper ideals")
    lattice = enumerate_ideals(ring, "two", cap)
    target = ideal.members
    inside_flags = [is_subset(c.members, target) for c in lattice]
    for i, a in enumerate(lattice):
        if inside_flags[i]:
            continue
        for j, b in enumerate(lattice):
            if inside_flags[j]:
                continue
            if is_subset(ideal_product_mask(ring, a.members, b.members), target):
                return Verdict(False, (a.members, b.members))
    return Verdict(True)


def is_semiprime_ideal_pairwise(ideal: Ideal, cap: int = DEFAULT_LATTICE_CAP) -> Verdict:
    """Semiprimeness via squares of ideals: A*A inside forces A inside."""
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProperError("semiprimeness is only defined for proper ideals")
    lattice = enumerate_ideals(ring, "two", cap)
    target = ideal.members
    for a in lattice:
        if is_subset(a.members, target):
            continue
        if is_subset(ideal_product_mask(ring, a.members, a.members), target):
            return Verdict(False, (a.members,))
    return Verdict(True)


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


def is_nilpotent_ideal(ring, mask: int) -> tuple[bool, int]:
    """Whether repeated self-products of an additively closed set reach zero.

    Returns (answer, exponent): the first power that collapses to {0}, or
    the stabilized step count when it never does.
    """
    zero_mask = 1 << ring.zero
    seen = []
    current = mask
    power = 1
    while True:
        if current == zero_mask:
            return True, power
        if current in seen:
            return False, power
        seen.append(current)
        current = ideal_product_mask(ring, current, mask)
        power += 1
