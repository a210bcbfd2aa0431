"""Ideals of finite rings: lattices, primeness, radicals.

Ideals are the ring's submodules over itself (``mul`` acting on the left,
its transpose on the right, as ``FiniteRing.action`` presents them), so closure
checks, principal ideals, lattices and the prime scan are the module
kernels in ``spans``. Two observations keep every kernel off the n²
entries of the table. Products are biadditive, so a condition quantified
over all ring elements between two fixed ones ("a, anything, b") only
needs the additive generators. And in a unital ring the right ideal
generated by a is its orbit aT = {a*t}, the left one Ta; a ∈ P exactly
when aT ⊆ P for a right or two-sided ideal P (Ta ⊆ P for a left one), so
whether a*T*b ⊆ P depends only on the classes of a and b on P's own side:
the prime and semiprime scans pair class minima, or read the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bool_array, full_mask
from .errors import NotAnIdealError, NotProperError
from .spans import Subset, check_closed, prime_pair, semiprime_element
from .validation import Verdict

__all__ = [
    "Ideal",
    "DEFAULT_LATTICE_CAP",
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


@dataclass(frozen=True)
class Ideal(Subset):
    """A subset of a ring closed under + and absorbing on the named sides.
    The mask is taken as given, and the prime and semiprime scans rely on
    it; ``verify_ideal`` checks a hand-built one."""

    ring: object
    members: int
    sidedness: str

    @property
    def carrier(self):
        return self.ring


def check_ideal(ring, mask: int, sidedness: str) -> Verdict:
    """Closure check with a witness; no exception on failure.

    The ring as a module over itself: ``check_closed`` on each absorbing
    side. Witness forms: ("zero",), ("add", a, b), ("left", r, a),
    ("right", a, r).
    """
    return check_closed(ring, mask, sidedness)


def verify_ideal(ring, mask: int, sidedness: str) -> Ideal:
    """Closure check that wraps the mask or raises NotAnIdealError."""
    verdict = check_ideal(ring, mask, sidedness)
    if not verdict:
        raise NotAnIdealError(
            f"subset {ring.format_subset(mask)} of {ring.name} is not a {sidedness}-sided ideal; "
            f"first failure {verdict.witness}")
    return Ideal(ring, mask, sidedness)


def enumerate_ideals(ring, sidedness: str = "two", cap: int = DEFAULT_LATTICE_CAP) -> list[Ideal]:
    """All ideals of the named sidedness, sorted by (size, mask).

    Principal ideals are closed under pairwise join to a fixpoint; every
    ideal is a join of principal ones. CapacityError when the lattice would
    hold more than ``cap`` ideals; the principal ones count too.
    """
    masks = ring.lattice(sidedness, cap, f"{sidedness}-sided ideal lattice of {ring.name}")
    return [Ideal(ring, m, sidedness) for m in masks]


# -- primeness -------------------------------------------------------------------


def is_prime_ideal(ideal: Ideal) -> Verdict:
    """Decide elementwise primeness of a proper ideal of any sidedness;
    witness is lex-first (a, b).

    Prime: a*x*b inside for all x forces a or b inside: ``prime_pair`` on T
    over itself, on pairs of classes of the ideal's own side. The mask must
    absorb on the sides it names, as every ``Ideal`` made here does;
    ``verify_ideal`` checks a hand-built one. The verdict is cached on the
    ring. Improper input raises NotProperError rather than answering.
    """
    ring, key = ideal.ring, ("prime", ideal.members, ideal.sidedness)
    if not ideal.is_proper():
        raise NotProperError("primeness is only defined for proper ideals")
    if key not in ring._cache:
        hit = prime_pair(ring, "left", bool_array(ideal.members, ring.order), ideal.sidedness)
        ring._cache[key] = Verdict(hit is None, hit)
    return ring._cache[key]


def is_semiprime_ideal(ideal: Ideal) -> Verdict:
    """Decide semiprimeness of a proper ideal of any sidedness; witness is the least a.

    Semiprime: a*x*a inside for all x forces a inside: the diagonal of the
    prime scan's class pairs (``semiprime_element``), with the same
    precondition and cache as ``is_prime_ideal``.
    """
    ring, key = ideal.ring, ("semiprime", ideal.members, ideal.sidedness)
    if not ideal.is_proper():
        raise NotProperError("semiprimeness is only defined for proper ideals")
    if key not in ring._cache:
        a = semiprime_element(ring, bool_array(ideal.members, ring.order), ideal.sidedness)
        ring._cache[key] = Verdict(a is None, a)
    return ring._cache[key]


def confirm_prime_witness(ring, mask: int, a: int, b: int) -> bool:
    """Does the pair (a, b) actually refute primeness of the given subset?

    True when a and b are both outside but every a*x*b lands inside. Accepts
    any claimed pair, not just the lex-first one the scan would report.
    """
    inside = bool_array(mask, ring.order)
    if inside[a] or inside[b]:
        return False
    return bool(inside[ring.mul[ring.mul[a, ring.addgroup.generators], b]].all())


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
