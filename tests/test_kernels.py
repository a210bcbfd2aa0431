"""The generator-width kernels against the full-table routes they replaced.

On the battery contexts, ``check_ideal`` must give the full scan's verdict
and witness, for ideals of every side and for subsets that are not ideals;
the principal masks must equal the spans of generator products; each
lattice must equal the plain join closure of those spans; and the prime
scan by class of aT must give the fingerprint scan's witness. The order-1296
contexts share their shape, so one of them stands for the rest; ex2.4 is
compared where the full-table routes fit in the suite's time.
"""

from __future__ import annotations

import numpy as np
import pytest
from naive import (fingerprint_prime_scan, full_scan_check_ideal, plain_join_closure,
                   span_principal_masks)

from moritactx import (build_context_ring, builtin_context, check_ideal, enumerate_ideals,
                       is_prime_ideal)
from moritactx.bitsets import bool_array, is_subset
from moritactx.ideals import _principal_masks

SIDES = ("two", "left", "right")
CONTEXTS = ("full:2", "full:3", "full:4", "full:5", "ks:4:2", "ks:6:1", "tri:4,2",
            "zero:2,2", "zero:2,4", "paper:ex2.8", "paper:ex2.12")


def _ring(name: str):
    return build_context_ring(builtin_context(name).context)


def _lattice(ring, side: str) -> list[int]:
    return [ideal.members for ideal in enumerate_ideals(ring, side)]


def _non_ideals(ring, lattice: list[int]):
    """Each ideal plus its least outside element, and the union of each
    ideal with the next one in the lattice when neither contains the other
    (it absorbs products but is not closed under +)."""
    for mask in lattice:
        outside = np.flatnonzero(~bool_array(mask, ring.order))
        if outside.size:
            yield mask | 1 << int(outside[0])
    for a, b in zip(lattice, lattice[1:]):
        if not (is_subset(a, b) or is_subset(b, a)):
            yield a | b


def _assert_checks_agree(ring, masks, sides=SIDES):
    for mask in masks:
        for side in sides:
            assert check_ideal(ring, mask, side) == full_scan_check_ideal(ring, mask, side), \
                (ring.name, side, ring.format_subset(mask))


def _assert_scans_agree(ring, side: str):
    for ideal in (i for i in enumerate_ideals(ring, side) if i.is_proper()):
        inside = bool_array(ideal.members, ring.order)
        assert is_prime_ideal(ideal).witness == fingerprint_prime_scan(ring, inside), \
            (ring.name, str(ideal))


@pytest.mark.parametrize("name", CONTEXTS)
def test_principal_masks_and_lattices_match_the_span_routes(name):
    ring = _ring(name)
    for side in SIDES:
        spans = span_principal_masks(ring, side)
        assert _principal_masks(ring, side) == spans, (name, side)
        assert _lattice(ring, side) == plain_join_closure(ring.addgroup, spans), (name, side)


@pytest.mark.parametrize("name", CONTEXTS)
def test_check_ideal_matches_the_full_scan(name):
    ring = _ring(name)
    for side in SIDES:
        lattice = _lattice(ring, side)
        _assert_checks_agree(ring, lattice)
        _assert_checks_agree(ring, _non_ideals(ring, lattice))


@pytest.mark.parametrize("name", CONTEXTS)
def test_prime_scan_matches_the_fingerprint_scan(name):
    ring = _ring(name)
    for side in SIDES:
        _assert_scans_agree(ring, side)


def test_kernels_match_the_full_table_routes_on_ex2_4():
    # The right principal masks the prime scan keys on, and the two-sided
    # lattice, checks and scans; the left masks and the one-sided ideals'
    # full scans would dominate the suite's time.
    ring = _ring("paper:ex2.4")
    for side in ("right", "two"):
        assert _principal_masks(ring, side) == span_principal_masks(ring, side), side
    lattice = _lattice(ring, "two")
    assert lattice == plain_join_closure(ring.addgroup, _principal_masks(ring, "two"))
    _assert_checks_agree(ring, lattice, ("two",))
    _assert_checks_agree(ring, _non_ideals(ring, lattice), ("two",))
    _assert_scans_agree(ring, "two")
