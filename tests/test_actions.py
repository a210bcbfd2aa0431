"""Each carrier presents its own actions, and the kernels read only those.

A two-sided or right ideal P of a unital ring T is prime exactly when it is
a prime submodule of T acting on itself from the left (a ∉ P ⟺ aT ⊄ P), so
the two public prime tests must agree in verdict and witness. The orbit
cache is keyed by side alone, which is sound only because ``action(side)``
fixes the table: computed in either order, each side's orbits must be the
orbit classes of that side's table, and on every battery carrier and block
view they must be the classes the one-hot oracle keys on whole orbits. A
sidedness a carrier lacks is refused with the same ValueError whether or
not a lattice is already cached; a block decomposition refuses any side but
left or right before it builds T.
"""

from __future__ import annotations

import numpy as np
import pytest

from naive import onehot_orbit_classes

from moritactx import (FiniteRing, battery_names, build_context_ring, builtin_context,
                       builtin_document, check_ideal, enumerate_ideals, enumerate_submodules,
                       is_prime_ideal, is_prime_submodule, load_mctx, ring_bimodule,
                       side_decomposition, verify_submodule)
from moritactx.context import _pair_views
from moritactx.spans import cyclic_masks, orbit_classes

SMALL = [name for name in battery_names()
         if builtin_context(name).context.order <= 256]


def _fresh(ring) -> FiniteRing:
    """A ring with the same tables and nothing cached."""
    return FiniteRing(ring.add, ring.mul, ring.zero, ring.one, name=ring.name)


def _assert_orbits(carrier, side: str):
    classes, masks = carrier.orbits(side)
    want_classes, want_masks = orbit_classes(carrier.action(side)[1], carrier.zero)
    assert np.array_equal(classes, want_classes) and masks == want_masks, (carrier, side)


@pytest.mark.parametrize("name", SMALL)
def test_prime_ideals_are_prime_submodules_of_the_ring_over_itself(name):
    ring = build_context_ring(builtin_context(name).context)
    module = ring_bimodule(ring)
    for sidedness in ("two", "right"):
        for ideal in enumerate_ideals(ring, sidedness):
            if ideal.is_proper():
                assert (is_prime_ideal(ideal)
                        == is_prime_submodule(module, ideal.members, "left")), \
                    (name, sidedness, str(ideal))


@pytest.mark.parametrize("first", ("left", "right"))
@pytest.mark.parametrize("name", ("tri:4,2", "paper:ex2.8"))
def test_orbits_are_the_orbit_classes_of_each_side_action(name, first):
    ring = build_context_ring(builtin_context(name).context)
    assert not np.array_equal(ring.mul[:, :], ring.mul.T[:, :]), name   # left and right orbits differ
    sides = (first, "right" if first == "left" else "left")
    for carrier in (_fresh(ring), ring_bimodule(_fresh(ring))):
        for side in sides:
            _assert_orbits(carrier, side)


@pytest.mark.parametrize("name", battery_names())
def test_orbit_classes_match_the_onehot_oracle(name):
    ctx = builtin_context(name).context
    ring = build_context_ring(ctx)
    for side in ("left", "right"):
        for carrier in (ring, ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w,
                        *_pair_views(ctx, side)):
            classes, masks = carrier.orbits(side)
            want_classes, want_masks = onehot_orbit_classes(carrier.action(side)[1])
            assert np.array_equal(classes, want_classes) and masks == want_masks, \
                (name, side, carrier.name)


RING_TEXT = "sidedness must be one of ('left', 'right', 'two'), got 'bi'"
MODULE_TEXT = "sidedness must be 'left', 'right' or 'bi', got 'two'"
SIDE_TEXT = "side must be 'left' or 'right', got {!r}"


@pytest.mark.parametrize("cached", (False, True))
def test_a_bad_sidedness_raises_value_error(cached):
    ctx = builtin_context("tri:4,2").context
    ring = build_context_ring(ctx)
    module = ring_bimodule(ring)
    if cached:                              # every valid cyclic list and lattice first
        for sidedness in ("left", "right", "two"):
            cyclic_masks(ring, sidedness)
            enumerate_ideals(ring, sidedness)
        for sidedness in ("left", "right", "bi"):
            enumerate_submodules(module, sidedness)
    zero = 1 << ring.zero
    calls = [(lambda: check_ideal(ring, zero, "bi"), RING_TEXT),
             (lambda: cyclic_masks(ring, "bi"), RING_TEXT),
             (lambda: enumerate_ideals(ring, "bi"), RING_TEXT),
             (lambda: verify_submodule(module, zero, "two"), MODULE_TEXT),
             (lambda: enumerate_submodules(module, "two"), MODULE_TEXT),
             (lambda: side_decomposition(ctx, zero, "bi"), SIDE_TEXT.format("bi")),
             (lambda: side_decomposition(ctx, zero, "two"), SIDE_TEXT.format("two"))]
    for call, text in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == text


@pytest.mark.parametrize("side", ("two", "bogus"))
def test_side_decomposition_refuses_a_bad_side_before_building_the_ring(side):
    ctx = load_mctx(builtin_document("tri:4,2")).context       # nothing built yet
    with pytest.raises(ValueError) as info:
        side_decomposition(ctx, 1, side)
    assert str(info.value) == SIDE_TEXT.format(side)
    assert "ring" not in ctx._cache
