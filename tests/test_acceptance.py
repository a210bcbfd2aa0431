"""End-to-end acceptance battery.

Each test here is one gate: it reproduces a known structural fact across the
builtin catalog and prints a single ``ACCEPTANCE <name>: PASS/FAIL`` line with
its wall-clock time, visible even under pytest's capture.  All comparisons are
exact — there is no tolerance anywhere in this module.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
from naive import (block_audit, components, is_prime_ideal_pairwise,
                   is_semiprime_ideal_pairwise, members_of, naive_ideals)

from moritactx import (
    Ideal,
    build_context_ring,
    build_ks_context,
    builtin_context,
    check_ideal,
    check_prime_quadruple,
    check_semiprime_quadruple,
    closure_sets,
    confirm_prime_submodule_witness,
    confirm_prime_witness,
    context_prime_radical,
    decompose_ideal,
    enumerate_context_ideals,
    enumerate_ideals,
    enumerate_submodules,
    is_prime_context,
    is_prime_ideal,
    is_prime_ring,
    is_prime_submodule,
    is_semiprime_context,
    is_semiprime_ideal,
    is_semiprime_ring,
    is_slotted_ideal,
    is_surjective_context,
    make_zn,
    prime_radical,
    product_span_vw,
    product_span_wv,
    side_decomposition,
    slotted_blocks,
    validate_context,
    verify_ideal,
    verify_quotient_iso,
    verify_submodule,
)
from moritactx.catalog import battery_names
from moritactx.checks import _chain
from moritactx.context import _pair_views


@contextmanager
def _criterion(capsys, name: str, budget: float | None = None):
    """Time a criterion body and print its one pass/fail line."""
    start = time.time()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.time() - start
        over = budget is not None and elapsed >= budget
        status = "FAIL" if (failed or over) else "PASS"
        tail = f"{elapsed:.1f}s / budget {budget:.0f}s" if budget is not None else f"{elapsed:.1f}s"
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {status} ({tail})")
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"


def _battery():
    for name in battery_names():
        yield name, builtin_context(name).context


def test_right_ideal_blocks(capsys):
    # The order-4096 member: a one-sided ideal that splits into two blocks,
    # the first of which fails the prime-submodule condition at scalar 2.
    with _criterion(capsys, "right-ideal-blocks", budget=5.0):
        res = builtin_context("paper:ex2.4")
        ctx = res.context
        ring = build_context_ring(ctx)
        mask = res.ideals["U"].mask

        assert check_ideal(ring, mask, "right").holds
        assert not check_ideal(ring, mask, "left").holds

        blocks = side_decomposition(ctx, mask, "right")
        assert blocks == slotted_blocks(ctx, res.ideals["U"].parts, "right")
        assert all(block_audit(ctx, mask, "right").values())
        view, first = blocks[0].module, blocks[0].members

        # Block 1 collects the (corner, second-carrier) pairs with corner
        # component in {0, 4}; the second coordinate runs over everything.
        expected = 0
        for r in (0, 4):
            for w in range(8):
                expected |= 1 << (r * 8 + w)
        assert first == expected

        verdict = is_prime_submodule(view, first, "right")
        assert not verdict.holds
        scalar, _element = verdict.witness
        assert scalar == 2
        # The historical witness pair (2, (2, 2)) also certifies the failure.
        assert confirm_prime_submodule_witness(view, first, "right", 2, 2 * 8 + 2)

        assert not is_prime_ideal(verify_ideal(ring, mask, "right")).holds


def test_large_block_lattice(capsys):
    # The right block view of full:120 has 14 400 elements and 770 distinct
    # cyclic seeds, 32 of them join-irreducible; its lattice is closed over
    # those 32 alone.
    with _criterion(capsys, "large-block-lattice", budget=2.0):
        ctx = builtin_context("full:120").context
        assert len(enumerate_submodules(_pair_views(ctx, "right")[0], "right")) == 1776


def test_prime_needs_spanning(capsys):
    # A two-sided ideal whose slot description passes yet the ideal is not
    # prime, because the pairing products span only the zero subgroup.
    with _criterion(capsys, "prime-needs-spanning", budget=5.0):
        res = builtin_context("paper:ex2.8")
        ctx = res.context
        ring = build_context_ring(ctx)
        mask = res.ideals["H"].mask

        assert check_ideal(ring, mask, "two").holds
        assert product_span_vw(ctx) == 0b000001
        assert product_span_wv(ctx) == 0b000001

        report = check_prime_quadruple(ctx, decompose_ideal(ctx, mask))
        assert report.cond2
        assert not is_surjective_context(ctx)
        assert not report.holds
        assert _chain((report.holds, report.cond2), False) == (True, True)
        assert confirm_prime_witness(ring, mask,
                                     ctx.encode(3, 0, 0, 3), ctx.encode(1, 0, 0, 2))


def test_semiprime_corner_failure(capsys):
    # Semiprimeness of a slotted ideal fails exactly alongside its corner:
    # the squared element sits on the diagonal of the second ring.
    with _criterion(capsys, "semiprime-corner-failure", budget=2.0):
        res = builtin_context("paper:ex2.12")
        ctx = res.context
        ring = build_context_ring(ctx)
        mask = res.ideals["H"].mask

        assert check_ideal(ring, mask, "two").holds
        report = check_semiprime_quadruple(ctx, decompose_ideal(ctx, mask))
        assert not report.holds
        assert report.witness == ctx.encode(0, 0, 0, 2)
        assert not report.cond2
        assert not report.s_ok


def test_prime_slot_description(capsys):
    # Battery-wide: elementwise primeness of every proper slotted ideal
    # implies its slot description, and the converse holds whenever the
    # pairing products span.  The non-spanning member exhibits the gap.
    with _criterion(capsys, "prime-slot-description", budget=120.0):
        checked = 0
        gap_witnesses = 0
        for name, ctx in _battery():
            surjective = is_surjective_context(ctx)
            for quad in enumerate_context_ideals(ctx):
                if not quad.is_proper():
                    continue
                report = check_prime_quadruple(ctx, quad)
                forward, converse = _chain((report.holds, report.cond2), surjective)
                assert forward, (name, quad.masks)
                assert converse, (name, quad.masks)
                if name == "paper:ex2.8" and report.cond2 and not report.holds:
                    gap_witnesses += 1
                checked += 1
        assert checked > 100
        assert gap_witnesses >= 1


def test_slotwise_radical(capsys):
    # The slot-assembled prime radical equals the radical computed directly
    # on the context ring, for every battery member.
    with _criterion(capsys, "slotwise-radical", budget=120.0):
        for name, ctx in _battery():
            ring = build_context_ring(ctx)
            rad = context_prime_radical(ctx)
            assert rad.member_mask() == prime_radical(ring).members, name


def test_semiprime_slot_description(capsys):
    # Battery-wide: elementwise semiprimeness agrees with the slot
    # description outright, surjective or not.
    with _criterion(capsys, "semiprime-slot-description", budget=120.0):
        checked = 0
        for name, ctx in _battery():
            for quad in enumerate_context_ideals(ctx):
                if not quad.is_proper():
                    continue
                report = check_semiprime_quadruple(ctx, quad)
                assert report.holds == report.cond2, (name, quad.masks)
                checked += 1
        assert checked > 100


def test_radical_quotient_isomorphism(capsys):
    # Quotienting every slot by the radical's slots rebuilds the context
    # ring's own quotient: the rebuilt ring is isomorphic to T/rad(T).
    with _criterion(capsys, "radical-quotient-isomorphism"):
        for name, ctx in _battery():
            assert verify_quotient_iso(ctx).holds, name


def test_corner_chain_implications(capsys):
    # The graded conditions fall in a chain for every member, the converse
    # holds under spanning, and the two zero-pairing members certify that
    # neither converse is free without it.
    with _criterion(capsys, "corner-chain-implications"):
        for name, ctx in _battery():
            surjective = is_surjective_context(ctx)
            prime = is_prime_context(ctx)
            semi = is_semiprime_context(ctx)
            assert _chain(prime.conds, surjective) == (True, True), name
            assert _chain(semi.conds, surjective) == (True, True), name
            if surjective:
                if prime.conds[-1]:
                    assert prime.holds, name
                if semi.conds[-1]:
                    assert semi.holds, name

        # Two prime corners, dead pairings: the context ring is not prime.
        ctx = builtin_context("zero:2,2").context
        prime = is_prime_context(ctx)
        assert prime.conds[-1] and not is_surjective_context(ctx) and not prime.holds

        # One semiprime corner is not enough either.
        ctx = builtin_context("zero:2,4").context
        semi = is_semiprime_context(ctx)
        assert semi.conds[-1] and not is_surjective_context(ctx) and not semi.holds


def _scaled_formula_mul(ctx, ring, s_idx: int) -> np.ndarray:
    """The product table of a scalar context, recomputed slot by slot from
    the formula (r, v, w, s)(r', v', w', s') =
    (rr' + s·vw', rv' + vs', wr' + sw', s·wv' + ss')."""
    _, mv, mw, ks = ctx.dims
    r1, v1, w1, s1 = (a[:, None] for a in components(ctx))
    r2, v2, w2, s2 = (a[None, :] for a in components(ctx))
    mul, srow = ring.mul, ring.mul[s_idx]
    part_r = ring.add[mul[r1, r2], srow[mul[v1, w2]]]
    part_v = ring.add[mul[r1, v2], mul[v1, s2]]
    part_w = ring.add[mul[w1, r2], mul[s1, w2]]
    part_s = ring.add[srow[mul[w1, v2]], mul[s1, s2]]
    return ((part_r * mv + part_v) * mw + part_w) * ks + part_s


def test_scalar_context_criteria(capsys):
    # Scalar-twisted doubles over Z_n: prime iff the base is prime and the
    # scalar is nonzero; semiprime iff the base is squarefree and the scalar
    # is a unit.  Expectations computed by plain integer arithmetic.
    def prime_int(n: int) -> bool:
        return n >= 2 and all(n % d for d in range(2, n))

    def squarefree(n: int) -> bool:
        return all(n % (d * d) for d in range(2, n))

    with _criterion(capsys, "scalar-context-criteria", budget=180.0):
        for n in range(2, 7):
            base = make_zn(n)
            for s in range(n):
                ctx = build_ks_context(base, s)
                assert validate_context(ctx).ok, (n, s)
                ring = build_context_ring(ctx)
                assert np.array_equal(ring.mul[:, :], _scaled_formula_mul(ctx, base, s)), (n, s)
                assert bool(is_prime_ring(ring)) == (prime_int(n) and s != 0), (n, s)
                assert bool(is_semiprime_ring(ring)) == \
                    (squarefree(n) and math.gcd(s, n) == 1), (n, s)

        base = make_zn(6)
        good = {s for s in range(6)
                if bool(is_semiprime_ring(build_context_ring(build_ks_context(base, s))))}
        assert good == {1, 5}


def test_oracle_cross_checks(capsys):
    # Four independent derivations must coincide: slotted enumeration vs
    # direct lattice, elementwise vs lattice-pairwise primeness tests,
    # elementwise semiprimeness vs a zero prime radical, and fast
    # enumeration vs an exhaustive subset filter on tiny rings.  The slots
    # the library reads off without re-checking are checked here: every
    # decomposed ideal has closed, compatible slots, every closure set is
    # a two-sided submodule, and the radical's closure sets agree.
    with _criterion(capsys, "oracle-cross-checks"):
        small_rings = [make_zn(n) for n in range(2, 7)]
        for name, ctx in _battery():
            ring = build_context_ring(ctx)
            assert bool(is_semiprime_ring(ring)) == (prime_radical(ring).size == 1), name
            quads = enumerate_context_ideals(ctx)
            lattice = enumerate_ideals(ring)
            assert {q.member_mask() for q in quads} == {i.members for i in lattice}, name
            for quad in quads:
                sets = closure_sets(ctx, quad.r_part, quad.s_part)
                for mod, m in ((ctx.mod_v, sets.v_into_r), (ctx.mod_v, sets.v_into_s),
                               (ctx.mod_w, sets.w_into_r), (ctx.mod_w, sets.w_into_s)):
                    verify_submodule(mod, m, "bi")
            rad = context_prime_radical(ctx)
            sets = closure_sets(ctx, rad.r_part, rad.s_part)
            assert sets.v_agree and sets.w_agree, name
            for ideal in lattice:
                quad = decompose_ideal(ctx, ideal.members)
                assert quad.member_mask() == ideal.members
                assert is_slotted_ideal(ctx, quad.masks, "two"), (name, str(quad))
                if not ideal.is_proper():
                    continue
                assert is_prime_ideal(ideal).holds == is_prime_ideal_pairwise(ideal).holds
                assert (is_semiprime_ideal(ideal).holds
                        == is_semiprime_ideal_pairwise(ideal).holds)
            if ring.order <= 16:
                small_rings.append(ring)

        for ring in small_rings:
            assert bool(is_semiprime_ring(ring)) == (prime_radical(ring).size == 1), ring.name
            for side in ("two", "left", "right"):
                got = {frozenset(members_of(ideal.members, ring.order))
                       for ideal in enumerate_ideals(ring, side)}
                assert got == naive_ideals(ring, side), (ring.name, side)
