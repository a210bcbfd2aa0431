from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from moritactx import (
    CapacityError,
    CentralityError,
    IdealQuadruple,
    MalformedTableError,
    MoritaContext,
    NotAnIdealError,
    Verdict,
    block_ideal_masks,
    block_ideals,
    build_context_ring,
    build_ks_context,
    check_prime_quadruple,
    check_semiprime_quadruple,
    closure_sets,
    context_prime_radical,
    decompose_ideal,
    enumerate_context_ideals,
    is_prime_context,
    is_semiprime_context,
    is_surjective_context,
    enumerate_ideals,
    enumerate_submodules,
    is_prime_ideal,
    is_slotted_ideal,
    make_zn,
    product_span_vw,
    product_span_wv,
    quadruple_mask,
    quotient_context,
    side_decomposition,
    slotted_blocks,
    validate_context,
    validate_ring,
    verify_ideal,
    verify_quotient_iso,
)
from moritactx import checks, context, ideals
from moritactx.ideals import DEFAULT_LATTICE_CAP
from moritactx.catalog import battery_names, builtin_context, builtin_document
from moritactx.checks import _chain, run_check
from moritactx.context import _carriers
from moritactx.mctx import inline_ideal_parts, load_mctx
from moritactx.spans import SumGroup
from moritactx.validation import SplitTable

from naive import (block_audit, block_pairs, is_nilpotent_ideal, members_of,
                   naive_context_product, naive_context_sum, naive_quadruple_ideals,
                   quotient_iso_by_quotient_ring)


def ctx_of(name):
    return builtin_context(name).context


# -- construction and multiplication -------------------------------------------


def test_full_context_ring_is_a_ring():
    ring = build_context_ring(ctx_of("full:2"))
    assert ring.order == 16
    assert validate_ring(ring.add, ring.mul[:, :]).ok


def test_context_multiplication_matches_the_formula():
    ctx = ctx_of("full:3")
    ring = build_context_ring(ctx)
    quads = list(itertools.product(range(3), repeat=4))
    for x in quads[::7]:
        for y in quads[::5]:
            expected = naive_context_product(ctx, x, y)
            got = ctx.decode(ring.mul[ctx.encode(*x), ctx.encode(*y)])
            assert got == expected, (x, y)


@pytest.mark.parametrize("name", ["tri:4,2", "zero:2,4", "paper:ex2.12", "paper:ex2.8"])
def test_context_tables_match_the_formula_everywhere(name):
    # Slot orders differ on each of these, so a swapped axis in the
    # broadcast build cannot go unnoticed.
    ctx = ctx_of(name)
    ring = build_context_ring(ctx)
    slots = [ctx.decode(i) for i in range(ctx.order)]
    for i, x in enumerate(slots):
        for j, y in enumerate(slots):
            assert ctx.decode(ring.add[i, j]) == naive_context_sum(ctx, x, y), (x, y)
            assert ctx.decode(ring.mul[i, j]) == naive_context_product(ctx, x, y), (x, y)


def test_encode_decode_round_trip():
    ctx = ctx_of("tri:4,2")
    for index in range(ctx.order):
        assert ctx.encode(*ctx.decode(index)) == index


def test_identity_and_zero_slots():
    ctx = ctx_of("full:4")
    ring = build_context_ring(ctx)
    assert ctx.decode(ring.zero) == (0, 0, 0, 0)
    assert ctx.decode(ring.one) == (1, 0, 0, 1)


def test_capacity_cap_is_enforced():
    with pytest.raises(CapacityError):
        build_context_ring(ctx_of("full:6"), cap=100)


def test_capacity_error_gives_the_table_size():
    # zero:100,101 has order 10100 and dims (100, 1, 1, 101): mul's two
    # uint16 row halves of 100 × 10100 and 101 × 10100 entries and half
    # tables of 100² and 101² entries take about 4 MiB. Nothing is allocated.
    with pytest.raises(CapacityError, match=r"has order 10100, over the cap 10000 "
                                            r"\(tables need 4 MiB\)$"):
        build_context_ring(ctx_of("zero:100,101"))
    # full:6: row halves of 36 × 1296 entries each and half tables of 36².
    with pytest.raises(CapacityError, match=r"has order 1296, over the cap 100 \(tables need under 1 MiB\)$"):
        build_context_ring(ctx_of("full:6"), cap=100)
    with pytest.raises(CapacityError, match=r"has order 81, over the cap 10 \(tables need under 1 MiB\)$"):
        build_context_ring(ctx_of("full:3"), cap=10)


def test_context_ring_tables_are_not_copied():
    # The build hands its read-only uint16 row halves to the ring uncopied,
    # as mul's SplitTable over the addition's digits: each is still the
    # (rows, n) view of the 8-axis broadcast sum it was built in. Addition
    # is the direct sum (R⊕V) ⊕ (W⊕S) of two half tables; no n×n table of
    # either operation is stored.
    ctx = load_mctx(builtin_document("paper:ex2.12")).context     # fresh, nothing read yet
    kr, mv, mw, ks = ctx.dims
    ring = build_context_ring(ctx)
    mul = ring.mul
    assert isinstance(mul, SplitTable) and mul.dtype == np.uint16 and mul.shape == (64, 64)
    assert mul.digits is ring.addgroup.digits
    assert mul.top.shape == (kr * mv, 64) and mul.bottom.shape == (mw * ks, 64)
    assert mul.top.base.shape == (kr, mv, 1, 1) + ctx.dims
    assert mul.bottom.base.shape == (1, 1, mw, ks) + ctx.dims
    assert all(half.dtype == np.uint16 and not half.flags.writeable for half in (mul.top, mul.bottom))
    assert mul.nbytes == mul.top.nbytes + mul.bottom.nbytes == 2 * 64 * (kr * mv + mw * ks)
    group = ring.addgroup
    assert isinstance(group, SumGroup) and group._table is None
    assert [table.shape for table, _ in group.summands] == [(kr * mv,) * 2, (mw * ks,) * 2]
    assert all(table.dtype == np.uint16 and not table.flags.writeable
               for table, _ in group.summands)


def test_context_ring_build_peaks_near_its_tables():
    # mul is the two summed slot tables of the broadcast, rr + vv and
    # ww + ss, of n·|R||V| and n·|W||S| entries, kept as they are: the peak
    # is those, the half + tables and the addition's two int64 digit arrays
    # of n entries; 128 KiB covers the small slot tables and index arrays.
    # On ex2.4 that is under 2 MiB, where the n×n mul alone took 32 MiB.
    for name in ("full:6", "paper:ex2.4"):
        ctx = load_mctx(builtin_document(name)).context     # fresh, nothing cached
        kr, mv, mw, ks = ctx.dims
        tracemalloc.start()
        try:
            ring = build_context_ring(ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        halves = sum(table.nbytes for table, _ in ring.addgroup.summands)
        digits = sum(d.nbytes for d in ring.addgroup.digits)
        assert ring.mul.nbytes == 2 * ring.order * (kr * mv + mw * ks), name
        assert peak <= ring.mul.nbytes + halves + digits + 2**17, name
        del ctx, ring
    assert peak < 2**21                             # ex2.4: two halves of 64 × 4096 entries


def _z120_context(corrupt: str | None = None):
    """Z120 over itself in every slot; ``corrupt`` changes one entry of the
    V×W pairing or of V's left action."""
    from moritactx import Bimodule, MoritaContext, ring_bimodule
    z120 = make_zn(120)
    pairing, act = np.array(z120.mul), np.array(z120.mul)
    if corrupt:
        {"pairing": pairing, "action": act}[corrupt][7, 11] = 5
    mod_v = Bimodule(z120.add, z120.zero, z120, act, z120, z120.mul, name="V")
    return MoritaContext(z120, z120, mod_v, ring_bimodule(z120), pairing, z120.mul)


def _validation_peak(ctx) -> tuple:
    tracemalloc.start()
    try:
        report = validate_context(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_context_validation_peaks_at_slab_width():
    # Every check holds one block of rows at a time, at most
    # validation._BLOCK entries a side, so validating full:120 (both Z120
    # carriers' bimodule laws and the twelve pairing laws) never holds a
    # 120³ cube; whole cubes peaked at 14.8 MiB, blocks peak at 0.6 MiB.
    report, peak = _validation_peak(_z120_context())
    assert report.ok and peak < 2**20


@pytest.mark.parametrize("corrupt", ["pairing", "action"])
def test_failed_context_validation_peaks_at_slab_width(corrupt):
    # A healthy context passes at generator width; one corrupted pairing or
    # action entry sends the context or bimodule laws through the full
    # scans, which must hold no cube either.
    report, peak = _validation_peak(_z120_context(corrupt))
    assert not report.ok and peak < 2**20


def _readers_of_t(ctx, zero, cap):
    """The five helpers that read T, each under the order cap ``cap``."""
    return {
        "prime": lambda: check_prime_quadruple(ctx, zero, cap),
        "semiprime": lambda: check_semiprime_quadruple(ctx, zero, cap),
        "decompose": lambda: decompose_ideal(ctx, zero.member_mask(), cap),
        "side": lambda: side_decomposition(ctx, zero.member_mask(), "right", cap),
        "quotient": lambda: verify_quotient_iso(ctx, order_cap=cap),
    }


def test_helpers_read_t_under_their_own_cap():
    # full:4 has order 256: over a cap of 100, under one of 1000. A ring
    # built under the raised cap does not lift the lower one, and no
    # helper needs T built before it.
    ctx = load_mctx(builtin_document("full:4")).context      # nothing built yet
    zero = enumerate_context_ideals(ctx)[0]
    for built in (False, True):
        if built:
            build_context_ring(ctx, cap=1000)
        for read in _readers_of_t(ctx, zero, 100).values():
            with pytest.raises(CapacityError):
                read()
    ctx = load_mctx(builtin_document("full:4")).context
    zero = enumerate_context_ideals(ctx)[0]
    answers = {name: read() for name, read in _readers_of_t(ctx, zero, 1000).items()}
    assert answers["prime"].holds is False
    assert answers["semiprime"].holds is False
    assert answers["decompose"].masks == zero.masks
    assert answers["side"] == slotted_blocks(ctx, zero.masks, "right")
    assert answers["quotient"]


@pytest.mark.parametrize("token", [t for t in checks.CHECK_TOKENS if t != "ks"])
def test_the_order_cap_reaches_every_check(token):
    # 2.6 reads the closure sets alone; every other check reads T.
    res = load_mctx(builtin_document("full:4"))
    if token == "2.6":
        assert run_check(token, res, order_cap=100).passed
    else:
        with pytest.raises(CapacityError):
            run_check(token, res, order_cap=100)
    assert run_check(token, load_mctx(builtin_document("full:4")), order_cap=256).passed


def test_validation_catches_broken_pairings(z2):
    from moritactx import MoritaContext, ring_bimodule

    bad = np.array([[1, 1], [1, 0]])
    ctx = MoritaContext(z2, z2, ring_bimodule(z2), ring_bimodule(z2), bad, np.zeros((2, 2), int))
    report = validate_context(ctx)
    assert not report.ok
    assert any("vw" in v.law for v in report.violations)
    assert validate_context(ctx) == report


def test_pairing_laws_run_once_per_context(monkeypatch):
    # Loading validates the context; ``report`` and ``validate`` ask again
    # and read the kept verdict, under the name the context has then.
    calls = []
    real = context._pairings_hold
    monkeypatch.setattr(context, "_pairings_hold", lambda ctx: calls.append(ctx) or real(ctx))
    ctx = load_mctx(builtin_document("full:3")).context
    assert len(calls) == 1
    ctx.name = "renamed"
    assert str(validate_context(ctx)) == "context renamed: ok" and len(calls) == 1


# -- scaled contexts -------------------------------------------------------------


def test_scaled_context_with_nonzero_scalar_inserts_it(z6):
    ctx = build_ks_context(z6, 2)
    # pairing is v * (s * w): 3 . 5 -> 3*2*5 = 30 = 0
    assert ctx.prod_vw[3, 5] == 0
    assert ctx.prod_vw[1, 1] == 2


def test_scaled_context_requires_central_scalar():
    ring = build_context_ring(ctx_of("full:2"))  # noncommutative, order 16
    non_central = next(
        a for a in range(16)
        if any(ring.mul[a, b] != ring.mul[b, a] for b in range(16)))
    with pytest.raises(CentralityError):
        build_ks_context(ring, non_central)


def test_scaled_context_rejects_out_of_range(z4):
    with pytest.raises(MalformedTableError):
        build_ks_context(z4, 7)


def test_nilpotent_diagonal_in_k1_of_z2(z2):
    ctx = build_ks_context(z2, 1)
    ring = build_context_ring(ctx)
    e = ring.order - 1  # (1, 1, 1, 1) is the last index
    assert ring.mul[e, e] == ring.zero
    # a square-zero element, yet the ring stays semiprime (as matrix rings do)
    assert is_semiprime_context(ctx).holds


# -- spans and surjectivity -------------------------------------------------------


def test_full_contexts_are_surjective():
    assert is_surjective_context(ctx_of("full:5"))


def test_degenerate_pairings_span_nothing():
    ctx = ctx_of("paper:ex2.8")
    assert product_span_vw(ctx) == 0b000001   # {0} inside Z6
    assert product_span_wv(ctx) == 0b000001
    assert not is_surjective_context(ctx)


# -- quadruple enumeration ---------------------------------------------------------


@pytest.mark.parametrize("name,count", [
    ("full:2", 2), ("full:3", 2), ("full:4", 3), ("full:5", 2), ("full:6", 4),
    ("tri:4,2", 8), ("zero:2,2", 4), ("zero:2,4", 6),
    ("paper:ex2.4", 4), ("paper:ex2.8", 25), ("paper:ex2.12", 21), ("ks:6:0", 49),
])
def test_quadruple_counts(name, count):
    assert len(enumerate_context_ideals(ctx_of(name))) == count


@pytest.mark.parametrize("name", ["full:2", "zero:2,2", "tri:4,2", "paper:ex2.12"])
def test_quadruples_match_naive_enumeration(name):
    ctx = ctx_of(name)
    got = set()
    for quad in enumerate_context_ideals(ctx):
        got.add((
            tuple(members_of(quad.r_part.members, ctx.ring_r.order)),
            tuple(members_of(quad.v_part.members, ctx.mod_v.order)),
            tuple(members_of(quad.w_part.members, ctx.mod_w.order)),
            tuple(members_of(quad.s_part.members, ctx.ring_s.order)),
        ))
    assert got == naive_quadruple_ideals(ctx)


def test_quadruple_mask_is_slotwise_product():
    ctx = ctx_of("full:4")
    mask = quadruple_mask(ctx, 0b0101, 0b0101, 0b0101, 0b0101)
    assert bin(mask).count("1") == 2 * 2 * 2 * 2


# -- decomposition ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["full:4", "paper:ex2.12", "tri:4,2", "zero:2,4"])
def test_decompose_round_trips_every_ideal(name):
    ctx = ctx_of(name)
    for quad in enumerate_context_ideals(ctx):
        again = decompose_ideal(ctx, quad.member_mask())
        assert again.masks == quad.masks


def test_decompose_rejects_non_ideals():
    ctx = ctx_of("full:4")
    with pytest.raises(NotAnIdealError):
        decompose_ideal(ctx, 0b1011)


@pytest.mark.parametrize("side", ["right", "left"])
def test_one_sided_blocks_on_triangular_context(side):
    ctx = ctx_of("tri:4,2")
    ring = build_context_ring(ctx)
    for ideal in enumerate_ideals(ring, side):
        assert all(block_audit(ctx, ideal.members, side).values()), (side, bin(ideal.members))


def test_block_shapes_of_the_z8_right_ideal():
    res = builtin_context("paper:ex2.4")
    first, _ = side_decomposition(res.context, res.ideals["U"].mask, "right")
    # first block: 4Z8 in the corner ring, everything in the module slot
    got = {divmod(i, 8) for i in members_of(first.members, 16 * 4)}
    assert got == {(r, w) for r in (0, 4) for w in range(8)}
    # U is no left ideal: read on the left, the oracle's audit fails
    assert not all(block_audit(res.context, res.ideals["U"].mask, "left").values())
    ring = build_context_ring(res.context)
    assert not is_prime_ideal(verify_ideal(ring, res.ideals["U"].mask, "right")).holds


BLOCK_TOKENS = ("2.1", "2.2", "2.3")
GOLDEN_BATTERY = Path(__file__).parent / "golden" / "battery_verbose.txt"


def _noncommutative_ks(name, scalar="one"):
    """The scalar context over T(name) with scalar T's ``one`` or ``zero``;
    with the one, T is M_2(T(name))."""
    base = build_context_ring(builtin_context(name).context)
    return build_ks_context(base, getattr(base, scalar))


@pytest.mark.parametrize("name", ["paper:ex2.4", "ks:6:0"])
def test_block_checks_audit_no_one_sided_ideal_alone(name, monkeypatch):
    # 2.1-2.3 compare whole sets of ideals of every sidedness: a passing run
    # verifies no ideal of T on its own and decomposes none.
    res = load_mctx(builtin_document(name))
    ring = build_context_ring(res.context)
    calls = Counter()
    check = ideals.check_ideal

    def counting(target, mask, sidedness):
        if target is ring:
            calls[sidedness] += 1
        return check(target, mask, sidedness)

    decomposed = []
    monkeypatch.setattr(ideals, "check_ideal", counting)
    for reader in ("decompose_ideal", "side_decomposition"):
        monkeypatch.setattr(checks, reader, lambda *args: decomposed.append(args))
    for token in BLOCK_TOKENS:
        assert run_check(token, res).passed, token
    assert calls == Counter() and decomposed == []


@pytest.mark.parametrize("name", ["paper:ex2.4", "ks:6:0"])
def test_quadruple_reports_take_their_quadruple_as_given(name, monkeypatch):
    # 2.7 and 2.11 report on quadruples enumerate_context_ideals derived:
    # a passing run checks none of them for closure in T.
    res = load_mctx(builtin_document(name))
    ring = build_context_ring(res.context)
    calls = []
    check = ideals.check_ideal

    def counting(target, mask, sidedness):
        if target is ring:
            calls.append(mask)
        return check(target, mask, sidedness)

    monkeypatch.setattr(ideals, "check_ideal", counting)
    for token in ("2.7", "2.11"):
        assert run_check(token, res).passed, token
    assert calls == []


@pytest.mark.parametrize("name", battery_names())
def test_cached_side_decompositions_match_fresh_ones(name):
    # block_ideals caches a side's decompositions on the context as block
    # pairs, one per one-sided ideal of T: as masks of T they are exactly
    # the ideals enumerate_ideals finds, each pair holds the blocks a fresh
    # side_decomposition reads off its ideal, and the oracle's audit holds.
    ctx = load_mctx(builtin_document(name)).context
    ring = build_context_ring(ctx)
    for side in ("right", "left"):
        pairs = block_ideal_masks(ctx, side)
        assert block_ideals(ctx, side) is block_ideals(ctx, side)
        assert block_ideal_masks(ctx, side) is pairs
        assert len(pairs) == len(block_ideals(ctx, side))
        found = enumerate_ideals(ring, side)
        assert set(pairs) == {ideal.members for ideal in found}, side
        for ideal in found:
            assert side_decomposition(ctx, ideal.members, side) == pairs[ideal.members]
            assert all(block_audit(ctx, ideal.members, side).values()), (side, ideal.members)


@pytest.mark.parametrize("name", battery_names() + ["nc:one", "nc:zero"])
def test_slot_part_products_have_the_blocks_t_projects(name):
    # decompose and example read a one-sided ideal's blocks off its slot
    # parts. Parts drawn from each slot's lattice on the side, kept when
    # their product is an ideal, have as blocks the products of their block
    # slots: what side_decomposition projects from T, and the oracle's audit
    # holds of them.
    ctx = (_noncommutative_ks("tri:2,2", name[3:]) if name.startswith("nc:")
           else load_mctx(builtin_document(name)).context)
    for side in ("right", "left"):
        lattices = [enumerate_ideals(ctx.ring_r, side), enumerate_submodules(ctx.mod_v, side),
                    enumerate_submodules(ctx.mod_w, side), enumerate_ideals(ctx.ring_s, side)]
        rng = random.Random(f"{name} {side}")
        draws = {tuple(rng.choice(lattice).members for lattice in lattices) for _ in range(200)}
        ideals = [parts for parts in sorted(draws) if is_slotted_ideal(ctx, parts, side)]
        assert ideals, side
        for parts in ideals:
            mask = quadruple_mask(ctx, *parts)
            assert slotted_blocks(ctx, parts, side) == side_decomposition(ctx, mask, side)
            assert all(block_audit(ctx, mask, side).values()), (side, parts)


@pytest.mark.parametrize("side", ["right", "left"])
def test_block_pairs_over_noncommutative_corners(side):
    # Every battery corner is commutative. T(tri:2,2), the upper triangular
    # 2×2 matrices over Z2, is not, and its scalar context's T has order 4096.
    ctx = _noncommutative_ks("tri:2,2")
    assert (ctx.ring_r.mul[:, :] != ctx.ring_r.mul.T[:, :]).any()
    pairs = block_ideal_masks(ctx, side)
    assert len(pairs) == len(block_ideals(ctx, side))
    assert set(pairs) == {i.members for i in enumerate_ideals(build_context_ring(ctx), side)}


@pytest.mark.parametrize("name", battery_names() + ["nc:one", "nc:zero", "zero:100,101"])
def test_block_ideal_masks_come_in_the_order_of_t_lattices(name):
    # ideals --side lists the pairs alone; T's lattices sort the same set by
    # the same (size, mask) key. zero:100,101 has order 10 100, over the
    # default order cap: T and the pairs both take a cap of 20 000.
    ctx = (_noncommutative_ks("tri:2,2", name[3:]) if name.startswith("nc:")
           else load_mctx(builtin_document(name)).context)
    ring = build_context_ring(ctx, 20_000)
    for side in ("right", "left"):
        listed = [i.members for i in enumerate_ideals(ring, side)]
        assert list(block_ideal_masks(ctx, side, order_cap=20_000)) == listed, (name, side)


@pytest.mark.parametrize("side", ["right", "left"])
def test_block_ideal_masks_refuse_over_the_order_cap_before_any_block(side):
    # Every key is a mask of T: full:30 has order 810 000, and its 240
    # pairs a side would hold 21.6 MiB of them.
    ctx = load_mctx(builtin_document("full:30")).context
    with pytest.raises(CapacityError, match="has order 810000, over the cap 10000"):
        block_ideal_masks(ctx, side)
    assert ("pair-views", side) not in ctx._cache and "ring" not in ctx._cache


def test_block_ideal_masks_refuse_where_t_would_on_every_call(monkeypatch):
    ctx = load_mctx(builtin_document("full:2")).context
    monkeypatch.setattr("moritactx.context._physical_memory", lambda: 1)
    with pytest.raises(CapacityError, match="MiB of physical memory") as info:
        block_ideal_masks(ctx, "right")
    assert info.value.cap is None and ("pair-views", "right") not in ctx._cache
    monkeypatch.undo()
    pairs = block_ideal_masks(ctx, "right")
    monkeypatch.setattr("moritactx.context._physical_memory", lambda: 1)
    with pytest.raises(CapacityError, match="MiB of physical memory"):
        block_ideal_masks(ctx, "right")        # cached pairs, T still unbuilt
    monkeypatch.undo()
    build_context_ring(ctx)
    monkeypatch.setattr("moritactx.context._physical_memory", lambda: 1)
    assert block_ideal_masks(ctx, "right") is pairs     # T is built: its tables fit
    with pytest.raises(CapacityError, match="has order 16, over the cap 15"):
        block_ideal_masks(ctx, "right", order_cap=15)


@pytest.mark.parametrize("name", battery_names() + ["nc:one", "nc:zero", "full:60"])
def test_block_pairs_match_the_is_subset_loop(name):
    # The generator kernel against the double loop over masks, on both
    # sides; full:60 has 720 pairs a side, found without building T.
    ctx = (_noncommutative_ks("tri:2,2", name[3:]) if name.startswith("nc:")
           else load_mctx(builtin_document(name)).context)
    for side in ("right", "left"):
        assert block_ideals(ctx, side) == block_pairs(ctx, side), (name, side)
    if name == "full:60":
        assert len(block_ideals(ctx, "right")) == len(block_ideals(ctx, "left")) == 720
        assert "ring" not in ctx._cache


@pytest.mark.parametrize("side", ["right", "left"])
def test_block_pairs_of_four_by_four_matrices_without_building_t(side):
    # Over T(full:2) = M_2(Z2) the scalar-one context's T is M_4(Z2), of
    # order 65536, too large to build here. Its right ideals, like its left
    # ones, match the subspaces of Z2^4: 1 + 15 + 35 + 15 + 1 = 67 of them.
    ctx = _noncommutative_ks("full:2")
    assert len(block_ideals(ctx, side)) == 67
    assert "ring" not in ctx._cache


def test_block_pairs_count_against_the_cap():
    ctx = load_mctx(builtin_document("ks:6:0")).context     # lattices of 30, 143 pairs
    with pytest.raises(CapacityError, match=r"submodule \(right\) of Z6\(\+\)Z6 lattice"):
        block_ideals(ctx, "right", 20)
    with pytest.raises(CapacityError, match=r"right-sided ideal lattice of T\(ks:6:0\) as block"):
        block_ideals(ctx, "right", 100)
    assert len(block_ideals(ctx, "right", 143)) == 143


def _golden_lines(name: str, token: str) -> list[str]:
    head = f"{name:14s} {token:5s} PASS"
    lines = GOLDEN_BATTERY.read_text(encoding="utf-8").splitlines()
    at = lines.index(head) + 1
    return [line[4:] for line in itertools.takewhile(lambda x: x.startswith("    "), lines[at:])]


@pytest.mark.parametrize("broken", ["drop", "stray"])
def test_block_checks_name_what_the_block_pairs_get_wrong(broken, monkeypatch):
    name = "paper:ex2.12"
    res = load_mctx(builtin_document(name))
    for token in ("2.1", "2.2"):
        assert list(run_check(token, res).lines) == _golden_lines(name, token)
    real = context.block_ideals

    def wrong(ctx, side, cap):
        pairs = real(ctx, side, cap)
        if broken == "drop":
            return pairs[1:]
        return pairs + [(pairs[0][0], pairs[-1][1])]       # N1 = 0 under the whole N2

    monkeypatch.setattr(context, "block_ideals", wrong)
    res = load_mctx(builtin_document(name))     # block_ideal_masks caches the real pairs
    named = {"drop": "  right ideal {(0, 0)} (+) {(0, 0)} is missing from the block pairs",
             "stray": "  block pair {(0, 0)} (+) {(0, 0), (0, 1), (0, 2), (0, 3), (2, 0), "
                      "(2, 1), (2, 2), (2, 3)} is not a right ideal"}[broken]
    for token in ("2.1", "2.2"):
        result = run_check(token, res)
        assert not result.passed and named in result.lines, (token, result.lines)


@pytest.mark.parametrize("broken", ["drop", "stray"])
def test_slot_form_check_names_what_the_quadruples_get_wrong(broken, monkeypatch):
    name = "full:4"
    res = load_mctx(builtin_document(name))
    assert list(run_check("2.1", res).lines) == _golden_lines(name, "2.1")
    real = context.enumerate_context_ideals
    stray = IdealQuadruple.of(res.context, inline_ideal_parts(res.context, "R=0,2 V=all W=0 S=0"))

    def wrong(ctx, cap):
        quads = real(ctx, cap)
        return quads[:1] + quads[2:] if broken == "drop" else quads + [stray]

    monkeypatch.setattr(checks, "enumerate_context_ideals", wrong)
    named = {"drop": "  two-sided ideal (R={0, 2}, V={0, 2}, W={0, 2}, S={0, 2}) "
                     "is missing from the slot quadruples",
             "stray": "  slot quadruple (R={0, 2}, V={0, 1, 2, 3}, W={0}, S={0}) "
                      "is not a two-sided ideal"}[broken]
    result = run_check("2.1", res)
    assert not result.passed and named in result.lines, result.lines


def test_a_non_ideal_is_refused_on_every_call():
    ctx = load_mctx(builtin_document("paper:ex2.4")).context
    mask = quadruple_mask(ctx, *inline_ideal_parts(ctx, "R=0,4 V=0 W=0 S=0"))
    for _ in range(2):
        with pytest.raises(NotAnIdealError):
            side_decomposition(ctx, mask, "right")
    assert not any(mask in key for key in ctx._cache if isinstance(key, tuple))


# -- closure sets ---------------------------------------------------------------------


def test_closure_sets_on_degenerate_pairings():
    ctx = ctx_of("paper:ex2.8")
    sets = closure_sets(ctx, 0b001001, 0b010101)  # I = {0,3}, J = {0,2,4}
    assert sets.v_into_r == (1 << ctx.mod_v.order) - 1
    assert sets.v_into_s == (1 << ctx.mod_v.order) - 1
    assert sets.w_into_r == (1 << ctx.mod_w.order) - 1
    assert sets.w_into_s == (1 << ctx.mod_w.order) - 1
    assert sets.v_agree and sets.w_agree


def test_closure_sets_on_full_context(z6):
    ctx = ctx_of("full:6")
    sets = closure_sets(ctx, 0b010101, 0b010101)  # I = J = 2Z6
    assert sets.v_into_r == 0b010101
    assert sets.v_into_s == 0b010101
    assert sets.w_into_r == 0b010101
    assert sets.w_into_s == 0b010101


def test_closure_sets_are_cached_only_for_ideals():
    # One instance per corner-ideal pair; a non-ideal argument is refused on
    # every call and leaves nothing cached.
    ctx = load_mctx(builtin_document("full:6")).context
    sets = closure_sets(ctx, 0b010101, 0b001001)          # I = 2Z6, J = 3Z6
    assert closure_sets(ctx, 0b010101, 0b001001) is sets
    for _ in range(2):
        with pytest.raises(NotAnIdealError, match="second argument"):
            closure_sets(ctx, 0b010101, 0b000011)         # {0, 1}
    assert ("closure-sets", 0b010101, 0b000011) not in ctx._cache


# -- prime and semiprime reports -----------------------------------------------------


def test_prime_report_on_structural_counterexample():
    res = builtin_context("paper:ex2.8")
    ctx = res.context
    quad = decompose_ideal(ctx, res.ideals["H"].mask)
    report = check_prime_quadruple(ctx, quad)
    assert report.cond2 and not report.holds and not is_surjective_context(ctx)
    assert _chain((report.holds, report.cond2), False) == (True, True)


def test_semiprime_report_on_structural_counterexample():
    res = builtin_context("paper:ex2.12")
    ctx = res.context
    quad = decompose_ideal(ctx, res.ideals["H"].mask)
    report = check_semiprime_quadruple(ctx, quad)
    assert not report.holds and not report.cond2
    assert report.witness == ctx.encode(0, 0, 0, 2)
    assert not report.s_ok


def test_slot_descriptions_hold_across_small_contexts():
    for name in ("full:4", "full:6", "tri:4,2", "zero:2,4"):
        ctx = ctx_of(name)
        surjective = is_surjective_context(ctx)
        for quad in enumerate_context_ideals(ctx):
            if not quad.is_proper():
                continue
            prime = check_prime_quadruple(ctx, quad)
            forward_and_converse = _chain((prime.holds, prime.cond2), surjective)
            assert forward_and_converse == (True, True), (name, quad.masks)
            semi = check_semiprime_quadruple(ctx, quad)
            assert semi.holds == semi.cond2, (name, quad.masks)


# -- radical and quotient -------------------------------------------------------------


def test_radical_of_full_z4_is_slotwise_two():
    radical = context_prime_radical(ctx_of("full:4"))
    assert radical.masks == (0b0101, 0b0101, 0b0101, 0b0101)


def test_radical_with_zero_pairings_ignores_the_dead_corner():
    radical = context_prime_radical(ctx_of("zero:2,4"))
    assert radical.masks == (0b01, 0b1, 0b1, 0b0101)


def test_radical_members_are_nilpotent():
    ctx = ctx_of("paper:ex2.12")
    ring = build_context_ring(ctx)
    radical = context_prime_radical(ctx)
    nil, _ = is_nilpotent_ideal(ring, radical.member_mask())
    assert nil


@pytest.mark.parametrize("name", ["full:4", "full:6", "tri:4,2", "zero:2,4",
                                  "paper:ex2.8", "paper:ex2.12"])
def test_quotient_context_is_isomorphic_to_ring_quotient(name):
    assert verify_quotient_iso(ctx_of(name)).holds


@pytest.mark.parametrize("name", battery_names())
def test_quotient_iso_agrees_with_the_built_quotient(name):
    ctx = ctx_of(name)
    assert verify_quotient_iso(ctx) == quotient_iso_by_quotient_ring(ctx)


def _fresh(name):
    """A context of its own, so editing its caches leaves the shared one alone."""
    return load_mctx(builtin_document(name)).context


def _replace_quotient(ctx, **changes):
    """Swap fields of the cached quotient that check 2.10 reads."""
    ctx._cache[("quotient", DEFAULT_LATTICE_CAP)] = dataclasses.replace(
        quotient_context(ctx), **changes)


@pytest.mark.parametrize("name, witness", [("full:4", ("mul", 4, 16)),
                                           ("ks:6:2", ("mul", 6, 36)),
                                           ("paper:ex2.12", None)])
def test_quotient_iso_refuses_a_valid_quotient_with_zero_pairings(name, witness):
    # Zero pairings always make a context; it is the quotient only where the
    # quotient's pairings are zero already, as in ex2.12.
    ctx = _fresh(name)
    quot = quotient_context(ctx).context
    zeroed = MoritaContext(quot.ring_r, quot.ring_s, quot.mod_v, quot.mod_w,
                           np.full(quot.prod_vw.shape, quot.ring_r.zero),
                           np.full(quot.prod_wv.shape, quot.ring_s.zero))
    assert validate_context(zeroed).ok
    _replace_quotient(ctx, context=zeroed)
    verdict = verify_quotient_iso(ctx)
    assert (verdict.holds, verdict.witness) == (witness is None, witness)
    assert quotient_iso_by_quotient_ring(ctx).holds == verdict.holds


def test_quotient_iso_refuses_a_quotient_that_breaks_a_pairing_law():
    ctx = _fresh("full:4")
    quot = quotient_context(ctx).context
    # Every slot of the quotient is Z2 and both pairings multiply. With 1·1 = 0
    # in V×W alone, (v·w)·v = v·(w·v) fails at v = w = 1.
    pair = quot.prod_vw.copy()
    pair[1, 1] = 0
    broken = MoritaContext(quot.ring_r, quot.ring_s, quot.mod_v, quot.mod_w, pair, quot.prod_wv)
    assert not validate_context(broken).ok
    _replace_quotient(ctx, context=broken)
    assert verify_quotient_iso(ctx) == Verdict(False, ("context",))
    assert not quotient_iso_by_quotient_ring(ctx).holds


def test_quotient_iso_refuses_the_wrong_kernel_and_a_map_not_onto():
    ctx = _fresh("full:4")
    _replace_quotient(ctx, proj_v=np.zeros(4, dtype=np.int64))
    assert verify_quotient_iso(ctx) == Verdict(False, ("kernel",))
    # Into the unreduced context, each slot still projected mod its radical:
    # the kernel is the radical, but only 16 of 256 elements are reached.
    ctx = _fresh("full:4")
    _replace_quotient(ctx, context=ctx_of("full:4"))
    assert verify_quotient_iso(ctx) == Verdict(False, ("onto",))


def test_quotient_context_dims():
    result = quotient_context(ctx_of("paper:ex2.12"))
    assert result.context.dims == (2, 1, 1, 2)
    assert result.context.order == 4


def test_prime_context_report_on_a_field():
    ctx = ctx_of("full:5")
    report = is_prime_context(ctx)
    assert report.holds and is_surjective_context(ctx)
    assert report.conds == (True, True, True, True)
    assert _chain(report.conds, True) == (True, True)


def test_prime_corners_do_not_make_a_prime_context():
    ctx = ctx_of("zero:2,2")
    report = is_prime_context(ctx)
    assert report.r_ok and report.s_ok
    assert not report.holds
    assert not is_surjective_context(ctx)
    assert _chain(report.conds, False) == (True, True)


def test_ring_reports_grade_four_prime_and_three_semiprime_conditions():
    ctx = ctx_of("zero:2,2")
    prime, semi = is_prime_context(ctx), is_semiprime_context(ctx)
    assert len(prime.conds) == 4 and prime.conds[0] == prime.holds
    assert len(semi.conds) == 3 and semi.conds[0] == semi.holds
    assert (semi.v_ok, semi.w_ok) == (None, None)


@pytest.mark.parametrize("conds, surjective, expected", [
    ((False, True, False, True), False, (False, True)),     # (2) holds without (3)
    ((True, False, False), True, (False, True)),            # (1) holds without (2)
    ((False, False, False, True), False, (True, True)),     # the last alone, no spanning
    ((False, False, False, True), True, (True, False)),     # ... a failure under spanning
    ((False, False, True), True, (True, False)),
])
def test_chain_names_a_broken_implication_or_converse(conds, surjective, expected):
    # No battery context fails checks 2.13 or 2.14: the failure branch
    # is reached through synthetic graded conditions.
    assert _chain(conds, surjective) == expected


def test_semiprime_context_for_scaled_units():
    assert is_semiprime_context(ctx_of("ks:6:1")).holds
    assert not is_semiprime_context(ctx_of("ks:6:2")).holds


@pytest.mark.parametrize("name", ["tri:4,2", "zero:100,101"])
def test_format_subset_is_cached_per_carrier(name):
    # An ideals listing prints each slot mask many times. A carrier's labels
    # are fixed once it is built, so it keeps each string it formats; a
    # fresh load of the same document has carriers of its own.
    ctx = load_mctx(builtin_document(name)).context
    carriers = _carriers(ctx)
    slots = {(slot, mask) for quad in enumerate_context_ideals(ctx)
             for slot, mask in enumerate(quad.masks)}
    shown = {}
    for slot, mask in sorted(slots):
        carrier = carriers[slot]
        text = carrier.format_subset(mask)
        members = members_of(mask, carrier.order)
        assert text == "{" + ", ".join(carrier.label(i) for i in members) + "}"
        assert carrier.format_subset(mask) is text
        shown[slot, mask] = text
    fresh = _carriers(load_mctx(builtin_document(name)).context)
    for (slot, mask), text in shown.items():
        again = fresh[slot].format_subset(mask)
        assert again == text and again is not text
