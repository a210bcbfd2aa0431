"""T's primes lifted from its corners' primes, the prime and semiprime
flags read off them, products of two-sided ideals, and named ideals
decided in slot form.

None of the library's routes here builds T. Under the order cap the built
T is their oracle; above it, the paper's slot descriptions are. Beside
the T scans, the lattice's coatoms (``naive.coatom_flags``) and the flags
read off products of pairs of covers (``naive.cover_product_flags``) are
oracles at every order.
"""

from __future__ import annotations

import random
import tracemalloc

import naive
import pytest

from moritactx import (
    CapacityError,
    Ideal,
    build_context_ring,
    builtin_context,
    closure_sets,
    context_prime_radical,
    context_prime_spectrum,
    enumerate_context_ideals,
    enumerate_ideals,
    enumerate_submodules,
    is_prime_ideal,
    is_semiprime_ideal,
    is_slotted_ideal,
    is_surjective_context,
    lattice_prime_flags,
    load_mctx,
    quadruple_mask,
)
from moritactx.bitsets import full_mask, is_subset
from moritactx.catalog import battery_names, builtin_document
from moritactx.cli import run_command
from moritactx.context import DEFAULT_ORDER_CAP, _pair_views
from moritactx.ideals import DEFAULT_LATTICE_CAP

from test_cli_golden import SLOT_LARGE
from test_context import _noncommutative_ks


def _fresh(name: str):
    """A newly resolved context, so no cached ring or view is reused."""
    return load_mctx(builtin_document(name)).context


# Every battery corner is commutative. T(tri:2,2), the upper triangular 2×2
# matrices over Z2, is not: its scalar contexts have T of order 4096, with
# 5 two-sided ideals for the scalar one (T = M_2(T(tri:2,2))) and 124 for
# the scalar zero.
_NONCOMMUTATIVE = {"tri:2,2 scalar one": "one", "tri:2,2 scalar zero": "zero"}


def _flag_context(name: str):
    """A builtin context, or one of the two scalar contexts over T(tri:2,2)."""
    if name in _NONCOMMUTATIVE:
        return _noncommutative_ks("tri:2,2", _NONCOMMUTATIVE[name])
    return builtin_context(name).context


def _prime_meet(quads, flags) -> tuple[int, ...]:
    """The slotwise AND of the ideals flagged prime."""
    meet = [full_mask(n) for n in quads[0].context.dims]
    for quad, flag in zip(quads, flags):
        if flag is not None and flag[0]:
            meet = [m & x for m, x in zip(meet, quad.masks)]
    return tuple(meet)


@pytest.mark.parametrize("name", battery_names() + list(_NONCOMMUTATIVE))
def test_cover_flags_agree_with_the_built_ring(name):
    # The lifted flags against the T scans and against the products of
    # covers; their primes' meet against the paper's slotwise radical.
    ctx = _flag_context(name)
    ring = build_context_ring(ctx)
    quads = enumerate_context_ideals(ctx)
    flags = lattice_prime_flags(quads, DEFAULT_LATTICE_CAP)
    assert len(flags) == len(quads)
    assert flags == naive.cover_product_flags(ctx, quads)
    for quad, flag in zip(quads, flags):
        ideal = Ideal(ring, quad.member_mask(), "two")
        if not ideal.is_proper():
            assert flag is None
            continue
        assert flag == (bool(is_prime_ideal(ideal)), bool(is_semiprime_ideal(ideal))), str(quad)
    assert _prime_meet(quads, flags) == context_prime_radical(ctx).masks


@pytest.mark.parametrize("name", battery_names())
def test_ideal_product_is_the_span_of_the_products_in_t(name):
    ctx = builtin_context(name).context
    ring = build_context_ring(ctx)
    quads = enumerate_context_ideals(ctx)
    members = [quad.member_mask() for quad in quads]
    for a, amask in zip(quads, members):
        for b, bmask in zip(quads, members):
            assert (quadruple_mask(ctx, *naive.ideal_product(ctx, a, b))
                    == naive.ideal_product_mask(ring, amask, bmask)), (str(a), str(b))


@pytest.mark.parametrize("name", battery_names())
def test_covers_are_the_lattice_covers(name):
    # The ideals flagged prime are the lattice's coatoms, the ideals the
    # improper one covers: proper, with no proper ideal strictly above.
    ctx = builtin_context(name).context
    quads = enumerate_context_ideals(ctx)
    masks = [quad.member_mask() for quad in quads]
    proper = [m != full_mask(ctx.order) for m in masks]
    below = [[a != b and is_subset(a, b) for b in masks] for a in masks]
    expected = [proper[p] and not any(proper[q] and below[p][q] for q in range(len(masks)))
                for p in range(len(masks))]
    flags = lattice_prime_flags(quads, DEFAULT_LATTICE_CAP)
    assert flags == naive.coatom_flags(quads)
    assert [flag is not None and flag[0] for flag in flags] == expected


@pytest.mark.parametrize("name", battery_names() + list(_NONCOMMUTATIVE) + ["M4(Z2)"] + SLOT_LARGE)
def test_lifted_primes_are_the_coatoms_and_the_primes_of_t(name):
    # The corner primes' lifts are the lattice's coatoms at every order,
    # and T's primes where T fits; their meet is the slotwise radical.
    ctx = _noncommutative_ks("full:2") if name == "M4(Z2)" else _flag_context(name)
    primes, meet = context_prime_spectrum(ctx, DEFAULT_LATTICE_CAP)
    quads = enumerate_context_ideals(ctx)
    assert primes == {q.masks for q, flag in zip(quads, naive.coatom_flags(quads))
                      if flag is not None and flag[0]}
    if ctx.order <= DEFAULT_ORDER_CAP:
        ring = build_context_ring(ctx)
        assert primes == {q.masks for q in quads if q.is_proper()
                          and is_prime_ideal(Ideal(ring, q.member_mask(), "two"))}
    assert meet == context_prime_radical(ctx).masks


@pytest.mark.parametrize("name", SLOT_LARGE)
def test_cover_flags_match_the_slot_descriptions_above_the_cap(name):
    # The paper's descriptions, read as _slot_description reads them but
    # without T: each corner prime (semiprime), an improper corner passing
    # vacuously, and each module slot equal to both of its closure sets.
    # The coatoms' meet is the slotwise radical.
    ctx = builtin_context(name).context
    surjective = is_surjective_context(ctx)
    corner, closures = {}, {}

    def corner_ok(ideal, test) -> bool:
        key = (ideal.ring is ctx.ring_r, ideal.members, test)
        if key not in corner:
            corner[key] = not ideal.is_proper() or bool(test(ideal))
        return corner[key]

    quads = enumerate_context_ideals(ctx)
    flags = lattice_prime_flags(quads, DEFAULT_LATTICE_CAP)
    assert _prime_meet(quads, flags) == context_prime_radical(ctx).masks
    for quad, flag in zip(quads, flags):
        if flag is None:
            continue
        key = (quad.r_part.members, quad.s_part.members)
        if key not in closures:
            closures[key] = closure_sets(ctx, quad.r_part, quad.s_part)
        sets = closures[key]
        _, v1, w1, _ = quad.masks
        slots = v1 == sets.v_into_r == sets.v_into_s and w1 == sets.w_into_r == sets.w_into_s
        prime, semiprime = flag
        described = [slots and all(corner_ok(c, test) for c in (quad.r_part, quad.s_part))
                     for test in (is_prime_ideal, is_semiprime_ideal)]
        assert semiprime == described[1], str(quad)
        assert not prime or described[0], str(quad)
        assert not (surjective and described[0]) or prime, str(quad)


def test_flags_of_four_by_four_matrices_without_building_t():
    # Over T(full:2) = M_2(Z2) the scalar-one context's T is M_4(Z2), of
    # order 65536, a simple ring whose left and right ideals differ: its
    # only proper two-sided ideal, zero, is prime and is the radical.
    ctx = _noncommutative_ks("full:2")
    quads = enumerate_context_ideals(ctx)
    flags = lattice_prime_flags(quads, DEFAULT_LATTICE_CAP)
    assert len(quads) == 2 and flags == [(True, True), None]
    zero = tuple(1 << c.zero for c in (ctx.ring_r, ctx.mod_v, ctx.mod_w, ctx.ring_s))
    assert _prime_meet(quads, flags) == context_prime_radical(ctx).masks == zero
    assert "ring" not in ctx._cache


# -- named ideals in slot form ---------------------------------------------------------

_NAMED_CONTEXTS = ["full:4", "full:6", "ks:4:2", "ks:6:2", "tri:4,2", "zero:2,4",
                   "paper:ex2.4", "paper:ex2.8", "paper:ex2.12"]


def _part_pool(carrier, lattice: list[int], rng: random.Random) -> list[int]:
    """Candidate parts of one slot: its two-sided sublattice, an empty part,
    a part that misses zero, and random subsets (rarely subgroups)."""
    n, zero = carrier.order, 1 << carrier.zero
    pool = list(lattice) + [0, full_mask(n) & ~zero]
    pool += [rng.getrandbits(n) | zero for _ in range(3)]
    pool += [m & ~zero for m in lattice if m != zero]
    return pool


@pytest.mark.parametrize("name", _NAMED_CONTEXTS)
def test_slotted_ideal_agrees_with_the_built_ring(name):
    res = builtin_context(name)
    ctx = res.context
    ring = build_context_ring(ctx)
    rng = random.Random(name)
    lattices = ([i.members for i in enumerate_ideals(ctx.ring_r)],
                [m.members for m in enumerate_submodules(ctx.mod_v, "bi")],
                [m.members for m in enumerate_submodules(ctx.mod_w, "bi")],
                [i.members for i in enumerate_ideals(ctx.ring_s)])
    carriers = (ctx.ring_r, ctx.mod_v, ctx.mod_w, ctx.ring_s)
    pools = [_part_pool(c, lat, rng) for c, lat in zip(carriers, lattices)]
    samples = [tuple(rng.choice(pool) for pool in pools) for _ in range(40)]
    samples += [tuple(rng.choice(lat) for lat in lattices) for _ in range(40)]
    samples += [named.parts for named in res.ideals.values()]
    seen = 0
    for parts in samples:
        mask = quadruple_mask(ctx, *parts)
        for side in ("two", "left", "right"):
            expected = naive.full_scan_check_ideal(ring, mask, side).holds
            assert is_slotted_ideal(ctx, parts, side).holds == expected, (parts, side)
            seen += expected
    assert seen > 0


def test_report_decides_named_ideals_above_the_cap(tmp_path, capsys):
    doc = tmp_path / "z60.mctx"
    doc.write_text("context z60\nbase zn 60\nproduct VW inherited\nproduct WV inherited\n"
                   "rightideal U R=0,30 V=0,30 W=all S=all\n"
                   "leftideal L R=0,30 V=0,30 W=all S=all\n")
    code = run_command(["report", str(doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "order: 12960000" in out
    assert "  L: left-sided, members 14400, ideal: NO" in out
    assert "  U: right-sided, members 14400, ideal: yes" in out


# -- tables that would not fit in memory ----------------------------------------------


@pytest.mark.parametrize("argv", [["check", "full:60", "--theorem", "2.9"],
                                  ["ideals", "tri:240,180", "--side", "right"]])
def test_tables_over_physical_memory_exit_3_before_allocating(capsys, argv):
    # Both rings need tables of millions of MiB: no machine grants them.
    code = run_command(argv + ["--cap", "20000000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("capacity: context ring of ")
    assert lines[0].endswith("MiB of physical memory")


def test_build_context_ring_checks_memory_before_allocating(monkeypatch):
    # uint16 row halves of mul, 100 × 10100 and 101 × 10100 entries, and
    # half tables of 100² and 101²: 4 MiB.
    ctx = _fresh("zero:100,101")
    monkeypatch.setattr("moritactx.context._physical_memory", lambda: 2**21)
    with pytest.raises(CapacityError, match="tables need 4 MiB, over the 2 MiB") as info:
        build_context_ring(ctx, cap=20_000)
    assert info.value.cap is None and "ring" not in ctx._cache


def test_pair_views_check_memory_before_allocating(monkeypatch):
    ctx = _fresh("full:6")                      # blocks of order 36, acted on by Z6
    # Only the two uint16 action tables, 6 × 36 entries each, are stored.
    monkeypatch.setattr("moritactx.context._physical_memory", lambda: 2 * 6 * 36 * 2 - 1)
    with pytest.raises(CapacityError, match="right block views of full:6 have orders 36 and 36"):
        _pair_views(ctx, "right")
    assert ("pair-views", "right") not in ctx._cache
    monkeypatch.setattr("moritactx.context._physical_memory", lambda: 2 * 6 * 36 * 2)
    assert [v.order for v in _pair_views(ctx, "right")] == [36, 36]


def test_pair_views_peak_near_the_bytes_they_check(monkeypatch):
    # The second slot is added a block of rows at a time, so building the
    # views holds little beyond the action tables the memory check counts:
    # adding it whole gathered a second table of the same size, a 2.0×
    # peak on tri:240,180 (3.8 MiB of right-view tables, 6.7 MiB of left).
    counted = []

    def count(nbytes, what):
        counted.append(nbytes)
    monkeypatch.setattr("moritactx.context._require_memory", count)
    for side in ("right", "left"):
        ctx = _fresh("tri:240,180")
        tracemalloc.start()
        try:
            _pair_views(ctx, side)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * counted[-1], (side, peak, counted[-1])


def test_the_cap_comes_first_and_a_built_ring_is_reused(monkeypatch):
    built = _fresh("full:2")
    ring = build_context_ring(built)
    monkeypatch.setattr("moritactx.context._physical_memory", lambda: 1)
    with pytest.raises(CapacityError, match="over the cap 100") as info:
        build_context_ring(_fresh("full:6"), cap=100)
    assert info.value.cap == 100
    assert build_context_ring(built) is ring
