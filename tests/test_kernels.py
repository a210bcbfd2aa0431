"""The generator-width kernels against the full-table routes they replaced.

On the battery contexts, ``check_ideal`` must give the full scan's verdict
and witness, for ideals of every side and for subsets that are not ideals;
the principal masks must equal the spans of generator products; each
lattice must equal the plain join closure of those spans; the prime scan
on pairs of orbit classes must give the fingerprint scan's witness, and
its semiprime diagonal the least a of a plain scan over every a*x*a (on
ks:6:0 too, the battery ring with the most classes, and on F2^8, where
every element is a class of its own, at several block sizes). The module
kernels are the same ones, so the same comparisons run on the carriers V and
W (bisubmodules and each side), on T over itself where T is small, and on
the four block views of T's one-sided ideals: cyclic masks against spanned
orbits, lattices against the plain join closure, closure checks against the
full scan (verdict and message), and the prime submodule scan by class of
rR against the fingerprint scan. The order-1296 contexts share their shape, so one of them
stands for the rest; the one-sided lattices of two more, where joins create
masks that no principal ideal is, are compared with the plain join closure.
ex2.4 is compared where the full-table routes fit in the suite's time. On
all 18 battery contexts, the join closure must span only masks it has not
found yet; on the four block views of full:60, whose lattices are larger
than any the battery closes, it must equal the pairwise closure. Cached
prime and semiprime verdicts must equal those of a ring that has scanned
nothing yet.

The slot products behind the two-sided laws, the closure sets and the block
views are compared on all 18 battery contexts (and full:60 for the first
two): ``quadruple_conditions`` against the full-row laws (verdict and
witness) on every candidate quadruple, compatible or not (on full:60, every
one with J = I); ``closure_sets`` against its definition on every pair of
corner ideals; and each block view's addition, action, zero and labels
against T's sum and product formulas.

``bitsets.distinct`` is compared with ``np.unique`` on small arrays, and the
pairing spans it seeds with ``np.unique``'s on the battery contexts and on
every ``slot-large`` context of the benchmark.
"""

from __future__ import annotations

import tracemalloc
from itertools import product

import numpy as np
import pytest
from naive import (fingerprint_is_prime_submodule, fingerprint_prime_scan,
                   full_row_quadruple_conditions, full_scan_check_ideal, full_scan_verify_closed,
                   least_semiprime_witness, naive_closure_sets, naive_context_product,
                   naive_context_sum, pairwise_join_closure, plain_join_closure,
                   span_bicyclic_masks, span_cyclic_masks, span_principal_masks)

from moritactx import (NotASubmoduleError, battery_names, build_context_ring, build_ks_context,
                       builtin_context, builtin_document, check_ideal, closure_sets,
                       enumerate_ideals, enumerate_submodules, is_prime_ideal,
                       is_prime_submodule, is_semiprime_ideal, load_mctx, product_span_vw,
                       product_span_wv, quadruple_conditions, ring_bimodule, ring_from_tables,
                       verify_submodule)
from moritactx.bitsets import bool_array, distinct, is_subset
from moritactx.context import _pair_views
from moritactx.spans import AddGroup, cyclic_masks
from moritactx.validation import _BLOCK

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
        assert cyclic_masks(ring, side) == spans, (name, side)
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


def _assert_semiprime_scans_agree(ring, side: str):
    for ideal in (i for i in enumerate_ideals(ring, side) if i.is_proper()):
        inside = bool_array(ideal.members, ring.order)
        assert is_semiprime_ideal(ideal).witness == least_semiprime_witness(ring, inside), \
            (ring.name, side, str(ideal))


@pytest.mark.parametrize("name", CONTEXTS)
def test_semiprime_scan_matches_the_least_a_scan(name):
    ring = _ring(name)
    for side in SIDES:
        _assert_semiprime_scans_agree(ring, side)


@pytest.mark.parametrize("name", CONTEXTS)
def test_cached_verdicts_match_a_fresh_scan(name):
    # A repeated scan is a lookup in the ring's cache, and what it returns is
    # what a ring that has scanned nothing yet computes.
    ring, fresh = _ring(name), build_context_ring(load_mctx(builtin_document(name)).context)
    for side in SIDES:
        for ideal, new in zip(enumerate_ideals(ring, side), enumerate_ideals(fresh, side)):
            if ideal.is_proper():
                for scan in (is_prime_ideal, is_semiprime_ideal):
                    verdict = scan(ideal)
                    assert scan(ideal) is verdict
                    assert scan(new) == verdict, (name, side, str(ideal), scan.__name__)


@pytest.mark.parametrize("name", ("ks:6:0", "ks:6:2"))
def test_one_sided_scans_match_the_plain_scans_on_many_classes(name):
    # ks:6:0 has 99 classes a side, the most of any battery ring: its class
    # pairs fill one block of the scan, where the other rings' fill less. On
    # ks:6:2 a one-sided ideal's classes must be those of its own side: the
    # other side's give the wrong least a for 14 of its semiprime scans.
    ring = _ring(name)
    assert [len(ring.orbits(side)[1]) for side in ("left", "right")] == \
        {"ks:6:0": [99, 99], "ks:6:2": [54, 54]}[name]
    for side in ("left", "right"):
        _assert_scans_agree(ring, side)
        _assert_semiprime_scans_agree(ring, side)


def _boolean_ring(k: int):
    """F2^k as bit vectors: + is XOR, * is AND."""
    idx = np.arange(2**k)
    return ring_from_tables(idx[:, None] ^ idx, idx[:, None] & idx, name=f"F2^{k}")


def test_prime_scan_with_a_class_for_every_element(monkeypatch):
    # In F2^8 each element is a class of its own (aT = {x ≤ a}), so the scan
    # pairs 256 classes with 256 over 8 generators. Its prime and semiprime
    # witnesses must be the fingerprint scan's and the least-a scan's at every
    # block size, and its blocks must stay near _BLOCK entries: the whole
    # class-pair table would be 2 MiB of int32 indices.
    ring = _boolean_ring(8)
    assert len(ring.orbits("right")[1]) == ring.order
    ideals = [i for i in enumerate_ideals(ring, "two") if i.is_proper()]
    insides = [bool_array(i.members, ring.order) for i in ideals]
    primes = [fingerprint_prime_scan(ring, inside) for inside in insides]
    semiprimes = [least_semiprime_witness(ring, inside) for inside in insides]
    assert sum(w is None for w in primes) == 8              # the eight maximal ideals
    tracemalloc.start()
    try:
        assert [is_prime_ideal(i).witness for i in ideals] == primes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * _BLOCK, peak
    # A maximal ideal leaves 128 classes outside: blocks of one r, two, five,
    # and blocks that grow from four r.
    width = 8 * 128
    for block in (_BLOCK, 1, 3 * width - 1, 5 * width, 300 * width):
        monkeypatch.setattr("moritactx.spans._BLOCK", block)
        ring._cache.clear()                     # verdicts are cached on the ring
        assert [is_prime_ideal(i).witness for i in ideals] == primes, block
        assert [is_semiprime_ideal(i).witness for i in ideals] == semiprimes, block


@pytest.mark.parametrize("name", ("ks:6:0", "ks:6:2"))
def test_one_sided_lattices_match_the_plain_join_closure(name):
    # Unlike ks:6:1's, these lattices hold joins that are not principal. Only
    # the lattices: the full-scan comparisons on CONTEXTS would cost far more.
    ring = _ring(name)
    for side in ("left", "right"):
        spans = cyclic_masks(ring, side)
        assert _lattice(ring, side) == plain_join_closure(ring.addgroup, spans), (name, side)


@pytest.mark.parametrize("side", ("left", "right"))
def test_block_lattices_match_the_pairwise_closure_on_full_60(side):
    # 350 distinct cyclic seeds a block, of which 20 are join-irreducible,
    # and 720 submodules: beyond the battery's lattices, and too many spans
    # for the plain closure.
    for view in _pair_views(builtin_context("full:60").context, side):
        lattice = view.lattice(side, 1 << 12, "block lattice")
        assert len(lattice) == 720
        assert lattice == pairwise_join_closure(view.addgroup, cyclic_masks(view, side))


@pytest.mark.parametrize("name", battery_names())
def test_join_closure_spans_only_new_masks(name, monkeypatch):
    # Every span the closure runs must yield a mask it has not found yet, so
    # it spans once per lattice member that is not a seed.
    join_closure, join_masks = AddGroup.join_closure, AddGroup.join_masks
    spans: list[list[int]] = []

    def counted_closure(group, seeds, cap, what):
        spans.append([])
        lattice, gens = join_closure(group, seeds, cap, what)
        new = spans[-1]
        assert len(set(new)) == len(new), what              # no mask is spanned twice
        assert not set(seeds) & set(new), what              # nor is a seed
        assert len(new) == len(lattice) - len(seeds), what
        return lattice, gens

    def counted_join(group, a, b_gens):
        spans[-1].append(join_masks(group, a, b_gens))
        return spans[-1][-1]

    monkeypatch.setattr(AddGroup, "join_closure", counted_closure)
    monkeypatch.setattr(AddGroup, "join_masks", counted_join)
    ctx = load_mctx(builtin_document(name)).context       # uncached: every lattice is closed here
    ring = build_context_ring(ctx)
    for side in SIDES:
        enumerate_ideals(ring, side)
    enumerate_submodules(ctx.mod_v, "bi")
    enumerate_submodules(ctx.mod_w, "bi")
    assert len(spans) == 5, name


def test_kernels_match_the_full_table_routes_on_ex2_4():
    # The right principal masks the prime scan keys on, and the two-sided
    # lattice, checks and scans; the left masks and the one-sided ideals'
    # full scans would dominate the suite's time.
    ring = _ring("paper:ex2.4")
    for side in ("right", "two"):
        assert cyclic_masks(ring, side) == span_principal_masks(ring, side), side
    lattice = _lattice(ring, "two")
    assert lattice == plain_join_closure(ring.addgroup, cyclic_masks(ring, "two"))
    _assert_checks_agree(ring, lattice, ("two",))
    _assert_checks_agree(ring, _non_ideals(ring, lattice), ("two",))
    _assert_scans_agree(ring, "two")


# -- module kernels ----------------------------------------------------------------

MODULE_SIDES = ("bi", "left", "right")
MODULE_CONTEXTS = (*CONTEXTS, "paper:ex2.4")        # no ring is built: ex2.4 is cheap here


def _modules(ctx) -> list:
    """V and W, and T over itself where it is small: the corner rings are all
    commutative, and T is what tells a class rR from a class Rr."""
    small = ctx.order <= 256
    return [ctx.mod_v, ctx.mod_w, *([ring_bimodule(build_context_ring(ctx))] if small else [])]


def _one_sided(ctx) -> list[tuple]:
    """(carrier, side): each of ``_modules`` on both sides, and the four
    block views on their own."""
    pairs = [(m, side) for side in ("left", "right") for m in _modules(ctx)]
    return pairs + [(v, side) for side in ("right", "left") for v in _pair_views(ctx, side)]


def _failure(verify, *args) -> str | None:
    try:
        verify(*args)
    except NotASubmoduleError as exc:
        return str(exc)
    return None


def _actions(module, side: str):
    return [(s, act) for s, act in (("left", module.left_act), ("right", module.right_act.T))
            if side in (s, "bi")]


def _bicyclic_masks(module) -> list[int]:
    return cyclic_masks(module, "bi")


@pytest.mark.parametrize("name", MODULE_CONTEXTS)
def test_cyclic_masks_and_lattices_match_the_span_routes(name):
    ctx = builtin_context(name).context
    for carrier, side in _one_sided(ctx):
        spans = span_cyclic_masks(carrier, side)
        assert cyclic_masks(carrier, side) == spans, (carrier, side)
        lattice = [sub.members for sub in enumerate_submodules(carrier, side)]
        assert lattice == plain_join_closure(carrier.addgroup, spans), (carrier, side)
    for module in _modules(ctx):
        spans = span_bicyclic_masks(module)
        assert _bicyclic_masks(module) == spans, module
        lattice = [sub.members for sub in enumerate_submodules(module, "bi")]
        assert lattice == plain_join_closure(module.addgroup, spans), module


@pytest.mark.parametrize("name", MODULE_CONTEXTS)
def test_closure_checks_match_the_full_scan(name):
    ctx = builtin_context(name).context
    for carrier, side in _one_sided(ctx):
        lattice = [sub.members for sub in enumerate_submodules(carrier, side)]
        for mask in [*lattice, *_non_ideals(carrier, lattice)]:
            assert (_failure(verify_submodule, carrier, mask, side)
                    == _failure(full_scan_verify_closed, carrier, mask,
                                [(side, carrier.action(side)[1])])), \
                (carrier, side, carrier.format_subset(mask))
    for module in _modules(ctx):
        for lattice_side in MODULE_SIDES:
            lattice = [sub.members for sub in enumerate_submodules(module, lattice_side)]
            for mask in [*lattice, *_non_ideals(module, lattice)]:
                for side in MODULE_SIDES:
                    assert (_failure(verify_submodule, module, mask, side)
                            == _failure(full_scan_verify_closed, module, mask,
                                        _actions(module, side))), \
                        (module, side, module.format_subset(mask))


@pytest.mark.parametrize("name", MODULE_CONTEXTS)
def test_prime_submodule_scan_matches_the_fingerprint_scan(name):
    ctx = builtin_context(name).context
    for carrier, side in _one_sided(ctx):
        for sub in enumerate_submodules(carrier, side)[:-1]:        # the proper ones
            assert (is_prime_submodule(carrier, sub, side)
                    == fingerprint_is_prime_submodule(carrier, sub.members, side)), \
                (carrier, side, str(sub))


# -- slot products -----------------------------------------------------------------

SLOT_CONTEXTS = (*battery_names(), "full:60")      # full:60: 12 members in each slot lattice
# Each side's two coordinate blocks: the slot pair (r, v, w, s numbered 0..3)
# and the corner slot of the acting ring.
BLOCKS = {"right": (((0, 2), 0), ((1, 3), 3)), "left": (((0, 1), 0), ((2, 3), 3))}


def _slot_lattices(ctx) -> list[list[int]]:
    return [[c.members for c in enumerate_ideals(ctx.ring_r, "two")],
            [c.members for c in enumerate_submodules(ctx.mod_v, "bi")],
            [c.members for c in enumerate_submodules(ctx.mod_w, "bi")],
            [c.members for c in enumerate_ideals(ctx.ring_s, "two")]]


@pytest.mark.parametrize("name", SLOT_CONTEXTS)
def test_quadruple_conditions_match_the_full_rows(name):
    # Every corner ideal × bisubmodule quadruple, compatible or not, so that
    # failing laws and their witnesses are compared too.
    ctx = builtin_context(name).context
    r_ideals, v_subs, w_subs, s_ideals = _slot_lattices(ctx)
    quads = product(r_ideals, v_subs, w_subs, s_ideals)
    if name == "full:60":
        # Each law reads one corner and one module slot, and both corners are
        # Z60, so the quadruples with J = I still meet every pair of members
        # that each law reads: 12³ calls instead of 12⁴.
        assert r_ideals == s_ideals
        quads = ((i, v1, w1, i) for i, v1, w1 in product(r_ideals, v_subs, w_subs))
    failing = 0
    for quad in quads:
        conditions = quadruple_conditions(ctx, *quad)
        assert conditions == full_row_quadruple_conditions(ctx, *quad), (name, quad)
        failing += sum(not ok for _, ok, _ in conditions)
    assert failing or ctx.mod_v.order == ctx.mod_w.order == 1, name


@pytest.mark.parametrize("name", SLOT_CONTEXTS)
def test_closure_sets_match_their_definition(name):
    ctx = builtin_context(name).context
    r_ideals, _, _, s_ideals = _slot_lattices(ctx)
    for i_mask, j_mask in product(r_ideals, s_ideals):
        sets = closure_sets(ctx, i_mask, j_mask)
        assert ((sets.v_into_r, sets.v_into_s, sets.w_into_r, sets.w_into_s)
                == naive_closure_sets(ctx, i_mask, j_mask)), (name, i_mask, j_mask)


def _assert_pair_views_match(ctx, sums: bool = True):
    """Each block view is T's addition (when ``sums``) and its one-sided
    action of a corner, restricted to the block's elements (zero in the
    other two slots)."""
    carriers = (ctx.ring_r, ctx.mod_v, ctx.mod_w, ctx.ring_s)
    zero = tuple(c.zero for c in carriers)
    for side, blocks in BLOCKS.items():
        for view, ((k1, k2), corner) in zip(_pair_views(ctx, side), blocks):
            first, second = carriers[k1], carriers[k2]
            pairs = list(product(range(first.order), range(second.order)))

            def slots(x: int) -> tuple:
                out = list(zero)
                out[k1], out[k2] = pairs[x]
                return tuple(out)

            def block(t: tuple) -> int:
                assert [t[k] for k in range(4) if k not in (k1, k2)] == \
                    [zero[k] for k in range(4) if k not in (k1, k2)], (view, t)
                return t[k1] * second.order + t[k2]

            assert view.order == len(pairs) and view.zero == block(zero), view
            assert view.side == side and view.ring is carriers[corner], view
            assert view.labels == tuple(f"({first.label(a)}, {second.label(b)})"
                                        for a, b in pairs), view
            for x, y in product(range(view.order), repeat=2) if sums else ():
                assert view.add[x, y] == block(naive_context_sum(ctx, slots(x), slots(y))), view
            for t, x in product(range(view.ring.order), range(view.order)):
                scalar = zero[:corner] + (t,) + zero[corner + 1:]
                prod = (naive_context_product(ctx, slots(x), scalar) if side == "right"
                        else naive_context_product(ctx, scalar, slots(x)))
                assert view.act[t, x] == block(prod), (view, t, x)


@pytest.mark.parametrize("name", battery_names())
def test_pair_views_match_the_context_sum_and_product(name):
    _assert_pair_views_match(builtin_context(name).context)


def test_pair_views_act_from_the_absorbing_side_of_noncommutative_corners():
    # Every battery corner is commutative, so only a corner like T(full:2),
    # the 2×2 matrices over Z2, tells r·t from t·r. Its blocks have 256
    # elements; their sums are the battery's carrier sums again.
    ring = build_context_ring(builtin_context("full:2").context)
    _assert_pair_views_match(build_ks_context(ring, ring.one), sums=False)


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([3], dtype=np.int32),
    np.array([5, 0, 5, 2, 0, 5], dtype=np.int32),
    np.array([9, 1, 1, 4, 9], dtype=np.int64),
    np.array([[2, 7, 2], [0, 7, 3]], dtype=np.int32),
    np.random.default_rng(1).integers(0, 40, size=(6, 50)),
])
def test_distinct_matches_unique(values):
    got = distinct(values, 40)
    assert got.tolist() == np.unique(values).tolist()
    assert got.ndim == 1


# The contexts of the benchmark's slot-large workload, with every associate
# scalar it may pick for the two scalar contexts.
SLOT_LARGE = ("zero:100,101", "full:60", "full:120", "full:180", "tri:240,180", "tri:360,240",
              *(f"ks:120:{s}" for s in (7, 11, 13, 17)), *(f"ks:180:{s}" for s in (5, 25, 35, 55)))


@pytest.mark.parametrize("name", battery_names() + list(SLOT_LARGE))
def test_product_spans_match_spans_of_the_unique_values(name):
    ctx = builtin_context(name).context
    assert product_span_vw(ctx) == ctx.ring_r.addgroup.span_mask(np.unique(ctx.prod_vw))
    assert product_span_wv(ctx) == ctx.ring_s.addgroup.span_mask(np.unique(ctx.prod_wv))
