from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moritactx import (
    CapacityError,
    build_ks_context,
    check_ideal,
    enumerate_context_ideals,
    enumerate_ideals,
    load_mctx,
    make_zn,
    parse_mctx,
    quadruple_mask,
    serialize_document,
)
from moritactx.bitsets import bool_array, indices_of
from moritactx.catalog import battery_names, builtin_context
from moritactx.context import _SLOTS, _grid, _parts
from moritactx.spans import AddGroup, SumGroup

from naive import (components, naive_additive_span, naive_is_ideal, naive_is_subgroup,
                   members_of, plain_join_closure, principal_ideal)

rings = st.integers(min_value=2, max_value=10).map(make_zn)


@given(st.integers(min_value=1, max_value=20),
       st.sets(st.integers(min_value=0, max_value=19)))
def test_bitset_round_trip(order, indices):
    indices = {i for i in indices if i < order}
    mask = sum(1 << i for i in indices)
    assert set(indices_of(mask, order).tolist()) == indices


@given(rings, st.sets(st.integers(min_value=0, max_value=9), max_size=4))
def test_additive_span_matches_naive(ring, seeds):
    seeds = sorted(i for i in seeds if i < ring.order)
    group = AddGroup(ring.add, ring.zero)
    mask = group.span_mask(seeds)
    expected = naive_additive_span(ring.add, ring.zero, seeds)
    assert frozenset(members_of(mask, ring.order)) == expected


@given(rings, st.sets(st.integers(min_value=0, max_value=9), max_size=5))
def test_span_is_a_subgroup_and_idempotent(ring, seeds):
    seeds = [i for i in seeds if i < ring.order]
    group = AddGroup(ring.add, ring.zero)
    mask = group.span_mask(seeds)
    assert naive_is_subgroup(ring.add, ring.zero, members_of(mask, ring.order))
    assert group.span_mask(indices_of(mask, ring.order).tolist()) == mask
    # Cosets: the projection is constant on each coset x + H, and each
    # representative is the least member of its coset.
    reps, proj = group.cosets(mask)
    members = indices_of(mask, ring.order)
    for x in range(ring.order):
        coset = ring.add[x, members]
        assert set(proj[coset].tolist()) == {proj[x]}
        assert reps[proj[x]] == coset.min()


def _product_group(moduli: list[int]) -> AddGroup:
    """Z_a × Z_b × Z_c as an addition table, elements numbered in mixed radix."""
    coords = np.stack(np.unravel_index(np.arange(int(np.prod(moduli))), moduli))
    sums = (coords[:, :, None] + coords[:, None, :]) % np.array(moduli)[:, None, None]
    return AddGroup(np.ravel_multi_index(tuple(sums), moduli), 0)


def _cyclic_seeds(group: AddGroup, elements: list[int]) -> dict[int, int]:
    """Each element's cyclic subgroup, keyed to that element (the group as
    a module over Z, whose cyclic submodules are cyclic subgroups)."""
    return {group.span_mask([x % group.order]): x % group.order for x in elements}


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3),
       st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=8))
def test_join_closure_matches_plain_closure_on_product_groups(moduli, elements):
    # Non-cyclic groups such as Z2 × Z4 × Z4, whose subgroup lattices are not
    # divisor chains; the seeds are cyclic subgroups, so their joins need not be.
    group = _product_group(moduli)
    seeds = _cyclic_seeds(group, elements)
    # The closure takes the seeds in (size, mask) order, so the order they
    # come in changes neither the lattice nor where the cap bites.
    lattice, gens = group.join_closure(seeds, 1 << 12, "lattice")
    assert lattice == plain_join_closure(group, seeds)
    # Each member is the span of its recorded generators, at most
    # ⌊log₂ order⌋ + 1 of them.
    assert [group.span_mask(gens[m]) for m in lattice] == lattice
    assert max(map(len, gens.values())) <= group.order.bit_length()
    for order in (seeds, dict(reversed(seeds.items()))):
        for cap in (1 << 12, len(lattice)):
            again, again_gens = group.join_closure(order, cap, "lattice")
            assert again == lattice and again_gens == gens
        with pytest.raises(CapacityError, match=f"^lattice exceeds cap {len(lattice) - 1}$"):
            group.join_closure(order, len(lattice) - 1, "lattice")


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3),
       st.lists(st.lists(st.integers(min_value=0, max_value=63), max_size=3),
                min_size=1, max_size=5))
def test_sum_groups_match_their_square_table(moduli, seed_sets):
    # (Z_a ⊕ Z_b) ⊕ Z_c numbers (x, y, z) in mixed radix, as the product
    # group's table does: spans, cosets, generators and joins must agree.
    a, b, c = (_product_group([m]) for m in moduli)
    summed, table = SumGroup(SumGroup(a, b), c), _product_group(moduli)
    idx = np.arange(table.order)
    assert (summed.sums(idx[:, None], idx) == table.add).all()
    assert (summed.generators == table.generators).all()
    seeds = [table.span_mask([x % table.order for x in elements]) for elements in seed_sets]
    for elements, mask in zip(seed_sets, seeds):
        assert summed.span_mask([x % table.order for x in elements]) == mask
        assert all((got == want).all() for got, want in zip(summed.cosets(mask), table.cosets(mask)))
    (masks, gens), (want, want_gens) = (g.join_closure(_cyclic_seeds(table, sum(seed_sets, [])),
                                                       1 << 12, "lattice") for g in (summed, table))
    assert masks == want and gens == want_gens


@given(rings, st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_check_ideal_agrees_with_naive(ring, raw_mask):
    mask = raw_mask & ((1 << ring.order) - 1)
    members = members_of(mask, ring.order)
    for side in ("two", "left", "right"):
        assert check_ideal(ring, mask, side).holds == naive_is_ideal(ring, members, side)


@given(rings, st.integers(min_value=0, max_value=9))
def test_principal_ideal_contains_its_generator(ring, a):
    a = a % ring.order
    ideal = principal_ideal(ring, a)
    assert ideal.members >> a & 1
    assert ideal.members in {c.members for c in enumerate_ideals(ring)}


@given(st.integers(min_value=2, max_value=6), st.data())
def test_scaled_pairing_is_multiplication_through_s(n, data):
    ring = make_zn(n)
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    ctx = build_ks_context(ring, s)
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    w = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert ctx.prod_vw[v, w] == (v * s * w) % n
    assert ctx.prod_wv[w, v] == (w * s * v) % n


@given(st.integers(min_value=2, max_value=8), st.data())
def test_quadruple_mask_sizes_multiply(n, data):
    ring = make_zn(n)
    lattice = [c.members for c in enumerate_ideals(ring)]
    parts = [data.draw(st.sampled_from(lattice)) for _ in range(4)]
    ctx = load_mctx(f"base zn {n}\nproduct VW inherited\nproduct WV inherited\n").context
    mask = quadruple_mask(ctx, *parts)
    expected = 1
    for p in parts:
        expected *= bin(p).count("1")
    assert bin(mask).count("1") == expected


@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=2, max_value=5),
       st.booleans())
def test_generated_documents_round_trip(n, m, shared):
    lines = [f"context gen{n}x{m}", f"base zn {n}"]
    if shared:
        lines += ["product VW inherited", "product WV inherited"]
    else:
        lines += [f"S zn {m}", "V zero", "W zero"]
    doc = parse_mctx("\n".join(lines) + "\n")
    assert parse_mctx(serialize_document(doc)) == doc
    res = load_mctx(serialize_document(doc))
    assert res.context.order >= 4


@given(st.sampled_from(["full:2", "full:3", "zero:2,2", "tri:4,2"]))
def test_quadruple_members_reconstruct(name):
    ctx = builtin_context(name).context
    for quad in enumerate_context_ideals(ctx):
        mask = quad.member_mask()
        assert bin(mask).count("1") == quad.size
        assert quadruple_mask(ctx, *quad.masks) == mask


@pytest.mark.parametrize("name", battery_names())
@given(st.data())
def test_grid_is_the_product_gathered_through_components(name, data):
    # _grid broadcasts slot and block masks into T's grid and _parts
    # projects them back; naive.components gathers the same products
    # elementwise. The battery's dims differ (ex2.8 is 6,3,2,6 and tri:4,2
    # is 4,2,1,2), so a swapped axis shows.
    ctx = builtin_context(name).context
    kr, mv, mw, ks = dims = ctx.dims
    r_of, v_of, w_of, s_of = components(ctx)

    def draw(n: int) -> np.ndarray:
        return bool_array(data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n)

    def round_trip(groups, parts):
        grid = _grid(ctx, zip(groups, parts))
        assert grid.shape == dims
        if all(part.any() for part in parts):
            assert all(np.array_equal(a, b) for a, b in zip(_parts(ctx, grid, groups), parts))
        return grid.ravel()

    in_r, in_v, in_w, in_s = slots = [draw(n) for n in dims]
    got = round_trip(_SLOTS, slots)
    assert np.array_equal(got, in_r[r_of] & in_v[v_of] & in_w[w_of] & in_s[s_of])
    in1, in2 = draw(kr * mw), draw(mv * ks)                 # right blocks R(+)W, V(+)S
    got = round_trip(((0, 2), (1, 3)), (in1, in2))
    assert np.array_equal(got, in1[r_of * mw + w_of] & in2[v_of * ks + s_of])
    in1, in2 = draw(kr * mv), draw(mw * ks)                 # left blocks R(+)V, W(+)S
    got = round_trip(((0, 1), (2, 3)), (in1, in2))
    assert np.array_equal(got, in1[r_of * mv + v_of] & in2[w_of * ks + s_of])
