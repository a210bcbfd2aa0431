"""Direct sums without a square table: T as (R⊕V) ⊕ (W⊕S) and each block
view as A⊕B, against the square tables they once stored.

``tests/naive.py`` keeps the old broadcast build of T's addition table and
the old block-view table. Each ``sums`` read must agree with them, and the
kernels that read ``sums`` (``check_closed``'s failure scan and
``verify_ring_map``'s) must name the witnesses the full scans name on a
plain copy of the ring that holds the square table.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from moritactx import (Bimodule, FiniteRing, MalformedTableError, ModuleView, MoritaContext,
                       build_context_ring, build_ks_context, make_zn, quotient_context,
                       run_check, verify_ring_map, zero_bimodule)
from moritactx.catalog import battery_names, builtin_document
from moritactx.checks import CHECK_TOKENS
from moritactx.context import _carriers, _pair_views, _side_blocks, block_ideals
from moritactx.mctx import load_mctx
from moritactx.spans import AddGroup, SumGroup, check_closed
from moritactx.validation import index_dtype

from naive import (block_add, broadcast_context_add, components, full_scan_check_ideal,
                   full_scan_verify_ring_map)
from test_cli_golden import GOLDEN, transcript


def _fresh(name: str):
    """A newly resolved context: nothing built, nothing read."""
    return load_mctx(builtin_document(name)).context


def _all_sums(group) -> np.ndarray:
    idx = np.arange(group.order)
    return group.sums(idx[:, None], idx)


def _quotient_ring(ctx, ring):
    """Check 2.10's T′ and the slotwise projection T -> T′."""
    qres = quotient_context(ctx)
    target = build_context_ring(qres.context, cap=ring.order)
    r_of, v_of, w_of, s_of = components(ctx)
    proj = qres.context.encode(qres.proj_r[r_of], qres.proj_v[v_of],
                               qres.proj_w[w_of], qres.proj_s[s_of])
    return qres.context, target, proj


def _plain(ring, add) -> FiniteRing:
    """The ring with its square addition table stored, as T once was."""
    return FiniteRing(add, ring.mul, ring.zero, ring.one, name=ring.name)


@pytest.mark.parametrize("name", battery_names())
def test_context_ring_sums_match_the_broadcast_table(name):
    ctx = _fresh(name)
    ring = build_context_ring(ctx)
    assert isinstance(ring.addgroup, SumGroup)
    assert (_all_sums(ring.addgroup) == broadcast_context_add(ctx)).all()
    quotient, target, _ = _quotient_ring(ctx, ring)
    assert (_all_sums(target.addgroup) == broadcast_context_add(quotient)).all()
    # Broadcast shapes and scalars read as fancy indexing reads a table.
    rng = np.random.default_rng(7)
    xs, ys = rng.integers(ring.order, size=(5, 1)), rng.integers(ring.order, size=3)
    table = broadcast_context_add(ctx)
    assert (ring.addgroup.sums(xs, ys) == table[xs, ys]).all()
    assert ring.addgroup.sums(int(xs[0, 0]), int(ys[0])) == table[xs[0, 0], ys[0]]


@pytest.mark.parametrize("name", battery_names())
def test_block_view_sums_match_the_old_block_table(name):
    ctx = _fresh(name)
    carriers = _carriers(ctx)
    for side in ("left", "right"):
        for view, (k1, k2) in zip(_pair_views(ctx, side), _side_blocks(side)):
            assert isinstance(view.addgroup, SumGroup) and view.addgroup._table is None
            assert view._labels is None                 # formed on first use, not at build
            assert (_all_sums(view.addgroup) == block_add(carriers[k1], carriers[k2])).all()


def test_the_square_table_is_formed_on_first_read_only():
    ctx = _fresh("paper:ex2.12")
    ring = build_context_ring(ctx)
    assert ring.addgroup._table is None
    table = ring.add
    assert ring.add is table and not table.flags.writeable
    assert (table == broadcast_context_add(ctx)).all()


@pytest.mark.parametrize("name", ["full:2", "full:3", "tri:4,2", "ks:4:2", "zero:2,4",
                                  "paper:ex2.8", "paper:ex2.12"])
def test_check_closed_witnesses_on_t_match_the_naive_scan(name):
    # Masks that hold zero but are not ideals: random subsets, additive
    # spans that absorb on neither side, and ideals with one element more.
    ctx = _fresh(name)
    ring = build_context_ring(ctx)
    plain = _plain(ring, broadcast_context_add(ctx))
    rng = random.Random(name)
    n, zero = ring.order, 1 << ring.zero
    masks = [zero | rng.getrandbits(n) for _ in range(8)]
    masks += [ring.addgroup.span_mask(rng.sample(range(n), 2)) for _ in range(8)]
    masks += [m | 1 << rng.randrange(n) for m in ring.lattice("two", 20_000, "t")[:8]]
    kinds = set()
    for mask in masks:
        for side in ("left", "right", "two"):
            verdict = check_closed(ring, mask, side)
            assert verdict == full_scan_check_ideal(plain, mask, side), (mask, side)
            kinds.add(verdict.witness[0] if verdict.witness else None)
    assert {"add", "left", "right"} <= kinds


@pytest.mark.parametrize("name", ["full:2", "full:3", "full:4", "tri:4,2", "ks:4:2",
                                  "zero:2,4", "paper:ex2.8", "paper:ex2.12"])
def test_ring_map_witness_on_a_corrupted_projection_matches(name):
    ctx = _fresh(name)
    ring = build_context_ring(ctx)
    quotient, target, proj = _quotient_ring(ctx, ring)
    assert verify_ring_map(ring, target, proj).holds
    plain = _plain(ring, broadcast_context_add(ctx))
    plain_target = _plain(target, broadcast_context_add(quotient))
    rng = random.Random(name)
    for _ in range(4):
        bad = proj.copy()
        x = rng.choice([i for i in range(ring.order) if i != ring.one])
        bad[x] = (bad[x] + 1 + rng.randrange(target.order - 1)) % target.order
        verdict = verify_ring_map(ring, target, bad)
        assert not verdict and verdict == full_scan_verify_ring_map(plain, plain_target, bad)


def test_no_check_or_golden_cli_invocation_forms_a_sum_table(monkeypatch):
    def refuse(group):
        raise AssertionError(f"a square table of a sum of order {group.order} was formed")

    monkeypatch.setattr(SumGroup, "add", property(refuse))
    res = load_mctx(builtin_document("paper:ex2.4"))
    for token in CHECK_TOKENS:
        if token != "ks" or res.document.scalar is not None:
            assert run_check(token, res).passed, token
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


def test_sum_groups_carry_rings_and_views():
    z2, z3 = make_zn(2), make_zn(3)
    group = SumGroup(z2.addgroup, z3.addgroup)           # Z2 ⊕ Z3 ≅ Z6, 1 at (1, 1)
    a, b = group.digits
    mul = (a[:, None] * a[None, :] % 2) * 3 + b[:, None] * b[None, :] % 3
    ring = FiniteRing(group, mul, zero=0, one=4)
    assert ring.addgroup is group and len(ring.lattice("two", 100, "t")) == 4
    with pytest.raises(MalformedTableError, match="zero 1 is not the group's zero 0"):
        FiniteRing(group, mul, zero=1, one=4)
    broken = SumGroup(z2.addgroup, AddGroup(np.array([[0, 1, 2], [1, 2, 0], [2, 0, 0]]), 0))
    with pytest.raises(MalformedTableError, match="unique additive inverse"):
        FiniteRing(broken, mul, zero=0, one=4)
    view = ModuleView(ring, "left", group, ring.mul, 0)
    assert view.add is ring.add and view.lattice("left", 100, "v") == ring.lattice("left", 100, "t")


# -- index dtypes ---------------------------------------------------------------
# Tables the package builds hold indices in index_dtype(order), uint16 up to
# 65 536 elements, and as_table passes them uncopied. A direct sum or block
# view past 65 535 elements over a uint16 summand must come out int32 and
# equal to an int64 reference: uint16 times a Python int stays uint16 under
# numpy 1.24 and 2 alike, and wraps.


def _u16(table) -> np.ndarray:
    """A read-only uint16 copy, as the package stores a table it built."""
    out = np.array(table, dtype=np.uint16)
    out.setflags(write=False)
    return out


def test_index_dtype_holds_every_index_below_the_order():
    assert index_dtype(1 << 16) == np.uint16
    assert index_dtype((1 << 16) + 1) == np.int32


def test_sums_over_a_uint16_summand_do_not_wrap():
    z300 = make_zn(300)
    group = SumGroup(AddGroup(_u16(z300.add), 0), z300.addgroup)    # Z300 ⊕ Z300
    rng = np.random.default_rng(300)
    xs, ys = rng.integers(group.order, size=(40, 1)), rng.integers(group.order, size=500)
    (hx, lx), (hy, ly) = divmod(xs, 300), divmod(ys, 300)
    want = z300.add[hx, hy].astype(np.int64) * 300 + z300.add[lx, ly]
    got = group.sums(xs, ys)
    assert got.dtype == np.int32 and want.max() > 65_535 and (got == want).all()
    rows = [group._plus(int(x), ys.ravel()) for x in xs.ravel()]   # what _extend reads
    assert all(row.dtype == np.int32 and (row == want[i]).all() for i, row in enumerate(rows))


def test_block_views_over_uint16_tables_do_not_wrap():
    # Z2 (uint16 mul) and W = F2^16 (uint16 actions, a sum of two XOR
    # tables): the blocks R⊕W and W⊕S have 131 072 elements, so a first
    # slot's entry times its place value passes 65 535. V is zero.
    z2 = make_zn(2)
    ring_r = FiniteRing(z2.addgroup, _u16(z2.mul), 0, 1, name="R")
    ring_s = make_zn(2)
    idx = np.arange(256)
    byte = AddGroup(_u16(idx[:, None] ^ idx), 0)
    w = np.arange(1 << 16)
    mod_w = Bimodule(SumGroup(byte, byte), 0, ring_s, _u16([0 * w, w]),
                     ring_r, _u16(np.stack([0 * w, w], axis=1)), name="W")
    mod_v = zero_bimodule(ring_r, ring_s)
    ctx = MoritaContext(ring_r, ring_s, mod_v, mod_w, np.zeros((1, 1 << 16), np.int32),
                        np.zeros((1 << 16, 1), np.int32), name="wide")
    carriers = _carriers(ctx)
    for side in ("left", "right"):
        for view, (k1, k2) in zip(_pair_views(ctx, side), _side_blocks(side)):
            (_, act_a), (_, act_b) = (carriers[k].action(side) for k in (k1, k2))
            a, b = np.divmod(np.arange(view.order), carriers[k2].order)
            want = act_a.astype(np.int64)[:, a] * carriers[k2].order + act_b[:, b]
            assert view.act.dtype == index_dtype(view.order) and (view.act == want).all()
            if view.order > 1 << 16:
                assert view.act.dtype == np.int32 and want.max() > 65_535


def test_block_pairs_over_a_uint16_ring_do_not_wrap():
    # Over Z257 with a uint16 mul, as T's own mul is stored, the scalar-one
    # context's T is M_2(F257). Its block views have 257² elements, so the
    # colons place R·V entries past 65 535. Its right ideals match the
    # subspaces of F257²: 1 + 258 + 1 = 260 pairs, of matching block sizes.
    z257 = make_zn(257)
    ring = FiniteRing(z257.addgroup, _u16(z257.mul), z257.zero, z257.one, name="Z257")
    pairs = block_ideals(build_ks_context(ring, ring.one), "right")
    sizes = Counter((bin(a.members).count("1"), bin(b.members).count("1")) for a, b in pairs)
    assert sizes == {(1, 1): 1, (257, 257): 258, (257**2, 257**2): 1}
