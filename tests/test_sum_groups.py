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

import numpy as np
import pytest

from moritactx import (FiniteRing, MalformedTableError, ModuleView, build_context_ring,
                       make_zn, quotient_context, run_check, verify_ring_map)
from moritactx.catalog import battery_names, builtin_document
from moritactx.checks import CHECK_TOKENS
from moritactx.context import _carriers, _pair_views, _side_blocks
from moritactx.mctx import load_mctx
from moritactx.spans import AddGroup, SumGroup, check_closed

from naive import (block_add, broadcast_context_add, full_scan_check_ideal,
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
    r_of, v_of, w_of, s_of = ctx.component_arrays()
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
