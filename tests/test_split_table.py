"""T's products from its two row halves.

The ``SplitTable`` against the n×n table the build once formed
(``naive.broadcast_context_mul``), its numpy reads against an ndarray's,
the zero counts it takes from its halves, and the memory the build and
its readers hold. Also the memory of ``block_ideals``' pair filter, the
containment kernel read as a subset table of random masks, and the cached
member masks of slot quadruples.
"""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from naive import broadcast_context_mul

from moritactx import (build_context_ring, builtin_context, enumerate_context_ideals,
                       enumerate_submodules, load_mctx, run_check)
from moritactx import context
from moritactx.bitsets import generator_table, is_subset
from moritactx.catalog import battery_names, builtin_document
from moritactx.spans import _column_zeros
from moritactx.validation import SplitTable

from test_context import _noncommutative_ks


def _fresh(name: str):
    """A newly resolved context, so nothing built or cached is reused."""
    return load_mctx(builtin_document(name)).context


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", battery_names())
def test_products_match_the_broadcast_table(name):
    ctx = builtin_context(name).context
    mul = build_context_ring(ctx).mul
    assert isinstance(mul, SplitTable)
    assert np.array_equal(mul[:, :], broadcast_context_mul(ctx)), name


def test_products_over_a_context_ring_corner_match_the_broadcast_table():
    # T(tri:2,2) as the corner of a scalar context: its own mul is a
    # SplitTable, read whole where the build forms the slot tables.
    ctx = _noncommutative_ks("tri:2,2")
    assert isinstance(ctx.ring_r.mul, SplitTable)
    assert np.array_equal(build_context_ring(ctx).mul[:, :], broadcast_context_mul(ctx))


def _keys(n: int, rng: np.random.Generator) -> list:
    r, c = rng.integers(0, n, 7), rng.integers(0, n, 5)
    i, j = int(rng.integers(n)), int(rng.integers(n))
    return [
        i, np.int64(i), (i,), (i, slice(None)), [i, j], r, r.reshape(7, 1),
        slice(None), slice(3, n - 2), slice(None, None, 3), slice(n - 5, None), slice(4, 4),
        slice(-9, -2), (slice(None), j), (slice(None), c), (slice(None), c.reshape(5, 1)),
        (i, j), (np.int64(i), np.int64(j)), (i, c), (r, j), (r, c[:1]), np.ix_(r, c),
        (r[:, None], c), (r[:, None, None], c), (c.reshape(5, 1, 1), r.reshape(1, 7, 1)),
        (slice(1, 5), c), (r, slice(2, 6)), (slice(0, 3), slice(1, 4)), (slice(2, 5), j),
        (i, slice(None, None, 2)), (slice(None), slice(None)),
    ]


@pytest.mark.parametrize("name", ["tri:4,2", "paper:ex2.8", "paper:ex2.12"])
def test_every_read_matches_an_ndarray(name):
    ctx = builtin_context(name).context
    mul = build_context_ring(ctx).mul
    full = broadcast_context_mul(ctx).astype(mul.dtype)
    rng = np.random.default_rng(7)
    for table, array in ((mul, full), (mul.T, full.T), (mul.T.T, full)):
        assert table.shape == array.shape and table.dtype == array.dtype
        for key in _keys(ctx.order, rng):
            got, want = table[key], array[key]
            assert np.shape(got) == np.shape(want), (name, key)
            assert np.asarray(got).dtype == want.dtype, (name, key)
            assert np.array_equal(got, want), (name, key)


def test_the_table_holds_only_its_halves():
    ctx = builtin_context("paper:ex2.4").context
    mul = build_context_ring(ctx).mul
    assert mul.nbytes == mul.top.nbytes + mul.bottom.nbytes == 2 * 4096 * (64 + 64)
    assert mul.T.nbytes == mul.nbytes and mul.T.top is mul.top
    assert not hasattr(mul, "__array__")            # nothing forms the n×n table by accident
    with pytest.raises(TypeError):
        mul[0, 0] = 1
    with pytest.raises(IndexError):
        mul[0, 0, 0]


@pytest.mark.parametrize("name", battery_names() + ["zero:100,101"])
def test_zero_counts_from_the_halves_match_a_count_of_every_entry(name):
    # The plain count reads the table a chunk of rows at a time. On
    # zero:100,101 the counts take 31 blocks of 326 columns each.
    ring = build_context_ring(builtin_context(name).context, cap=20_000)
    for side in ("left", "right"):
        act = ring.action(side)[1]
        assert np.array_equal(act.column_zeros(ring.zero), _column_zeros(act, ring.zero)), \
            (name, side)


def test_building_ex2_4_allocates_under_2_mib():
    # Two uint16 row halves of 64 × 4096 entries: 1 MiB, where the n×n mul
    # alone took 32 MiB.
    assert _peak(lambda: build_context_ring(_fresh("paper:ex2.4"))) < 2**21


def test_check_2_1_on_ex2_4_peaks_under_12_mib():
    # Builds T, enumerates its one-sided ideals on both sides (orbits, cyclic
    # masks, lattices) and compares them with the block pairs.
    res = load_mctx(builtin_document("paper:ex2.4"))
    assert _peak(lambda: run_check("2.1", res).passed) < 12 * 2**20


def test_building_order_10100_allocates_under_8_mib():
    # zero:100,101 above the default cap: two uint16 halves of 100 × 10100
    # and 101 × 10100 entries, about 4 MiB, where the n×n mul took 195 MiB.
    ctx = _fresh("zero:100,101")
    assert _peak(lambda: build_context_ring(ctx, cap=20_000)) < 8 * 2**20


@pytest.mark.parametrize("side", ["right", "left"])
def test_block_pair_filter_on_full_60_allocates_under_5_mib(side):
    # 720 members a block lattice: the filter reads each colon's packed row
    # at the members' generators, with no bit matrix of every mask.
    ctx = _fresh("full:60")
    for view in context._pair_views(ctx, side):
        enumerate_submodules(view, side)
    assert _peak(lambda: context.block_ideals(ctx, side)) < 5 * 2**20


@pytest.mark.parametrize("size", [1, 7, 64, 5000])
def test_subset_table_matches_is_subset(size):
    # Each sub is the set of its row's elements, so the kernel is a subset
    # table of any masks. 3500 sups over 5000 elements take 34 blocks of 104.
    rng = random.Random(size)
    gens = np.array([[rng.randrange(size) for _ in range(3)] for _ in range(100)])
    subs = [sum({1 << int(e) for e in row}) for row in gens]
    sups = [rng.getrandbits(size) | rng.getrandbits(size) for _ in range(3500)]
    sups[::50] = [s | rng.getrandbits(size) for s in subs[:70]]
    table = generator_table(sups, gens, size)
    assert table.shape == (3500, 100)
    assert table.tolist() == [[is_subset(x, c) for x in subs] for c in sups]
    assert generator_table([], gens, size).shape == (0, 100)
    assert generator_table(sups, gens[:0], size).shape == (3500, 0)


def test_member_masks_are_formed_once_per_quadruple(monkeypatch):
    ctx = _fresh("paper:ex2.12")
    calls = []
    grid_mask = context.quadruple_mask

    def counting(ctx, *masks):
        calls.append(masks)
        return grid_mask(ctx, *masks)
    monkeypatch.setattr(context, "quadruple_mask", counting)
    quads = enumerate_context_ideals(ctx)
    first = [q.member_mask() for q in quads]
    again = [dataclasses.replace(q).member_mask() for q in quads]     # new, equal quadruples
    assert len(calls) == len(quads) == len(set(calls))
    assert again == first == [grid_mask(ctx, *q.masks) for q in quads]
