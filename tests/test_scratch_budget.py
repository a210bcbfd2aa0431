"""One scratch budget: every chunked kernel holds one block of about
``validation._BLOCK`` entries at a time.

``check_closed`` scans a failing mask through ``law_witness``, a block of
rows at a time; its verdict and lex-first witness must equal the full
scan's (``naive.full_scan_check_closed``), which forms each scan whole, on
masks drawn over the battery's corner rings, their bimodules (each side
and "bi"), and T of ``paper:ex2.4`` and ``ks:6:0``, for every sidedness:
random subsets with and without zero, spans, lattice members, and members
with one more element or joined with another member. The blocked kernels
(``SplitTable.column_zeros``, ``_column_zeros``, ``AddGroup.cosets``,
``check_closed`` and ``generator_table``) must give the same answers at
block sizes of 1, 7 and 1000 entries as at the default.

Each kernel's scratch, tracemalloc's peak minus what the call keeps, must
stay within a few blocks. Before the budget the cases below peaked at
2.5 MiB (T(ex2.4)'s right orbits: a float32 copy of two 64 × 4096 zero
masks), 23 MiB (the failing left check of U in T(ex2.4): |U|·n products
at once, and every witness listed), 8 MiB (the cosets of a subgroup of
order 1024 in Z_2048) and 4 MiB (the zero counts of Z_2048's table).
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from naive import full_scan_check_closed

from moritactx import battery_names, build_context_ring, builtin_context, check_ideal, make_zn
from moritactx import bitsets, spans, validation
from moritactx.bitsets import generator_table
from moritactx.spans import _column_zeros, check_closed
from moritactx.validation import _BLOCK

# A few arrays of one block each, at up to 8 bytes an entry, and the
# carrier-sized index arrays of ex2.4: well under any case's old peak.
SCRATCH = 16 * _BLOCK
T_NAMES = ("paper:ex2.4", "ks:6:0")


def _scratch(call) -> int:
    """Peak bytes allocated during ``call`` less those it still holds after."""
    tracemalloc.start()
    try:
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def _ring(name: str):
    return build_context_ring(builtin_context(name).context)


def _carriers(name: str) -> list:
    """T over itself for a "T:" name, else the context's corners and bimodules."""
    if name.startswith("T:"):
        return [_ring(name[2:])]
    ctx = builtin_context(name).context
    return [ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w]


def _draw_mask(carrier, data) -> int:
    n, zero = carrier.order, 1 << carrier.zero
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = data.draw(st.sampled_from(["random", "no zero", "span", "member", "member+1", "join"]))
    if kind in ("random", "no zero"):           # each element in with chance 1/2, 1/4 or 1/8
        bits = rng.getrandbits(n)
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            bits &= rng.getrandbits(n)
        return bits | zero if kind == "random" else bits & ~zero
    if kind == "span":
        return carrier.addgroup.span_mask(rng.sample(range(n), min(n, 2)))
    lattice = carrier.lattice(data.draw(st.sampled_from(sorted(carrier.SIDEDNESS))),
                              20_000, "drawn lattice")
    mask = rng.choice(lattice)
    if kind == "member+1":
        return mask | 1 << rng.randrange(n)
    return mask | rng.choice(lattice) if kind == "join" else mask


@pytest.mark.parametrize("name", battery_names() + [f"T:{name}" for name in T_NAMES])
@given(data=st.data())
def test_check_closed_matches_the_full_scan(name, data):
    carrier = data.draw(st.sampled_from(_carriers(name)))
    sidedness = data.draw(st.sampled_from(sorted(carrier.SIDEDNESS)))
    mask = _draw_mask(carrier, data)
    assert check_closed(carrier, mask, sidedness) == full_scan_check_closed(
        carrier, mask, sidedness), (name, carrier, sidedness, carrier.format_subset(mask))


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_blocked_kernels_agree_at_every_block_size(monkeypatch, block):
    ring = _ring("ks:6:0")
    group, order = ring.addgroup, ring.order
    rng = random.Random(block)
    subgroup = group.span_mask(group.generators[:-1])
    masks = [rng.getrandbits(order) | 1 << ring.zero, subgroup,
             *ring.lattice("right", 20_000, "right")[::7]]
    lattice = ring.lattice("left", 20_000, "left")
    gens = ring.member_generators("left", lattice)

    def answers():
        return ([act.column_zeros(ring.zero).tolist() for act in (ring.mul, ring.mul.T)],
                [_column_zeros(act, ring.zero).tolist() for act in (ring.mul, ring.mul.T)],
                [a.tolist() for a in group.cosets(subgroup)],
                [check_closed(ring, m, sd) for m in masks for sd in ("left", "right", "two")],
                generator_table(lattice, gens, order).tolist())

    expected = answers()
    for module in (validation, spans, bitsets):
        monkeypatch.setattr(module, "_BLOCK", block)
    assert answers() == expected


def test_orbits_of_ex2_4_stay_within_the_budget():
    ring = _ring("paper:ex2.4")
    act = ring.action("right")[1]
    assert _scratch(lambda: spans.orbit_classes(act, ring.zero)) < SCRATCH


def test_failing_ideal_check_on_ex2_4_stays_within_the_budget():
    res = builtin_context("paper:ex2.4")
    ring, mask = _ring("paper:ex2.4"), res.ideals["U"].mask
    verdict = check_ideal(ring, mask, "left")
    assert verdict == full_scan_check_closed(ring, mask, "left") and not verdict.holds
    assert _scratch(lambda: check_ideal(ring, mask, "left")) < SCRATCH


def test_cosets_of_a_large_subgroup_stay_within_the_budget():
    group = make_zn(2048).addgroup
    subgroup = group.span_mask([2])                 # order 1024: n × |U| is 2 Mi sums
    reps, proj = group.cosets(subgroup)
    assert reps.tolist() == [0, 1] and np.array_equal(proj, np.arange(2048) % 2)
    assert _scratch(lambda: group.cosets(subgroup)) < SCRATCH


def test_zero_counts_of_a_large_table_stay_within_the_budget():
    ring = make_zn(2003)                            # prime: 0 is the only zero divisor
    zeros = _column_zeros(ring.mul, ring.zero)
    assert zeros[0] == 2003 and (zeros[1:] == 1).all()
    assert _scratch(lambda: _column_zeros(ring.mul, ring.zero)) < SCRATCH
