"""The doubling span loop against the coset-at-a-time one it replaced.

``AddGroup._extend`` grows a span S by a generator g in doubling steps: U =
S + {0, g, ..., (j−1)g} takes in U + jg until jg lies in U. Its spans
(``span_mask``, ``join_masks``) and greedy generating sequences
(``generate``, ``subgroup_generators``) must equal those of
``naive.coset_span``, which adds one coset S + ig per step, on Z_n for
n ≤ 8, 101, 128 and 360, on the direct sums Z_240 ⊕ Z_120 and Z_2 ⊕ Z_4,
and on the groups of T for ex2.4 and ks:6:0. Seeds of order 3, 5, 6 and
360 over their span make the last doubling step wrap back into U. A
generator of order k over S costs ⌈log₂ k⌉ calls of ``_plus``.

``join_closure`` records each member's generators, and the containment
kernel ``bitsets.generator_table`` reads them: on every lattice a context's
carriers build, each member must be the join of its generators' cyclic
submodules (``naive.generated_submodule``), and on the subgroup lattices
of Z_n ⊕ Z_m the kernel must agree with ``is_subset`` on every pair.
"""

from __future__ import annotations

from functools import cache
from math import ceil, log2

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moritactx import build_context_ring, enumerate_ideals, enumerate_submodules, make_zn
from moritactx.bitsets import bool_array, generator_table, is_subset, mask_from_bool
from moritactx.catalog import battery_names, builtin_context
from moritactx.context import _pair_views
from moritactx.spans import AddGroup, SumGroup

from naive import coset_generate, coset_span, generated_submodule
from test_context import _noncommutative_ks

GROUPS = ([f"Z{n}" for n in range(2, 9)] + ["Z101", "Z128", "Z360", "Z240+Z120", "Z2+Z4",
                                             "T:paper:ex2.4", "T:ks:6:0"])


@cache
def group(name: str) -> AddGroup:
    """A fresh group by name: Z_n's table, a direct sum, or T's group."""
    if name.startswith("T:"):
        return build_context_ring(builtin_context(name[2:]).context).addgroup
    parts = [AddGroup(make_zn(int(z[1:])).add, 0) for z in name.split("+")]
    return parts[0] if len(parts) == 1 else SumGroup(*parts)


@given(st.sampled_from(GROUPS), st.data())
def test_spans_and_generators_match_the_coset_loop(name, data):
    g = group(name)
    elements = st.integers(min_value=0, max_value=g.order - 1)
    seeds, more = (data.draw(st.lists(elements, max_size=4)) for _ in range(2))
    a = g.span_mask(seeds)
    assert a == mask_from_bool(coset_span(g, seeds))
    gens, inside = g.generate(bool_array(a, g.order))
    want_gens, want_inside = coset_generate(g, bool_array(a, g.order))
    assert np.array_equal(gens, want_gens) and np.array_equal(inside, want_inside)
    assert np.array_equal(g.subgroup_generators(a), want_gens)
    b_gens = g.subgroup_generators(g.span_mask(more))
    assert g.join_masks(a, b_gens) == mask_from_bool(coset_span(g, b_gens, bool_array(a, g.order)))
    assert g.span_mask(more, base=a) == mask_from_bool(coset_span(g, more, bool_array(a, g.order)))


@given(st.sampled_from(GROUPS), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([0.001, 0.02, 0.3]))
def test_generate_matches_the_coset_loop_on_any_marked_set(name, seed, density):
    g = group(name)
    want = np.random.default_rng(seed).random(g.order) < density
    gens, inside = g.generate(want)
    want_gens, want_inside = coset_generate(g, want)
    assert np.array_equal(gens, want_gens) and np.array_equal(inside, want_inside)


# (group, seeds of the base S, seed g, g's order over S): orders 3, 5, 6
# and 360 are no powers of two, so the last step's U + jg wraps into U.
WRAPPING = [
    ("Z360", [], 120, 3),
    ("Z360", [], 72, 5),
    ("Z360", [], 60, 6),
    ("Z360", [], 1, 360),
    ("Z360", [72], 60, 6),          # S of order 5, <S, g> of order 30
    ("Z360", [120], 1, 120),
    ("Z240+Z120", [], 80 * 120, 3),
    ("Z240+Z120", [120], 48 * 120 + 24, 5),
    ("Z6", [], 1, 6),
    ("Z7", [], 3, 7),
]


@pytest.mark.parametrize("name, base, seed, order", WRAPPING)
def test_a_wrapping_last_step_matches_the_coset_loop(monkeypatch, name, base, seed, order):
    g = group(name)
    s = g.span_mask(base)
    calls, real = [], type(g)._plus         # the summands' own reads are not counted
    monkeypatch.setattr(type(g), "_plus", lambda self, x, ys: calls.append(x) or real(self, x, ys))
    joined = g.span_mask([seed], base=s)
    assert joined.bit_count() == order * s.bit_count()
    assert joined == mask_from_bool(coset_span(g, [seed], bool_array(s, g.order)))
    assert len(calls) == ceil(log2(order))
    gens, inside = g.generate(bool_array(joined, g.order))
    want_gens, want_inside = coset_generate(g, bool_array(joined, g.order))
    assert np.array_equal(gens, want_gens) and np.array_equal(inside, want_inside)


# -- recorded generators and the containment kernel ---------------------------------


def _lattices(ctx):
    """(carrier, sidedness, lattice) for every lattice the carriers build:
    T's and the corners' ideals of each sidedness, the carriers'
    submodules of each, and both block views of each side."""
    for ring in (build_context_ring(ctx), ctx.ring_r, ctx.ring_s):
        for side in ("two", "left", "right"):
            yield ring, side, [i.members for i in enumerate_ideals(ring, side)]
    for module in (ctx.mod_v, ctx.mod_w):
        for side in ("bi", "left", "right"):
            yield module, side, [n.members for n in enumerate_submodules(module, side)]
    for side in ("left", "right"):
        for view in _pair_views(ctx, side):
            yield view, side, [n.members for n in enumerate_submodules(view, side)]


@pytest.mark.parametrize("name", battery_names() + ["nc:one", "nc:zero"])
def test_each_member_is_the_join_of_its_recorded_generators(name):
    ctx = (_noncommutative_ks("tri:2,2", name[3:]) if name.startswith("nc:")
           else builtin_context(name).context)
    for carrier, side, masks in _lattices(ctx):
        gens = carrier.member_generators(side, masks)
        assert gens.shape == (len(masks), gens.shape[1])
        assert gens.shape[1] <= carrier.order.bit_length(), (carrier.name, side)
        assert [generated_submodule(carrier, row, side) for row in gens] == masks, \
            (carrier.name, side)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12),
       st.data())
def test_generator_table_matches_is_subset(n, m, data):
    # The subgroup lattice of Z_n ⊕ Z_m, every subgroup a join of cyclic
    # ones, read as a module over Z; random sub and sup lists from it.
    group = SumGroup(AddGroup(make_zn(n).add, 0), AddGroup(make_zn(m).add, 0))
    seeds = {group.span_mask([x]): x for x in range(group.order)}
    lattice, recorded = group.join_closure(seeds, 1 << 12, "lattice")
    width = max(map(len, recorded.values()))           # rows padded with their first
    gens = np.array([recorded[c] + recorded[c][:1] * (width - len(recorded[c])) for c in lattice])
    picks = st.lists(st.integers(min_value=0, max_value=len(lattice) - 1), max_size=20)
    subs, sups = data.draw(picks), data.draw(picks)
    table = generator_table([lattice[i] for i in sups], gens[subs], group.order)
    assert table.shape == (len(sups), len(subs))
    assert table.tolist() == [[is_subset(lattice[x], lattice[c]) for x in subs] for c in sups]
    full = generator_table(lattice, gens, group.order)
    assert full.tolist() == [[is_subset(x, c) for x in lattice] for c in lattice]
    assert generator_table([], gens, group.order).shape == (0, len(lattice))
    assert generator_table(lattice, gens[:0], group.order).shape == (len(lattice), 0)
