"""Brute-force oracles, written as plainly as possible.

Most of what is here quantifies over raw subsets or loops over all
elements, with none of the span/lattice machinery the package uses. Slow
on purpose — these exist so the fast paths have something independent to
disagree with. The sections at the end do use the package's groups,
spans and lattices: the coset-at-a-time span loop over a group's
``sums``, the pairwise join closure, the full-table kernels the library
replaced with generator-width ones, for rings and for modules, quotient
views and annihilators, the full-row slot laws, the full-scan validators,
the full-scan ring map and the built-quotient route of check 2.10, the
join of the cyclic submodules of a set of elements, the block pairs of
one-sided ideals by an ``is_subset`` loop over masks, the
lattice-pairwise primeness and nilpotency routes with the nilpotent
radical built on them, and the slotwise products of two-sided ideals of a
context ring with the prime and semiprime flags read off products of
lattice covers and off the lattice's coatoms.
"""

from __future__ import annotations

from itertools import combinations, compress, product

import numpy as np

from moritactx import (Ideal, ModuleView, NotASubmoduleError, NotProperError, Verdict,
                       build_context_ring, confirm_prime_witness, enumerate_ideals,
                       enumerate_submodules, quotient_context, quotient_ring,
                       verify_submodule)
from moritactx.bitsets import bool_array, full_mask, indices_of, is_subset, mask_from_bool
from moritactx.context import (_PAIRING_LAWS, _block_products, _carriers, _lands, _pair_views,
                               _rule, _side_blocks)
from moritactx.ideals import DEFAULT_LATTICE_CAP
from moritactx.spans import _classes, cyclic_masks
from moritactx.validation import ValidationReport, Violation, violations_of


def components(ctx) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slot coordinates of every element index of T, as four parallel
    arrays: the gather route beside the library's broadcasts."""
    return np.unravel_index(np.arange(ctx.order), ctx.dims)


def members_of(mask: int, order: int) -> list[int]:
    return [i for i in range(order) if mask >> i & 1]


def naive_is_subgroup(add, zero: int, members: list[int]) -> bool:
    if zero not in members:
        return False
    inside = set(members)
    return all(int(add[a, b]) in inside for a in members for b in members)


def naive_is_ideal(ring, members: list[int], sidedness: str) -> bool:
    if not naive_is_subgroup(ring.add, ring.zero, members):
        return False
    inside = set(members)
    for a in members:
        for r in range(ring.order):
            if sidedness in ("left", "two") and int(ring.mul[r, a]) not in inside:
                return False
            if sidedness in ("right", "two") and int(ring.mul[a, r]) not in inside:
                return False
    return True


def naive_ideals(ring, sidedness: str = "two") -> set[frozenset[int]]:
    """Every ideal, found by filtering all 2^k subsets. Usable up to k=16."""
    found = set()
    rest = [i for i in range(ring.order) if i != ring.zero]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            members = [ring.zero, *extra]
            if naive_is_ideal(ring, members, sidedness):
                found.add(frozenset(members))
    return found


def naive_is_prime(ring, members: list[int]) -> bool:
    """Definition chase: a*x*b always inside forces a or b inside."""
    inside = set(members)
    outside = [a for a in range(ring.order) if a not in inside]
    for a in outside:
        for b in outside:
            if all(int(ring.mul[int(ring.mul[a, x]), b]) in inside
                   for x in range(ring.order)):
                return False
    return True


def naive_is_semiprime(ring, members: list[int]) -> bool:
    inside = set(members)
    for a in range(ring.order):
        if a in inside:
            continue
        if all(int(ring.mul[int(ring.mul[a, x]), a]) in inside
               for x in range(ring.order)):
            return False
    return True


def naive_prime_radical(ring) -> frozenset[int]:
    """Intersection of all proper prime ideals; whole ring if there are none."""
    primes = [p for p in naive_ideals(ring, "two")
              if len(p) < ring.order and naive_is_prime(ring, sorted(p))]
    out = set(range(ring.order))
    for p in primes:
        out &= p
    return frozenset(out)


def scalar_action(module, side: str):
    """(acting ring, act) with act(r, x) r acting on x, read off the stored
    tables and not through ``action(side)``: a bimodule's left table at
    [r, x] and its right one at [x, r], a one-sided module's own table on
    its own side. ValueError for a side a one-sided module has no action on."""
    if isinstance(module, ModuleView):
        if side != module.side:
            raise ValueError(f"{module!r} has no {side} action")
        return module.ring, lambda r, x: int(module.act[r, x])
    if side == "left":
        return module.left_ring, lambda r, x: int(module.left_act[r, x])
    return module.right_ring, lambda r, x: int(module.right_act[x, r])


def naive_is_submodule(module, members: list[int], side: str) -> bool:
    if not naive_is_subgroup(module.add, module.zero, members):
        return False
    ring, act = scalar_action(module, side)
    inside = set(members)
    return all(act(r, m) in inside for r in range(ring.order) for m in members)


def naive_submodules(module, side: str) -> set[frozenset[int]]:
    found = set()
    rest = [i for i in range(module.order) if i != module.zero]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            members = [module.zero, *extra]
            if naive_is_submodule(module, members, side):
                found.add(frozenset(members))
    return found


def naive_is_prime_submodule(module, members: list[int], side: str) -> bool:
    """Scalar-element primeness, chased without the generator shortcut.

    Left reading: r*(ring)*m landing inside forces r*(module) inside or m
    inside; the right reading mirrors the scalars. The library checks ring
    products only at additive generators — this loops over the whole ring.
    """
    ring, act = scalar_action(module, side)
    inside = set(members)
    if len(inside) == module.order:
        return False
    for r in range(ring.order):
        # does r send the whole module inside? then r constrains nothing
        if all(act(r, m) in inside for m in range(module.order)):
            continue
        for m in range(module.order):
            if m in inside:
                continue
            if all(act(int(ring.mul[r, t]) if side == "left" else int(ring.mul[t, r]), m)
                   in inside for t in range(ring.order)):
                return False
    return True


def naive_context_product(ctx, x: tuple, y: tuple) -> tuple:
    """The four-slot product computed straight from the defining formula."""
    r1, v1, w1, s1 = x
    r2, v2, w2, s2 = y
    big_r, big_s = ctx.ring_r, ctx.ring_s
    vee, dub = ctx.mod_v, ctx.mod_w
    return (
        int(big_r.add[big_r.mul[r1, r2], ctx.prod_vw[v1, w2]]),
        int(vee.add[vee.left_act[r1, v2], vee.right_act[v1, s2]]),
        int(dub.add[dub.right_act[w1, r2], dub.left_act[s1, w2]]),
        int(big_s.add[big_s.mul[s1, s2], ctx.prod_wv[w1, v2]]),
    )


def naive_context_sum(ctx, x: tuple, y: tuple) -> tuple:
    """The four-slot sum: each slot added in its own carrier."""
    carriers = (ctx.ring_r, ctx.mod_v, ctx.mod_w, ctx.ring_s)
    return tuple(int(c.add[a, b]) for c, a, b in zip(carriers, x, y))


def broadcast_context_add(ctx) -> np.ndarray:
    """T's n×n addition table as the build once stored it: the (r, v) and
    (w, s) halves, scaled to their place in the index, added by one
    broadcast over the 8-axis array (r1,v1,w1,s1,r2,v2,w2,s2)."""
    kr, mv, mw, ks = ctx.dims
    big_r, big_s, vee, dub = ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w

    def grid(x, y):
        return x[:, None, :, None], y[None, :, None, :]

    top = np.add(*grid(big_r.add * (mv * mw * ks), vee.add * (mw * ks)))
    bottom = np.add(*grid(dub.add * ks, big_s.add))
    return (top.reshape(kr, mv, 1, 1, kr, mv, 1, 1)
            + bottom.reshape(1, 1, mw, ks, 1, 1, mw, ks)).reshape(ctx.order, ctx.order)


def broadcast_context_mul(ctx) -> np.ndarray:
    """T's n×n product table as the build once stored it: slot tables
    rr[r1,v1,r2,w2] + vv[r1,v1,v2,s2], scaled to their place in the index,
    for the (r, v) half and ww[w1,s1,r2,w2] + ss[w1,s1,v2,s2] for the
    (w, s) half, added by one broadcast over the 8-axis array
    (r1,v1,w1,s1,r2,v2,w2,s2). Every carrier table is read whole."""
    kr, mv, mw, ks = ctx.dims
    big_r, big_s, vee, dub = ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w

    def slot(add, x, y, place):                     # add[x[a, b], y[c, d]] at [a, c, b, d]
        return add[x[:, :][:, None, :, None], y[:, :][None, :, None, :]].astype(np.int64) * place

    rr = slot(big_r.add, big_r.mul, ctx.prod_vw, mv * mw * ks).reshape(kr, mv, 1, 1, kr, 1, mw, 1)
    vv = slot(vee.add, vee.left_act, vee.right_act, mw * ks).reshape(kr, mv, 1, 1, 1, mv, 1, ks)
    ww = slot(dub.add, dub.right_act, dub.left_act, ks).reshape(1, 1, mw, ks, kr, 1, mw, 1)
    ss = slot(big_s.add, ctx.prod_wv, big_s.mul, 1).reshape(1, 1, mw, ks, 1, mv, 1, ks)
    return (rr + vv + ww + ss).reshape(ctx.order, ctx.order)


def block_add(first, second) -> np.ndarray:
    """The square addition table a block view of slots (first, second) once
    stored: (a, b) at a·|second| + b, added slotwise."""
    a, b = np.divmod(np.arange(first.order * second.order), second.order)
    return first.add[a[:, None], a] * second.order + second.add[b[:, None], b]


def naive_closure_sets(ctx, i_mask: int, j_mask: int) -> tuple[int, int, int, int]:
    """(v_into_r, v_into_s, w_into_r, w_into_s) by their definitions: the v
    with every v·w in I, the v with every w·v in J, the w with every v·w in
    I, and the w with every w·v in J."""
    in_i = set(members_of(i_mask, ctx.ring_r.order))
    in_j = set(members_of(j_mask, ctx.ring_s.order))
    P, Q = ctx.prod_vw.tolist(), ctx.prod_wv.tolist()
    vs, ws = range(ctx.mod_v.order), range(ctx.mod_w.order)

    def mask(elements) -> int:
        return sum(1 << x for x in elements)

    return (mask(v for v in vs if all(P[v][w] in in_i for w in ws)),
            mask(v for v in vs if all(Q[w][v] in in_j for w in ws)),
            mask(w for w in ws if all(P[v][w] in in_i for v in vs)),
            mask(w for w in ws if all(Q[w][v] in in_j for v in vs)))


def naive_additive_span(add, zero: int, seeds: list[int]) -> frozenset[int]:
    out = {zero, *seeds}
    while True:
        new = {int(add[a, b]) for a in out for b in out} - out
        if not new:
            return frozenset(out)
        out |= new


def naive_quadruple_ideals(ctx) -> set[tuple]:
    """All (I, V1, W1, J) quadruples satisfying the eight slot conditions.

    Quantifies over additive subgroups of each slot directly — no pair
    matrices, no pruning — so it only works for tiny contexts.
    """
    def subgroups(add, zero, order):
        rest = [i for i in range(order) if i != zero]
        out = []
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                members = [zero, *extra]
                if naive_is_subgroup(add, zero, members):
                    out.append(tuple(members))
        return out

    big_r, big_s, vee, dub = ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w
    r_ideals = [sorted(c) for c in naive_ideals(big_r, "two")]
    s_ideals = [sorted(c) for c in naive_ideals(big_s, "two")]
    v_subs = [g for g in subgroups(vee.add, vee.zero, vee.order)
              if all(int(vee.left_act[r, m]) in set(g) and int(vee.right_act[m, s]) in set(g)
                     for m in g for r in range(big_r.order) for s in range(big_s.order))]
    w_subs = [g for g in subgroups(dub.add, dub.zero, dub.order)
              if all(int(dub.left_act[s, m]) in set(g) and int(dub.right_act[m, r]) in set(g)
                     for m in g for s in range(big_s.order) for r in range(big_r.order))]

    found = set()
    for i, v1, w1, j in product(r_ideals, v_subs, w_subs, s_ideals):
        iset, vset, wset, jset = set(i), set(v1), set(w1), set(j)
        ok = (
            all(int(ctx.prod_vw[v, w]) in iset for v in v1 for w in range(dub.order))
            and all(int(ctx.prod_wv[w, v]) in jset for w in w1 for v in range(vee.order))
            and all(int(vee.left_act[r, v]) in vset for r in i for v in range(vee.order))
            and all(int(dub.left_act[s, w]) in wset for s in j for w in range(dub.order))
            and all(int(ctx.prod_vw[v, w]) in iset for w in w1 for v in range(vee.order))
            and all(int(ctx.prod_wv[w, v]) in jset for v in v1 for w in range(dub.order))
            and all(int(vee.right_act[v, s]) in vset for s in j for v in range(vee.order))
            and all(int(dub.right_act[w, r]) in wset for r in i for w in range(dub.order))
        )
        if ok:
            found.add((tuple(i), tuple(v1), tuple(w1), tuple(j)))
    return found


# -- full-table kernels ------------------------------------------------------------
#
# The routes the library took before it decided ideals at generator width and
# scanned primes one class of aT at a time: every entry of a row or column of
# the table is read.


def _mid_generators(ring) -> np.ndarray:
    return np.append(ring.addgroup.generators, ring.one).astype(np.int64)


def full_scan_check_ideal(ring, mask: int, sidedness: str) -> Verdict:
    """Closure check over every sum of members and every product with T."""
    k = ring.order
    members = indices_of(mask, k)
    inside = bool_array(mask, k)
    if members.size == 0 or not inside[ring.zero]:
        return Verdict(False, ("zero",))
    sums = inside[ring.add[np.ix_(members, members)]]
    if not sums.all():
        i, j = map(int, np.argwhere(~sums)[0])
        return Verdict(False, ("add", int(members[i]), int(members[j])))
    if sidedness in ("left", "two"):
        prods = inside[ring.mul[:, members]]
        if not prods.all():
            r, i = map(int, np.argwhere(~prods)[0])
            return Verdict(False, ("left", r, int(members[i])))
    if sidedness in ("right", "two"):
        prods = inside[ring.mul[members, :]]
        if not prods.all():
            i, r = map(int, np.argwhere(~prods)[0])
            return Verdict(False, ("right", int(members[i]), r))
    return Verdict(True)


def span_principal_masks(ring, sidedness: str) -> list[int]:
    """Each element's principal ideal as the additive span of its products
    with the middle generators (one-sided) or between two of them."""
    group = ring.addgroup
    gens = _mid_generators(ring)
    if sidedness == "left":
        prods = ring.mul[gens, :].T                  # row a lists g*a
    elif sidedness == "right":
        prods = ring.mul[:, gens]                    # row a lists a*h
    else:
        prods = np.concatenate([ring.mul[ring.mul[g][:, None], gens[None, :]] for g in gens],
                               axis=1)               # row a lists g*a*h
    uniq, inverse = np.unique(np.sort(prods, axis=1), axis=0, return_inverse=True)
    spans = [group.span_mask(row) for row in uniq]
    return [spans[i] for i in inverse.ravel()]


def fingerprint_prime_scan(ring, inside: np.ndarray) -> tuple[int, int] | None:
    """First (a, b) outside with a*T*b inside; the condition on b is shared
    only by elements a with the same products a*g."""
    mul, gens = ring.mul[:, :], _mid_generators(ring)         # the whole table
    cache: dict[bytes, np.ndarray] = {}
    for a in np.flatnonzero(~inside):
        u = np.unique(mul[a, gens])
        cond_b = cache.get(u.tobytes())
        if cond_b is None:
            cond_b = cache[u.tobytes()] = inside[mul[u, :]].all(axis=0)
        bad = cond_b & ~inside
        if bad.any():
            return int(a), int(np.flatnonzero(bad)[0])
    return None


def least_semiprime_witness(ring, inside: np.ndarray) -> int | None:
    """Least a outside with every a*x*a inside, x over the whole ring: rows
    of the n x n table of a*x*a, 64 values of a at a time in ascending
    order, with no orbit classes and no additive generators."""
    mul = ring.mul[:, :]                            # the whole table
    for lo in range(0, ring.order, 64):
        a = np.arange(lo, min(lo + 64, ring.order))
        bad = inside[mul[mul[a], a[:, None]]].all(axis=1) & ~inside[a]
        if bad.any():
            return int(a[bad.argmax()])
    return None


def coset_span(group, seeds, base: np.ndarray | None = None) -> np.ndarray:
    """The span of ``seeds`` over the subgroup ``base`` (bools; the zero
    alone when None), as bools: each seed g in turn adds the cosets S + g,
    S + 2g, ... of the span S so far, one ``sums`` row a coset, until the
    shift re-enters S. The span loop the library's doubling one replaced."""
    inside = np.zeros(group.order, dtype=bool) if base is None else base.copy()
    inside[group.zero] = True
    for g in map(int, seeds):
        members, shift = np.flatnonzero(inside), g
        while not inside[shift]:
            inside[group.sums(shift, members)] = True
            shift = int(group.sums(shift, g))
    return inside


def coset_generate(group, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``AddGroup.generate`` over ``coset_span``: greedy generators, each the
    least wanted element outside the span so far, and that span."""
    gens, inside = [], coset_span(group, [])
    while (want & ~inside).any():
        gens.append(int((want & ~inside).argmax()))
        inside = coset_span(group, gens[-1:], inside)
    return np.array(gens, dtype=np.int64), inside


def plain_join_closure(group, seeds) -> list[int]:
    """Every join of the seeds, each pair spanned from all members of the seed."""
    seeds = set(seeds)
    found = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for a in frontier:
            for b in seeds:
                j = group.span_mask(indices_of(b, group.order), base=a)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    return sorted(found, key=lambda m: (m.bit_count(), m))


def generated_submodule(carrier, elements, sidedness: str) -> int:
    """The submodule of the sidedness that ``elements`` generate, the join
    of their cyclic submodules: the ``coset_span`` of every l.x, x.r or
    l.x.r, l and r over the acting rings' additive generators (the actions
    are biadditive and unital, so x and all of R.x.R lie in that span)."""
    images = np.unique(np.asarray(elements, dtype=np.int64))
    for _, act, ring_gens in carrier.actions(sidedness):
        images = np.unique(np.asarray(act[np.ix_(ring_gens, images)]))
    return mask_from_bool(coset_span(carrier.addgroup, images))


def block_pairs(ctx, side: str) -> list[tuple]:
    """The ``side``-sided ideals of T as block pairs (N1, N2), by an
    ``is_subset`` double loop over the masks of the two block lattices:
    N1 must lie in N2's colon and N2 in N1's, each colon read from the
    block products with every element of the acting carrier."""
    views = _pair_views(ctx, side)
    lattices = [enumerate_submodules(view, side) for view in views]
    products = _block_products(ctx, side)
    holds = []
    for src, (k1, k2) in enumerate(_side_blocks(side)):
        hi, lo = views[src].addgroup.digits
        target = views[1 - src]
        image = target.addgroup.place[products[k1].table[hi]] + products[k2].table[lo]
        colons = [mask_from_bool(bool_array(t.members, target.order)[image].all(axis=1))
                  for t in lattices[1 - src]]
        holds.append([[is_subset(x.members, c) for x in lattices[src]] for c in colons])
    return [(a, b) for i, a in enumerate(lattices[0]) for j, b in enumerate(lattices[1])
            if holds[0][j][i] and holds[1][i][j]]


def block_audit(ctx, mask: int, side: str) -> dict[str, bool]:
    """The block theorem's flags for the ``side``-sided ideal U of T given by
    its mask, read in T with none of the block kernels: each projection of U
    onto a coordinate block, (R, W) and (V, S) for a right ideal, (R, V) and
    (W, S) for a left one, is closed under the slots' sums and under the
    block's corner ring acting through T (``closed1``, ``closed2``); each
    block element alone in its two slots, zeros elsewhere, lies in U
    (``embeds1``, ``embeds2``); each block times the off-diagonal slot it
    meets on the absorbing side lands alone in the other block
    (``carries1``, ``carries2``); and U is the product of the two blocks
    (``reconstructs``: it lies in that product, so their sizes decide)."""
    ring, carriers = build_context_ring(ctx), _carriers(ctx)
    members = np.flatnonzero(bool_array(mask, ctx.order))
    coords = np.unravel_index(members, ctx.dims)
    blocks = ((0, 2), (1, 3)) if side == "right" else ((0, 1), (2, 3))

    def alone(slots, values) -> np.ndarray:
        """Elements of T with the given values in ``slots``, zero elsewhere."""
        grid = [np.full(len(values[0]), c.zero) for c in carriers]
        for k, v in zip(slots, values):
            grid[k] = v
        return np.ravel_multi_index(grid, ctx.dims)

    def times(x: np.ndarray, y: np.ndarray) -> np.ndarray:     # x·y, y on the absorbing side
        return ring.mul[x[:, None], y] if side == "right" else ring.mul[y[:, None], x].T

    parts = [np.unique(np.stack([coords[k1], coords[k2]]), axis=1) for k1, k2 in blocks]
    embedded = [alone(slots, part) for slots, part in zip(blocks, parts)]
    flags = {}
    for n, ((k1, k2), part, own) in enumerate(zip(blocks, parts, embedded), 1):
        first, second = carriers[k1], carriers[k2]
        sums = alone((k1, k2), (first.add[part[0][:, None], part[0]].ravel(),
                                second.add[part[1][:, None], part[1]].ravel()))
        corner = alone((3 * (n - 1),), (np.arange(ctx.dims[3 * (n - 1)]),))
        acting = ({1, 2} - {k1, k2}).pop()
        across = alone((acting,), (np.arange(ctx.dims[acting]),))
        flags[f"closed{n}"] = bool(np.isin(np.concatenate([sums, times(own, corner).ravel()]),
                                           own).all())
        flags[f"embeds{n}"] = bool(np.isin(own, members).all())
        flags[f"carries{n}"] = bool(np.isin(times(own, across), embedded[2 - n]).all())
    flags["reconstructs"] = len(members) == parts[0].shape[1] * parts[1].shape[1]
    return flags


def pairwise_join_closure(group, seeds) -> list[int]:
    """Every join of the seeds: each mask found joined with every seed until
    a fixpoint, in the order found, a pair spanned only when no found mask
    of size |A|·|B| / |A∩B| contains a | b. Fast enough for lattices of
    hundreds of members, where ``plain_join_closure`` spans every pair."""
    sizes = {b: b.bit_count() for b in seeds}
    lattice = list(sizes)
    by_size: dict[int, list[int]] = {}
    for m in lattice:
        by_size.setdefault(sizes[m], []).append(m)
    for a in lattice:                               # grows as joins are found
        for b, size_b in sizes.items():
            meet, ab = a & b, a | b
            if meet in (a, b):
                continue
            size = a.bit_count() * size_b // meet.bit_count()
            if any(c & ab == ab for c in by_size.get(size, ())):
                continue
            lattice.append(group.join_masks(a, group.subgroup_generators(b)))
            by_size.setdefault(size, []).append(lattice[-1])
    return sorted(lattice, key=lambda m: (m.bit_count(), m))


def onehot_orbit_classes(act: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Orbit classes keyed on each orbit's full one-hot row: class of each
    element (column x of ``act``), numbered by first appearance, and each
    class's mask. Needs no law of the action."""
    table = act.T
    m = table.shape[0]
    rows = np.empty((m, (m + 7) // 8), dtype=np.uint8)
    step = max(1, 2**22 // m)                       # one-hot chunks of at most 4 MiB
    for lo in range(0, m, step):
        hot = np.zeros((min(step, m - lo), m), dtype=bool)
        np.put_along_axis(hot, table[lo:lo + step], True, axis=1)
        rows[lo:lo + step] = np.packbits(hot, axis=1, bitorder="little")
    classes, keys = _classes(rows)
    return classes, [int.from_bytes(row, "little") for row in keys]


# -- full-table module kernels ------------------------------------------------------
#
# The routes modules took before they shared the ring kernels: closure over
# every sum and every product, each element's orbit spanned, and a prime
# scan over every ring element with its condition keyed on the products.


def full_scan_verify_closed(carrier, mask: int, actions) -> None:
    """Raise NotASubmoduleError unless the mask holds zero and is closed under
    addition and each (side, normalized action table) in ``actions``."""
    witness = full_scan_closed_witness(carrier, mask, actions)
    if witness is not None:
        kind = witness[0]
        raise NotASubmoduleError("submodule must contain zero" if kind == "zero"
                                 else "subset is not closed under addition" if kind == "add"
                                 else f"subset is not stable under the {kind} ring action")


def full_scan_closed_witness(carrier, mask: int, actions) -> tuple | None:
    """The lex-first failure of ``full_scan_verify_closed``'s scan over every
    sum and every product: ("zero",), ("add", a, b), ("left", r, x) or
    ("right", x, r); None when the mask is closed."""
    members = indices_of(mask, carrier.order)
    inside = bool_array(mask, carrier.order)
    if members.size == 0 or not inside[carrier.zero]:
        return ("zero",)
    sums = inside[carrier.addgroup.sums(members[:, None], members)]
    if not sums.all():
        i, j = map(int, np.argwhere(~sums)[0])
        return ("add", int(members[i]), int(members[j]))
    for side, act in actions:
        prods = inside[act[:, members]]
        if not prods.all():
            if side == "left":
                r, i = map(int, np.argwhere(~prods)[0])
                return ("left", r, int(members[i]))
            i, r = map(int, np.argwhere(~prods.T)[0])
            return ("right", int(members[i]), r)
    return None


def full_scan_check_closed(carrier, mask: int, sidedness: str) -> Verdict:
    """``check_closed``'s verdict and witness from the full scan alone, as
    it once ran after a failed generator-width pass: every sum of members
    and every product with a member, each scan formed whole, not a block
    of rows at a time."""
    witness = full_scan_closed_witness(
        carrier, mask, [(side, act) for side, act, _ in carrier.actions(sidedness)])
    return Verdict(witness is None, witness)


def span_cyclic_masks(module, side: str) -> list[int]:
    """Each element's cyclic submodule under the ``side`` action as the span of its orbit."""
    act = module.action(side)[1]
    return [module.addgroup.span_mask(np.unique(act[:, x])) for x in range(module.order)]


def span_bicyclic_masks(module) -> list[int]:
    """Each element's cyclic bisubmodule as the span of every l.x.r."""
    return [module.addgroup.span_mask(np.unique(module.right_act[module.left_act[:, x]]))
            for x in range(module.order)]


def fingerprint_is_prime_submodule(module, mask: int, side: str) -> Verdict:
    """Prime submodule scan over every ring element r, the condition on x
    shared by elements with the same products with the additive generators."""
    ring, act = module.action(side)
    inside = bool_array(mask, module.order)
    gens = ring.addgroup.generators
    cache: dict[bytes, np.ndarray] = {}
    for r in range(ring.order):
        u = np.unique(ring.mul[r, gens] if side == "left" else ring.mul[gens, r])
        rows = inside[act[u]]
        if rows.all():
            continue
        cond = cache.get(u.tobytes())
        if cond is None:
            cond = cache[u.tobytes()] = rows.all(axis=0)
        bad = cond & ~inside
        if bad.any():
            return Verdict(False, (r, int(np.flatnonzero(bad)[0])))
    return Verdict(True)


# -- quotient views and annihilators --------------------------------------------------
#
# Module operations the library has no use for, kept for the prime submodule
# test: the annihilator of M/N is the colon (N : M), a prime ideal whenever N
# is a prime submodule of M.


def annihilator(module, side: str) -> Ideal:
    """The ring elements acting as zero from ``side``: the kernel of the
    action map, hence a two-sided ideal, returned without a closure check."""
    ring, act = module.action(side)
    return Ideal(ring, mask_from_bool((act == module.zero).all(axis=1)), "two")


def quotient_view(module, mask: int, side: str) -> tuple[ModuleView, np.ndarray]:
    """A module modulo a submodule of its ``side`` action, as a one-sided
    module over the same ring, with the projection array old index -> new
    index. Always well defined: the action is additive and preserves the
    submodule."""
    verify_submodule(module, mask, side)
    ring, act = module.action(side)
    reps, proj = module.addgroup.cosets(mask)
    quotient = ModuleView(ring, side, proj[module.add[np.ix_(reps, reps)]],
                          proj[act[:, reps]], int(proj[module.zero]),
                          labels=[module.label(int(r)) for r in reps],
                          name=f"{module.name}/sub{mask.bit_count()}")
    return quotient, proj


# -- full-row slot laws ----------------------------------------------------------------
#
# The route the context module took before it read the eight slot laws off one
# table of slot products and decided them on the acting carrier's generators:
# every row of a slot member is read, each law written out by hand.


def full_row_quadruple_conditions(ctx, i_mask: int, v1_mask: int, w1_mask: int,
                                  j_mask: int) -> list[tuple[str, bool, tuple | None]]:
    """The eight slot laws as (law, ok, witness), each scanned over full rows."""
    V, W = ctx.mod_v, ctx.mod_w
    P, Q = ctx.prod_vw, ctx.prod_wv
    kr, mv, mw, ks = ctx.dims
    in_i, in_j = bool_array(i_mask, kr), bool_array(j_mask, ks)
    in_v1, in_w1 = bool_array(v1_mask, mv), bool_array(w1_mask, mw)
    i_members, j_members = indices_of(i_mask, kr), indices_of(j_mask, ks)
    v1_members, w1_members = indices_of(v1_mask, mv), indices_of(w1_mask, mw)

    def entry(law: str, ok: np.ndarray, rows, cols) -> tuple[str, bool, tuple | None]:
        if ok.all():
            return (law, True, None)
        a, b = np.argwhere(~ok)[0]
        ra = int(rows[a]) if rows is not None else int(a)
        cb = int(cols[b]) if cols is not None else int(b)
        return (law, False, (ra, cb))

    return [
        entry("v_part*W<=r_part", in_i[P[v1_members, :]], v1_members, None),
        entry("w_part*V<=s_part", in_j[Q[w1_members, :]], w1_members, None),
        entry("r_part*V<=v_part", in_v1[V.left_act[i_members, :]], i_members, None),
        entry("s_part*W<=w_part", in_w1[W.left_act[j_members, :]], j_members, None),
        entry("V*w_part<=r_part", in_i[P[:, w1_members]], None, w1_members),
        entry("W*v_part<=s_part", in_j[Q[:, v1_members]], None, v1_members),
        entry("V*s_part<=v_part", in_v1[V.right_act[:, j_members]], None, j_members),
        entry("W*r_part<=w_part", in_w1[W.right_act[:, i_members]], None, i_members),
    ]


# -- full-scan validators --------------------------------------------------------------
#
# The route the bimodule and context validators took before they decided at
# generator width: every law is scanned over all of its triples, whatever the
# others found. The library still runs these scans, but only to name the
# witnesses of a check that failed. ``validate_ring`` has no generator-width
# pass, so it needs no copy. The scans here walk one row (a 2-d slab) at a
# time, not the library's blocks of rows, so they share no kernel with
# ``validation.law_witness``.


def row_witness(n: int, lhs, rhs) -> tuple | None:
    """Lex-first (i, j, k) with ``lhs(i)[j, k] != rhs(i)[j, k]``, i below n."""
    for i in range(n):
        diff = lhs(i) != rhs(i)
        if diff.any():
            j, k = map(int, np.argwhere(diff)[0])
            return (i, j, k)
    return None


def row_associative(ab, bc, ab_c, a_bc) -> tuple | None:
    """First (a, b, c) with ab_c[ab[a, b], c] != a_bc[a, bc[b, c]]."""
    return row_witness(ab.shape[0], lambda a: ab_c[ab[a]], lambda a: a_bc[a][bc])


def row_additive_first(op, add_in, add_out) -> tuple | None:
    """First (x, y, z) with (x+y)·z != x·z + y·z, where ``op[x, z]`` is x·z."""
    return row_witness(add_in.shape[0], lambda x: op[add_in[x]],
                       lambda x: add_out[op[x][None, :], op])


def row_additive_second(op, add_in, add_out) -> tuple | None:
    """First (x, y, z) with x·(y+z) != x·y + x·z, where ``op[x, y]`` is x·y."""
    return row_witness(op.shape[0], lambda x: op[x][add_in],
                       lambda x: add_out[op[x][:, None], op[x][None, :]])


def row_group_violations(add) -> list[Violation]:
    """Inverse, commutativity and associativity of an addition table, each
    with its first witness, as ``abelian_group_violations`` reports them."""
    n = add.shape[0]
    violations = []
    not_perm = [x for x in range(n) if sorted(add[x].tolist()) != list(range(n))]
    if not_perm:
        violations.append(Violation("additive-inverse", (not_perm[0],)))
    asym = np.argwhere(add != add.T)
    if asym.size:
        violations.append(Violation("additive-commutativity", tuple(map(int, asym[0]))))
    return violations + violations_of(
        [("additive-associativity", row_associative(add, add, add, add))])


def full_scan_bimodule_violations(mod) -> list[Violation]:
    """The bimodule axioms, each scanned in full; nothing is cached."""
    add, zero = mod.add, mod.zero
    idx = np.arange(mod.order, dtype=np.int32)
    violations: list[Violation] = []
    if not ((add[zero] == idx).all() and (add[:, zero] == idx).all()):
        violations.append(Violation("additive-identity", (zero,)))
    violations.extend(row_group_violations(add))
    for side in ("left", "right"):
        ring, act = mod.action(side)
        unital = np.flatnonzero(act[ring.one] != idx)
        if unital.size:
            violations.append(Violation(f"{side}-unital", (int(unital[0]),)))
        staged = (row_associative(ring.mul, act, act, act) if side == "left" else
                  row_witness(ring.order, lambda r1: act[ring.mul[r1]],
                              lambda r1: act[:, act[r1]]))
        violations += violations_of([
            (f"{side}-additive-in-ring", row_additive_first(act, ring.add, add)),
            (f"{side}-additive-in-module", row_additive_second(act, add, add)),
            (f"{side}-associative", staged)])
    return violations + violations_of([("actions-commute", row_associative(
        mod.left_act, mod.right_act, mod.right_act, mod.left_act))])


def full_scan_validate_bimodule(mod) -> ValidationReport:
    return ValidationReport(f"bimodule {mod.name}", tuple(full_scan_bimodule_violations(mod)))


def full_scan_validate_context(ctx) -> ValidationReport:
    """Both bimodules' axioms and the twelve pairing laws, each scanned in full."""
    violations = [Violation(f"{tag}:{v.law}", v.witness)
                  for tag, mod in (("v", ctx.mod_v), ("w", ctx.mod_w))
                  for v in full_scan_bimodule_violations(mod)]
    rule, adds = _rule(ctx), [c.add for c in _carriers(ctx)]

    def witness(x: int, y: int, z: int) -> tuple | None:
        if x == y:
            return row_additive_first(rule[y, z], adds[x], adds[_lands(y, z)])
        if y == z:
            return row_additive_second(rule[x, y], adds[y], adds[_lands(x, y)])
        return row_associative(rule[x, y], rule[y, z], rule[_lands(x, y), z],
                               rule[x, _lands(y, z)])

    violations += violations_of((law, witness(x, y, z)) for law, x, y, z in _PAIRING_LAWS)
    return ValidationReport(f"context {ctx.name}", tuple(violations))


# -- full-scan ring maps and the built-quotient route of check 2.10 -------------------


def full_scan_verify_ring_map(source, target, image) -> Verdict:
    """Identity, then + and · over all n² pairs of the source: the ring-map
    check before it went to generator width. Same witnesses."""
    img = np.asarray(image, dtype=np.int64)
    if int(img[source.one]) != target.one:
        return Verdict(False, ("one",))
    for op, src, tgt in (("add", source.add, target.add),
                         ("mul", source.mul[:, :], target.mul[:, :])):      # whole tables
        diff = img[src] != tgt[np.ix_(img, img)]
        if diff.any():
            a, b = map(int, np.argwhere(diff)[0])
            return Verdict(False, (op, a, b))
    return Verdict(True)


def quotient_iso_by_quotient_ring(ctx, cap: int = DEFAULT_LATTICE_CAP) -> Verdict:
    """Check 2.10 by building T/rad: quotient T by the slotwise radical, map
    each coset's least member slotwise into T(ctx/rad), and demand a
    bijective ring map, scanned in full. ("bijective",) when it is not."""
    ring = build_context_ring(ctx)
    qres = quotient_context(ctx, cap)
    ring_q, proj_t = quotient_ring(ring, qres.radical.member_mask())
    target = build_context_ring(qres.context, cap=ring.order)
    if ring_q.order != target.order:
        return Verdict(False, ("bijective",))
    _, first = np.unique(proj_t, return_index=True)
    r_of, v_of, w_of, s_of = components(ctx)
    image = qres.context.encode(qres.proj_r[r_of[first]], qres.proj_v[v_of[first]],
                                qres.proj_w[w_of[first]], qres.proj_s[s_of[first]])
    verdict = full_scan_verify_ring_map(ring_q, target, image)
    if verdict and np.unique(image).size != target.order:
        return Verdict(False, ("bijective",))
    return verdict


# -- lattice-pairwise routes ----------------------------------------------------------


def principal_ideal(ring, a: int, sidedness: str = "two") -> Ideal:
    """The ideal of the named sidedness that a generates: its cyclic mask."""
    return Ideal(ring, cyclic_masks(ring, sidedness)[a], sidedness)


def confirm_semiprime_witness(ring, mask: int, a: int) -> bool:
    """Does the element a actually refute semiprimeness of the given subset?"""
    return confirm_prime_witness(ring, mask, a, a)


def ideal_product_mask(ring, amask: int, bmask: int) -> int:
    """Additive span of pairwise products of two additively closed sets.

    Products of subgroup generators generate the span: every member of
    either factor is a sum of its generators and multiplication is
    biadditive.
    """
    group = ring.addgroup
    agens = group.subgroup_generators(amask)
    bgens = group.subgroup_generators(bmask)
    if agens.size == 0 or bgens.size == 0:
        return 1 << ring.zero
    prods = ring.mul[np.ix_(agens, bgens)].ravel()
    return group.span_mask(np.unique(prods))


# The two slot pairs (x, y) of the rule whose products land in each slot:
# (i, j)·(j', k) is nonzero exactly when j = j'.
_INTO = tuple(tuple((x, y) for x in range(4) for y in range(4)
                    if x & 1 == y >> 1 and _lands(x, y) == dst) for dst in range(4))


def _generators(ctx, slot: int, mask: int) -> np.ndarray:
    """Greedy additive generators of a subgroup of one slot (cached)."""
    key = ("generators", slot, mask)
    if key not in ctx._cache:
        ctx._cache[key] = _carriers(ctx)[slot].addgroup.subgroup_generators(mask)
    return ctx._cache[key]


def ideal_product(ctx, a, b) -> tuple[int, int, int, int]:
    """The slot masks of AB, for two-sided ideals A and B of the context ring
    given as ``IdealQuadruple``s or as their four slot masks.

    AB is the additive span of the products ab. A and B are products of
    their slots, so AB is too, and each slot of AB is the span of the two
    rule products landing there (``_rule``):
    R: I·I′ + V₁·W₁′, V: I·V₁′ + V₁·J′, W: W₁·I′ + J·W₁′, S: W₁·V₁′ + J·J′.
    The products are biadditive, so each is spanned from the products of
    the slots' additive generators. No table of T is read. Each slot is
    cached by the four slot masks it depends on.
    """
    a, b = getattr(a, "masks", a), getattr(b, "masks", b)
    rule, memo = _rule(ctx), ctx._cache.setdefault("ideal-product", {})
    out = []
    for dst, carrier in enumerate(_carriers(ctx)):
        key = (dst,) + tuple(m for x, y in _INTO[dst] for m in (a[x], b[y]))
        if key not in memo:
            memo[key] = carrier.addgroup.span_mask(np.concatenate([
                rule[x, y][np.ix_(_generators(ctx, x, a[x]), _generators(ctx, y, b[y]))].ravel()
                for x, y in _INTO[dst]]))
        out.append(memo[key])
    return tuple(out)


def lattice_covers(quads) -> np.ndarray:
    """``covers[p, q]``: quads[q] covers quads[p], P ⊊ Q with no ideal of
    the list strictly between. Containment is slotwise, ``is_subset`` on
    each slot's distinct masks; the ideals strictly between are counted by
    a float32 product of the containment matrix with itself, exact below
    2**24 ideals."""
    slots = []
    for k in range(4):
        index = {m: i for i, m in enumerate(sorted({quad.masks[k] for quad in quads}))}
        sub = np.array([[is_subset(a, b) for b in index] for a in index])
        at = np.array([index[quad.masks[k]] for quad in quads])
        slots.append(sub[np.ix_(at, at)])
    below = np.logical_and.reduce(slots)
    np.fill_diagonal(below, False)
    between = below.astype(np.float32) @ below.astype(np.float32)
    return below & (between == 0)


def coatom_flags(quads) -> list[tuple[bool, bool] | None]:
    """(prime, semiprime) for each ideal of the whole two-sided lattice
    ``quads``, None for the improper one, by the coatom rule. T is finite
    and unital, hence Artinian, so a proper ideal is prime exactly when it
    is maximal, an ideal T covers, and semiprime exactly when it contains
    the prime radical, the slotwise meet of the coatoms (Lam, *A First
    Course in Noncommutative Rings*, §4 and §10)."""
    proper = [quad.is_proper() for quad in quads]
    coatom = lattice_covers(quads)[:, proper.index(False)]
    meet = [full_mask(n) for n in quads[0].context.dims]
    for quad in compress(quads, coatom):
        meet = [m & x for m, x in zip(meet, quad.masks)]
    return [(bool(c), all(map(is_subset, meet, quad.masks))) if ok else None
            for quad, ok, c in zip(quads, proper, coatom)]


def cover_product_flags(ctx, quads) -> list[tuple[bool, bool] | None]:
    """(prime, semiprime) for each ideal of the whole two-sided lattice
    ``quads``, None for the improper one, from products of covers.

    T is unital, so a proper ideal P is prime exactly when AB ⊆ P forces
    A ⊆ P or B ⊆ P for two-sided ideals A and B, and semiprime exactly when
    A² ⊆ P forces A ⊆ P. Replacing A by A + P and then shrinking it only
    shrinks the products, so A and B may run over the covers of P: P is
    prime when no ``ideal_product`` of two of its covers lies inside P,
    semiprime when no cover's square does.
    """
    covers = lattice_covers(quads)
    flags: list[tuple[bool, bool] | None] = []
    for p, quad in enumerate(quads):
        if not quad.is_proper():
            flags.append(None)
            continue
        above = [quads[q].masks for q in range(len(quads)) if covers[p][q]]

        def inside(a, b, target=quad.masks) -> bool:
            return all(map(is_subset, ideal_product(ctx, a, b), target))

        semiprime = not any(inside(a, a) for a in above)
        prime = semiprime and not any(inside(a, b) for a in above for b in above if a is not b)
        flags.append((prime, semiprime))
    return flags


def is_prime_ideal_pairwise(ideal: Ideal, cap: int = DEFAULT_LATTICE_CAP) -> Verdict:
    """Primeness via products of ideals: A*B inside forces A or B inside.

    Quantifies over the two-sided ideal lattice — an independent route from
    the elementwise definition, kept separate on purpose. The witness is a
    pair of ideal masks.
    """
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProperError("primeness is only defined for proper ideals")
    lattice = enumerate_ideals(ring, "two", cap)
    target = ideal.members
    inside_flags = [is_subset(c.members, target) for c in lattice]
    for i, a in enumerate(lattice):
        if inside_flags[i]:
            continue
        for j, b in enumerate(lattice):
            if inside_flags[j]:
                continue
            if is_subset(ideal_product_mask(ring, a.members, b.members), target):
                return Verdict(False, (a.members, b.members))
    return Verdict(True)


def is_semiprime_ideal_pairwise(ideal: Ideal, cap: int = DEFAULT_LATTICE_CAP) -> Verdict:
    """Semiprimeness via squares of ideals: A*A inside forces A inside."""
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProperError("semiprimeness is only defined for proper ideals")
    lattice = enumerate_ideals(ring, "two", cap)
    target = ideal.members
    for a in lattice:
        if is_subset(a.members, target):
            continue
        if is_subset(ideal_product_mask(ring, a.members, a.members), target):
            return Verdict(False, (a.members,))
    return Verdict(True)


def is_nilpotent_ideal(ring, mask: int) -> tuple[bool, int]:
    """Whether repeated self-products of an additively closed set reach zero.

    Returns (answer, exponent): the first power that collapses to {0}, or
    the stabilized step count when it never does.
    """
    zero_mask = 1 << ring.zero
    seen = []
    current = mask
    power = 1
    while True:
        if current == zero_mask:
            return True, power
        if current in seen:
            return False, power
        seen.append(current)
        current = ideal_product_mask(ring, current, mask)
        power += 1


def nilpotent_radical(ring) -> int:
    """Span of the nilpotent two-sided principal ideals, as a mask.

    In a finite ring the prime radical is the largest nilpotent ideal, and a
    sum of nilpotent ideals is nilpotent, so this is the prime radical,
    found without a single prime ideal. The principal ideals come from the
    span route above.
    """
    union = 1 << ring.zero
    for mask in set(span_principal_masks(ring, "two")):
        if is_nilpotent_ideal(ring, mask)[0]:
            union |= mask
    return ring.addgroup.span_mask(indices_of(union, ring.order))
