"""Brute-force oracles, written as plainly as possible.

Everything here quantifies over raw subsets or loops over all elements,
with none of the span/lattice machinery the package uses. Slow on
purpose — these exist so the fast paths have something independent to
disagree with.
"""

from __future__ import annotations

from itertools import combinations, product


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


def naive_is_submodule(view, members: list[int]) -> bool:
    if not naive_is_subgroup(view.add, view.zero, members):
        return False
    inside = set(members)
    return all(int(view.act[r, m]) in inside
               for r in range(view.ring.order) for m in members)


def naive_view_submodules(view) -> set[frozenset[int]]:
    found = set()
    rest = [i for i in range(view.order) if i != view.zero]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            members = [view.zero, *extra]
            if naive_is_submodule(view, members):
                found.add(frozenset(members))
    return found


def naive_is_prime_submodule(view, members: list[int]) -> bool:
    """Scalar-element primeness, chased without the generator shortcut.

    Left reading: r*(ring)*m landing inside forces r*(module) inside or m
    inside; the right reading mirrors the scalars. The library checks ring
    products only at additive generators — this loops over the whole ring.
    """
    inside = set(members)
    if len(inside) == view.order:
        return False
    for r in range(view.ring.order):
        # does r send the whole module inside? then r constrains nothing
        if all(int(view.act[r, m]) in inside for m in range(view.order)):
            continue
        for m in range(view.order):
            if m in inside:
                continue
            if all(int(view.act[int(view.ring.mul[r, t]) if view.side == "left"
                                else int(view.ring.mul[t, r]), m]) in inside
                   for t in range(view.ring.order)):
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
