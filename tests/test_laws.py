"""Cross-cutting algebraic invariants, swept over the builtin catalog."""

from __future__ import annotations

import pytest

from moritactx import (
    build_context_ring,
    check_ideal,
    check_prime_quadruple,
    check_semiprime_quadruple,
    context_prime_radical,
    enumerate_context_ideals,
    enumerate_ideals,
    enumerate_submodules,
    is_prime_submodule,
    is_semiprime_ring,
    is_surjective_context,
    make_zn,
    prime_radical,
    quotient_context,
    quotient_ring,
    ring_bimodule,
    validate_context,
    run_check,
)
from moritactx.bitsets import bool_array, is_subset
from moritactx.catalog import battery_names, builtin_context
from moritactx.context import _pair_views
from naive import annihilator, is_nilpotent_ideal, members_of, naive_is_prime, quotient_view

SMALL = ("full:2", "full:3", "full:4", "tri:4,2", "zero:2,2", "zero:2,4",
         "paper:ex2.8", "paper:ex2.12")


@pytest.mark.parametrize("name", battery_names())
def test_every_builtin_resolves_and_validates(name):
    res = builtin_context(name)
    assert validate_context(res.context).ok
    build_context_ring(res.context)


def test_surjective_members_are_exactly_the_spanning_ones():
    assert [name for name in battery_names()
            if is_surjective_context(builtin_context(name).context)] == [
        "full:2", "full:3", "full:4", "full:5", "full:6",
        "ks:6:1", "ks:6:5", "paper:ex2.4",
    ]


@pytest.mark.parametrize("name", SMALL)
def test_prime_quadruples_are_semiprime(name):
    ctx = builtin_context(name).context
    for quad in enumerate_context_ideals(ctx):
        if not quad.is_proper():
            continue
        if check_prime_quadruple(ctx, quad).holds:
            assert check_semiprime_quadruple(ctx, quad).holds


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_nilpotent_ideals_lie_in_the_radical(n):
    ring = make_zn(n)
    radical = prime_radical(ring)
    for ideal in enumerate_ideals(ring):
        nil, _ = is_nilpotent_ideal(ring, ideal.members)
        if nil:
            assert is_subset(ideal.members, radical.members)


def test_nilpotent_quadruples_lie_in_the_radical():
    ctx = builtin_context("paper:ex2.12").context
    ring = build_context_ring(ctx)
    radical = context_prime_radical(ctx).member_mask()
    for quad in enumerate_context_ideals(ctx):
        nil, _ = is_nilpotent_ideal(ring, quad.member_mask())
        if nil:
            assert is_subset(quad.member_mask(), radical)


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_ring_mod_radical_is_semiprime(n):
    ring = make_zn(n)
    quot, _ = quotient_ring(ring, prime_radical(ring))
    assert is_semiprime_ring(quot).holds


@pytest.mark.parametrize("name", ["full:4", "paper:ex2.12", "zero:2,4", "tri:4,2"])
def test_quotient_context_has_zero_radical(name):
    ctx = builtin_context(name).context
    quotient = quotient_context(ctx).context
    assert validate_context(quotient).ok
    assert context_prime_radical(quotient).size == 1


def _side_carriers(source, side: str) -> list:
    """Z_n over itself, or a battery context's carriers with an action on
    one side: V, W and the two coordinate blocks."""
    if isinstance(source, int):
        return [ring_bimodule(make_zn(source))]
    ctx = builtin_context(source).context
    return [ctx.mod_v, ctx.mod_w, *_pair_views(ctx, side)]


@pytest.mark.parametrize("n", [4, 6, 8, 12, *battery_names()])
@pytest.mark.parametrize("side", ["left", "right"])
def test_prime_submodule_gives_prime_annihilator(n, side):
    # (N : M) = ann(M/N) is prime for a prime submodule N of M (Dauns 1978),
    # decided by definition chase, not by the prime_pair scan under test.
    decided: dict[tuple, bool] = {}
    hits = 0
    for carrier in _side_carriers(n, side):
        ring, act = carrier.action(side)
        for sub in enumerate_submodules(carrier, side)[:-1]:       # the proper ones
            if not is_prime_submodule(carrier, sub, side):
                continue
            quot, _ = quotient_view(carrier, sub.members, side)
            ann = annihilator(quot, side)
            inside = bool_array(sub.members, carrier.order)
            assert ann.members == sum(1 << r for r in range(ring.order)
                                      if inside[act[r]].all()), (carrier, str(sub))
            assert check_ideal(ann.ring, ann.members, "two").holds
            assert ann.is_proper()
            key = (id(ann.ring), ann.members)
            if key not in decided:
                decided[key] = naive_is_prime(ann.ring, members_of(ann.members, ann.ring.order))
            assert decided[key], (carrier, side, str(sub), str(ann))
            hits += 1
    assert hits > 0  # the sweep must actually exercise something


@pytest.mark.parametrize("token", ["2.1", "2.7", "2.11"])
@pytest.mark.parametrize("name", SMALL)
def test_statement_checks_pass_on_small_members(token, name):
    result = run_check(token, builtin_context(name))
    assert result.passed, result.lines
