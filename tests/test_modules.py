from __future__ import annotations

import itertools

import numpy as np
import pytest

from moritactx import (
    Bimodule,
    CapacityError,
    MalformedTableError,
    ModuleView,
    NotASubmoduleError,
    WellDefinednessError,
    build_context_ring,
    check_ideal,
    enumerate_submodules,
    is_prime_submodule,
    confirm_prime_submodule_witness,
    make_zn,
    quotient_module,
    quotient_ring,
    residue_bimodule,
    ring_bimodule,
    subset_bimodule,
    validate_bimodule,
    verify_submodule,
    zero_bimodule,
)
import moritactx.modules
from moritactx.catalog import battery_names, builtin_context, builtin_document
from moritactx.context import _pair_views
from moritactx.mctx import load_mctx
from moritactx.spans import cyclic_masks

from naive import (annihilator, members_of, naive_is_prime_submodule, naive_submodules,
                   quotient_view)


def test_ring_bimodule_satisfies_the_laws(z6):
    mod = ring_bimodule(z6)
    assert mod.order == 6
    assert validate_bimodule(mod).ok
    assert mod.left_ring is z6 and mod.right_ring is z6


def test_subset_bimodule_of_even_residues(z6):
    mod = subset_bimodule(z6, 0b010101)  # {0, 2, 4}
    assert mod.order == 3
    assert validate_bimodule(mod).ok
    assert [mod.label(i) for i in range(3)] == ["0", "2", "4"]


def test_subset_bimodule_rejections(z6):
    # the same wording as verify_submodule's, from the same check_closed witness
    with pytest.raises(NotASubmoduleError, match="^submodule must contain zero$"):
        subset_bimodule(z6, 0b000110)  # no zero
    with pytest.raises(NotASubmoduleError, match="^subset is not closed under addition$"):
        subset_bimodule(z6, 0b000011)  # {0,1} not additively closed
    ctx = builtin_context("full:2").context
    corner = 1 << ctx.encode(0, 0, 0, 0) | 1 << ctx.encode(1, 0, 0, 0)   # the r slot alone
    with pytest.raises(NotASubmoduleError,
                       match="^subset is not stable under the left ring action$"):
        subset_bimodule(build_context_ring(ctx), corner)


def test_residue_bimodule_reduces_labels(z6):
    mod = residue_bimodule(3, z6, z6)
    assert mod.order == 3
    assert validate_bimodule(mod).ok
    # the action is reduction mod 3: 4 . 2 = 8 = 2 (mod 3)
    assert mod.left_act[4, 2] == 2


def test_residue_bimodule_bad_divisor(z6):
    with pytest.raises(MalformedTableError):
        residue_bimodule(0, z6, z6)


@pytest.mark.parametrize("zero", [-3, 3])
def test_bimodule_rejects_a_zero_index_out_of_range(z2, zero):
    z3 = np.arange(9).reshape(3, 3) % 3
    with pytest.raises(MalformedTableError, match="zero index out of range for order 3"):
        Bimodule(z3, zero, z2, np.zeros((2, 3), int), z2, np.zeros((3, 2), int))


def test_right_action_entries_are_checked_against_the_module_order(z2, z4):
    # right_act is (module, ring) shaped but holds module elements
    z3 = np.arange(9).reshape(3, 3) % 3
    mod = Bimodule(z3, 0, z2, np.zeros((2, 3), int), z2, [[0, 0], [1, 0], [2, 0]])
    assert mod.right_act[2, 0] == 2
    z2_add = np.arange(4).reshape(2, 2) % 2
    with pytest.raises(MalformedTableError, match="right action: entry 3 at"):
        Bimodule(z2_add, 0, z2, np.zeros((2, 2), int), z4, np.full((2, 4), 3))


@pytest.mark.parametrize("zero", [-3, 3])
def test_module_view_rejects_a_zero_index_out_of_range(zero):
    z3 = make_zn(3)
    with pytest.raises(MalformedTableError, match="zero index out of range for order 3"):
        ModuleView(z3, "left", z3.add, z3.mul, zero)


def test_bimodule_laws_run_once_per_carrier(monkeypatch):
    # The residue carrier of tri:12,8 is validated when it is made; the
    # context's validation reuses that verdict instead of checking again.
    # Each carrier's own group laws open its check (the acting rings' are
    # checked inside ``ring_generators``, not through this name).
    orders = []
    real = moritactx.modules.group_generators
    monkeypatch.setattr(moritactx.modules, "group_generators",
                        lambda group: orders.append(group.order) or real(group))
    ctx = load_mctx(builtin_document("tri:12,8")).context
    assert orders == [4, 1]                      # V = Z4 residue, W = zero
    ctx.mod_v.name = "renamed"
    report = validate_bimodule(ctx.mod_v)
    assert orders == [4, 1] and str(report) == "bimodule renamed: ok"


def test_zero_bimodule_is_a_point(z4, z6):
    mod = zero_bimodule(z4, z6)
    assert mod.order == 1
    assert validate_bimodule(mod).ok
    assert mod.left_ring is z4 and mod.right_ring is z6


def test_view_submodule_enumeration_matches_naive(z12):
    mod = ring_bimodule(z12)
    got = {frozenset(i for i in range(12) if sub.members >> i & 1)
           for sub in enumerate_submodules(mod, "left")}
    assert got == naive_submodules(mod, "left")


def test_enumerate_submodules_bi(z6):
    mod = ring_bimodule(z6)
    subs = enumerate_submodules(mod, "bi")
    # submodules of Z6 over itself = ideals of Z6: {0}, 2Z6, 3Z6, Z6
    assert len(subs) == 4
    assert sorted(s.size for s in subs) == [1, 2, 3, 6]


def test_verify_submodule_roundtrip(z6):
    mod = ring_bimodule(z6)
    sub = verify_submodule(mod, 0b010101, "bi")
    assert sub.size == 3 and sub.is_proper()
    with pytest.raises(NotASubmoduleError):
        verify_submodule(mod, 0b000011, "bi")


def test_cyclic_submodule_of_two_in_z8(z8):
    assert cyclic_masks(ring_bimodule(z8), "left")[2] == 0b01010101  # {0,2,4,6}


def test_prime_submodule_agrees_with_naive_on_z8(z8):
    mod = ring_bimodule(z8)
    for mask in (sub.members for sub in enumerate_submodules(mod, "left")):
        if mask == (1 << 8) - 1:
            continue
        members = [i for i in range(8) if mask >> i & 1]
        assert (is_prime_submodule(mod, mask, "left").holds
                == naive_is_prime_submodule(mod, members, "left"))


def test_prime_submodule_agrees_with_naive_on_right_views(z12):
    mod = ring_bimodule(z12)
    for mask in (sub.members for sub in enumerate_submodules(mod, "right")):
        if mask == (1 << 12) - 1:
            continue
        members = [i for i in range(12) if mask >> i & 1]
        assert (is_prime_submodule(mod, mask, "right").holds
                == naive_is_prime_submodule(mod, members, "right"))


def test_prime_submodule_witness_confirms(z8):
    mod = ring_bimodule(z8)
    verdict = is_prime_submodule(mod, verify_submodule(mod, 0b00010001, "left"), "left")  # {0,4}
    assert not verdict.holds
    r, x = verdict.witness
    assert confirm_prime_submodule_witness(mod, 0b00010001, "left", r, x)


@pytest.mark.parametrize("name", battery_names())
def test_prime_submodule_agrees_with_naive_on_each_side_of_the_carriers(name):
    # Every proper one-sided submodule of V and W, on both sides: the verdict
    # against the definition chase over the stored tables, and each witness
    # confirmed directly.
    ctx = builtin_context(name).context
    for mod, side in itertools.product((ctx.mod_v, ctx.mod_w), ("left", "right")):
        for sub in enumerate_submodules(mod, side)[:-1]:           # the proper ones
            verdict = is_prime_submodule(mod, sub, side)
            assert verdict.holds == naive_is_prime_submodule(
                mod, members_of(sub.members, mod.order), side), (name, mod.name, side, str(sub))
            assert verdict.holds or confirm_prime_submodule_witness(mod, sub, side,
                                                                    *verdict.witness)


@pytest.mark.parametrize("side", ("left", "right"))
def test_a_block_view_has_no_action_on_the_other_side(side):
    # A block view acts from its ideal's side only; every module kernel
    # refuses the other one with the same ValueError.
    other = "right" if side == "left" else "left"
    for view in _pair_views(builtin_context("paper:ex2.4").context, side):
        zero = 1 << view.zero
        texts = set()
        for call in (lambda: is_prime_submodule(view, zero, other),
                     lambda: confirm_prime_submodule_witness(view, zero, other, 0, 0),
                     lambda: verify_submodule(view, zero, other),
                     lambda: cyclic_masks(view, other)):
            with pytest.raises(ValueError) as info:
                call()
            texts.add(str(info.value))
        assert texts == {f"{view!r} has no {other} action"}


def test_annihilator_of_residue_carrier(z6):
    mod = residue_bimodule(3, z6, z6)
    ann = annihilator(mod, "left")
    assert check_ideal(z6, ann.members, "two").holds
    assert ann.members == 0b001001  # multiples of 3 kill Z3


def test_quotient_view_collapses_submodule(z8):
    quot, proj = quotient_view(ring_bimodule(z8), 0b00010001, "left")  # mod out {0,4}
    assert quot.order == 4
    for x in range(8):
        assert proj[x] == proj[(x + 4) % 8]


def test_quotient_module_keeps_both_actions(z6):
    mod = ring_bimodule(z6)
    quot, proj = quotient_module(mod, 0b001001)  # collapse {0,3}
    assert quot.order == 3
    assert validate_bimodule(quot).ok


def test_quotient_module_refuses_an_action_not_constant_on_ring_classes(z6):
    # Z6 over itself modulo {0} with the acting ring taken mod 3: 0 and 3 are
    # one class of Z6/3Z6 but send 1 to different elements.
    with pytest.raises(WellDefinednessError) as info:
        quotient_module(ring_bimodule(z6), 0b1, left=quotient_ring(z6, 0b001001))
    assert str(info.value) == ("induced action is not well defined: ring elements 0 and 3 "
                               "map to the same class but act differently on coset 1")


def test_lattice_cap_counts_the_cyclic_submodules():
    # Z6 over itself has 4 submodules on each side, all cyclic.
    mod = builtin_context("full:6").context.mod_v
    with pytest.raises(CapacityError, match="bisubmodule of Z6 lattice exceeds cap 3"):
        enumerate_submodules(mod, "bi", cap=3)
    with pytest.raises(CapacityError, match=r"submodule \(left\) of Z6 lattice exceeds cap 3"):
        enumerate_submodules(mod, "left", cap=3)
    assert len(enumerate_submodules(mod, "left", cap=4)) == 4
