"""Generator-width validation against the full-scan oracle.

The bimodule and context validators decide at generator width and scan
every law in full only when that fails. ``tests/naive.py`` keeps the full
scans as validators of their own; here both must give the same report
text (``validate_ring`` always scans in full, so it is its own oracle):

* on the mutation corpus of ``tests/test_validation_golden.py`` (one
  corrupted entry per table: rings, bimodules, both pairings) on two
  contexts of the ``slot-large`` benchmark's scale. ``tri:240,180``'s W is
  the trivial carrier, which has no generators at all;
* on a module whose zero row or column is corrupted, where the greedy
  generating loop would never end, so the group laws must fail before it
  runs;
* on a module whose + is a commutative loop but not a group, which only
  Light's associativity test refuses, and on tables that fail one law
  alone: a non-additive action, or additive unital actions or biadditive
  pairings that do not associate;
* on rings built without validation whose multiplication does not
  distribute. A generator-width check over such a ring would miss every
  failure off its generators.
"""

from __future__ import annotations

import numpy as np
import pytest

from moritactx import (Bimodule, FiniteRing, MoritaContext, make_zn, ring_bimodule,
                       validate_bimodule, validate_context, validate_ring, zero_bimodule)
from naive import full_scan_validate_bimodule, full_scan_validate_context
from test_validation_golden import context_cases

ORACLE = (validate_ring, full_scan_validate_bimodule, full_scan_validate_context)


@pytest.mark.parametrize("name", ["full:60", "tri:240,180"])
def test_corpus_reports_match_the_full_scan_oracle(name):
    assert context_cases(name, ORACLE) == context_cases(name)


@pytest.mark.parametrize("at", [(0, 5), (5, 0)])
def test_a_corrupted_zero_row_or_column_is_reported(at):
    z60 = make_zn(60)
    add = np.array(z60.add)
    add[at] = 7
    mod = Bimodule(add, 0, z60, z60.mul, z60, z60.mul, name="Z60")
    report = validate_bimodule(mod)
    assert not report.ok and str(report) == str(full_scan_validate_bimodule(mod))


def test_a_module_whose_sum_is_a_loop_matches_the_oracle():
    # The Steiner loop of the affine plane over Z3: 0 is the identity,
    # x + x = 0, and x + y is the third point on the line through x and y.
    # It is commutative with inverses but not associative, and Z2 acts on it
    # by every law but that one, so only Light's test can refuse it.
    points = [(a, b) for a in range(3) for b in range(3)]
    add = np.zeros((10, 10), dtype=int)
    add[0] = add[:, 0] = np.arange(10)
    for i, p in enumerate(points, 1):
        for j, q in enumerate(points, 1):
            third = ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)
            add[i, j] = 0 if i == j else points.index(third) + 1
    z2, act = make_zn(2), np.array([np.zeros(10, dtype=int), np.arange(10)])
    mod = Bimodule(add, 0, z2, act, z2, act.T, name="loop")
    report = validate_bimodule(mod)
    assert not report.ok and str(report) == str(full_scan_validate_bimodule(mod))


def _by_matrices(images) -> np.ndarray:
    """Action table of Z2×Z2 (index 2a + b) on Z2² (index 2x + y): (a, b)
    acts as a·E + b·F, for ``images`` = (E, F), 2×2 matrices over Z2."""
    e, f = (np.array(m) for m in images)
    vectors = np.array([(x, y) for x in range(2) for y in range(2)])
    return np.array([[int((2, 1) @ ((a * e + b * f) @ v % 2)) for v in vectors]
                     for a in range(2) for b in range(2)])


ONE, NIL, DIAG, SKEW = ([[1, 0], [0, 1]], [[0, 0], [0, 0]]), \
    ([[0, 1], [0, 0]], [[1, 1], [0, 1]]), ([[1, 0], [0, 0]], [[0, 0], [0, 1]]), \
    ([[1, 1], [0, 0]], [[0, 1], [0, 1]])


@pytest.mark.parametrize("left, right, law", [
    (NIL, ONE, "left-associative"),         # the nilpotent E is not idempotent
    (ONE, NIL, "right-associative"),
    (DIAG, SKEW, "actions-commute"),        # two idempotent pairs that do not commute
])
def test_additive_unital_actions_match_the_oracle(left, right, law):
    # Every action is additive in each argument and unital, so these laws
    # fail on generators and nothing else refuses them.
    xor = np.arange(4)[:, None] ^ np.arange(4)[None, :]
    z2z2 = FiniteRing(xor, np.arange(4)[:, None] & np.arange(4)[None, :], zero=0, one=3)
    mod = Bimodule(xor, 0, z2z2, _by_matrices(left), z2z2, _by_matrices(right).T, name="F2^2")
    report = validate_bimodule(mod)
    assert [v.law for v in report.violations] == [law]
    assert str(report) == str(full_scan_validate_bimodule(mod))


def test_a_non_additive_action_matches_the_oracle():
    # (1, 0) in Z2×Z2 fixes (1, 1) of Z2² and sends the rest to 0, (0, 1)
    # acts as the rest of the identity: unital, additive in the ring and
    # associative, but not additive in the module.
    xor = np.arange(4)[:, None] ^ np.arange(4)[None, :]
    z2z2 = FiniteRing(xor, np.arange(4)[:, None] & np.arange(4)[None, :], zero=0, one=3)
    z2 = make_zn(2)
    act = np.array([[0, 0, 0, 0], [0, 1, 2, 0], [0, 0, 0, 3], [0, 1, 2, 3]])
    mod = Bimodule(xor, 0, z2z2, act, z2, np.array([[0, x] for x in range(4)]), name="F2^2")
    report = validate_bimodule(mod)
    assert [v.law for v in report.violations] == ["left-additive-in-module"]
    assert str(report) == str(full_scan_validate_bimodule(mod))


def _broken_z4() -> FiniteRing:
    """Z4's tables with 2·2 = 2: unital, + a group, · not distributive."""
    z4 = make_zn(4)
    mul = np.array(z4.mul)
    mul[2, 2] = 2
    return FiniteRing(z4.add, mul, zero=0, one=1, name="Z4'")


def test_a_bimodule_over_a_non_distributive_ring_matches_the_oracle():
    # (2·2).x = 2.x but 2.(2.x) = 0: only a triple off the generator 1 fails.
    ring, z4 = _broken_z4(), make_zn(4)
    mod = Bimodule(z4.add, 0, ring, z4.mul, z4, z4.mul, name="Z4")
    report = validate_bimodule(mod)
    assert not report.ok and str(report) == str(full_scan_validate_bimodule(mod))


def test_pairings_over_a_non_distributive_ring_match_the_oracle():
    # V = W = Z2 with the broken Z4 acting through parity: both bimodules
    # hold. The pairing v·w = 2vw then breaks linearity only at r = 2.
    ring, z2 = _broken_z4(), make_zn(2)
    parity = np.arange(4)[:, None] % 2 * np.arange(2)[None, :]
    v = Bimodule(z2.add, 0, ring, parity, z2, z2.mul, name="V")
    w = Bimodule(z2.add, 0, z2, z2.mul, ring, parity.T, name="W")
    assert validate_bimodule(v).ok and validate_bimodule(w).ok
    ctx = MoritaContext(ring, z2, v, w, 2 * z2.mul, np.zeros((2, 2), int), name="broken")
    report = validate_context(ctx)
    assert not report.ok and str(report) == str(full_scan_validate_context(ctx))


def test_biadditive_pairings_that_do_not_associate_match_the_oracle():
    # v·w = 2vw and w·v = wv over Z5 are biadditive, linear and balanced, but
    # (vw)v' = 2vwv' and v(wv') = vwv' differ already on the generator 1.
    z5 = make_zn(5)
    ctx = MoritaContext(z5, z5, ring_bimodule(z5), ring_bimodule(z5), 2 * z5.mul % 5, z5.mul,
                        name="twisted")
    report = validate_context(ctx)
    assert [v.law for v in report.violations] == ["vwv-associative", "wvw-associative"]
    assert str(report) == str(full_scan_validate_context(ctx))


def test_a_pairing_on_trivial_carriers_must_send_zero_to_zero():
    z60 = make_zn(60)
    ctx = MoritaContext(z60, z60, zero_bimodule(z60, z60), zero_bimodule(z60, z60),
                        [[5]], [[0]], name="trivial")
    report = validate_context(ctx)
    assert not report.ok and str(report) == str(full_scan_validate_context(ctx))
