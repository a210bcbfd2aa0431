from __future__ import annotations

import pytest

from moritactx import (
    CapacityError,
    Ideal,
    battery_names,
    build_context_ring,
    builtin_context,
    NotAnIdealError,
    NotProperError,
    check_ideal,
    confirm_prime_witness,
    enumerate_ideals,
    is_prime_ideal,
    is_prime_ring,
    is_semiprime_ideal,
    is_semiprime_ring,
    make_zn,
    prime_radical,
    prime_spectrum,
    verify_ideal,
)

from naive import (
    confirm_semiprime_witness,
    ideal_product_mask,
    is_nilpotent_ideal,
    is_prime_ideal_pairwise,
    is_semiprime_ideal_pairwise,
    naive_ideals,
    naive_is_prime,
    naive_is_semiprime,
    naive_prime_radical,
    members_of,
    nilpotent_radical,
    principal_ideal,
)


@pytest.mark.parametrize("n,count", [(4, 3), (5, 2), (6, 4), (12, 6), (16, 5)])
def test_ideal_counts_of_zn(n, count):
    assert len(enumerate_ideals(make_zn(n))) == count


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 10, 12])
def test_enumeration_equals_subset_filter(n):
    """The join-of-principals lattice walk against the 2^k filter."""
    ring = make_zn(n)
    got = {frozenset(members_of(c.members, n)) for c in enumerate_ideals(ring)}
    assert got == naive_ideals(ring, "two")


def test_enumeration_is_sorted_by_size(z12):
    sizes = [c.size for c in enumerate_ideals(z12)]
    assert sizes == sorted(sizes)


def test_check_ideal_verdicts(z6):
    assert check_ideal(z6, 0b010101, "two").holds
    bad = check_ideal(z6, 0b000011, "two")
    assert not bad.holds and bad.witness is not None
    with pytest.raises(NotAnIdealError):
        verify_ideal(z6, 0b000011, "two")


def test_verify_ideal_refuses_a_left_ideal_labelled_right():
    # The prime and semiprime scans take an Ideal's mask to absorb on the
    # sides it names; verify_ideal is the check for a hand-built one. In
    # T(full:2) ≅ M2(Z2), 3 of the 5 left ideals are not right ideals.
    ring = build_context_ring(builtin_context("full:2").context)
    right = {i.members for i in enumerate_ideals(ring, "right")}
    only_left = [i.members for i in enumerate_ideals(ring, "left") if i.members not in right]
    assert len(only_left) == 3
    for mask in only_left:
        assert verify_ideal(ring, mask, "left").members == mask
        with pytest.raises(NotAnIdealError, match="is not a right-sided ideal"):
            verify_ideal(ring, mask, "right")


def test_principal_ideal_of_two_in_z8(z8):
    ideal = principal_ideal(z8, 2)
    assert ideal.members == 0b01010101


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12])
def test_prime_agrees_with_naive(n):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        if not ideal.is_proper():
            continue
        expected = naive_is_prime(ring, members_of(ideal.members, n))
        assert is_prime_ideal(ideal).holds == expected, (n, bin(ideal.members))


@pytest.mark.parametrize("name", [name for name in battery_names()
                                  if builtin_context(name).context.order <= 81])
def test_one_sided_prime_agrees_with_naive(name):
    # Elementwise primeness (a*T*b inside forces a or b inside) needs only an
    # additively closed target, so it decides left and right ideals too:
    # check 2.3 and example 2.4 read it on one-sided ideals of T.
    ring = build_context_ring(builtin_context(name).context)
    for side in ("left", "right"):
        for ideal in enumerate_ideals(ring, side)[:-1]:            # the proper ones
            expected = naive_is_prime(ring, members_of(ideal.members, ring.order))
            assert is_prime_ideal(ideal).holds == expected, (name, side, str(ideal))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12])
def test_semiprime_agrees_with_naive(n):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        if not ideal.is_proper():
            continue
        expected = naive_is_semiprime(ring, members_of(ideal.members, n))
        assert is_semiprime_ideal(ideal).holds == expected, (n, bin(ideal.members))


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_elementwise_equals_pairwise(n):
    """Products of elements and products of ideals answer the same question."""
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        if not ideal.is_proper():
            continue
        assert is_prime_ideal(ideal).holds == is_prime_ideal_pairwise(ideal).holds
        assert is_semiprime_ideal(ideal).holds == is_semiprime_ideal_pairwise(ideal).holds


def test_improper_input_raises(z4):
    full = Ideal(z4, 0b1111, "two")
    with pytest.raises(NotProperError):
        is_prime_ideal(full)
    with pytest.raises(NotProperError):
        is_semiprime_ideal(full)


def test_prime_witnesses_confirm(z8):
    zero = Ideal(z8, 0b00000001, "two")
    verdict = is_prime_ideal(zero)
    assert not verdict.holds
    a, b = verdict.witness
    assert confirm_prime_witness(z8, zero.members, a, b)
    semi = is_semiprime_ideal(zero)
    assert not semi.holds
    assert confirm_semiprime_witness(z8, zero.members, semi.witness)


def test_witnesses_are_lex_first(z4):
    # zero ideal of Z4: scanning pairs in index order lands on a = b = 2
    verdict = is_prime_ideal(Ideal(z4, 0b0001, "two"))
    assert verdict.witness == (2, 2)
    assert is_semiprime_ideal(Ideal(z4, 0b0001, "two")).witness == 2


def test_ideal_product_mask(z8):
    four = principal_ideal(z8, 4).members
    two = principal_ideal(z8, 2).members
    assert ideal_product_mask(z8, two, two) == 0b00010001  # (2Z8)^2 = 4Z8
    assert ideal_product_mask(z8, four, four) == 0b00000001


@pytest.mark.parametrize("n,expected", [(4, [0, 2]), (6, [0]), (12, [0, 6]), (8, [0, 2, 4, 6])])
def test_prime_radical_values(n, expected):
    ring = make_zn(n)
    radical = prime_radical(ring)
    assert members_of(radical.members, n) == expected
    assert frozenset(expected) == naive_prime_radical(ring)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 10, 12])
def test_radical_agrees_with_naive(n):
    ring = make_zn(n)
    assert frozenset(members_of(prime_radical(ring).members, n)) == naive_prime_radical(ring)


def test_spectrum_of_z12(z12):
    spec = prime_spectrum(z12)
    got = {frozenset(members_of(p.members, 12)) for p in spec}
    assert got == {frozenset(range(0, 12, 2)), frozenset(range(0, 12, 3))}


def test_prime_and_semiprime_ring_flags():
    assert is_prime_ring(make_zn(5)).holds
    assert not is_prime_ring(make_zn(6)).holds
    assert is_semiprime_ring(make_zn(6)).holds
    assert not is_semiprime_ring(make_zn(4)).holds


def test_nilpotency_of_radical_members(z8):
    nil, exponent = is_nilpotent_ideal(z8, prime_radical(z8).members)
    assert nil and exponent >= 1
    not_nil, _ = is_nilpotent_ideal(z8, 0b11111111)
    assert not not_nil


def test_prime_implies_semiprime():
    for n in (4, 6, 8, 9, 12):
        ring = make_zn(n)
        for ideal in enumerate_ideals(ring):
            if ideal.is_proper() and is_prime_ideal(ideal).holds:
                assert is_semiprime_ideal(ideal).holds


def test_lattice_cap_counts_the_principal_ideals(z6):
    # Z6 has 4 ideals, all principal: no join adds a new one.
    assert len(enumerate_ideals(z6, "two", cap=4)) == 4
    with pytest.raises(CapacityError, match="two-sided ideal lattice of Z6 exceeds cap 3"):
        enumerate_ideals(z6, "two", cap=3)


@pytest.mark.parametrize("name", battery_names())
def test_prime_radical_is_the_span_of_the_nilpotent_principal_ideals(name):
    # The radical of a finite ring is its largest nilpotent ideal: an
    # oracle that never looks at a prime ideal.
    ring = build_context_ring(builtin_context(name).context)
    assert prime_radical(ring).members == nilpotent_radical(ring)
