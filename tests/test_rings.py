from __future__ import annotations

import itertools

import numpy as np
import pytest

from moritactx import (
    FiniteRing,
    InvalidOrderError,
    MalformedTableError,
    ValidationFailedError,
    Violation,
    build_context_ring,
    make_zn,
    quotient_context,
    quotient_ring,
    ring_from_tables,
    subset_bimodule,
    validate_ring,
    verify_ring_map,
)


def test_zn_tables_are_modular_arithmetic(z6):
    for a in range(6):
        for b in range(6):
            assert z6.add[a, b] == (a + b) % 6
            assert z6.mul[a, b] == (a * b) % 6
    assert z6.zero == 0 and z6.one == 1
    assert z6.name == "Z6"


def test_zn_rejects_tiny_orders():
    with pytest.raises(InvalidOrderError):
        make_zn(1)
    with pytest.raises(InvalidOrderError):
        make_zn(0)


def test_validate_ring_accepts_zn(z8):
    report = validate_ring(z8.add, z8.mul)
    assert report.ok, report.lines()


def test_validate_ring_names_a_broken_column_of_a_given_zero():
    # Row 0 of this Z3 addition is still the identity row; column 0 is not.
    z3 = make_zn(3)
    add = np.array(z3.add)
    add[2, 0] = 1
    report = validate_ring(add, z3.mul, zero=0, one=1)
    assert report.violations[0] == Violation("additive-identity", (0, 2))
    add[0, 1] = 2                                # with the row broken too, the row is named
    report = validate_ring(add, z3.mul, zero=0, one=1)
    assert report.violations[0] == Violation("additive-identity", (0, 1))


@pytest.mark.parametrize("given", [{"zero": -3}, {"zero": 3}, {"one": -1}, {"one": 3}])
def test_validate_ring_rejects_identity_indices_out_of_range(given):
    z3 = make_zn(3)
    with pytest.raises(MalformedTableError, match="zero/one indices out of range for order 3"):
        validate_ring(z3.add, z3.mul, **given)


def test_validate_ring_flags_broken_distributivity():
    add = np.array([[0, 1], [1, 0]])
    mul = np.array([[0, 1], [1, 1]])  # "identity" comes out as 0, distributivity breaks
    report = validate_ring(add, mul)
    assert not report.ok
    assert any("distributivity" in v.law for v in report.violations)
from moritactx.bitsets import indices_of
from moritactx.catalog import battery_names, builtin_context
from moritactx.validation import as_table

from naive import full_scan_verify_ring_map, principal_ideal


def test_ring_from_tables_round_trip(z4):
    again = ring_from_tables(z4.add, z4.mul, name="copy")
    assert again.order == 4
    assert again.zero == z4.zero and again.one == z4.one
    assert (again.mul == z4.mul).all()


def test_ring_from_tables_rejects_garbage():
    with pytest.raises(MalformedTableError):
        ring_from_tables([[0, 1], [1, 0]], [[0, 0], [0]])
    with pytest.raises(ValidationFailedError):
        ring_from_tables([[0, 1], [1, 0]], [[1, 1], [1, 1]])


@pytest.mark.parametrize("dtype", [np.int32, np.uint8])
def test_as_table_range_checks_an_integer_array_in_its_own_dtype(dtype):
    arr = np.array([[0, 1, 2], [2, 7, 0]], dtype=dtype)
    message = r"^t: entry 7 at \(1, 1\) outside 0\.\.2$"
    with pytest.raises(MalformedTableError, match=message):
        as_table(arr, 2, 3, "t")
    with pytest.raises(MalformedTableError, match=message):
        as_table(arr.tolist(), 2, 3, "t")
    with pytest.raises(MalformedTableError, match=r"^t: entry 2 at \(0, 2\) outside 0\.\.1$"):
        as_table(arr, 2, 3, "t", limit=2)
    if dtype is np.int32:
        arr[0, 1] = -1
        with pytest.raises(MalformedTableError, match=r"^t: entry -1 at \(0, 1\) outside 0\.\.6$"):
            as_table(arr, 2, 3, "t", limit=7)
    with pytest.raises(MalformedTableError, match=r"^t: expected 3 rows, got 2$"):
        as_table(arr, 3, 3, "t", limit=8)


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint16, np.int64])
def test_as_table_returns_a_read_only_int32_copy(dtype):
    arr = np.array([[0, 1], [1, 0]], dtype=dtype)
    out = as_table(arr, 2, 2, "t")
    assert out.dtype == np.int32 and not out.flags.writeable
    assert arr.flags.writeable
    arr[0, 0] = 1
    assert out[0, 0] == 0


def test_as_table_takes_a_read_only_int32_array_as_is():
    arr = np.array([[0, 1], [1, 0]], dtype=np.int32)
    arr.setflags(write=False)
    assert as_table(arr, 2, 2, "t") is arr
    with pytest.raises(MalformedTableError, match=r"^t: entry 1 at \(0, 1\) outside 0\.\.0$"):
        as_table(arr, 2, 2, "t", limit=1)


def test_as_table_takes_a_read_only_uint16_array_as_is():
    # The dtype the package builds its own index tables in up to order 65 536.
    arr = np.array([[0, 1], [1, 0]], dtype=np.uint16)
    arr.setflags(write=False)
    assert as_table(arr, 2, 2, "t") is arr
    with pytest.raises(MalformedTableError, match=r"^t: entry 1 at \(0, 1\) outside 0\.\.0$"):
        as_table(arr, 2, 2, "t", limit=1)


def test_as_table_rejects_ragged_lists():
    with pytest.raises(MalformedTableError, match=r"^t: ragged or non-integer table$"):
        as_table([[0, 1], [1]], 2, 2, "t")


def test_labels_and_format_subset(z4, z6):
    assert [z4.label(i) for i in range(4)] == ["0", "1", "2", "3"]
    assert z4.format_subset(0b0101) == "{0, 2}"
    # A subset bimodule labels like the ring it sits in.
    mod = subset_bimodule(z6, 0b010101)
    assert mod.labels == ("0", "2", "4")
    members = indices_of(0b010101, 6)
    for mask in range(1, 1 << mod.order):
        ambient = sum(1 << int(members[i]) for i in range(mod.order) if mask >> i & 1)
        shown = z6.format_subset(ambient)
        assert mod.format_subset(mask) == shown


def test_quotient_of_z8_by_4z8_is_z4(z8):
    ideal = principal_ideal(z8, 4)
    quot, proj = quotient_ring(z8, ideal)
    assert quot.order == 4
    assert verify_ring_map(z8, quot, proj).holds
    report = validate_ring(quot.add, quot.mul)
    assert report.ok
    # cosets of {0,4}: the projection identifies a and a+4
    for a in range(8):
        assert proj[a] == proj[(a + 4) % 8]


def test_quotient_by_whole_ring_is_rejected(z4):
    # rings here are unital with 0 != 1, so the one-point quotient is out
    ideal = principal_ideal(z4, 1)
    with pytest.raises(InvalidOrderError):
        quotient_ring(z4, ideal)


def test_ring_map_identity_verifies(z6):
    assert verify_ring_map(z6, z6, range(6)).holds


def test_ring_map_swapping_units_of_z4_is_not_a_homomorphism(z4):
    # x -> 3x on Z4 swaps 1 and 3: additive, yes, but it moves the identity
    verdict = verify_ring_map(z4, z4, (0, 3, 2, 1))
    assert not verdict.holds
    assert verdict.witness == ("one",)


def test_ring_map_rejects_bad_image(z4):
    with pytest.raises(MalformedTableError, match=r"^map image has 3 entries for a source of order 4$"):
        verify_ring_map(z4, z4, (0, 1, 2))
    with pytest.raises(MalformedTableError, match=r"^map image value 9 out of range$"):
        verify_ring_map(z4, z4, (0, 1, 2, 9))
    with pytest.raises(MalformedTableError, match=r"^map image value -1 out of range$"):
        verify_ring_map(z4, z4, (0, 1, -1, 1))


def test_projection_onto_a_smaller_ring_is_a_ring_map(z4, z2):
    assert verify_ring_map(z4, z2, (0, 1, 0, 1)).holds


@pytest.mark.parametrize("n, m", [(4, 2), (4, 4), (6, 3)])
def test_ring_map_matches_the_full_scan_on_every_map(n, m):
    source, target = make_zn(n), make_zn(m)
    for image in itertools.product(range(m), repeat=n):
        assert (verify_ring_map(source, target, image)
                == full_scan_verify_ring_map(source, target, image)), image


@pytest.mark.parametrize("name", battery_names())
def test_ring_map_matches_the_full_scan_on_battery_projections(name):
    ctx = builtin_context(name).context
    qres = quotient_context(ctx)
    for ring, proj, quot in ((ctx.ring_r, qres.proj_r, qres.context.ring_r),
                             (ctx.ring_s, qres.proj_s, qres.context.ring_s)):
        assert verify_ring_map(ring, quot, proj) == full_scan_verify_ring_map(ring, quot, proj)
        assert verify_ring_map(ring, quot, proj).holds
    ring = build_context_ring(ctx)
    if ring.order <= 256:
        # The identity onto the opposite ring is additive and unital, and
        # multiplicative only where T is commutative.
        opposite = FiniteRing(ring.add, ring.mul.T, ring.zero, ring.one)
        ident = np.arange(ring.order)
        assert (verify_ring_map(ring, opposite, ident)
                == full_scan_verify_ring_map(ring, opposite, ident))
