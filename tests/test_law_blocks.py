"""The blocked law search against a row-at-a-time loop.

``validation.law_witness`` decides a block of rows per numpy call, as many
as fit in ``_BLOCK`` entries (one row when a row alone is wider). Its
answer must be the lex-first witness whatever the block size, so each test
here sets ``_BLOCK`` to sizes around a row's width W (1, 7, W − 1, W,
W + 1, 2W + 1) and around the whole cube, and compares with
``naive.row_witness``, which walks one row at a time:

* on random cubes with one violation planted in the last row of a block,
  one in the first row of the next, or both; and at n = 0 and n = 1;
* on every law shape the library scans: ``associative``,
  ``additive_first`` and ``additive_second`` against the naive row shapes;
  Light's test in ``group_generators`` and ``additive_on`` through the
  witness their search returns (and ``additive_on``, which checks
  generators but not the zero, against ``additive_first`` on random
  additive and one-entry-mutated ops over Z_n, Z_2 ⊕ Z_2 and Z_2 ⊕ Z_4, a
  trivial group still refusing 0·z != 0); the right-staged law and every
  other bimodule law through ``validate_bimodule``'s report, the pairing laws
  through ``validate_context``'s; and ``verify_ring_map`` on broken maps.

Setting ``_BLOCK`` only moves the block edges inside a test; the library
reads no setting for it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from naive import (full_scan_validate_bimodule, full_scan_validate_context,
                   full_scan_verify_ring_map, row_additive_first, row_additive_second,
                   row_associative, row_witness)

from moritactx import (Bimodule, MoritaContext, make_zn, ring_bimodule, validate_bimodule,
                       validate_context, verify_ring_map)
from moritactx import validation
from moritactx.spans import AddGroup
from moritactx.validation import (additive_first, additive_on, additive_second, associative,
                                  group_generators, law_witness)


def block_sizes(n: int, width: int) -> list[int]:
    """Block sizes around one row of ``width`` entries and around the cube."""
    sizes = {1, 7, width - 1, width, width + 1, 2 * width + 1,
             n * width - 1, n * width, n * width + 1}
    return sorted(s for s in sizes if s >= 1)


def _rows_per_block(block: int, width: int) -> int:
    return max(1, block // max(width, 1))


def _recording(table, calls):
    def side(rows):
        calls.append(len(range(table.shape[0])[rows]))
        return table[rows]
    return side


@pytest.mark.parametrize("shape", [(9, 3, 4), (13, 1, 5), (6, 5, 1), (40, 2, 3)])
@pytest.mark.parametrize("where", ["last", "next", "both"])
def test_a_violation_planted_at_a_block_edge_is_the_lex_first_witness(monkeypatch, shape,
                                                                      where):
    n, J, K = shape
    width = J * K
    rng = np.random.default_rng(n * 100 + J * 10 + K)
    left = rng.integers(0, 5, size=shape)
    for block in block_sizes(n, width):
        monkeypatch.setattr(validation, "_BLOCK", block)
        step = _rows_per_block(block, width)
        planted = {"last": [step - 1], "next": [step], "both": [step - 1, step]}[where]
        planted = [r for r in planted if r < n]
        right = left.copy()
        for r in planted:
            right[r, rng.integers(J), rng.integers(K)] += 1
            right[r, J - 1, K - 1] += 2           # a later entry of the same row
        calls: list[int] = []
        found = law_witness(shape, _recording(left, calls), _recording(right, []))
        assert found == row_witness(n, lambda i: left[i], lambda i: right[i])
        assert (found is None) == (not planted)
        if planted:
            assert found[0] == planted[0]
        # No block holds more than _BLOCK entries, unless one row is wider.
        assert all(rows * width <= max(block, width) for rows in calls)
        if block >= n * width:                    # the cube fits one block
            assert calls == [n]


@pytest.mark.parametrize("block", [1, 7, 11, 12, 13, 1 << 16])
def test_empty_single_row_and_empty_slab_cubes(monkeypatch, block):
    monkeypatch.setattr(validation, "_BLOCK", block)
    calls: list[int] = []
    empty = np.zeros((0, 3, 4), dtype=int)
    assert law_witness((0, 3, 4), _recording(empty, calls), _recording(empty, calls)) is None
    assert calls == []
    one = np.zeros((1, 3, 4), dtype=int)
    other = one.copy()
    other[0, 2, 1] = other[0, 2, 3] = 1
    assert law_witness((1, 3, 4), _recording(one, []), _recording(one, [])) is None
    found = law_witness((1, 3, 4), _recording(one, []), _recording(other, []))
    assert found == (0, 2, 1) == row_witness(1, lambda i: one[i], lambda i: other[i])
    # A trivial carrier has no generators: slabs with no entries at all.
    hollow = np.zeros((4, 0, 3), dtype=int)
    assert law_witness((4, 0, 3), _recording(hollow, []), _recording(hollow, [])) is None


# -- the law shapes -------------------------------------------------------------------

N = 12
ZN = make_zn(N)
ADD, MUL = np.array(ZN.add), np.array(ZN.mul)
# Rows planted with a violation: the first, the last and block edges for
# slabs of N entries (W) and of N² entries (the full-scan shapes).
PLANT_ROWS = (0, 1, 5, 6, 7, N - 1)


def _bump(table: np.ndarray, at: tuple) -> np.ndarray:
    out = table.copy()
    out[at] = (out[at] + 1) % N
    return out


@pytest.mark.parametrize("row", PLANT_ROWS)
def test_full_scan_shapes_match_the_row_loop(monkeypatch, row):
    # Each table is bumped where only the planted row of its cube reads it.
    cases = [
        (associative, row_associative, (MUL, MUL, MUL, _bump(MUL, (row, 5)))),
        (additive_first, row_additive_first, (MUL, _bump(ADD, (row, 7)), ADD)),
        (additive_second, row_additive_second, (_bump(MUL, (row, 3)), ADD, ADD)),
    ]
    for block in block_sizes(N, N * N):
        monkeypatch.setattr(validation, "_BLOCK", block)
        for fast, slow, tables in cases:
            found = fast(*tables)
            assert found is not None and found[0] == row
            assert found == slow(*tables)
        assert associative(MUL, MUL, MUL, MUL) is None


def _spy(monkeypatch) -> list:
    """Record every witness the generator-width checks' search returns."""
    seen: list = []
    real = validation.law_witness

    def recording(shape, lhs, rhs):
        seen.append(real(shape, lhs, rhs))
        return seen[-1]
    monkeypatch.setattr(validation, "law_witness", recording)
    return seen


def _loop_times_z3() -> np.ndarray:
    """The Steiner loop of the affine plane over Z3 (0 the identity, x + x = 0,
    x + y the third point on their line) times Z3: a commutative loop with
    inverses, not associative, of order 30."""
    points = [(a, b) for a in range(3) for b in range(3)]
    loop = np.zeros((10, 10), dtype=int)
    loop[0] = loop[:, 0] = np.arange(10)
    for i, p in enumerate(points, 1):
        for j, q in enumerate(points, 1):
            third = ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)
            loop[i, j] = 0 if i == j else points.index(third) + 1
    z3 = np.arange(3)[:, None] + np.arange(3)[None, :]
    return (3 * loop[:, None, :, None] + z3[None, :, None, :] % 3).reshape(30, 30)


def test_lights_test_matches_the_row_loop(monkeypatch):
    add = _loop_times_z3()
    gens = AddGroup(add, 0).generators
    want = row_witness(30, lambda x: add[add[x, gens]], lambda x: add[x][add[gens]])
    assert want is not None
    seen = _spy(monkeypatch)
    for block in block_sizes(30, gens.size * 30):
        monkeypatch.setattr(validation, "_BLOCK", block)
        assert group_generators(AddGroup(add, 0)) is None
        assert seen[-1] == want


@pytest.mark.parametrize("row", PLANT_ROWS)
def test_additive_on_matches_the_row_loop(monkeypatch, row):
    gens = AddGroup(ADD, 0).generators
    add_in = _bump(ADD, (row, int(gens[0])))
    want = row_witness(N, lambda x: MUL[add_in[x, gens]],
                       lambda x: ADD[MUL[x][None, :], MUL[gens]])
    assert want is not None and want[0] == row
    seen = _spy(monkeypatch)
    for block in block_sizes(N, gens.size * N):
        monkeypatch.setattr(validation, "_BLOCK", block)
        assert not additive_on(MUL, add_in, ADD, gens, 0)
        assert seen[-1] == want
        assert additive_on(MUL, ADD, ADD, gens, 0)


def _product_ring(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul) of Z_a × Z_b × ...: element (x1, x2, ...) sits at its
    mixed-radix index, and both operations act digit by digit."""
    digits = np.stack(np.unravel_index(np.arange(np.prod(orders)), orders))
    ns = np.array(orders)[:, None, None]
    tables = [(digits[:, :, None] + digits[:, None, :]) % ns,
              (digits[:, :, None] * digits[:, None, :]) % ns]
    return tuple(np.ravel_multi_index(tuple(t), orders) for t in tables)


@given(st.sampled_from([(2,), (3,), (4,), (6,), (8,), (9,), (12,), (2, 2), (2, 4)]),
       st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["none", "row 0", "any"]))
def test_additive_on_needs_no_zero_step(orders, seed, mutate):
    # op[:, z] = x·c + x·d: additive in x. One entry mutated, in row 0 (so
    # that 0·z != 0) or anywhere, mostly breaks that. With the generators
    # alone, additive_on must agree with the full scan either way.
    add, mul = _product_ring(orders)
    n, rng = add.shape[0], np.random.default_rng(seed)
    c, d = rng.integers(n, size=(2, int(rng.integers(1, 2 * n))))
    op = add[mul[:, c], mul[:, d]]
    if mutate != "none":
        x, z = 0 if mutate == "row 0" else int(rng.integers(n)), int(rng.integers(op.shape[1]))
        op[x, z] = add[op[x, z], rng.integers(1, n)]
    gens = AddGroup(add, 0).generators
    assert additive_on(op, add, add, gens, 0) == (additive_first(op, add, add) is None)


def test_a_trivial_group_still_sends_zero_to_zero():
    # No generators: the zero is the one step, so 0·z = 1 in Z2 is refused.
    trivial, z2 = np.zeros((1, 1), dtype=np.int32), np.array(make_zn(2).add)
    gens = AddGroup(trivial, 0).generators
    assert gens.size == 0
    assert not additive_on(np.array([[0, 1]]), trivial, z2, gens, 0)
    assert additive_first(np.array([[0, 1]]), trivial, z2) is not None
    assert additive_on(np.array([[0, 0]]), trivial, z2, gens, 0)


@pytest.mark.parametrize("at", [(5, 7), (11, 3), (0, 11), (6, 6)])
def test_bimodule_reports_match_the_oracle_at_every_block_size(monkeypatch, at):
    # A bumped right action breaks the right-staged law among others; every
    # law's witness is compared, through the report text.
    ract = _bump(MUL, at)
    for block in block_sizes(N, N * N):
        monkeypatch.setattr(validation, "_BLOCK", block)
        mod = Bimodule(ADD, 0, ZN, MUL, ZN, ract, name="Z12")
        report = validate_bimodule(mod)
        assert "right-associative" in {v.law for v in report.violations}
        assert str(report) == str(full_scan_validate_bimodule(mod))


@pytest.mark.parametrize("at", [(7, 11), (0, 5), (11, 0)])
def test_context_reports_match_the_oracle_at_every_block_size(monkeypatch, at):
    pairing = _bump(MUL, at)
    for block in block_sizes(N, N * N):
        monkeypatch.setattr(validation, "_BLOCK", block)
        mod_v = Bimodule(ADD, 0, ZN, MUL, ZN, MUL, name="V")
        ctx = MoritaContext(ZN, ZN, mod_v, ring_bimodule(ZN), pairing, MUL, name="bumped")
        report = validate_context(ctx)
        assert not report.ok and str(report) == str(full_scan_validate_context(ctx))


@pytest.mark.parametrize("moved", [0, 2, 5, 6, 7, 11])
def test_broken_ring_maps_match_the_full_scan(monkeypatch, moved):
    z4 = make_zn(4)
    reduce = np.arange(N) % 4                     # Z12 -> Z4 is a ring map
    broken = reduce.copy()
    broken[moved] = (broken[moved] + 1) % 4
    for block in block_sizes(N, N):
        monkeypatch.setattr(validation, "_BLOCK", block)
        assert verify_ring_map(ZN, z4, reduce)
        verdict = verify_ring_map(ZN, z4, broken)
        assert not verdict and verdict == full_scan_verify_ring_map(ZN, z4, broken)
