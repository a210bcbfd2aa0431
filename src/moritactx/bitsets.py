"""Subsets of an indexed carrier as Python-int bitmasks.

Bit i set means element i is a member. Masks are hashable and compare
canonically, which makes them convenient lattice points; numpy bool arrays
are derived at the boundary for vectorized table lookups.
"""

from __future__ import annotations

import numpy as np

from .validation import _BLOCK

__all__ = [
    "mask_from_bool",
    "bool_array",
    "indices_of",
    "is_subset",
    "generator_table",
    "full_mask",
    "as_mask",
    "distinct",
]


def mask_from_bool(arr: np.ndarray) -> int:
    packed = np.packbits(arr.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def bool_array(mask: int, size: int) -> np.ndarray:
    nbytes = (size + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").astype(bool)


def indices_of(mask: int, size: int) -> np.ndarray:
    return np.flatnonzero(bool_array(mask, size))


def is_subset(a: int, b: int) -> bool:
    return a & b == a


def generator_table(sups: list[int], gens: np.ndarray, size: int) -> np.ndarray:
    """[i, j]: does ``sups[i]`` hold each element of row ``gens[j]``? For sups that are
    submodules on the members' side and rows of member generators (or of their products with an
    absorbing carrier's), that is member j ⊆ (or carried into) sups[i]. Packed, a block of sups
    within ``_BLOCK`` bytes at a time (one sup if wider)."""
    nbytes = (size + 7) // 8
    step = max(1, _BLOCK // nbytes)
    table = np.ones((len(sups), len(gens)), dtype=bool)
    for lo in range(0, len(sups), step):
        rows = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in sups[lo:lo + step]),
                             dtype=np.uint8).reshape(-1, nbytes)
        for col in gens.T:
            table[lo:lo + step] &= rows[:, col >> 3] & (1 << (col & 7)).astype(np.uint8) != 0
    return table


def full_mask(size: int) -> int:
    return (1 << size) - 1


def as_mask(subset) -> int:
    """The mask of a subset argument: an object with ``members``, or a mask."""
    return int(getattr(subset, "members", subset))


def distinct(values: np.ndarray, size: int) -> np.ndarray:
    """The sorted distinct values of an index array, all in ``range(size)``.

    Marks them in a bool array of ``size``: O(size + len), no sort, and
    unlike plain ``np.unique`` it never reaches ``numpy.ma``.
    """
    seen = np.zeros(size, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)
