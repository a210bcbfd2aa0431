"""Subsets of an indexed carrier as Python-int bitmasks.

Bit i set means element i is a member. Masks are hashable and compare
canonically, which makes them convenient lattice points; numpy bool arrays
are derived at the boundary for vectorized table lookups.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mask_from_bool",
    "bool_array",
    "indices_of",
    "is_subset",
    "subset_table",
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


def subset_table(subs: list[int], sups: list[int], size: int) -> np.ndarray:
    """[i, j]: is ``subs[j]`` a subset of ``sups[i]``, for masks over
    ``size`` elements. It counts the members of each sub outside each sup
    by float32 products of bit rows, the sups' complements against the
    subs; a count of 0s and 1s is 0 only when every term is. The rows are
    kept as packed bytes and unpacked a block of columns at a time, at most
    1 Mi entries a block, so no bool matrix of every mask is held."""
    nbytes = (size + 7) // 8

    def packed(masks: list[int]) -> np.ndarray:
        rows = np.empty((len(masks), nbytes), dtype=np.uint8)
        for row, m in zip(rows, masks):
            row[:] = np.frombuffer(m.to_bytes(nbytes, "little"), dtype=np.uint8)
        return rows
    outside, inside = ~packed(sups), packed(subs)   # padding: outside a sup, inside no sub
    counts = np.zeros((len(sups), len(subs)), dtype=np.float32)
    step = max(1, 2**17 // max(1, len(sups) + len(subs)))      # bytes a block
    for lo in range(0, nbytes, step):
        block = slice(lo, lo + step)
        counts += (np.unpackbits(outside[:, block], axis=1).astype(np.float32)
                   @ np.unpackbits(inside[:, block], axis=1).astype(np.float32).T)
    return counts == 0


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
