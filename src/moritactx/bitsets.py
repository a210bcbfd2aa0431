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
