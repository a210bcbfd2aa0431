"""Additive-subgroup closure kernels over a finite abelian group table.

The whole package leans on one observation: a finite abelian group of order
k is generated by at most log2(k) elements, and every product condition of
the form "x * S * y lands inside an additively closed set" only needs to be
checked on additive generators of S, because the products are biadditive.
The kernels here compute generating sequences and subgroup spans cheaply so
the ring- and module-level code can stay near-linear in the carrier size.
The lattice join closure and the coset split used by every quotient live
here too, as does ``Carrier``, the labelling shared by rings and modules.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .bitsets import bool_array, indices_of, mask_from_bool
from .errors import CapacityError

__all__ = ["AddGroup", "Carrier"]


class AddGroup:
    """A finite abelian group presented by a k x k addition table.

    Instances are lightweight views over a table owned by a ring or module;
    they cache a greedy generating sequence and provide span/join closure.
    """

    __slots__ = ("add", "zero", "order", "_generators")

    def __init__(self, add: np.ndarray, zero: int):
        self.add = add
        self.zero = int(zero)
        self.order = int(add.shape[0])
        self._generators: np.ndarray | None = None

    @property
    def generators(self) -> np.ndarray:
        """A greedy generating sequence (at most log2(order) entries)."""
        if self._generators is None:
            inside = np.zeros(self.order, dtype=bool)
            inside[self.zero] = True
            chunks = [np.array([self.zero], dtype=np.int64)]
            gens: list[int] = []
            for e in range(self.order):
                if not inside[e]:
                    gens.append(e)
                    self._extend(inside, chunks, (e,))
            self._generators = np.array(gens, dtype=np.int64)
        return self._generators

    def _extend(self, inside: np.ndarray, chunks: list[np.ndarray], gens: Iterable[int]) -> None:
        # Grows the subgroup marked in `inside` by each generator in turn,
        # adding whole cosets S, S+g, S+2g, ... until the shift re-enters S.
        add = self.add
        for g in gens:
            g = int(g)
            if inside[g]:
                continue
            base = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            chunks[:] = [base]
            shift = g
            while not inside[shift]:
                coset = add[shift, base]
                inside[coset] = True
                chunks.append(coset)
                shift = int(add[shift, g])

    def span_mask(self, seeds: Iterable[int] | np.ndarray, base: int | None = None) -> int:
        """Bitmask of the subgroup generated by ``seeds`` on top of ``base``."""
        inside = np.zeros(self.order, dtype=bool)
        if base is not None:
            arr = bool_array(base, self.order)
            inside |= arr
            chunks = [np.flatnonzero(arr)]
        else:
            chunks = [np.array([self.zero], dtype=np.int64)]
        inside[self.zero] = True
        self._extend(inside, chunks, np.asarray(seeds, dtype=np.int64).ravel())
        return mask_from_bool(inside)

    def join_masks(self, a: int, b_gens: np.ndarray) -> int:
        """Join of the subgroup mask ``a`` with the subgroup that ``b_gens`` generates."""
        return self.span_mask(b_gens, base=a)

    def join_closure(self, seeds: Iterable[int], cap: int, what: str) -> list[int]:
        """Every join of the seed subgroups, sorted by (size, mask).

        Joins are taken pairwise with the seeds until a fixpoint. A pair
        where one side contains the other joins to a mask already found and
        is skipped; otherwise only the seed's generators, computed once, are
        spanned on top of the other side. The seeds count against ``cap``
        too: CapacityError, naming the lattice as ``what``, as soon as it
        would hold more than ``cap`` masks.
        """
        seeds = {b: self.subgroup_generators(b) for b in set(seeds)}
        found: set[int] = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt: list[int] = []
            for a in frontier:
                for b, b_gens in seeds.items():
                    # Checked before every pair: the seeds count, and a new
                    # mask always leaves one more join to run.
                    if len(found) > cap:
                        raise CapacityError(f"{what} exceeds cap {cap}", cap)
                    if a & b in (a, b):             # one contains the other
                        continue
                    j = self.join_masks(a, b_gens)
                    if j not in found:
                        found.add(j)
                        nxt.append(j)
            frontier = nxt
        return sorted(found, key=lambda m: (m.bit_count(), m))

    def cosets(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """Cosets of a subgroup: (representatives, projection).

        Each coset is represented by its least member, in ascending order;
        the projection sends every element to the rank of its coset.
        """
        members = indices_of(mask, self.order)
        rep_of = self.add[:, members].min(axis=1)
        reps = np.unique(rep_of)
        rank = np.full(self.order, -1, dtype=np.int64)
        rank[reps] = np.arange(reps.size)
        return reps, rank[rep_of]

    def subgroup_generators(self, mask: int) -> np.ndarray:
        """Greedy generating sequence for an existing subgroup mask."""
        members = indices_of(mask, self.order)
        inside = np.zeros(self.order, dtype=bool)
        inside[self.zero] = True
        chunks = [np.array([self.zero], dtype=np.int64)]
        gens: list[int] = []
        for e in members:
            if not inside[e]:
                gens.append(int(e))
                self._extend(inside, chunks, (int(e),))
        return np.array(gens, dtype=np.int64)

    def is_subgroup(self, mask: int) -> bool:
        members = indices_of(mask, self.order)
        if members.size == 0 or not bool_array(mask, self.order)[self.zero]:
            return False
        table = self.add[np.ix_(members, members)]
        return bool(bool_array(mask, self.order)[table].all())


class Carrier:
    """Labels, subset formatting and the additive group of an indexed carrier.

    Rings and modules share this presentation. Subclasses set ``order``,
    ``add`` and ``zero`` and call ``_present``: an explicit label tuple
    wins over ``label_fn``, which wins over the bare index.
    """

    __slots__ = ("_labels", "_label_fn", "_addgroup")

    def _present(self, labels, label_fn, addgroup: AddGroup | None = None) -> None:
        self._labels = tuple(str(x) for x in labels) if labels is not None else None
        self._label_fn = label_fn
        self._addgroup = addgroup

    def label(self, i: int) -> str:
        if self._labels is not None:
            return self._labels[i]
        if self._label_fn is not None:
            return self._label_fn(i)
        return str(i)

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(self.label(i) for i in range(self.order))
        return self._labels

    @property
    def addgroup(self) -> AddGroup:
        if self._addgroup is None:
            self._addgroup = AddGroup(self.add, self.zero)
        return self._addgroup

    def format_subset(self, mask: int) -> str:
        members = indices_of(mask, self.order)
        return "{" + ", ".join(self.label(int(i)) for i in members) + "}"
