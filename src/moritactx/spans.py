"""Additive-subgroup kernels over a finite abelian group table.

The whole package leans on one observation: a finite abelian group of order
k is generated by at most log2(k) elements, and every product condition of
the form "x * S * y lands inside an additively closed set" only needs to be
checked on additive generators of S, because the products are biadditive.
A ring's ideals are its submodules over itself, so the closure, orbit and
cyclic kernels here serve rings and modules alike: they take action tables,
``act[r]`` being r acting on every element, and assume unital additive
actions, as every view the package builds has. The lattice join closure
and the coset split used by every quotient live here too, as does
``Carrier``, the labelling shared by rings and modules.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .bitsets import bool_array, full_mask, indices_of, mask_from_bool
from .errors import CapacityError
from .validation import Verdict

__all__ = ["AddGroup", "Carrier", "Subset", "check_closed", "orbit_classes", "cyclic_masks"]


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
            self._generators, _ = self.generate(np.ones(self.order, dtype=bool))
        return self._generators

    def generate(self, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Greedy generators of the subgroup the marked elements span (each the
        least marked element outside the span so far), and that span as bools."""
        inside = np.zeros(self.order, dtype=bool)
        inside[self.zero] = True
        chunks = [np.array([self.zero], dtype=np.int64)]
        gens: list[int] = []
        rest = want & ~inside
        while rest.any():
            gens.append(int(rest.argmax()))
            self._extend(inside, chunks, gens[-1:])
            rest &= ~inside
        return np.array(gens, dtype=np.int64), inside

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

        The seeds must be subgroup masks. Each mask found is joined with
        every seed until a fixpoint, but only a join not found yet is
        spanned: subgroups have |A+B| = |A|·|B| / |A∩B|, so a found mask of
        that size containing a | b is A+B already. A pair where one side
        contains the other is skipped too. Otherwise the seed's generators,
        computed on first use, are spanned on top of the other side. The
        seeds count against ``cap`` too: CapacityError, naming the lattice
        as ``what``, as soon as it would hold more than ``cap`` masks.
        """
        seeds = set(seeds)
        lattice = list(seeds)
        by_size: dict[int, list[int]] = {}
        for m in lattice:
            by_size.setdefault(m.bit_count(), []).append(m)
        gens: dict[int, np.ndarray] = {}
        for a in lattice:                           # grows as joins are found
            for b in seeds:
                # Checked before every pair: the seeds count, and a new
                # mask always leaves one more join to run.
                if len(lattice) > cap:
                    raise CapacityError(f"{what} exceeds cap {cap}", cap)
                meet, ab = a & b, a | b
                if meet in (a, b):                  # one contains the other
                    continue
                size = a.bit_count() * b.bit_count() // meet.bit_count()
                if any(c & ab == ab for c in by_size.get(size, ())):
                    continue
                if b not in gens:
                    gens[b] = self.subgroup_generators(b)
                lattice.append(self.join_masks(a, gens[b]))
                by_size.setdefault(size, []).append(lattice[-1])
        return sorted(lattice, key=lambda m: (m.bit_count(), m))

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
        return self.generate(bool_array(mask, self.order))[0]


def check_closed(group: AddGroup, mask: int, actions) -> Verdict:
    """Is the mask a submodule: zero, closed under + and under each action?

    ``actions`` lists (side, act, gens), ``gens`` the acting ring's additive
    generators. For additive actions it is decided at generator width: the
    mask is the span of its generators, and each act[g] sends those inside.
    A mask that fails is scanned in full for the lex-first witness:
    ("zero",), ("add", a, b), ("left", r, x) or ("right", x, r).
    """
    inside = bool_array(mask, group.order)
    if not inside[group.zero]:
        return Verdict(False, ("zero",))
    gens, span = group.generate(inside)
    if (span == inside).all() and all(inside[act[np.ix_(rgens, gens)]].all()
                                      for _, act, rgens in actions):
        return Verdict(True)
    members = np.flatnonzero(inside)
    sums = inside[group.add[np.ix_(members, members)]]
    if not sums.all():
        i, j = map(int, np.argwhere(~sums)[0])
        return Verdict(False, ("add", int(members[i]), int(members[j])))
    for side, act, _ in actions:
        prods = inside[act[:, members]]
        if not prods.all():
            if side == "left":
                r, i = map(int, np.argwhere(~prods)[0])
                return Verdict(False, ("left", r, int(members[i])))
            i, r = map(int, np.argwhere(~prods.T)[0])
            return Verdict(False, ("right", int(members[i]), r))
    return Verdict(True)


def _classes(rows: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """Class of each row, numbered by first appearance, and each class's bytes."""
    seen: dict[bytes, int] = {}
    classes = np.fromiter((seen.setdefault(row.tobytes(), len(seen)) for row in rows),
                          dtype=np.int64, count=len(rows))
    return classes, list(seen)


def orbit_classes(act: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Class of each element's orbit (column x of ``act``), numbered by first
    appearance, and each class's mask. The orbits are packed into bit-rows a
    chunk at a time, so no elements × elements bool array is ever held."""
    table = act.T
    m = table.shape[0]
    rows = np.empty((m, (m + 7) // 8), dtype=np.uint8)
    step = max(1, 2**22 // m)                       # one-hot chunks of at most 4 MiB
    for lo in range(0, m, step):
        hot = np.zeros((min(step, m - lo), m), dtype=bool)
        np.put_along_axis(hot, table[lo:lo + step], True, axis=1)
        rows[lo:lo + step] = np.packbits(hot, axis=1, bitorder="little")
    classes, keys = _classes(rows)
    return classes, [int.from_bytes(row, "little") for row in keys]


def cyclic_masks(group: AddGroup, orbits, between=None) -> list[int]:
    """Mask of the submodule each element x generates.

    One-sided, it is x's orbit, with ``orbits`` from ``orbit_classes``; no
    span. Two-sided, ``between`` holds the first and last action's rows at
    their rings' additive generators g and h, and ``orbits`` are the last
    action's: the submodule is the sum of the orbits of the g.x, spanned
    once per sorted set of their classes, from the g.x.h of its least x.
    """
    classes, masks = orbits
    if between is not None:
        first, last = between
        classes, _ = _classes(np.sort(classes[first].T, axis=1))     # of the g.x
        _, least = np.unique(classes, return_index=True)
        masks = [group.span_mask(last[:, first[:, x]]) for x in least]
    return [masks[c] for c in classes]


class Carrier:
    """Labels, subset formatting and the additive group of an indexed carrier.

    Rings and modules share this presentation. Subclasses set ``order``,
    ``add``, ``zero`` and ``_cache`` and call ``_present``: an explicit
    label tuple wins over ``label_fn``, which wins over the bare index.
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

    def orbits(self, side: str, act: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """``orbit_classes`` of this carrier's ``side`` action ``act``, cached."""
        key = ("orbits", side)
        if key not in self._cache:
            self._cache[key] = orbit_classes(act)
        return self._cache[key]

    def format_subset(self, mask: int) -> str:
        members = indices_of(mask, self.order)
        return "{" + ", ".join(self.label(int(i)) for i in members) + "}"


class Subset:
    """What ideals and submodules share: a ``members`` mask of ``carrier``."""

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def member_indices(self) -> np.ndarray:
        return indices_of(self.members, self.carrier.order)

    def is_proper(self) -> bool:
        return self.members != full_mask(self.carrier.order)

    def is_zero(self) -> bool:
        return self.size == 1

    def __str__(self) -> str:
        return self.carrier.format_subset(self.members)
