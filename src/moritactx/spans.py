"""Additive-subgroup kernels over a finite abelian group.

The whole package leans on one observation: a finite abelian group of order
k is generated by at most log2(k) elements, and every product condition of
the form "x * S * y lands inside an additively closed set" only needs to be
checked on additive generators of S, because the products are biadditive.
A ring's ideals are its submodules over itself, so the kernels here (one
closure check, one cyclic-submodule kernel, one lattice join closure that
records each member's module generators, one prime scan) take any carrier
and a side. Each carrier presents a side's action as ``action(side)``: the
acting ring and ``act``, ``act[r]`` being r acting on every element, read
by numpy indexing alone (a context ring's ``SplitTable`` serves as a table
does). Actions are assumed unital, additive and associative, as in every
carrier the package builds; the orbit kernel leans on all three
(``tests/naive.py`` keeps a one-hot oracle that needs none of them). Index
sets are deduplicated with ``bitsets.distinct``: plain ``np.unique``
imports ``numpy.ma`` on numpy 2.x unless given ``return_index=True``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .bitsets import bool_array, distinct, full_mask, indices_of, mask_from_bool
from .errors import CapacityError, MalformedTableError
from .validation import (_BLOCK, SplitTable, Verdict, as_square_table, index_dtype,
                         law_witness)

__all__ = ["AddGroup", "SumGroup", "as_group", "Carrier", "Subset", "check_closed",
           "orbit_classes", "cyclic_masks", "prime_pair", "semiprime_element"]


class AddGroup:
    """A finite abelian group presented by a k x k addition table.

    Instances are lightweight views over a table owned by a ring or module;
    they cache a greedy generating sequence and provide span/join closure.
    Every read of the addition goes through ``sums`` or ``_plus``, so a
    ``SumGroup`` serves each kernel without a table of its own.
    """

    __slots__ = ("_table", "zero", "order", "_generators")

    def __init__(self, add: np.ndarray, zero: int):
        self._table = add
        self.zero = int(zero)
        self.order = int(add.shape[0])
        self._generators: np.ndarray | None = None

    @property
    def add(self) -> np.ndarray:
        """The whole k x k table. A ``SumGroup`` forms it on first read and
        keeps it; no kernel reads it."""
        if self._table is None:
            idx = np.arange(self.order)
            self._table = self.sums(idx[:, None], idx)
            self._table.setflags(write=False)
        return self._table

    def sums(self, xs, ys) -> np.ndarray:
        """The table entries ``add[xs, ys]``, broadcast as fancy indexing is."""
        return self._table[xs, ys]

    def _plus(self, x: int, ys: np.ndarray) -> np.ndarray:
        """``sums(x, ys)`` for an int x: row x, then a gather, which numpy
        does faster than ``table[x, ys]``."""
        return self._table[x][ys]

    @property
    def summands(self) -> list[tuple[np.ndarray, int]]:
        """(table, zero) of each table-backed summand, in index order."""
        return [(self._table, self.zero)]

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
        members, gens = np.array([self.zero]), []
        rest = want & ~inside
        while rest.any():
            gens.append(int(rest.argmax()))
            members = self._extend(inside, members, gens[-1:])
            rest &= ~inside
        return np.array(gens, dtype=np.int64), inside

    def _extend(self, inside: np.ndarray, members: np.ndarray, gens: Iterable[int]) -> np.ndarray:
        # Grows S (marked in `inside`, listed in `members`) by each g, doubling,
        # and returns the new members: U = S + {0, g, ..., (j-1)g}, listed coset
        # by coset, takes in U + jg until jg lies in U, which is then S + <g>.
        # jg ends the operand, so the last sum is 2jg. U + jg wraps past S + <g>
        # only when its last coset lies in U: then that part is dropped.
        buf = np.empty(self.order + 1, dtype=np.int64)
        size = members.size
        buf[:size] = members
        for g in gens:
            shift = int(g)
            while not inside[shift]:
                buf[size] = shift
                row = self._plus(shift, buf[:size + 1])
                new, shift = row[:-1], row.item(-1)
                if inside[row.item(-2)]:
                    new = new[~inside[new]]
                inside[new] = True
                buf[size:size + new.size] = new
                size += new.size
        return buf[:size]

    def span_mask(self, seeds: Iterable[int] | np.ndarray, base: int | None = None) -> int:
        """Bitmask of the subgroup generated by ``seeds`` on top of ``base``."""
        inside = np.zeros(self.order, dtype=bool) if base is None else bool_array(base, self.order)
        inside[self.zero] = True
        self._extend(inside, np.flatnonzero(inside), np.asarray(seeds, dtype=np.int64).ravel())
        return mask_from_bool(inside)

    def join_masks(self, a: int, b_gens: np.ndarray) -> int:
        """Join of the subgroup mask ``a`` with the subgroup that ``b_gens`` generates."""
        return self.span_mask(b_gens, base=a)

    def join_closure(self, seeds: dict[int, int], cap: int,
                     what: str) -> tuple[list[int], dict[int, tuple[int, ...]]]:
        """Every join of the seed subgroups, sorted by (size, mask), and each
        member's module generators, keyed by its mask.

        ``seeds`` maps each seed mask to an element whose cyclic submodule it
        is. They are closed in (size, mask) order: if L is join-closed, so
        is L ∪ {s} ∪ {a ∨ s}, and a seed already in the closure is skipped.
        A join is spanned only when no known mask of its size, |A|·|B| /
        |A∩B|, contains a | s; each span is a new member, so CapacityError
        (naming ``what``) comes exactly when there would be over ``cap``. A
        seed is generated by its element, a ∨ s, first found, by a's and s's:
        at least twice a's size, it has at most ⌊log₂ order⌋ + 1, and a
        submodule on the members' side holds it exactly when it holds them.
        """
        order = sorted(seeds, key=lambda m: (m.bit_count(), m))
        by_size: dict[int, list[int]] = {}
        for m in order:
            by_size.setdefault(m.bit_count(), []).append(m)
        known, closed = len(order), {}             # closed: the closure so far, with generators
        if known > cap:
            raise CapacityError(f"{what} exceeds cap {cap}", cap)
        for s in order:
            if s in closed:
                continue
            size_s, gens, own = s.bit_count(), None, (seeds[s],)
            for a in list(closed):
                meet, ab = a & s, a | s
                if meet in (a, s):                  # one contains the other
                    continue
                size = a.bit_count() * size_s // meet.bit_count()
                c = next((c for c in by_size.get(size, ()) if c & ab == ab), None)
                if c is None:                       # a span is always a new member
                    if known >= cap:
                        raise CapacityError(f"{what} exceeds cap {cap}", cap)
                    gens = self.subgroup_generators(s) if gens is None else gens
                    c, known = self.join_masks(a, gens), known + 1
                    by_size.setdefault(size, []).append(c)
                if c not in closed:
                    closed[c] = closed[a] + own
            closed[s] = own
        return sorted(closed, key=lambda m: (m.bit_count(), m)), closed

    def cosets(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """Cosets of a subgroup: (representatives, projection).

        Each coset is represented by its least member, in ascending order;
        the projection sends every element to the rank of its coset. The
        least member of x + U is read a block of elements x at a time, each
        block's sums within ``_BLOCK`` entries (one x if |U| is wider).
        """
        members = indices_of(mask, self.order)
        idx, rep_of = np.arange(self.order), np.empty(self.order, dtype=np.int64)
        step = max(1, _BLOCK // members.size)
        for lo in range(0, self.order, step):
            rep_of[lo:lo + step] = self.sums(idx[lo:lo + step, None], members).min(axis=1)
        reps = distinct(rep_of, self.order)
        rank = np.full(self.order, -1, dtype=np.int64)
        rank[reps] = np.arange(reps.size)
        return reps, rank[rep_of]

    def subgroup_generators(self, mask: int) -> np.ndarray:
        """Greedy generating sequence for an existing subgroup mask."""
        return self.generate(bool_array(mask, self.order))[0]


class SumGroup(AddGroup):
    """The direct sum A ⊕ B of two groups: element (a, b) sits at a·|B| + b.

    It holds no table of its own. ``sums`` gathers from the summands
    through the digit arrays ``divmod(arange(order), |B|)``, and ``_plus``
    splits its int into digits and its operand through those arrays, so
    each doubling step of ``_extend`` costs two small gathers a summand.
    A first digit a is placed by the lookup ``place[a]`` = a·|B| in
    ``index_dtype(order)``, not by multiplying a summand's entries, whose
    dtype may be too narrow for the sum; ``sums`` returns that dtype.
    """

    __slots__ = ("parts", "digits", "place")

    def __init__(self, first: AddGroup, second: AddGroup):
        m = second.order
        self.parts = (first, second)
        self.digits = np.divmod(np.arange(first.order * m), m)
        self.place = (np.arange(first.order) * m).astype(index_dtype(first.order * m))
        self._table = None
        self.zero = first.zero * m + second.zero
        self.order = first.order * m
        self._generators = None

    def sums(self, xs, ys) -> np.ndarray:
        (first, second), (hi, lo) = self.parts, self.digits
        lo_sums = second.sums(lo[xs], lo[ys]).astype(self.place.dtype, copy=False)
        return self.place[first.sums(hi[xs], hi[ys])] + lo_sums

    def _plus(self, x: int, ys: np.ndarray) -> np.ndarray:
        (first, second), (hi, lo) = self.parts, self.digits
        a, b = divmod(x, second.order)      # array + array: the wider dtype, sums < order
        return self.place[first._plus(a, hi[ys])] + second._plus(b, lo[ys])

    @property
    def summands(self) -> list[tuple[np.ndarray, int]]:
        return self.parts[0].summands + self.parts[1].summands


def as_group(add, zero: int, what: str) -> AddGroup:
    """``add`` itself when it is an AddGroup, else one over the square table
    ``add`` (``as_square_table``). A group's zero must be ``zero``."""
    if not isinstance(add, AddGroup):
        return AddGroup(as_square_table(add, what), zero)
    if add.zero != zero:
        raise MalformedTableError(f"{what}: zero {zero} is not the group's zero {add.zero}")
    return add


def check_closed(carrier, mask: int, sidedness: str) -> Verdict:
    """Is the mask a submodule: zero, closed under + and under each action
    ``sidedness`` names?

    For additive actions it is decided at generator width: the mask is the
    span of its generators, and each act[g], g over the acting ring's
    additive generators, sends those inside. A mask that fails is scanned
    in full for the lex-first witness: ("zero",), ("add", a, b),
    ("left", r, x) or ("right", x, r), through ``law_witness``: a block of
    rows a, each row the sums a + x or the products r.x, x.r over every
    member x or ring element r, within ``_BLOCK`` entries at a time.
    """
    group, actions = carrier.addgroup, carrier.actions(sidedness)
    inside = bool_array(mask, group.order)
    if not inside[group.zero]:
        return Verdict(False, ("zero",))
    gens, span = group.generate(inside)
    if (span == inside).all() and all(inside[act[np.ix_(rgens, gens)]].all()
                                      for _, act, rgens in actions):
        return Verdict(True)
    members = np.flatnonzero(inside)
    k = members.size                    # rows r then members x on the left, x then r on the right
    scans = [("add", k, k, lambda a: group.sums(members[a, None], members))] + [
        ("left", act.shape[0], k, lambda r, act=act: act[r, members]) if side == "left" else
        ("right", k, act.shape[0], lambda x, act=act: act[:, members[x]].T)
        for side, act, _ in actions]
    for kind, rows, cols, entries in scans:
        hit = law_witness((rows, 1, cols), lambda a: inside[entries(a)][:, None], lambda a: True)
        if hit is not None:
            a, _, b = hit
            return Verdict(False, (kind, a if kind == "left" else int(members[a]),
                                   b if kind == "right" else int(members[b])))
    return Verdict(True)


def _classes(rows: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """Class of each row, numbered by first appearance, and each class's bytes."""
    seen: dict[bytes, int] = {}
    classes = np.fromiter((seen.setdefault(row.tobytes(), len(seen)) for row in rows),
                          dtype=np.int64, count=len(rows))
    return classes, list(seen)


def _column_zeros(act: np.ndarray, zero: int) -> np.ndarray:
    """#{r : act[r, x] = zero} for each column x, a chunk of rows within
    ``_BLOCK`` entries at a time (one row if wider, at most 65 535 rows):
    the chunk's bools summed as uint8 into uint16, which cannot wrap and is
    several times faster than ``count_nonzero``'s intp sums."""
    n, m = act.shape
    zeros = np.zeros(m, dtype=np.int64)
    step = min(max(1, _BLOCK // m), 2**16 - 1)
    for lo in range(0, n, step):
        zeros += (act[lo:lo + step] == zero).view(np.uint8).sum(axis=0, dtype=np.uint16)
    return zeros


def orbit_classes(act: np.ndarray, zero: int) -> tuple[np.ndarray, list[int]]:
    """Class of each element's orbit (column x of ``act``), numbered by first
    appearance, and each class's mask.

    The action must be unital, additive and associative. Then r -> r.x is
    additive, so |O(x)| = |R| / #{r : r.x = zero}, and y in O(x) gives
    O(y) <= O(x): O(y) = O(x) exactly when y is in O(x) and the two zero
    counts agree. A ``SplitTable`` counts each column's zeros from its
    halves; a table is counted a chunk of rows at a time. Then x runs in
    ascending order and each x with no class yet reads its one column: its
    unclassed members with x's zero count form x's class. The one-hot
    oracle in ``tests/naive.py`` keys on whole orbits and needs none of
    these laws.
    """
    m = act.shape[1]
    zeros = act.column_zeros(zero) if isinstance(act, SplitTable) else _column_zeros(act, zero)
    classes = np.full(m, -1, dtype=np.int64)
    masks: list[int] = []
    for x in range(m):
        if classes[x] < 0:
            orbit = np.zeros(m, dtype=bool)
            orbit[act[:, x]] = True
            classes[orbit & (classes < 0) & (zeros == zeros[x])] = len(masks)
            masks.append(mask_from_bool(orbit))
    return classes, masks


def _cyclic_classes(carrier, sidedness: str) -> tuple[np.ndarray, list[int]]:
    """Class of each element, numbered by first appearance, and the mask of
    the submodule each class generates (cached). One-sided, a class is an
    orbit class and its mask the orbit; no span. Two-sided, x's submodule is
    the sum of the right orbits of the g.x, g over the left ring's additive
    generators: a class is a sorted set of their classes (two may share a
    mask), spanned once from the g.x.h of its least x, h over the right
    ring's additive generators."""
    key = ("cyclic", sidedness)
    if key not in carrier._cache:
        actions = carrier.actions(sidedness)
        classes, masks = carrier.orbits(actions[-1][0])
        if len(actions) == 2:
            (_, first, g), (_, last, h) = actions
            first, last = first[g], last[h]
            classes, _ = _classes(np.sort(classes[first].T, axis=1))     # of the g.x
            _, least = np.unique(classes, return_index=True)
            masks = [carrier.addgroup.span_mask(last[:, first[:, x]]) for x in least]
        carrier._cache[key] = classes, masks
    return carrier._cache[key]


def cyclic_masks(carrier, sidedness: str) -> list[int]:
    """Mask of the submodule each element generates (``_cyclic_classes``)."""
    classes, masks = _cyclic_classes(carrier, sidedness)
    return [masks[c] for c in classes]


def _outside_minima(carrier, side: str, inside: np.ndarray) -> np.ndarray:
    """The least member outside ``inside`` of each ``orbits(side)`` class,
    ascending: the cached class minima outside it when it is a union of
    classes (a submodule on that side), else a sort."""
    classes, key = carrier.orbits(side)[0], ("minima", side)
    if key not in carrier._cache:           # ascending: classes number by first appearance
        carrier._cache[key] = np.unique(classes, return_index=True)[1]
    minima = carrier._cache[key]
    if (inside[minima][classes] == inside).all():
        return minima[~inside[minima]]
    out = np.flatnonzero(~inside)
    return np.sort(out[np.unique(classes[out], return_index=True)[1]])


def _first_pair(carrier, side: str, inside: np.ndarray, rs: np.ndarray,
                xs: np.ndarray | None = None) -> tuple[int, int] | None:
    """Lex-first (r, x), r in ``rs`` and x in ``xs``, with every r.(g.x)
    inside, g over the ring's additive generators (x = r when ``xs`` is
    None). Blocks of r hold ``_BLOCK`` / 64 entries, growing fourfold up to
    ``_BLOCK`` (one r if wider): witnesses mostly come early. The ring's
    products with its generators, row r holding each r.g, are read once
    and cached on the ring."""
    ring, act = carrier.action(side)
    gens, key = ring.addgroup.generators, ("generator-products", side)
    if key not in ring._cache:
        mid = ring.action("right" if side == "left" else "left")[1]
        ring._cache[key] = np.ascontiguousarray(mid[gens].T)
    by_gens = ring._cache[key]
    most = max(1, _BLOCK // (gens.size * (1 if xs is None else max(xs.size, 1))))
    lo, step = 0, max(1, most // 64)
    while lo < rs.size:
        r = rs[lo:lo + step]
        lo, step = lo + step, min(4 * step, most)
        hit = inside[act[by_gens[r][:, :, None], r[:, None, None] if xs is None else xs]].all(1)
        i, k = divmod(int(hit.argmax()), hit.shape[1])      # the first hit, if any
        if hit[i, k]:
            return int(r[i]), int(r[i] if xs is None else xs[k])
    return None


def prime_pair(carrier, side: str, inside: np.ndarray,
               sidedness: str | None = None) -> tuple[int, int] | None:
    """First (r, x) refuting primeness of the submodule ``inside`` under the
    ``side`` action: r.(R.x) lies inside, x does not, and r does not send
    the carrier inside (read on its generators). None when it is prime.

    r.(R.x) is (rR).x on the left, (Rr).x on the right, so it depends only
    on r's class under the ring's other-side orbits and x's under the
    carrier's ``side`` orbits: the least r and the least x outside of each
    class are paired in ascending order, so the witness stays lex-first.
    With ``sidedness``, T over itself is read on the left and ``inside`` is
    an ideal of that sidedness: a and b are classed on its own side (left
    for a left ideal, else right), and a must lie outside, not merely aT.
    """
    if sidedness is not None:
        rs = _outside_minima(carrier, "left" if sidedness == "left" else "right", inside)
        return _first_pair(carrier, side, inside, rs, rs)
    ring, act = carrier.action(side)
    rs = _outside_minima(ring, "right" if side == "left" else "left", np.zeros(ring.order, bool))
    rs = rs[~inside[act[rs[:, None], carrier.addgroup.generators]].all(axis=1)]
    return _first_pair(carrier, side, inside, rs, _outside_minima(carrier, side, inside))


def semiprime_element(ring, inside: np.ndarray, sidedness: str) -> int | None:
    """Least a outside the ideal ``inside`` with a*T*a inside, or None: the
    diagonal of ``prime_pair``'s class pairs."""
    a = _outside_minima(ring, "left" if sidedness == "left" else "right", inside)
    hit = _first_pair(ring, "left", inside, a)
    return None if hit is None else hit[0]


class Carrier:
    """Labels, subset formatting, additive group and actions of a carrier.

    Rings and modules share this presentation. Subclasses set ``order``,
    ``zero`` and ``_cache``, call ``_present`` with their additive group
    (an explicit label tuple wins over ``label_fn``, which wins over the
    bare index), define ``action(side)`` and map each sidedness to its
    sides in ``SIDEDNESS``.
    """

    __slots__ = ("_labels", "_label_fn", "addgroup")

    def _present(self, group: AddGroup, labels, label_fn) -> None:
        self.addgroup = group
        self._labels = tuple(str(x) for x in labels) if labels is not None else None
        self._label_fn = label_fn

    @property
    def add(self) -> np.ndarray:
        """The whole addition table, ``addgroup.add``: formed on first read
        for a direct sum, whose kernels read ``addgroup.sums`` instead."""
        return self.addgroup.add

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

    def actions(self, sidedness: str) -> list:
        """(side, act, acting ring's additive generators) for each side
        ``sidedness`` names; ValueError for a sidedness this carrier lacks."""
        if sidedness not in self.SIDEDNESS:
            raise ValueError(f"sidedness must be {self.SIDEDNESS_TEXT}, got {sidedness!r}")
        out = []
        for side in self.SIDEDNESS[sidedness]:
            ring, act = self.action(side)
            out.append((side, act, ring.addgroup.generators))
        return out

    def orbits(self, side: str) -> tuple[np.ndarray, list[int]]:
        """``orbit_classes`` of this carrier's ``side`` action, cached."""
        key = ("orbits", side)
        if key not in self._cache:
            self._cache[key] = orbit_classes(self.action(side)[1], self.zero)
        return self._cache[key]

    def lattice(self, sidedness: str, cap: int, what: str) -> list[int]:
        """Every submodule mask of the sidedness, sorted by (size, mask): the join
        closure of the cyclic ones (keyed to least elements), cached with the generators
        that decide containment in submodules of the sidedness. CapacityError over ``cap``."""
        key = ("lattice", sidedness)
        if key not in self._cache:
            classes, masks = _cyclic_classes(self, sidedness)
            least = np.unique(classes, return_index=True)[1].tolist()   # ascending by class
            seeds = dict(zip(reversed(masks), reversed(least)))     # a shared mask keeps its least
            self._cache[key] = self.addgroup.join_closure(seeds, cap, what)
        if len(self._cache[key][0]) > cap:
            raise CapacityError(f"{what} exceeds cap {cap}", cap)
        return self._cache[key][0]

    def member_generators(self, sidedness: str, masks: list[int]) -> np.ndarray:
        """Row i: the recorded generators of ``masks[i]``, a member of the built
        lattice, padded with its first to the longest row."""
        rows = [self._cache[("lattice", sidedness)][1][m] for m in masks]
        width = max(map(len, rows), default=1)
        return np.array([g + g[:1] * (width - len(g)) for g in rows], np.int64).reshape(-1, width)

    def format_subset(self, mask: int) -> str:
        """The labels of ``mask``'s members in braces, cached: labels are
        fixed once the carrier is built, and listings repeat slot masks."""
        key = ("format", mask)
        if key not in self._cache:
            labels = self.labels
            self._cache[key] = "{" + ", ".join(labels[i] for i in
                                               indices_of(mask, self.order).tolist()) + "}"
        return self._cache[key]


class Subset:
    """What ideals and submodules share: a ``members`` mask of ``carrier``."""

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def is_proper(self) -> bool:
        return self.members != full_mask(self.carrier.order)

    def __str__(self) -> str:
        return self.carrier.format_subset(self.members)
