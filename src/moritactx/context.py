"""Contexts: two rings coupled by a pair of bimodules and two pairings.

The data (R, V, W, S, V×W -> R, W×V -> S) determines a ring on formal 2×2
arrays — r and s on the diagonal, v and w off it — provided the pairings
are biadditive, linear over the ring actions, balanced, and mixed-
associative. Everything downstream lives here: building that ring,
splitting its ideals into four slots, the closure sets tying module slots
to corner ideals, the facts the prime and semiprime theorems relate (one
record for a slotted ideal, one for the ring itself; the checks state the
theorems), the slotted prime radical, and the quotient construction.

Index convention for the built ring: element (r, v, w, s) sits at
``((r*|V| + v)*|W| + w)*|S| + s``, so a subset of T is a bool grid of shape
``dims``: slot and block parts go in by broadcast and come out by projection.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bitsets import (as_mask, bool_array, distinct, full_mask, generator_table, is_subset,
                      mask_from_bool)
from .errors import (
    CapacityError,
    CentralityError,
    MalformedTableError,
    NotAnIdealError,
)
from .ideals import (
    DEFAULT_LATTICE_CAP,
    Ideal,
    check_ideal,
    enumerate_ideals,
    is_prime_ideal,
    is_prime_ring,
    is_semiprime_ideal,
    is_semiprime_ring,
    prime_radical,
    prime_spectrum,
    verify_ideal,
)
from .modules import (
    Bimodule,
    ModuleView,
    Submodule,
    enumerate_submodules,
    is_prime_submodule,
    quotient_module,
    ring_bimodule,
    validate_bimodule,
)
from .rings import FiniteRing, checked_generators, quotient_ring, verify_ring_map
from .spans import AddGroup, SumGroup, check_closed
from .validation import (_BLOCK, SplitTable, ValidationReport, Verdict, Violation,
                         additive_first, additive_on, additive_second, as_table, associative,
                         associative_on, index_dtype, violations_of)

__all__ = [
    "MoritaContext",
    "IdealQuadruple",
    "ClosureSets",
    "SlotReport",
    "RingReport",
    "QuotientContextResult",
    "DEFAULT_ORDER_CAP",
    "validate_context",
    "build_context_ring",
    "build_ks_context",
    "decompose_ideal",
    "quadruple_mask",
    "enumerate_context_ideals",
    "is_slotted_ideal",
    "context_prime_spectrum",
    "lattice_prime_flags",
    "block_ideals",
    "block_ideal_masks",
    "side_decomposition",
    "slotted_blocks",
    "closure_sets",
    "check_prime_quadruple",
    "check_semiprime_quadruple",
    "context_prime_radical",
    "quotient_context",
    "verify_quotient_iso",
    "product_span_vw",
    "product_span_wv",
    "is_surjective_context",
    "is_prime_context",
    "is_semiprime_context",
]

DEFAULT_ORDER_CAP = 10_000


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _mib(nbytes: float) -> str:
    return f"{nbytes / 2**20:.0f}" if nbytes >= 2**20 else "under 1"


def _require_memory(nbytes: int, what: str) -> None:
    """CapacityError, before anything is allocated, when tables of ``nbytes``
    would not fit in physical memory: no cap can make them fit."""
    phys = _physical_memory()
    if phys is not None and nbytes > phys:
        raise CapacityError(f"{what}: tables need {_mib(nbytes)} MiB, over the "
                            f"{_mib(phys)} MiB of physical memory", None)


class MoritaContext:
    """A coupled system (first ring, two bimodules, second ring, pairings).

    ``prod_vw[v, w]`` lands in the first ring, ``prod_wv[w, v]`` in the
    second. Construction checks shapes, value ranges, and that the
    bimodules' acting rings are exactly the two corner rings; the algebraic
    pairing laws are the job of ``validate_context``.
    """

    __slots__ = ("ring_r", "ring_s", "mod_v", "mod_w", "prod_vw", "prod_wv", "name", "_cache")

    def __init__(self, ring_r: FiniteRing, ring_s: FiniteRing,
                 mod_v: Bimodule, mod_w: Bimodule,
                 prod_vw, prod_wv, name: str | None = None):
        if mod_v.left_ring is not ring_r or mod_v.right_ring is not ring_s:
            raise MalformedTableError(
                "first bimodule must carry a left action of the first ring "
                "and a right action of the second")
        if mod_w.left_ring is not ring_s or mod_w.right_ring is not ring_r:
            raise MalformedTableError(
                "second bimodule must carry a left action of the second ring "
                "and a right action of the first")
        self.ring_r = ring_r
        self.ring_s = ring_s
        self.mod_v = mod_v
        self.mod_w = mod_w
        self.prod_vw = as_table(prod_vw, mod_v.order, mod_w.order, "vw pairing",
                                limit=ring_r.order)
        self.prod_wv = as_table(prod_wv, mod_w.order, mod_v.order, "wv pairing",
                                limit=ring_s.order)
        self.name = name or f"ctx({ring_r.name},{mod_v.name},{mod_w.name},{ring_s.name})"
        self._cache: dict = {}

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.ring_r.order, self.mod_v.order, self.mod_w.order, self.ring_s.order)

    @property
    def order(self) -> int:
        kr, mv, mw, ks = self.dims
        return kr * mv * mw * ks

    def encode(self, r, v, w, s):
        """Element index of the slots (r, v, w, s); elementwise on arrays."""
        _, mv, mw, ks = self.dims
        return ((r * mv + v) * mw + w) * ks + s

    def decode(self, index: int) -> tuple[int, int, int, int]:
        _, mv, mw, ks = self.dims
        index, s = divmod(index, ks)
        index, w = divmod(index, mw)
        r, v = divmod(index, mv)
        return (r, v, w, s)

    def __repr__(self) -> str:
        return f"<MoritaContext {self.name} dims={self.dims}>"


# -- validation ---------------------------------------------------------------


def validate_context(ctx: MoritaContext) -> ValidationReport:
    """Check the pairing laws (and re-check both bimodules) at generator
    width; when that fails, scan every law in full for one lex-first
    witness each.

    Twelve laws read off the 2×2 rule (``_rule``): biadditivity of each
    pairing, and associativity on the eight slot triples with a pairing in
    them (linearity over the four ring actions, two balance laws, two mixed
    associativity laws). With the bimodule axioms these make the rule
    associative, so no cubic check on the built ring is needed. The tables
    are read-only, so the violations are found once per context and kept
    in its cache; the subject line names the context as it is called now.
    """
    if "violations" not in ctx._cache:
        reports = [validate_bimodule(ctx.mod_v), validate_bimodule(ctx.mod_w)]
        violations: list[Violation] = []
        if not (all(sub.ok for sub in reports) and _pairings_hold(ctx)):
            for tag, sub in zip("vw", reports):
                violations.extend(Violation(f"{tag}:{v.law}", v.witness) for v in sub.violations)
            adds = [c.add for c in _carriers(ctx)]
            violations += violations_of(_pairing_checks(
                ctx, lambda op, y, out: additive_first(op, adds[y], adds[out]),
                lambda op, y, out: additive_second(op, adds[y], adds[out]),
                lambda x, y, z, *tables: associative(*tables)))
        ctx._cache["violations"] = tuple(violations)
    return ValidationReport(f"context {ctx.name}", ctx._cache["violations"])


def _pairings_hold(ctx: MoritaContext) -> bool:
    """The twelve pairing laws at generator width, for a context whose
    bimodules hold. The corner rings, perhaps unvalidated, must be abelian
    under + with · distributing over it (``checked_generators``). Each
    biadditivity row is then checked with one summand over generators
    (``additive_on``); once all four hold, every slot triple's two sides
    are additive in each slot, so triples of generators decide associativity."""
    carriers = _carriers(ctx)
    gens = [checked_generators(c) if k in (_R, _S) else c.addgroup.generators
            for k, c in enumerate(carriers)]
    if gens[_R] is None or gens[_S] is None:
        return False
    adds, zeros = [c.add for c in carriers], [c.zero for c in carriers]
    checks = _pairing_checks(
        ctx, lambda op, y, out: additive_on(op, adds[y], adds[out], gens[y], zeros[y]),
        lambda op, y, out: additive_on(op.T, adds[y], adds[out], gens[y], zeros[y]),
        lambda x, y, z, *tables: associative_on(gens[x], gens[y], gens[z], *tables))
    # lazily, in table order: the biadditivity rows come first, as the triples rest on them
    return all(ok for _, ok in checks)


def _pairing_checks(ctx: MoritaContext, first, second, triple):
    """(law, result) for each pairing law, lazily and in table order. A row
    (x, x, z) runs ``first(op, x, out)`` on op = the table of x·z, which
    lands in slot ``out``: is it additive in x? A row (x, z, z) runs
    ``second(op, z, out)``: is x·z additive in z? Any other triple runs
    ``triple(x, y, z, ab, bc, ab_c, a_bc)`` on ``associative``'s tables."""
    rule = _rule(ctx)
    for law, x, y, z in _PAIRING_LAWS:
        if x == y:
            yield law, first(rule[y, z], y, _lands(y, z))
        elif y == z:
            yield law, second(rule[x, y], y, _lands(x, y))
        else:
            yield law, triple(x, y, z, rule[x, y], rule[y, z], rule[_lands(x, y), z],
                              rule[x, _lands(y, z)])


# -- the context ring -----------------------------------------------------------


def _require_ring(ctx: MoritaContext, cap: int) -> None:
    """CapacityError wherever ``build_context_ring`` would refuse T: its order
    over ``cap``, checked on every call, or, unless T is built, its tables
    over physical memory. Nothing is allocated first."""
    n = ctx.order
    kr, mv, mw, ks = ctx.dims
    nbytes = sum(index_dtype(n).itemsize * k * n + index_dtype(k).itemsize * k * k
                 for k in (kr * mv, mw * ks))       # each half's rows of mul and its + table
    if n > cap:
        raise CapacityError(f"context ring of {ctx.name} has order {n}, over the cap {cap} "
                            f"(tables need {_mib(nbytes)} MiB)", cap)
    if "ring" not in ctx._cache:
        _require_memory(nbytes, f"context ring of {ctx.name} has order {n}")


def build_context_ring(ctx: MoritaContext, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """The ring of 2×2 slot arrays over the context (cached on the context).

    Addition is slotwise. Multiplication follows the array rule: the
    diagonal slots collect a ring product plus a pairing value, the off-
    diagonal slots collect the two one-sided actions. Zero and one are the
    diagonal embeddings of the corner identities. Elements are labelled by
    their slots. ``cap`` is checked on every call, cached or not, and the
    error gives the MiB the tables would need.

    Slotwise addition makes T additively the direct sum (R⊕V) ⊕ (W⊕S):
    the ring's ``addgroup`` is a ``SumGroup`` over two half tables of
    (|R|·|V|)² and (|W|·|S|)² entries, and T's n×n addition table is never
    stored. Each slot of a product reads four of the eight coordinates.
    Small slot tables rr[r1,v1,r2,w2] + vv[r1,v1,v2,s2], scaled to their
    place in the index, give the (r, v) half of every product: the table
    ``top`` of |R|·|V| × n entries, row (r1, v1) times every y. And
    ww[w1,s1,r2,w2] + ss[w1,s1,v2,s2] give the (w, s) half, ``bottom`` of
    |W|·|S| × n entries: the first row of x·y reads only the first row of
    x, the second only the second. ``mul`` is the ``SplitTable`` of the
    two, x·y = top[hi(x), y] + bottom[lo(x), y] with (hi, lo) the digits
    of the addition's ``SumGroup``, so no n×n table of T's products is
    formed (ex2.4: two tables of 512 KiB, where the n×n one took 32 MiB).
    The halves and the slot tables are in ``index_dtype(n)`` (uint16 up to
    order 65 536), each + table in that of its own order: each partial sum
    is an index below n, and each place value is at most n/2, as R and S
    have two elements or more, so nothing wraps.
    Tables that would not fit in physical memory raise CapacityError under
    any cap, before they are allocated (``_require_ring``).
    """
    _require_ring(ctx, cap)
    if "ring" in ctx._cache:
        return ctx._cache["ring"]
    n, (kr, mv, mw, ks) = ctx.order, ctx.dims
    R, S, V, W = ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w
    pr, pv, pw, dtype = mv * mw * ks, mw * ks, ks, index_dtype(n)    # place values

    def grid(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = x[:, :], y[:, :]     # whole: a corner that is itself a context ring has a SplitTable
        return x[:, None, :, None], y[None, :, None, :]     # x[a, b], y[c, d] at [a, c, b, d]

    def half(first, second) -> AddGroup:                    # first ⊕ second, as one table
        group = SumGroup(first.addgroup, second.addgroup)
        idx = np.arange(group.order)
        table = group.sums(idx[:, None], idx)
        table.setflags(write=False)
        return AddGroup(table, group.zero)

    def slot(group, x, y, place: int) -> np.ndarray:  # the cast fixes the dtype, not `place`
        return group.sums(*grid(x, y)).astype(dtype) * place

    rr = slot(R.addgroup, R.mul, ctx.prod_vw, pr).reshape(kr, mv, 1, 1, kr, 1, mw, 1)
    vv = slot(V.addgroup, V.left_act, V.right_act, pv).reshape(kr, mv, 1, 1, 1, mv, 1, ks)
    ww = slot(W.addgroup, W.right_act, W.left_act, pw).reshape(1, 1, mw, ks, kr, 1, mw, 1)
    ss = slot(S.addgroup, ctx.prod_wv, S.mul, 1).reshape(1, 1, mw, ks, 1, mv, 1, ks)
    top, bottom = (rr + vv).reshape(kr * mv, n), (ww + ss).reshape(mw * ks, n)
    for half_rows in (top, bottom):                 # read-only: the ring takes them uncopied
        half_rows.setflags(write=False)
    group = SumGroup(half(R, V), half(W, S))

    def slot_label(index: int) -> str:
        r, v, w, s = ctx.decode(index)
        return f"({R.label(r)}, {V.label(v)}, {W.label(w)}, {S.label(s)})"

    ring = FiniteRing(
        group, SplitTable(top, bottom, group.digits),
        zero=ctx.encode(R.zero, V.zero, W.zero, S.zero),
        one=ctx.encode(R.one, V.zero, W.zero, S.one),
        name=f"T({ctx.name})", label_fn=slot_label,
    )
    ctx._cache["ring"] = ring
    return ring


def build_ks_context(ring: FiniteRing, s: int) -> MoritaContext:
    """The one-ring context with all four carriers equal and pairings s·x·y.

    ``s`` (an element index of ``ring``) must be central; the witness in
    the centrality error is the element it fails to commute with.
    """
    s_idx = int(s)
    if not 0 <= s_idx < ring.order:
        raise MalformedTableError(f"scalar index {s_idx} out of range for {ring.name}")
    clash = ring.mul[s_idx] != ring.mul[:, s_idx]
    if clash.any():
        other = int(np.flatnonzero(clash)[0])
        raise CentralityError(
            f"scalar {ring.label(s_idx)} is not central in {ring.name}: "
            f"it does not commute with {ring.label(other)}", other)
    mod_v = ring_bimodule(ring)
    mod_w = ring_bimodule(ring)
    pair = ring.mul[ring.mul[s_idx], :]          # [x, y] = s*x*y
    return MoritaContext(ring, ring, mod_v, mod_w, pair, pair,
                         name=f"ks({ring.name},{ring.label(s_idx)})")


# -- product spans ------------------------------------------------------------


def product_span_vw(ctx: MoritaContext) -> int:
    """Additive span, in the first ring, of all first-pairing values."""
    if "span_vw" not in ctx._cache:
        ctx._cache["span_vw"] = ctx.ring_r.addgroup.span_mask(distinct(ctx.prod_vw, ctx.ring_r.order))
    return ctx._cache["span_vw"]


def product_span_wv(ctx: MoritaContext) -> int:
    """Additive span, in the second ring, of all second-pairing values."""
    if "span_wv" not in ctx._cache:
        ctx._cache["span_wv"] = ctx.ring_s.addgroup.span_mask(distinct(ctx.prod_wv, ctx.ring_s.order))
    return ctx._cache["span_wv"]


def is_surjective_context(ctx: MoritaContext) -> bool:
    """Do the pairing values span both corner rings additively?

    This is the hypothesis gating every converse direction: with full
    spans, corner-level facts lift back to the whole ring.
    """
    return (product_span_vw(ctx) == full_mask(ctx.ring_r.order)
            and product_span_wv(ctx) == full_mask(ctx.ring_s.order))


# -- the 2×2 slot product rule -------------------------------------------------

_R, _V, _W, _S = range(4)                   # slot numbers, in index order
_SLOTS = ((_R,), (_V,), (_W,), (_S,))       # the four slots, each a group of one
_SIDEDNESS = ("two", "bi", "bi", "two")     # each slot's part of a two-sided ideal


def _carriers(ctx: MoritaContext) -> tuple:
    return (ctx.ring_r, ctx.mod_v, ctx.mod_w, ctx.ring_s)


def _grid(ctx: MoritaContext, parts) -> np.ndarray:
    """The elements of T in every part, as a bool grid of shape ``dims``.
    ``parts`` pairs slot groups that together cover all four slots (one slot,
    or a block's two, the first most significant) with bool arrays over them."""
    return functools.reduce(np.logical_and, (
        inside.reshape([n if k in group else 1 for k, n in enumerate(ctx.dims)])
        for group, inside in parts))


def _parts(ctx: MoritaContext, in_t: np.ndarray, groups) -> list[np.ndarray]:
    """A subset of T (bool, flat or as the grid) projected onto each group
    of slots: ``any`` over the other axes."""
    grid = in_t.reshape(ctx.dims)
    return [grid.any(axis=tuple(k for k in range(4) if k not in group)).ravel()
            for group in groups]


def _projected(ctx: MoritaContext, u, sidedness: str, groups, cap: int) -> list[int]:
    """``_parts`` of a ``sidedness`` ideal of T given by its mask ``u``, as
    masks: ``decompose_ideal`` and ``side_decomposition``. ``u`` is verified
    in T, built under the order cap ``cap`` (NotAnIdealError)."""
    ideal = verify_ideal(build_context_ring(ctx, cap), as_mask(u), sidedness)
    return [mask_from_bool(x) for x in _parts(ctx, bool_array(ideal.members, ctx.order), groups)]


class _SlotProduct(NamedTuple):
    """A slot times a whole carrier, landing in another slot: ``table[x, y]``
    is x·y for x in slot ``src`` and y in slot ``carrier``, or y·x when
    ``carrier_first``."""

    law: str
    src: int
    dst: int
    table: np.ndarray
    carrier: int
    carrier_first: bool


def _rule(ctx: MoritaContext) -> dict:
    """The 2×2 rule's eight nonzero slot products: ``rule[x, y][a, b]`` is
    a·b for a in slot x and b in slot y, landing in slot ``_lands(x, y)``."""
    V, W = ctx.mod_v, ctx.mod_w
    return {(_R, _R): ctx.ring_r.mul, (_R, _V): V.left_act, (_V, _W): ctx.prod_vw,
            (_V, _S): V.right_act, (_W, _R): W.right_act, (_W, _V): ctx.prod_wv,
            (_S, _W): W.left_act, (_S, _S): ctx.ring_s.mul}


def _lands(x: int, y: int) -> int:
    """Slot (i, j) is number 2i + j, and (i, j)·(j, k) lands in (i, k)."""
    return (x & 2) | (y & 1)


# The pairing laws as (law, x, y, z), x, y, z the slots of the witness:
# (x, x, z) is x·z additive in x, (x, z, z) additive in z, and any other
# triple the associativity of the rule on x·y·z.
_PAIRING_LAWS = (
    ("vw-additive-first", _V, _V, _W),          # (v1+v2)w = v1w + v2w
    ("vw-additive-second", _V, _W, _W),
    ("wv-additive-first", _W, _W, _V),
    ("wv-additive-second", _W, _V, _V),
    ("vw-left-linear", _R, _V, _W),             # (rv)w = r(vw)
    ("vw-right-linear", _V, _W, _R),
    ("wv-left-linear", _S, _W, _V),
    ("wv-right-linear", _W, _V, _S),
    ("vw-balanced", _V, _S, _W),                # (vs)w = v(sw)
    ("wv-balanced", _W, _R, _V),
    ("vwv-associative", _V, _W, _V),            # (vw)v' = v(wv')
    ("wvw-associative", _W, _V, _W),
)


def _slot_products(ctx: MoritaContext) -> tuple[_SlotProduct, ...]:
    """The eight cross-slot products of the 2×2 rule. A slotted ideal is
    closed under each (its law), and a one-sided ideal's blocks carry each
    other through the four with the carrier on its absorbing side."""
    rule = _rule(ctx)
    return (
        _SlotProduct("v_part*W<=r_part", _V, _R, rule[_V, _W], _W, False),
        _SlotProduct("w_part*V<=s_part", _W, _S, rule[_W, _V], _V, False),
        _SlotProduct("r_part*V<=v_part", _R, _V, rule[_R, _V], _V, False),
        _SlotProduct("s_part*W<=w_part", _S, _W, rule[_S, _W], _W, False),
        _SlotProduct("V*w_part<=r_part", _W, _R, rule[_V, _W].T, _V, True),
        _SlotProduct("W*v_part<=s_part", _V, _S, rule[_W, _V].T, _W, True),
        _SlotProduct("V*s_part<=v_part", _S, _V, rule[_V, _S].T, _V, True),
        _SlotProduct("W*r_part<=w_part", _R, _W, rule[_W, _R].T, _W, True),
    )


def _colon(ctx: MoritaContext, product: _SlotProduct, in_target: np.ndarray) -> np.ndarray:
    """The x of the source carrier whose products with the whole acting
    carrier lie in the target. Products are additive in y and the target is
    a subgroup, so y runs over the acting carrier's additive generators."""
    gens = _carriers(ctx)[product.carrier].addgroup.generators
    return in_target[product.table[:, gens]].all(axis=1)


# -- two-sided ideals in slot form ----------------------------------------------


@dataclass(frozen=True)
class IdealQuadruple:
    """A two-sided ideal of a context ring, sliced into its four slots. The
    slots are taken as given, as ``enumerate_context_ideals`` and
    ``decompose_ideal`` derive them, or as ``of`` wraps the parts of an ideal
    ``is_slotted_ideal`` has decided, which checks a hand-built one at any
    order."""

    context: MoritaContext
    r_part: Ideal
    v_part: Submodule
    w_part: Submodule
    s_part: Ideal
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:    # the order, computed once: the slots never change
        object.__setattr__(self, "size", self.r_part.size * self.v_part.size
                           * self.w_part.size * self.s_part.size)

    @classmethod
    def of(cls, ctx: MoritaContext, masks) -> IdealQuadruple:
        """The quadruple of the four slot masks (R, V, W, S), taken as given."""
        i_mask, v1_mask, w1_mask, j_mask = masks
        return cls(ctx, Ideal(ctx.ring_r, i_mask, "two"), Submodule(ctx.mod_v, v1_mask, "bi"),
                   Submodule(ctx.mod_w, w1_mask, "bi"), Ideal(ctx.ring_s, j_mask, "two"))

    @property
    def masks(self) -> tuple[int, int, int, int]:
        return (self.r_part.members, self.v_part.members,
                self.w_part.members, self.s_part.members)

    def is_proper(self) -> bool:
        return self.size < self.context.order

    def member_mask(self) -> int:
        """Mask of the corresponding subset of the context ring, cached on
        the context by the four slot masks: the checks ask for the same
        quadruples' masks again and again."""
        key, cache = ("member-mask", self.masks), self.context._cache
        if key not in cache:
            cache[key] = quadruple_mask(self.context, *self.masks)
        return cache[key]

    def __str__(self) -> str:
        return "(" + ", ".join(f"{tag}={c.format_subset(m)}" for tag, c, m
                               in zip("RVWS", _carriers(self.context), self.masks)) + ")"


def quadruple_mask(ctx: MoritaContext, i_mask: int, v1_mask: int,
                   w1_mask: int, j_mask: int) -> int:
    """Members of the context ring whose four slots lie in the four sets."""
    masks = (i_mask, v1_mask, w1_mask, j_mask)
    return mask_from_bool(_grid(ctx, zip(_SLOTS, map(bool_array, masks, ctx.dims))))


def decompose_ideal(ctx: MoritaContext, u, cap: int = DEFAULT_ORDER_CAP) -> IdealQuadruple:
    """Slice a two-sided ideal of the context ring into its slot quadruple:
    its projections onto the four slots, ``u`` verified a two-sided ideal
    of T built under the order cap ``cap``. Check 2.1 names by it each
    ideal of T missing from the slot quadruples; that the quadruples are
    exactly T's ideals is the paper's description, which that check asserts.
    """
    return IdealQuadruple.of(ctx, _projected(ctx, u, "two", _SLOTS, cap))


def enumerate_context_ideals(ctx: MoritaContext,
                             cap: int = DEFAULT_LATTICE_CAP) -> list[IdealQuadruple]:
    """All two-sided ideals of the context ring, as slot quadruples.

    Candidates are ideals of the corner rings crossed with two-sided
    submodules of the carriers, filtered by the eight compatibility
    conditions. Each couples two slots, so it is decided pairwise, for
    all pairs at once by ``generator_table``: the sups, the target slot's
    members, are submodules on the source members' side, and so is each
    one's colon (the products are biadditive and the acting slot absorbs),
    so a source member lies in it exactly when its recorded generators'
    products with the acting slot's additive generators lie in the target.
    The corner and carrier lattices and the result each count against ``cap``.
    """
    key = ("quadruples", cap)
    if key in ctx._cache:
        return ctx._cache[key]
    r_ideals = enumerate_ideals(ctx.ring_r, "two", cap)
    s_ideals = enumerate_ideals(ctx.ring_s, "two", cap)
    v_subs = enumerate_submodules(ctx.mod_v, "bi", cap)
    w_subs = enumerate_submodules(ctx.mod_w, "bi", cap)

    # holds[dst, src][t, x]: the law from slot src into slot dst, between the
    # t-th lattice member of dst and the x-th of src. Each coupling of a
    # corner with a module slot is the two laws between them.
    masks = [[c.members for c in lattice] for lattice in (r_ideals, v_subs, w_subs, s_ideals)]
    gens = [c.member_generators(sd, m) for c, sd, m in zip(_carriers(ctx), _SIDEDNESS, masks)]
    holds = {}
    for p in _slot_products(ctx):
        image = p.table[gens[p.src][:, :, None], _carriers(ctx)[p.carrier].addgroup.generators]
        holds[p.dst, p.src] = generator_table(masks[p.dst], image.reshape(len(image), -1),
                                              ctx.dims[p.dst])
    ok_iv, ok_iw = holds[_R, _V] & holds[_V, _R].T, holds[_R, _W] & holds[_W, _R].T
    ok_jv, ok_jw = holds[_S, _V] & holds[_V, _S].T, holds[_S, _W] & holds[_W, _S].T

    found: list[IdealQuadruple] = []
    for a, d in np.ndindex(len(r_ideals), len(s_ideals)):
        vs, ws = np.flatnonzero(ok_iv[a] & ok_jv[d]), np.flatnonzero(ok_iw[a] & ok_jw[d])
        if len(found) + vs.size * ws.size > cap:
            raise CapacityError(f"two-sided ideal lattice of T({ctx.name}) exceeds cap {cap}", cap)
        found += [IdealQuadruple(ctx, r_ideals[a], v_subs[b], w_subs[c], s_ideals[d])
                  for b in vs for c in ws]
    found.sort(key=lambda q: (q.size,) + q.masks)
    ctx._cache[key] = found
    return found


def is_slotted_ideal(ctx: MoritaContext, masks, sidedness: str) -> Verdict:
    """Is the product of the four slot subsets ``masks`` (R, V, W, S) an ideal
    of the context ring of the given sidedness? Decided slotwise; no table
    of T is read, at any order.

    A product of subsets is a subgroup exactly when each is, and it absorbs
    T on a side exactly when each slot is a submodule on that side
    (``check_closed``) and the four cross-slot products with the carrier on
    that side land in their target slots (all eight for a two-sided ideal),
    each decided by ``_colon`` on the carrier's generators.

    The witness is the first failure in slot terms: a slot that is not
    closed gives its tag and ``check_closed``'s witness, e.g. ("R", "add",
    a, b); otherwise the first broken law in ``_slot_products`` order is
    scanned in full for its lex-first pair, (law, slot element, carrier
    element), or (law, carrier element, slot element) for the laws with the
    carrier on the left.
    """
    per_slot = _SIDEDNESS if sidedness == "two" else (sidedness,) * 4
    for tag, carrier, mask, sd in zip("RVWS", _carriers(ctx), masks, per_slot):
        closed = check_closed(carrier, mask, sd)
        if not closed:
            return Verdict(False, (tag, *closed.witness))
    inside = [bool_array(m, n) for m, n in zip(masks, ctx.dims)]
    for p in _slot_products(ctx):
        if sidedness != "two" and p.carrier_first != (sidedness == "left"):
            continue
        if _colon(ctx, p, inside[p.dst])[inside[p.src]].all():
            continue
        members = np.flatnonzero(inside[p.src])
        bad = ~inside[p.dst][p.table[members]]          # [slot element, carrier element]
        if p.carrier_first:
            y, x = np.argwhere(bad.T)[0]
            return Verdict(False, (p.law, int(y), int(members[x])))
        x, y = np.argwhere(bad)[0]
        return Verdict(False, (p.law, int(members[x]), int(y)))
    return Verdict(True)


# -- T's primes lifted from its corners ---------------------------------------------


def context_prime_spectrum(ctx: MoritaContext, cap: int) -> tuple[frozenset, tuple]:
    """T's prime ideals as slot masks (R, V, W, S), lifted from the corners'
    primes (``prime_spectrum`` under ``cap``), and their slotwise meet, the
    prime radical; cached. No table or lattice of T is read.

    T has idempotents e11 and e22 with corners R and S, and no prime of T
    contains both. Those without e11 are the P_p = (p, {v : vW ⊆ p},
    {w : Vw ⊆ p}, {s : VsW ⊆ p}) for p in Spec R, those without e22 mirror
    them from Spec S (A. D. Sands, "Radicals and Morita contexts", *J.
    Algebra* 24, 1973). Each slot is the ``_colon`` of the first product
    carrying it into a slot already known, at generator width.
    """
    key = ("spectrum", cap)
    if key in ctx._cache:
        return ctx._cache[key]
    primes: dict = {}
    for corner, ring in ((_R, ctx.ring_r), (_S, ctx.ring_s)):
        for prime in prime_spectrum(ring, cap):
            inside = {corner: bool_array(prime.members, ring.order)}
            for p in _slot_products(ctx):   # one pass: each module slot's product comes first
                if p.dst in inside and p.src not in inside:
                    inside[p.src] = _colon(ctx, p, inside[p.dst])
            primes[tuple(mask_from_bool(inside[k]) for k in range(4))] = None
    meet = [full_mask(n) for n in ctx.dims]
    for masks in primes:
        meet = [m & x for m, x in zip(meet, masks)]
    ctx._cache[key] = (frozenset(primes), tuple(meet))
    return ctx._cache[key]


def lattice_prime_flags(quads: list[IdealQuadruple], cap: int) -> list[tuple[bool, bool] | None]:
    """(prime, semiprime) for each two-sided ideal of ``quads``, None for the
    improper one: prime when its slots are a lifted prime's
    (``context_prime_spectrum`` under ``cap``), semiprime when it contains
    their meet, slotwise (T is finite, hence Artinian: Lam, *A First Course
    in Noncommutative Rings*, §4 and §10)."""
    primes, meet = context_prime_spectrum(quads[0].context, cap)
    return [(q.masks in primes, all(map(is_subset, meet, q.masks))) if q.is_proper() else None
            for q in quads]


# -- one-sided ideals and their block decompositions ------------------------------


def _side_blocks(side: str) -> tuple:
    """The slot pairs of a ``side``-sided ideal's two coordinate blocks; the
    corner ring acting on a block acts on each of its slots from ``side``."""
    blocks = {"right": ((_R, _W), (_V, _S)), "left": ((_R, _V), (_W, _S))}
    if side not in blocks:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return blocks[side]


def _pair_views(ctx: MoritaContext, side: str) -> tuple[ModuleView, ModuleView]:
    """One-sided module structures on the two coordinate blocks (cached).
    Block element (a, b) of slots (k1, k2) sits at a*|k2| + b: a view's
    additive group is the ``SumGroup`` of its two slot carriers' groups, so
    it holds only its action table, in ``index_dtype`` of its order, and
    labels are formed on demand. Each slot's action is cast to that dtype
    (the first slot's through the group's ``place``) and the second is
    added a block of rows at a time, so no entry wraps and no wider or
    second table is formed. CapacityError before either block is built
    when the action tables would not fit in physical memory."""
    key = ("pair-views", side)
    if key in ctx._cache:
        return ctx._cache[key]
    carriers = _carriers(ctx)
    blocks = [(carriers[k1], carriers[k2]) for k1, k2 in _side_blocks(side)]
    orders = [A.order * B.order for A, B in blocks]
    _require_memory(sum(index_dtype(m).itemsize * m * A.action(side)[0].order
                        for m, (A, _) in zip(orders, blocks)),
                    f"{side} block views of {ctx.name} have orders {orders[0]} and {orders[1]}")
    views = []
    for A, B in blocks:
        (ring, act_a), (_, act_b) = A.action(side), B.action(side)
        group = SumGroup(A.addgroup, B.addgroup)
        (a, b), dtype = group.digits, group.place.dtype
        act = np.empty((ring.order, group.order), dtype)
        step = max(1, _BLOCK // group.order)        # rows: no second whole table
        for lo in range(0, ring.order, step):       # a·|B| + b, in the view's dtype
            rows = slice(lo, lo + step)
            np.add(group.place[act_a[rows]][:, a], act_b[rows].astype(dtype)[:, b], out=act[rows])
        act.setflags(write=False)                   # read-only: the view takes it uncopied

        def pair_label(i: int, A=A, B=B) -> str:
            x, y = divmod(i, B.order)
            return f"({A.label(x)}, {B.label(y)})"

        views.append(ModuleView(ring, side, group, act, group.zero,
                                name=f"{A.name}(+){B.name}", label_fn=pair_label))
    ctx._cache[key] = tuple(views)
    return ctx._cache[key]


def _block_products(ctx: MoritaContext, side: str) -> dict:
    """The four slot products that carry a ``side``-sided ideal's blocks into
    each other (the carrier on the absorbing side), keyed by source slot."""
    return {p.src: p for p in _slot_products(ctx) if p.carrier_first == (side == "left")}


def block_ideals(ctx: MoritaContext, side: str,
                 cap: int = DEFAULT_LATTICE_CAP) -> list[tuple[Submodule, Submodule]]:
    """The ``side``-sided ideals of the context ring as their block pairs
    (N1, N2), submodules of the two block views, in the lattice order of N1
    and then N2. No table of T is read, and no mask of T is formed.

    T is unital with idempotents e11 and e22, so a right ideal U is
    Ue11 ⊕ Ue22: N1 ≤ R⊕W and N2 ≤ V⊕S are right submodules with
    N1·V ⊆ N2 and N2·W ⊆ N1, and every such pair is a right ideal; left
    ideals mirror this with (R⊕V, W⊕S), V·N2 ⊆ N1 and W·N1 ⊆ N2. The sups
    of ``generator_table``, one block's members, are ``side`` submodules
    like the other's, and so is each one's colon (the carrier absorbs the
    view's ring), so a member is carried into a sup exactly when its
    recorded generators' products with the acting carrier's additive
    generators lie there. Each block lattice counts against ``cap``, and
    so does the number of pairs.
    """
    key = ("block-ideals", side, cap)
    if key in ctx._cache:
        return ctx._cache[key]
    blocks, views = _side_blocks(side), _pair_views(ctx, side)
    lattices = [enumerate_submodules(view, side, cap) for view in views]
    products = _block_products(ctx, side)

    # holds[src][t, x]: the x-th member of block src is carried into the t-th
    # member of the other block
    holds = []
    for src, (k1, k2) in enumerate(blocks):
        first, second = products[k1], products[k2]          # one acting carrier
        gens = _carriers(ctx)[first.carrier].addgroup.generators
        hi, lo = (d[views[src].member_generators(side, [x.members for x in lattices[src]])]
                  for d in views[src].addgroup.digits)      # of each member's generators
        image = views[1 - src].addgroup.place[first.table[:, gens][hi]] + second.table[:, gens][lo]
        holds.append(generator_table([t.members for t in lattices[1 - src]],
                                     image.reshape(len(hi), -1), views[1 - src].order))
    pairs = np.argwhere(holds[0].T & holds[1])
    if len(pairs) > cap:
        raise CapacityError(f"{side}-sided ideal lattice of T({ctx.name}) as block pairs "
                            f"exceeds cap {cap}", cap)
    found = [(lattices[0][a], lattices[1][b]) for a, b in pairs]
    ctx._cache[key] = found
    return found


def block_ideal_masks(ctx: MoritaContext, side: str, cap: int = DEFAULT_LATTICE_CAP,
                      order_cap: int = DEFAULT_ORDER_CAP) -> dict[int, tuple[Submodule, Submodule]]:
    """``block_ideals`` keyed by each pair's mask in the context ring, in the
    order (size, mask) of ``enumerate_ideals(T, side)`` (cached). A key is a
    mask of T, so this refuses wherever T would be, under ``order_cap`` on
    every call and before any block lattice (``_require_ring``); T is not built."""
    _require_ring(ctx, order_cap)
    key = ("block-ideal-masks", side, cap)
    if key not in ctx._cache:
        blocks = _side_blocks(side)
        pairs = {mask_from_bool(_grid(ctx, zip(blocks, (bool_array(n.members, n.carrier.order)
                                                        for n in pair)))): pair
                 for pair in block_ideals(ctx, side, cap)}
        ctx._cache[key] = {m: pairs[m] for m in sorted(pairs, key=lambda m: (m.bit_count(), m))}
    return ctx._cache[key]


def slotted_blocks(ctx: MoritaContext, masks, side: str) -> tuple[Submodule, Submodule]:
    """The two coordinate blocks of the product of the slot subsets ``masks``
    (R, V, W, S), as subsets of the ``side`` pair views: each block is the
    product of its two slots' parts, (a, b) at a·|k2| + b as in the views.
    When the product is a ``side``-sided ideal (``is_slotted_ideal``) they
    are its blocks, the pair ``block_ideal_masks`` keys by its mask; no
    table of T is read."""
    inside = [bool_array(m, n) for m, n in zip(masks, ctx.dims)]
    return tuple(Submodule(view, mask_from_bool(np.outer(inside[k1], inside[k2])), side)
                 for view, (k1, k2) in zip(_pair_views(ctx, side), _side_blocks(side)))


def side_decomposition(ctx: MoritaContext, u, side: str,
                       cap: int = DEFAULT_ORDER_CAP) -> tuple[Submodule, Submodule]:
    """The blocks of a ``side``-sided ideal of T given by its mask ``u``: its
    projections onto the two coordinate blocks, as submodules of the pair
    views. Checks 2.1 and 2.2 name by them the ideals of T they find missing
    from the block pairs; an ideal given by slot parts has its blocks from
    ``slotted_blocks``, and every ideal of a side has them from ``block_ideals``.

    ``side`` is checked before T is built (under the order cap ``cap``) or
    scanned, and a mask that fails verification raises NotAnIdealError.
    """
    inside = _projected(ctx, u, side, _side_blocks(side), cap)
    return tuple(Submodule(view, mask, side) for view, mask in zip(_pair_views(ctx, side), inside))


# -- closure sets -----------------------------------------------------------------


@dataclass(frozen=True)
class ClosureSets:
    """The four sets of module elements a pair of corner ideals crushes.

    ``v_into_r`` collects first-module elements all of whose pairings land
    in the first-ring ideal; ``v_into_s`` those crushed from the other side
    into the second-ring ideal; likewise ``w_into_r`` / ``w_into_s`` for
    the second module. Each is always a two-sided submodule of its carrier.
    """

    v_into_r: int
    v_into_s: int
    w_into_r: int
    w_into_s: int

    @property
    def v_agree(self) -> bool:
        return self.v_into_r == self.v_into_s

    @property
    def w_agree(self) -> bool:
        return self.w_into_r == self.w_into_s


def closure_sets(ctx: MoritaContext, i, j) -> ClosureSets:
    """The four closure sets of a corner-ideal pair: the colons of the four
    pairing products (those landing in a corner) at the two ideals. Cached
    by the pair only once both pass the ideal check, so a cached pair needs
    no check and a non-ideal raises on every call."""
    i_mask, j_mask = as_mask(i), as_mask(j)
    key = ("closure-sets", i_mask, j_mask)
    if key in ctx._cache:
        return ctx._cache[key]
    for ring, m, which in ((ctx.ring_r, i_mask, "first"), (ctx.ring_s, j_mask, "second")):
        verdict = check_ideal(ring, m, "two")
        if not verdict:
            raise NotAnIdealError(
                f"{which} argument is not a two-sided ideal of {ring.name}; "
                f"first failure {verdict.witness}")
    in_target = {_R: bool_array(i_mask, ctx.ring_r.order), _S: bool_array(j_mask, ctx.ring_s.order)}
    sets = {(p.src, p.dst): mask_from_bool(_colon(ctx, p, in_target[p.dst]))
            for p in _slot_products(ctx) if p.dst in in_target}
    ctx._cache[key] = ClosureSets(v_into_r=sets[_V, _R], v_into_s=sets[_V, _S],
                                  w_into_r=sets[_W, _R], w_into_s=sets[_W, _S])
    return ctx._cache[key]


# -- prime and semiprime slotted ideals ---------------------------------------------


@dataclass(frozen=True)
class SlotReport:
    """A slotted ideal's elementwise primeness or semiprimeness in T
    (``holds``, with the scan's witness) next to its slot description: the
    same test on each corner, and whether each module slot equals both of
    its closure sets. Checks 2.7 and 2.11 state the theorems relating them."""

    quadruple: IdealQuadruple
    holds: bool
    witness: tuple | int | None
    r_ok: bool
    s_ok: bool
    v_matches: bool
    w_matches: bool
    closures: ClosureSets

    @property
    def cond2(self) -> bool:
        """The slot description: both corners pass and both module slots match."""
        return self.r_ok and self.s_ok and self.v_matches and self.w_matches


def _slot_report(ctx: MoritaContext, quad: IdealQuadruple, test, cap: int) -> SlotReport:
    """``test`` (elementwise primeness or semiprimeness) on the slotted ideal
    in T (order cap ``cap``), then its slot description: ``test`` on each
    corner, and whether each module slot equals both of its closure sets.

    An improper corner passes vacuously: it leaves no elements outside to
    witness a failure, so the defining implication holds by default;
    treating it otherwise would break the slot descriptions on contexts
    whose pairings vanish.
    """
    verdict = test(Ideal(build_context_ring(ctx, cap), quad.member_mask(), "two"))
    sets = closure_sets(ctx, quad.r_part, quad.s_part)
    r_ok, s_ok = (not c.is_proper() or bool(test(c)) for c in (quad.r_part, quad.s_part))
    _, v1_mask, w1_mask, _ = quad.masks
    return SlotReport(quad, bool(verdict), verdict.witness, r_ok, s_ok,
                      v1_mask == sets.v_into_r == sets.v_into_s,
                      w1_mask == sets.w_into_r == sets.w_into_s, sets)


def check_prime_quadruple(ctx: MoritaContext, quad: IdealQuadruple,
                          cap: int = DEFAULT_ORDER_CAP) -> SlotReport:
    """Elementwise primeness of a slotted ideal in T (order cap ``cap``) with
    its slot description. ``quad`` must be an ideal of T (see ``IdealQuadruple``)."""
    return _slot_report(ctx, quad, is_prime_ideal, cap)


def check_semiprime_quadruple(ctx: MoritaContext, quad: IdealQuadruple,
                              cap: int = DEFAULT_ORDER_CAP) -> SlotReport:
    """Elementwise semiprimeness of a slotted ideal in T (order cap ``cap``)
    with its slot description. ``quad`` must be an ideal of T (see ``IdealQuadruple``)."""
    return _slot_report(ctx, quad, is_semiprime_ideal, cap)


# -- radical and quotient ----------------------------------------------------------


def context_prime_radical(ctx: MoritaContext, cap: int = DEFAULT_LATTICE_CAP) -> IdealQuadruple:
    """The prime radical of the context ring, computed slotwise.

    Corner slots are the corner radicals; module slots are the closure
    sets those radicals induce into the first corner (checks 2.5 and 2.9
    and the tests assert that the sets into the second corner agree).
    """
    key = ("radical", cap)
    if key in ctx._cache:
        return ctx._cache[key]
    rad_r = prime_radical(ctx.ring_r, cap)
    rad_s = prime_radical(ctx.ring_s, cap)
    sets = closure_sets(ctx, rad_r, rad_s)
    ctx._cache[key] = IdealQuadruple.of(ctx, (rad_r.members, sets.v_into_r,
                                              sets.w_into_r, rad_s.members))
    return ctx._cache[key]


@dataclass(frozen=True)
class QuotientContextResult:
    """A context quotiented by its prime radical, with each slot's projection
    as an int array."""

    context: MoritaContext
    radical: IdealQuadruple
    proj_r: np.ndarray
    proj_s: np.ndarray
    proj_v: np.ndarray
    proj_w: np.ndarray


def _induced_pairing(pair: np.ndarray, proj_a: np.ndarray, proj_b: np.ndarray,
                     ring_proj: np.ndarray) -> np.ndarray:
    """Push a pairing down to cosets, read at each coset's least member
    (the radical slots form an ideal, so the pairing is constant on cosets)."""
    _, first_a = np.unique(proj_a, return_index=True)
    _, first_b = np.unique(proj_b, return_index=True)
    return ring_proj[pair[np.ix_(first_a, first_b)]]


def quotient_context(ctx: MoritaContext, cap: int = DEFAULT_LATTICE_CAP) -> QuotientContextResult:
    """Quotient every slot by the radical quadruple and reassemble a context.

    Corner rings are quotiented by their radicals, carriers by the radical's
    module slots (over the quotient rings), and the pairings are pushed to
    cosets. The result is not validated here; ``verify_quotient_iso``
    (check 2.10) runs ``validate_context`` on it.
    """
    key = ("quotient", cap)
    if key in ctx._cache:
        return ctx._cache[key]
    radical = context_prime_radical(ctx, cap)
    ring_rq, proj_r = quotient_ring(ctx.ring_r, radical.r_part)
    ring_sq, proj_s = quotient_ring(ctx.ring_s, radical.s_part)
    mod_vq, proj_v = quotient_module(ctx.mod_v, radical.v_part.members,
                                     left=(ring_rq, proj_r), right=(ring_sq, proj_s))
    mod_wq, proj_w = quotient_module(ctx.mod_w, radical.w_part.members,
                                     left=(ring_sq, proj_s), right=(ring_rq, proj_r))
    pair_vw = _induced_pairing(ctx.prod_vw, proj_v, proj_w, proj_r)
    pair_wv = _induced_pairing(ctx.prod_wv, proj_w, proj_v, proj_s)
    quotient = MoritaContext(ring_rq, ring_sq, mod_vq, mod_wq, pair_vw, pair_wv,
                             name=f"{ctx.name}/rad")
    result = QuotientContextResult(quotient, radical, proj_r, proj_s, proj_v, proj_w)
    ctx._cache[key] = result
    return result


def verify_quotient_iso(ctx: MoritaContext, cap: int = DEFAULT_LATTICE_CAP,
                        order_cap: int = DEFAULT_ORDER_CAP) -> Verdict:
    """Check that the ring modulo its radical is the ring of the quotient context.

    By the first isomorphism theorem T/ker π ≅ im π, so T is never
    quotiented: the quotient context must validate (its T′ is then a ring),
    and the slotwise projection π: T → T′ must have the radical as its
    kernel, be onto, and be a ring map. The witness is ("context",) when
    the quotient context breaks a law, ("kernel",) or ("onto",) for the
    wrong kernel or image, else ``verify_ring_map``'s, with a, b elements
    of T. ``cap`` bounds the lattices, ``order_cap`` T's order.
    """
    ring = build_context_ring(ctx, order_cap)
    qres = quotient_context(ctx, cap)
    if not validate_context(qres.context).ok:
        return Verdict(False, ("context",))
    target = build_context_ring(qres.context, cap=ring.order)   # never larger than ring
    proj = qres.context.encode(*np.ix_(qres.proj_r, qres.proj_v, qres.proj_w, qres.proj_s)).ravel()
    if mask_from_bool(proj == target.zero) != qres.radical.member_mask():
        return Verdict(False, ("kernel",))
    if distinct(proj, target.order).size != target.order:
        return Verdict(False, ("onto",))
    return verify_ring_map(ring, target, proj)


# -- whole-ring prime and semiprime facts --------------------------------------------


def _prime_module(mod: Bimodule) -> bool:
    """Is zero a prime submodule of the carrier on each side?

    The one-point module fails by convention: a prime submodule must be
    proper, and its only submodule is the whole thing.
    """
    return mod.order > 1 and all(is_prime_submodule(mod, 1 << mod.zero, side)
                                 for side in ("left", "right"))


@dataclass(frozen=True)
class RingReport:
    """Primeness or semiprimeness of T itself (``holds``, with the scan's
    witness) next to the same test on each corner and, for primeness only,
    whether each carrier's zero is a prime submodule on each side (``v_ok``
    and ``w_ok``, None for semiprimeness). Checks 2.13 and 2.14 state the
    theorems relating them."""

    holds: bool
    witness: tuple | int | None
    r_ok: bool
    s_ok: bool
    v_ok: bool | None = None
    w_ok: bool | None = None

    @property
    def conds(self) -> tuple[bool, ...]:
        """The paper's graded conditions, strongest first: (1) T itself; for
        primeness (2) both corners and both carriers; then both corners; last
        one corner. Each implies the next; spanning pairings close the loop."""
        corners = (self.r_ok and self.s_ok, self.r_ok or self.s_ok)
        if self.v_ok is None:
            return (self.holds, *corners)
        return (self.holds, corners[0] and self.v_ok and self.w_ok, *corners)


def is_prime_context(ctx: MoritaContext, cap: int = DEFAULT_ORDER_CAP) -> RingReport:
    """Zero-ideal primeness of the built ring, with all slot-level facts."""
    verdict = is_prime_ring(build_context_ring(ctx, cap))
    return RingReport(bool(verdict), verdict.witness, bool(is_prime_ring(ctx.ring_r)),
                      bool(is_prime_ring(ctx.ring_s)),
                      _prime_module(ctx.mod_v), _prime_module(ctx.mod_w))


def is_semiprime_context(ctx: MoritaContext, cap: int = DEFAULT_ORDER_CAP) -> RingReport:
    """Zero-ideal semiprimeness of the built ring, with corner facts."""
    verdict = is_semiprime_ring(build_context_ring(ctx, cap))
    return RingReport(bool(verdict), verdict.witness, bool(is_semiprime_ring(ctx.ring_r)),
                      bool(is_semiprime_ring(ctx.ring_s)))
