"""Contexts: two rings coupled by a pair of bimodules and two pairings.

The data (R, V, W, S, V×W -> R, W×V -> S) determines a ring on formal 2×2
arrays — r and s on the diagonal, v and w off it — provided the pairings
are biadditive, linear over the ring actions, balanced, and mixed-
associative. Everything downstream lives here: building that ring,
splitting its ideals into four slots, the closure sets tying module slots
to corner ideals, prime/semiprime reports for slotted ideals and for the
ring itself, the slotted prime radical, and the quotient construction.

Index convention for the built ring: element (r, v, w, s) sits at
``((r*|V| + v)*|W| + w)*|S| + s``, so slot order is row-major.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitsets import as_mask, bool_array, distinct, full_mask, is_subset, mask_from_bool
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
from .validation import (ValidationReport, Verdict, Violation, additive_first, additive_on,
                         additive_second, as_table, associative, associative_on, violations_of)

__all__ = [
    "MoritaContext",
    "IdealQuadruple",
    "RadicalQuadruple",
    "ClosureSets",
    "OneSidedDecomposition",
    "QuadruplePrimeReport",
    "QuadrupleSemiprimeReport",
    "ContextPrimeReport",
    "ContextSemiprimeReport",
    "QuotientContextResult",
    "DEFAULT_ORDER_CAP",
    "validate_context",
    "build_context_ring",
    "build_ks_context",
    "decompose_ideal",
    "quadruple_conditions",
    "quadruple_mask",
    "enumerate_context_ideals",
    "is_slotted_ideal",
    "ideal_product",
    "lattice_prime_flags",
    "block_ideals",
    "block_ideal_masks",
    "ideal_blocks",
    "side_decomposition",
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

    def component_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Slot coordinates of every element index, as four parallel arrays."""
        if "components" not in self._cache:
            self._cache["components"] = np.unravel_index(np.arange(self.order), self.dims)
            for arr in self._cache["components"]:
                arr.setflags(write=False)
        return self._cache["components"]

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
    associative, so no cubic check on the built ring is needed.
    """
    reports = [validate_bimodule(ctx.mod_v), validate_bimodule(ctx.mod_w)]
    if all(sub.ok for sub in reports) and _pairings_hold(ctx):
        return ValidationReport(f"context {ctx.name}", ())
    violations: list[Violation] = []
    for tag, sub in zip("vw", reports):
        violations.extend(Violation(f"{tag}:{v.law}", v.witness) for v in sub.violations)
    adds = [c.add for c in _carriers(ctx)]
    violations += violations_of(_pairing_checks(
        ctx, lambda op, y, out: additive_first(op, adds[y], adds[out]),
        lambda op, y, out: additive_second(op, adds[y], adds[out]),
        lambda x, y, z, *tables: associative(*tables)))
    return ValidationReport(f"context {ctx.name}", tuple(violations))


def _pairings_hold(ctx: MoritaContext) -> bool:
    """The twelve pairing laws at generator width, for a context whose
    bimodules hold. The corner rings, perhaps unvalidated, must be abelian
    under + with · distributing over it (``checked_generators``). Each
    biadditivity row is then checked with one summand over generators and
    zero; once all four hold, every slot triple's two sides are additive
    in each slot, so triples of generators decide associativity."""
    carriers = _carriers(ctx)
    gens = [checked_generators(c) if k in (_R, _S) else c.addgroup.generators
            for k, c in enumerate(carriers)]
    if gens[_R] is None or gens[_S] is None:
        return False
    adds = [c.add for c in carriers]
    steps = [np.append(g, c.zero) for g, c in zip(gens, carriers)]
    checks = _pairing_checks(
        ctx, lambda op, y, out: additive_on(op, adds[y], adds[out], steps[y]),
        lambda op, y, out: additive_on(op.T, adds[y], adds[out], steps[y]),
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
    Small int32 slot tables rr[r1,v1,r2,w2] + vv[r1,v1,v2,s2], scaled to
    their place in the index, give the (r, v) half of every product;
    ww[w1,s1,r2,w2] + ss[w1,s1,v2,s2] the (w, s) half. One broadcast
    ``np.add`` of the halves fills the 8-axis array
    (r1,v1,w1,s1,r2,v2,w2,s2), which is the n×n ``mul`` in row-major order.
    Tables that would not fit in physical memory raise CapacityError under
    any cap, before they are allocated.
    """
    n = ctx.order
    kr, mv, mw, ks = ctx.dims
    nbytes = 4 * (n * n + (kr * mv) ** 2 + (mw * ks) ** 2)     # int32 mul and half tables
    if n > cap:
        raise CapacityError(f"context ring of {ctx.name} has order {n}, over the cap {cap} "
                            f"(tables need {_mib(nbytes)} MiB)", cap)
    if "ring" in ctx._cache:
        return ctx._cache["ring"]
    _require_memory(nbytes, f"context ring of {ctx.name} has order {n}")
    R, S, V, W = ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w
    pr, pv, pw = np.int32(mv * mw * ks), np.int32(mw * ks), np.int32(ks)   # place values

    def grid(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:, None, :, None], y[None, :, None, :]     # x[a, b], y[c, d] at [a, c, b, d]

    def half(first, second) -> AddGroup:                    # first ⊕ second, as one table
        group = SumGroup(first.addgroup, second.addgroup)
        idx = np.arange(group.order)
        table = group.sums(idx[:, None], idx)
        table.setflags(write=False)
        return AddGroup(table, group.zero)

    rr = (R.addgroup.sums(*grid(R.mul, ctx.prod_vw)) * pr).reshape(kr, mv, 1, 1, kr, 1, mw, 1)
    vv = (V.addgroup.sums(*grid(V.left_act, V.right_act)) * pv).reshape(kr, mv, 1, 1, 1, mv, 1, ks)
    ww = (W.addgroup.sums(*grid(W.right_act, W.left_act)) * pw).reshape(1, 1, mw, ks, kr, 1, mw, 1)
    ss = S.addgroup.sums(*grid(ctx.prod_wv, S.mul)).reshape(1, 1, mw, ks, 1, mv, 1, ks)
    mul = np.add(rr + vv, ww + ss, out=np.empty((kr, mv, mw, ks) * 2, np.int32)).reshape(n, n)
    mul.setflags(write=False)                       # read-only: the ring takes it uncopied

    def slot_label(index: int) -> str:
        r, v, w, s = ctx.decode(index)
        return f"({R.label(r)}, {V.label(v)}, {W.label(w)}, {S.label(s)})"

    ring = FiniteRing(
        SumGroup(half(R, V), half(W, S)), mul,
        zero=ctx.encode(R.zero, V.zero, W.zero, S.zero),
        one=ctx.encode(R.one, V.zero, W.zero, S.one),
        name=f"T({ctx.name})", label_fn=slot_label,
    )
    ctx._cache["ring"] = ring
    return ring


def _context_ring(ctx: MoritaContext) -> FiniteRing:
    """The context ring for helpers that take no cap: the one already built,
    under whatever cap its caller chose, else a build under the default."""
    return ctx._cache.get("ring") or build_context_ring(ctx)


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


def _carriers(ctx: MoritaContext) -> tuple:
    return (ctx.ring_r, ctx.mod_v, ctx.mod_w, ctx.ring_s)


def _at_slots(ctx: MoritaContext, values: dict) -> np.ndarray:
    """Indices of the elements with ``values[k]`` in each slot k it names
    and zero in the other slots; elementwise on arrays."""
    return ctx.encode(*(values.get(k, c.zero) for k, c in enumerate(_carriers(ctx))))


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


# The two slot pairs (x, y) of the rule whose products land in each slot:
# (i, j)·(j', k) is nonzero exactly when j = j'.
_INTO = tuple(tuple((x, y) for x in range(4) for y in range(4)
                    if x & 1 == y >> 1 and _lands(x, y) == dst) for dst in range(4))


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
    """A two-sided ideal of a context ring, sliced into its four slots."""

    context: MoritaContext
    r_part: Ideal
    v_part: Submodule
    w_part: Submodule
    s_part: Ideal

    @property
    def masks(self) -> tuple[int, int, int, int]:
        return (self.r_part.members, self.v_part.members,
                self.w_part.members, self.s_part.members)

    @property
    def size(self) -> int:
        return (self.r_part.size * self.v_part.size
                * self.w_part.size * self.s_part.size)

    def is_proper(self) -> bool:
        return self.size < self.context.order

    def member_mask(self) -> int:
        """Mask of the corresponding subset of the context ring."""
        return quadruple_mask(self.context, *self.masks)

    def conditions(self) -> list[tuple[str, bool, tuple | None]]:
        return quadruple_conditions(self.context, *self.masks)

    def __str__(self) -> str:
        return "(" + ", ".join(f"{tag}={c.format_subset(m)}" for tag, c, m
                               in zip("RVWS", _carriers(self.context), self.masks)) + ")"


@dataclass(frozen=True)
class RadicalQuadruple(IdealQuadruple):
    """The prime radical of a context ring, in the same slot form."""


def quadruple_mask(ctx: MoritaContext, i_mask: int, v1_mask: int,
                   w1_mask: int, j_mask: int) -> int:
    """Members of the context ring whose four slots lie in the four sets."""
    kr, mv, mw, ks = ctx.dims
    keep = (bool_array(i_mask, kr)[:, None, None, None] & bool_array(v1_mask, mv)[:, None, None]
            & bool_array(w1_mask, mw)[:, None] & bool_array(j_mask, ks))    # axes r, v, w, s
    return mask_from_bool(keep.ravel())


def quadruple_conditions(ctx: MoritaContext, i_mask: int, v1_mask: int,
                         w1_mask: int, j_mask: int) -> list[tuple[str, bool, tuple | None]]:
    """The eight compatibility conditions a slot quadruple must satisfy.

    Returns (law, ok, witness) triples in the order of ``_slot_products``.
    The slots must be additively closed, as an ideal's are: a law holds
    when its source slot lies in its colon at the target, decided at
    generator width. A quadruple of closed slots forms an ideal of the
    context ring exactly when all eight hold. A failing law is scanned in
    full for its lex-first witness: (slot element, carrier element), or
    (carrier element, slot element) for the laws with the carrier on the
    left.
    """
    inside = [bool_array(m, n) for m, n in zip((i_mask, v1_mask, w1_mask, j_mask), ctx.dims)]
    found = []
    for p in _slot_products(ctx):
        if _colon(ctx, p, inside[p.dst])[inside[p.src]].all():
            found.append((p.law, True, None))
            continue
        members = np.flatnonzero(inside[p.src])
        bad = ~inside[p.dst][p.table[members]]          # [slot element, carrier element]
        if p.carrier_first:
            y, x = np.argwhere(bad.T)[0]
        else:
            x, y = np.argwhere(bad)[0]
        pair = (int(members[x]), int(y))
        found.append((p.law, False, pair[::-1] if p.carrier_first else pair))
    return found


def decompose_ideal(ctx: MoritaContext, u) -> IdealQuadruple:
    """Slice a two-sided ideal of the context ring into its slot quadruple.

    ``u`` is checked to be a two-sided ideal; its slots are then read off
    along the four axes through zero. That the ideal is exactly the
    slotwise product of closed slots meeting the eight compatibility
    conditions is the paper's description, asserted by check 2.1 and the
    tests rather than re-derived here.
    """
    mask = as_mask(u)
    ring = _context_ring(ctx)
    verify_ideal(ring, mask, "two")
    in_u = bool_array(mask, ring.order)
    i_mask, v1_mask, w1_mask, j_mask = (mask_from_bool(in_u[_at_slots(ctx, {k: np.arange(n)})])
                                        for k, n in enumerate(ctx.dims))
    return IdealQuadruple(ctx, Ideal(ctx.ring_r, i_mask, "two"), Submodule(ctx.mod_v, v1_mask, "bi"),
                          Submodule(ctx.mod_w, w1_mask, "bi"), Ideal(ctx.ring_s, j_mask, "two"))


def enumerate_context_ideals(ctx: MoritaContext,
                             cap: int = DEFAULT_LATTICE_CAP) -> list[IdealQuadruple]:
    """All two-sided ideals of the context ring, as slot quadruples.

    Candidates are ideals of the corner rings crossed with two-sided
    submodules of the carriers, filtered by the eight compatibility
    conditions. Each condition couples exactly two slots, so it is decided
    pairwise: the colon of every lattice member under each slot product is
    taken once, and a law holds where the source member lies inside it.
    The corner and carrier lattices and the result each count against
    ``cap``.
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
    holds = {}
    for p in _slot_products(ctx):
        colons = [mask_from_bool(_colon(ctx, p, bool_array(t, ctx.dims[p.dst])))
                  for t in masks[p.dst]]
        holds[p.dst, p.src] = np.array([[is_subset(x, c) for x in masks[p.src]] for c in colons])
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


def is_slotted_ideal(ctx: MoritaContext, masks, sidedness: str) -> bool:
    """Is the product of the four slot subsets ``masks`` (R, V, W, S) an ideal
    of the context ring of the given sidedness? Decided slotwise; no table
    of T is read.

    A product of subsets is a subgroup exactly when each is, and it absorbs
    T on a side exactly when each slot is a submodule on that side
    (``check_closed``) and the four cross-slot products with the carrier on
    that side land in their target slots (all eight for a two-sided ideal),
    each decided by ``_colon`` on the carrier's generators.
    """
    per_slot = ("two", "bi", "bi", "two") if sidedness == "two" else (sidedness,) * 4
    if not all(check_closed(c, m, sd) for c, m, sd in zip(_carriers(ctx), masks, per_slot)):
        return False
    inside = [bool_array(m, n) for m, n in zip(masks, ctx.dims)]
    return all(_colon(ctx, p, inside[p.dst])[inside[p.src]].all() for p in _slot_products(ctx)
               if sidedness == "two" or p.carrier_first == (sidedness == "left"))


# -- products of two-sided ideals; prime and semiprime flags from covers ---------


def _generators(ctx: MoritaContext, slot: int, mask: int) -> np.ndarray:
    """Greedy additive generators of a subgroup of one slot (cached)."""
    key = ("generators", slot, mask)
    if key not in ctx._cache:
        ctx._cache[key] = _carriers(ctx)[slot].addgroup.subgroup_generators(mask)
    return ctx._cache[key]


def ideal_product(ctx: MoritaContext, a, b) -> tuple[int, int, int, int]:
    """The slot masks of AB, for two-sided ideals A and B of the context ring
    given as ``IdealQuadruple``s or as their four slot masks.

    AB is the additive span of the products ab. A and B are products of
    their slots, so AB is too, and each slot of AB is the span of the two
    rule products landing there (``_rule``):
    R: I·I′ + V₁·W₁′, V: I·V₁′ + V₁·J′, W: W₁·I′ + J·W₁′, S: W₁·V₁′ + J·J′.
    The products are biadditive, so each is spanned from the products of
    the slots' additive generators. No table of T is read. Each slot is
    cached by the four slot masks it depends on.
    """
    a, b = getattr(a, "masks", a), getattr(b, "masks", b)
    rule, memo = _rule(ctx), ctx._cache.setdefault("ideal-product", {})
    out = []
    for dst, carrier in enumerate(_carriers(ctx)):
        key = (dst,) + tuple(m for x, y in _INTO[dst] for m in (a[x], b[y]))
        if key not in memo:
            memo[key] = carrier.addgroup.span_mask(np.concatenate([
                rule[x, y][np.ix_(_generators(ctx, x, a[x]), _generators(ctx, y, b[y]))].ravel()
                for x, y in _INTO[dst]]))
        out.append(memo[key])
    return tuple(out)


def _covers(quads: list[IdealQuadruple]) -> np.ndarray:
    """``covers[p, q]``: quads[q] covers quads[p], i.e. P ⊊ Q with no ideal
    strictly between. Containment is slotwise: each slot's distinct masks
    are compared once, and the lattice's matrix is read off their indices.
    Then covers = strict ∧ ¬(strict·strict), the product taken in float32
    (exact for these counts) a block of rows at a time."""
    n = len(quads)
    contains = np.ones((n, n), dtype=bool)
    for k in range(4):
        distinct = sorted({q.masks[k] for q in quads})
        index = {m: i for i, m in enumerate(distinct)}
        sub = np.array([[is_subset(x, y) for y in distinct] for x in distinct])
        at = np.array([index[q.masks[k]] for q in quads])
        contains &= sub[np.ix_(at, at)]
    np.fill_diagonal(contains, False)
    strict = contains.astype(np.float32)
    step = max(1, 2**22 // n)
    for lo in range(0, n, step):
        contains[lo:lo + step] &= (strict[lo:lo + step] @ strict) == 0
    return contains


def lattice_prime_flags(ctx: MoritaContext,
                        quads: list[IdealQuadruple]) -> list[tuple[bool, bool] | None]:
    """(prime, semiprime) for each ideal of ``quads``, the whole two-sided
    lattice as ``enumerate_context_ideals`` returns it, None for the
    improper one. T is never built.

    T is unital, so a proper ideal P is prime exactly when AB ⊆ P forces
    A ⊆ P or B ⊆ P for two-sided ideals A and B, and semiprime exactly when
    A² ⊆ P forces A ⊆ P (Lam, *A First Course in Noncommutative Rings*, §10).
    Replacing A by A + P and then shrinking it only shrinks the products,
    so A and B may run over the covers of P in the lattice: P is prime when
    no ``ideal_product`` of two of its covers lies inside P, semiprime when
    no cover's square does.
    """
    covers = _covers(quads)
    flags: list[tuple[bool, bool] | None] = []
    for p, quad in enumerate(quads):
        if not quad.is_proper():
            flags.append(None)
            continue
        above = [quads[q].masks for q in np.flatnonzero(covers[p])]

        def inside(a, b, target=quad.masks) -> bool:
            return all(map(is_subset, ideal_product(ctx, a, b), target))

        semiprime = not any(inside(a, a) for a in above)
        prime = semiprime and not any(inside(a, b) for a in above for b in above if a is not b)
        flags.append((prime, semiprime))
    return flags


# -- one-sided ideals and their block decompositions ------------------------------


@dataclass(frozen=True)
class OneSidedDecomposition:
    """A one-sided ideal of a context ring split into two coordinate blocks.

    Right ideals project onto pairs over (first ring, second module) and
    (first module, second ring); left ideals onto (first ring, first
    module) and (second module, second ring). The flags record what holds
    of the blocks: one-sided closure, the solo-matrix embeddings back into
    the ideal, the two cross-block pairing containments, and whether
    blockwise membership reproduces the ideal exactly.
    """

    context: MoritaContext
    side: str
    part1_view: ModuleView
    part2_view: ModuleView
    part1_mask: int
    part2_mask: int
    part1_closed: bool
    part2_closed: bool
    part1_embeds: bool
    part2_embeds: bool
    pairing_1_to_2: bool
    pairing_2_to_1: bool
    reconstructs: bool

    @property
    def blocks(self) -> tuple[Submodule, Submodule]:
        """The two blocks as submodules of their views, as ``block_ideals`` gives them."""
        return (Submodule(self.part1_view, self.part1_mask, self.side),
                Submodule(self.part2_view, self.part2_mask, self.side))

    @property
    def all_hold(self) -> bool:
        return (self.part1_closed and self.part2_closed
                and self.part1_embeds and self.part2_embeds
                and self.pairing_1_to_2 and self.pairing_2_to_1
                and self.reconstructs)


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
    it holds only its int32 action table, and labels are formed on demand.
    CapacityError before either block is built when the action tables would
    not fit in physical memory."""
    key = ("pair-views", side)
    if key in ctx._cache:
        return ctx._cache[key]
    carriers = _carriers(ctx)
    blocks = [(carriers[k1], carriers[k2]) for k1, k2 in _side_blocks(side)]
    orders = [A.order * B.order for A, B in blocks]
    _require_memory(sum(4 * m * A.action(side)[0].order for m, (A, _) in zip(orders, blocks)),
                    f"{side} block views of {ctx.name} have orders {orders[0]} and {orders[1]}")
    views = []
    for A, B in blocks:
        (ring, act_a), (_, act_b) = A.action(side), B.action(side)
        group = SumGroup(A.addgroup, B.addgroup)
        a, b = group.digits
        act = act_a[:, a]
        act *= B.order
        act += act_b[:, b]
        act.setflags(write=False)                   # read-only int32: the view takes it uncopied

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
    ideals mirror this with (R⊕V, W⊕S), V·N2 ⊆ N1 and W·N1 ⊆ N2. Each
    containment couples one member of each block lattice: the products are
    biadditive and the target a subgroup, so the colon of each target
    member is taken once on the acting carrier's generators, and a pair is
    compatible where each block lies inside the other's colon. Each block
    lattice counts against ``cap``, and so does the number of pairs.
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
    for src, ((k1, k2), (_, d2)) in enumerate(zip(blocks, blocks[::-1])):
        first, second = products[k1], products[k2]          # one acting carrier
        gens = _carriers(ctx)[first.carrier].addgroup.generators
        hi, lo = views[src].addgroup.digits
        image = first.table[hi][:, gens] * ctx.dims[d2] + second.table[lo][:, gens]
        target = views[1 - src].order
        colons = [mask_from_bool(bool_array(t.members, target)[image].all(axis=1))
                  for t in lattices[1 - src]]
        holds.append(np.array([[is_subset(x.members, c) for x in lattices[src]]
                               for c in colons]))
    pairs = np.argwhere(holds[0].T & holds[1])
    if len(pairs) > cap:
        raise CapacityError(f"{side}-sided ideal lattice of T({ctx.name}) as block pairs "
                            f"exceeds cap {cap}", cap)
    found = [(lattices[0][a], lattices[1][b]) for a, b in pairs]
    ctx._cache[key] = found
    return found


def _block_coords(ctx: MoritaContext, side: str) -> list[np.ndarray]:
    """Each element of T's coordinate in the two ``side`` block views (cached)."""
    key = ("block-coords", side)
    if key not in ctx._cache:
        dims, comps = ctx.dims, ctx.component_arrays()
        ctx._cache[key] = [comps[k1] * dims[k2] + comps[k2] for k1, k2 in _side_blocks(side)]
    return ctx._cache[key]


def _block_mask(ctx: MoritaContext, side: str, part1: Submodule, part2: Submodule) -> int:
    """Members of the context ring whose two ``side`` blocks lie in ``part1``
    and ``part2``: the meet of the two parts' preimages in T, each cached by
    its block mask."""
    views = _pair_views(ctx, side)
    coords, memo = _block_coords(ctx, side), ctx._cache.setdefault(("block-preimage", side), {})
    found = full_mask(ctx.order)
    for k, part in enumerate((part1.members, part2.members)):
        if (k, part) not in memo:
            memo[k, part] = mask_from_bool(bool_array(part, views[k].order)[coords[k]])
        found &= memo[k, part]
    return found


def block_ideal_masks(ctx: MoritaContext, side: str,
                      cap: int = DEFAULT_LATTICE_CAP) -> dict[int, tuple[Submodule, Submodule]]:
    """``block_ideals`` keyed by each pair's mask in the context ring."""
    return {_block_mask(ctx, side, *pair): pair for pair in block_ideals(ctx, side, cap)}


def ideal_blocks(ctx: MoritaContext, ideals, side: str,
                 cap: int = DEFAULT_LATTICE_CAP) -> list[tuple[Submodule, Submodule]]:
    """The block pair (N1, N2) of each ``side``-sided ideal of the context
    ring in ``ideals`` (masks or ideals), read from ``block_ideal_masks``.

    On a validated context every one-sided ideal of T is one compatible
    pair (the block theorem), so a mask that no pair gives is no ``side``
    ideal of T and raises NotAnIdealError.
    """
    pairs = block_ideal_masks(ctx, side, cap)
    found = []
    for mask in map(as_mask, ideals):
        if mask not in pairs:
            raise NotAnIdealError(f"subset {mask:#x} of T({ctx.name}) is not a {side}-sided "
                                  f"ideal: no compatible block pair gives it")
        found.append(pairs[mask])
    return found


def side_decomposition(ctx: MoritaContext, u, side: str) -> OneSidedDecomposition:
    """Project a one-sided ideal onto its two coordinate blocks and audit them.

    Every flag in the result is computed, not assumed; for genuine
    one-sided ideals they all come out true. The pairing flags send a
    block's members through the slot products with the carrier on the
    absorbing side. ``block_ideals`` gives the same blocks for every ideal
    of a side at once; this audit serves one ideal: ``moritactx decompose``
    and ``example``, and the ideals checks 2.1 and 2.2 find missing from
    the block pairs.

    ``side`` is checked before T is built or scanned, and a mask that fails
    verification raises NotAnIdealError.
    """
    blocks = _side_blocks(side)
    ideal = verify_ideal(_context_ring(ctx), as_mask(u), side)
    views = _pair_views(ctx, side)
    dims = ctx.dims
    in_u = bool_array(ideal.members, ctx.order)
    coords = _block_coords(ctx, side)
    inside = [np.bincount(c[in_u], minlength=v.order) > 0 for c, v in zip(coords, views)]
    solos = [dict(zip(slots, np.divmod(np.flatnonzero(ins), dims[slots[1]])))
             for slots, ins in zip(blocks, inside)]          # each block's members, by slot
    products = _block_products(ctx, side)

    def carried(src: int) -> bool:
        image = {p.dst: p.table[solos[src][k]] for k, p in products.items() if k in solos[src]}
        k1, k2 = blocks[1 - src]
        return bool(inside[1 - src][image[k1] * dims[k2] + image[k2]].all())

    part_masks = [mask_from_bool(x) for x in inside]
    closed = [bool(check_closed(v, m, side)) for v, m in zip(views, part_masks)]
    embeds = [bool(in_u[_at_slots(ctx, solo)].all()) for solo in solos]
    return OneSidedDecomposition(
        context=ctx, side=side, part1_view=views[0], part2_view=views[1],
        part1_mask=part_masks[0], part2_mask=part_masks[1],
        part1_closed=closed[0], part2_closed=closed[1],
        part1_embeds=embeds[0], part2_embeds=embeds[1],
        pairing_1_to_2=carried(0), pairing_2_to_1=carried(1),
        reconstructs=bool(((inside[0][coords[0]] & inside[1][coords[1]]) == in_u).all()),
    )


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
    pairing products (those landing in a corner) at the two ideals."""
    i_mask, j_mask = as_mask(i), as_mask(j)
    for ring, m, which in ((ctx.ring_r, i_mask, "first"), (ctx.ring_s, j_mask, "second")):
        verdict = check_ideal(ring, m, "two")
        if not verdict:
            raise NotAnIdealError(
                f"{which} argument is not a two-sided ideal of {ring.name}; "
                f"first failure {verdict.witness}")
    in_target = {_R: bool_array(i_mask, ctx.ring_r.order), _S: bool_array(j_mask, ctx.ring_s.order)}
    sets = {(p.src, p.dst): mask_from_bool(_colon(ctx, p, in_target[p.dst]))
            for p in _slot_products(ctx) if p.dst in in_target}
    return ClosureSets(v_into_r=sets[_V, _R], v_into_s=sets[_V, _S],
                       w_into_r=sets[_W, _R], w_into_s=sets[_W, _S])


# -- prime and semiprime slotted ideals ---------------------------------------------


@dataclass(frozen=True)
class QuadruplePrimeReport:
    """Primeness of a slotted ideal, against its corner-and-closure description.

    ``cond2`` is the slot-level description: both corners pass the
    elementwise primeness condition and both module slots equal their
    closure sets (which must also agree pairwise). ``forward_ok`` and
    ``converse_ok`` are the two implications between it and actual
    primeness in the context ring, the converse gated on surjectivity.
    """

    quadruple: IdealQuadruple
    is_prime: bool
    witness: tuple | None
    cond2: bool
    surjective: bool
    r_prime: bool
    s_prime: bool
    v_matches: bool
    w_matches: bool
    closures: ClosureSets

    @property
    def forward_ok(self) -> bool:
        return (not self.is_prime) or self.cond2

    @property
    def converse_ok(self) -> bool:
        return (not (self.cond2 and self.surjective)) or self.is_prime


@dataclass(frozen=True)
class QuadrupleSemiprimeReport:
    """Semiprimeness of a slotted ideal; the two descriptions must agree outright."""

    quadruple: IdealQuadruple
    is_semiprime: bool
    witness: int | None
    cond2: bool
    r_semiprime: bool
    s_semiprime: bool
    v_matches: bool
    w_matches: bool
    closures: ClosureSets

    @property
    def theorem_violation(self) -> bool:
        """True when the elementwise answer and the slot description split."""
        return self.is_semiprime != self.cond2


def _slot_description(ctx: MoritaContext, quad: IdealQuadruple, test) -> tuple:
    """``test`` (elementwise primeness or semiprimeness) on the slotted ideal,
    then its slot description: ``test`` on each corner, and whether each
    module slot equals both of its closure sets.

    An improper corner passes vacuously: it leaves no elements outside to
    witness a failure, so the defining implication holds by default;
    treating it otherwise would break the slot descriptions on contexts
    whose pairings vanish.
    """
    verdict = test(verify_ideal(_context_ring(ctx), quad.member_mask(), "two"))
    sets = closure_sets(ctx, quad.r_part, quad.s_part)
    r_ok, s_ok = (not c.is_proper() or bool(test(c)) for c in (quad.r_part, quad.s_part))
    _, v1_mask, w1_mask, _ = quad.masks
    return (verdict, r_ok, s_ok, v1_mask == sets.v_into_r == sets.v_into_s,
            w1_mask == sets.w_into_r == sets.w_into_s, sets)


def check_prime_quadruple(ctx: MoritaContext, quad: IdealQuadruple) -> QuadruplePrimeReport:
    """Compare elementwise primeness of a slotted ideal with its slot description."""
    verdict, r_prime, s_prime, v_matches, w_matches, sets = _slot_description(
        ctx, quad, is_prime_ideal)
    return QuadruplePrimeReport(
        quadruple=quad, is_prime=bool(verdict), witness=verdict.witness,
        cond2=r_prime and s_prime and v_matches and w_matches,
        surjective=is_surjective_context(ctx),
        r_prime=r_prime, s_prime=s_prime,
        v_matches=v_matches, w_matches=w_matches, closures=sets)


def check_semiprime_quadruple(ctx: MoritaContext, quad: IdealQuadruple) -> QuadrupleSemiprimeReport:
    """Compare elementwise semiprimeness of a slotted ideal with its slot description."""
    verdict, r_semiprime, s_semiprime, v_matches, w_matches, sets = _slot_description(
        ctx, quad, is_semiprime_ideal)
    return QuadrupleSemiprimeReport(
        quadruple=quad, is_semiprime=bool(verdict), witness=verdict.witness,
        cond2=r_semiprime and s_semiprime and v_matches and w_matches,
        r_semiprime=r_semiprime, s_semiprime=s_semiprime,
        v_matches=v_matches, w_matches=w_matches, closures=sets)


# -- radical and quotient ----------------------------------------------------------


def context_prime_radical(ctx: MoritaContext, cap: int = DEFAULT_LATTICE_CAP) -> RadicalQuadruple:
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
    result = RadicalQuadruple(
        ctx, rad_r,
        Submodule(ctx.mod_v, sets.v_into_r, "bi"),
        Submodule(ctx.mod_w, sets.w_into_r, "bi"),
        rad_s)
    ctx._cache[key] = result
    return result


@dataclass(frozen=True)
class QuotientContextResult:
    """A context quotiented by its prime radical, with each slot's projection
    as an int array."""

    context: MoritaContext
    radical: RadicalQuadruple
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


def verify_quotient_iso(ctx: MoritaContext, cap: int = DEFAULT_LATTICE_CAP) -> Verdict:
    """Check that the ring modulo its radical is the ring of the quotient context.

    By the first isomorphism theorem T/ker π ≅ im π, so T is never
    quotiented: the quotient context must validate (its T′ is then a ring),
    and the slotwise projection π: T → T′ must have the radical as its
    kernel, be onto, and be a ring map. The witness is ("context",) when
    the quotient context breaks a law, ("kernel",) or ("onto",) for the
    wrong kernel or image, else ``verify_ring_map``'s, with a, b elements
    of T.
    """
    ring = _context_ring(ctx)
    qres = quotient_context(ctx, cap)
    if not validate_context(qres.context).ok:
        return Verdict(False, ("context",))
    target = build_context_ring(qres.context, cap=ring.order)   # never larger than ring
    r_of, v_of, w_of, s_of = ctx.component_arrays()
    proj = qres.context.encode(qres.proj_r[r_of], qres.proj_v[v_of],
                               qres.proj_w[w_of], qres.proj_s[s_of])
    if mask_from_bool(proj == target.zero) != qres.radical.member_mask():
        return Verdict(False, ("kernel",))
    if distinct(proj, target.order).size != target.order:
        return Verdict(False, ("onto",))
    return verify_ring_map(ring, target, proj)


# -- whole-ring prime and semiprime reports ------------------------------------------


def _prime_module(mod: Bimodule) -> bool:
    """Is zero a prime submodule of the carrier on each side?

    The one-point module fails by convention: a prime submodule must be
    proper, and its only submodule is the whole thing.
    """
    return mod.order > 1 and all(is_prime_submodule(mod, 1 << mod.zero, side)
                                 for side in ("left", "right"))


@dataclass(frozen=True)
class ContextPrimeReport:
    """Primeness of the context ring next to its slot-level descriptions.

    The graded conditions: (1) the ring itself is prime; (2) both corners
    are prime rings and both carriers are prime modules on each side; (3)
    both corners are prime; (4) at least one corner is prime. Each implies
    the next, and surjectivity closes the loop from (4) back to (1).
    """

    t_prime: bool
    witness: tuple | None
    r_prime: bool
    s_prime: bool
    v_prime: bool
    w_prime: bool
    surjective: bool

    @property
    def cond1(self) -> bool:
        return self.t_prime

    @property
    def cond2(self) -> bool:
        return self.r_prime and self.s_prime and self.v_prime and self.w_prime

    @property
    def cond3(self) -> bool:
        return self.r_prime and self.s_prime

    @property
    def cond4(self) -> bool:
        return self.r_prime or self.s_prime

    @property
    def chain_ok(self) -> bool:
        steps = (self.cond1, self.cond2, self.cond3, self.cond4)
        return all((not a) or b for a, b in zip(steps, steps[1:]))

    @property
    def converse_ok(self) -> bool:
        return (not (self.cond4 and self.surjective)) or self.cond1


@dataclass(frozen=True)
class ContextSemiprimeReport:
    """Semiprimeness of the context ring next to its corner descriptions."""

    t_semiprime: bool
    witness: int | None
    r_semiprime: bool
    s_semiprime: bool
    surjective: bool

    @property
    def cond1(self) -> bool:
        return self.t_semiprime

    @property
    def cond2(self) -> bool:
        return self.r_semiprime and self.s_semiprime

    @property
    def cond3(self) -> bool:
        return self.r_semiprime or self.s_semiprime

    @property
    def chain_ok(self) -> bool:
        steps = (self.cond1, self.cond2, self.cond3)
        return all((not a) or b for a, b in zip(steps, steps[1:]))

    @property
    def converse_ok(self) -> bool:
        return (not (self.cond3 and self.surjective)) or self.cond1


def is_prime_context(ctx: MoritaContext, cap: int = DEFAULT_ORDER_CAP) -> ContextPrimeReport:
    """Zero-ideal primeness of the built ring, with all slot-level facts."""
    ring = build_context_ring(ctx, cap)
    verdict = is_prime_ring(ring)
    return ContextPrimeReport(
        t_prime=bool(verdict), witness=verdict.witness,
        r_prime=bool(is_prime_ring(ctx.ring_r)),
        s_prime=bool(is_prime_ring(ctx.ring_s)),
        v_prime=_prime_module(ctx.mod_v),
        w_prime=_prime_module(ctx.mod_w),
        surjective=is_surjective_context(ctx))


def is_semiprime_context(ctx: MoritaContext, cap: int = DEFAULT_ORDER_CAP) -> ContextSemiprimeReport:
    """Zero-ideal semiprimeness of the built ring, with corner facts."""
    ring = build_context_ring(ctx, cap)
    verdict = is_semiprime_ring(ring)
    return ContextSemiprimeReport(
        t_semiprime=bool(verdict), witness=verdict.witness,
        r_semiprime=bool(is_semiprime_ring(ctx.ring_r)),
        s_semiprime=bool(is_semiprime_ring(ctx.ring_s)),
        surjective=is_surjective_context(ctx))
