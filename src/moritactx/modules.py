"""Bimodules over finite rings, one-sided modules, and prime submodules.

A bimodule is an additive group with a left action of one ring and a right
action of another, stored as dense lookup tables. A ``ModuleView`` is a
standalone module over a single ring, acting from one side (the coordinate
blocks of a context ring's one-sided ideals, whose addition is the direct
sum of their two slot carriers'). Each carrier presents its
actions through ``action(side)``, the right one transposed so ``act[r]`` is
r acting on every element; closure checks, cyclic submodules, lattices and
the prime submodule scan are the kernels in ``spans`` that ideals use,
which assume additive actions. Every module kernel takes the carrier, a
mask and the side or sidedness to read; a ``ModuleView`` has an action on
its own side only, and raises ValueError for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitsets import as_mask, bool_array, full_mask, indices_of
from .errors import (
    MalformedTableError,
    NotASubmoduleError,
    NotProperError,
    WellDefinednessError,
)
from .ideals import DEFAULT_LATTICE_CAP, check_ideal
from .rings import checked_generators
from .spans import Carrier, Subset, as_group, check_closed, prime_pair
from .validation import (ValidationReport, Verdict, Violation, abelian_group_violations,
                         additive_first, additive_second, additive_on, as_table,
                         associative, associative_on, group_generators, law_witness, require_ok,
                         violations_of)

__all__ = [
    "Bimodule",
    "ModuleView",
    "Submodule",
    "ring_bimodule",
    "subset_bimodule",
    "residue_bimodule",
    "zero_bimodule",
    "validate_bimodule",
    "verify_submodule",
    "enumerate_submodules",
    "is_prime_submodule",
    "confirm_prime_submodule_witness",
    "quotient_module",
]


class Bimodule(Carrier):
    """An (L, R)-bimodule on the index set 0..order-1.

    ``left_act`` has shape (|L|, m): row r is the action of ring element r.
    ``right_act`` has shape (m, |R|): column r is the right action of r.
    """

    __slots__ = ("order", "zero", "left_ring", "left_act", "right_ring", "right_act",
                 "name", "_cache")
    SIDEDNESS = {"left": ("left",), "right": ("right",), "bi": ("left", "right")}
    SIDEDNESS_TEXT = "'left', 'right' or 'bi'"

    def __init__(self, add, zero: int, left_ring, left_act, right_ring, right_act,
                 labels=None, name: str | None = None, label_fn=None):
        group = as_group(add, zero, "module add")
        m = group.order
        if not 0 <= zero < m:
            raise MalformedTableError(f"zero index out of range for order {m}")
        self.order = m
        self.zero = int(zero)
        self.left_ring = left_ring
        self.left_act = as_table(left_act, left_ring.order, m, "left action")
        self.right_ring = right_ring
        self.right_act = as_table(right_act, m, right_ring.order, "right action", limit=m)
        self.name = name or f"bimod{m}"
        self._present(group, labels, label_fn)
        self._cache: dict = {}

    def action(self, side: str) -> tuple:
        """(acting ring, act) with act[r] r acting on every element: the left
        table as stored, the right one transposed."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return ((self.left_ring, self.left_act) if side == "left"
                else (self.right_ring, self.right_act.T))

    def __repr__(self) -> str:
        return f"<Bimodule {self.name} order={self.order} over ({self.left_ring.name}, {self.right_ring.name})>"


class ModuleView(Carrier):
    """A finite module over one ring, acting from ``side``.

    The action table is normalized so ``act[r]`` is always the row "r acting
    on each element", whichever side the scalars are written on. ``add`` is
    a table or an AddGroup: a block view passes the direct sum of its two
    slot carriers' groups.
    """

    __slots__ = ("ring", "side", "act", "zero", "order", "name", "_cache")
    SIDEDNESS = {"left": ("left",), "right": ("right",)}    # only its own side has an action
    SIDEDNESS_TEXT = "'left' or 'right'"

    def __init__(self, ring, side: str, add, act, zero: int,
                 labels=None, name: str | None = None, label_fn=None):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        group = as_group(add, zero, "module add")
        m = group.order
        if not 0 <= zero < m:
            raise MalformedTableError(f"zero index out of range for order {m}")
        self.ring = ring
        self.side = side
        self.act = as_table(act, ring.order, m, f"{side} action")
        self.zero = int(zero)
        self.order = m
        self.name = name or f"{side}mod{m}"
        self._present(group, labels, label_fn)
        self._cache: dict = {}

    def action(self, side: str) -> tuple:
        """(ring, act) on its own side; ValueError for the other."""
        if side != self.side:
            raise ValueError(f"{self!r} has no {side} action")
        return self.ring, self.act

    def __repr__(self) -> str:
        return f"<ModuleView {self.side} {self.name} over {self.ring.name}>"


@dataclass(frozen=True)
class Submodule(Subset):
    """A subset of a module carrier (a bimodule or a one-sided module)
    closed under + and the actions named by ``sidedness``."""

    module: Bimodule | ModuleView
    members: int
    sidedness: str

    @property
    def carrier(self) -> Bimodule | ModuleView:
        return self.module


# -- constructors --------------------------------------------------------------


def ring_bimodule(ring) -> Bimodule:
    """The ring as a bimodule over itself."""
    return Bimodule(
        ring.addgroup, ring.zero, ring, ring.mul, ring, ring.mul,
        name=ring.name, label_fn=ring.label,
    )


def subset_bimodule(ring, members_mask: int, name: str | None = None) -> Bimodule:
    """An additively closed, two-sided-absorbing subset of a ring.

    Actions are ring multiplication restricted to the subset. Raises
    NotASubmoduleError if any closure fails (the induced tables would leave
    the carrier).
    """
    _raise_unless_closed(check_ideal(ring, members_mask, "two"))
    k = ring.order
    members = indices_of(members_mask, k)
    rank = np.full(k, -1, dtype=np.int64)
    rank[members] = np.arange(members.size)
    add = rank[ring.addgroup.sums(members[:, None], members)]
    lact = rank[ring.mul[:, members]]
    ract = rank[ring.mul[members, :]]
    labels = [ring.label(int(i)) for i in members]
    return Bimodule(
        add, int(rank[ring.zero]), ring, lact, ring, ract,
        labels=labels, name=name or f"{ring.name}-part{members.size}",
    )


def residue_bimodule(g: int, left_ring, right_ring, name: str | None = None) -> Bimodule:
    """Z_g with both rings acting through reduction of integer labels mod g.

    Each acting ring must have integer labels whose reduction mod g respects
    the ring operations — true for Z_n with g dividing n, and checked here by
    full validation rather than assumed.
    """
    if g < 1:
        raise MalformedTableError(f"residue module needs modulus >= 1, got {g}")
    if g == 1:
        one = np.zeros((1, 1), dtype=np.int32)
        return Bimodule(one, 0,
                        left_ring, np.zeros((left_ring.order, 1), dtype=np.int32),
                        right_ring, np.zeros((1, right_ring.order), dtype=np.int32),
                        name=name or "0")
    idx = np.arange(g, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % g

    def reduce_ring(ring) -> np.ndarray:
        try:
            vals = np.asarray([int(ring.label(i)) for i in range(ring.order)], dtype=np.int64)
        except ValueError as exc:
            raise MalformedTableError(f"ring {ring.name} has non-integer labels; cannot act on Z{g}") from exc
        return vals % g

    lvals = reduce_ring(left_ring)
    rvals = reduce_ring(right_ring)
    lact = (lvals[:, None] * idx[None, :]) % g
    ract = (idx[:, None] * rvals[None, :]) % g
    mod = Bimodule(add, 0, left_ring, lact, right_ring, ract, name=name or f"Z{g}-residue")
    require_ok(validate_bimodule(mod), f"reduction mod {g} is not compatible with the acting rings: ")
    return mod


def zero_bimodule(left_ring, right_ring, name: str | None = None) -> Bimodule:
    """The one-element bimodule."""
    return residue_bimodule(1, left_ring, right_ring, name=name or "0")


# -- validation -----------------------------------------------------------------


def _bimodule_holds(mod: Bimodule) -> bool:
    """The bimodule laws at generator width. The module's + must be an
    abelian group, and so must each acting ring's, with its ·, perhaps
    unvalidated, distributing over it (``checked_generators``). Each action
    must be unital and additive in each argument, checked with one summand
    over generators (``additive_on``). The two associativity laws and
    actions-commute are then additive in every argument, so triples of
    generators decide them."""
    gm = group_generators(mod.addgroup)
    if gm is None:
        return False
    idx = np.arange(mod.order, dtype=np.int32)
    for side in ("left", "right"):
        ring, act = mod.action(side)
        gr = checked_generators(ring)
        if (gr is None or not (act[ring.one] == idx).all()
                or not additive_on(act, ring.add, mod.add, gr, ring.zero)
                or not additive_on(act.T, mod.add, mod.add, gm, mod.zero)):
            return False
    lring, lact, rring, ract = mod.left_ring, mod.left_act, mod.right_ring, mod.right_act
    gl, gr = checked_generators(lring), checked_generators(rring)
    return (associative_on(gl, gl, gm, lring.mul, lact, lact, lact)       # (r1r2).x = r1.(r2.x)
            and associative_on(gm, gr, gr, ract, rring.mul, ract, ract)   # (x.r1).r2 = x.(r1r2)
            and associative_on(gl, gm, gr, lact, ract, ract, lact))       # (l.x).r = l.(x.r)


def validate_bimodule(mod: Bimodule) -> ValidationReport:
    """Check the bimodule axioms at generator width (``_bimodule_holds``);
    when that fails, scan every law in full for one lex-first witness each.

    Each side's laws read ``action(side)``. The tables are read-only, so
    the violations are found once per module and kept in its cache; the
    subject line names the module as it is called now.
    """
    if "violations" not in mod._cache and _bimodule_holds(mod):
        mod._cache["violations"] = ()
    if "violations" not in mod._cache:
        add, zero = mod.add, mod.zero
        idx = np.arange(mod.order, dtype=np.int32)
        violations: list[Violation] = []
        if not ((add[zero] == idx).all() and (add[:, zero] == idx).all()):
            violations.append(Violation("additive-identity", (zero,)))
        violations.extend(abelian_group_violations(add))
        for side in ("left", "right"):
            ring, act = mod.action(side)
            unital = np.flatnonzero(act[ring.one] != idx)
            if unital.size:
                violations.append(Violation(f"{side}-unital", (int(unital[0]),)))
            # (r1*r2) acts as r2 then r1 on the left, r1 then r2 on the right
            staged = (associative(ring.mul, act, act, act) if side == "left" else
                      law_witness((ring.order,) + act.shape, lambda r1: act[ring.mul[r1]],
                                  lambda r1: act[:, act[r1]].swapaxes(0, 1)))
            violations += violations_of([
                (f"{side}-additive-in-ring", additive_first(act, ring.add, add)),
                (f"{side}-additive-in-module", additive_second(act, add, add)),
                (f"{side}-associative", staged)])
        violations += violations_of([("actions-commute", associative(      # (l.x).r = l.(x.r)
            mod.left_act, mod.right_act, mod.right_act, mod.left_act))])
        mod._cache["violations"] = tuple(violations)
    return ValidationReport(f"bimodule {mod.name}", mod._cache["violations"])


def _raise_unless_closed(verdict: Verdict) -> None:
    """NotASubmoduleError naming the first closure a ``check_closed`` verdict finds broken."""
    witness = verdict.witness
    if witness:
        kind = witness[0]
        raise NotASubmoduleError("submodule must contain zero" if kind == "zero"
                                 else "subset is not closed under addition" if kind == "add"
                                 else f"subset is not stable under the {kind} ring action")


def verify_submodule(module: Bimodule | ModuleView, mask: int, sidedness: str) -> Submodule:
    """Check closure for the named sidedness (``check_closed``) and wrap the mask."""
    _raise_unless_closed(check_closed(module, mask, sidedness))
    return Submodule(module, mask, sidedness)


# -- lattices ------------------------------------------------------------------------


def enumerate_submodules(module: Bimodule | ModuleView, sidedness: str = "bi",
                         cap: int = DEFAULT_LATTICE_CAP) -> list[Submodule]:
    """All submodules of the named sidedness, sorted by (size, mask): the
    join closure of the cyclic ones (a ``ModuleView`` has only its own side).

    Bisubmodules are the joins of the cyclic ones L.x.R, each the sum of
    the orbits (g.x)R over the left ring's additive generators g.
    """
    what = "bisubmodule" if sidedness == "bi" else f"submodule ({sidedness})"
    masks = module.lattice(sidedness, cap, f"{what} of {module.name} lattice")
    return [Submodule(module, m, sidedness) for m in masks]


# -- prime submodules --------------------------------------------------------------


def is_prime_submodule(module: Bimodule | ModuleView, members: int | Submodule,
                       side: str) -> Verdict:
    """Decide primeness of a proper submodule of ``module`` under its
    ``side`` action.

    Left reading: r.(ring.x) inside N forces r.(whole module) inside N or x
    inside N; the right reading mirrors it with scalars on the other side.
    ``prime_pair`` decides it; the witness is the first failing (ring
    element, module element) pair. Improper input raises NotProperError, a
    side the carrier has no action on ValueError.
    """
    mask = as_mask(members)
    if mask == full_mask(module.order):
        raise NotProperError("primeness is only defined for proper submodules")
    hit = prime_pair(module, side, bool_array(mask, module.order))
    return Verdict(hit is None, hit)


def confirm_prime_submodule_witness(module: Bimodule | ModuleView, members: int | Submodule,
                                    side: str, r: int, x: int) -> bool:
    """Directly check that (r, x) genuinely violates submodule primeness
    under the ``side`` action.

    True when the middle-product condition holds at (r, x), x lies outside
    the submodule, and r does not send the whole module inside — i.e. the
    pair is a bona fide counterexample, wherever a scan happened to stop.
    """
    ring, act = module.action(side)
    inside = bool_array(as_mask(members), module.order)
    if inside[x]:
        return False
    if inside[act[r]].all():
        return False
    scalars = ring.mul[r, :] if side == "left" else ring.mul[:, r]
    return bool(inside[act[scalars, x]].all())


# -- quotients ----------------------------------------------------------------------


def quotient_module(module: Bimodule, mask: int,
                      left: tuple | None = None,
                      right: tuple | None = None) -> tuple[Bimodule, np.ndarray]:
    """Quotient a bimodule by a bisubmodule, optionally over quotient rings.

    ``left``/``right`` are (quotient ring, projection array) pairs, as
    ``quotient_ring`` returns them, for acting rings that are themselves
    being quotiented. The induced action must send every ring class to one
    module map: each ring element's action on the cosets is compared with
    that of its class's least member, and WellDefinednessError names the
    first element, class by class, that differs.
    """
    verify_submodule(module, mask, "bi")
    reps, proj = module.addgroup.cosets(mask)
    q_add = proj[module.addgroup.sums(reps[:, None], reps)]

    def induced(side: str, ring_pair) -> tuple[np.ndarray, object]:
        ring, act_rows = module.action(side)                # normalized (|ring|, m)
        rows = proj[act_rows[:, reps]].astype(np.int32)
        if ring_pair is None:
            return rows, ring
        new_ring, ring_proj = ring_pair
        _, least = np.unique(ring_proj, return_index=True)   # each class's least member
        differs = rows != rows[least[ring_proj]]
        bad = np.flatnonzero(differs.any(axis=1))
        if bad.size:
            r = int(bad[np.argmin(ring_proj[bad])])            # first class, then least element
            raise WellDefinednessError(
                f"induced action is not well defined: ring elements {int(least[ring_proj[r]])} and "
                f"{r} map to the same class but act differently on coset {int(differs[r].argmax())}")
        return rows[least], new_ring

    lact, lring = induced("left", left)
    ract_rows, rring = induced("right", right)
    labels = [module.label(int(r)) for r in reps]
    quotient = Bimodule(q_add, int(proj[module.zero]), lring, lact, rring, ract_rows.T,
                        labels=labels, name=f"{module.name}/sub{mask.bit_count()}")
    return quotient, proj
