"""Structure checks runnable against any single context.

Each check token names one verifiable statement about context rings —
ideal slot forms, block decompositions, closure-set behaviour, radical
and quotient structure, prime/semiprime transfer — and runs it
exhaustively over the given context. Results carry a pass flag plus
deterministic report lines; nothing is sampled, so a pass means the
statement held for every object in range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitsets import full_mask
from .context import (
    DEFAULT_ORDER_CAP,
    MoritaContext,
    block_ideal_masks,
    build_context_ring,
    check_prime_quadruple,
    check_semiprime_quadruple,
    closure_sets,
    context_prime_radical,
    decompose_ideal,
    enumerate_context_ideals,
    ideal_blocks,
    is_prime_context,
    is_semiprime_context,
    quotient_context,
    side_decomposition,
    verify_quotient_iso,
)
from .errors import MctxError
from .ideals import (
    DEFAULT_LATTICE_CAP,
    Ideal,
    enumerate_ideals,
    is_prime_ideal,
    is_prime_ring,
    is_semiprime_ideal,
    is_semiprime_ring,
    prime_radical,
)
from .mctx import ResolvedContext
from .modules import is_prime_submodule

__all__ = ["CHECK_TOKENS", "CheckResult", "run_check"]

CHECK_TOKENS = ("2.1", "2.2", "2.3", "2.5", "2.6", "2.7",
                "2.9", "2.10", "2.11", "2.13", "2.14", "ks")


@dataclass(frozen=True)
class CheckResult:
    token: str
    passed: bool
    lines: tuple[str, ...]


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def _check_ideal_slot_forms(res: ResolvedContext, order_cap: int,
                            lattice_cap: int) -> tuple[bool, list[str]]:
    """Two-sided ideals are exactly the compatible slot quadruples; one-sided
    ideals split into closed, mutually pairing coordinate blocks."""
    ctx = res.context
    ring = build_context_ring(ctx, order_cap)
    quads = enumerate_context_ideals(ctx, lattice_cap)
    direct = enumerate_ideals(ring, "two", lattice_cap)
    ok = {q.member_mask() for q in quads} == {c.members for c in direct}
    if ok:
        lines = [f"two-sided ideals: {len(quads)} (slot and direct enumeration agree)"]
    else:
        lines = [f"two-sided ideals: slot enumeration found {len(quads)}, "
                 f"direct enumeration found {len(direct)} (they DISAGREE)"]
    for quad in quads:
        if decompose_ideal(ctx, quad.member_mask()).masks != quad.masks:
            ok = False
            lines.append(f"  slot round-trip failed for {quad}")
    blocks_ok, block_lines = _block_audit(ctx, ring, lattice_cap, "block form holds")
    return ok and blocks_ok, lines + block_lines


def _check_block_embeddings(res: ResolvedContext, order_cap: int,
                            lattice_cap: int) -> tuple[bool, list[str]]:
    """Each block element of a one-sided ideal, placed alone in its two
    slots with zeros elsewhere, is a member of the ideal."""
    ring = build_context_ring(res.context, order_cap)
    return _block_audit(res.context, ring, lattice_cap, "solo embeddings hold")


def _pair_text(pair) -> str:
    return f"{pair[0]} (+) {pair[1]}"


def _block_audit(ctx: MoritaContext, ring, lattice_cap: int, what: str) -> tuple[bool, list[str]]:
    """Per side, the one-sided ideals of T against the compatible block
    pairs: equal sets are the block theorem both ways (every ideal is the
    product of its closed, mutually carried blocks, each of which embeds
    alone, and every such product is an ideal). ``what`` counts the ideals
    found among the pairs; each ideal missing from them and each pair that
    is no ideal is named."""
    ok = True
    lines = []
    for side in ("right", "left"):
        ideals = enumerate_ideals(ring, side, lattice_cap)
        pairs = block_ideal_masks(ctx, side, lattice_cap)
        direct = {ideal.members for ideal in ideals}
        missing = [side_decomposition(ctx, ideal.members, side).blocks
                   for ideal in ideals if ideal.members not in pairs]
        strays = [pair for mask, pair in pairs.items() if mask not in direct]
        failed = ([f"  {side} ideal {_pair_text(p)} is missing from the block pairs"
                   for p in missing]
                  + [f"  block pair {_pair_text(p)} is not a {side} ideal" for p in strays])
        ok = ok and not failed
        lines.extend(failed)
        lines.append(f"{side} ideals: {len(ideals)}, {what} for {len(direct & pairs.keys())}")
    return ok, lines


def _prime_submodules(triples, failure) -> tuple[int, int, list[str]]:
    """Prime-submodule test over (module, side, mask) triples, skipping
    whole-carrier masks (primeness is only defined below the whole module):
    the counts checked and skipped, and ``failure(module, side, mask)`` for
    each non-prime one."""
    proper = [(mod, side, mask) for mod, side, mask in triples if mask != full_mask(mod.order)]
    failed = [failure(mod, side, mask) for mod, side, mask in proper
              if not is_prime_submodule(mod, mask, side)]
    return len(proper), len(triples) - len(proper), failed


def _check_prime_ideal_blocks(res: ResolvedContext, order_cap: int,
                              lattice_cap: int) -> tuple[bool, list[str]]:
    """Blocks of an elementwise-prime one-sided ideal are prime submodules
    of their block modules on the ideal's side; whole-carrier blocks are
    skipped."""
    ctx = res.context
    ring = build_context_ring(ctx, order_cap)
    ok = True
    lines = []
    for side in ("right", "left"):
        primes = [ideal for ideal in enumerate_ideals(ring, side, lattice_cap)
                  if ideal.size < ring.order and is_prime_ideal(ideal)]
        checked, skipped, failed = _prime_submodules(
            [(block.module, side, block.members)
             for pair in ideal_blocks(ctx, primes, side, lattice_cap) for block in pair],
            lambda view, side, mask: f"  block {view.format_subset(mask)} of {view.name} "
                                     f"is not prime under a prime {side} ideal")
        ok = ok and not failed
        lines.extend(failed)
        lines.append(f"{side}: prime ideals {len(primes)}, blocks checked {checked}, "
                     f"whole-carrier blocks skipped {skipped}")
    return ok, lines


def _proper_quadruples(ctx: MoritaContext, lattice_cap: int):
    return [q for q in enumerate_context_ideals(ctx, lattice_cap) if q.is_proper()]


def _check_semiprime_closure_agreement(res: ResolvedContext, order_cap: int,
                                       lattice_cap: int) -> tuple[bool, list[str]]:
    """For every proper semiprime quadruple, the two defining descriptions
    of each closure set coincide."""
    ctx = res.context
    ring = build_context_ring(ctx, order_cap)
    ok = True
    lines = []
    semiprime = 0
    quads = _proper_quadruples(ctx, lattice_cap)
    for quad in quads:
        if not is_semiprime_ideal(Ideal(ring, quad.member_mask(), "two")):
            continue
        semiprime += 1
        sets = closure_sets(ctx, quad.r_part, quad.s_part)
        if not (sets.v_agree and sets.w_agree):
            ok = False
            lines.append(f"  closure descriptions split for {quad}")
    lines.insert(0, f"proper quadruples: {len(quads)}, semiprime: {semiprime}, "
                    f"closure descriptions agree on all semiprime ones: {_yes(ok)}")
    return ok, lines


def _check_prime_closure_submodules(res: ResolvedContext, order_cap: int,
                                    lattice_cap: int) -> tuple[bool, list[str]]:
    """When both corner ideals of a quadruple are proper and prime, the four
    closure sets are prime submodules on their respective sides; sets equal
    to the whole carrier are skipped."""
    ctx = res.context
    V, W = ctx.mod_v, ctx.mod_w
    pairs = sorted({(q.r_part.members, q.s_part.members)
                    for q in _proper_quadruples(ctx, lattice_cap)})
    stations = []
    eligible = 0
    for i_mask, j_mask in pairs:
        if i_mask == full_mask(ctx.ring_r.order) or j_mask == full_mask(ctx.ring_s.order):
            continue
        if not (is_prime_ideal(Ideal(ctx.ring_r, i_mask, "two"))
                and is_prime_ideal(Ideal(ctx.ring_s, j_mask, "two"))):
            continue
        eligible += 1
        sets = closure_sets(ctx, i_mask, j_mask)
        stations += [(V, "left", sets.v_into_r), (V, "right", sets.v_into_s),
                     (W, "right", sets.w_into_r), (W, "left", sets.w_into_s)]
    checked, skipped, failed = _prime_submodules(
        stations, lambda mod, side, mask: f"  closure set {mod.format_subset(mask)} is not "
                                          f"prime on its {side} view")
    return not failed, [f"corner pairs with both ideals prime: {eligible}, closure sets "
                        f"checked {checked}, whole-carrier sets skipped {skipped}", *failed]


def _check_prime_quadruple_description(res: ResolvedContext, order_cap: int,
                                       lattice_cap: int) -> tuple[bool, list[str]]:
    """Prime quadruples always satisfy the slot description; with spanning
    pairings the description is also sufficient."""
    ctx = res.context
    build_context_ring(ctx, order_cap)
    ok = True
    lines = []
    quads = _proper_quadruples(ctx, lattice_cap)
    prime = described = 0
    surjective = None
    for quad in quads:
        report = check_prime_quadruple(ctx, quad)
        surjective = report.surjective
        prime += report.is_prime
        described += report.cond2
        if not report.forward_ok:
            ok = False
            lines.append(f"  prime quadruple misses its slot description: {quad}")
        if not report.converse_ok:
            ok = False
            lines.append(f"  described quadruple fails primeness despite spanning: {quad}")
    lines.insert(0, f"proper quadruples: {len(quads)}, prime: {prime}, slot description "
                    f"holds for {described}, pairings span: {_yes(bool(surjective))}")
    return ok, lines


def _check_semiprime_quadruple_description(res: ResolvedContext, order_cap: int,
                                           lattice_cap: int) -> tuple[bool, list[str]]:
    """Semiprimeness of a proper quadruple coincides with its slot
    description outright — no spanning hypothesis."""
    ctx = res.context
    build_context_ring(ctx, order_cap)
    ok = True
    lines = []
    quads = _proper_quadruples(ctx, lattice_cap)
    semiprime = 0
    for quad in quads:
        report = check_semiprime_quadruple(ctx, quad)
        semiprime += report.is_semiprime
        if report.theorem_violation:
            ok = False
            lines.append(f"  descriptions split for {quad}: elementwise "
                         f"{report.is_semiprime}, slots {report.cond2}")
    lines.insert(0, f"proper quadruples: {len(quads)}, semiprime: {semiprime}, "
                    f"descriptions agree on all: {_yes(ok)}")
    return ok, lines


def _check_slotwise_radical(res: ResolvedContext, order_cap: int,
                            lattice_cap: int) -> tuple[bool, list[str]]:
    """The slotwise radical equals the intersection of the primes of the
    built ring, recomputed here rather than trusted from the cache."""
    ctx = res.context
    radical = context_prime_radical(ctx, lattice_cap)
    ring = build_context_ring(ctx, order_cap)
    direct = prime_radical(ring, lattice_cap)
    ok = radical.member_mask() == direct.members
    lines = [f"slotwise radical: {radical}",
             f"matches the intersection of primes: {_yes(ok)}"]
    return ok, lines


def _check_quotient_iso(res: ResolvedContext, order_cap: int,
                        lattice_cap: int) -> tuple[bool, list[str]]:
    """Quotienting the ring by its radical is the same as building the ring
    of the slotwise quotient context."""
    ctx = res.context
    build_context_ring(ctx, order_cap)
    result = quotient_context(ctx, lattice_cap)
    verdict = verify_quotient_iso(ctx, lattice_cap)
    lines = [f"quotient context dims: {result.context.dims}",
             f"ring-quotient isomorphism verified: {_yes(bool(verdict))}"]
    if not verdict:
        lines.append(f"  first failure: {verdict.witness}")
    return bool(verdict), lines


def _check_prime_ring_chain(res: ResolvedContext, order_cap: int,
                            lattice_cap: int) -> tuple[bool, list[str]]:
    """The graded primeness conditions weaken down the chain, and spanning
    pairings pull the weakest back up to the strongest."""
    report = is_prime_context(res.context, order_cap)
    ok = report.chain_ok and report.converse_ok
    lines = [
        f"ring prime: {report.t_prime}",
        f"corners prime: {report.r_prime}/{report.s_prime}; "
        f"carriers prime both-sided: {report.v_prime}/{report.w_prime}",
        f"pairings span: {_yes(report.surjective)}",
        f"chain (1)=>(2)=>(3)=>(4): {_yes(report.chain_ok)}",
        f"converse (4)=>(1) under spanning: {_yes(report.converse_ok)}",
    ]
    return ok, lines


def _check_semiprime_ring_chain(res: ResolvedContext, order_cap: int,
                                lattice_cap: int) -> tuple[bool, list[str]]:
    """Same chain audit for semiprimeness (corners only)."""
    report = is_semiprime_context(res.context, order_cap)
    ok = report.chain_ok and report.converse_ok
    lines = [
        f"ring semiprime: {report.t_semiprime}",
        f"corners semiprime: {report.r_semiprime}/{report.s_semiprime}",
        f"pairings span: {_yes(report.surjective)}",
        f"chain (1)=>(2)=>(3): {_yes(report.chain_ok)}",
        f"converse (3)=>(1) under spanning: {_yes(report.converse_ok)}",
    ]
    return ok, lines


def _is_zero_divisor(ring, index: int) -> bool:
    others = np.arange(ring.order) != ring.zero
    return bool((others & (ring.mul[:, index] == ring.zero)).any()
                or (others & (ring.mul[index, :] == ring.zero)).any())


def _check_scaled_criteria(res: ResolvedContext, order_cap: int,
                           lattice_cap: int) -> tuple[bool, list[str]]:
    """For the scalar form: the ring is prime iff the base is prime and the
    scalar is nonzero, and semiprime iff the base is semiprime and the
    scalar is not a zero-divisor."""
    if res.document.scalar is None:
        raise MctxError("the scaled-form check needs a scalar-form document (scalar s <index>)")
    ctx = res.context
    ring = ctx.ring_r
    s_idx = res.document.scalar
    prime_rep = is_prime_context(ctx, order_cap)
    semi_rep = is_semiprime_context(ctx, order_cap)
    expect_prime = bool(is_prime_ring(ring)) and s_idx != ring.zero
    expect_semi = bool(is_semiprime_ring(ring)) and not _is_zero_divisor(ring, s_idx)
    ok = prime_rep.t_prime == expect_prime and semi_rep.t_semiprime == expect_semi
    lines = [
        f"scaling element: {ring.label(s_idx)} of {ring.name}",
        f"ring prime: {prime_rep.t_prime}; criterion (base prime, scalar nonzero): {expect_prime}",
        f"ring semiprime: {semi_rep.t_semiprime}; criterion (base semiprime, "
        f"scalar not a zero-divisor): {expect_semi}",
        f"criteria matched: {_yes(ok)}",
    ]
    return ok, lines


_CHECKS = {
    "2.1": _check_ideal_slot_forms,
    "2.2": _check_block_embeddings,
    "2.3": _check_prime_ideal_blocks,
    "2.5": _check_semiprime_closure_agreement,
    "2.6": _check_prime_closure_submodules,
    "2.7": _check_prime_quadruple_description,
    "2.9": _check_slotwise_radical,
    "2.10": _check_quotient_iso,
    "2.11": _check_semiprime_quadruple_description,
    "2.13": _check_prime_ring_chain,
    "2.14": _check_semiprime_ring_chain,
    "ks": _check_scaled_criteria,
}


def run_check(token: str, res: ResolvedContext,
              order_cap: int = DEFAULT_ORDER_CAP,
              lattice_cap: int = DEFAULT_LATTICE_CAP) -> CheckResult:
    """Run one named check against a resolved context."""
    if token not in _CHECKS:
        raise MctxError(f"unknown check token {token!r}; available: {', '.join(CHECK_TOKENS)}")
    passed, lines = _CHECKS[token](res, order_cap, lattice_cap)
    return CheckResult(token, passed, tuple(lines))
