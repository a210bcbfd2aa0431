"""Command-line front end.

Sources are either a path to a context description file or a builtin
name such as ``full:6`` or ``ks:4:2``. Exit codes: 0 for success, 1 when
a checked property fails, 2 for invalid input, 3 when a capacity cap is
exceeded. All output is deterministic: the same invocation prints the
same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import BUILTIN_PATTERNS, builtin_context
from .checks import CHECK_TOKENS, run_check
from .context import (
    DEFAULT_ORDER_CAP,
    build_context_ring,
    check_prime_quadruple,
    check_semiprime_quadruple,
    context_prime_radical,
    decompose_ideal,
    enumerate_context_ideals,
    ideal_blocks,
    is_slotted_ideal,
    is_surjective_context,
    lattice_prime_flags,
    product_span_vw,
    product_span_wv,
    side_decomposition,
    validate_context,
)
from .errors import AlgebraError, CapacityError, ValidationFailedError
from .ideals import (
    DEFAULT_LATTICE_CAP,
    check_ideal,
    confirm_prime_witness,
    enumerate_ideals,
    is_prime_ideal,
    prime_radical,
    verify_ideal,
)
from .mctx import ResolvedContext, inline_ideal_mask, load_mctx
from .modules import confirm_prime_submodule_witness, is_prime_submodule

__all__ = ["run_command", "main"]

_EXAMPLES = ("ex2.4", "ex2.8", "ex2.12")


class _Printer:
    """Collects normal lines and summary key=value pairs; emits one of them."""

    def __init__(self, summary: bool):
        self.summary = summary
        self._lines: list[str] = []

    def line(self, text: str = "") -> None:
        if not self.summary:
            self._lines.append(text)

    def kv(self, key: str, value) -> None:
        if self.summary:
            if isinstance(value, bool):
                value = "true" if value else "false"
            self._lines.append(f"{key}={value}")

    def flush(self) -> None:
        for text in self._lines:
            sys.stdout.write(text + "\n")


def _flag(value: bool) -> str:
    return "yes" if value else "NO"


def _load(src: str) -> ResolvedContext:
    if os.path.isfile(src):
        with open(src, encoding="utf-8") as handle:
            return load_mctx(handle.read())
    return builtin_context(src)


def _cap(text: str) -> int:
    """``--cap`` value: an int of at least 1, refused at parse time (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _caps(args) -> tuple[int, int]:
    if args.cap is not None:
        return args.cap, args.cap
    return DEFAULT_ORDER_CAP, DEFAULT_LATTICE_CAP


def _context_header(out: _Printer, res: ResolvedContext) -> None:
    ctx = res.context
    out.line(f"context {ctx.name}")
    out.line(f"dims: {ctx.dims}")
    out.line(f"order: {ctx.order}")
    out.kv("context", ctx.name)
    out.kv("dims", ",".join(str(d) for d in ctx.dims))
    out.kv("order", ctx.order)


# -- commands ------------------------------------------------------------------


def _cmd_validate(args, out: _Printer) -> int:
    try:
        res = _load(args.src)
    except ValidationFailedError as exc:
        report = exc.report
        out.line("validation: FAIL")
        out.kv("valid", False)
        if report is not None:
            for violation in report.lines():
                out.line(f"  {violation}")
            out.kv("violations", len(report.violations))
        else:
            out.line(f"  {exc}")
        return 1
    _context_header(out, res)
    report = validate_context(res.context)   # scalar forms are not validated at load
    if not report.ok:
        out.line("validation: FAIL")
        out.kv("valid", False)
        for violation in report.lines():
            out.line(f"  {violation}")
        return 1
    out.line("validation: ok (module and pairing laws hold)")
    out.kv("valid", True)
    return 0


def _cmd_ideals(args, out: _Printer) -> int:
    res = _load(args.src)
    ctx = res.context
    order_cap, lattice_cap = _caps(args)
    _context_header(out, res)
    if args.side == "two":
        quads = enumerate_context_ideals(ctx, cap=lattice_cap)
        out.line(f"two-sided ideals: {len(quads)}")
        out.kv("side", "two")
        out.kv("count", len(quads))
        for k, quad in enumerate(quads):
            if not out.summary:                 # --summary prints no listing: format none
                out.line(f"  [{k}] size={quad.size} {quad}")
            out.kv(f"ideal.{k}.size", quad.size)
    else:
        ring = build_context_ring(ctx, cap=order_cap)
        found = enumerate_ideals(ring, args.side, cap=lattice_cap)
        pairs = ideal_blocks(ctx, found, args.side, lattice_cap)
        out.line(f"{args.side} ideals: {len(found)}")
        out.kv("side", args.side)
        out.kv("count", len(found))
        for k, (ideal, (part1, part2)) in enumerate(zip(found, pairs)):
            if not out.summary:                 # each ideal is a compatible pair: block form holds
                out.line(f"  [{k}] size={ideal.size} blocks {part1} (+) {part2} (block form: yes)")
            out.kv(f"ideal.{k}.size", ideal.size)
            out.kv(f"ideal.{k}.block_form", True)
    return 0


def _cmd_primes(args, out: _Printer) -> int:
    res = _load(args.src)
    ctx = res.context
    lattice_cap = _caps(args)[1]
    _context_header(out, res)
    quads = enumerate_context_ideals(ctx, cap=lattice_cap)
    verdicts = lattice_prime_flags(ctx, quads)
    proper = [(quad, v) for quad, v in zip(quads, verdicts) if v is not None]
    out.line(f"proper two-sided ideals: {len(proper)}")
    out.kv("proper", len(proper))
    n_prime = n_semi = 0
    for k, (quad, (prime, semi)) in enumerate(proper):
        n_prime += prime
        n_semi += semi
        if not out.summary:
            out.line(f"  [{k}] {quad}: prime={_flag(prime)} semiprime={_flag(semi)}")
        out.kv(f"ideal.{k}.prime", prime)
        out.kv(f"ideal.{k}.semiprime", semi)
    out.line(f"prime: {n_prime}, semiprime: {n_semi}")
    out.kv("prime", n_prime)
    out.kv("semiprime", n_semi)
    ring_prime, ring_semi = verdicts[0]         # the zero ideal: the lattice is sorted by size
    out.line(f"context ring prime: {_flag(ring_prime)}, semiprime: {_flag(ring_semi)}")
    out.kv("ring_prime", ring_prime)
    out.kv("ring_semiprime", ring_semi)
    return 0


def _cmd_radical(args, out: _Printer) -> int:
    res = _load(args.src)
    ctx = res.context
    order_cap, lattice_cap = _caps(args)
    _context_header(out, res)
    radical = context_prime_radical(ctx, cap=lattice_cap)
    out.line(f"prime radical: {radical}")
    out.kv("radical", str(radical))
    checked = ctx.order <= order_cap
    matches = checked and (prime_radical(build_context_ring(ctx, cap=order_cap), lattice_cap)
                           .members == radical.member_mask())
    out.line(f"matches the intersection of primes: {_flag(matches)}"
             + ("" if checked else " (ring too large to cross-check)"))
    out.kv("cross_checked", checked)
    return 1 if checked and not matches else 0


def _cmd_decompose(args, out: _Printer) -> int:
    res = _load(args.src)
    ctx = res.context
    _context_header(out, res)
    if args.ideal in res.ideals:
        named = res.ideals[args.ideal]
        mask, side = named.mask, args.side or named.side
        out.line(f"ideal {named.name} ({side}-sided)")
        out.kv("ideal", named.name)
    else:
        mask = inline_ideal_mask(ctx, args.ideal)
        side = args.side or "two"
        out.line(f"inline ideal ({side}-sided)")
        out.kv("ideal", "inline")
    out.kv("side", side)
    build_context_ring(ctx, cap=_caps(args)[0])       # the decompositions reuse this T
    if side == "two":
        quad = decompose_ideal(ctx, mask)
        out.line(f"slot form: {quad}")
        out.kv("slots", str(quad))
        for law, ok, _ in quad.conditions():
            out.line(f"  {law}: {_flag(ok)}")
        out.line("decomposition: ok")
        out.kv("ok", True)
    else:
        dec = side_decomposition(ctx, mask, side)
        out.line(f"block 1: {dec.part1_view.format_subset(dec.part1_mask)}"
                 f" (submodule: {_flag(dec.part1_closed)})")
        out.line(f"block 2: {dec.part2_view.format_subset(dec.part2_mask)}"
                 f" (submodule: {_flag(dec.part2_closed)})")
        out.line(f"blocks embed as ideals: {_flag(dec.part1_embeds)}"
                 f"/{_flag(dec.part2_embeds)}")
        out.line(f"pairing containments: {_flag(dec.pairing_1_to_2)}"
                 f"/{_flag(dec.pairing_2_to_1)}")
        out.line(f"reconstructs the ideal: {_flag(dec.reconstructs)}")
        out.kv("block1", dec.part1_view.format_subset(dec.part1_mask))
        out.kv("block2", dec.part2_view.format_subset(dec.part2_mask))
        out.kv("ok", dec.all_hold)
        if not dec.all_hold:
            return 1
    return 0


def _cmd_check(args, out: _Printer) -> int:
    res = _load(args.src)
    order_cap, lattice_cap = _caps(args)
    result = run_check(args.theorem, res, order_cap=order_cap, lattice_cap=lattice_cap)
    _context_header(out, res)
    for text in result.lines:
        out.line(f"  {text}")
    out.line(f"check {result.token}: {'PASS' if result.passed else 'FAIL'}")
    out.kv("check", result.token)
    out.kv("passed", result.passed)
    return 0 if result.passed else 1


def _cmd_report(args, out: _Printer) -> int:
    res = _load(args.src)
    ctx = res.context
    lattice_cap = _caps(args)[1]
    _context_header(out, res)

    report = validate_context(ctx)
    out.line(f"validation: {'ok' if report.ok else 'FAIL'}")
    out.kv("valid", report.ok)

    span_vw = product_span_vw(ctx)
    span_wv = product_span_wv(ctx)
    surjective = is_surjective_context(ctx)
    if not out.summary:                         # --summary prints no subset: format none
        out.line(f"span of VW products: {ctx.ring_r.format_subset(span_vw)}")
        out.line(f"span of WV products: {ctx.ring_s.format_subset(span_wv)}")
    out.line(f"pairings span (surjective): {_flag(surjective)}")
    out.kv("surjective", surjective)

    quads = enumerate_context_ideals(ctx, cap=lattice_cap)
    out.line(f"two-sided ideals: {len(quads)}")
    out.kv("two_sided_ideals", len(quads))
    verdicts = lattice_prime_flags(ctx, quads)
    for k, (quad, v) in enumerate(zip(quads, verdicts)):
        if not out.summary:
            flags = ("improper" if v is None
                     else f"{'prime' if v[0] else '-'}/{'semiprime' if v[1] else '-'}")
            out.line(f"  [{k}] size={quad.size} {quad} [{flags}]")

    radical = str(context_prime_radical(ctx, cap=lattice_cap))
    out.line(f"prime radical: {radical}")
    out.kv("radical", radical)

    ring_prime, ring_semi = verdicts[0]         # the zero ideal
    out.line(f"context ring prime: {_flag(ring_prime)}")
    out.line(f"context ring semiprime: {_flag(ring_semi)}")
    out.kv("ring_prime", ring_prime)
    out.kv("ring_semiprime", ring_semi)

    if res.ideals:
        out.line("named ideals:")
        for name, named in sorted(res.ideals.items()):
            holds = is_slotted_ideal(ctx, named.parts, named.side)
            out.line(f"  {name}: {named.side}-sided, members {named.size}, ideal: {_flag(holds)}")
            out.kv(f"named.{name}.ideal", holds)
    return 0


def _cmd_example(args, out: _Printer) -> int:
    res = builtin_context(f"paper:{args.name}")
    ctx = res.context
    ring = build_context_ring(ctx, cap=_caps(args)[0])
    _context_header(out, res)
    facts: list[tuple[str, bool]] = []

    def fact(text: str, holds: bool) -> None:
        facts.append((text, holds))
        out.line(f"  {text}: {_flag(holds)}")
        out.kv(text.replace(" ", "_"), holds)

    if args.name == "ex2.4":
        mask = res.ideals["U"].mask
        fact("U is a right ideal", check_ideal(ring, mask, "right").holds)
        fact("U is not a left ideal", not check_ideal(ring, mask, "left").holds)
        dec = side_decomposition(ctx, mask, "right")
        out.line(f"  block 1: {dec.part1_view.format_subset(dec.part1_mask)}")
        out.line(f"  block 2: {dec.part2_view.format_subset(dec.part2_mask)}")
        fact("blocks reconstruct U", dec.all_hold)
        verdict = is_prime_submodule(dec.part1_view, dec.part1_mask, "right")
        fact("block 1 is not a prime submodule", not verdict.holds)
        if verdict.witness is not None:
            scalar, element = verdict.witness
            out.line(f"  witness: scalar {dec.part1_view.ring.label(scalar)},"
                     f" element {dec.part1_view.label(element)}")
            fact("witness scalar is 2", scalar == 2)
        fact("the pair (scalar 2, element (2, 2)) also witnesses it",
             confirm_prime_submodule_witness(dec.part1_view, dec.part1_mask, "right",
                                             2, 2 * ctx.mod_w.order + 2))
        fact("U is not prime as a one-sided ideal",
             not is_prime_ideal(verify_ideal(ring, mask, "right")).holds)

    elif args.name == "ex2.8":
        mask = res.ideals["H"].mask
        fact("H is a two-sided ideal", check_ideal(ring, mask, "two").holds)
        quad = decompose_ideal(ctx, mask)
        out.line(f"  slot form: {quad}")
        report = check_prime_quadruple(ctx, quad)
        fact("slot description of primeness holds", report.cond2)
        fact("pairing products do not span", not report.surjective)
        fact("H is not prime", not report.is_prime)
        if report.witness is not None:
            a, b = report.witness
            out.line(f"  witness: a={ring.label(a)}, b={ring.label(b)}")
        fact("the diagonal pair (3,3), (1,2) also witnesses it",
             confirm_prime_witness(ring, mask, ctx.encode(3, 0, 0, 3), ctx.encode(1, 0, 0, 2)))

    else:
        mask = res.ideals["H"].mask
        fact("H is a two-sided ideal", check_ideal(ring, mask, "two").holds)
        quad = decompose_ideal(ctx, mask)
        out.line(f"  slot form: {quad}")
        report = check_semiprime_quadruple(ctx, quad)
        fact("H is not semiprime", not report.is_semiprime)
        expected = ctx.encode(0, 0, 0, 2)
        if report.witness is not None:
            out.line(f"  witness: {ring.label(report.witness)}")
        fact("witness is the diagonal element (0, 2)", report.witness == expected)
        fact("slot description fails too", not report.cond2)
        fact("because the zero ideal is not semiprime in the second ring",
             not report.s_semiprime)

    ok = all(holds for _, holds in facts)
    out.line(f"example {args.name}: {'reproduced' if ok else 'MISMATCH'}")
    out.kv("reproduced", ok)
    return 0 if ok else 1


# -- entry points -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=_cap, default=None,
                        help="override the ring-order and lattice caps")
    common.add_argument("--summary", action="store_true",
                        help="print one key=value line per fact instead of prose")

    parser = argparse.ArgumentParser(
        prog="moritactx",
        description="Analyze finite two-ring contexts: ideals, primeness, radicals.",
        epilog="Builtin sources: " + ", ".join(BUILTIN_PATTERNS))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the module and pairing laws of a context")
    p.add_argument("src")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ideals", parents=[common], help="enumerate ideals of the context ring")
    p.add_argument("src")
    p.add_argument("--side", choices=("two", "left", "right"), default="two")
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("primes", parents=[common],
                       help="prime/semiprime verdicts for every proper two-sided ideal")
    p.add_argument("src")
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("radical", parents=[common],
                       help="slotwise prime radical of the context ring")
    p.add_argument("src")
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose an ideal into slot or block form")
    p.add_argument("src")
    p.add_argument("--ideal", required=True,
                   help="a named ideal from the document, or inline parts "
                        "like 'R=0,4 V=all W=all S=all'")
    p.add_argument("--side", choices=("two", "left", "right"), default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check", parents=[common],
                       help="run one verified statement against a context")
    p.add_argument("src")
    p.add_argument("--theorem", required=True, choices=CHECK_TOKENS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("example", parents=[common],
                       help="reproduce one of the built-in worked examples")
    p.add_argument("name", choices=_EXAMPLES)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("report", parents=[common], help="full analysis of one context")
    p.add_argument("src")
    p.set_defaults(func=_cmd_report)
    return parser


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = _Printer(args.summary)
    try:
        code = args.func(args, out)
    except CapacityError as exc:
        hint = "" if exc.cap is None else " (raise --cap to proceed)"
        sys.stderr.write(f"capacity: {exc}{hint}\n")
        return 3
    except (AlgebraError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    out.flush()
    return code


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
