"""A small line-oriented text format for describing contexts.

A document is a sequence of directives, one per line, ``#`` starting a
comment. The base ring is a modular-integer ring (or explicit tables);
carriers are the base itself, an additively closed absorbing subset of
it, a residue carrier, the one-point module, or explicit tables;
pairings are inherited from base multiplication, identically zero, or
explicit tables. The scalar form instead fixes all four carriers to the
base ring and derives both pairings from a central scaling element.

    context full:4
    base zn 4
    product VW inherited
    product WV inherited

    context ks:6:2
    base zn 6
    scalar s 2

Explicit tables are blocks: a ``table add R`` header followed by k rows
of k space-separated indices (``table mul R`` likewise; modules take
``add``/``leftact``/``rightact`` blocks, products a bare ``table VW``).
Named candidate ideals ride along as ``ideal``/``rightideal``/``leftideal``
lines giving one part per slot, e.g. ``ideal H R=0,3 V=all W=all S=0,2,4``.
Part and subset lists use element labels, not carrier indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitsets import full_mask, indices_of
from .context import MoritaContext, build_ks_context, quadruple_mask, validate_context
from .errors import MctxError, NotASubmoduleError
from .modules import (
    Bimodule,
    residue_bimodule,
    ring_bimodule,
    subset_bimodule,
    validate_bimodule,
    zero_bimodule,
)
from .rings import make_zn, ring_from_tables
from .validation import require_ok

__all__ = [
    "CarrierSpec",
    "ProductSpec",
    "PartSpec",
    "IdealSpec",
    "ContextDocument",
    "NamedIdeal",
    "ResolvedContext",
    "parse_mctx",
    "serialize_document",
    "resolve_document",
    "load_mctx",
    "inline_ideal_parts",
]

Rows = tuple[tuple[int, ...], ...]

_CARRIER_KINDS = {
    "R": ("all",),
    "S": ("all", "zn"),
    "V": ("all", "subset", "zn", "zero"),
    "W": ("all", "subset", "zn", "zero"),
}
_TABLE_BLOCKS = {
    "add": ("R", "S", "V", "W"),
    "mul": ("R", "S"),
    "leftact": ("V", "W"),
    "rightact": ("V", "W"),
}
_RING_TABLES = ("add", "mul")
_MODULE_TABLES = ("add", "leftact", "rightact")
_IDEAL_KEYWORDS = {"ideal": "two", "rightideal": "right", "leftideal": "left"}
_SIDE_KEYWORDS = {side: kw for kw, side in _IDEAL_KEYWORDS.items()}


@dataclass(frozen=True)
class CarrierSpec:
    """How one of the four carriers is populated."""

    kind: str                            # "all" | "subset" | "zn" | "zero" | "table"
    values: tuple[int, ...] = ()         # subset labels, or (modulus,) for zn
    tables: tuple[tuple[str, Rows], ...] = ()   # ("add", rows), ... for "table"


@dataclass(frozen=True)
class ProductSpec:
    """How one of the two pairings is populated."""

    rule: str                            # "inherited" | "zero" | "table"
    rows: Rows = ()


@dataclass(frozen=True)
class PartSpec:
    """One slot of a named ideal: the whole carrier or a list of labels."""

    kind: str                            # "all" | "subset"
    values: tuple[int, ...] = ()


@dataclass(frozen=True)
class IdealSpec:
    name: str
    side: str                            # "two" | "right" | "left"
    r: PartSpec
    v: PartSpec
    w: PartSpec
    s: PartSpec


@dataclass(frozen=True)
class ContextDocument:
    """Parsed form of a context description, before any algebra happens."""

    name: str | None = None
    base: int | None = None
    r_spec: CarrierSpec = CarrierSpec("all")
    s_spec: CarrierSpec = CarrierSpec("all")
    v_spec: CarrierSpec = CarrierSpec("all")
    w_spec: CarrierSpec = CarrierSpec("all")
    prod_vw: ProductSpec = ProductSpec("zero")
    prod_wv: ProductSpec = ProductSpec("zero")
    scalar: int | None = None
    ideals: tuple[IdealSpec, ...] = ()


@dataclass(frozen=True)
class NamedIdeal:
    """A named candidate ideal: the product of its four slot ``parts``, masks
    of R, V, W and S. ``is_slotted_ideal(context, parts, side)`` decides it
    without T, and its slot form (``IdealQuadruple.of``) or its blocks
    (``slotted_blocks``) are read off the parts; ``mask``, its member mask
    in the context ring, is formed only when asked for."""

    name: str
    side: str
    parts: tuple[int, int, int, int]
    context: MoritaContext = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return math.prod(m.bit_count() for m in self.parts)

    @property
    def mask(self) -> int:
        return quadruple_mask(self.context, *self.parts)


@dataclass(frozen=True)
class ResolvedContext:
    document: ContextDocument
    context: MoritaContext
    ideals: dict[str, NamedIdeal] = field(default_factory=dict)


# -- parsing -------------------------------------------------------------------


def _column(line: str, token: str) -> int:
    pos = line.find(token)
    return pos + 1 if pos >= 0 else 1


def _int_token(token: str, what: str, line_no: int | None, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MctxError(f"{what} must be an integer, got {token!r}",
                        line_no, _column(line, token)) from None


def _csv_token(token: str, what: str, line_no: int | None, line: str) -> tuple[int, ...]:
    values = []
    for piece in token.split(","):
        if not piece:
            raise MctxError(f"{what} has an empty entry in {token!r}",
                            line_no, _column(line, token))
        values.append(_int_token(piece, what, line_no, line))
    return tuple(sorted(set(values)))


def _is_row_line(head: str) -> bool:
    try:
        int(head)
    except ValueError:
        return False
    return True


_PARTS_USAGE = "R=<parts> V=<parts> W=<parts> S=<parts>"


def _parse_parts(tokens: list[str], line_no: int | None, line: str) -> tuple[PartSpec, ...]:
    """The parts R, V, W and S of four part tokens, each given once;
    ``line_no`` None drops the position from the errors."""
    parts: dict[str, PartSpec] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in ("R", "V", "W", "S"):
            raise MctxError(f"ideal part must look like R=<parts>, got {token!r}",
                            line_no, _column(line, token))
        if key in parts:
            raise MctxError(f"ideal part {key} given twice", line_no, _column(line, token))
        if value == "all":
            parts[key] = PartSpec("all")
        else:
            parts[key] = PartSpec("subset", _csv_token(value, f"{key} part", line_no, line))
    return tuple(parts[k] for k in "RVWS")


def _parse_ideal(tokens: list[str], line_no: int, line: str) -> IdealSpec:
    keyword = tokens[0]
    if len(tokens) != 6:
        raise MctxError(f"expected: {keyword} <name> {_PARTS_USAGE}", line_no, 1)
    return IdealSpec(tokens[1], _IDEAL_KEYWORDS[keyword], *_parse_parts(tokens[2:], line_no, line))


def parse_mctx(text: str) -> ContextDocument:
    """Parse a context description; errors carry 1-based line/column."""
    name: str | None = None
    base: int | None = None
    carriers: dict[str, CarrierSpec] = {}
    products: dict[str, ProductSpec] = {}
    scalar: int | None = None
    ideals: list[IdealSpec] = []
    blocks: dict[tuple[str, str], list[tuple[int, ...]]] = {}
    block_lines: dict[tuple[str, str], int] = {}
    open_block: tuple[str, str] | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if _is_row_line(head):
            if open_block is None:
                raise MctxError("table row outside any table block", line_no, 1)
            blocks[open_block].append(tuple(
                _int_token(t, "table entry", line_no, line) for t in tokens))
            continue
        open_block = None

        if head == "context":
            if name is not None:
                raise MctxError("duplicate context line", line_no, 1)
            if len(tokens) != 2:
                raise MctxError("expected: context <name>", line_no, 1)
            name = tokens[1]

        elif head == "base":
            if base is not None:
                raise MctxError("duplicate base line", line_no, 1)
            if len(tokens) != 3 or tokens[1] != "zn":
                raise MctxError("expected: base zn <n>", line_no, 1)
            base = _int_token(tokens[2], "base modulus", line_no, line)

        elif head in _CARRIER_KINDS:
            if head in carriers:
                raise MctxError(f"duplicate {head} line", line_no, 1)
            allowed = _CARRIER_KINDS[head]
            if len(tokens) < 2 or tokens[1] not in allowed:
                raise MctxError(
                    f"carrier {head} must be one of: {', '.join(allowed)}",
                    line_no, _column(line, tokens[1]) if len(tokens) > 1 else 1)
            kind = tokens[1]
            if kind in ("all", "zero"):
                if len(tokens) != 2:
                    raise MctxError(f"expected: {head} {kind}", line_no, 1)
                carriers[head] = CarrierSpec(kind)
            elif kind == "zn":
                if len(tokens) != 3:
                    raise MctxError(f"expected: {head} zn <modulus>", line_no, 1)
                carriers[head] = CarrierSpec(
                    "zn", (_int_token(tokens[2], "carrier modulus", line_no, line),))
            else:
                if len(tokens) != 3:
                    raise MctxError(f"expected: {head} subset <comma-separated labels>", line_no, 1)
                carriers[head] = CarrierSpec(
                    "subset", _csv_token(tokens[2], f"{head} subset", line_no, line))

        elif head == "product":
            if len(tokens) != 3 or tokens[1] not in ("VW", "WV"):
                raise MctxError("expected: product VW|WV inherited|zero", line_no, 1)
            if tokens[2] not in ("inherited", "zero"):
                raise MctxError(f"product rule must be inherited or zero, got {tokens[2]!r}",
                                line_no, _column(line, tokens[2]))
            if tokens[1] in products:
                raise MctxError(f"duplicate product {tokens[1]} line", line_no, 1)
            products[tokens[1]] = ProductSpec(tokens[2])

        elif head == "table":
            if len(tokens) == 2 and tokens[1] in ("VW", "WV"):
                key = ("product", tokens[1])
            elif (len(tokens) == 3 and tokens[1] in _TABLE_BLOCKS
                  and tokens[2] in _TABLE_BLOCKS[tokens[1]]):
                key = (tokens[1], tokens[2])
            else:
                raise MctxError("expected: table add|mul|leftact|rightact <carrier>, "
                                "or table VW|WV", line_no, 1)
            if key in blocks:
                raise MctxError(f"duplicate table block {' '.join(tokens[1:])}", line_no, 1)
            blocks[key] = []
            block_lines[key] = line_no
            open_block = key

        elif head == "scalar":
            if scalar is not None:
                raise MctxError("duplicate scalar line", line_no, 1)
            if len(tokens) != 3 or tokens[1] != "s":
                raise MctxError("expected: scalar s <index>", line_no, 1)
            scalar = _int_token(tokens[2], "scalar index", line_no, line)

        elif head in _IDEAL_KEYWORDS:
            spec = _parse_ideal(tokens, line_no, line)
            if any(existing.name == spec.name for existing in ideals):
                raise MctxError(f"duplicate ideal name {spec.name!r}", line_no, 1)
            ideals.append(spec)

        else:
            raise MctxError(f"unknown directive {head!r}", line_no, 1)

    table_parts: dict[str, dict[str, Rows]] = {}
    for (which, target), rows in blocks.items():
        where = block_lines[(which, target)]
        if not rows:
            raise MctxError(f"table block {which} {target} has no rows".replace("product ", ""),
                            where, 1)
        if which == "product":
            if target in products:
                raise MctxError(f"product {target} has both a rule line and a table block",
                                where, 1)
            products[target] = ProductSpec("table", tuple(rows))
        else:
            table_parts.setdefault(target, {})[which] = tuple(rows)
    for target, parts in table_parts.items():
        if target in carriers:
            raise MctxError(f"carrier {target} has both a spec line and table blocks")
        needed = _RING_TABLES if target in ("R", "S") else _MODULE_TABLES
        missing = [w for w in needed if w not in parts]
        if missing:
            raise MctxError(f"explicit carrier {target} is missing table(s): "
                            f"{', '.join(missing)}")
        carriers[target] = CarrierSpec("table", tables=tuple(sorted(parts.items())))

    return ContextDocument(
        name=name, base=base,
        r_spec=carriers.get("R", CarrierSpec("all")),
        s_spec=carriers.get("S", CarrierSpec("all")),
        v_spec=carriers.get("V", CarrierSpec("all")),
        w_spec=carriers.get("W", CarrierSpec("all")),
        prod_vw=products.get("VW", ProductSpec("zero")),
        prod_wv=products.get("WV", ProductSpec("zero")),
        scalar=scalar, ideals=tuple(ideals))


# -- serialization ---------------------------------------------------------------


def _part_text(part: PartSpec) -> str:
    return "all" if part.kind == "all" else ",".join(str(v) for v in part.values)


def _block_lines(header: str, rows: Rows) -> list[str]:
    return [header] + [" ".join(str(x) for x in row) for row in rows]


def serialize_document(doc: ContextDocument) -> str:
    """Canonical text for a document; parsing it back gives an equal document.

    Defaulted lines (carriers at ``all``, zero products) are omitted, so the
    output is minimal rather than a copy of whatever was parsed.
    """
    lines: list[str] = []
    if doc.name is not None:
        lines.append(f"context {doc.name}")
    if doc.base is not None:
        lines.append(f"base zn {doc.base}")
    table_carriers: list[tuple[str, CarrierSpec]] = []
    for key, spec in (("R", doc.r_spec), ("S", doc.s_spec),
                      ("V", doc.v_spec), ("W", doc.w_spec)):
        if spec.kind == "all":
            continue
        if spec.kind == "table":
            table_carriers.append((key, spec))
        elif spec.kind == "zero":
            lines.append(f"{key} zero")
        elif spec.kind == "zn":
            lines.append(f"{key} zn {spec.values[0]}")
        else:
            lines.append(f"{key} subset {','.join(str(v) for v in spec.values)}")
    if doc.scalar is not None:
        lines.append(f"scalar s {doc.scalar}")
    else:
        for tag, spec in (("VW", doc.prod_vw), ("WV", doc.prod_wv)):
            if spec.rule in ("inherited",):
                lines.append(f"product {tag} {spec.rule}")
    for key, spec in table_carriers:
        tables = dict(spec.tables)
        order = _RING_TABLES if key in ("R", "S") else _MODULE_TABLES
        for which in order:
            if which in tables:
                lines.extend(_block_lines(f"table {which} {key}", tables[which]))
    if doc.scalar is None:
        for tag, spec in (("VW", doc.prod_vw), ("WV", doc.prod_wv)):
            if spec.rule == "table":
                lines.extend(_block_lines(f"table {tag}", spec.rows))
    for spec in doc.ideals:
        parts = " ".join(f"{k}={_part_text(p)}" for k, p in
                         (("R", spec.r), ("V", spec.v), ("W", spec.w), ("S", spec.s)))
        lines.append(f"{_SIDE_KEYWORDS[spec.side]} {spec.name} {parts}")
    return "\n".join(lines) + "\n"


# -- resolution -------------------------------------------------------------------


def _subset_name(base_order: int, values: tuple[int, ...]) -> str:
    """Pretty name for a subset carrier: dZn when it is the multiples of d."""
    if values == (0,):
        return "0"
    if len(values) > 1 and values[0] == 0:
        d = values[1]
        if len(values) * d == base_order and all(v == i * d for i, v in enumerate(values)):
            return f"{d}Z{base_order}"
    return "{" + ",".join(str(v) for v in values) + "}"


def _rows_array(rows: Rows, what: str) -> np.ndarray:
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise MctxError(f"{what} table has ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=np.int64)


def _ring_from_spec(key: str, spec: CarrierSpec) -> object:
    tables = dict(spec.tables)
    return ring_from_tables(_rows_array(tables["add"], f"{key} add"),
                            _rows_array(tables["mul"], f"{key} mul"), name=key)


def _module_from_spec(key: str, spec: CarrierSpec, left_ring, right_ring) -> Bimodule:
    tables = dict(spec.tables)
    add = _rows_array(tables["add"], f"{key} add")
    m = add.shape[0]
    if add.shape[1] != m:
        raise MctxError(f"carrier {key} add table must be square, got {add.shape}")
    identity_rows = np.flatnonzero((add == np.arange(m)).all(axis=1))
    if identity_rows.size != 1:
        raise MctxError(f"carrier {key} add table has no unique identity row")
    mod = Bimodule(add, int(identity_rows[0]),
                   left_ring, _rows_array(tables["leftact"], f"{key} leftact"),
                   right_ring, _rows_array(tables["rightact"], f"{key} rightact"),
                   name=key)
    require_ok(validate_bimodule(mod), f"carrier {key} does not satisfy the bimodule laws: ")
    return mod


def _label_values(label_of, order: int) -> list[int | None]:
    out: list[int | None] = []
    for i in range(order):
        try:
            out.append(int(label_of(i)))
        except ValueError:
            out.append(None)
    return out


def _part_mask(part: PartSpec, label_of, order: int, what: str) -> int:
    if part.kind == "all":
        return full_mask(order)
    labels = _label_values(label_of, order)
    mask = 0
    for val in part.values:
        try:
            mask |= 1 << labels.index(val)
        except ValueError:
            raise MctxError(f"{what} has no element labeled {val}") from None
    return mask


def _resolve_base(doc: ContextDocument):
    if doc.r_spec.kind == "table":
        if doc.base is not None:
            raise MctxError("base zn conflicts with explicit tables for R")
        return _ring_from_spec("R", doc.r_spec)
    if doc.base is None:
        raise MctxError("document declares no base ring (base zn <n>)")
    if doc.base < 2:
        raise MctxError(f"base ring needs modulus >= 2, got {doc.base}")
    return make_zn(doc.base)


def resolve_document(doc: ContextDocument) -> ResolvedContext:
    """Build the context (and named ideal masks) a document describes."""
    base = _resolve_base(doc)

    if doc.scalar is not None:
        for key, spec in (("S", doc.s_spec), ("V", doc.v_spec), ("W", doc.w_spec)):
            if spec.kind != "all":
                raise MctxError(f"scalar form fixes carrier {key} to the base ring; "
                                f"drop the {key} lines")
        if any(spec.rule != "zero" for spec in (doc.prod_vw, doc.prod_wv)):
            raise MctxError("scalar form derives its own products; drop the product lines")
        if not 0 <= doc.scalar < base.order:
            raise MctxError(f"scalar index {doc.scalar} out of range for {base.name}")
        ctx = build_ks_context(base, doc.scalar)
        if doc.name is not None:
            ctx.name = doc.name
    else:
        if doc.s_spec.kind == "zn":
            if doc.s_spec.values[0] < 2:
                raise MctxError(f"second ring needs modulus >= 2, got {doc.s_spec.values[0]}")
            ring_s = make_zn(doc.s_spec.values[0])
        elif doc.s_spec.kind == "table":
            ring_s = _ring_from_spec("S", doc.s_spec)
        else:
            ring_s = base
        shared = ring_s is base

        embedded: dict[str, np.ndarray] = {}    # base-ring index of each all/subset carrier

        def carrier(key: str, spec: CarrierSpec, left, right):
            if spec.kind == "table":
                return _module_from_spec(key, spec, left, right)
            if spec.kind == "zero":
                return zero_bimodule(left, right)
            if spec.kind == "zn":
                return residue_bimodule(spec.values[0], left, right)
            if not shared:
                raise MctxError(f"carrier {key} {spec.kind} lives inside the base ring, "
                                f"which needs both corner rings equal to it")
            if spec.kind == "all":
                embedded[key] = np.arange(base.order)
                return ring_bimodule(base)
            mask = 0
            for val in spec.values:
                if not 0 <= val < base.order:
                    raise MctxError(f"carrier {key} label {val} out of range for {base.name}")
                mask |= 1 << val
            try:
                mod = subset_bimodule(base, mask, name=_subset_name(base.order, spec.values))
            except NotASubmoduleError as exc:
                raise MctxError(f"carrier {key}: {exc}") from exc
            embedded[key] = indices_of(mask, base.order)
            return mod

        mod_v = carrier("V", doc.v_spec, base, ring_s)
        mod_w = carrier("W", doc.w_spec, ring_s, base)

        def pairing(tag: str, spec: ProductSpec, amod, bmod, target):
            if spec.rule == "zero":
                return np.full((amod.order, bmod.order), target.zero, dtype=np.int32)
            if spec.rule == "table":
                return _rows_array(spec.rows, f"product {tag}")
            if tag[0] not in embedded or tag[1] not in embedded:
                raise MctxError(f"product {tag} inherited needs both module carriers "
                                f"inside the base ring and both corners equal to it")
            return base.mul[np.ix_(embedded[tag[0]], embedded[tag[1]])]

        pair_vw = pairing("VW", doc.prod_vw, mod_v, mod_w, base)
        pair_wv = pairing("WV", doc.prod_wv, mod_w, mod_v, ring_s)

        ctx = MoritaContext(base, ring_s, mod_v, mod_w, pair_vw, pair_wv, name=doc.name)
        require_ok(validate_context(ctx), "resolved context does not satisfy the pairing laws: ")

    named: dict[str, NamedIdeal] = {}
    for spec in doc.ideals:
        named[spec.name] = NamedIdeal(spec.name, spec.side, _ideal_parts(ctx, spec), ctx)
    return ResolvedContext(doc, ctx, named)


def _ideal_parts(ctx: MoritaContext, spec: IdealSpec) -> tuple[int, int, int, int]:
    return (_part_mask(spec.r, ctx.ring_r.label, ctx.ring_r.order, "first ring"),
            _part_mask(spec.v, ctx.mod_v.label, ctx.mod_v.order, "first module"),
            _part_mask(spec.w, ctx.mod_w.label, ctx.mod_w.order, "second module"),
            _part_mask(spec.s, ctx.ring_s.label, ctx.ring_s.order, "second ring"))


def inline_ideal_parts(ctx: MoritaContext, text: str) -> tuple[int, int, int, int]:
    """Slot parts, masks of R, V, W and S, of a free-standing part listing
    like ``R=0,4 V=all W=all S=all``. Its errors cite no position: the
    listing is not a line of a document."""
    tokens = text.split()
    if len(tokens) != 4:
        raise MctxError(f"expected: {_PARTS_USAGE}")
    return _ideal_parts(ctx, IdealSpec("inline", "two", *_parse_parts(tokens, None, text)))


def load_mctx(text: str) -> ResolvedContext:
    """Parse and resolve in one step."""
    return resolve_document(parse_mctx(text))
