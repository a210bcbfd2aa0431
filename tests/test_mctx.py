from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from moritactx import (
    CHECK_TOKENS,
    MctxError,
    ValidationFailedError,
    build_ks_context,
    load_mctx,
    make_zn,
    parse_mctx,
    quadruple_mask,
    resolve_document,
    serialize_document,
)
from moritactx.catalog import battery_names, builtin_context, builtin_document
from moritactx.mctx import CarrierSpec, ProductSpec, inline_ideal_parts

EVEN_ODD_DOC = """\
context ex
base zn 6
R all
S all
V subset 0,2,4
W subset 0,3
product VW inherited
product WV inherited
"""


def test_parse_basic_document():
    doc = parse_mctx(EVEN_ODD_DOC)
    assert doc.name == "ex"
    assert doc.base == 6
    assert doc.v_spec == CarrierSpec("subset", (0, 2, 4))
    assert doc.w_spec == CarrierSpec("subset", (0, 3))
    assert doc.prod_vw == ProductSpec("inherited")
    assert doc.scalar is None


def test_resolve_basic_document():
    res = load_mctx(EVEN_ODD_DOC)
    assert res.context.dims == (6, 3, 2, 6)
    assert res.context.order == 216


def test_comments_and_blank_lines_are_skipped():
    doc = parse_mctx("# leading comment\n\nbase zn 4   # trailing\n\n")
    assert doc.base == 4


def test_scalar_shortcut_matches_direct_construction():
    res = load_mctx("base zn 4\nR all\nS all\nV all\nW all\nscalar s 2\n")
    direct = build_ks_context(make_zn(4), 2)
    assert (res.context.prod_vw == direct.prod_vw).all()
    assert (res.context.prod_wv == direct.prod_wv).all()
    assert res.context.order == 256


def test_subset_that_is_not_closed_is_rejected():
    with pytest.raises(MctxError, match="not closed under addition"):
        load_mctx("base zn 6\nV subset 0,1\nproduct VW inherited\nproduct WV inherited\n")


def test_parse_errors_carry_positions():
    with pytest.raises(MctxError, match="line 2"):
        parse_mctx("base zn 6\nbogus directive\n")
    with pytest.raises(MctxError, match="line 3"):
        parse_mctx("base zn 6\nR all\nR all\n")
    with pytest.raises(MctxError, match="integer"):
        parse_mctx("base zn six\n")


def test_duplicate_and_missing_pieces():
    with pytest.raises(MctxError, match="duplicate base"):
        parse_mctx("base zn 4\nbase zn 6\n")
    with pytest.raises(MctxError, match="no base ring"):
        resolve_document(parse_mctx("V zero\nW zero\n"))
    with pytest.raises(MctxError, match="duplicate scalar"):
        parse_mctx("base zn 4\nscalar s 1\nscalar s 2\n")


def test_scalar_form_conflicts():
    with pytest.raises(MctxError, match="scalar form"):
        load_mctx("base zn 4\nV zero\nscalar s 1\n")
    with pytest.raises(MctxError, match="product lines"):
        load_mctx("base zn 4\nproduct VW inherited\nproduct WV inherited\nscalar s 1\n")
    with pytest.raises(MctxError, match="out of range"):
        load_mctx("base zn 4\nscalar s 9\n")


def test_inherited_product_needs_shared_base():
    text = "base zn 4\nS zn 2\nV zero\nW zero\nproduct VW inherited\n"
    with pytest.raises(MctxError, match="inherited"):
        load_mctx(text)


def test_named_ideal_masks():
    res = builtin_context("paper:ex2.4")
    named = res.ideals["U"]
    assert named.side == "right"
    assert bin(named.mask).count("1") == 2 * 2 * 8 * 8
    inline = inline_ideal_parts(res.context, "R=0,4 V=0,4 W=all S=all")
    assert inline == named.parts
    assert quadruple_mask(res.context, *inline) == named.mask


def test_ideal_line_errors():
    with pytest.raises(MctxError, match="expected: ideal"):
        parse_mctx("base zn 4\nideal H R=0 V=all W=all\n")
    with pytest.raises(MctxError, match="given twice"):
        parse_mctx("base zn 4\nideal H R=0 R=0 V=all W=all\n")
    with pytest.raises(MctxError, match="no element labeled"):
        load_mctx("base zn 4\nproduct VW inherited\nproduct WV inherited\n"
                  "ideal H R=0,9 V=all W=all S=all\n")


def test_duplicate_ideal_names():
    with pytest.raises(MctxError, match="duplicate ideal name"):
        parse_mctx("base zn 4\nideal H R=0 V=all W=all S=0\n"
                   "ideal H R=all V=all W=all S=all\n")


# -- round trips --------------------------------------------------------------------


@pytest.mark.parametrize("name", battery_names())
def test_builtin_documents_round_trip(name):
    doc = parse_mctx(builtin_document(name))
    assert parse_mctx(serialize_document(doc)) == doc


def test_round_trip_keeps_ideal_lines():
    doc = parse_mctx(EVEN_ODD_DOC + "rightideal K R=0 V=0 W=all S=all\n")
    again = parse_mctx(serialize_document(doc))
    assert again == doc
    assert again.ideals[0].side == "right"


# -- explicit tables -----------------------------------------------------------------


TABLE_DOC = """\
context boolean2
table add R
0 1
1 0
table mul R
0 0
0 1
S zn 2
V zero
W zero
"""


def test_table_form_resolves():
    res = load_mctx(TABLE_DOC)
    assert res.context.dims == (2, 1, 1, 2)
    assert res.context.ring_r.order == 2


def test_table_form_round_trips():
    doc = parse_mctx(TABLE_DOC)
    assert parse_mctx(serialize_document(doc)) == doc


def test_table_product_matches_inherited():
    inherited = load_mctx("base zn 2\nproduct VW inherited\nproduct WV inherited\n")
    tabled = load_mctx("base zn 2\ntable VW\n0 0\n0 1\ntable WV\n0 0\n0 1\n")
    assert (inherited.context.prod_vw == tabled.context.prod_vw).all()
    assert np.array_equal(
        inherited.context.ring_r.mul, tabled.context.ring_r.mul)


def test_table_block_errors():
    with pytest.raises(MctxError, match="outside any table block"):
        parse_mctx("base zn 2\n0 1\n")
    with pytest.raises(MctxError, match="duplicate table block"):
        parse_mctx("table add R\n0 1\n1 0\ntable add R\n0 1\n1 0\n")
    with pytest.raises(MctxError, match="no rows"):
        parse_mctx("table add R\ntable mul R\n0 0\n0 1\n")
    with pytest.raises(MctxError, match="missing table"):
        parse_mctx("table add R\n0 1\n1 0\n")
    with pytest.raises(MctxError, match="ragged"):
        load_mctx("table add R\n0 1\n1\ntable mul R\n0 0\n0 1\nS zn 2\nV zero\nW zero\n")


def test_table_conflicts():
    with pytest.raises(MctxError, match="both a spec line and table blocks"):
        parse_mctx("R all\ntable add R\n0 1\n1 0\ntable mul R\n0 0\n0 1\n")
    with pytest.raises(MctxError, match="both a rule line and a table block"):
        parse_mctx("base zn 2\nproduct VW zero\ntable VW\n0 0\n0 0\n")
    with pytest.raises(MctxError, match="conflicts with explicit tables"):
        load_mctx("base zn 2\ntable add R\n0 1\n1 0\ntable mul R\n0 0\n0 1\n")


def test_broken_table_ring_is_rejected():
    text = "table add R\n0 1\n1 0\ntable mul R\n1 1\n1 1\nS zn 2\nV zero\nW zero\n"
    with pytest.raises(ValidationFailedError):
        load_mctx(text)


def test_module_table_without_identity_row():
    text = ("base zn 2\n"
            "table add V\n1 1\n1 1\n"          # no row acts as the identity
            "table leftact V\n0 0\n0 1\n"
            "table rightact V\n0 0\n0 1\n")
    with pytest.raises(MctxError, match="identity row"):
        load_mctx(text)


def test_module_from_tables():
    # V = Z2 as a (Z4, Z4)-bimodule via reduction mod 2, spelled out by hand
    text = ("base zn 4\n"
            "table add V\n"
            "0 1\n"
            "1 0\n"
            "table leftact V\n"
            "0 0\n"
            "0 1\n"
            "0 0\n"
            "0 1\n"
            "table rightact V\n"
            "0 0 0 0\n"
            "0 1 0 1\n"
            "W zero\n")
    res = load_mctx(text)
    assert res.context.mod_v.order == 2
    assert res.context.mod_v.left_act[3, 1] == 1


# -- the README describes what the code does -------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_document_block_loads():
    block = re.search(r"```\n(.*?)```", _readme_section("Document format"), re.S).group(1)
    res = load_mctx(block)
    assert res.document.name == "even-ideal"
    assert res.context.dims == (6, 3, 2, 6)
    assert set(res.ideals) == {"H"}


def test_readme_table_headers_parse():
    # Every table header the README documents opens a block, here of one row.
    headers = re.findall(r"`(table [^`]*)`", _readme_section("Document format"))
    assert "table add R" in headers
    doc = parse_mctx("".join(f"{header}\n0\n" for header in headers))
    assert doc.r_spec.kind == doc.v_spec.kind == "table"
    assert doc.prod_vw.rule == doc.prod_wv.rule == "table"


def test_readme_example_orders():
    claims = re.findall(r"`(ex2\.\d+)` — order-(\d+)", README.read_text(encoding="utf-8"))
    assert len(claims) == 3
    for name, order in claims:
        assert builtin_context(f"paper:{name}").context.order == int(order), name


def test_readme_battery_check_count():
    count = sum(len(CHECK_TOKENS) - (builtin_context(name).document.scalar is None)
                for name in battery_names())
    assert f"({count} checks," in README.read_text(encoding="utf-8")
