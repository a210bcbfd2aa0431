from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import moritactx

from moritactx.bitsets import full_mask
from moritactx.cli import run_command
from moritactx.ideals import Ideal


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "full:4")
    assert code == 0
    assert "validation: ok" in out
    assert "order: 256" in out


def test_validate_flags_broken_laws(tmp_path, capsys):
    doc = tmp_path / "broken.mctx"
    doc.write_text("base zn 2\ntable VW\n1 1\n1 0\ntable WV\n0 0\n0 1\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1
    assert "validation: FAIL" in out


def test_parse_error_is_invalid_input(tmp_path, capsys):
    doc = tmp_path / "bad.mctx"
    doc.write_text("base zn 6\nnonsense\n")
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert "line 2" in err


def test_non_utf8_file_is_invalid_input(tmp_path, capsys):
    doc = tmp_path / "binary.mctx"
    doc.write_bytes(b"\xff\xfebase zn 6\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err


def test_subset_carrier_without_zero_is_invalid_input(tmp_path, capsys):
    doc = tmp_path / "nozero.mctx"
    doc.write_text("base zn 6\nV subset 2,4\n")
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert err == "error: carrier V: submodule must contain zero\n"


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "report", "nosuch:3")
    assert code == 2
    assert "unknown builtin" in err


def test_capacity_exit_code(capsys):
    # report never builds T, so --cap bounds only its lattices; Z6 has 4
    # ideals, all principal.
    code, _, err = run(capsys, "report", "full:6", "--cap", "3")
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize("command", ["primes", "report"])
def test_the_order_cap_does_not_apply_without_t(capsys, command):
    # full:6 has order 1296, over a cap of 100; its lattices are far under it.
    code, out, err = run(capsys, command, "full:6", "--cap", "100")
    assert (code, err) == (0, "")
    assert "context ring prime: NO" in out


def test_ideals_listing(capsys):
    code, out, _ = run(capsys, "ideals", "full:4")
    assert code == 0
    assert "two-sided ideals: 3" in out


def test_ideals_one_sided(capsys):
    code, out, _ = run(capsys, "ideals", "tri:4,2", "--side", "right")
    assert code == 0
    assert "right ideals: 12" in out
    assert out.count("block form: yes") == 12


def test_primes_listing(capsys):
    code, out, _ = run(capsys, "primes", "full:6")
    assert code == 0
    assert "proper two-sided ideals: 3" in out
    assert "context ring prime: NO, semiprime: yes" in out


def test_radical_output(capsys):
    code, out, _ = run(capsys, "radical", "full:4")
    assert code == 0
    assert "prime radical: (R={0, 2}, V={0, 2}, W={0, 2}, S={0, 2})" in out
    assert "matches the intersection of primes: yes" in out


def test_radical_flags_a_disagreeing_direct_radical(capsys, monkeypatch):
    # The "matches" line reports the comparison the command actually ran:
    # with no lifted prime, their meet is all of T.
    monkeypatch.setattr("moritactx.cli.context_prime_spectrum",
                        lambda ctx, cap: (frozenset(), tuple(full_mask(n) for n in ctx.dims)))
    code, out, _ = run(capsys, "radical", "full:3")
    assert code == 1
    assert "matches the intersection of primes: NO" in out


@pytest.mark.parametrize("argv", [["full:180"], ["zero:100,101", "--cap", "20000"]])
def test_radical_is_cross_checked_at_every_order_without_t(monkeypatch, capsys, argv):
    # full:180 is far above the order cap and zero:100,101 fits under the
    # raised one: both compare the slotwise radical with the meet of T's
    # primes lifted from the corners, with every route to T refused.
    _refuse_t(monkeypatch)
    code, out, err = run(capsys, "radical", *argv)
    assert (code, err) == (0, "")
    assert out.endswith("matches the intersection of primes: yes\n")
    code, out, _ = run(capsys, "radical", *argv, "--summary")
    assert code == 0 and "cross_checked=true" in out.splitlines()


def test_decompose_named_ideal(capsys):
    code, out, _ = run(capsys, "decompose", "paper:ex2.4", "--ideal", "U")
    assert code == 0
    assert "reconstructs the ideal: yes" in out


def test_decompose_inline_ideal(capsys):
    code, out, _ = run(capsys, "decompose", "full:4", "--ideal", "R=0,2 V=0,2 W=0,2 S=0,2")
    assert code == 0
    assert "decomposition: ok" in out


@pytest.mark.parametrize("side", ["two", "right"])
def test_decompose_answers_above_the_order_cap(monkeypatch, capsys, side):
    # full:180 has order 1 049 760 000: T's mul would need 259 496 680 MiB
    # and a mask of T is a grid of 10⁹ bools. Both are refused; the ideal
    # is decided from its slot parts and its form read off them.
    _refuse_t(monkeypatch)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "decompose", "full:180", "--ideal", "R=0 V=0 W=0 S=0",
                             "--side", side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out.endswith("decomposition: ok\n" if side == "two"
                        else "reconstructs the ideal: yes\n")
    assert peak < 100 * 2**20, peak


def test_decompose_side_labels_its_blocks_without_block_views(monkeypatch, capsys, tmp_path):
    # Each block is the product of two slot parts, so its labels are read
    # off the slot carriers' labels: no block view, whose action tables
    # alone took 23 MiB here, is built, and the run peaks near the
    # two-sided one. A fresh document each run, so both load the context.
    from moritactx import context
    from moritactx.catalog import builtin_document

    def refuse(*args):
        raise AssertionError("a block view was built")

    _refuse_t(monkeypatch)
    monkeypatch.setattr(context, "_pair_views", refuse)
    doc = tmp_path / "full180.mctx"
    doc.write_text(builtin_document("full:180"))
    peaks = {}
    for side in ("two", "right"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "decompose", str(doc), "--ideal", "R=0 V=0 W=0 S=0",
                                 "--side", side)
            peaks[side] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
    assert out == ("context full:180\ndims: (180, 180, 180, 180)\norder: 1049760000\n"
                   "inline ideal (right-sided)\nblock 1: {(0, 0)} (submodule: yes)\n"
                   "block 2: {(0, 0)} (submodule: yes)\nblocks embed as ideals: yes/yes\n"
                   "pairing containments: yes/yes\nreconstructs the ideal: yes\n")
    assert peaks["right"] < 1.5 * peaks["two"], peaks


def test_decompose_names_a_slot_failure_above_the_order_cap(monkeypatch, capsys):
    _refuse_t(monkeypatch)
    code, out, err = run(capsys, "decompose", "full:180", "--ideal", "R=0,90 V=0 W=0 S=0",
                         "--side", "right")
    assert (code, out) == (2, "")
    assert err == ("error: the product of the parts (R={0, 90}, V={0}, W={0}, S={0}) is not a "
                   "right-sided ideal of T(full:180); first failure ('r_part*V<=v_part', 90, 1)\n")


def test_decompose_non_ideal_is_invalid_input(capsys):
    code, _, err = run(capsys, "decompose", "full:4", "--ideal", "R=0,1 V=0 W=0 S=0")
    assert code == 2
    assert err.endswith("first failure ('R', 'add', 1, 1)\n")


def test_decompose_one_sided_non_ideal_is_invalid_input(capsys):
    code, out, err = run(capsys, "decompose", "paper:ex2.4", "--ideal", "R=0,4 V=0 W=0 S=0",
                         "--side", "right")
    assert (code, out) == (2, "")
    assert err == ("error: the product of the parts (R={0, 4}, V={0}, W={0}, S={0}) is not a "
                   "right-sided ideal of T(paper:ex2.4); first failure ('r_part*V<=v_part', 4, 1)\n")


@pytest.mark.parametrize("src, names", [("paper:ex2.4", "U"), ("full:4", "no ideals")])
def test_decompose_unknown_ideal_lists_the_named_ones(capsys, src, names):
    code, out, err = run(capsys, "decompose", src, "--ideal", "nosuch")
    assert (code, out) == (2, "")
    assert err == f"error: unknown ideal 'nosuch': the document names {names}\n"


@pytest.mark.parametrize("listing, message", [
    ("R=0,x V=all W=all S=all", "R part must be an integer, got 'x'"),
    ("R=0 V=0", "expected: R=<parts> V=<parts> W=<parts> S=<parts>"),
    ("R=0 V=0 W=0 S=0 X=1", "expected: R=<parts> V=<parts> W=<parts> S=<parts>"),
    ("R=0 R=0 V=0 S=0", "ideal part R given twice"),
    ("Q=0 V=0 W=0 S=0", "ideal part must look like R=<parts>, got 'Q=0'"),
])
def test_decompose_inline_listing_errors_cite_no_document_position(capsys, listing, message):
    code, out, err = run(capsys, "decompose", "paper:ex2.4", "--ideal", listing)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "full:6", "--theorem", "2.9")
    assert code == 0
    assert "check 2.9: PASS" in out


def test_check_rejects_unknown_token(capsys):
    code, _, _ = run(capsys, "check", "full:6", "--theorem", "9.9")
    assert code == 2


def test_ks_check_needs_scalar_form(capsys):
    code, _, err = run(capsys, "check", "full:6", "--theorem", "ks")
    assert code == 2
    assert "scalar" in err


@pytest.mark.parametrize("name", ["ex2.4", "ex2.8", "ex2.12"])
def test_examples_reproduce(capsys, name):
    code, out, _ = run(capsys, "example", name)
    assert code == 0
    assert f"example {name}: reproduced" in out


def test_example_mentions_the_semiprime_witness(capsys):
    _, out, _ = run(capsys, "example", "ex2.12")
    assert "witness: (0, 0, 0, 2)" in out


def test_report_is_deterministic(capsys):
    _, first, _ = run(capsys, "report", "paper:ex2.12")
    _, second, _ = run(capsys, "report", "paper:ex2.12")
    assert first == second
    assert "two-sided ideals: 21" in first


def test_report_summary_is_machine_readable(capsys):
    code, out, _ = run(capsys, "report", "zero:2,4", "--summary")
    assert code == 0
    lines = out.strip().splitlines()
    assert all("=" in line for line in lines)
    pairs = dict(line.split("=", 1) for line in lines)
    assert pairs["order"] == "8"
    assert pairs["surjective"] == "false"
    assert pairs["ring_semiprime"] == "false"


def test_help_exits_cleanly(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_missing_subcommand_is_invalid(capsys):
    code, _, _ = run(capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["primes", "report"])
def test_raised_cap_reaches_the_per_ideal_reports(monkeypatch, capsys, command):
    # A default order cap below full:4's order 256 stands in for a context
    # above the real default, without building a ring that large.
    from moritactx.context import build_context_ring

    monkeypatch.setattr(build_context_ring, "__defaults__", (100,))
    code, out, err = run(capsys, command, "full:4", "--cap", "1000")
    assert (code, err) == (0, "")
    assert "context ring prime: NO" in out


def test_lattice_cap_counts_the_seeds(capsys):
    # Every ideal of Z6 is principal, so the lattice is its 4 seeds.
    code, _, err = run(capsys, "ideals", "full:6", "--cap", "3")
    assert code == 3
    assert "two-sided ideal lattice of Z6 exceeds cap 3" in err


def test_lattice_cap_bounds_the_context_lattice(capsys):
    # T(ex2.12) has 21 two-sided ideals; its corner and carrier lattices
    # each fit under a cap of 10, the context's own lattice does not.
    code, _, err = run(capsys, "ideals", "paper:ex2.12", "--cap", "10")
    assert code == 3
    assert "two-sided ideal lattice of T(paper:ex2.12) exceeds cap 10" in err
    code, out, _ = run(capsys, "ideals", "paper:ex2.12", "--cap", "21")
    assert code == 0
    assert "two-sided ideals: 21" in out


def test_example_honours_the_cap(capsys):
    code, _, err = run(capsys, "example", "ex2.12", "--cap", "10")
    assert code == 3
    assert "has order 64, over the cap 10" in err


def test_inherited_pairing_needs_carriers_inside_the_base_ring(tmp_path, capsys):
    # V is Z2 as a residue module, not a subset of the base ring, so the
    # base ring's multiplication gives no VW pairing.
    doc = tmp_path / "residue.mctx"
    doc.write_text("base zn 2\nV zn 2\nproduct VW inherited\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == ("error: product VW inherited needs both module carriers inside the "
                   "base ring and both corners equal to it\n")


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_invalid_input(capsys, cap):
    code, out, err = run(capsys, "ideals", "full:4", "--cap", cap)
    assert (code, out) == (2, "")
    assert f"argument --cap: must be at least 1, got {cap}" in err


def test_non_integer_cap_is_invalid_input(capsys):
    code, out, err = run(capsys, "ideals", "full:4", "--cap", "ten")
    assert (code, out) == (2, "")
    assert "argument --cap: invalid int value: 'ten'" in err


# Every subcommand, run through run_command in one fresh interpreter after
# importing the CLI. Plain np.unique imports numpy.ma on numpy 2.x (it asks
# np.ma.is_masked first), about 20 ms of a few-millisecond job; the check
# is a set difference, since numpy 1.x loads numpy.ma with numpy itself.
_NO_MA_SCRIPT = """\
import contextlib, io, json, sys
from moritactx.checks import CHECK_TOKENS
from moritactx.cli import run_command
commands = [
    ["validate", "paper:ex2.4"],
    ["ideals", "paper:ex2.4"],
    ["ideals", "paper:ex2.4", "--side", "right"],
    ["primes", "paper:ex2.4"],
    ["radical", "paper:ex2.4"],
    ["radical", "full:60"],
    ["decompose", "paper:ex2.4", "--ideal", "U"],
    *(["check", "ks:6:2", "--theorem", token] for token in CHECK_TOKENS),
    *(["example", name] for name in ("ex2.4", "ex2.8", "ex2.12")),
    ["report", "paper:ex2.4"],
]
before = set(sys.modules)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_no_subcommand_imports_numpy_ma():
    src = str(Path(moritactx.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_MA_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "numpy.ma" not in added, added


def _count_format_subset(monkeypatch) -> list[int]:
    from moritactx.spans import Carrier
    calls = []
    original = Carrier.format_subset

    def counting(self, mask):
        calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(Carrier, "format_subset", counting)
    return calls


@pytest.mark.parametrize("argv", [["ideals", "tri:4,2"],
                                  ["ideals", "paper:ex2.8", "--side", "left"],
                                  ["ideals", "paper:ex2.8", "--side", "right"],
                                  ["primes", "paper:ex2.12"]])
def test_summary_formats_no_listing(monkeypatch, capsys, argv):
    # --summary prints no listing line, so no subset of one is formatted;
    # it reports the same ideals the listing shows.
    calls = _count_format_subset(monkeypatch)
    code, summary, _ = run(capsys, *argv, "--summary")
    assert (code, calls) == (0, [])
    code, listing, _ = run(capsys, *argv)
    assert code == 0 and calls
    pairs = dict(line.split("=", 1) for line in summary.splitlines())
    items = [line.split("]", 1)[0].strip() + "]" for line in listing.splitlines()
             if line.startswith("  [")]
    assert items == [f"[{k}]" for k in range(len(items))]
    if argv[0] == "ideals":
        assert int(pairs["count"]) == len(items)
        sizes = [line.split("size=", 1)[1].split()[0] for line in listing.splitlines()
                 if line.startswith("  [")]
        assert sizes == [pairs[f"ideal.{k}.size"] for k in range(len(items))]
    else:
        assert int(pairs["proper"]) == len(items)


def test_report_summary_formats_only_the_radical(monkeypatch, capsys):
    # The summary's one subset value is the radical's slot form; the spans
    # and the ideal listing are prose lines, so --summary formats none of them.
    from moritactx.catalog import builtin_context
    from moritactx.context import context_prime_radical
    calls = _count_format_subset(monkeypatch)
    code, summary, _ = run(capsys, "report", "paper:ex2.12", "--summary")
    assert code == 0
    assert calls == list(context_prime_radical(builtin_context("paper:ex2.12").context).masks)
    assert "radical=(R={0, 2}, V={0, 2}, W={0, 2}, S={0, 2})" in summary.splitlines()
    calls.clear()
    code, listing, _ = run(capsys, "report", "paper:ex2.12")
    assert code == 0 and listing.count("\n  [") == 21
    assert len(calls) == 2 + 21 * 4 + 4         # the spans, each ideal's slots, the radical


@pytest.mark.parametrize("side", ["right", "left"])
def test_one_sided_listing_reads_blocks_from_the_block_pairs(monkeypatch, capsys, side):
    from moritactx import context

    def refuse(*args):
        raise AssertionError("side_decomposition called")

    monkeypatch.setattr(context, "side_decomposition", refuse)
    code, out, _ = run(capsys, "ideals", "paper:ex2.8", "--side", side)
    assert code == 0 and "(block form: NO)" not in out
    assert out.count("(block form: yes)") == 56


def _refuse_t(monkeypatch):
    """Refuse every route to T: its build, and a mask of T from slot parts."""
    from moritactx import cli, context, mctx

    def refuse(*args, **kwargs):
        raise AssertionError("T or a mask of T was formed")

    for module in (cli, context):
        monkeypatch.setattr(module, "build_context_ring", refuse)
    for module in (context, mctx):
        monkeypatch.setattr(module, "quadruple_mask", refuse)


def _recorded_without_t(monkeypatch, capsys, argv):
    """Run ``argv`` with every route to T refused and compare it with its
    recorded bytes in the golden transcript."""
    from test_cli_golden import GOLDEN

    _refuse_t(monkeypatch)
    head = f"$ moritactx {' '.join(argv)}  [exit 0]\n"
    recorded = GOLDEN.read_text(encoding="utf-8").split(head, 1)[1].split("$ moritactx", 1)[0]
    assert run(capsys, *argv) == (0, recorded, "")


@pytest.mark.parametrize("side", ["right", "left"])
def test_one_sided_listing_builds_no_context_ring(monkeypatch, capsys, side):
    # The listing reads the block pairs alone: with every route to T
    # refused it still prints the recorded bytes.
    _recorded_without_t(monkeypatch, capsys, ["ideals", "paper:ex2.8", "--side", side])


@pytest.mark.parametrize("argv", [["decompose", "paper:ex2.4", "--ideal", "U"],
                                  ["decompose", "paper:ex2.8", "--ideal", "H"]])
def test_decompose_builds_no_context_ring(monkeypatch, capsys, argv):
    # A valid ideal is decided from its slot parts and its slot or block
    # form read off them: with every route to T refused, the right ideal U
    # and the two-sided H still print the recorded bytes.
    _recorded_without_t(monkeypatch, capsys, argv)
