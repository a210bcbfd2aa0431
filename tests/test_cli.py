from __future__ import annotations

import json
import os
import subprocess
import sys
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
    # The "matches" line reports the comparison the command actually ran.
    monkeypatch.setattr("moritactx.cli.prime_radical",
                        lambda ring, cap: Ideal(ring, full_mask(ring.order), "two"))
    code, out, _ = run(capsys, "radical", "full:3")
    assert code == 1
    assert "matches the intersection of primes: NO" in out


def test_radical_above_the_cap_is_not_cross_checked(capsys):
    code, out, _ = run(capsys, "radical", "full:4", "--cap", "100", "--summary")
    assert code == 0
    assert "cross_checked=false" in out.splitlines()


def test_decompose_named_ideal(capsys):
    code, out, _ = run(capsys, "decompose", "paper:ex2.4", "--ideal", "U")
    assert code == 0
    assert "reconstructs the ideal: yes" in out


def test_decompose_inline_ideal(capsys):
    code, out, _ = run(capsys, "decompose", "full:4", "--ideal", "R=0,2 V=0,2 W=0,2 S=0,2")
    assert code == 0
    assert "decomposition: ok" in out


def test_decompose_non_ideal_is_invalid_input(capsys):
    code, _, err = run(capsys, "decompose", "full:4", "--ideal", "R=0,1 V=0 W=0 S=0")
    assert code == 2
    assert "error" in err


def test_decompose_one_sided_non_ideal_is_invalid_input(capsys):
    code, out, err = run(capsys, "decompose", "paper:ex2.4", "--ideal", "R=0,4 V=0 W=0 S=0",
                         "--side", "right")
    assert (code, out) == (2, "")
    assert err == ("error: subset {(0, 0, 0, 0), (4, 0, 0, 0)} of T(paper:ex2.4) is not a "
                   "right-sided ideal; first failure ('right', 2048, 64)\n")


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
    from moritactx import cli

    def refuse(*args):
        raise AssertionError("side_decomposition called")

    monkeypatch.setattr(cli, "side_decomposition", refuse)
    code, out, _ = run(capsys, "ideals", "paper:ex2.8", "--side", side)
    assert code == 0 and "(block form: NO)" not in out
    assert out.count("(block form: yes)") == 56


def test_one_sided_listing_refuses_an_ideal_the_block_pairs_miss(monkeypatch, capsys):
    # By the block theorem no one-sided ideal of a validated context's T is
    # missing from the block pairs; were one missing, the listing says so.
    from moritactx import context

    real = context.block_ideals
    monkeypatch.setattr(context, "block_ideals", lambda *args: real(*args)[1:])
    code, out, err = run(capsys, "ideals", "paper:ex2.8", "--side", "right")
    assert code == 2 and "  [0]" not in out
    assert "is not a right-sided ideal: no compatible block pair gives it" in err
