"""The CLI's stdout on the battery contexts (and ``validate``, ``primes``,
``radical`` and two reports on the benchmark's large ones), against a
recorded transcript.

Each invocation runs in process and contributes a header line with its
arguments and exit code, then its stdout. Running this module as a script
prints the transcript; ``tests/golden/cli_outputs.txt`` is that output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_outputs.txt
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from moritactx import battery_names
from moritactx.cli import run_command

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.txt"
# The benchmark's contexts above the order cap, its scalars picked once.
SLOT_LARGE = ["zero:100,101", "full:60", "full:120", "ks:120:7", "full:180", "ks:180:5",
              "tri:240,180", "tri:360,240"]


def invocations() -> list[list[str]]:
    names = battery_names()
    runs = [[command, name] for command in ("report", "primes") for name in names]
    runs += [["ideals", name, "--side", side] for side in ("left", "right") for name in names]
    runs += [["decompose", "paper:ex2.4", "--ideal", "U"],
             ["decompose", "paper:ex2.8", "--ideal", "H"],
             ["decompose", "paper:ex2.12", "--ideal", "H"]]
    runs += [["example", name] for name in ("ex2.4", "ex2.8", "ex2.12")]
    runs += [["validate", name] for name in names]
    runs += [["validate", name] for name in SLOT_LARGE]
    runs += [["primes", name] for name in SLOT_LARGE]
    runs += [["report", "zero:100,101"], ["report", "full:60"]]
    runs += [["radical", name] for name in names + SLOT_LARGE]
    return runs


def transcript() -> str:
    parts = []
    for argv in invocations():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_command(argv)
        parts.append(f"$ moritactx {' '.join(argv)}  [exit {code}]\n{out.getvalue()}")
    return "".join(parts)


def test_cli_output_matches_the_recorded_transcript():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(transcript(), end="")
