"""Validation reports on a mutation corpus, against a recorded file.

The corpus is the battery contexts plus ``full:12`` and ``tri:12,8``. In
each context one in-range entry of each table is corrupted, at a place and
to a value drawn from a generator seeded by the context and table names:

* the add and mul tables of both corner rings, through ``validate_ring``
  with zero and one inferred and with them given;
* the add and both action tables of both bimodules, through
  ``validate_bimodule``;
* both pairings, and each corrupted bimodule in its place, through
  ``validate_context``.

Each case prints a header naming the table, the entry and its new value,
then the report's lines (or the exception it raised). ``context_cases``
takes the three validators, so the same corpus can be run through the
full-scan oracle (``tests/test_validation_oracle.py``). Running this
module as a script prints the corpus; ``tests/golden/validation_reports.txt``
is that output:

    PYTHONPATH=src python tests/test_validation_golden.py > tests/golden/validation_reports.txt
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from moritactx import (Bimodule, MoritaContext, battery_names, builtin_document, load_mctx,
                       validate_bimodule, validate_context, validate_ring)

GOLDEN = Path(__file__).parent / "golden" / "validation_reports.txt"
NAMES = battery_names() + ["full:12", "tri:12,8"]
MODULE_TABLES = ("add", "left_act", "right_act")
LIBRARY = (validate_ring, validate_bimodule, validate_context)


def corrupt(table: np.ndarray, limit: int, seed: str) -> tuple[np.ndarray | None, str]:
    """A copy of ``table`` with one entry moved to another value below
    ``limit``, and a note naming it; None when no entry can move."""
    if limit < 2 or table.size == 0:
        return None, "no in-range change"
    rng = random.Random(seed)
    i, j = rng.randrange(table.shape[0]), rng.randrange(table.shape[1])
    old = int(table[i, j])
    new = rng.choice([v for v in range(limit) if v != old])
    out = np.array(table, dtype=np.int64)
    out[i, j] = new
    return out, f"({i}, {j}) {old}->{new}"


def run(header: str, note: str, check) -> list[str]:
    """The header, then the report's lines or the exception's type."""
    try:
        lines = check().lines()
    except Exception as exc:                        # pinned as is, not hidden
        lines = [f"raised {type(exc).__name__}"]
    return [f"{header} @ {note}"] + [f"  {line}" for line in lines]


def ring_cases(name: str, tag: str, ring, validate_ring=validate_ring) -> list[str]:
    out = []
    for which in ("add", "mul"):
        table, note = corrupt(getattr(ring, which), ring.order, f"{name}/{tag}.{which}")
        add, mul = (table, ring.mul) if which == "add" else (ring.add, table)
        out += run(f"{tag}.{which} validate_ring inferred", note,
                   lambda: validate_ring(add, mul))
        out += run(f"{tag}.{which} validate_ring given", note,
                   lambda: validate_ring(add, mul, zero=ring.zero, one=ring.one))
    return out


def corrupted_modules(name: str, tag: str, mod: Bimodule) -> list[tuple[str, str, Bimodule | None]]:
    found = []
    for which in MODULE_TABLES:
        tables = {t: getattr(mod, t) for t in MODULE_TABLES}
        tables[which], note = corrupt(tables[which], mod.order, f"{name}/{tag}.{which}")
        bad = None if tables[which] is None else Bimodule(
            tables["add"], mod.zero, mod.left_ring, tables["left_act"],
            mod.right_ring, tables["right_act"], name=mod.name)
        found.append((f"{tag}.{which}", note, bad))
    return found


def context_cases(name: str, validators=LIBRARY) -> list[str]:
    validate_ring, validate_bimodule, validate_context = validators
    ctx = load_mctx(builtin_document(name)).context
    out = [f"## {name}"]
    out += ring_cases(name, "R", ctx.ring_r, validate_ring)
    out += ring_cases(name, "S", ctx.ring_s, validate_ring)
    modules = {tag: corrupted_modules(name, tag, mod)
               for tag, mod in (("V", ctx.mod_v), ("W", ctx.mod_w))}
    for tag, cases in modules.items():
        for header, note, bad in cases:
            if bad is not None:
                out += run(f"{header} validate_bimodule", note, lambda: validate_bimodule(bad))
    parts = (ctx.ring_r, ctx.ring_s, ctx.mod_v, ctx.mod_w, ctx.prod_vw, ctx.prod_wv)
    for k, (tag, limit) in ((4, ("VW", ctx.ring_r.order)), (5, ("WV", ctx.ring_s.order))):
        table, note = corrupt(parts[k], limit, f"{name}/{tag}")
        if table is not None:
            args = list(parts)
            args[k] = table
            out += run(f"{tag} validate_context", note,
                       lambda: validate_context(MoritaContext(*args, name=ctx.name)))
    for k, tag in ((2, "V"), (3, "W")):
        for header, note, bad in modules[tag]:
            if bad is not None:
                args = list(parts)
                args[k] = bad
                out += run(f"{header} validate_context", note,
                           lambda: validate_context(MoritaContext(*args, name=ctx.name)))
    return out


def reports() -> str:
    return "".join(line + "\n" for name in NAMES for line in context_cases(name))


def test_validation_reports_match_the_recorded_file():
    assert reports() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(reports(), end="")
