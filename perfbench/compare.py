#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are ``results.jsonl`` files written by ``run.py``, for example
the committed baseline ``perfbench/baseline/seed.jsonl`` and a fresh
``.perfbench_out/results.jsonl``.

For each (workload, metric) pair it prints both medians with their
quartiles, the ratio NEW/OLD, and how many run pairs NEW won; runs are paired
by seed, or in order where the seeds differ. End-to-end metrics get a
verdict under the bounds in ``BENCHMARK.json``:

* improved   -- NEW wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than OLD's quartile spread;
* unresolved -- a quartile spread is wider than the bound, unless every NEW
  run is better than every OLD run;
* worse      -- NEW's median is worse than OLD's by more than the bound;
* unchanged  -- otherwise.

Per-layer metrics have no bound: they are printed with their ratio, and a
count is marked ``exact`` when it repeats exactly within each set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_results(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(old: list[tuple[int, float]], new: list[tuple[int, float]]) -> list[tuple[float, float]]:
    """Runs paired by seed where both sets have it, otherwise in seed order."""
    old_by_seed, new_by_seed = dict(old), dict(new)
    common = sorted(set(old_by_seed) & set(new_by_seed))
    if common:
        return [(old_by_seed[s], new_by_seed[s]) for s in common]
    return list(zip([v for _, v in sorted(old)], [v for _, v in sorted(new)]))


def verdict(old: list[float], new: list[float], paired, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0       # sign * (new - old) > 0 is worse
    oq1, om, oq3 = quartiles(old)
    nq1, nm, nq3 = quartiles(new)
    wins = sum(sign * (n - o) < 0 for o, n in paired)
    if paired and wins >= 0.9 * len(paired) and sign * (om - nm) > oq3 - oq1:
        return "improved"
    if all(sign * (n - o) < 0 for o in old for n in new):
        return "unchanged"
    if max((oq3 - oq1) / abs(om), (nq3 - nq1) / abs(nm)) > bound:
        return "unresolved"
    if sign * (nm - om) / abs(om) > bound:
        return "worse"
    return "unchanged"


def series(records: list[dict], trace: int) -> dict[tuple[str, str], list[tuple[int, float]]]:
    out: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        for name, metric in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append((rec["seed"], metric["value"]))
    return out


def compare(old_records: list[dict], new_records: list[dict], bench: dict) -> list[str]:
    specs = {m["name"]: m for m in bench["end_to_end"]}
    counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    lines = [f"{'workload':11s} {'metric':44s} {'old median [q1, q3]':>30s} "
             f"{'new median [q1, q3]':>30s} {'new/old':>8s} {'won':>6s}  verdict"]
    tally = {}
    for trace in (0, 1):
        old_series, new_series = series(old_records, trace), series(new_records, trace)
        for key in sorted(set(old_series) & set(new_series)):
            workload, name = key
            old = [v for _, v in old_series[key]]
            new = [v for _, v in new_series[key]]
            paired = pairs(old_series[key], new_series[key])
            oq1, om, oq3 = quartiles(old)
            nq1, nm, nq3 = quartiles(new)
            ratio = f"{nm / om:8.3f}" if om else f"{'-':>8s}"
            if name in specs:
                spec = specs[name]
                sign = 1.0 if spec["better"] == "lower" else -1.0
                won = sum(sign * (n - o) < 0 for o, n in paired)
                result = verdict(old, new, paired, spec["better"], spec["bound"])
                tally[result] = tally.get(result, 0) + 1
                note = f"{won:>3d}/{len(paired):<2d}  {result} (bound {spec['bound']})"
            elif name in counts:
                exact = len(set(old)) == 1 and len(set(new)) == 1
                note = f"{'':6s}  count, {'exact' if exact else 'varies'}"
            else:
                note = ""
            lines.append(f"{workload:11s} {name:44s} {om:12.6g} [{oq1:.6g}, {oq3:.6g}]"
                         f" {nm:12.6g} [{nq1:.6g}, {nq3:.6g}] {ratio} {note}")
    lines.append("end-to-end verdicts: " + (", ".join(f"{k} {v}" for k, v in sorted(tally.items()))
                                            or "none (no common untraced results)"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for line in compare(load_results(args.old), load_results(args.new), bench):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
