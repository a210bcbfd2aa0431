"""Tests of the benchmark itself: tracer arithmetic, patching and bypasses.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import compare
import run
from tracer import FUNCTIONS, METHODS, Tracer, covered, layer_metrics, self_times, summarize
from workloads import Job, jobs_for, run_job

LIB = run.import_library(run.source_dir())
REFERENCE = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        (1, 1, None, "root", 0.0, 10.0),
        (1, 2, 1, "a", 1.0, 4.0),
        (1, 3, 1, "b", 3.0, 6.0),        # overlaps a: the union 1..6 counts once
        (1, 4, 2, "a.child", 2.0, 3.0),
        (1, 5, 3, "b.child", 5.0, 7.0),  # runs past its parent: clipped at 6
        (2, 6, None, "other", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({(1, 1): 5.0, (1, 2): 2.0, (1, 3): 2.0, (1, 4): 1.0,
                                 (1, 5): 2.0, (2, 6): 1.0})
    assert covered(0.0, 1.0, []) == 0.0


def _traced_pass(tmp_path, workload: str, names: list[str]) -> tuple[dict, run.Runner]:
    docs = tmp_path / workload
    run.set_up(run.source_dir(), docs, names)
    runner = run.Runner(LIB, docs, REFERENCE, random.Random(0))
    runner.run_pass(jobs_for(workload, names), traced=True)
    return summarize(runner.spans, runner.counters), runner


def _bindings() -> dict:
    out = {(name, attr): value for name, mod in sys.modules.items()
           if mod is not None and name.split(".")[0] == "moritactx"
           for attr, value in vars(mod).items()}
    for short, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(sys.modules[f"moritactx.{short}"], cls_name)
            out.update({(cls_name, m): cls.__dict__[m] for m in methods})
    return out


def test_every_binding_is_wrapped_then_restored(tmp_path):
    before = _bindings()
    with Tracer():
        # The package, its defining module and every importer share one wrapper.
        wrapped = LIB.context.build_context_ring
        assert wrapped is not before[("moritactx.context", "build_context_ring")]
        assert LIB.build_context_ring is wrapped
        assert LIB.checks.build_context_ring is wrapped
        assert LIB.cli.build_context_ring is wrapped
        for short, names in FUNCTIONS.items():
            for fname in names:
                assert hasattr(getattr(sys.modules[f"moritactx.{short}"], fname), "__wrapped__")
    assert _bindings() == before
    docs = tmp_path / "docs"
    run.set_up(run.source_dir(), docs, ["full:2"])
    with Tracer() as tracer, tracer.trace("full:2"):
        run_job(LIB, docs, Job("battery", "full:2", "battery"))
    assert _bindings() == before
    assert summarize(tracer.spans, tracer.counters)["checks.run_check.2.1.calls"] == 1


def test_slot_large_never_builds_the_ring(tmp_path):
    stats, runner = _traced_pass(tmp_path, "slot-large", ["zero:100,101", "full:60"])
    assert runner.failed == 0 and runner.attempted == 4
    assert stats["context.enumerate_context_ideals.calls"] > 0
    assert stats.get("context.build_context_ring.calls", 0) == 0
    assert stats.get("context.side_decomposition.calls", 0) == 0


def test_report_has_no_one_sided_work(tmp_path):
    stats, runner = _traced_pass(tmp_path, "report", ["full:3", "paper:ex2.8"])
    assert runner.failed == 0 and runner.attempted == 2
    assert stats["context.build_context_ring.calls"] > 0
    assert stats.get("context.side_decomposition.calls", 0) == 0


def test_battery_does_one_sided_work_and_counts_repeat(tmp_path):
    first, runner = _traced_pass(tmp_path, "battery", ["full:2", "paper:ex2.12"])
    second, _ = _traced_pass(tmp_path, "battery", ["full:2", "paper:ex2.12"])
    assert runner.failed == 0
    assert first["context.side_decomposition.calls"] > 0
    assert first["checks.run_check.2.1.total_s"] > 0
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second.items() if k.endswith(".calls")}


def test_wrong_verdict_or_error_counts_as_failed(tmp_path):
    docs = tmp_path / "docs"
    run.set_up(run.source_dir(), docs, ["full:2"])
    reference = dict(REFERENCE)
    reference["report full:2"] = dict(reference["report full:2"], two_sided_ideals=-1)
    runner = run.Runner(LIB, docs, reference, random.Random(0))
    runner.run_pass(jobs_for("report", ["full:2"]))
    assert (runner.attempted, runner.failed) == (1, 1)
    runner.run_pass(jobs_for("battery", ["full:3"]))       # no document: the job raises
    assert (runner.attempted, runner.failed) == (2, 2)


def test_benchmark_json_names_what_the_runs_print():
    assert [m["name"] for m in BENCH["per_layer"]] == [name for name, _ in layer_metrics()]
    assert [m["unit"] for m in BENCH["per_layer"]] == [unit for _, unit in layer_metrics()]
    assert sorted(m["name"] for m in BENCH["end_to_end"]) == sorted(n for n, _ in run.END_TO_END)
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_compare_verdicts():
    old = [10.0, 10.2, 9.9, 10.1, 10.0]
    paired = lambda new: list(zip(old, new))  # noqa: E731
    faster = [8.0, 8.1, 7.9, 8.0, 8.2]
    assert compare.verdict(old, faster, paired(faster), "lower", 0.1) == "improved"
    slower = [12.0, 12.1, 11.9, 12.2, 12.0]
    assert compare.verdict(old, slower, paired(slower), "lower", 0.1) == "worse"
    same = [10.1, 9.9, 10.0, 10.2, 9.8]
    assert compare.verdict(old, same, paired(same), "lower", 0.1) == "unchanged"
    noisy = [6.0, 14.0, 10.0, 7.0, 13.0]
    assert compare.verdict(old, noisy, paired(noisy), "lower", 0.1) == "unresolved"
