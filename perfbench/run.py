#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. The run:

1. sets up: starts a fresh interpreter that imports ``moritactx`` and writes
   the workload's ``.mctx`` documents, several times, timing each;
2. with ``--trace 0``, runs passes over the job list, one job at a time
   (closed loop, one client), each job in a child forked from this process,
   until ``--seconds`` have passed, and reports the end-to-end metrics;
3. with ``--trace 1``, runs one untraced pass and one traced pass and
   reports the per-layer metrics and the tracing overhead.

Every job's verdicts are compared with ``reference.json``. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; a
record with the environment and sample counts is appended to
``.perfbench_out/results.jsonl``, and a traced run writes its spans to
``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Jobs run in forked children, and fork is only safe in a single-threaded
# process: keep numpy's BLAS from starting its thread pool. The library makes
# no BLAS calls.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import CLOCK, Tracer, layer_metrics, summarize, write_spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    document_names,
    document_path,
    jobs_for,
    reference_key,
    run_job,
    verdicts,
)

ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
END_TO_END = (("pass_s", "s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
              ("peak_rss_mb", "MiB"), ("setup_s", "s"))

# Run in a fresh interpreter: import the library from argv[1] and write each
# document of the JSON map argv[2] (path -> builtin name).
_SETUP_CODE = """\
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import moritactx
if not Path(moritactx.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit("moritactx was imported from outside " + sys.argv[1])
for path, name in json.loads(sys.argv[2]).items():
    Path(path).write_text(moritactx.builtin_document(name), encoding="utf-8")
"""


class SetupError(Exception):
    """The library cannot be imported from the checkout, or set-up failed."""


def source_dir() -> Path:
    src = ROOT / "src"
    if not (src / "moritactx" / "__init__.py").is_file():
        raise SetupError(f"no moritactx package under {src}")
    return src


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def set_up(src: Path, docs: Path, names: list[str]) -> float:
    """One set-up: interpreter start, library import, document generation.

    Returns the CPU time of the set-up process.
    """
    docs.mkdir(parents=True, exist_ok=True)
    mapping = json.dumps({str(document_path(docs, name)): name for name in names})
    before = _children_cpu()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src), mapping],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return _children_cpu() - before


def import_library(src: Path):
    sys.path.insert(0, str(src))
    import moritactx
    import moritactx.cli  # noqa: F401  (run_command is looked up on it)
    if not Path(moritactx.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"moritactx was imported from {moritactx.__file__}, not {src}")
    return moritactx


def environment(src: Path) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "src_sha256": digest.hexdigest()}


def _single_threaded() -> bool:
    tasks = Path("/proc/self/task")
    return not tasks.is_dir() or len(list(tasks.iterdir())) == 1


def _in_child(work) -> tuple[dict, int]:
    """Run ``work()`` in a forked child; return its JSON result and peak RSS (KiB).

    The parent has only imported the library, so every job starts from the
    same process state, as a fresh CLI process does, and nothing the job
    caches or allocates outlives it.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "w", encoding="utf-8") as pipe:
                json.dump(work(), pipe)
            code = 0
        finally:
            os._exit(code)          # never return into the parent's code
    os.close(write)
    with os.fdopen(read, encoding="utf-8") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        return {"time": 0.0, "error": f"job process ended with status {status}"}, usage.ru_maxrss
    return json.loads(data), usage.ru_maxrss


class Runner:
    """Runs jobs one at a time, each in a fresh child, and checks their verdicts."""

    def __init__(self, lib, docs: Path, reference: dict, rng: random.Random):
        if not _single_threaded():
            raise SetupError("jobs run in forked children, which needs a single-threaded parent")
        self.lib, self.docs, self.reference, self.rng = lib, docs, reference, rng
        self.attempted = self.failed = 0
        self.peak_rss_kib = 0
        self.wall_passes: list[float] = []
        self.job_times: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}

    def _job(self, job, trace_id: int | None) -> dict:
        """Body of a child: run the job once, traced if ``trace_id`` is set."""
        tracer = Tracer(trace_id) if trace_id is not None else None
        start = CLOCK()
        try:
            if tracer is None:
                raw = run_job(self.lib, self.docs, job)
            else:
                with tracer, tracer.trace(reference_key(job)):
                    raw = run_job(self.lib, self.docs, job)
            out = {"time": CLOCK() - start, "verdicts": verdicts(job, raw)}
        except Exception:  # reported to the parent, which counts the job as failed
            out = {"time": CLOCK() - start, "error": traceback.format_exc()}
        if tracer is not None:
            out.update(spans=tracer.spans, counters=tracer.counters)
        return out

    def run_once(self, job, trace_id: int | None = None) -> float:
        """Run a job once, check its verdicts, and return its CPU time."""
        out, rss = _in_child(lambda: self._job(job, trace_id))
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        ok = "error" not in out and out["verdicts"] == self.reference.get(reference_key(job))
        if "error" in out:
            print(f"{reference_key(job)} failed:\n{out['error']}", file=sys.stderr)
        elif not ok:
            print(f"wrong verdict: {reference_key(job)}", file=sys.stderr)
        self.attempted += 1
        self.failed += not ok
        self.spans.extend(map(tuple, out.get("spans", ())))
        for name, value in out.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        return out["time"]

    def run_pass(self, jobs, traced: bool = False) -> list[float]:
        """One pass in a seeded order; returns each job's CPU time."""
        order = list(jobs)
        self.rng.shuffle(order)
        wall = time.perf_counter()
        times = [self.run_once(job, self.attempted if traced else None) for job in order]
        self.wall_passes.append(time.perf_counter() - wall)
        for job, elapsed in zip(order, times):
            self.job_times.setdefault(reference_key(job), []).append(elapsed)
        return times


def measure(runner: Runner, jobs, seconds: float) -> tuple[dict, dict]:
    """Passes until ``seconds`` of wall time have passed; end-to-end metrics."""
    pass_times, job_times = [], []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        times = runner.run_pass(jobs)
        pass_times.append(sum(times))
        job_times.extend(times)
    metrics = {
        "pass_s": statistics.median(pass_times),
        "job_p50_s": statistics.median(job_times),
        "job_p90_s": statistics.quantiles(job_times, n=10, method="inclusive")[8],
        "peak_rss_mb": runner.peak_rss_kib / 1024,
    }
    return metrics, {"passes": len(pass_times), "job_samples": len(job_times),
                     "pass_cpu_s": pass_times, "pass_wall_s": runner.wall_passes,
                     "job_cpu_s": runner.job_times}


def measure_traced(runner: Runner, jobs, spans_path: Path) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics and overhead."""
    untraced = sum(runner.run_pass(jobs))
    traced = sum(runner.run_pass(jobs, traced=True))
    stats = summarize(runner.spans, runner.counters)
    metrics = {name: stats.get(name, 0.0) for name, _ in layer_metrics()}
    metrics.update({"trace.pass_s": traced, "trace.untraced_pass_s": untraced,
                    "trace.overhead_s": traced - untraced})
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    write_spans(spans_path, runner.spans)
    return metrics, {"passes": 2, "job_samples": 2 * len(jobs), "spans": len(runner.spans),
                     "pass_wall_s": runner.wall_passes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    names = document_names(args.workload, rng)
    docs = OUT / "docs" / args.workload
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    try:
        src = source_dir()
        setups = [set_up(src, docs, names) for _ in range(SETUP_REPEATS)]
        runner = Runner(import_library(src), docs, reference, rng)
    except (SetupError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload, names)

    if args.trace:
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        values, samples = measure_traced(runner, jobs, spans_path)
        units = dict(layer_metrics())
    else:
        values, samples = measure(runner, jobs, args.seconds)
        values["setup_s"] = statistics.median(setups)
        units = dict(END_TO_END)
    samples["setup_s"] = setups
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "samples": samples,
              "env": environment(src), **result}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={samples['passes']}"
          f" job_samples={samples['job_samples']} setups={len(setups)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
