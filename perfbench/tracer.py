"""Outside-in tracer for the moritactx layers.

The tracer wraps public functions of the library from outside: every module
namespace in the ``moritactx`` package that binds a traced function gets the
wrapper (the package re-exports names with ``from .x import y``, so one
function can be bound in four namespaces), and the two ``AddGroup`` span
kernels are wrapped on the class. Leaving the ``with`` block restores every
binding.

Each call records a span ``(trace_id, span_id, parent_id, name, start, end)``
in memory; one trace id covers one job. A span's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from collections.abc import Iterable
from contextlib import contextmanager

from workloads import CHECK_TOKENS

# module -> functions whose calls and self time are reported
FUNCTIONS = {
    "mctx": ("parse_mctx", "resolve_document"),
    "context": (
        "validate_context", "build_ks_context", "decompose_ideal", "side_decomposition",
        "closure_sets", "check_prime_quadruple", "check_semiprime_quadruple",
        "context_prime_radical", "quotient_context", "verify_quotient_iso",
        "is_prime_context", "is_semiprime_context",
        "build_context_ring", "enumerate_context_ideals",
    ),
    "ideals": ("enumerate_ideals", "check_ideal", "is_prime_ideal",
               "is_semiprime_ideal", "prime_radical"),
    "modules": ("validate_bimodule", "enumerate_submodules", "is_prime_submodule"),
    "rings": ("validate_ring", "quotient_ring"),
    "checks": ("run_check",),
    "cli": ("run_command",),
}
METHODS = {"spans": {"AddGroup": ("span_mask", "join_masks")}}

# Counters read off a traced call's result, beyond calls and self time.
EXTRA_STATS = {
    "context.build_context_ring": (("builds", "count"), ("table_mb", "MiB")),
    "context.enumerate_context_ideals": (("quadruples", "count"),),
    "ideals.enumerate_ideals": (("lattice_size", "count"),),
}
# Spans and job times use the process's CPU clock: this is single-threaded
# work, and on a shared host the wall clock also counts time stolen by others.
CLOCK = time.process_time

OVERHEAD_METRICS = (("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"),
                    ("trace.overhead_s", "s"))
_MIB = float(1 << 20)


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    out = []
    spans = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() if mod != "checks" for fn in fns]
    spans += [f"{mod}.{cls}.{m}" for mod, classes in METHODS.items()
              for cls, methods in classes.items() for m in methods]
    for span in spans:
        out.append((f"{span}.calls", "count"))
        out.extend((f"{span}.{stat}", unit) for stat, unit in EXTRA_STATS.get(span, ()))
        out.append((f"{span}.self_s", "s"))
    out.extend((f"checks.run_check.{token}.total_s", "s") for token in CHECK_TOKENS)
    out.extend(OVERHEAD_METRICS)
    return out


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[tuple]) -> dict[tuple[int, int], float]:
    """(trace id, span id) -> duration minus the time its child spans cover."""
    spans = list(spans)
    children = defaultdict(list)
    for trace, _, parent, _, start, end in spans:
        if parent is not None:
            children[trace, parent].append((start, end))
    return {(trace, span): (end - start) - covered(start, end, children.get((trace, span), ()))
            for trace, span, _, _, start, end in spans}


def summarize(spans: Iterable[tuple], counters: dict[str, float]) -> dict[str, float]:
    """calls, self_s and total_s per span name, plus the result counters."""
    spans = list(spans)
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for trace, span, _, name, start, end in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[trace, span]
        out[f"{name}.total_s"] += end - start
    for name, value in counters.items():
        out[name] += value
    return out


def write_spans(path, spans: Iterable[tuple]) -> None:
    """Spans as gzip'd JSON lines: trace, span, parent, name, start, end."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


class Tracer:
    """Wraps the traced functions while active and records one job's spans."""

    def __init__(self, trace_id: int = 0) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._trace_id = trace_id
        self._rings: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> Tracer:
        package = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "moritactx" or key.startswith("moritactx."))]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"moritactx.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(sys.modules[f"moritactx.{short}"], cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        per_token = name == "checks.run_check"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            span_id = self._next_id
            stack.append(span_id)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = CLOCK()
                stack.pop()
                label = f"{name}.{args[0] if args else kwargs['token']}" if per_token else name
                spans.append((self._trace_id, span_id, parent, label, start, end))
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_context_build_context_ring(self, ring) -> None:
        if id(ring) not in self._rings:
            self._rings[id(ring)] = ring        # held until the job ends, so ids stay unique
            self.counters["context.build_context_ring.builds"] += 1
            self.counters["context.build_context_ring.table_mb"] += (
                ring.add.nbytes + ring.mul.nbytes) / _MIB

    def _observe_context_enumerate_context_ideals(self, quads) -> None:
        self.counters["context.enumerate_context_ideals.quadruples"] += len(quads)

    def _observe_ideals_enumerate_ideals(self, ideals) -> None:
        self.counters["ideals.enumerate_ideals.lattice_size"] += len(ideals)

    # -- traces ----------------------------------------------------------------

    @contextmanager
    def trace(self, label: str):
        """The job: a root span named ``job <label>`` around its calls."""
        self._next_id += 1
        root = self._next_id
        self._stack.append(root)
        start = CLOCK()
        try:
            yield
        finally:
            end = CLOCK()
            self._stack.pop()
            self.spans.append((self._trace_id, root, None, f"job {label}", start, end))
            self._rings.clear()
