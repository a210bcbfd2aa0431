"""The three workloads: their job lists, seeded inputs, jobs and verdicts.

A job is what one user pays for one answer. Every job reads its input fresh
from a generated ``.mctx`` document, so no cache inside a context, and no
cached builtin, survives from one job to the next.

* ``battery``    -- one job per context: ``load_mctx`` of the document, then
  ``run_check`` for every applicable check token. The tokens share that
  context's caches, as ``scripts/run_battery.py`` does.
* ``report``     -- one job per context: the CLI ``report`` command.
* ``slot-large`` -- one job per CLI command: ``ideals`` and then ``radical``
  on contexts above the order cap, so the context ring is never built.

A job's verdicts are compared with ``reference.json``; raw output is not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path

BATTERY_NAMES = (
    "full:2", "full:3", "full:4", "full:5", "full:6", "ks:4:2",
    "ks:6:0", "ks:6:1", "ks:6:2", "ks:6:3", "ks:6:4", "ks:6:5",
    "tri:4,2", "zero:2,2", "zero:2,4",
    "paper:ex2.4", "paper:ex2.8", "paper:ex2.12",
)

CHECK_TOKENS = ("2.1", "2.2", "2.3", "2.5", "2.6", "2.7",
                "2.9", "2.10", "2.11", "2.13", "2.14", "ks")

# Contexts above the order cap. A ``{s}`` slot takes a scalar the seed picks
# from associates (s times a unit), which give isomorphic contexts with the
# same carriers, the same verdicts and the same amount of work.
SLOT_LARGE_NAMES = (
    "zero:100,101", "full:60", "full:120", "ks:120:{s}",
    "full:180", "ks:180:{s}", "tri:240,180", "tri:360,240",
)
SCALAR_CHOICES = {
    "ks:120:{s}": (7, 11, 13, 17),
    "ks:180:{s}": (5, 25, 35, 55),
}
SLOT_LARGE_COMMANDS = ("ideals", "radical")

WORKLOADS = ("battery", "report", "slot-large")


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work: a command on one generated document."""

    workload: str
    name: str          # builtin name the document was generated from
    command: str       # "battery", "report", "ideals" or "radical"


def document_names(workload: str, rng: random.Random | None = None) -> list[str]:
    """Context names a workload uses; ``rng`` picks the associate scalars."""
    if workload == "slot-large":
        names = []
        for pattern in SLOT_LARGE_NAMES:
            if pattern in SCALAR_CHOICES:
                choices = SCALAR_CHOICES[pattern]
                s = rng.choice(choices) if rng is not None else choices[0]
                pattern = pattern.format(s=s)
            names.append(pattern)
        return names
    return list(BATTERY_NAMES)


def all_document_names(workload: str) -> list[str]:
    """Every name any seed can pick, for recording reference verdicts."""
    if workload != "slot-large":
        return list(BATTERY_NAMES)
    return [pattern.format(s=s) if pattern in SCALAR_CHOICES else pattern
            for pattern in SLOT_LARGE_NAMES
            for s in SCALAR_CHOICES.get(pattern, (None,))]


def jobs_for(workload: str, names: list[str]) -> list[Job]:
    if workload == "battery":
        return [Job(workload, name, "battery") for name in names]
    if workload == "report":
        return [Job(workload, name, "report") for name in names]
    return [Job(workload, name, command)
            for name in names for command in SLOT_LARGE_COMMANDS]


def document_path(docs: Path, name: str) -> Path:
    return docs / (re.sub(r"[^A-Za-z0-9.]", "_", name) + ".mctx")


# -- running a job -------------------------------------------------------------


class JobFailed(Exception):
    """A command exited non-zero or printed something unparseable."""


def run_job(lib, docs: Path, job: Job):
    """Run one job: the checks' pass flags, or the command's standard output.

    ``lib`` is the imported ``moritactx`` package. Functions are looked up on
    it at call time, so a tracer's wrappers see the calls. Raises
    ``JobFailed`` when a command exits non-zero.
    """
    path = document_path(docs, job.name)
    if job.command == "battery":
        res = lib.load_mctx(path.read_text(encoding="utf-8"))
        scalar = res.document.scalar is not None
        return {token: bool(lib.run_check(token, res).passed)
                for token in CHECK_TOKENS if token != "ks" or scalar}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run_command([job.command, str(path)])
    if code != 0:
        raise JobFailed(f"{job.command} {job.name} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def verdicts(job: Job, raw) -> dict:
    """The verdicts in a job's raw result, in the form ``reference.json`` keeps."""
    return raw if job.command == "battery" else PARSERS[job.command](raw)


def _flag(text: str) -> bool:
    if text not in ("yes", "NO"):
        raise JobFailed(f"expected yes/NO, got {text!r}")
    return text == "yes"


def _field(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise JobFailed(f"no line starting with {prefix!r}")


_IDEAL_LINE = re.compile(r"^  \[\d+\] size=(\d+) (\(R=.*\))(?: \[([^\]]*)\])?$")
_NAMED_LINE = re.compile(r"^  (\S+): (\w+-sided, members \d+, ideal: (?:yes|NO))$")


def _ideal_lines(lines: list[str]) -> list[re.Match]:
    return [m for m in map(_IDEAL_LINE.match, lines) if m]


def parse_report(text: str) -> dict:
    """Verdicts of ``report``: validity, ideals with their flags, radical, ring."""
    lines = text.splitlines()
    ideals = {m.group(2): m.group(3) for m in _ideal_lines(lines)}
    named = dict(m.groups() for m in map(_NAMED_LINE.match, lines) if m)
    return {
        "valid": _field(lines, "validation: ") == "ok",
        "surjective": _flag(_field(lines, "pairings span (surjective): ")),
        "two_sided_ideals": int(_field(lines, "two-sided ideals: ")),
        "ideal_flags": dict(sorted(ideals.items())),
        "radical": _field(lines, "prime radical: "),
        "ring_prime": _flag(_field(lines, "context ring prime: ")),
        "ring_semiprime": _flag(_field(lines, "context ring semiprime: ")),
        "named": dict(sorted(named.items())),
    }


def parse_ideals(text: str) -> dict:
    """Verdicts of ``ideals``: the count and a digest of the set of ideals.

    The digest is over the sorted ``size slot-form`` lines, so it does not
    depend on the order the ideals are listed in.
    """
    lines = text.splitlines()
    found = sorted(f"{m.group(1)} {m.group(2)}" for m in _ideal_lines(lines))
    return {
        "two_sided_ideals": int(_field(lines, "two-sided ideals: ")),
        "listed": len(found),
        "digest": hashlib.sha256("\n".join(found).encode()).hexdigest(),
    }


def parse_radical(text: str) -> dict:
    """Verdict of ``radical``: its slot form.

    The ``matches the intersection of primes`` line is left out: above the
    order cap it claims a cross-check that did not run.
    """
    return {"radical": _field(text.splitlines(), "prime radical: ")}


PARSERS = {"report": parse_report, "ideals": parse_ideals, "radical": parse_radical}


def reference_key(job: Job) -> str:
    return f"{job.command} {job.name}"
