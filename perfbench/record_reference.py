#!/usr/bin/env python3
"""Record the reference verdicts every benchmark job is checked against.

    python3 perfbench/record_reference.py

Runs each job of each workload once, for every context a seed can pick,
with the library's default verify paths, and rewrites
``perfbench/reference.json``. Run it only on a commit whose answers are
trusted; the committed file was recorded at the commit that added the
benchmark.
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT, import_library, set_up, source_dir
from workloads import WORKLOADS, all_document_names, jobs_for, reference_key, run_job, verdicts


def main() -> int:
    src = source_dir()
    lib = import_library(src)
    docs = OUT / "docs" / "reference"
    reference = {}
    for workload in WORKLOADS:
        names = all_document_names(workload)
        set_up(src, docs, names)
        for job in jobs_for(workload, names):
            reference[reference_key(job)] = verdicts(job, run_job(lib, docs, job))
            print(reference_key(job), file=sys.stderr)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} entries to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
