#!/usr/bin/env python3
"""Survey scaled contexts K_s(Z_n): the ``ks`` check on every ks:<n>:<s>.

For each modulus n up to ``--max-n`` and each scaling element s, the
``ks`` check decides whether the scaled context ring is prime and
semiprime, and compares each answer with its criterion (base ring prime
and s nonzero; base ring semiprime and s not a zero-divisor). Its report
lines are printed under the context's name; the last line counts the
contexts where a criterion failed, and the exit status is nonzero if any
did.
"""

from __future__ import annotations

import argparse
import sys

from moritactx import builtin_context, run_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6, help="largest modulus (default 6)")
    args = parser.parse_args()

    mismatches = 0
    for n in range(2, args.max_n + 1):
        for s in range(n):
            name = f"ks:{n}:{s}"
            result = run_check("ks", builtin_context(name))
            mismatches += not result.passed
            print(f"{name:8s} {'PASS' if result.passed else 'FAIL'}")
            for line in result.lines:
                print(f"    {line}")
    print(f"mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
