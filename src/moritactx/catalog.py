"""Built-in contexts, addressable by name from the CLI and the test battery.

Four parametric families plus three hand-picked instances:

* ``full:<n>``     — all four carriers are Z_n with inherited products.
* ``ks:<n>:<s>``   — the scalar form over Z_n with scaling element s.
* ``tri:<n>,<m>``  — triangular: corners Z_n and Z_m, one residue carrier
                     over gcd(n, m), the other zero, zero products.
* ``zero:<n>,<m>`` — corners Z_n and Z_m, both carriers zero.
* ``paper:ex2.4``, ``paper:ex2.8``, ``paper:ex2.12`` — fixed instances with
  named candidate ideals attached, used by the worked-example command.

Every builtin is defined as a document in the text format and resolved
through the same code path as user-supplied files.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import UnknownBuiltinError
from .mctx import ResolvedContext, load_mctx

__all__ = [
    "BUILTIN_PATTERNS",
    "builtin_document",
    "builtin_context",
    "battery_names",
]

BUILTIN_PATTERNS = (
    "full:<n>",
    "ks:<n>:<s>",
    "tri:<n>,<m>",
    "zero:<n>,<m>",
    "paper:ex2.4",
    "paper:ex2.8",
    "paper:ex2.12",
)

_FIXED_DOCUMENTS = {
    "paper:ex2.4": """\
context paper:ex2.4
base zn 8
product VW inherited
product WV inherited
rightideal U R=0,4 V=0,4 W=all S=all
""",
    "paper:ex2.8": """\
context paper:ex2.8
base zn 6
V subset 0,2,4
W subset 0,3
product VW inherited
product WV inherited
ideal H R=0,3 V=all W=all S=0,2,4
""",
    "paper:ex2.12": """\
context paper:ex2.12
base zn 4
V subset 0,2
W subset 0,2
product VW inherited
product WV inherited
ideal H R=0,2 V=all W=all S=0
""",
}


def _bad(name: str, detail: str) -> UnknownBuiltinError:
    return UnknownBuiltinError(f"unknown builtin {name!r}: {detail}", BUILTIN_PATTERNS)


def _int_params(name: str, text: str, sep: str, count: int) -> list[int]:
    pieces = text.split(sep)
    if len(pieces) != count:
        raise _bad(name, f"expected {count} parameters separated by {sep!r}")
    try:
        values = [int(p) for p in pieces]
    except ValueError:
        raise _bad(name, "parameters must be integers") from None
    return values


def builtin_document(name: str) -> str:
    """The text-format document for a builtin name."""
    if name in _FIXED_DOCUMENTS:
        return _FIXED_DOCUMENTS[name]
    family, _, rest = name.partition(":")
    if not rest:
        raise _bad(name, "no parameters")
    if family == "full":
        (n,) = _int_params(name, rest, ",", 1)
        if n < 2:
            raise _bad(name, "modulus must be at least 2")
        return (f"context {name}\nbase zn {n}\n"
                f"product VW inherited\nproduct WV inherited\n")
    if family == "ks":
        n, s = _int_params(name, rest, ":", 2)
        if n < 2:
            raise _bad(name, "modulus must be at least 2")
        if not 0 <= s < n:
            raise _bad(name, f"scaling element must lie in 0..{n - 1}")
        return f"context {name}\nbase zn {n}\nscalar s {s}\n"
    if family == "tri":
        n, m = _int_params(name, rest, ",", 2)
        if n < 2 or m < 2:
            raise _bad(name, "both moduli must be at least 2")
        g = math.gcd(n, m)
        return (f"context {name}\nbase zn {n}\nS zn {m}\n"
                f"V zn {g}\nW zero\n")
    if family == "zero":
        n, m = _int_params(name, rest, ",", 2)
        if n < 2 or m < 2:
            raise _bad(name, "both moduli must be at least 2")
        return f"context {name}\nbase zn {n}\nS zn {m}\nV zero\nW zero\n"
    raise _bad(name, "no such family")


@lru_cache(maxsize=None)
def builtin_context(name: str) -> ResolvedContext:
    """Resolve a builtin by name (cached, so repeated lookups share caches)."""
    return load_mctx(builtin_document(name))


def battery_names() -> list[str]:
    """The fixed sweep of desk-scale contexts the law tests run over."""
    names = [f"full:{n}" for n in range(2, 7)]
    names.append("ks:4:2")
    names.extend(f"ks:6:{s}" for s in range(6))
    names.extend(["tri:4,2", "zero:2,2", "zero:2,4"])
    names.extend(["paper:ex2.4", "paper:ex2.8", "paper:ex2.12"])
    return names
