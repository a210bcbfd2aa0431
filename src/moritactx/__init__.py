"""Finite two-ring contexts: rings, bimodules, pairings, and their ideal theory.

Everything is a lookup table over index sets 0..n-1, so every question —
is this subset an ideal, is it prime, what is the radical — is decided by
exhaustive finite enumeration. The library computes each answer one way;
the independent routes that check it live in the tests, the check tokens
and the CLI ``radical`` command, which compare them in the open.
"""

from .catalog import BUILTIN_PATTERNS, battery_names, builtin_context, builtin_document
from .checks import CHECK_TOKENS, CheckResult, run_check
from .context import (
    ClosureSets,
    IdealQuadruple,
    MoritaContext,
    RingReport,
    SlotReport,
    block_ideal_masks,
    block_ideals,
    build_context_ring,
    build_ks_context,
    check_prime_quadruple,
    check_semiprime_quadruple,
    closure_sets,
    context_prime_radical,
    context_prime_spectrum,
    decompose_ideal,
    enumerate_context_ideals,
    is_prime_context,
    is_semiprime_context,
    is_slotted_ideal,
    is_surjective_context,
    lattice_prime_flags,
    product_span_vw,
    product_span_wv,
    quadruple_mask,
    quotient_context,
    side_decomposition,
    slotted_blocks,
    validate_context,
    verify_quotient_iso,
)
from .errors import (
    AlgebraError,
    CapacityError,
    CentralityError,
    InvalidOrderError,
    MalformedTableError,
    MctxError,
    NotAnIdealError,
    NotASubmoduleError,
    NotProperError,
    UnknownBuiltinError,
    ValidationFailedError,
    WellDefinednessError,
)
from .ideals import (
    Ideal,
    check_ideal,
    confirm_prime_witness,
    enumerate_ideals,
    is_prime_ideal,
    is_prime_ring,
    is_semiprime_ideal,
    is_semiprime_ring,
    prime_radical,
    prime_spectrum,
    verify_ideal,
)
from .mctx import (
    ContextDocument,
    ResolvedContext,
    load_mctx,
    parse_mctx,
    resolve_document,
    serialize_document,
)
from .modules import (
    Bimodule,
    ModuleView,
    Submodule,
    confirm_prime_submodule_witness,
    enumerate_submodules,
    is_prime_submodule,
    quotient_module,
    residue_bimodule,
    ring_bimodule,
    subset_bimodule,
    validate_bimodule,
    verify_submodule,
    zero_bimodule,
)
from .rings import (
    FiniteRing,
    make_zn,
    quotient_ring,
    ring_from_tables,
    validate_ring,
    verify_ring_map,
)
from .validation import ValidationReport, Verdict, Violation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # rings
    "FiniteRing", "make_zn", "ring_from_tables",
    "validate_ring", "quotient_ring", "verify_ring_map",
    # modules
    "Bimodule", "ModuleView", "Submodule", "ring_bimodule", "subset_bimodule",
    "residue_bimodule", "zero_bimodule", "validate_bimodule", "verify_submodule",
    "enumerate_submodules", "is_prime_submodule", "confirm_prime_submodule_witness",
    "quotient_module",
    # ideals
    "Ideal", "check_ideal", "verify_ideal", "enumerate_ideals",
    "is_prime_ideal", "is_semiprime_ideal", "confirm_prime_witness", "prime_spectrum",
    "prime_radical", "is_prime_ring", "is_semiprime_ring",
    # contexts
    "MoritaContext", "IdealQuadruple", "ClosureSets", "SlotReport", "RingReport",
    "validate_context", "build_context_ring", "build_ks_context",
    "quadruple_mask", "enumerate_context_ideals",
    "is_slotted_ideal", "lattice_prime_flags",
    "decompose_ideal", "block_ideals", "block_ideal_masks",
    "side_decomposition", "slotted_blocks", "closure_sets",
    "check_prime_quadruple", "check_semiprime_quadruple",
    "context_prime_spectrum", "context_prime_radical", "quotient_context",
    "verify_quotient_iso", "is_prime_context", "is_semiprime_context", "is_surjective_context",
    "product_span_vw", "product_span_wv",
    # documents and catalog
    "ContextDocument", "ResolvedContext", "parse_mctx", "serialize_document",
    "resolve_document", "load_mctx", "builtin_document", "builtin_context",
    "battery_names", "BUILTIN_PATTERNS",
    # checks
    "CHECK_TOKENS", "CheckResult", "run_check",
    # validation and errors
    "Verdict", "Violation", "ValidationReport",
    "AlgebraError", "MalformedTableError", "InvalidOrderError",
    "ValidationFailedError", "NotAnIdealError", "NotASubmoduleError",
    "NotProperError", "CapacityError", "CentralityError", "WellDefinednessError",
    "UnknownBuiltinError", "MctxError",
]
