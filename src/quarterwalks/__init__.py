"""Exact quarter-plane walk enumeration with shift-operator certification.

The package counts lattice walks confined to the first quadrant, discovers
annihilating shift operators for the counting array f(n; i, j) by an exact
ansatz, certifies them rigorously, eliminates the spatial shifts into a
univariate recurrence for the origin-return counts, and proves closed
forms (built in: the Gessel and Kreweras families) by the shared-recurrence
plus initial-values argument.
"""

from .exactmath import MultiPoly
from .ore import (
    Box,
    Degrees,
    OreOperator,
    UnsupportedDivisorError,
    div_rem,
    operator_from_json,
    operator_to_json,
)
from .walks import (
    CountTable,
    GESSEL,
    KREWERAS,
    StepSet,
    StepSetParseError,
    cached_table,
    origin_sequence,
    parse_step_set,
    trivial_operator,
)
from .guess import (
    AnsatzTemplate,
    Bounds,
    LinearSystem,
    TemplateError,
    assemble_system,
    build_template,
    filter_candidates,
    guess_operators,
    nullspace,
    plan_points,
    template_from_support,
)
from .certify import (
    Certificate,
    certify_operator,
    check_base_cases,
    evidence_check,
)
from .eliminate import (
    EliminationError,
    EliminationFailure,
    ModuleVector,
    UniOperator,
    VerificationError,
    eliminate_shifts,
    generate_module,
    reduce_mod_ij,
    takayama_pipeline,
    uni_from_json,
    uni_to_json,
)
from .closedform import (
    EqualityVerdict,
    HypergeomTerm,
    closed_form_value,
    gessel_rhs,
    hypergeom_term,
    kreweras_rhs,
    max_nonneg_root,
    nonneg_integer_roots,
    pochhammer,
    prove_equality,
    symbolic_satisfies,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzTemplate",
    "Bounds",
    "Box",
    "Certificate",
    "CountTable",
    "Degrees",
    "EliminationError",
    "EliminationFailure",
    "EqualityVerdict",
    "GESSEL",
    "HypergeomTerm",
    "KREWERAS",
    "LinearSystem",
    "ModuleVector",
    "MultiPoly",
    "OreOperator",
    "StepSet",
    "StepSetParseError",
    "TemplateError",
    "UniOperator",
    "UnsupportedDivisorError",
    "VerificationError",
    "assemble_system",
    "build_template",
    "cached_table",
    "certify_operator",
    "check_base_cases",
    "closed_form_value",
    "div_rem",
    "eliminate_shifts",
    "evidence_check",
    "filter_candidates",
    "generate_module",
    "gessel_rhs",
    "guess_operators",
    "hypergeom_term",
    "kreweras_rhs",
    "max_nonneg_root",
    "nonneg_integer_roots",
    "nullspace",
    "operator_from_json",
    "operator_to_json",
    "origin_sequence",
    "parse_step_set",
    "plan_points",
    "pochhammer",
    "prove_equality",
    "reduce_mod_ij",
    "symbolic_satisfies",
    "takayama_pipeline",
    "template_from_support",
    "trivial_operator",
    "uni_from_json",
    "uni_to_json",
]
