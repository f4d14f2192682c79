"""Exact quarter-plane walk enumeration with shift-operator certification.

The package counts lattice walks confined to the first quadrant, discovers
annihilating shift operators for the counting array f(n; i, j) by an exact
ansatz, certifies them rigorously, eliminates the spatial shifts into a
univariate recurrence for the origin-return counts, and proves closed
forms (built in: the Gessel and Kreweras families) by the shared-recurrence
plus initial-values argument.

Importing the package loads none of its submodules: an export is imported
from its submodule on first access (PEP 562), so that a process pays only
for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# each export, by the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "ore": "Bounds Box OreOperator UnsupportedDivisorError div_rem operator_from_json "
        "operator_to_json",
        "walks": "CountTable GESSEL KREWERAS StepSet StepSetParseError cached_table "
        "origin_sequence parse_step_set walk_count",
        "guess": "AnsatzTemplate LinearSystem TemplateError assemble_system build_template "
        "filter_candidates guess_operators nullspace plan_points template_from_support",
        "certify": "Certificate certify_operator check_base_cases evidence_check "
        "trivial_operator",
        "exactmath": "UniOperator uni_from_json uni_to_json",
        "eliminate": "EliminationError EliminationFailure VerificationError eliminate_shifts "
        "generate_module reduce_mod_ij takayama_pipeline",
        "closedform": "CLOSED_FORMS EqualityVerdict HypergeomTerm hypergeom_term "
        "max_nonneg_root nonneg_integer_roots prove_equality symbolic_satisfies",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
