"""The package's exports, each imported from its submodule on first access."""

import importlib

import pytest

import quarterwalks

EXPORTS = [
    "AnsatzTemplate", "Bounds", "Box", "CLOSED_FORMS", "Certificate", "CountTable", "Degrees",
    "EliminationError", "EliminationFailure", "EqualityVerdict", "GESSEL", "HypergeomTerm",
    "KREWERAS", "LinearSystem", "OreOperator", "StepSet", "StepSetParseError", "TemplateError",
    "UniOperator", "UnsupportedDivisorError", "VerificationError", "assemble_system",
    "build_template", "cached_table", "certify_operator", "check_base_cases", "div_rem",
    "eliminate_shifts", "evidence_check", "filter_candidates", "generate_module",
    "guess_operators", "hypergeom_term", "max_nonneg_root", "nonneg_integer_roots", "nullspace",
    "operator_from_json", "operator_to_json", "origin_sequence", "parse_step_set", "plan_points",
    "prove_equality", "reduce_mod_ij", "symbolic_satisfies", "takayama_pipeline",
    "template_from_support", "trivial_operator", "uni_from_json", "uni_to_json", "walk_count",
]


def test_all_names_the_fifty_exports():
    assert quarterwalks.__all__ == EXPORTS
    assert len(set(EXPORTS)) == 50


def test_each_export_is_its_submodules_object():
    for name in EXPORTS:
        module = importlib.import_module(f"quarterwalks.{quarterwalks._EXPORTS[name]}")
        assert getattr(quarterwalks, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    scope = {}
    exec("from quarterwalks import *", scope)
    assert {name: scope[name] for name in EXPORTS} == {
        name: getattr(quarterwalks, name) for name in EXPORTS
    }


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(quarterwalks))
    assert "__version__" in dir(quarterwalks)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        quarterwalks.no_such_export
    with pytest.raises(ImportError):
        exec("from quarterwalks import no_such_export", {})
