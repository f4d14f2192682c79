"""Every input check of the library refuses its input with its own
exception type and message, including checks that no pipeline run
reaches: each case calls the check directly."""

import copy

import pytest
from conftest import run_cli

from quarterwalks import (
    GESSEL,
    KREWERAS,
    Bounds,
    HypergeomTerm,
    OreOperator,
    StepSetParseError,
    TemplateError,
    UniOperator,
    build_template,
    eliminate_shifts,
    generate_module,
    nonneg_integer_roots,
    operator_from_json,
    operator_to_json,
    template_from_support,
    trivial_operator,
    uni_from_json,
    uni_to_json,
)
from quarterwalks.eliminate import EliminationError
from quarterwalks.exactmath import ipoly_divexact
from quarterwalks.walks import StepSet

ORE_FILE = operator_to_json(trivial_operator(GESSEL))
UNI_FILE = uni_to_json(UniOperator({1: [1], 0: [-1]}))


def edited(data, edit):
    """A deep copy of ``data`` changed by ``edit``, called for its effect."""
    data = copy.deepcopy(data)
    edit(data)
    return data


CHECKS = {
    "step-set-empty": (lambda: StepSet(frozenset()), StepSetParseError, "empty step set"),
    "step-set-not-unit": (
        lambda: StepSet(frozenset({(2, 0)})), StepSetParseError, "not a unit direction: (2, 0)"
    ),
    "ore-negative-exponent": (
        lambda: OreOperator({(0, 0, 0, 0, 0, -1): 1}), ValueError,
        "term exponents must be six nonnegative ints",
    ),
    "ore-variable": (lambda: OreOperator.variable("x"), ValueError, "unknown variable 'x'"),
    "ore-shift": (lambda: OreOperator.shift("Sx"), ValueError, "unknown shift symbol 'Sx'"),
    "ore-zero-leading": (
        lambda: OreOperator.zero().leading_monomial(), ValueError,
        "zero operator has no leading monomial",
    ),
    "ore-substitute-n": (
        lambda: OreOperator.variable("n").substitute_zero(["n"]), ValueError,
        "can only substitute i or j to zero, not 'n'",
    ),
    "ore-file-short-shift": (
        lambda: operator_from_json(edited(ORE_FILE, lambda d: d["terms"][0].update(shift=[0, 0]))),
        ValueError, "bad shift triple [0, 0]",
    ),
    "ore-file-repeated-shift": (
        lambda: operator_from_json(edited(ORE_FILE, lambda d: d["terms"].append(d["terms"][0]))),
        ValueError, "duplicate shift monomial (0, 0, 0)",
    ),
    "ore-file-short-exponent": (
        lambda: operator_from_json(
            edited(ORE_FILE, lambda d: d["terms"][0]["coeff"][0].update(exp=[0, 0]))
        ),
        ValueError, "bad exponent triple [0, 0]",
    ),
    "bounds-negative-total": (
        lambda: build_template(Bounds(total_poly_deg=-1)), TemplateError,
        "total degree cap must be >= 0",
    ),
    "template-duplicate": (
        lambda: template_from_support([(0,) * 6, (0,) * 6]), TemplateError,
        "duplicate tuples in ansatz support",
    ),
    "template-materialize-length": (
        lambda: build_template(Bounds(ord_sn=1)).materialize([1]), ValueError,
        "vector length does not match support",
    ),
    "template-shape": (
        lambda: build_template(Bounds(), "bogus"), TemplateError, "unknown ansatz shape 'bogus'"
    ),
    "hypergeom-period": (
        lambda: HypergeomTerm(1, (), (), 0, 0), ValueError, "support pattern must have period >= 1"
    ),
    "roots-of-zero": (lambda: nonneg_integer_roots([0]), ValueError, "zero polynomial"),
    "uni-file-header": (
        lambda: uni_from_json(edited(UNI_FILE, lambda d: d.update(var="x"))), ValueError,
        "unrecognized operator header",
    ),
    "uni-file-repeated-power": (
        lambda: uni_from_json(edited(UNI_FILE, lambda d: d["terms"].append(d["terms"][0]))),
        ValueError, "duplicate power 0",
    ),
    "module-no-generators": (lambda: generate_module([]), EliminationError, "no generators"),
    "echelon-no-vectors": (lambda: eliminate_shifts([]), EliminationError, "empty vector list"),
    "divexact-inexact": (
        lambda: ipoly_divexact([3], 2), ArithmeticError, "inexact integer polynomial division"
    ),
    "uni-negative-power": (lambda: UniOperator({-1: [1]}), ValueError, "negative shift power"),
    "frozen-record-delete": (
        lambda: delattr(KREWERAS, "steps"), AttributeError, "StepSet is frozen: cannot delete"
    ),
}


@pytest.mark.parametrize("call, error, fragment", CHECKS.values(), ids=CHECKS.keys())
def test_input_check_refuses(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)


def test_bounds_item_without_value_exits_2(tmp_path):
    r = run_cli(["guess", "--steps", "W,S,NE", "--bounds", "deg_n", "--out", str(tmp_path)])
    assert r.exit_code == 2
    assert r.output == "error: bad bounds item 'deg_n' (expected key=value)\n"


def test_empty_bounds_item_is_skipped(tmp_path, monkeypatch):
    # an empty kernel keeps the run short; the template line shows the caps read
    monkeypatch.setattr("quarterwalks.cli.nullspace", lambda system: [])
    r = run_cli(["guess", "--steps", "W,S,NE", "--bounds", "deg_n=1,,ord_sn=1",
                 "--out", str(tmp_path)])
    assert r.exit_code == 1
    assert "template deg_n=1,,ord_sn=1 (full): 4 unknowns" in r.output
