import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import run_cli

from quarterwalks import (
    CLOSED_FORMS,
    GESSEL,
    KREWERAS,
    HypergeomTerm,
    UniOperator,
    operator_to_json,
    origin_sequence,
    trivial_operator,
    uni_from_json,
    uni_to_json,
)
from quarterwalks.cli import _DEFAULT_BOUNDS, parse_bounds
from quarterwalks.eliminate import EliminationError, VerificationError
from quarterwalks.exactmath import ipoly_mul, ipoly_scale
from quarterwalks.guess import Bounds, TemplateError


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


PG = UniOperator(
    {
        2: ipoly_mul([10, 3], [4, 1]),
        0: ipoly_scale(ipoly_mul([5, 3], [1, 1]), -16),
    }
)


def test_parse_bounds_round_trip():
    b = parse_bounds("deg_n=1,deg_i=2,ord_sn=3,total=4")
    assert b == Bounds(deg_n=1, deg_i=2, ord_sn=3, total_poly_deg=4)
    with pytest.raises(Exception):
        parse_bounds("bogus=1")
    # a repeated key is an error, not a silent last-one-wins
    with pytest.raises(TemplateError, match="'deg_n' given twice"):
        parse_bounds("deg_n=0,deg_n=1")
    with pytest.raises(TemplateError, match="'total_poly_deg' given twice"):
        parse_bounds("total=1,total_poly_deg=2")
    # a value is a decimal integer, read as strictly as the file readers do
    assert parse_bounds("deg_n=+1, deg_i= 2") == Bounds(deg_n=1, deg_i=2)
    for value in ("x", "1_0", "1.5", "", "0x3"):
        with pytest.raises(TemplateError, match=f"bounds key 'deg_n': {value!r} is not an integer"):
            parse_bounds(f"deg_n={value}")


def test_count_values():
    r = run_cli(["count", "--steps", "E,W,NE,SW", "--n", "4", "--i", "0", "--j", "0"])
    assert r.exit_code == 0 and r.output.strip() == "11"
    r = run_cli(["count", "--steps", "W,S,NE", "--n", "6", "--i", "0", "--j", "0"])
    assert r.exit_code == 0 and r.output.strip() == "16"
    r = run_cli(["count", "--steps", "E,W,NE,SW", "--n", "3", "--i", "0", "--j", "0"])
    assert r.exit_code == 0 and r.output.strip() == "0"
    # negative coordinates stay legal and count no walks
    for n, i, j in ((-1, 0, 0), (4, -2, 0), (4, 0, -1)):
        coords = ["--n", str(n), "--i", str(i), "--j", str(j)]
        r = run_cli(["count", "--steps", "W,S,NE", *coords])
        assert r.exit_code == 0 and r.output.strip() == "0"


def test_count_bad_steps_exits_2():
    r = run_cli(["count", "--steps", "X", "--n", "1", "--i", "0", "--j", "0"])
    assert r.exit_code == 2


def test_table_prints_json():
    r = run_cli(["table", "--steps", "W,S,NE", "--n-max", "6"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["steps"] == "W,S,NE" and data["nMax"] == 6
    assert data["levels"][6][0][0] == "16"


def test_removed_cache_option_exit_2(tmp_path):
    r = run_cli(["--cache-dir", str(tmp_path), "count", "--steps", "W,S,NE",
                 "--n", "3", "--i", "0", "--j", "0"])
    assert r.exit_code == 2
    assert "unrecognized arguments" in r.output


@pytest.mark.parametrize(
    "args",
    [
        ["guess", "--steps", "W,S,NE", "--n-max", "5", "--out", "{tmp}"],
        ["eliminate", "--steps", "W,S,NE", "{op}", "--truncation", "1"],
        ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras", "--retry-cap", "0"],
        ["certify", "--steps", "W,S,NE", "{op}", "--margin", "2"],
        ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras", "--certify-margin", "2"],
    ],
    ids=["guess-n-max", "eliminate-truncation", "prove-retry-cap", "certify-margin",
         "prove-certify-margin"],
)
def test_removed_sizing_options_exit_2(tmp_path, args):
    # the count table sizes itself on read, elimination keeps every
    # component, and the base-case box is fixed by the light cone
    op = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    r = run_cli([a.format(tmp=tmp_path, op=op) for a in args])
    assert r.exit_code == 2
    assert "unrecognized arguments" in r.output


_PROVE_K = ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras"]


@pytest.mark.parametrize(
    "args, option",
    [
        (["guess", "--steps", "W,S,NE", "--margin", "-500", "--out", "{tmp}"], "--margin"),
        (_PROVE_K + ["--margin", "-1"], "--margin"),
        (["eliminate", "--steps", "W,S,NE", "{op}", "--multiplier-bound", "-1"],
         "--multiplier-bound"),
        (_PROVE_K + ["--multiplier-bound", "-1"], "--multiplier-bound"),
        (["eliminate", "--steps", "W,S,NE", "{op}", "--diag-limit", "-1"], "--diag-limit"),
        (_PROVE_K + ["--diag-limit", "-1"], "--diag-limit"),
        (["import-recurrence", "{rec}", "--steps", "W,S,NE", "--n-check", "-1"], "--n-check"),
        (["check-closed-form", "--closed-form", "kreweras", "--m-max", "-1"], "--m-max"),
        (["table", "--steps", "W,S,NE", "--n-max", "-1"], "--n-max"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_negative_counts_are_usage_errors(tmp_path, args, option):
    op = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    rec = write_json(tmp_path / "rec.json", uni_to_json(PG))
    r = run_cli([a.format(tmp=tmp_path, op=op, rec=rec) for a in args])
    assert r.exit_code == 2
    assert "Traceback" not in r.output
    assert option in r.output


def test_guess_trivial_support_recovers_t(tmp_path):
    out = tmp_path / "cands"
    r = run_cli(
        ["guess", "--steps", "E,W,NE,SW",
         "--bounds", "ord_sn=1,ord_si=2,ord_sj=2", "--out", str(out)],
    )
    assert r.exit_code == 0
    files = sorted(os.listdir(out))
    assert files
    payloads = [json.load(open(out / f)) for f in files]
    t_json = operator_to_json(trivial_operator(GESSEL).normalized())
    assert any(p["operator"] == t_json for p in payloads)
    for p in payloads:
        assert p["meta"]["version"]
        assert p["meta"]["config"]["steps"] == "E,W,NE,SW"


def test_guess_outputs_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        r = run_cli(
            ["guess", "--steps", "E,W,NE,SW", "--bounds", "ord_sn=1,ord_si=2,ord_sj=2",
             "--out", str(out)],
        )
        assert r.exit_code == 0
        outs.append({f: open(out / f, "rb").read() for f in sorted(os.listdir(out))})
    assert outs[0] == outs[1]


def test_guess_negative_quasiholonomic_exit_1(tmp_path):
    r = run_cli(
        ["guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
         "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=2,ord_si=2,ord_sj=2,total=2",
         "--out", str(tmp_path / "none")],
    )
    assert r.exit_code == 1


def test_guess_negative_pure_sn_quasiholonomic(tmp_path):
    # no low-order recurrence in n alone annihilates the whole array
    r = run_cli(
        ["guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
         "--bounds", "deg_n=1,ord_sn=2", "--out", str(tmp_path / "none")],
    )
    assert r.exit_code == 1
    assert "no candidates" in r.output


def test_guess_malformed_steps_exit_2(tmp_path):
    r = run_cli(
        ["guess", "--steps", "E,,Q", "--bounds", "ord_sn=1", "--out", str(tmp_path)]
    )
    assert r.exit_code == 2


def test_guess_refuses_out_holding_candidates(tmp_path):
    # an empty existing directory is accepted
    out = tmp_path / "cands"
    out.mkdir()
    r = run_cli(
        ["guess", "--steps", "E,W,NE,SW", "--bounds", "ord_sn=1,ord_si=2,ord_sj=2",
         "--out", str(out)],
    )
    assert r.exit_code == 0
    before = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    assert list(before) == ["candidate_000.json"]
    # a second run into it is refused before guessing, even one of
    # another step set that would find nothing, and deletes nothing
    r = run_cli(
        ["guess", "--steps", "W,S,NE", "--shape", "quasiholonomic",
         "--bounds", "deg_n=1,ord_sn=2", "--out", str(out)],
    )
    assert r.exit_code == 2
    assert r.output.splitlines() == [
        f"error: {out} already holds candidate files (1 candidate_*.json); "
        "remove them or choose another --out"
    ]
    assert {f: (out / f).read_bytes() for f in sorted(os.listdir(out))} == before


def test_certify_trivial_and_refuted(tmp_path):
    t = trivial_operator(GESSEL)
    t_file = write_json(tmp_path / "t.json", operator_to_json(t))
    r = run_cli(["certify", "--steps", "E,W,NE,SW", t_file])
    assert r.exit_code == 0
    assert '"verdict": "certified"' in r.output

    bad_file = write_json(tmp_path / "bad.json", operator_to_json(t + 1))
    r = run_cli(["certify", "--steps", "E,W,NE,SW", bad_file])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["verdict"] == "refuted"
    assert report["counterexample"] == [0, 0, 0]


def test_certify_writes_certificate_file(tmp_path):
    t = trivial_operator(GESSEL)
    t_file = write_json(tmp_path / "t.json", operator_to_json(t))
    out = str(tmp_path / "cert.json")
    r = run_cli(["certify", "--steps", "E,W,NE,SW", t_file, "--out", out])
    assert r.exit_code == 0
    cert = json.load(open(out))
    assert cert["verdict"] == "certified"
    assert cert["chain"] == [{"vars": ["n", "i", "j"], "shifts": ["Sn", "Si", "Sj"], "terms": []}]
    assert cert["base_checks"][0]["all_zero"] is True
    assert cert["base_checks"][0]["box"] == {"n": [0, 0], "i": [0, 1], "j": [0, 1]}
    assert "certify_margin" not in cert["meta"]["config"]


def test_certify_malformed_rational_exit_2(tmp_path):
    data = operator_to_json(trivial_operator(GESSEL))
    data["terms"][0]["coeff"][0]["num"] = "not-a-number"
    path = write_json(tmp_path / "m.json", data)
    r = run_cli(["certify", "--steps", "E,W,NE,SW", path])
    assert r.exit_code == 2


def test_eliminate_t_alone_fails_exit_1(tmp_path):
    t_file = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    r = run_cli(
        ["eliminate", "--steps", "E,W,NE,SW", t_file, "--diag-limit", "40"]
    )
    assert r.exit_code == 1
    assert "elimination failed" in r.output


def test_import_recurrence_valid(tmp_path):
    path = write_json(tmp_path / "pg.json", uni_to_json(PG))
    r = run_cli(["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "60"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["operator"] == uni_to_json(PG)


def test_import_recurrence_rejected_exit_1(tmp_path):
    wrong = UniOperator({2: [40, 22, 3], 0: [-80, -128, -47]})
    path = write_json(tmp_path / "wrong.json", uni_to_json(wrong))
    r = run_cli(["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "60"])
    assert r.exit_code == 1
    assert "rejected: fails sequence check at n=" in r.output


def test_import_recurrence_clears_rational_terms(tmp_path):
    # (3n+10)(n+4) / (2 (n+1)(3n+5)) Sn^2 - 8 is the Gessel recurrence
    # divided by 2 (n+1)(3n+5); it loads, validates and is written cleared
    rational = {
        "var": "n",
        "shift": "Sn",
        "terms": [
            {"power": 2, "num": ["20", "11", "3/2"], "den": ["5", "8", "3"]},
            {"power": 0, "num": ["-8"], "den": ["1"]},
        ],
        "cleared": uni_to_json(PG)["cleared"],
    }
    path = write_json(tmp_path / "rational.json", rational)
    r = run_cli(["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "60"])
    assert r.exit_code == 0
    assert json.loads(r.output)["operator"] == uni_to_json(PG)


@pytest.mark.parametrize(
    "num, den",
    [(["1"], ["0"]), (["1/0"], ["1"]), (["one"], ["1"])],
    ids=["zero-den", "div-by-zero", "not-a-number"],
)
def test_recurrence_with_bad_numbers_exit_2_one_line(tmp_path, num, den):
    data = uni_to_json(PG)
    data["terms"][1].update(num=num, den=den)
    path = write_json(tmp_path / "bad.json", data)
    for args in (
        ["import-recurrence", path, "--steps", "E,W,NE,SW"],
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", path, "--diag-limit", "40"],
    ):
        r = run_cli(args)
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        lines = r.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: term of power 2"), r.output


def test_import_recurrence_truncated_json_exit_2(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"var": "n", "shift": "Sn", "terms": [')
    r = run_cli(["import-recurrence", str(path), "--steps", "E,W,NE,SW"])
    assert r.exit_code == 2


def test_eliminate_writes_recurrence_of_origin_counts(tmp_path, kreweras_certified):
    paths = [
        write_json(tmp_path / f"op{k}.json", operator_to_json(op))
        for k, op in enumerate(kreweras_certified)
    ]
    out = tmp_path / "p.json"
    r = run_cli(["eliminate", "--steps", "W,S,NE", *paths, "--multiplier-bound", "1",
                 "--diag-limit", "200", "--out", str(out)])
    assert r.exit_code == 0, r.output
    p = uni_from_json(json.load(open(out))["operator"])
    assert p.order() >= 1
    assert p.first_failure(origin_sequence(KREWERAS, 200), range(201 - p.order())) is None


def test_check_closed_form():
    for which in ("gessel", "kreweras"):
        r = run_cli(["check-closed-form", "--closed-form", which, "--m-max", "8"])
        assert r.exit_code == 0
        n_max = CLOSED_FORMS[which][1].period * 8
        assert r.output == f"closed form {which}: OK (values to n={n_max})\n"


def test_check_closed_form_wrong_term_exit_1(monkeypatch):
    # (2)_m replaced by (3)_m: b(1) = 4/3, not the 2 walks of length 2
    wrong = HypergeomTerm(
        Fraction(16), (Fraction(5, 6), Fraction(1, 2)), (Fraction(5, 3), Fraction(3)), 2, 0
    )
    monkeypatch.setitem(CLOSED_FORMS, "gessel", (GESSEL, wrong))
    r = run_cli(["check-closed-form", "--closed-form", "gessel", "--m-max", "8"])
    assert r.exit_code == 1
    assert r.output == "mismatch at n=2\n"


def test_prove_gessel_with_import(tmp_path):
    path = write_json(tmp_path / "pg.json", uni_to_json(PG))
    report_path = str(tmp_path / "report.json")
    r = run_cli(
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", path, "--diag-limit", "80", "--out", report_path],
    )
    assert r.exit_code == 0
    report = json.load(open(report_path))
    assert report["status"] == "PROVED"
    assert report["recurrence_source"] == "imported"
    assert report["meta"]["version"]
    assert report["meta"]["config"]["closed_form"] == "gessel"
    assert report["verdict"]["status"] == "PROVED"


def test_prove_gessel_without_import_is_sound_negative(tmp_path):
    # desk-scale bounds cannot crack the Gessel elimination; the command
    # must fail soundly (exit 1) rather than claim success
    report_path = str(tmp_path / "report.json")
    r = run_cli(
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--bounds", "ord_sn=1,ord_si=2,ord_sj=2", "--diag-limit", "40",
         "--out", report_path],
    )
    assert r.exit_code == 1
    report = json.load(open(report_path))
    assert report["status"].startswith("FAILED")


def test_prove_import_of_wrong_recurrence_rejected(tmp_path):
    # PG with 15 for 16: (n+4)(3n+10) f(n+2) = 15 (3n+5)(n+1) f(n) fails at n = 0
    wrong = UniOperator({2: PG.cleared()[2], 0: ipoly_scale(ipoly_mul([5, 3], [1, 1]), -15)})
    path = write_json(tmp_path / "wrong.json", uni_to_json(wrong))
    report_path = tmp_path / "report.json"
    r = run_cli(_GESSEL_IMPORT + [path, "--diag-limit", "40",
                                  "--out", str(report_path)])
    assert r.exit_code == 1
    report = json.load(open(report_path))
    assert report["status"] == "REJECTED(import fails sequence check at n=0)"
    assert report["oracle_check"] == {"n_checked": 40, "ok": False, "failing_n": 0}
    assert "verdict" not in report


def test_prove_quasiholonomic_without_candidates_exit_1(tmp_path):
    report_path = tmp_path / "report.json"
    r = run_cli(
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--shape", "quasiholonomic", "--bounds", "deg_n=1,ord_sn=2", "--diag-limit", "40",
         "--out", str(report_path)],
    )
    assert r.exit_code == 1
    report = json.load(open(report_path))
    assert report["status"] == "FAILED(no candidates)"
    assert report["candidates"] == 0


def test_prove_import_order_not_below_diag_limit_exit_2(tmp_path):
    # an order-12 recurrence leaves no window to check in 10 terms
    rec = UniOperator({12: [1], 0: [-1]})
    path = write_json(tmp_path / "ord12.json", uni_to_json(rec))
    report_path = tmp_path / "report.json"
    r = run_cli(
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", path, "--diag-limit", "10", "--out", str(report_path)],
    )
    assert r.exit_code == 2
    # the message names prove's own option
    assert "error: --diag-limit must exceed the recurrence order" in r.output
    assert not report_path.exists()


def test_import_recurrence_order_not_below_n_check_exit_2(tmp_path):
    rec = UniOperator({12: [1], 0: [-1]})
    path = write_json(tmp_path / "ord12.json", uni_to_json(rec))
    out_path = tmp_path / "out.json"
    r = run_cli(
        ["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "12",
         "--out", str(out_path)],
    )
    assert _one_error_line(r) == "error: --n-check must exceed the recurrence order"
    assert not out_path.exists()


_GESSEL_IMPORT = ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
                  "--import-recurrence"]

# every command that reads an operator file, and which reader it uses
_FILE_COMMANDS = {
    "certify": (["certify", "--steps", "E,W,NE,SW", "{f}"], "ore"),
    "eliminate": (["eliminate", "--steps", "E,W,NE,SW", "{f}", "--diag-limit", "40"], "ore"),
    "import-recurrence": (["import-recurrence", "{f}", "--steps", "E,W,NE,SW"], "uni"),
    "prove-import": (_GESSEL_IMPORT + ["{f}", "--diag-limit", "40"], "uni"),
}


def _malformed(kind, payload):
    """A valid operator file of the reader's kind with its terms removed,
    with an empty term list (the zero operator), with the denominator of
    its first coefficient set to zero, or with a monomial (ore) or a
    cleared power (uni) stated twice with different values."""
    data = operator_to_json(trivial_operator(GESSEL)) if kind == "ore" else uni_to_json(PG)
    if payload == "no-terms":
        del data["terms"]
    elif payload == "zero":
        data["terms"] = []
        data.pop("cleared", None)
    elif payload == "duplicate" and kind == "ore":
        data["terms"][1]["coeff"].append({"exp": [0, 0, 0], "num": "2", "den": "1"})
    elif payload == "duplicate":
        data["cleared"].append({"power": 0, "coeffs": ["1"]})
    elif kind == "ore":
        data["terms"][0]["coeff"][0]["den"] = "0"
    else:
        data["terms"][0]["den"] = ["0"]
    return data


def _one_error_line(r):
    """The CLI's report of an operational error: exit 2 and one `error:`
    line, with no traceback."""
    assert r.exit_code == 2, r.output
    assert "Traceback" not in r.output, r.output
    errors = [line for line in r.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, r.output
    return errors[0]


@pytest.mark.parametrize(
    "payload", ["not-json", "list", "operator-list", "no-terms", "zero", "zero-den", "duplicate"]
)
@pytest.mark.parametrize("command", list(_FILE_COMMANDS))
def test_malformed_operator_file_exit_2_one_line(tmp_path, command, payload):
    # the file reader rejects what is not JSON or not an operator object,
    # or holds a zero denominator or the zero operator, so every command
    # that reads one gives the same one-line error
    args, kind = _FILE_COMMANDS[command]
    if payload == "not-json":
        path = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text("not json\n")
    else:
        data = {"list": [1, 2], "operator-list": {"operator": [1]}}.get(payload)
        path = write_json(tmp_path / "bad.json", data if data is not None else _malformed(kind, payload))
    r = run_cli([a.format(f=path) for a in args])
    line = _one_error_line(r)
    assert path in line
    if payload == "not-json":
        assert line == f"error: Expecting value: line 1 column 1 (char 0) (in {path})"
    if payload == "list":
        assert line == f"error: expected a JSON object, not list (in {path})"
    if payload == "zero":
        assert line == f"error: {path}: the file holds the zero operator"
    if payload == "zero-den":
        assert "zero denominator" in line
        if kind == "ore":
            assert "shift (0, 0, 0)" in line
    if payload == "duplicate":
        if kind == "ore":
            assert "duplicate exponent (0, 0, 0) in the coefficient of shift (0, 0, 1)" in line
        else:
            assert "duplicate cleared power 0" in line


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc("pipeline stopped")

    return raiser


_ELIMINATE_40 = ["eliminate", "--steps", "E,W,NE,SW", "{op}", "--diag-limit", "40",
                 "--out", "{tmp}/report.json"]
_PROVE_40 = ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
             "--bounds", "ord_sn=1,ord_si=2,ord_sj=2", "--diag-limit", "40",
             "--out", "{tmp}/report.json"]

# command line, error raised inside the pipeline (or None), text the error line holds
_OPERATIONAL_ERRORS = {
    "count": (["count", "--steps", "X", "--n", "1", "--i", "0", "--j", "0"], None, "X"),
    "table": (["table", "--steps", "X", "--n-max", "3"], None, "X"),
    "guess": (["guess", "--steps", "X", "--out", "{tmp}/cands"], None, "X"),
    "certify": (["certify", "--steps", "X", "{op}"], None, "X"),
    "eliminate": (["eliminate", "--steps", "X", "{op}"], None, "X"),
    "import-recurrence": (["import-recurrence", "{rec}", "--steps", "X"], None, "X"),
    "prove": (["prove", "--steps", "X", "--closed-form", "gessel"], None, "X"),
    "guess-repeated-bounds": (
        ["guess", "--steps", "W,S,NE", "--bounds", "deg_n=0,deg_n=1", "--out", "{tmp}/cands"],
        None, "'deg_n' given twice",
    ),
    "guess-bounds-not-integer": (
        ["guess", "--steps", "W,S,NE", "--bounds", "deg_n=x", "--out", "{tmp}/cands"],
        None, "bounds key 'deg_n': 'x' is not an integer",
    ),
    "prove-bounds-digit-separator": (
        ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras",
         "--bounds", "deg_n=1_0", "--out", "{tmp}/report.json"],
        None, "bounds key 'deg_n': '1_0' is not an integer",
    ),
    "prove-repeated-bounds": (
        ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras",
         "--bounds", "total=1,total_poly_deg=2", "--out", "{tmp}/report.json"],
        None, "'total_poly_deg' given twice",
    ),
    "certify-directory": (["certify", "--steps", "W,S,NE", "{tmp}"], None, "{tmp}"),
    "table-out-directory": (
        ["table", "--steps", "W,S,NE", "--n-max", "2", "--out", "{tmp}"], None, "{tmp}"
    ),
    "certify-missing-file": (
        ["certify", "--steps", "W,S,NE", "{tmp}/missing.json"], None, "{tmp}/missing.json"
    ),
    "eliminate-missing-file": (
        ["eliminate", "--steps", "W,S,NE", "{op}", "{tmp}/missing.json"], None,
        "{tmp}/missing.json",
    ),
    "import-recurrence-missing-file": (
        ["import-recurrence", "{tmp}/missing.json", "--steps", "W,S,NE"], None,
        "{tmp}/missing.json",
    ),
    "prove-import-missing-file": (
        _GESSEL_IMPORT + ["{tmp}/missing.json", "--out", "{tmp}/report.json"], None,
        "{tmp}/missing.json",
    ),
    "eliminate-verification": (_ELIMINATE_40, VerificationError, "pipeline stopped"),
    "eliminate-elimination": (_ELIMINATE_40, EliminationError, "pipeline stopped"),
    "prove-verification": (_PROVE_40, VerificationError, "pipeline stopped"),
    "prove-elimination": (_PROVE_40, EliminationError, "pipeline stopped"),
}


@pytest.mark.parametrize("case", list(_OPERATIONAL_ERRORS))
def test_operational_errors_exit_2_one_line(tmp_path, monkeypatch, case):
    # bad steps and paths that cannot be opened reach the error boundary
    # from every command, and so do the elimination's own errors, without
    # a traceback or a report
    args, pipeline_error, expected = _OPERATIONAL_ERRORS[case]
    if pipeline_error is not None:
        monkeypatch.setattr("quarterwalks.cli.takayama_pipeline", _raise(pipeline_error))
    op = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    rec = write_json(tmp_path / "rec.json", uni_to_json(PG))
    r = run_cli([a.format(tmp=tmp_path, op=op, rec=rec) for a in args])
    line = _one_error_line(r)
    assert expected.format(tmp=tmp_path) in line
    if pipeline_error is not None:
        assert line == "error: pipeline stopped"
    assert r.stdout == ""
    assert not (tmp_path / "report.json").exists()


def test_unexpected_exception_exits_2(tmp_path, monkeypatch):
    def broken(system):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr("quarterwalks.cli.nullspace", broken)
    r = run_cli(
        ["guess", "--steps", "E,W,NE,SW", "--bounds", "ord_sn=1,ord_si=2,ord_sj=2",
         "--out", str(tmp_path / "cands")],
    )
    assert r.exit_code == 2
    assert "error: RuntimeError: solver blew up" in r.output


def _src_env():
    """The environment with this checkout's package first on the path."""
    import quarterwalks

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quarterwalks.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_kernel_solve_leaves_numpy_unloaded(tmp_path):
    """The kernel solver is pure Python: a guess that solves a nonempty
    system and finds candidates loads no numpy module."""
    env = _src_env()
    out = tmp_path / "cands"
    code = (
        "import sys\n"
        "from quarterwalks.cli import main\n"
        "try:\n"
        "    main(['guess', '--steps', 'E,W,NE,SW', '--bounds', 'ord_sn=1,ord_si=2,ord_sj=2',\n"
        f"          '--out', {str(out)!r}])\n"
        "finally:\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
    assert sorted(os.listdir(out)) == ["candidate_000.json"]


def test_cli_import_loads_no_click_dataclasses_or_inspect():
    """The CLI needs only the standard library, and its cold start none of
    the heavy modules: ``import quarterwalks.cli`` in a fresh interpreter
    adds neither click nor dataclasses nor inspect to what a bare
    interpreter has loaded."""
    code = "import sys\n{}\nprint(' '.join(sorted(sys.modules)))\n"

    def loaded(statement):
        run = subprocess.run([sys.executable, "-c", code.format(statement)], env=_src_env(),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return set(run.stdout.split())

    bare, cli = loaded("pass"), loaded("import quarterwalks.cli")
    assert "quarterwalks.cli" in cli
    added = {name.split(".")[0] for name in cli - bare}
    assert not added & {"click", "dataclasses", "inspect"}, sorted(added)


_LOADED_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(' '.join(sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] == 'quarterwalks'))))\n"
)
_BASE = {"quarterwalks", "quarterwalks.cli", "quarterwalks.records"}


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import quarterwalks", {"quarterwalks"}),
        ("import quarterwalks.cli", _BASE),
        ("from quarterwalks.cli import main\n"
         "main(['guess', '--steps', 'E,W,NE,SW', '--bounds', 'ord_sn=1,ord_si=2,ord_sj=2',\n"
         "      '--out', 'cands'])",
         _BASE | {"quarterwalks.ore", "quarterwalks.walks", "quarterwalks.guess"}),
        ("from quarterwalks.cli import main\n"
         "main(['prove', '--steps', 'E,W,NE,SW', '--closed-form', 'gessel',\n"
         "      '--import-recurrence', 'pg.json', '--diag-limit', '40'])",
         _BASE | {"quarterwalks.ore", "quarterwalks.walks", "quarterwalks.exactmath",
                  "quarterwalks.eliminate", "quarterwalks.closedform"}),
    ],
    ids=["package", "cli", "guess", "prove-import"],
)
def test_commands_load_only_their_layers(tmp_path, statement, loaded):
    """Importing the package loads no submodule, importing the CLI only
    ``records``, and a command only the layers it calls: a guess never
    loads certification, elimination or the closed forms, and a proof
    from an imported recurrence never loads guessing or certification.
    Each case runs in a fresh interpreter and lists the modules at exit."""
    write_json(tmp_path / "pg.json", uni_to_json(PG))
    run = subprocess.run([sys.executable, "-c", _LOADED_AT_EXIT + statement], env=_src_env(),
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.splitlines()[-1].split()) == loaded


def test_layer_rebound_before_first_use_is_called(tmp_path):
    """A layer name read and rebound on the CLI module before any command
    has loaded its layer, as the benchmark's span tracing does, stays
    rebound: the command calls the replacement, and the rest of the layer's
    names are still bound to the layer's own functions."""
    code = (
        "import quarterwalks.cli as cli\n"
        "real = getattr(cli, 'nullspace')\n"
        "import quarterwalks.guess as guess\n"
        "assert real is guess.nullspace\n"
        "calls = []\n"
        "def traced(system):\n"
        "    calls.append(system)\n"
        "    return real(system)\n"
        "setattr(cli, 'nullspace', traced)\n"
        "cli.main(['guess', '--steps', 'E,W,NE,SW', '--bounds', 'ord_sn=1,ord_si=2,ord_sj=2',\n"
        "          '--out', 'cands'])\n"
        "assert cli.nullspace is traced and cli.assemble_system is guess.assemble_system\n"
        "print(len(calls))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_src_env(), cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "1"
    assert sorted(os.listdir(tmp_path / "cands")) == ["candidate_000.json"]


def test_unknown_cli_attribute_raises_attribute_error():
    import quarterwalks.cli as cli

    with pytest.raises(AttributeError, match="no_such_layer_name"):
        cli.no_such_layer_name


def test_closed_form_choices_are_the_built_in_closed_forms():
    # the parser names the choices itself, so that building it loads no closed form
    import quarterwalks.cli as cli

    assert cli._CLOSED_FORM_NAMES == tuple(sorted(CLOSED_FORMS))


def _module_run(args, cwd):
    """``python -m quarterwalks.cli`` as the benchmark starts it."""
    return subprocess.run([sys.executable, "-m", "quarterwalks.cli", *args], env=_src_env(),
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_module_entry_exit_codes_and_streams(tmp_path):
    # exit 0: the result on stdout, nothing on stderr
    run = _module_run(["count", "--steps", "W,S,NE", "--n", "6", "--i", "0", "--j", "0"], tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "16\n", "")
    # exit 1, a sound negative: progress and the verdict on stderr, no result
    run = _module_run(["guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
                       "--bounds", "deg_n=1,ord_sn=2", "--out", str(tmp_path / "none")], tmp_path)
    assert run.returncode == 1 and run.stdout == ""
    lines = run.stderr.splitlines()
    assert lines[0].startswith("template deg_n=1,ord_sn=2 (quasiholonomic): ")
    assert lines[-1] == "no candidates"
    # exit 2, an operational error: one error line on stderr
    run = _module_run(["count", "--steps", "X", "--n", "1", "--i", "0", "--j", "0"], tmp_path)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.splitlines() == ["error: unknown step token: 'X'"]


def _templates(r):
    return [line for line in r.output.splitlines() if line.startswith("template ")]


def test_bounds_repeats_and_defaults_only_when_never_given(tmp_path, monkeypatch):
    first, second = "ord_sn=1,ord_si=2,ord_sj=2", "deg_n=1,ord_sn=1,ord_si=1,ord_sj=1"
    r = run_cli(["guess", "--steps", "E,W,NE,SW", "--bounds", first, "--bounds", second,
                 "--out", str(tmp_path / "two")])
    assert r.exit_code == 0, r.output
    assert [line.split(" (")[0] for line in _templates(r)] == [
        f"template {first}", f"template {second}"
    ]
    payload = json.load(open(tmp_path / "two" / "candidate_000.json"))
    assert payload["meta"]["config"]["bounds"] == [first, second]
    # without --bounds only the default template runs; an empty kernel
    # keeps the run short
    monkeypatch.setattr("quarterwalks.cli.nullspace", lambda system: [])
    r = run_cli(["guess", "--steps", "W,S,NE", "--out", str(tmp_path / "default")])
    assert r.exit_code == 1
    assert [line.split(" (")[0] for line in _templates(r)] == [f"template {_DEFAULT_BOUNDS}"]


@pytest.mark.parametrize(
    "args",
    [
        _PROVE_K + ["--multiplier", "1"],
        ["guess", "--steps", "W,S,NE", "--sha", "full", "--out", "{tmp}"],
        ["eliminate", "--steps", "W,S,NE", "{op}", "--diag", "40"],
    ],
    ids=["prove-multiplier", "guess-sha", "eliminate-diag"],
)
def test_abbreviated_options_are_usage_errors(tmp_path, args):
    op = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    r = run_cli([a.format(tmp=tmp_path, op=op) for a in args])
    assert r.exit_code == 2
    assert "unrecognized arguments" in r.output
    assert not _templates(r) and "Traceback" not in r.output


def test_positionals_may_follow_options(tmp_path):
    # the second operator file comes after an option, and is still read
    good = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    bad = write_json(tmp_path / "bad.json", [1, 2])
    r = run_cli(["eliminate", "--steps", "E,W,NE,SW", good, "--diag-limit", "40", bad])
    assert _one_error_line(r) == f"error: expected a JSON object, not list (in {bad})"


@pytest.mark.parametrize(
    "args, option",
    [
        (["guess", "--steps", "W,S,NE", "--shape", "bogus", "--out", "{tmp}"], "--shape"),
        (_PROVE_K + ["--shape", "bogus"], "--shape"),
        (["prove", "--steps", "W,S,NE", "--closed-form", "bogus"], "--closed-form"),
        (["check-closed-form", "--closed-form", "bogus"], "--closed-form"),
    ],
    ids=["guess-shape", "prove-shape", "prove-closed-form", "check-closed-form"],
)
def test_bad_choices_are_usage_errors(tmp_path, args, option):
    r = run_cli([a.format(tmp=tmp_path) for a in args])
    assert r.exit_code == 2
    assert f"argument {option}: invalid choice: 'bogus'" in r.output
    assert "Traceback" not in r.output
