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
    Certificate,
    CountTable,
    KREWERAS,
    HypergeomTerm,
    UniOperator,
    operator_to_json,
    origin_sequence,
    trivial_operator,
    uni_from_json,
    uni_to_json,
    __version__,
)
from quarterwalks.cli import _DEFAULT_BOUNDS, _meta, parse_bounds
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
        # m = 0 compares only n = 0, where every term and count is 1
        pytest.param(["check-closed-form", "--closed-form", "gessel", "--m-max", "0"], "--m-max",
                     id="check-closed-form---m-max-0"),
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


@pytest.mark.parametrize(
    "args, bad",
    [
        (["count", "--steps", "W,S,NE", "--n", "５", "--i", "0", "--j", "0"], "５"),
        (["count", "--steps", "W,S,NE", "--n", "3", "--i", " 1", "--j", "0"], " 1"),
        (["eliminate", "--steps", "W,S,NE", "{op}", "--diag-limit", "1_0"], "1_0"),
        (_PROVE_K + ["--diag-limit", "1_0"], "1_0"),
        (["import-recurrence", "{rec}", "--steps", "W,S,NE", "--n-check", "40 "], "40 "),
        (["check-closed-form", "--closed-form", "kreweras", "--m-max", "+٣"], "+٣"),
    ],
    ids=["count-fullwidth", "count-space", "eliminate-separator", "prove-separator",
         "import-recurrence-space", "check-closed-form-arabic-indic"],
)
def test_integer_options_take_decimal_digits_only(tmp_path, args, bad):
    # int() takes every one of these
    op = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    rec = write_json(tmp_path / "rec.json", uni_to_json(PG))
    r = run_cli([a.format(op=op, rec=rec) for a in args])
    assert r.exit_code == 2
    assert "Traceback" not in r.output
    assert f"{bad!r} is not an integer" in r.stderr


@pytest.mark.parametrize("entry", ["1e3", "1_0", "1.5", " 3/2", "3/+2", "1/0"])
def test_import_refuses_a_bad_term_entry_in_one_line(tmp_path, entry):
    data = uni_to_json(PG)
    data["terms"][0]["num"][0] = entry
    del data["cleared"]
    rec = write_json(tmp_path / "rec.json", data)
    r = run_cli(["import-recurrence", rec, "--steps", "E,W,NE,SW", "--n-check", "40"])
    power = data["terms"][0]["power"]
    assert r.exit_code == 2
    assert r.stderr.startswith(f"error: term of power {power}: bad number (")
    assert r.stderr.count("\n") == 1


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
    assert p.first_failure(origin_sequence(KREWERAS, 200)) is None


def test_reports_record_every_option_in_their_header(tmp_path, kreweras_certified):
    """The ``meta.config`` header of a report names every option: the
    command's own as given, the rest at their defaults, and a bounds list
    of its own."""
    defaults = {"shape": "full", "bounds": [], "margin": 20, "multiplier_bound": None,
                "diag_limit": 500, "closed_form": None}
    t_file = write_json(tmp_path / "t.json", operator_to_json(kreweras_certified[0]))
    r = run_cli(["certify", "--steps", "W,S,NE", t_file])
    assert r.exit_code == 0, r.output
    assert json.loads(r.stdout)["meta"]["config"] == {**defaults, "steps": "W,S,NE"}

    paths = [write_json(tmp_path / f"op{k}.json", operator_to_json(op))
             for k, op in enumerate(kreweras_certified)]
    r = run_cli(["eliminate", "--steps", "W,S,NE", *paths, "--multiplier-bound", "1",
                 "--diag-limit", "200"])
    assert r.exit_code == 0, r.output
    config = json.loads(r.stdout)["meta"]["config"]
    assert config == {**defaults, "steps": "W,S,NE", "multiplier_bound": 1, "diag_limit": 200}

    rec = write_json(tmp_path / "pg.json", uni_to_json(PG))
    r = run_cli(["import-recurrence", rec, "--steps", "E,W,NE,SW", "--n-check", "60"])
    assert r.exit_code == 0, r.output
    assert json.loads(r.stdout)["meta"] == {
        "version": __version__, "config": {**defaults, "steps": "E,W,NE,SW", "diag_limit": 60},
    }

    bounds = ["ord_sn=1"]
    first, second = _meta("W,S,NE", bounds=bounds), _meta("W,S,NE", bounds=bounds)
    assert first == second and first["config"]["bounds"] == bounds
    assert first["config"]["bounds"] is not bounds
    assert first["config"]["bounds"] is not second["config"]["bounds"]


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


def test_large_root_import_reads_initial_values_from_the_origin_sequence(tmp_path, monkeypatch):
    # (n - 250) PG needs f(n; 0, 0) for n <= 252: within the checked
    # sequence at --diag-limit 300, past it at 100; no count table is
    # built or deepened at either limit
    scaled = UniOperator({k: ipoly_mul([-250, 1], c) for k, c in PG.cleared().items()})
    path = write_json(tmp_path / "scaled.json", uni_to_json(scaled))
    extend, extended = CountTable.extend, []

    def recording(table, n_max):
        extended.append(n_max)
        return extend(table, n_max)

    monkeypatch.setattr(CountTable, "extend", recording)
    for limit in ("300", "100"):
        report_path = tmp_path / f"report_{limit}.json"
        r = run_cli(
            ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
             "--import-recurrence", path, "--diag-limit", limit, "--out", str(report_path)],
        )
        assert r.exit_code == 0, r.output
        report = json.loads(report_path.read_text())
        assert report["status"] == "PROVED"
        assert report["verdict"] == {
            "status": "PROVED", "initial_values_checked": 253, "singular_bound": 250,
            "failing_index": None,
        }
    assert extended == []


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


def test_prove_with_every_candidate_refuted_exit_1(tmp_path, monkeypatch):
    # certification rebound on the CLI module to refute every candidate
    def refute(op, oracle):
        return Certificate(op, "refuted", [], [], (0, 0, 0), "refuted for the test")

    monkeypatch.setattr("quarterwalks.cli.certify_operator", refute)
    report_path = tmp_path / "report.json"
    r = run_cli(
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--bounds", "ord_sn=1,ord_si=2,ord_sj=2", "--diag-limit", "40",
         "--out", str(report_path)],
    )
    assert r.exit_code == 1
    report = json.load(open(report_path))
    assert report["status"] == "FAILED(no certified operators)"
    assert report["candidates"] >= 1 and report["certified"] == 0
    assert "recurrence" not in report and "verdict" not in report


def test_prove_closed_form_not_satisfying_the_recurrence_exit_1(tmp_path):
    # the Kreweras recurrence holds on the Kreweras counts, so the import
    # is accepted, but the Gessel closed form does not satisfy it
    kreweras = UniOperator(
        {3: ipoly_mul([6, 1], [9, 2]), 0: ipoly_scale(ipoly_mul([1, 1], [2, 1]), -54)}
    )
    path = write_json(tmp_path / "pk.json", uni_to_json(kreweras))
    report_path = tmp_path / "report.json"
    r = run_cli(["prove", "--steps", "W,S,NE", "--closed-form", "gessel",
                 "--import-recurrence", path, "--diag-limit", "60", "--out", str(report_path)])
    assert r.exit_code == 1
    report = json.load(open(report_path))
    assert report["oracle_check"] == {"n_checked": 60, "ok": True, "failing_n": None}
    assert report["status"] == "FAILED(symbolic-recurrence)"
    assert report["verdict"]["status"] == "FAILED(symbolic-recurrence)"


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
    assert (
        "error: f(n; 0, 0) to n = 10 checks the order-12 recurrence on fewer than two windows; "
        "need n >= 13"
    ) in r.output
    assert not report_path.exists()


def test_import_recurrence_order_not_below_n_check_exit_2(tmp_path):
    rec = UniOperator({12: [1], 0: [-1]})
    path = write_json(tmp_path / "ord12.json", uni_to_json(rec))
    out_path = tmp_path / "out.json"
    r = run_cli(
        ["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "12",
         "--out", str(out_path)],
    )
    assert _one_error_line(r) == (
        "error: f(n; 0, 0) to n = 12 checks the order-12 recurrence on fewer than two windows; "
        "need n >= 13"
    )
    assert not out_path.exists()


_KREWERAS_CANDIDATES = [
    os.path.join(os.path.dirname(__file__), "golden", "kreweras-guess", "files", "candidates",
                 f"candidate_{k:03d}.json")
    for k in range(3)
]


_KREWERAS_DIAG_6 = (
    "error: f(n; 0, 0) to n = 6 checks the order-6 recurrence on fewer than two windows; "
    "need n >= 7"
)


def test_every_branch_demands_two_windows_of_the_recurrence(tmp_path):
    """The candidates of the default Kreweras bounds eliminate to an
    order-6 P.  The origin sequence to --diag-limit 6 checks it on one
    window only, n = 0: ``eliminate``, both branches of ``prove`` and
    ``import-recurrence`` refuse that horizon with one message, and all
    of them proceed at 7."""
    rec = tmp_path / "p.json"
    eliminate = ["eliminate", "--steps", "W,S,NE", *_KREWERAS_CANDIDATES, "--out", str(rec)]
    r = run_cli(eliminate + ["--diag-limit", "6"])
    assert _one_error_line(r) == _KREWERAS_DIAG_6
    assert not rec.exists()
    assert run_cli(eliminate + ["--diag-limit", "7"]).exit_code == 0
    assert uni_from_json(json.load(open(rec))["operator"]).order() == 6
    for branch in ([], ["--import-recurrence", str(rec)]):
        report = tmp_path / "report.json"
        prove = _PROVE_K + branch + ["--out", str(report)]
        assert _one_error_line(run_cli(prove + ["--diag-limit", "6"])) == _KREWERAS_DIAG_6
        assert not report.exists()
        r = run_cli(prove + ["--diag-limit", "7"])
        assert r.exit_code == 0, r.output
        assert json.load(open(report))["status"] == "PROVED"
        report.unlink()
    check = ["import-recurrence", str(rec), "--steps", "W,S,NE", "--n-check"]
    assert _one_error_line(run_cli(check + ["6"])) == _KREWERAS_DIAG_6
    assert run_cli(check + ["7"]).exit_code == 0


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
    # both commands that read a recurrence parse --steps before the file
    "import-recurrence-bad-steps-missing-file": (
        ["import-recurrence", "{tmp}/missing.json", "--steps", "X"], None,
        "error: unknown step token: 'X'",
    ),
    "prove-import-bad-steps-missing-file": (
        ["prove", "--steps", "X", "--closed-form", "gessel",
         "--import-recurrence", "{tmp}/missing.json"], None, "error: unknown step token: 'X'",
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
    interpreter has loaded, nor glob, which only ``guess`` uses."""
    code = "import sys\n{}\nprint(' '.join(sorted(sys.modules)))\n"

    def loaded(statement):
        run = subprocess.run([sys.executable, "-c", code.format(statement)], env=_src_env(),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return set(run.stdout.split())

    bare, cli = loaded("pass"), loaded("import quarterwalks.cli")
    assert "quarterwalks.cli" in cli
    added = {name.split(".")[0] for name in cli - bare}
    assert not added & {"click", "dataclasses", "inspect", "glob"}, sorted(added)


_LOADED_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(' '.join(sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] == 'quarterwalks'))))\n"
)
_BASE = {"quarterwalks", "quarterwalks.cli", "quarterwalks.records"}
# the transfer operator's file, which the statement writes itself, so that
# the fresh interpreter loads no layer to make it
_GESSEL_T_FILE = json.dumps(operator_to_json(trivial_operator(GESSEL)))


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
         _BASE | {"quarterwalks.walks", "quarterwalks.exactmath", "quarterwalks.closedform"}),
        ("from quarterwalks.cli import main\n"
         "main(['import-recurrence', 'pg.json', '--steps', 'E,W,NE,SW', '--n-check', '40'])",
         _BASE | {"quarterwalks.walks", "quarterwalks.exactmath"}),
        ("from quarterwalks.cli import main\n"
         "main(['check-closed-form', '--closed-form', 'gessel', '--m-max', '5'])",
         _BASE | {"quarterwalks.walks", "quarterwalks.exactmath", "quarterwalks.closedform"}),
        (f"open('t.json', 'w').write({_GESSEL_T_FILE!r})\n"
         "from quarterwalks.cli import main\n"
         "try:\n"
         "    main(['eliminate', '--steps', 'E,W,NE,SW', 't.json', '--diag-limit', '40'])\n"
         "except SystemExit as e:\n"
         "    assert e.code == 1  # T alone leaves no shift-free combination\n",
         _BASE | {"quarterwalks.ore", "quarterwalks.walks", "quarterwalks.exactmath",
                  "quarterwalks.eliminate"}),
    ],
    ids=["package", "cli", "guess", "prove-import", "import-recurrence", "check-closed-form",
         "eliminate"],
)
def test_commands_load_only_their_layers(tmp_path, statement, loaded):
    """Importing the package loads no submodule, importing the CLI only
    ``records``, and a command only the layers it calls: a guess never
    loads certification, elimination or the closed forms, and a proof
    from an imported recurrence, like the commands that import or check a
    recurrence, loads neither the operator algebra nor guessing,
    certification or elimination.  Each case runs in a fresh interpreter
    and lists the modules at exit."""
    write_json(tmp_path / "pg.json", uni_to_json(PG))
    run = subprocess.run([sys.executable, "-c", _LOADED_AT_EXIT + statement], env=_src_env(),
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.splitlines()[-1].split()) == loaded


def test_moved_names_are_reexported_as_the_same_objects():
    # the recurrence left eliminate, and json_int left ore; both modules
    # still use them, so callers that import them there (the benchmark's
    # tracing wraps eliminate.UniOperator) see the same objects
    from quarterwalks import eliminate, exactmath, ore, records

    assert eliminate.UniOperator is exactmath.UniOperator
    assert ore.json_int is records.json_int


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


def test_every_package_export_reads_through_the_cli():
    """Each of the package's exports read from the CLI module in a fresh
    interpreter, before any command has run, is the package's own object."""
    code = (
        "import quarterwalks, quarterwalks.cli as cli\n"
        "names = quarterwalks.__all__\n"
        "through_cli = [getattr(cli, name) for name in names]\n"
        "print(len(names), [n for n, v in zip(names, through_cli)\n"
        "                   if v is not getattr(quarterwalks, n)])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "49 []"


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


def _entry_run(args, cwd, code=None):
    """The command line in a fresh process, as ``python -m quarterwalks.cli``
    or, given ``code``, as ``python -c code``, with stdout and stderr piped
    and PYTHONUNBUFFERED removed, so that output the entry fails to flush
    is lost."""
    env = {k: v for k, v in _src_env().items() if k != "PYTHONUNBUFFERED"}
    env["COLUMNS"] = "80"
    head = ["-m", "quarterwalks.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_entry_flushes_a_large_result_to_a_pipe(tmp_path):
    run = _entry_run(["table", "--steps", "W,S,NE", "--n-max", "30"], tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert len(run.stdout) > 8192  # more than the stream's buffer holds
    assert run.stdout.endswith("}\n")  # the newline print adds last
    table = json.loads(run.stdout)
    assert table["nMax"] == 30 and len(table["levels"]) == 31


@pytest.mark.parametrize(
    "args, code",
    [(["--help"], 0), (["prove", "--help"], 0), (["--bogus"], 2), (["count", "--bogus"], 2),
     (["prove", "--steps", "W,S,NE"], 2)],
    ids=["help", "command-help", "top-level-option", "command-option", "missing-option"],
)
def test_entry_usage_output_is_the_parsers(tmp_path, monkeypatch, args, code):
    # the whole help text, or argparse's usage and error lines, exactly as
    # the parser writes them in-process
    monkeypatch.setenv("COLUMNS", "80")
    want = run_cli(args)
    run = _entry_run(args, tmp_path)
    assert run.returncode == want.exit_code == code
    if code == 0:
        assert (run.stdout, run.stderr) == (want.stdout, "")
        assert run.stdout.startswith("usage: quarterwalks")
    else:
        assert (run.stdout, run.stderr) == ("", want.output)
        assert run.stderr.splitlines()[-1].startswith("quarterwalks")
        assert ": error: " in run.stderr.splitlines()[-1]


def test_entry_prove_writes_the_whole_report(tmp_path):
    rec = write_json(tmp_path / "pg.json", uni_to_json(PG))
    out = str(tmp_path / "report.json")
    run = _entry_run(["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
                      "--import-recurrence", rec, "--diag-limit", "40", "--out", out], tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, out + "\n", "")
    with open(out) as fh:
        text = fh.read()
    assert text.endswith("}\n")
    assert json.loads(text)["status"] == "PROVED"


def test_entry_runs_atexit_handlers(tmp_path):
    # a handler registered before the module runs as __main__, as a tool
    # that wraps the CLI would register it, runs once, after the output
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv[0] = 'quarterwalks'\n"
        "runpy.run_module('quarterwalks.cli', run_name='__main__')\n"
    )
    run = _entry_run(["count", "--steps", "W,S,NE", "--n", "6", "--i", "0", "--j", "0"],
                     tmp_path, code)
    assert (run.returncode, run.stdout, run.stderr) == (0, "16\nhandler ran\n", "")


def _console_script():
    """``module:function`` of the ``quarterwalks`` script in pyproject.toml."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        line = next(line for line in fh if line.startswith("quarterwalks = "))
    return line.split("=", 1)[1].strip().strip('"').split(":")


def test_console_script_matches_module_entry(tmp_path):
    # the wrapper that pip writes for the script: sys.exit(function())
    module, function = _console_script()
    code = f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"
    cases = [
        ["count", "--steps", "W,S,NE", "--n", "6", "--i", "0", "--j", "0"],
        ["guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
         "--bounds", "deg_n=1,ord_sn=2", "--out", str(tmp_path / "none")],
        ["count", "--steps", "X", "--n", "1", "--i", "0", "--j", "0"],
    ]
    for args, code_want in zip(cases, (0, 1, 2)):
        script, module_run = _entry_run(args, tmp_path, code), _entry_run(args, tmp_path)
        assert script.returncode == module_run.returncode == code_want
        assert (script.stdout, script.stderr) == (module_run.stdout, module_run.stderr)


@pytest.mark.parametrize("value", ["None", "0", "1", "3", "True", "'stopped'", "[1, 2]"])
def test_entry_exit_code_is_the_interpreters(tmp_path, value):
    # whatever SystemExit carries, the process ends as the interpreter
    # itself would end it: same code, same stderr
    plain = _entry_run([], tmp_path, f"import sys\nsys.exit({value})\n")
    code = (
        "import sys\n"
        "import quarterwalks.cli as cli\n"
        f"cli.main = lambda: sys.exit({value})\n"
        "cli.run_and_exit()\n"
    )
    entry = _entry_run([], tmp_path, code)
    assert (entry.returncode, entry.stdout, entry.stderr) == (
        plain.returncode, plain.stdout, plain.stderr
    )


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
