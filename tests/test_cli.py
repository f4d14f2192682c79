import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from quarterwalks import (
    GESSEL,
    UniOperator,
    operator_to_json,
    trivial_operator,
    uni_to_json,
)
from quarterwalks.cli import main, parse_bounds
from quarterwalks.exactmath import ipoly_mul, ipoly_scale
from quarterwalks.guess import Bounds


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


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


def test_count_values(runner):
    r = invoke(runner, ["count", "--steps", "E,W,NE,SW", "--n", "4", "--i", "0", "--j", "0"])
    assert r.exit_code == 0 and r.output.strip() == "11"
    r = invoke(runner, ["count", "--steps", "W,S,NE", "--n", "6", "--i", "0", "--j", "0"])
    assert r.exit_code == 0 and r.output.strip() == "16"
    r = invoke(runner, ["count", "--steps", "E,W,NE,SW", "--n", "3", "--i", "0", "--j", "0"])
    assert r.exit_code == 0 and r.output.strip() == "0"
    # negative coordinates stay legal and count no walks
    for n, i, j in ((-1, 0, 0), (4, -2, 0), (4, 0, -1)):
        coords = ["--n", str(n), "--i", str(i), "--j", str(j)]
        r = invoke(runner, ["count", "--steps", "W,S,NE", *coords])
        assert r.exit_code == 0 and r.output.strip() == "0"


def test_count_bad_steps_exits_2(runner):
    r = runner.invoke(main, ["count", "--steps", "X", "--n", "1", "--i", "0", "--j", "0"])
    assert r.exit_code == 2


def test_table_prints_json(runner):
    r = invoke(runner, ["table", "--steps", "W,S,NE", "--n-max", "6"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["steps"] == "W,S,NE" and data["nMax"] == 6
    assert data["levels"][6][0][0] == "16"


def test_removed_cache_option_exit_2(runner, tmp_path):
    r = runner.invoke(main, ["--cache-dir", str(tmp_path), "count", "--steps", "W,S,NE",
                             "--n", "3", "--i", "0", "--j", "0"])
    assert r.exit_code == 2
    assert "No such option" in r.output


@pytest.mark.parametrize(
    "args",
    [
        ["guess", "--steps", "W,S,NE", "--n-max", "5", "--out", "{tmp}"],
        ["eliminate", "--steps", "W,S,NE", "{op}", "--truncation", "1"],
        ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras", "--retry-cap", "0"],
    ],
    ids=["guess-n-max", "eliminate-truncation", "prove-retry-cap"],
)
def test_removed_sizing_options_exit_2(runner, tmp_path, args):
    # the count table sizes itself on read, and elimination keeps every component
    op = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    r = runner.invoke(main, [a.format(tmp=tmp_path, op=op) for a in args])
    assert r.exit_code == 2
    assert "No such option" in r.output


_PROVE_K = ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras"]


@pytest.mark.parametrize(
    "args, option",
    [
        (["guess", "--steps", "W,S,NE", "--margin", "-500", "--out", "{tmp}"], "--margin"),
        (_PROVE_K + ["--margin", "-1"], "--margin"),
        (_PROVE_K + ["--certify-margin", "-1"], "--certify-margin"),
        (["certify", "--steps", "W,S,NE", "{op}", "--margin", "-1"], "--margin"),
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
def test_negative_counts_are_usage_errors(runner, tmp_path, args, option):
    op = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    rec = write_json(tmp_path / "rec.json", uni_to_json(PG))
    r = runner.invoke(main, [a.format(tmp=tmp_path, op=op, rec=rec) for a in args])
    assert r.exit_code == 2
    assert "Traceback" not in r.output
    assert option in r.output


def test_guess_trivial_support_recovers_t(runner, tmp_path):
    out = tmp_path / "cands"
    r = invoke(
        runner,
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


def test_guess_outputs_deterministic(runner, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        r = invoke(
            runner,
            ["guess", "--steps", "E,W,NE,SW", "--bounds", "ord_sn=1,ord_si=2,ord_sj=2",
             "--out", str(out)],
        )
        assert r.exit_code == 0
        outs.append({f: open(out / f, "rb").read() for f in sorted(os.listdir(out))})
    assert outs[0] == outs[1]


def test_guess_negative_quasiholonomic_exit_1(runner, tmp_path):
    r = runner.invoke(
        main,
        ["guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
         "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=2,ord_si=2,ord_sj=2,total=2",
         "--out", str(tmp_path / "none")],
    )
    assert r.exit_code == 1


def test_guess_negative_pure_sn_quasiholonomic(runner, tmp_path):
    # no low-order recurrence in n alone annihilates the whole array
    r = runner.invoke(
        main,
        ["guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
         "--bounds", "deg_n=1,ord_sn=2", "--out", str(tmp_path / "none")],
    )
    assert r.exit_code == 1
    assert "no candidates" in r.output


def test_guess_malformed_steps_exit_2(runner, tmp_path):
    r = runner.invoke(
        main, ["guess", "--steps", "E,,Q", "--bounds", "ord_sn=1", "--out", str(tmp_path)]
    )
    assert r.exit_code == 2


def test_certify_trivial_and_refuted(runner, tmp_path):
    t = trivial_operator(GESSEL)
    t_file = write_json(tmp_path / "t.json", operator_to_json(t))
    r = invoke(runner, ["certify", "--steps", "E,W,NE,SW", t_file])
    assert r.exit_code == 0
    assert '"verdict": "certified"' in r.output

    bad_file = write_json(tmp_path / "bad.json", operator_to_json(t + 1))
    r = runner.invoke(main, ["certify", "--steps", "E,W,NE,SW", bad_file])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["verdict"] == "refuted"
    assert report["counterexample"] == [0, 0, 0]


def test_certify_writes_certificate_file(runner, tmp_path):
    t = trivial_operator(GESSEL)
    t_file = write_json(tmp_path / "t.json", operator_to_json(t))
    out = str(tmp_path / "cert.json")
    r = invoke(runner, ["certify", "--steps", "E,W,NE,SW", t_file, "--out", out])
    assert r.exit_code == 0
    cert = json.load(open(out))
    assert cert["verdict"] == "certified"
    assert cert["chain"] == [{"vars": ["n", "i", "j"], "shifts": ["Sn", "Si", "Sj"], "terms": []}]
    assert cert["base_checks"][0]["all_zero"] is True
    assert cert["meta"]["config"]["certify_margin"] == 2


def test_certify_malformed_rational_exit_2(runner, tmp_path):
    data = operator_to_json(trivial_operator(GESSEL))
    data["terms"][0]["coeff"][0]["num"] = "not-a-number"
    path = write_json(tmp_path / "m.json", data)
    r = runner.invoke(main, ["certify", "--steps", "E,W,NE,SW", path])
    assert r.exit_code == 2


def test_eliminate_t_alone_fails_exit_1(runner, tmp_path):
    t_file = write_json(tmp_path / "t.json", operator_to_json(trivial_operator(GESSEL)))
    r = runner.invoke(
        main, ["eliminate", "--steps", "E,W,NE,SW", t_file, "--diag-limit", "40"]
    )
    assert r.exit_code == 1
    assert "elimination failed" in r.output


def test_import_recurrence_valid(runner, tmp_path):
    path = write_json(tmp_path / "pg.json", uni_to_json(PG))
    r = invoke(runner, ["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "60"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["operator"] == uni_to_json(PG)


def test_import_recurrence_rejected_exit_1(runner, tmp_path):
    wrong = UniOperator({2: [40, 22, 3], 0: [-80, -128, -47]})
    path = write_json(tmp_path / "wrong.json", uni_to_json(wrong))
    r = runner.invoke(main, ["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "60"])
    assert r.exit_code == 1
    assert "rejected: fails sequence check at n=" in r.output


def test_import_recurrence_clears_rational_terms(runner, tmp_path):
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
    r = invoke(runner, ["import-recurrence", path, "--steps", "E,W,NE,SW", "--n-check", "60"])
    assert r.exit_code == 0
    assert json.loads(r.output)["operator"] == uni_to_json(PG)


@pytest.mark.parametrize(
    "num, den",
    [(["1"], ["0"]), (["1/0"], ["1"]), (["one"], ["1"])],
    ids=["zero-den", "div-by-zero", "not-a-number"],
)
def test_recurrence_with_bad_numbers_exit_2_one_line(runner, tmp_path, num, den):
    data = uni_to_json(PG)
    data["terms"][1].update(num=num, den=den)
    path = write_json(tmp_path / "bad.json", data)
    for args in (
        ["import-recurrence", path, "--steps", "E,W,NE,SW"],
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", path, "--diag-limit", "40"],
    ):
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert "Traceback" not in r.output
        lines = r.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: term of power 2"), r.output


def test_import_recurrence_truncated_json_exit_2(runner, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"var": "n", "shift": "Sn", "terms": [')
    r = runner.invoke(main, ["import-recurrence", str(path), "--steps", "E,W,NE,SW"])
    assert r.exit_code == 2


def test_check_closed_form(runner):
    for which in ("gessel", "kreweras"):
        r = invoke(runner, ["check-closed-form", "--closed-form", which, "--m-max", "8"])
        assert r.exit_code == 0
        assert "OK" in r.output


def test_prove_gessel_with_import(runner, tmp_path):
    path = write_json(tmp_path / "pg.json", uni_to_json(PG))
    report_path = str(tmp_path / "report.json")
    r = invoke(
        runner,
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


def test_prove_gessel_without_import_is_sound_negative(runner, tmp_path):
    # desk-scale bounds cannot crack the Gessel elimination; the command
    # must fail soundly (exit 1) rather than claim success
    report_path = str(tmp_path / "report.json")
    r = runner.invoke(
        main,
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--bounds", "ord_sn=1,ord_si=2,ord_sj=2", "--diag-limit", "40",
         "--out", report_path],
    )
    assert r.exit_code == 1
    report = json.load(open(report_path))
    assert report["status"].startswith("FAILED")


def test_prove_import_order_not_below_diag_limit_exit_2(runner, tmp_path):
    # an order-12 recurrence leaves no window to check in 10 terms
    rec = UniOperator({12: [1], 0: [-1]})
    path = write_json(tmp_path / "ord12.json", uni_to_json(rec))
    report_path = tmp_path / "report.json"
    r = runner.invoke(
        main,
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", path, "--diag-limit", "10", "--out", str(report_path)],
    )
    assert r.exit_code == 2
    assert "n-check must exceed the recurrence order" in r.output
    assert not report_path.exists()


def test_prove_import_malformed_file_exit_2(runner, tmp_path):
    path = write_json(tmp_path / "list.json", [1, 2])
    r = runner.invoke(
        main,
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", path, "--diag-limit", "40"],
    )
    assert r.exit_code == 2
    assert "error: AttributeError" in r.output


def test_unexpected_exception_exits_2(runner, tmp_path, monkeypatch):
    def broken(system):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr("quarterwalks.cli.nullspace", broken)
    r = runner.invoke(
        main,
        ["guess", "--steps", "E,W,NE,SW", "--bounds", "ord_sn=1,ord_si=2,ord_sj=2",
         "--out", str(tmp_path / "cands")],
    )
    assert r.exit_code == 2
    assert "error: RuntimeError: solver blew up" in r.output


def test_cli_import_leaves_numpy_unloaded():
    """numpy is loaded by the first kernel solve, not by importing the CLI."""
    import quarterwalks

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(quarterwalks.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, quarterwalks.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
