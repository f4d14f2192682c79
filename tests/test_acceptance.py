"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest -s tests/test_acceptance.py  to see the lines live.
"""

import json
import random
import time
from fractions import Fraction

from conftest import run_cli

from quarterwalks import (
    Bounds,
    Box,
    GESSEL,
    KREWERAS,
    OreOperator,
    UniOperator,
    CountTable,
    build_template,
    certify_operator,
    div_rem,
    evidence_check,
    filter_candidates,
    guess_operators,
    hypergeom_term,
    nullspace,
    assemble_system,
    plan_points,
    prove_equality,
    reduce_mod_ij,
    template_from_support,
    trivial_operator,
    uni_to_json,
)
from quarterwalks.certify import REFUTED
from quarterwalks.exactmath import ipoly_mul, ipoly_scale

from naive_oracles import Applied, brute_force_counts, fraction_apply_at
from test_eliminate import vector_as_ore
from test_ore import PolynomialOracle, random_operator, random_point


class criterion:
    """Context manager printing the per-criterion verdict line."""

    def __init__(self, num, desc, limit_s):
        self.num, self.desc, self.limit = num, desc, limit_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num}: {status} ({dt:.1f}s) - {self.desc}")
        if exc_type is None:
            assert dt < self.limit, f"criterion {self.num} exceeded {self.limit}s"
        return False


def test_criterion_1_gessel_closed_form_vs_enumeration():
    with criterion(1, "Gessel closed form equals enumeration; odd lengths vanish", 10):
        oracle = CountTable(GESSEL, 42)
        closed = hypergeom_term("gessel").sequence(40)
        for m in range(21):
            assert oracle.value(2 * m, 0, 0) == closed[2 * m]
        for n in range(1, 42, 2):
            assert oracle.value(n, 0, 0) == 0


def test_criterion_2_kreweras_closed_form():
    with criterion(2, "Kreweras closed form equals enumeration; off-support vanishes", 10):
        oracle = CountTable(KREWERAS, 40)
        closed = hypergeom_term("kreweras").sequence(39)
        for m in range(14):
            assert oracle.value(3 * m, 0, 0) == closed[3 * m]
        for n in range(40):
            if n % 3:
                assert oracle.value(n, 0, 0) == 0


def test_criterion_3_brute_force_equivalence():
    with criterion(3, "dynamic program equals all-sequences enumeration, n <= 8", 60):
        for step_set in (GESSEL, KREWERAS):
            table = CountTable(step_set, 8)
            steps = step_set.sorted_steps()
            for n in range(9):
                expected = brute_force_counts(steps, n)
                for i in range(n + 1):
                    for j in range(n + 1):
                        assert table.value(n, i, j) == expected.get((i, j), 0)
                assert sum(expected.values()) == sum(
                    table.value(n, i, j) for i in range(n + 1) for j in range(n + 1)
                )


def test_criterion_4_certification_soundness():
    with criterion(4, "certify T, n*T, Sn*T; refute T+1 at (0,0,0); evidence sweeps", 60):
        n_poly = OreOperator.variable("n")
        sn = OreOperator.shift("Sn")
        box = Box((1, 15), (0, 10), (0, 10))
        for step_set in (GESSEL, KREWERAS):
            oracle = CountTable(step_set, 20)
            t = trivial_operator(step_set)
            certified_ops = [t, n_poly * t, sn * t]
            for op in certified_ops:
                cert = certify_operator(op, t, oracle)
                assert cert.certified
                assert evidence_check(op, oracle, box)
            cert = certify_operator(t + 1, t, oracle)
            assert cert.verdict == REFUTED
            assert cert.counterexample == (0, 0, 0)


def test_criterion_5_guessing_recovers_trivial_operator():
    with criterion(5, "kernel over >= 30 points contains T's vector; filter keeps it", 60):
        oracle = CountTable(GESSEL, 30)
        t = trivial_operator(GESSEL)
        support = tuple(sorted(t.terms))
        t_vector = tuple(t.terms[s] for s in support)
        template = template_from_support(support)
        plan = plan_points(template, margin=25)
        assert len(plan.points) >= 30
        basis = nullspace(assemble_system(template, oracle, plan.points))
        assert basis, "kernel must contain the transfer operator"

        def in_span(vec):
            k = next(idx for idx, x in enumerate(t_vector) if x)
            scale = vec[k] / t_vector[k]
            return scale != 0 and all(a == scale * b for a, b in zip(vec, t_vector))

        assert any(in_span(v) for v in basis)
        kept = filter_candidates(basis, template, oracle, plan.fresh_points)
        assert t.normalized() in kept


def test_criterion_6_scaled_negative_result(tmp_path):
    with criterion(6, "quasi-holonomic Gessel search (ord<=2, deg<=2) finds nothing", 600):
        result = run_cli(
            [
                "guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
                "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=2,ord_si=2,ord_sj=2,total=2",
                "--out", str(tmp_path / "candidates"),
            ],
        )
        assert result.exit_code == 1, result.output
        # belt and braces: the library path agrees, and nothing certifies
        oracle = CountTable(GESSEL, 45)
        template = build_template(
            Bounds(2, 2, 2, 2, 2, 2, total_poly_deg=2), "quasiholonomic"
        )
        assert guess_operators(template, oracle) == []


def test_criterion_7_kreweras_end_to_end_proof(tmp_path):
    with criterion(7, "cmdProve Kreweras: guess, certify, eliminate, match closed form", 3600):
        report_path = str(tmp_path / "report.json")
        result = run_cli(
            ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras",
             "--diag-limit", "500", "--out", report_path],
        )
        assert result.exit_code == 0, result.output
        report = json.load(open(report_path))
        assert report["status"] == "PROVED"
        assert report["verdict"]["status"] == "PROVED"
        assert report["recurrence_source"] == "pipeline"
        assert report["reverified_to_n"] == 500
        assert report["certified"] >= 1
        # the emitted recurrence is genuinely univariate and nontrivial
        assert report["recurrence"]["shift"] == "Sn"
        assert len(report["recurrence"]["terms"]) >= 2


GESSEL_DIAGONAL_RECURRENCE = UniOperator(
    {
        2: ipoly_mul([10, 3], [4, 1]),
        0: ipoly_scale(ipoly_mul([5, 3], [1, 1]), -16),
    }
)


def test_criterion_8_gessel_import_path(tmp_path):
    with criterion(8, "external Gessel recurrence imports + proves the abstract's term", 60):
        # (a) an externally supplied recurrence file is validated and then
        # carries the equality proof
        rec_path = tmp_path / "gessel_rec.json"
        rec_path.write_text(json.dumps(uni_to_json(GESSEL_DIAGONAL_RECURRENCE)))
        result = run_cli(
            ["import-recurrence", str(rec_path), "--steps", "E,W,NE,SW", "--n-check", "100"],
        )
        assert result.exit_code == 0, result.output
        report_path = str(tmp_path / "report.json")
        result = run_cli(
            ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
             "--import-recurrence", str(rec_path), "--diag-limit", "100",
             "--out", report_path],
        )
        assert result.exit_code == 0, result.output
        assert json.load(open(report_path))["status"] == "PROVED"
        # (b) the term the proof uses is the abstract's
        # 16^n (5/6)_n (1/2)_n / ((5/3)_n (2)_n) on even lengths
        term = hypergeom_term("gessel")
        assert (term.factor, term.upper, term.lower) == (
            16, (Fraction(5, 6), Fraction(1, 2)), (Fraction(5, 3), 2)
        )
        assert (term.period, term.residue) == (2, 0)
        oracle = CountTable(GESSEL, 8)
        verdict = prove_equality(GESSEL_DIAGONAL_RECURRENCE, term, oracle)
        assert verdict.proved


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites (100+ instances each)", 300):
        rng = random.Random(2024)
        t = trivial_operator(GESSEL)
        lm = t.leading_monomial()

        # division round-trip
        for _ in range(100):
            x = random_operator(rng, max_terms=4, max_shift=3)
            u, v = div_rem(x, t)
            assert u * t + v == x
            for exp in v.support():
                assert not all(exp[k] >= lm[k] for k in range(3))

        # commutation identities, including x (S_x - 1) = (S_x - 1)(x - 1) - 1
        from test_exactmath import random_poly

        names = (("n", "Sn"), ("i", "Si"), ("j", "Sj"))
        for var, shift in names:
            x = OreOperator.variable(var)
            s = OreOperator.shift(shift)
            assert x * (s - 1) == (s - 1) * (x - 1) - 1
        # S_x^e p against the reference application S_x^e (p f)
        oracle = PolynomialOracle()
        for _ in range(100):
            p = random_poly(rng)
            s = OreOperator.shift(names[rng.randrange(3)][1], rng.randint(0, 3))
            pt = random_point(rng)
            want = fraction_apply_at(s.terms, Applied(p.terms, oracle), *pt)
            assert (s * p).apply_at(oracle, *pt) == want

        # reduction is a module map over Q(n)[S_n] (integer coefficients,
        # so reduce_mod_ij scales nothing)
        for _ in range(100):
            r = random_operator(rng, max_terms=4)
            e = rng.randint(0, 2)
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
            if not any(coeffs):
                coeffs = [1]
            as_ore = OreOperator({(k, 0, 0, e, 0, 0): v for k, v in enumerate(coeffs)})
            assert reduce_mod_ij(as_ore * r) == reduce_mod_ij(
                as_ore * vector_as_ore(reduce_mod_ij(r))
            )

        # left-multiple degeneracy
        i_poly = OreOperator.variable("i")
        j_poly = OreOperator.variable("j")
        for _ in range(100):
            r = random_operator(rng, max_terms=4)
            assert reduce_mod_ij(i_poly * r) == {}
            assert reduce_mod_ij(j_poly * r) == {}
