import random

import pytest

from quarterwalks import (
    Box,
    CountTable,
    GESSEL,
    KREWERAS,
    MultiPoly,
    OreOperator,
    certify_operator,
    check_base_cases,
    evidence_check,
    trivial_operator,
)
from quarterwalks.certify import CERTIFIED, REFUTED

N = MultiPoly.variable("n")
I = MultiPoly.variable("i")
J = MultiPoly.variable("j")
T = trivial_operator(GESSEL)
SN = OreOperator.shift("Sn")


def test_certify_trivial_operator(gessel_oracle):
    cert = certify_operator(T, T, gessel_oracle)
    assert cert.verdict == CERTIFIED
    assert cert.chain == [OreOperator.zero()]
    assert all(b.all_zero for b in cert.base_checks)


def test_certify_left_multiples(gessel_oracle):
    for x in (SN, OreOperator.from_poly(N)):
        cert = certify_operator(x * T, T, gessel_oracle)
        assert cert.certified


def test_refute_t_plus_one(gessel_oracle):
    cert = certify_operator(T + 1, T, gessel_oracle)
    assert cert.verdict == REFUTED
    assert cert.counterexample == (0, 0, 0)
    # the reported point is re-checkable by direct application
    assert (T + 1).apply_at(gessel_oracle, *cert.counterexample) != 0


def test_certify_kreweras_family(kreweras_oracle):
    tk = trivial_operator(KREWERAS)
    assert certify_operator(tk, tk, kreweras_oracle).certified
    assert certify_operator(tk + 1, tk, kreweras_oracle).verdict == REFUTED


def test_zero_operator_rejected(gessel_oracle):
    with pytest.raises(ValueError):
        certify_operator(OreOperator.zero(), T, gessel_oracle)


def test_base_cases_examples(gessel_oracle):
    ok, point = check_base_cases(T, gessel_oracle)
    assert ok and point is None
    ok, point = check_base_cases(OreOperator.one(), gessel_oracle)
    assert not ok and point == (0, 0, 0)


def test_base_cases_axis_factor(gessel_oracle):
    w = OreOperator({(1, 0, 0): I * J})
    # the factor i*j kills the axes ...
    for k in range(4):
        assert w.apply_at(gessel_oracle, 0, k, 0) == 0
        assert w.apply_at(gessel_oracle, 0, 0, k) == 0
    # ... but f(1; 1, 1) = 1 shows up off the axes
    ok, point = check_base_cases(w, gessel_oracle)
    assert not ok and point == (0, 1, 1)


def test_constant_coefficient_remainder_is_zero(gessel_oracle):
    rng = random.Random(61)
    from quarterwalks.ore import div_rem

    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            shift = tuple(rng.randint(0, 2) for _ in range(3))
            c = rng.randint(-5, 5)
            if c:
                terms[shift] = terms.get(shift, MultiPoly.zero()) + MultiPoly.const(c)
        w = OreOperator(terms)
        if w.is_zero():
            continue
        _, v = div_rem(T * w, T)
        assert v.is_zero()


def test_chain_degree_strictly_decreases(kreweras_certified, kreweras_oracle):
    # left multiples reduce in one round, so scaled copies n^k * W are
    # thrown in to force genuinely recursive chains
    tk = trivial_operator(KREWERAS)
    scaled = [OreOperator.from_poly(N * N) * op for op in kreweras_certified]
    saw_long_chain = False
    for op in kreweras_certified + scaled:
        cert = certify_operator(op, tk, kreweras_oracle)
        assert cert.certified
        degs = [op.total_poly_deg()] + [w.total_poly_deg() for w in cert.chain if not w.is_zero()]
        assert all(a > b for a, b in zip(degs, degs[1:]))
        if len(cert.chain) > 1:
            saw_long_chain = True
    assert saw_long_chain, "expected at least one nontrivial reduction chain"


def test_certified_pass_evidence_on_disjoint_box(gessel_oracle, kreweras_certified, kreweras_oracle):
    box = Box((1, 15), (0, 8), (0, 8))
    for op in (T, SN * T, OreOperator.from_poly(N) * T):
        assert certify_operator(op, T, gessel_oracle).certified
        assert evidence_check(op, gessel_oracle, box)
    for op in kreweras_certified:
        assert evidence_check(op, kreweras_oracle, box)


def test_certificates_independent_of_table_depth(kreweras_certified):
    """A table that starts at depth 0 and deepens on read certifies and
    refutes exactly as a pre-built 45-level one does."""
    tk = trivial_operator(KREWERAS)
    perturbed = [r + OreOperator.from_poly(N) * SN for r in kreweras_certified]
    perturbed += [tk + 1, OreOperator.from_poly(I) * (tk + 1)]
    shallow, deep = CountTable(KREWERAS, 0), CountTable(KREWERAS, 45)
    verdicts = set()
    for op in kreweras_certified + perturbed:
        want = certify_operator(op, tk, deep)
        got = certify_operator(op, tk, shallow)
        assert (got.verdict, got.chain, got.base_checks, got.counterexample) == (
            want.verdict, want.chain, want.base_checks, want.counterexample
        ), op
        verdicts.add(want.verdict)
    assert verdicts == {CERTIFIED, REFUTED}


def test_evidence_check_examples(gessel_oracle):
    assert evidence_check(T, gessel_oracle, Box.cube(12))
    assert not evidence_check(T + 1, gessel_oracle, Box.cube(12))

    class ZeroOracle:
        n_max = 10**9

        def value(self, n, i, j):
            return 0

    assert evidence_check(T + 1, ZeroOracle(), Box.cube(5))


def test_refutation_from_deeper_chain_level(gessel_oracle):
    # i*(T+1) passes level-0 base cases on the i = 0 line but still fails:
    # its chain exposes the defect and the reported counterexample is a
    # genuine point where the operator itself does not vanish.
    bad = OreOperator.from_poly(I) * (T + 1)
    cert = certify_operator(bad, T, gessel_oracle)
    assert cert.verdict == REFUTED
    assert bad.apply_at(gessel_oracle, *cert.counterexample) != 0
