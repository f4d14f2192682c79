import random

import pytest

from naive_oracles import fraction_apply_at
from quarterwalks import (
    Bounds,
    Box,
    CountTable,
    GESSEL,
    KREWERAS,
    OreOperator,
    build_template,
    certify_operator,
    check_base_cases,
    div_rem,
    evidence_check,
    guess_operators,
    parse_step_set,
    trivial_operator,
)
from quarterwalks.certify import CERTIFIED, REFUTED, _find_refutation
from quarterwalks.ore import commutator, evaluate, first_nonzero

N = OreOperator.variable("n")
I = OreOperator.variable("i")
J = OreOperator.variable("j")
T = trivial_operator(GESSEL)
SN = OreOperator.shift("Sn")
SJ2 = OreOperator.shift("Sj", 2)


def test_certify_trivial_operator(gessel_oracle):
    cert = certify_operator(T, gessel_oracle)
    assert cert.verdict == CERTIFIED
    assert cert.chain == [OreOperator.zero()]
    assert all(b.all_zero for b in cert.base_checks)
    # the certificate lists the box swept: i, j <= ord_Sn(T) = 1
    assert [b.box for b in cert.base_checks] == [Box((0, 0), (0, 1), (0, 1))]


def test_certify_left_multiples(gessel_oracle):
    for x in (SN, N):
        cert = certify_operator(x * T, gessel_oracle)
        assert cert.certified


def test_refute_t_plus_one(gessel_oracle):
    cert = certify_operator(T + 1, gessel_oracle)
    assert cert.verdict == REFUTED
    assert cert.counterexample == (0, 0, 0)
    # the reported point is re-checkable by direct application
    assert first_nonzero(T + 1, gessel_oracle, [cert.counterexample]) == cert.counterexample


def test_certify_kreweras_family(kreweras_oracle):
    tk = trivial_operator(KREWERAS)
    assert certify_operator(tk, kreweras_oracle).certified
    assert certify_operator(tk + 1, kreweras_oracle).verdict == REFUTED


def test_zero_operator_rejected(gessel_oracle):
    with pytest.raises(ValueError):
        certify_operator(OreOperator.zero(), gessel_oracle)


def test_base_cases_examples(gessel_oracle):
    check = check_base_cases(T, gessel_oracle)
    assert check.all_zero and check.counterexample is None
    assert check.box == Box((0, 0), (0, 1), (0, 1))
    check = check_base_cases(OreOperator.const(1), gessel_oracle, chain_index=4)
    assert not check.all_zero and check.counterexample == (0, 0, 0)
    assert (check.chain_index, check.box) == (4, Box((0, 0), (0, 0), (0, 0)))
    with pytest.raises(ValueError, match="zero operator"):
        check_base_cases(OreOperator.zero(), gessel_oracle)


def test_base_cases_axis_factor(gessel_oracle):
    w = I * J * SN
    # the factor i*j kills the axes ...
    axes = [(0, k, 0) for k in range(4)] + [(0, 0, k) for k in range(4)]
    assert first_nonzero(w, gessel_oracle, axes) is None
    # ... but f(1; 1, 1) = 1 shows up off the axes
    check = check_base_cases(w, gessel_oracle)
    assert not check.all_zero and check.counterexample == (0, 1, 1)
    assert check.box == Box((0, 0), (0, 1), (0, 1))


@pytest.mark.parametrize("steps", ["E,W,NE,SW", "W,S,NE", "E,W,N,S", "NE,NW,SE,SW"])
def test_level_zero_vanishes_off_the_base_box(steps):
    """The light cone: (W f)(0; i, j) = 0 once i or j exceeds ord_Sn(W), so
    a sweep wider than the base box finds the same first nonzero point."""
    oracle = CountTable(parse_step_set(steps), 0)
    rng = random.Random(steps)
    nonzero = 0
    for _ in range(150):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            # a power of n would vanish at n = 0 anyway
            key = (0,) + tuple(rng.randint(0, 2) for _ in range(5))
            terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
        w = OreOperator(terms)
        if w.is_zero():
            continue
        bound = w.degrees().ord_sn
        check = check_base_cases(w, oracle)
        assert check.box == Box((0, 0), (0, bound), (0, bound)), w
        wide = Box((0, 0), (0, bound + 3), (0, bound + 3))
        points = list(wide.points())
        values = {p: v for p, (v,) in zip(points, evaluate([w], oracle, points))}
        assert all(v == 0 for (_, i, j), v in values.items() if max(i, j) > bound), w
        assert check.counterexample == next((p for p, v in values.items() if v), None), w
        nonzero += not check.all_zero
    assert nonzero > 40


def test_constant_coefficient_remainder_is_zero(gessel_oracle):
    rng = random.Random(61)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (0, 0, 0) + tuple(rng.randint(0, 2) for _ in range(3))
            terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
        w = OreOperator(terms)
        if w.is_zero():
            continue
        _, v = div_rem(T * w, T)
        assert v.is_zero()


@pytest.mark.parametrize("steps", ["W,S,NE", "E,W,NE,SW", "E,W,N,S", "E,W,N,S,NE,NW,SE,SW"])
def test_commutator_remainder_drops_degree(steps):
    """rem(T W, T) = rem([T, W], T), and it is 0 or of lower total degree
    than W: the argument by which every certification chain ends."""
    t = trivial_operator(parse_step_set(steps))
    rng = random.Random(steps)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = tuple(rng.randint(0, 2) for _ in range(6))
            terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
        w = OreOperator(terms)
        if w.is_zero():
            continue
        v = div_rem(t * w, t)[1]
        assert v == div_rem(t * w - w * t, t)[1], w
        assert v.is_zero() or v.total_poly_deg() < w.total_poly_deg(), w


def test_chain_degree_strictly_decreases(kreweras_certified, kreweras_oracle):
    # left multiples reduce in one round, so scaled copies n^k * W are
    # thrown in to force genuinely recursive chains
    tk = trivial_operator(KREWERAS)
    scaled = [N * N * op for op in kreweras_certified]
    saw_long_chain = False
    for op in kreweras_certified + scaled:
        cert = certify_operator(op, kreweras_oracle)
        assert cert.certified
        degs = [op.total_poly_deg()] + [w.total_poly_deg() for w in cert.chain if not w.is_zero()]
        assert all(a > b for a, b in zip(degs, degs[1:]))
        assert len(cert.chain) <= op.total_poly_deg() + 1
        # each element is rem(T W, T) of the one before
        assert cert.chain == [div_rem(tk * w, tk)[1] for w in [op] + cert.chain[:-1]]
        if len(cert.chain) > 1:
            saw_long_chain = True
    assert saw_long_chain, "expected at least one nontrivial reduction chain"


def test_certified_pass_evidence_on_disjoint_box(gessel_oracle, kreweras_certified, kreweras_oracle):
    box = Box((1, 15), (0, 8), (0, 8))
    for op in (T, SN * T, N * T):
        assert certify_operator(op, gessel_oracle).certified
        assert evidence_check(op, gessel_oracle, box)
    for op in kreweras_certified:
        assert evidence_check(op, kreweras_oracle, box)


def test_certificates_independent_of_table_depth(kreweras_certified):
    """A table that starts at depth 0 and deepens on read certifies and
    refutes exactly as a pre-built 45-level one does."""
    tk = trivial_operator(KREWERAS)
    perturbed = [r + N * SN for r in kreweras_certified]
    perturbed += [tk + 1, I * (tk + 1)]
    shallow, deep = CountTable(KREWERAS, 0), CountTable(KREWERAS, 45)
    verdicts = set()
    for op in kreweras_certified + perturbed:
        want = certify_operator(op, deep)
        got = certify_operator(op, shallow)
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
    bad = I * (T + 1)
    cert = certify_operator(bad, gessel_oracle)
    assert cert.verdict == REFUTED
    assert first_nonzero(bad, gessel_oracle, [cert.counterexample]) == cert.counterexample


def _old_base_scan(w, oracle):
    """check_base_cases' former loop, with Fraction sums."""
    bound = w.degrees().ord_sn
    box = Box((0, 0), (0, bound), (0, bound))
    return next((p for p in box.points() if fraction_apply_at(w.terms, oracle, *p)), None)


def _old_refutation_scan(r, oracle, t, chain_index, seed):
    """The refutation scan's former loop, with Fraction sums; None where it
    raised."""
    d = t.degrees()
    for n in range(0, seed[0] + chain_index * d.ord_sn + 1):
        for i in range(0, seed[1] + chain_index * d.ord_si + 1):
            for j in range(0, seed[2] + chain_index * d.ord_sj + 1):
                if fraction_apply_at(r.terms, oracle, n, i, j):
                    return (n, i, j)
    return None


@pytest.mark.parametrize(
    "op",
    [T + 1, N * SN * SJ2, N * OreOperator.shift("Si") * SJ2],
    ids=["T+1", "n*Sn*Sj^2", "n*Si*Sj^2"],
)
def test_scans_find_the_points_of_the_old_loops(op, gessel_oracle):
    cert = certify_operator(op, gessel_oracle)
    for w, check in zip([op] + cert.chain, cert.base_checks):
        assert check.counterexample == _old_base_scan(w, gessel_oracle)
    found = 0
    for chain_index in range(3):
        for seed in Box((0, 0), (0, 2), (0, 2)).points():
            want = _old_refutation_scan(op, gessel_oracle, T, chain_index, seed)
            if want is None:
                with pytest.raises(AssertionError, match="did not propagate"):
                    _find_refutation(op, gessel_oracle, T, chain_index, seed)
            else:
                assert _find_refutation(op, gessel_oracle, T, chain_index, seed) == want
                found += 1
    assert found


def _chain_steps(candidates, oracle):
    """Every W whose commutator with T a certification chain takes."""
    for r in candidates:
        cert = certify_operator(r, oracle)
        yield from ([r] + cert.chain)[: len(cert.chain)]


def test_direct_commutator_on_every_chain_step(kreweras_certified, kreweras_oracle):
    """[T, W] built directly equals T W - W T on every chain step of the
    Kreweras and the diagonal-walk candidates at the default bounds (the
    full Gessel template has no candidate there)."""
    tk = trivial_operator(KREWERAS)
    steps = list(_chain_steps(kreweras_certified[1:], kreweras_oracle))
    diagonal = parse_step_set("NE,NW,SE,SW")
    td, oracle = trivial_operator(diagonal), CountTable(diagonal, 20)
    candidates = guess_operators(build_template(Bounds(2, 2, 2, 3, 1, 1)), oracle)
    more = list(_chain_steps(candidates, oracle))
    assert (len(steps), len(candidates), len(more)) == (3, 51, 149)
    for t, ws in ((tk, steps), (td, more)):
        for w in ws:
            assert commutator(t, w) == t * w - w * t, w
