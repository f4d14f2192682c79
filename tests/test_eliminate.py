import json
import math
import random
from fractions import Fraction

import pytest

from quarterwalks import (
    EliminationError,
    EliminationFailure,
    GESSEL,
    KREWERAS,
    ModuleVector,
    MultiPoly,
    OreOperator,
    UniOperator,
    VerificationError,
    eliminate_shifts,
    generate_module,
    origin_sequence,
    reduce_mod_ij,
    takayama_pipeline,
    trivial_operator,
    uni_from_json,
    uni_to_json,
)
from quarterwalks import eliminate, exactmath
from quarterwalks.eliminate import _reduce_leading, _row_normalize, pos_key
from quarterwalks.exactmath import (
    ipoly_content,
    ipoly_gcd,
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_shift_arg,
)
from naive_oracles import (
    _schoolbook_mul,
    fraction_cleared,
    fraction_divexact,
    fraction_monic_gcd,
    fraction_ratio_at,
    full_multiplier_reduce,
)
from test_exactmath import random_ipoly
from test_ore import random_operator

N = MultiPoly.variable("n")
I = MultiPoly.variable("i")
J = MultiPoly.variable("j")
SN = OreOperator.shift("Sn")
SI = OreOperator.shift("Si")

# the closed-form recurrence of the Kreweras origin counts, order 3
P0 = UniOperator({3: [54, 21, 2], 0: [-108, -162, -54]})


def vector_as_ore(v: ModuleVector) -> OreOperator:
    """The operator sum of u(n, S_n) S_i^e5 S_j^e6 over the components u
    of a module vector at the positions (e5, e6)."""
    return OreOperator(
        {
            (k, e5, e6): MultiPoly({(d, 0, 0): Fraction(c) for d, c in enumerate(p) if c})
            for (e5, e6), u in v.components.items()
            for k, p in u.terms.items()
        }
    )


def uni_as_ore(u: UniOperator) -> OreOperator:
    return vector_as_ore(ModuleVector({(0, 0): u}))


def ore_as_uni(op: OreOperator) -> UniOperator:
    """The element of Z[n][S_n] of an operator with integer coefficients
    that is free of i, j, S_i and S_j."""
    terms = {}
    for (e4, e5, e6), c in op.terms.items():
        coeffs = c.coefficients_in_n()
        assert e5 == e6 == 0 and all(x.denominator == 1 for x in coeffs)
        terms[e4] = [int(x) for x in coeffs]
    return UniOperator(terms)


def test_reduce_examples():
    r = OreOperator.from_poly(N) * SN + OreOperator.from_poly(I) * SI
    v = reduce_mod_ij(r)
    assert set(v.components) == {(0, 0)}
    assert v.components[(0, 0)].terms[1] == [0, 1]

    t = trivial_operator(GESSEL)
    v = reduce_mod_ij(t)
    expected = {
        (1, 1): UniOperator({1: [1]}),
        (2, 1): UniOperator({0: [-1]}),
        (0, 1): UniOperator({0: [-1]}),
        (2, 2): UniOperator({0: [-1]}),
        (0, 0): UniOperator({0: [-1]}),
    }
    assert v.components == expected

    all_i = OreOperator.from_poly(I) * random_operator(random.Random(1), max_terms=4)
    assert reduce_mod_ij(all_i).is_zero()


def test_reduce_is_module_map():
    # c(n) S_n^e commutes with the i = j = 0 substitution; the operators
    # have integer coefficients, so reduce_mod_ij scales nothing
    rng = random.Random(71)
    for _ in range(100):
        r = random_operator(rng, max_terms=4)
        e = rng.randint(0, 2)
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        if not any(coeffs):
            coeffs = [1]
        as_ore = OreOperator(
            {(e, 0, 0): MultiPoly({(k, 0, 0): Fraction(v) for k, v in enumerate(coeffs) if v})}
        )
        assert reduce_mod_ij(as_ore * r) == reduce_mod_ij(as_ore * vector_as_ore(reduce_mod_ij(r)))


def test_left_multiple_degeneracy():
    rng = random.Random(73)
    for _ in range(100):
        r = random_operator(rng, max_terms=4)
        assert reduce_mod_ij(OreOperator.from_poly(I) * r).is_zero()
        assert reduce_mod_ij(OreOperator.from_poly(J) * r).is_zero()


def test_generate_module_pure_generator():
    r = OreOperator({(2, 0, 0): N + 1, (0, 0, 0): MultiPoly.const(3)})
    vectors, dropped = generate_module([r])
    assert len(vectors) == 1 and not dropped
    assert set(vectors[0].components) == {(0, 0)}


def test_generate_module_trivial_operator_single_vector():
    t = trivial_operator(GESSEL)
    vectors, _ = generate_module([t], multiplier_bound=0)
    assert len(vectors) == 1
    assert vectors[0] == reduce_mod_ij(t)


def test_generate_module_multiples_differ():
    r = OreOperator({(0, 1, 0): I, (0, 0, 0): N})
    vectors, _ = generate_module([r])
    # multiples 1 and S_i: S_i shifts the coefficient i to i+1 before the
    # substitution, so the two reductions differ
    assert len(vectors) == 2
    assert vectors[0] != vectors[1]
    assert vectors[0].components == {(0, 0): UniOperator({0: [0, 1]})}
    assert (2, 0) in vectors[1].components


def test_generate_module_all_zero_errors():
    # with multiples suppressed the i-divisible generator has nothing left;
    # with multiples allowed S_i recovers a nonzero vector from it
    r = OreOperator.from_poly(I)
    with pytest.raises(EliminationError, match="reduce to zero"):
        generate_module([r], multiplier_bound=0)
    vectors, _ = generate_module([r])
    assert vectors
    with pytest.raises(ValueError, match="multiplier_bound must be >= 0"):
        generate_module([r], multiplier_bound=-1)


def test_eliminate_concentrated_vector_returned():
    v = ModuleVector({(0, 0): P0})
    res, diag = eliminate_shifts([v])
    assert res is not None
    assert res.cleared() == P0.cleared()


def test_eliminate_duplicate_vectors_no_change():
    a = UniOperator({1: [1, 1], 0: [3]})
    v1 = ModuleVector({(1, 0): a, (0, 0): P0})
    res1, _ = eliminate_shifts([v1, v1])
    res2, _ = eliminate_shifts([v1])
    assert (res1 is None) == (res2 is None)
    v2 = ModuleVector({(1, 0): a, (0, 0): UniOperator({0: [5]})})
    got_pair, _ = eliminate_shifts([v1, v2])
    got_dup, _ = eliminate_shifts([v1, v2, v2, v1])
    assert got_pair is not None and got_dup is not None
    assert got_pair.cleared() == got_dup.cleared()


def synthetic_vectors():
    """Two vectors whose difference is P0 at (0,0): the echelon has to
    cancel their shared leading term at (1,0)."""
    a = UniOperator({1: [1, 1], 0: [3]})
    b = UniOperator({2: [0, 2], 0: [5]})
    b_minus_p0 = ore_as_uni(uni_as_ore(b) - uni_as_ore(P0))
    return [ModuleVector({(1, 0): a, (0, 0): b}), ModuleVector({(1, 0): a, (0, 0): b_minus_p0})]


def test_eliminate_synthetic_combination():
    res, _ = eliminate_shifts(synthetic_vectors())
    assert res is not None and res.cleared() == P0.cleared()


def test_echelon_step_that_keeps_the_lead_raises(monkeypatch):
    # a reduction step that cancels nothing would loop forever
    monkeypatch.setattr(eliminate, "_reduce_leading", lambda u, w: u)
    with pytest.raises(EliminationError, match="did not lower the leading term"):
        eliminate_shifts(synthetic_vectors())


def test_eliminate_accepts_rational_coefficients():
    # generators with rational coefficients: reduce_mod_ij clears each
    # vector's denominators, a left multiplication by a nonzero constant
    a = OreOperator({(1, 1, 0): MultiPoly.const(Fraction(1, 2)) * (N + 1),
                     (0, 1, 0): MultiPoly.const(Fraction(3, 7))})  # ((n+1)/2 Sn + 3/7) Si
    half_p0 = OreOperator.from_poly(MultiPoly.const(Fraction(1, 2))) * uni_as_ore(P0)
    v1, v2 = reduce_mod_ij(a + half_p0), reduce_mod_ij(a)
    assert v1.components[(1, 0)] == UniOperator({1: [7, 7], 0: [6]})
    assert v2.components[(1, 0)] == UniOperator({1: [7, 7], 0: [6]})
    res, _ = eliminate_shifts([v1, v2])
    assert res is not None and res.cleared() == P0.cleared()


def test_eliminate_failure_returns_none():
    v = ModuleVector({(1, 0): P0})
    res, diag = eliminate_shifts([v])
    assert res is None
    assert diag["pivot_positions"] == [(1, 0)]


def test_trivial_operator_alone_fails():
    t = trivial_operator(GESSEL)
    diagonal = origin_sequence(GESSEL, 40)
    with pytest.raises(EliminationFailure) as exc:
        takayama_pipeline([t], diagonal)
    # the one echelon's sizes are reported
    assert [a["vectors"] for a in exc.value.attempts] == [1]


def test_pipeline_reverifies_the_eliminated_operator():
    # S_n - 2: every component is kept, so a P that fails the sequence is
    # an error, never a reason to retry
    r = OreOperator({(1, 0, 0): 1, (0, 0, 0): -2})
    assert takayama_pipeline([r], [1, 2, 4, 8]).cleared() == {1: [1], 0: [-2]}
    with pytest.raises(VerificationError, match="fails the origin sequence at n=2"):
        takayama_pipeline([r], [1, 2, 4, 9])
    with pytest.raises(VerificationError, match="too short"):
        takayama_pipeline([r], [1])


def test_kreweras_pipeline_end_to_end(kreweras_diagonal_500, kreweras_p_500):
    diagonal, p = kreweras_diagonal_500, kreweras_p_500
    assert p.order() >= 3
    assert p.annihilates(diagonal, range(0, 501 - p.order()))
    # independent check against the closed-form recurrence's solutions:
    # P0 annihilates the same sequence
    assert P0.annihilates(diagonal, range(0, 498))


def random_rows(seed, count):
    """Echelon-shaped rows {pos: {k: poly}}: a planted common factor (now
    and then a constant), a row-wide integer factor, per-polynomial
    integer contents of either sign, coefficients far above 2^53 in every
    fifth row, a zero polynomial now and then, and single-polynomial rows."""
    rng = random.Random(seed)
    positions = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    for t in range(count):
        big = 2**70 if t % 5 == 0 else 20
        factor = random_ipoly(rng, max_deg=rng.choice((0, 1, 2, 3)), max_coeff=big)
        factor = [c * rng.choice((1, 1, 2, 12)) for c in factor]
        cells = 1 if t % 6 == 0 else rng.randint(2, 7)
        row = {}
        for _ in range(cells):
            pos, k = rng.choice(positions), rng.randint(0, 4)
            poly = ipoly_mul(factor, random_ipoly(rng, max_deg=4, max_coeff=big))
            scale = rng.choice((1, 1, -1, 3, -4, 10))
            row.setdefault(pos, {})[k] = [c * scale for c in poly]
        if t % 11 == 0 and cells > 1:
            pos, k = next((pos, k) for pos in row for k in row[pos])
            row[pos][k] = []
        yield row


def oracle_row_gcd(polys):
    """The gcd over Z of the polynomials: the Euclidean gcd over Q made
    primitive, times the gcd of the integer contents."""
    monic = []
    for p in polys:
        monic = fraction_monic_gcd(monic, p)
    den = math.lcm(*(c.denominator for c in monic))
    prim = [int(c * den) for c in monic]
    g = math.gcd(*prim)
    scale = math.gcd(*(ipoly_content(p) for p in polys))
    return [c // g * scale for c in prim]


def oracle_row_normalize(row):
    """Fold the gcd, divide every polynomial over Q, and give the leading
    polynomial a positive leading coefficient."""
    row = {pos: {k: p for k, p in comp.items() if p} for pos, comp in row.items()}
    row = {pos: comp for pos, comp in row.items() if comp}
    g = oracle_row_gcd([p for comp in row.values() for p in comp.values()])
    out = {pos: {k: fraction_divexact(p, g) for k, p in comp.items()} for pos, comp in row.items()}
    lead_pos = max(out, key=pos_key)
    if out[lead_pos][max(out[lead_pos])][-1] < 0:
        out = {pos: {k: [-c for c in p] for k, p in comp.items()} for pos, comp in out.items()}
    return out


def test_row_normalize_matches_fraction_oracle():
    nontrivial = 0
    for row in random_rows(106, 300):
        want = oracle_row_normalize(row)
        assert _row_normalize(row) == want, row
        polys = [p for comp in row.values() for p in comp.values() if p]
        g, quotients = ipoly_gcd_cofactors(polys)
        assert g == oracle_row_gcd(polys) and g[-1] > 0, row
        assert [ipoly_mul(g, q) for q in quotients] == polys, row
        nontrivial += len(g) > 1
    assert nontrivial > 150


def test_row_normalize_fallback_gives_same_rows(monkeypatch):
    rows = list(random_rows(107, 150))
    polys = [[p for comp in row.values() for p in comp.values() if p] for row in rows]
    heuristic = [_row_normalize(row) for row in rows]
    cofactors = [ipoly_gcd_cofactors(ps) for ps in polys]
    monkeypatch.setattr(exactmath, "_gcdheu", lambda polys: None)
    assert [_row_normalize(row) for row in rows] == heuristic
    assert [ipoly_gcd_cofactors(ps) for ps in polys] == cofactors


def random_row_pairs(seed, count):
    """Pairs (u, w) sharing a leading position, u's S_n power at least w's:
    the leading polynomials au and aw(n + delta) share a planted factor
    (now and then a constant), every polynomial has an integer content of
    either sign, coefficients reach 2^70 in every fifth pair, and delta is
    0 in about one pair in five."""
    rng = random.Random(seed)
    positions = sorted([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)], key=pos_key)
    for t in range(count):
        big = 2**70 if t % 5 == 0 else 20
        lead = rng.randrange(len(positions))
        pos = positions[lead]
        kw = rng.randint(0, 3)
        delta = rng.choice((0, 1, 1, 2, 3))
        ku = kw + delta
        factor = random_ipoly(rng, max_deg=rng.choice((0, 1, 2, 3)), max_coeff=big)
        factor = [c * rng.choice((1, 2, -3, 12)) for c in factor]
        au = ipoly_mul(factor, random_ipoly(rng, max_deg=3, max_coeff=big))
        aw = ipoly_shift_arg(ipoly_mul(factor, random_ipoly(rng, max_deg=3, max_coeff=big)), -delta)
        u, w = {pos: {ku: au}}, {pos: {kw: aw}}
        for row, k in ((u, ku), (w, kw)):
            for _ in range(rng.randint(0, 5)):
                p = positions[rng.randrange(lead + 1)]
                top = k - 1 if p == pos else 5
                if top < 0:
                    continue
                poly = random_ipoly(rng, max_deg=4, max_coeff=big)
                row.setdefault(p, {})[rng.randint(0, top)] = [
                    c * rng.choice((1, -1, 3, -4, 10)) for c in poly
                ]
        yield u, w


def test_reduce_leading_matches_full_multiplier_oracle():
    """The gcd-reduced step and the full-multiplier step give the same row
    once normalized, and the reduced step never multiplies in the gcd of
    the leading polynomials."""
    reduced = 0
    for u, w in random_row_pairs(108, 300):
        step = _reduce_leading(u, w)
        full = full_multiplier_reduce(u, w, pos_key)
        assert _row_normalize(step) == _row_normalize(full), (u, w)
        pos = max(u, key=pos_key)
        ku, kw = max(u[pos]), max(w[pos])
        assert step.get(pos, {}).get(ku) is None, (u, w)
        g = ipoly_gcd(ipoly_shift_arg(w[pos][kw], ku - kw), u[pos][ku])
        assert step == {
            p: {k: fraction_divexact(c, g) for k, c in comp.items()} for p, comp in full.items()
        }, (u, w)
        reduced += len(g) > 1
    assert reduced > 120


def test_kreweras_p_500_coefficients_pinned(kreweras_p_500):
    """The eliminated P, coefficient for coefficient, as the Fraction-based
    echelon (before the integer division and heuristic gcd) produced it."""
    assert kreweras_p_500.cleared() == {
        0: [463644, 928746, 607986, 156006, 13122],
        3: [-400302, -369009, -124092, -18117, -972],
        6: [21060, 15948, 4167, 457, 18],
    }


def test_generator_monotonicity(kreweras_certified, kreweras_p_500):
    diagonal = origin_sequence(KREWERAS, 200)
    p_small = takayama_pipeline(kreweras_certified[:3], diagonal)
    assert kreweras_p_500.order() <= p_small.order()


def test_uni_cleared_primitive():
    p = UniOperator({1: [2, 4], 0: [8]})
    assert p.cleared() == {1: [1, 2], 0: [4]}
    # the terms are kept as given; only the cleared form is normalized
    assert p.terms == {1: [2, 4], 0: [8]}
    assert p != UniOperator({1: [1, 2], 0: [4]})
    assert UniOperator({1: [-2, -4], 0: [-8]}).cleared() == {1: [1, 2], 0: [4]}
    assert UniOperator({1: [0, 0], 0: [3, 0]}).terms == {0: [3]}


def test_uni_cleared_computed_once_and_copied():
    p = UniOperator(P0.terms)
    shared = p._cleared_form()
    seq = [1, 1, 2, 5, 14, 42, 132]
    for n in range(4):
        p.apply_to_sequence(seq, n)
    assert p.leading_cleared() == [54, 21, 2]
    first = p.cleared()
    first[3].append(99)
    first.pop(0)
    p.leading_cleared().append(99)
    assert p.cleared() == {3: [54, 21, 2], 0: [-108, -162, -54]}
    assert p._cleared_form() is shared


def test_uni_json_round_trip():
    data = uni_to_json(P0)
    text = json.dumps(data, sort_keys=True)
    back = uni_from_json(json.loads(text))
    assert back == P0
    assert json.dumps(uni_to_json(back), sort_keys=True) == text
    # rational terms, (2/3)/(n+1) Sn^2 + 5, load multiplied by 3(n+1)
    q = uni_from_json(json_operator({2: (["2/3"], ["1", "1"]), 0: (["5"], ["1"])}))
    assert q == UniOperator({2: [2], 0: [15, 15]})
    assert uni_from_json(uni_to_json(q)) == q


def test_uni_json_rejects_inconsistent_cleared():
    data = uni_to_json(P0)
    data["cleared"][0]["coeffs"][0] = "999"
    with pytest.raises(ValueError, match="cleared"):
        uni_from_json(data)


def json_operator(terms):
    """An operator file from {power: (num, den)} lists of number strings."""
    return {
        "var": "n",
        "shift": "Sn",
        "terms": [{"power": k, "num": num, "den": den} for k, (num, den) in terms.items()],
    }


def test_uni_from_json_clears_rational_terms():
    # (n^2-1)/(n-1) Sn + 2n/4 + 0/(n+3) Sn^2: each term is reduced, the
    # zero term dropped, and the rest multiplied by the lcm 2
    op = uni_from_json(
        json_operator(
            {1: (["-1", "0", "1"], ["-1", "1"]), 0: (["0", "2"], ["4"]), 2: (["0"], ["3", "1"])}
        )
    )
    assert op == UniOperator({1: [2, 2], 0: [0, 1]})
    assert op.terms == op.cleared()


@pytest.mark.parametrize(
    "num, den, message",
    [
        (["1"], ["0"], "power 2: zero denominator"),
        (["1"], ["0", "0"], "power 2: zero denominator"),
        (["1/0"], ["1"], "power 2: bad number"),
        (["1"], ["x"], "power 2: bad number"),
    ],
    ids=["zero-den", "zero-den-poly", "div-by-zero", "not-a-number"],
)
def test_uni_from_json_rejects_bad_numbers(num, den, message):
    data = json_operator({0: (["1"], ["1"]), 2: (num, den)})
    with pytest.raises(ValueError, match=message):
        uni_from_json(data)


def random_fraction_poly(rng, max_deg, zero_ok=False):
    """A coefficient list of Fractions, low degree first, either sign of
    leading coefficient; all zero only when zero_ok."""
    p = [
        Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6)))
        for _ in range(rng.randint(0, max_deg))
    ]
    if zero_ok and rng.random() < 0.1:
        return [Fraction(0)] * len(p)
    return p + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 5)))]


def test_uni_from_json_clearing_matches_pointwise_ratios():
    """Random num/den terms with polynomial denominators, some sharing a
    planted factor with the numerator or with other terms: the loaded
    operator is in cleared form (primitive, positive lead), holds exactly
    the nonzero terms, equals the form that Q(n) arithmetic gives, and its
    coefficients are pointwise proportional to the rational terms:
    cleared[k](x) r_j(x) = cleared[j](x) r_k(x)."""
    rng = random.Random(109)
    for _ in range(300):
        shared = random_fraction_poly(rng, 1)
        terms = {}
        for k in rng.sample(range(6), rng.randint(1, 4)):
            num = random_fraction_poly(rng, 3, zero_ok=True)
            den = random_fraction_poly(rng, 2)
            if rng.random() < 0.5:
                den = _schoolbook_mul(den, shared)
            if rng.random() < 0.3:
                num = _schoolbook_mul(num, shared)
            terms[k] = (num, den)
        data = json_operator(
            {k: ([str(c) for c in num], [str(c) for c in den]) for k, (num, den) in terms.items()}
        )
        op = uni_from_json(data)
        cleared = op.cleared()
        assert op.terms == cleared == fraction_cleared(terms), terms
        nonzero = {k for k, (num, _) in terms.items() if any(num)}
        assert set(cleared) == nonzero
        if not cleared:
            continue
        assert math.gcd(*(c for p in cleared.values() for c in p)) == 1
        assert cleared[max(cleared)][-1] > 0
        points = 0
        for x in range(-12, 30):
            ratios = {k: fraction_ratio_at(num, den, x) for k, (num, den) in terms.items()}
            if None in ratios.values():
                continue
            values = {k: exactmath.ipoly_eval(cleared.get(k, []), x) for k in terms}
            for j in terms:
                for k in terms:
                    assert values[k] * ratios[j] == values[j] * ratios[k], (terms, x)
            points += 1
        assert points >= 10
