import json
import random
import re
from fractions import Fraction

import pytest

from naive_oracles import Applied, Ones, fraction_apply_at
from quarterwalks.ore import commutator, evaluate, first_nonzero
from quarterwalks import (
    GESSEL,
    Box,
    CountTable,
    OreOperator,
    UnsupportedDivisorError,
    div_rem,
    evidence_check,
    operator_from_json,
    operator_to_json,
    parse_step_set,
    trivial_operator,
)

N = OreOperator.variable("n")
I = OreOperator.variable("i")
J = OreOperator.variable("j")
SN = OreOperator.shift("Sn")
SI = OreOperator.shift("Si")
SJ = OreOperator.shift("Sj")
T = trivial_operator(GESSEL)


def random_operator(rng, max_terms=3, max_shift=2, max_exp=2, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        shift = tuple(rng.randint(0, max_shift) for _ in range(3))
        exp = tuple(rng.randint(0, max_exp) for _ in range(3))
        c = rng.randint(-max_coeff, max_coeff)
        terms[exp + shift] = terms.get(exp + shift, 0) + c
    return OreOperator(terms)


def random_point(rng):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))


def test_add_examples():
    assert (T + (-T)).is_zero()
    assert SN + N * SN == OreOperator({(1, 0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0): 1})
    assert OreOperator.zero() + T == T


def test_commutation_sn_times_n():
    assert SN * N == OreOperator({(1, 0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0, 0): 1})


def test_rewrite_identity_two_ways():
    lhs = I * (SI - 1)
    rhs = (SI - 1) * (I - 1) - 1
    assert lhs == rhs
    assert lhs == OreOperator({(0, 1, 0, 0, 1, 0): 1, (0, 1, 0, 0, 0, 0): -1})


def test_randomized_rewrite_identity():
    # x (S_x - 1) = (S_x - 1)(x - 1) - 1 generalizes to every variable
    pairs = [("i", SI, I), ("j", SJ, J), ("n", SN, N)]
    for _, s, x in pairs:
        assert x * (s - 1) == (s - 1) * (x - 1) - 1


def test_one_is_identity():
    assert OreOperator.const(1) * T == T
    assert T * OreOperator.const(1) == T


def test_noncommutativity_witness():
    assert SN * N != N * SN
    assert SN * N - N * SN == SN


def test_repr_prints_unit_coefficients_as_signs():
    assert repr(T) == "SnSiSj - Si^2Sj^2 - Si^2Sj - Sj - 1"
    assert repr(SN * N) == "(n + 1)*Sn"
    assert repr(1 - SN) == "-Sn + 1"
    assert repr(2 * SI - 3 * N * SJ) == "2*Si - 3*n*Sj"
    assert repr(I * (SI - 1)) == "i*Si - i"
    assert repr(OreOperator.zero()) == "0"


def test_commutation_general_shift_powers():
    # S_x^e p = p(x + e) S_x^e, checked against the reference application
    # S_x^e (p f) at rational points, and the product stays a polynomial
    # times S_x^e
    rng = random.Random(5)
    from test_exactmath import random_poly

    oracle = PolynomialOracle()
    for _ in range(100):
        p = random_poly(rng)
        e = rng.randint(0, 3)
        s = OreOperator.shift(rng.choice(["Sn", "Si", "Sj"]), e)
        product = s * p
        assert all(key[3:] == s.leading_monomial() for key in product.terms)
        pt = random_point(rng)
        want = fraction_apply_at(s.terms, Applied(p.terms, oracle), *pt)
        assert next(evaluate([product], oracle, [pt])) == [want]


def test_product_matches_composition_reference():
    # (a b) f = a (b f): the left side applies the computed product, the
    # right side applies b and then a by Fraction sums, with no product
    rng = random.Random(29)
    oracle = PolynomialOracle()
    for _ in range(150):
        a = random_operator(rng, max_terms=4, max_shift=3, max_exp=3)
        b = random_operator(rng, max_terms=4, max_shift=3, max_exp=3)
        for _ in range(3):
            pt = random_point(rng)
            want = fraction_apply_at(a.terms, Applied(b.terms, oracle), *pt)
            assert fraction_apply_at((a * b).terms, oracle, *pt) == want, (a, b, pt)


def test_associativity_random():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (random_operator(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_apply_examples(gessel_oracle):
    assert first_nonzero(T, gessel_oracle, Box.cube(10).points()) is None
    points = list(Box((0, 3), (0, 3), (0, 3)).points())
    identity = OreOperator.const(1)
    got = list(evaluate([identity], gessel_oracle, points))
    assert got == [[gessel_oracle.value(*pt)] for pt in points]
    assert list(evaluate([SN], gessel_oracle, [(1, 0, 0)])) == [[2]]  # f(2;0,0)


def test_apply_linearity(gessel_oracle):
    rng = random.Random(31)
    from test_exactmath import random_poly

    for _ in range(20):
        r1, r2 = random_operator(rng), random_operator(rng)
        a, b = random_poly(rng), random_poly(rng)
        combo = a * r1 + b * r2
        points = [(2, 1, 1), (4, 0, 2), (6, 3, 0)]
        values = evaluate([combo, r1, r2], gessel_oracle, points)
        for (lhs, v1, v2), (a_value, b_value) in zip(values, evaluate([a, b], Ones(), points)):
            assert lhs == a_value * v1 + b_value * v2


class PolynomialOracle:
    """f(n; i, j) = (3n - 5i + 7j)^2 + n i j + 1, defined at rational points."""

    def value(self, n, i, j):
        return (3 * n - 5 * i + 7 * j) ** 2 + n * i * j + 1


def test_evaluate_wide_coefficients_matches_fraction_sum(gessel_oracle):
    # coefficients up to 2^40: an int at integer points of the counts,
    # and the Fraction sum at rational points of a polynomial oracle
    from test_exactmath import random_wide_poly

    rng = random.Random(37)
    for _ in range(60):
        op = OreOperator.zero()
        for _ in range(rng.randint(1, 4)):
            shift = OreOperator({(0, 0, 0) + tuple(rng.randint(0, 2) for _ in range(3)): 1})
            op += random_wide_poly(rng, max_exp=2) * shift
        points = [tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(3)]
        for pt, (value,) in zip(points, evaluate([op], gessel_oracle, points)):
            assert type(value) is int
            assert value == fraction_apply_at(op.terms, gessel_oracle, *pt), (op, pt)
        points = [random_point(rng) for _ in range(3)]
        want = [[fraction_apply_at(op.terms, PolynomialOracle(), *pt)] for pt in points]
        assert list(evaluate([op], PolynomialOracle(), points)) == want, op


class ZeroOracle:
    def value(self, n, i, j):
        return 0


class ReadLog:
    """An oracle that forwards to another and logs every cell it is asked for."""

    def __init__(self, oracle):
        self.oracle, self.reads = oracle, []

    def value(self, n, i, j):
        self.reads.append((n, i, j))
        return self.oracle.value(n, i, j)


def test_evaluate_matches_fraction_sum(gessel_oracle):
    """Several operators at several points, against their Fraction sums on
    four oracles; i = -1 and j = -1 occur, and every cell is asked of
    ``oracle.value`` at most once per call."""
    rng = random.Random(47)
    oracles = [gessel_oracle, Ones(), PolynomialOracle(), ZeroOracle()]
    for _ in range(40):
        ops = [random_operator(rng, max_terms=5) for _ in range(rng.randint(1, 4))]
        points = [(rng.randint(0, 9), rng.randint(-1, 7), rng.randint(-1, 7)) for _ in range(8)]
        for oracle in oracles:
            log = ReadLog(oracle)
            got = list(evaluate(ops, log, points))
            want = [[fraction_apply_at(op.terms, oracle, *pt) for op in ops] for pt in points]
            assert got == want
            assert len(log.reads) == len(set(log.reads))
            # each operator alone gives its column of the joint evaluation
            alone = [[v for v, in evaluate([op], oracle, points)] for op in ops]
            assert alone == [list(column) for column in zip(*got)]


def test_evaluate_reads_cells_off_the_quadrant_through_the_oracle(gessel_oracle):
    # a negative coordinate must read 0 from oracle.value, never wrap
    # around to the end of a row of the table
    x = SN + 3 * I * SJ + N * J
    points = [(4, -1, 2), (4, 2, -1), (5, -1, -1), (3, 0, 1)]
    log = ReadLog(gessel_oracle)
    got = list(evaluate([x, SI, OreOperator.zero()], log, points))
    want = [[fraction_apply_at(op.terms, gessel_oracle, *pt) for op in (x, SI)] for pt in points]
    assert got == [row + [0] for row in want]
    off = [c for c in log.reads if min(c) < 0]
    assert off and all(gessel_oracle.value(*c) == 0 for c in off)
    assert (5, -1, 2) in log.reads and (4, 2, 0) in log.reads
    assert got[0][0] == 0 and got[1][0] == 3 * 2 * gessel_oracle.value(4, 2, 0)


def test_first_nonzero_is_the_first_in_scan_order(gessel_oracle):
    rng = random.Random(59)
    for _ in range(60):
        op = random_operator(rng, max_terms=4)
        box = Box((0, rng.randint(0, 4)), (0, rng.randint(0, 4)), (0, rng.randint(0, 4)))
        values = {p: fraction_apply_at(op.terms, gessel_oracle, *p) for p in box.points()}
        want = next((p for p, v in values.items() if v), None)
        log = ReadLog(gessel_oracle)
        assert first_nonzero(op, log, box.points()) == want
        assert evidence_check(op, gessel_oracle, box) == (want is None)
        # no cell is read for a point past the one found
        points = list(box.points())
        scanned = points[: points.index(want) + 1] if want else points
        cells = {(n + a, i + b, j + c) for n, i, j in scanned for a, b, c in op.support()}
        assert set(log.reads) <= cells


def test_commutator_matches_products_on_random_operators():
    rng = random.Random(67)
    ts = [trivial_operator(parse_step_set(s)) for s in ("W,S,NE", "E,W,NE,SW", "E,W,NW,SE")]
    for _ in range(150):
        w = random_operator(rng, max_terms=5, max_shift=3, max_exp=3)
        t = rng.choice(ts + [random_operator(rng, max_terms=4, max_exp=0)])
        assert commutator(t, w) == t * w - w * t, (t, w)
    with pytest.raises(UnsupportedDivisorError, match="constant coefficients"):
        commutator(N * T, T)


def test_div_rem_examples():
    u, v = div_rem(T, T)
    assert u == OreOperator.const(1) and v.is_zero()
    u, v = div_rem(N * T, T)
    assert u == N and v.is_zero()
    u, v = div_rem(SJ, T)
    assert u.is_zero() and v == SJ
    # a leading coefficient of -1 is a unit of Z too
    u, v = div_rem(T, -T)
    assert u == OreOperator.const(-1) and v.is_zero()


def test_div_rem_round_trip_random():
    rng = random.Random(41)
    for steps in ("W,S,NE", "E,W,NE,SW", "E,W,N,S", "E,W,N,S,NE,NW,SE,SW"):
        transfer = trivial_operator(parse_step_set(steps))
        # a leading coefficient of -1 is a unit of Z too
        for t in (transfer, -transfer):
            lm = t.leading_monomial()
            for _ in range(50):
                x = random_operator(rng, max_terms=4, max_shift=3, max_exp=3)
                u, v = div_rem(x, t)
                assert u * t + v == x
                for exp in v.support():
                    assert not all(exp[k] >= lm[k] for k in range(3))


def test_div_rem_rejects_nonconstant_divisor():
    with pytest.raises(UnsupportedDivisorError):
        div_rem(T, N * T)
    with pytest.raises(UnsupportedDivisorError):
        div_rem(T, OreOperator.zero())
    # over Z the quotient by 2 T is not integral: refused, not rounded
    with pytest.raises(UnsupportedDivisorError, match="leading coefficient 2"):
        div_rem(T, 2 * T)


def test_apply_beyond_table_deepens_it():
    # T reads level n + 1; a fresh table, since the fixture is shared
    oracle = CountTable(GESSEL, 10)
    deep = CountTable(GESSEL, 12)
    points = [(10, i, 0) for i in range(4)]
    assert list(evaluate([T], oracle, points)) == list(evaluate([T], deep, points)) == [[0]] * 4
    assert oracle.n_max == 11
    x = (N + 1) * OreOperator.shift("Sn", 2) + I * SI * SJ
    got, want = (list(evaluate([x], o, [(10, 1, 1)])) for o in (oracle, deep))
    assert got == want != [[0]]
    assert oracle.n_max == 12


def test_left_ideal_closure(gessel_oracle):
    rng = random.Random(43)
    for _ in range(10):
        x = random_operator(rng, max_terms=3, max_shift=2)
        xt = x * T
        assert first_nonzero(xt, gessel_oracle, Box.cube(8).points()) is None


def test_substitute_zero_examples():
    op = I * SI + N * SN
    assert op.substitute_zero(("i", "j")) == N * SN
    assert T.substitute_zero(("i", "j")) == T
    assert ((I + 1) * SI).substitute_zero(("i",)) == SI


def test_degrees_examples():
    d = T.degrees()
    assert (d.ord_sn, d.ord_si, d.ord_sj) == (1, 2, 2)
    assert d.total_poly_deg == 0
    op = N * N * I * OreOperator.shift("Sn", 3)
    d = op.degrees()
    assert (d.deg_n, d.deg_i, d.ord_sn) == (2, 1, 3)
    with pytest.raises(ValueError, match="zero operator"):
        OreOperator.zero().degrees()


def test_monomial_orders():
    assert T.leading_monomial() == (1, 1, 1)
    op = OreOperator({(0, 0, 0, 0, 5, 5): 1, (0, 0, 0, 1, 0, 0): 1})
    assert op.leading_monomial() == (1, 0, 0)
    assert (N * N * SI + SN).leading_monomial() == (1, 0, 0)


def test_normalized_form():
    op = -2 * N * I * SN - 4 * I
    norm = op.normalized()
    # content 2 and the common monomial factor i removed; leading positive
    assert norm == N * SN + 2


def rational_operator_json(terms):
    """An operator file from {shift exponent: {exponent: Fraction}}."""
    return {
        "vars": ["n", "i", "j"],
        "shifts": ["Sn", "Si", "Sj"],
        "terms": [
            {
                "shift": list(shift),
                "coeff": [
                    {"exp": list(e), "num": str(q.numerator), "den": str(q.denominator)}
                    for e, q in coeff.items()
                ],
            }
            for shift, coeff in terms.items()
        ],
    }


def test_json_round_trip_bit_exact():
    rng = random.Random(47)
    for _ in range(50):
        op = random_operator(rng)
        data = operator_to_json(op)
        text = json.dumps(data, sort_keys=True)
        assert operator_from_json(json.loads(text)) == op
        assert json.dumps(operator_to_json(operator_from_json(data)), sort_keys=True) == text
        assert all(m["den"] == "1" for t in data["terms"] for m in t["coeff"])
    # a file with den != 1 is read as its multiple by the lcm of the
    # denominators in lowest terms: 2/4 n Sn + 3/7 - 5/-3 i, times 42
    data = rational_operator_json(
        {(1, 0, 0): {(1, 0, 0): Fraction(1, 2)},
         (0, 0, 0): {(0, 0, 0): Fraction(3, 7), (0, 1, 0): Fraction(5, 3)}}
    )
    data["terms"][0]["coeff"][0].update(num="2", den="4")
    data["terms"][1]["coeff"][1].update(num="-5", den="-3")
    op = operator_from_json(data)
    assert op == 21 * N * SN + 18 + 70 * I
    assert json.dumps(operator_to_json(op)).count('"den": "1"') == 3


def test_json_rejects_malformed():
    with pytest.raises((ValueError, KeyError)):
        operator_from_json({"vars": ["x"], "shifts": ["Sx"], "terms": []})
    data = operator_to_json(T)
    data["terms"][1]["coeff"][0]["den"] = "0"
    message = f"zero denominator in the coefficient of shift {tuple(data['terms'][1]['shift'])}"
    with pytest.raises(ValueError, match=re.escape(message)):
        operator_from_json(data)
    # a monomial repeated in one coefficient is an error, not the last copy
    data = operator_to_json(SN)
    data["terms"][0]["coeff"] += [{"exp": [0, 0, 0], "num": "2", "den": "1"}]
    message = "duplicate exponent (0, 0, 0) in the coefficient of shift (1, 0, 0)"
    with pytest.raises(ValueError, match=re.escape(message)):
        operator_from_json(data)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num", 1.5), ("num", "1.5"), ("num", True), ("num", "1/2"), ("num", " 7"),
        ("den", 2.0), ("exp", [1.9, 0, 0]), ("exp", [False, 0, 0]), ("shift", [0, "x", 0]),
    ],
)
def test_json_integer_fields_are_not_truncated(field, value):
    # "num": 1.5 and "exp": [1.9, 0, 0] once loaded as 1 and n
    data = operator_to_json(SN - N)
    target = data["terms"][0] if field == "shift" else data["terms"][0]["coeff"][0]
    target[field] = value
    with pytest.raises(ValueError, match="expected an integer"):
        operator_from_json(data)
    # ints and decimal strings with a sign are read
    target[field] = {"num": "-1", "den": 1, "exp": [1, 0, 0], "shift": [0, 0, 0]}[field]
    assert operator_from_json(data) == SN - N
