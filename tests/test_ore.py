import json
import random
from fractions import Fraction

import pytest

from naive_oracles import fraction_apply_at
from quarterwalks import (
    GESSEL,
    Box,
    CountTable,
    MultiPoly,
    OreOperator,
    UnsupportedDivisorError,
    div_rem,
    operator_from_json,
    operator_to_json,
    trivial_operator,
)

N = MultiPoly.variable("n")
I = MultiPoly.variable("i")
J = MultiPoly.variable("j")
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
        if c:
            cur = terms.get(shift, MultiPoly.zero())
            terms[shift] = cur + MultiPoly.monomial(exp, c)
    return OreOperator(terms)


def test_add_examples():
    assert (T + (-T)).is_zero()
    assert SN + OreOperator.from_poly(N) * SN == OreOperator({(1, 0, 0): N + 1})
    assert OreOperator.zero() + T == T


def test_commutation_sn_times_n():
    assert SN * N == OreOperator({(1, 0, 0): N + 1})


def test_rewrite_identity_two_ways():
    lhs = OreOperator.from_poly(I) * (SI - 1)
    rhs = (SI - 1) * OreOperator.from_poly(I - 1) - 1
    assert lhs == rhs
    assert lhs == OreOperator({(0, 1, 0): I, (0, 0, 0): -I})


def test_randomized_rewrite_identity():
    # x (S_x - 1) = (S_x - 1)(x - 1) - 1 generalizes to every variable
    pairs = [("i", SI, I), ("j", SJ, J), ("n", SN, N)]
    for _, s, x in pairs:
        assert OreOperator.from_poly(x) * (s - 1) == (s - 1) * OreOperator.from_poly(x - 1) - 1


def test_one_is_identity():
    assert OreOperator.one() * T == T
    assert T * OreOperator.one() == T


def test_noncommutativity_witness():
    assert SN * N != OreOperator.from_poly(N) * SN
    assert SN * N - OreOperator.from_poly(N) * SN == SN


def test_commutation_general_shift_powers():
    rng = random.Random(5)
    from test_exactmath import random_poly

    for _ in range(100):
        p = random_poly(rng)
        e = rng.randint(0, 3)
        var = rng.choice(["n", "i", "j"])
        s = OreOperator.shift({"n": "Sn", "i": "Si", "j": "Sj"}[var], e)
        lhs = s * OreOperator.from_poly(p)
        rhs = OreOperator.from_poly(p.substitute_shift(var, e)) * s
        assert lhs == rhs


def test_associativity_random():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (random_operator(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_apply_examples(gessel_oracle):
    assert T.is_zero_on(gessel_oracle, Box.cube(10))
    box = Box((0, 3), (0, 3), (0, 3))
    identity = OreOperator.one()
    grid = identity.apply(gessel_oracle, box)
    for (n, i, j), v in grid.items():
        assert v == gessel_oracle.value(n, i, j)
    assert SN.apply_at(gessel_oracle, 1, 0, 0) == 2  # f(2;0,0)


def test_apply_linearity(gessel_oracle):
    rng = random.Random(31)
    from test_exactmath import random_poly

    for _ in range(20):
        r1, r2 = random_operator(rng), random_operator(rng)
        a, b = random_poly(rng), random_poly(rng)
        combo = OreOperator.from_poly(a) * r1 + OreOperator.from_poly(b) * r2
        for pt in [(2, 1, 1), (4, 0, 2), (6, 3, 0)]:
            lhs = combo.apply_at(gessel_oracle, *pt)
            rhs = a.eval(*pt) * r1.apply_at(gessel_oracle, *pt) + b.eval(*pt) * r2.apply_at(
                gessel_oracle, *pt
            )
            assert lhs == rhs


class PolynomialOracle:
    """f(n; i, j) = (3n - 5i + 7j)^2 + n i j + 1, defined at rational points."""

    def value(self, n, i, j):
        return (3 * n - 5 * i + 7 * j) ** 2 + n * i * j + 1


def test_apply_at_matches_fraction_sum(gessel_oracle):
    from test_exactmath import random_rational_poly

    rng = random.Random(37)
    for _ in range(60):
        op = OreOperator(
            {
                tuple(rng.randint(0, 2) for _ in range(3)): random_rational_poly(rng, max_exp=2)
                for _ in range(rng.randint(1, 4))
            }
        )
        for _ in range(3):
            pt = tuple(rng.randint(0, 8) for _ in range(3))
            value = op.apply_at(gessel_oracle, *pt)
            assert type(value) is Fraction
            assert value == fraction_apply_at(op.terms, gessel_oracle, *pt), (op, pt)
            pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
            want = fraction_apply_at(op.terms, PolynomialOracle(), *pt)
            assert op.apply_at(PolynomialOracle(), *pt) == want, (op, pt)


def test_div_rem_examples():
    u, v = div_rem(T, T)
    assert u == OreOperator.one() and v.is_zero()
    u, v = div_rem(OreOperator.from_poly(N) * T, T)
    assert u == OreOperator.from_poly(N) and v.is_zero()
    u, v = div_rem(SJ, T)
    assert u.is_zero() and v == SJ


def test_div_rem_round_trip_random():
    rng = random.Random(41)
    lm = T.leading_monomial()
    for _ in range(100):
        x = random_operator(rng, max_terms=4, max_shift=3)
        u, v = div_rem(x, T)
        assert u * T + v == x
        for exp in v.support():
            assert not all(exp[k] >= lm[k] for k in range(3))


def test_div_rem_rejects_nonconstant_divisor():
    with pytest.raises(UnsupportedDivisorError):
        div_rem(T, OreOperator.from_poly(N) * T)
    with pytest.raises(UnsupportedDivisorError):
        div_rem(T, OreOperator.zero())


def test_apply_beyond_table_deepens_it():
    # T reads level n + 1; a fresh table, since the fixture is shared
    oracle = CountTable(GESSEL, 10)
    deep = CountTable(GESSEL, 12)
    for i in range(4):
        assert T.apply_at(oracle, 10, i, 0) == T.apply_at(deep, 10, i, 0) == 0
    assert oracle.n_max == 11
    x = OreOperator({(2, 0, 0): N + 1, (0, 1, 1): I})
    assert x.apply_at(oracle, 10, 1, 1) == x.apply_at(deep, 10, 1, 1) != 0
    assert oracle.n_max == 12


def test_left_ideal_closure(gessel_oracle):
    rng = random.Random(43)
    for _ in range(10):
        x = random_operator(rng, max_terms=3, max_shift=2)
        xt = x * T
        assert xt.is_zero_on(gessel_oracle, Box.cube(8))


def test_substitute_zero_examples():
    op = OreOperator({(0, 1, 0): I, (1, 0, 0): N})
    assert op.substitute_zero(("i", "j")) == OreOperator({(1, 0, 0): N})
    assert T.substitute_zero(("i", "j")) == T
    assert OreOperator({(0, 1, 0): I + 1}).substitute_zero(("i",)) == SI


def test_degrees_examples():
    d = T.degrees()
    assert (d.ord_sn, d.ord_si, d.ord_sj) == (1, 2, 2)
    assert d.total_poly_deg == 0
    op = OreOperator({(3, 0, 0): N * N * I})
    d = op.degrees()
    assert (d.deg_n, d.deg_i, d.ord_sn) == (2, 1, 3)
    assert OreOperator.zero().degrees().empty


def test_monomial_orders():
    assert T.leading_monomial() == (1, 1, 1)
    assert OreOperator({(0, 5, 5): 1, (1, 0, 0): 1}).leading_monomial() == (1, 0, 0)


def test_normalized_form():
    op = OreOperator({(1, 0, 0): -2 * N * I, (0, 0, 0): -4 * I})
    norm = op.normalized()
    # content 2 and the common monomial factor i removed; leading positive
    assert norm == OreOperator({(1, 0, 0): N, (0, 0, 0): MultiPoly.const(2)})


def test_json_round_trip_bit_exact():
    rng = random.Random(47)
    for _ in range(50):
        op = random_operator(rng)
        frac_coeff = MultiPoly.const(Fraction(3, 7))
        op = op + OreOperator({(0, 0, 0): frac_coeff})
        data = operator_to_json(op)
        text = json.dumps(data, sort_keys=True)
        assert operator_from_json(json.loads(text)) == op
        assert json.dumps(operator_to_json(operator_from_json(data)), sort_keys=True) == text


def test_json_rejects_malformed():
    with pytest.raises((ValueError, KeyError)):
        operator_from_json({"vars": ["x"], "shifts": ["Sx"], "terms": []})
    data = operator_to_json(T)
    data["terms"][0]["coeff"][0]["den"] = "0"
    with pytest.raises((ValueError, ZeroDivisionError)):
        operator_from_json(data)
