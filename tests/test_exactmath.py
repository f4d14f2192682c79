import ast
import math
import os
import random
from fractions import Fraction

import pytest

from naive_oracles import Ones, fraction_apply_at, fraction_divexact, fraction_monic_gcd
from quarterwalks import OreOperator, UniOperator, exactmath, reduce_mod_ij
from quarterwalks.exactmath import (
    _json_term,
    ipoly_add,
    ipoly_compose_affine,
    ipoly_content,
    ipoly_divexact_poly,
    ipoly_eval,
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_shift_arg,
)
from quarterwalks.ore import evaluate

# Polynomials in n, i, j are the shift-free operators of ``ore``; their
# ring, evaluation and canonical-form tests live here beside Z[n]'s.  A
# polynomial's value at a point is ``evaluate`` on the oracle ``Ones``.
N = OreOperator.variable("n")
I = OreOperator.variable("i")
J = OreOperator.variable("j")


def random_poly(rng, max_terms=4, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        c = rng.randint(-max_coeff, max_coeff)
        terms[exp + (0, 0, 0)] = terms.get(exp + (0, 0, 0), 0) + c
    return OreOperator(terms)


def test_add_inverse_cancels():
    assert N + (-N) == OreOperator.zero()
    assert (N + (-N)).is_zero()


def test_difference_of_squares():
    assert (N + 1) * (N - 1) == N * N - 1


def test_mixed_product_single_term():
    p = I * J
    assert p.terms == {(0, 1, 1, 0, 0, 0): 1}


def test_eval_examples():
    assert list(evaluate([N * N + 2 * N + 1], Ones(), [(2, 0, 0)])) == [[9]]
    assert list(evaluate([I * J], Ones(), [(0, 0, 5)])) == [[0]]
    assert list(evaluate([N + I + J], Ones(), [(3, 1, 2)])) == [[6]]


def test_substitute_shift_examples():
    # moving S_x leftward past a polynomial substitutes x -> x + 1 in it
    assert OreOperator.shift("Sn") * (N * N) == (N * N + 2 * N + 1) * OreOperator.shift("Sn")
    assert OreOperator.shift("Sn") * (I * J) == I * J * OreOperator.shift("Sn")
    assert OreOperator.shift("Si") * (I - 1) == I * OreOperator.shift("Si")


def test_substitute_shift_round_trip():
    # S_x p = q S_x with q(x) = p(x + 1): q read back one step lower is p
    rng = random.Random(7)
    for _ in range(100):
        p = random_poly(rng)
        for k, name in enumerate(("Sn", "Si", "Sj")):
            s = OreOperator.shift(name)
            q = OreOperator({key[:3] + (0, 0, 0): c for key, c in (s * p).terms.items()})
            assert s * p == q * s
            pt = [rng.randint(-5, 5) for _ in range(3)]
            lower = list(pt)
            lower[k] -= 1
            assert list(evaluate([q], Ones(), [lower])) == list(evaluate([p], Ones(), [pt]))


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_eval_commutes_with_arithmetic():
    rng = random.Random(13)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        pt = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        product, total, a_value, b_value = next(evaluate([a * b, a + b, a, b], Ones(), [pt]))
        assert product == a_value * b_value and total == a_value + b_value


def random_wide_poly(rng, max_terms=5, max_exp=3):
    """Integer coefficients up to 2^40 in absolute value."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[exp + (0, 0, 0)] = terms.get(exp + (0, 0, 0), 0) + rng.randint(-(2**40), 2**40)
    return OreOperator(terms)


def test_eval_matches_fraction_sum():
    # an int at an integer point; at a rational point the same sum gives
    # the Fraction the oracle sums term by term
    rng = random.Random(17)
    for _ in range(300):
        p = random_wide_poly(rng)
        pt = tuple(rng.randint(-6, 9) for _ in range(3))
        (got,) = next(evaluate([p], Ones(), [pt]))
        assert type(got) is int and got == fraction_apply_at(p.terms, Ones(), *pt), (p, pt)
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        assert next(evaluate([p], Ones(), [pt])) == [fraction_apply_at(p.terms, Ones(), *pt)]


def test_evaluated_poly_equals_and_hashes_like_fresh_copy():
    rng = random.Random(19)
    for _ in range(50):
        p = random_wide_poly(rng)
        fresh = OreOperator(p.terms)
        hashed = OreOperator(p.terms)
        hash(hashed)
        list(evaluate([p], Ones(), [(2, 3, 5)]))
        assert p == fresh and hash(p) == hash(fresh)
        got, want = next(evaluate([hashed, fresh], Ones(), [(1, -2, 3)]))
        assert got == want
        assert hashed == p and hash(hashed) == hash(p)
        assert len({p, fresh, hashed}) == 1


def test_canonical_no_zero_coefficients():
    p = OreOperator({(1, 0, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0, 0): 0})
    assert (0, 1, 0, 0, 0, 0) not in p.terms
    q = p - 2 * N
    assert q.terms == {}


def test_coefficients_are_ints():
    # a Fraction coefficient is refused, even an integral one
    for bad in (Fraction(1, 2), Fraction(3), 1.0, True):
        with pytest.raises(TypeError, match="int coefficient"):
            OreOperator({(0, 0, 0, 0, 0, 0): bad})
        with pytest.raises(TypeError, match="int coefficient"):
            OreOperator.const(bad)
        with pytest.raises(TypeError):
            N + bad
    # the content 2 divides out exactly, and the leading sign turns
    p = OreOperator({(2, 0, 0, 0, 0, 0): -6, (0, 0, 0, 0, 0, 0): 4})
    assert p.normalized() == 3 * N * N - 2
    assert all(type(c) is int for c in p.normalized().terms.values())
    assert OreOperator.zero().normalized().is_zero()
    # a polynomial in n alone is the IPoly its reduction carries
    assert reduce_mod_ij(p) == {(0, 0): {0: [4, 0, -6]}}


def test_integer_modules_do_not_import_fractions():
    """The Ore algebra and certification work over Z: their modules import
    nothing from ``fractions``, so a rational path cannot come back
    unnoticed."""
    src = os.path.dirname(exactmath.__file__)
    for name in ("exactmath", "ore", "certify"):
        with open(os.path.join(src, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "fractions" for m in modules), (name, node.lineno)


# ---------------------------------------------------------------------------
# A rational term num/den in lowest terms over Z[n]: divide both by their gcd
# (what an operator file's terms go through on load, see _json_term)
# ---------------------------------------------------------------------------


def lowest_terms(num, den):
    if not num:
        return [], [1]
    g, (q_num, q_den) = ipoly_gcd_cofactors([num, den])
    assert (ipoly_mul(g, q_num), ipoly_mul(g, q_den)) == (num, den)
    return q_num, q_den


def test_rat_normalize_cancels_gcd():
    # (n^2-1)/(n-1) = (n+1)/1
    assert lowest_terms([-1, 0, 1], [-1, 1]) == ([1, 1], [1])
    assert _json_term({"num": ["-1", "0", "1"], "den": ["-1", "1"]}, 1) == ([1, 1], [1])


def test_rat_normalize_monic_denominator():
    # 2n/4 = n/2: the integer content is cancelled too, so the
    # denominator is the smallest integer one, as a monic one is over Q
    assert lowest_terms([0, 2], [4]) == ([0, 1], [2])
    assert _json_term({"num": ["0", "2"], "den": ["4"]}, 0) == ([0, 1], [2])
    assert _json_term({"num": ["0", "1/2"], "den": ["1"]}, 0) == ([0, 1], [2])


def test_rat_normalize_zero_numerator():
    # 0/(n+3) = 0/1
    assert lowest_terms([], [3, 1]) == ([], [1])
    assert _json_term({"num": ["0"], "den": ["3", "1"]}, 2) == ([], [1])


def one_entry_file(entry):
    """The recurrence Sn + x, whose term of power 0 is the single entry x."""
    return {"var": "n", "shift": "Sn", "terms": [
        {"power": 1, "num": ["1"], "den": ["1"]}, {"power": 0, "num": [entry], "den": ["1"]},
    ]}


@pytest.mark.parametrize("entry", ["1e3", "1_0", "1.5", " 3/2", "3/+2", "1/0", "½"])
def test_term_entry_outside_the_grammar_is_refused(entry):
    # a term entry is a JSON integer, a json_int string, or "a/b" with a a
    # json_int string and b ASCII digits above 0
    with pytest.raises(ValueError, match=r"^term of power 0: bad number \("):
        exactmath.uni_from_json(one_entry_file(entry))


@pytest.mark.parametrize(
    "entry, a, b",
    [(7, 7, 1), ("7", 7, 1), ("-7", -7, 1), ("+7", 7, 1), ("3/2", 3, 2), ("-3/2", -3, 2),
     ("6/4", 3, 2), ("-0/5", 0, 1)],
)
def test_term_entry_a_over_b_is_read(entry, a, b):
    # Sn + a/b clears to b Sn + a
    assert exactmath.uni_from_json(one_entry_file(entry)) == UniOperator({1: [b], 0: [a]})


# ---------------------------------------------------------------------------
# Integer polynomials: exact division and gcd against the Fraction oracles
# ---------------------------------------------------------------------------


def random_ipoly(rng, max_deg=5, max_coeff=20):
    """Nonzero, trimmed, either sign of leading coefficient."""
    p = [rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, max_deg))]
    return p + [rng.choice((-1, 1)) * rng.randint(1, max_coeff)]


def expected_gcd(a, b):
    """The ipoly_gcd_cofactors contract from the oracle: primitive gcd
    times the gcd of the contents, positive leading coefficient."""
    monic = fraction_monic_gcd(a, b)
    den = math.lcm(*(c.denominator for c in monic))
    prim = [int(c * den) for c in monic]
    g = math.gcd(*prim)
    scale = math.gcd(ipoly_content(a), ipoly_content(b))
    return [c // g * scale for c in prim]


def gcd_cases(seed, count):
    """Nonzero pairs with a planted common factor, integer contents,
    either sign, and some coefficients far above 2^53."""
    rng = random.Random(seed)
    for t in range(count):
        big = 2**70 if t % 5 == 0 else 20
        f = random_ipoly(rng, max_deg=4, max_coeff=big)
        u = random_ipoly(rng, max_coeff=big)
        v = random_ipoly(rng, max_coeff=big)
        ka, kb = rng.choice((1, 2, 6, -3)), rng.choice((1, 4, 9, -1))
        a = [c * ka for c in ipoly_mul(f, u)]
        b = [c * kb for c in ipoly_mul(f, v)]
        yield a, b


def test_ipoly_gcd_matches_fraction_oracle():
    for a, b in gcd_cases(101, 300):
        want = expected_gcd(a, b)
        for pair in ([a, b], [b, a]):
            g, quotients = ipoly_gcd_cofactors(pair)
            assert g == want, (a, b)
            assert [ipoly_mul(g, q) for q in quotients] == pair, (a, b)
    assert ipoly_gcd_cofactors([[6], [4, 2]]) == ([2], [[3], [2, 1]])


def test_gcdheu_alone_matches_fraction_oracle():
    """The heuristic answers the gcd of the primitive parts, every time."""
    for a, b in gcd_cases(102, 200):
        pa = [c // ipoly_content(a) for c in a]
        pb = [c // ipoly_content(b) for c in b]
        h, (qa, qb) = exactmath._gcdheu([pa, pb])
        assert h == expected_gcd(pa, pb), (a, b)
        assert ipoly_mul(h, qa) == pa and ipoly_mul(h, qb) == pb, (a, b)


@pytest.mark.parametrize("k", [20, 100, 1000])
def test_gcdheu_retries_until_exact(monkeypatch, k):
    """a = x (x+1) has norm 1, so xi = 2^19 at first; b = (x+1)(x - 2^K)
    makes gamma = gcd(a(xi), b(xi)) carry the extra factor xi whenever
    K >= log2(xi), and the digits then read x (x+1), which does not divide
    b.  So xi must grow past 2^K before the gcd x + 1 is accepted."""
    tried = []
    eval_pow2 = exactmath._eval_pow2

    def recording(a, bits):
        tried.append(bits)
        return eval_pow2(a, bits)

    monkeypatch.setattr(exactmath, "_eval_pow2", recording)
    a, b = [0, 1, 1], ipoly_mul([1, 1], [-(2**k), 1])
    assert exactmath._gcdheu([a, b]) == ([1, 1], [[0, 1], [-(2**k), 1]])
    assert tried[0] == 19 and tried[0] < k < tried[-1]
    assert ipoly_gcd_cofactors([a, b])[0] == [1, 1]


def test_ipoly_divexact_poly_matches_fraction_oracle():
    rng = random.Random(104)
    raised = 0
    for t in range(300):
        big = 2**70 if t % 4 == 0 else 30
        g = random_ipoly(rng, max_deg=4, max_coeff=big)
        q = random_ipoly(rng, max_deg=6, max_coeff=big)
        a = ipoly_mul(q, g)
        assert ipoly_divexact_poly(a, g) == q
        assert fraction_divexact(a, g) == q
        kind = t % 3
        if kind == 0:  # plus a nonzero remainder of degree below deg g
            if len(g) == 1:
                continue
            bad, d = ipoly_add(a, random_ipoly(rng, max_deg=len(g) - 2, max_coeff=big)), g
        elif kind == 1:  # exact over Q, but the quotient q / k is not integral
            k = rng.choice((2, 3, 5, 7))
            if ipoly_content(q) % k == 0:
                continue
            bad, d = a, [c * k for c in g]
        else:  # an unrelated pair
            bad, d = random_ipoly(rng, max_deg=8, max_coeff=big), g
        want = fraction_divexact(bad, d)
        if want is None:
            raised += 1
            with pytest.raises(ArithmeticError):
                ipoly_divexact_poly(bad, d)
        else:
            assert ipoly_divexact_poly(bad, d) == want
    assert raised > 150


def test_ipoly_divexact_poly_edges():
    assert ipoly_divexact_poly([], [3, 1]) == []
    assert ipoly_divexact_poly([-6, -2], [-3, -1]) == [2]
    with pytest.raises(ArithmeticError):
        ipoly_divexact_poly([1], [3, 1])  # degree below the divisor's
    with pytest.raises(ArithmeticError):
        ipoly_divexact_poly([1, 1], [2, 2])  # quotient 1/2
    with pytest.raises(ZeroDivisionError):
        ipoly_divexact_poly([1, 1], [])


def test_ipoly_compose_affine_matches_evaluation():
    rng = random.Random(105)
    for _ in range(100):
        p = random_ipoly(rng)
        scale, shift = rng.randint(-4, 4), rng.randint(-9, 9)
        c = ipoly_compose_affine(p, scale, shift)
        s = ipoly_shift_arg(p, shift)
        for x in range(-5, 6):
            assert ipoly_eval(c, x) == ipoly_eval(p, scale * x + shift)
            assert ipoly_eval(s, x) == ipoly_eval(p, x + shift)
        assert not c or c[-1] != 0


def test_uni_operator_repr():
    # the Gessel recurrence (n+4)(3n+10) S_n^2 - 16 (n+1)(3n+5)
    pg = UniOperator({2: [40, 22, 3], 0: [-80, -128, -48]})
    assert repr(pg) == "(3*n^2 + 22*n + 40)*Sn^2 + (-48*n^2 - 128*n - 80)"
    assert repr(UniOperator({1: [0, 1], 0: [5]})) == "n*Sn + 5"
    assert repr(UniOperator({3: [0, 0, 2]})) == "n^2*Sn^3"  # held in cleared form
    assert repr(UniOperator({})) == "0"
    # a unit coefficient prints as its sign, and a negative term joins with " - "
    assert repr(UniOperator({1: [1], 0: [-1]})) == "Sn - 1"
    assert repr(UniOperator({2: [1], 1: [0, -1], 0: [3]})) == "Sn^2 - n*Sn + 3"
