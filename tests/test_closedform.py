import math
import random
from fractions import Fraction

import pytest

from quarterwalks import (
    CLOSED_FORMS,
    GESSEL,
    KREWERAS,
    HypergeomTerm,
    UniOperator,
    hypergeom_term,
    max_nonneg_root,
    nonneg_integer_roots,
    origin_sequence,
    prove_equality,
    symbolic_satisfies,
)
from quarterwalks.exactmath import ipoly_mul, ipoly_scale
from quarterwalks.walks import step_lattice

from naive_oracles import cauchy_nonneg_integer_roots, pochhammer, product_form
from test_eliminate import ore_as_uni, uni_as_ore

# order-3 recurrence of the interlaced Kreweras origin counts
P0 = UniOperator({3: [54, 21, 2], 0: [-108, -162, -54]})
# order-2 recurrence of the interlaced Gessel origin counts
PG = UniOperator(
    {
        2: ipoly_mul([10, 3], [4, 1]),
        0: ipoly_scale(ipoly_mul([5, 3], [1, 1]), -16),
    }
)


def left_multiple(u, p):
    """The Ore product u p of two elements of Z[n][S_n]."""
    return ore_as_uni(uni_as_ore(u) * uni_as_ore(p))


def kreweras_comb(m):
    """4^m C(3m, m) / ((m+1)(2m+1)), the binomial form of the Kreweras counts."""
    q, r = divmod(4**m * math.comb(3 * m, m), (m + 1) * (2 * m + 1))
    assert r == 0
    return q


def base_values(which, count):
    """b(0), ..., b(count-1) of a built-in term, read off its sequence."""
    term = hypergeom_term(which)
    return term.sequence(term.period * (count - 1))[term.residue :: term.period]


def test_pochhammer_examples():
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(0, 0) == 1
    assert pochhammer(Fraction(5, 6), 2) == Fraction(55, 36)
    for k in range(8):
        assert pochhammer(1, k) == math.factorial(k)


def test_closed_form_table():
    assert sorted(CLOSED_FORMS) == ["gessel", "kreweras"]
    assert CLOSED_FORMS["gessel"] == (GESSEL, hypergeom_term("gessel"))
    assert CLOSED_FORMS["kreweras"] == (KREWERAS, hypergeom_term("kreweras"))
    with pytest.raises(ValueError, match="unknown closed form 'catalan'"):
        hypergeom_term("catalan")


def test_closed_form_support_is_the_step_lattice():
    # f(n; 0, 0) can be nonzero only where n = 0 (mod d) for the lattice d
    for which in ("kreweras", "gessel"):
        steps, term = CLOSED_FORMS[which]
        assert term.period == step_lattice(steps)[2]
        assert term.residue == 0


def test_gessel_rhs_values():
    assert base_values("gessel", 6) == [1, 2, 11, 85, 782, 8004]


def test_kreweras_rhs_values():
    assert base_values("kreweras", 5) == [1, 2, 16, 192, 2816]


def test_rhs_integrality_holds_far_out():
    for which in CLOSED_FORMS:
        assert all(v.denominator == 1 for v in base_values(which, 60))


def test_rhs_match_enumeration(gessel_oracle, kreweras_oracle):
    for m, value in enumerate(base_values("gessel", 21)):
        assert value == gessel_oracle.value(2 * m, 0, 0)
    for m, value in enumerate(base_values("kreweras", 14)):
        assert value == kreweras_oracle.value(3 * m, 0, 0)


def test_ratio_certificates():
    g = hypergeom_term("gessel")
    k = hypergeom_term("kreweras")
    # 4 (6m+5)(2m+1) / ((3m+5)(m+2)) and 6 (3m+1)(3m+2) / ((m+2)(2m+3))
    assert g.ratio == ((20, 64, 48), (10, 11, 3))
    assert k.ratio == ((12, 54, 54), (6, 7, 2))
    # the ratio is the quotient of consecutive product-form values
    for term in (g, k):
        num, den = term.ratio
        for m in range(100):
            ratio = Fraction(sum(c * m**e for e, c in enumerate(num)),
                             sum(c * m**e for e, c in enumerate(den)))
            assert ratio * product_form(term, m) == product_form(term, m + 1)


def test_ratio_derived_from_parameters():
    # c (m + a) / (m + b) over Z, with the shared integer content removed
    assert HypergeomTerm(Fraction(4), (Fraction(1, 2),), (Fraction(2),), 1, 0).ratio == (
        (2, 4), (2, 1)
    )
    assert HypergeomTerm(Fraction(-3, 2), (), (Fraction(1, 3),), 1, 0).ratio == ((-9,), (2, 6))
    assert HypergeomTerm(Fraction(6), (Fraction(0),), (), 1, 0).ratio == ((0, 6), (1,))


def test_ratio_denominators_root_free():
    # construction would have raised; the derived denominator has no
    # nonnegative integer root either
    for which in CLOSED_FORMS:
        assert nonneg_integer_roots(hypergeom_term(which).ratio[1]) == []


def test_term_with_vanishing_denominator_rejected():
    for lower in ((Fraction(-3),), (Fraction(1, 2), Fraction(0))):
        with pytest.raises(ValueError, match="vanishes"):
            HypergeomTerm(Fraction(1), (), lower, 1, 0)
    with pytest.raises(ValueError, match="vanishes at m = 3"):
        HypergeomTerm(Fraction(1), (), (Fraction(-3), Fraction(-7)), 1, 0)
    # a negative non-integer lower parameter never meets a pole
    term = HypergeomTerm(Fraction(1), (), (Fraction(-5, 2),), 1, 0)
    assert term.sequence(2) == [1, Fraction(-2, 5), Fraction(4, 15)]


def test_product_and_ratio_iteration_agree():
    for which in CLOSED_FORMS:
        term = hypergeom_term(which)
        base = base_values(which, 201)
        for m in range(201):
            assert base[m] == product_form(term, m)
    base = base_values("kreweras", 201)
    for m in range(201):
        assert base[m] == kreweras_comb(m)


def test_interlaced_sequence_pattern():
    g = hypergeom_term("gessel")
    seq = g.sequence(10)
    assert seq == [1, 0, 2, 0, 11, 0, 85, 0, 782, 0, 8004]
    k = hypergeom_term("kreweras").sequence(7)
    assert k[6] == 16 and k[7] == 0
    assert HypergeomTerm(Fraction(2), (), (), 3, 1).sequence(7) == [0, 1, 0, 0, 2, 0, 0, 4]


def test_first_mismatch_reads_every_count_given():
    g = hypergeom_term("gessel")
    assert g.first_mismatch([1, 0, 2, 0, 11]) is None
    assert g.first_mismatch([1, 0, 2, 1, 11]) == 3
    assert g.first_mismatch([1, 0, 2, 0, 11, 0, 85, 0, 782, 0, 8005]) == 10
    assert g.first_mismatch([]) is None


def _kreweras_first_order():
    """(m+2)(2m+3) S_m - 6(3m+1)(3m+2), the first-order recurrence of the
    m-th Kreweras origin count."""
    den = ipoly_mul([2, 1], [3, 2])
    num = ipoly_scale(ipoly_mul([1, 3], [2, 3]), -6)
    return UniOperator({1: den, 0: num})


def test_check_recurrence_first_order_on_base_sequence():
    p = _kreweras_first_order()
    seq = [kreweras_comb(m) for m in range(202)]
    assert p.first_failure(seq) is None
    shifted = seq[1:]
    assert p.first_failure(shifted) is not None


def test_first_failure_names_first_failing_n():
    p = _kreweras_first_order()
    seq = [kreweras_comb(m) for m in range(40)]
    assert p.first_failure(seq) is None
    seq[30] += 1
    assert p.first_failure(seq) == 29
    # the window at n = 16 is the first to read seq[17]; the one at
    # n = 29 still fails, and the first is named
    seq[17] += 1
    assert p.first_failure(seq) == 16


def test_first_failure_refuses_fewer_than_two_windows(monkeypatch):
    """``len(seq) == order + 1`` leaves one window and raises; one value
    more checks exactly the windows n = 0 and n = 1."""
    p = _kreweras_first_order()
    seq = [kreweras_comb(m) for m in range(3)]
    with pytest.raises(ValueError) as exc:
        p.first_failure(seq[:2])
    assert str(exc.value) == (
        "f(n; 0, 0) to n = 1 checks the order-1 recurrence on fewer than two windows; "
        "need n >= 2"
    )
    checked = []
    apply = UniOperator.apply_to_sequence
    monkeypatch.setattr(
        UniOperator, "apply_to_sequence", lambda op, s, n: checked.append(n) or apply(op, s, n)
    )
    assert p.first_failure(seq) is None
    assert checked == [0, 1]
    seq[2] += 1
    assert p.first_failure(seq) == 1


def test_first_failure_reports_a_defect_in_the_last_value():
    """The last window, n = len(seq) - 1 - order, reads the last value."""
    for p, seq in (
        (_kreweras_first_order(), [kreweras_comb(m) for m in range(31)]),
        (P0, origin_sequence(KREWERAS, 30)),
    ):
        assert p.first_failure(seq) is None
        seq[-1] += 1
        assert p.first_failure(seq) == len(seq) - 1 - p.order()


def test_check_recurrence_zero_operator_warns():
    # a check of the zero operator would pass on any sequence, so it is refused
    with pytest.raises(ValueError, match="zero operator"):
        UniOperator().first_failure([1, 2, 3])


def test_symbolic_satisfies_builtins():
    k = hypergeom_term("kreweras")
    g = hypergeom_term("gessel")
    assert symbolic_satisfies(P0, k)
    assert symbolic_satisfies(PG, g)
    assert not symbolic_satisfies(UniOperator({1: [1], 0: [-1]}), g)


def test_symbolic_satisfies_zero_operator_raises():
    # every sequence satisfies the zero operator, so the check is refused
    with pytest.raises(ValueError, match="zero operator"):
        symbolic_satisfies(UniOperator(), hypergeom_term("gessel"))


def test_symbolic_satisfies_first_order_base_terms():
    # the first-order operators are written from the factored ratios by
    # hand, so they check the ratio derived from the parameters
    first_order = {
        # (3m+5)(m+2) S - 4 (6m+5)(2m+1)
        "gessel": UniOperator(
            {1: ipoly_mul([5, 3], [2, 1]), 0: ipoly_scale(ipoly_mul([5, 6], [1, 2]), -4)}
        ),
        # (m+2)(2m+3) S - 6 (3m+1)(3m+2)
        "kreweras": UniOperator(
            {1: ipoly_mul([2, 1], [3, 2]), 0: ipoly_scale(ipoly_mul([1, 3], [2, 3]), -6)}
        ),
    }
    for which, p in first_order.items():
        t = hypergeom_term(which)
        base = HypergeomTerm(t.factor, t.upper, t.lower, 1, 0)
        assert symbolic_satisfies(p, base)
        other = first_order["kreweras" if which == "gessel" else "gessel"]
        assert not symbolic_satisfies(other, base)


def test_symbolic_agrees_with_numeric_windows():
    rng = random.Random(83)
    k = hypergeom_term("kreweras")
    seq = k.sequence(260)
    true_count = 0
    for _ in range(50):
        if rng.random() < 0.5:
            # a left multiple of P0 stays an annihilator
            e = rng.randint(0, 2)
            c = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
            if not any(c):
                c = [1]
            p = left_multiple(UniOperator({e: c}), P0)
        else:
            p = UniOperator(
                {
                    rng.randint(0, 3): [rng.randint(-4, 4), 1],
                    rng.randint(4, 6): [rng.randint(1, 4)],
                }
            )
        symbolic = symbolic_satisfies(p, k)
        numeric = p.first_failure(seq) is None
        if symbolic:
            true_count += 1
            assert numeric
        else:
            assert not numeric
    assert true_count >= 10


def test_nonneg_integer_roots():
    assert nonneg_integer_roots([6, -5, 1]) == [2, 3]  # (n-2)(n-3)
    assert nonneg_integer_roots([1, 1]) == []
    assert nonneg_integer_roots([0, 0, 1]) == [0]
    assert max_nonneg_root([1, 1]) == -1
    assert max_nonneg_root([0, -7, 1]) == 7
    assert nonneg_integer_roots([-6, 5, -1]) == [2, 3]  # negative leading coefficient
    assert nonneg_integer_roots([3, 0, 2]) == []  # no negative coefficient
    assert nonneg_integer_roots([-5]) == []
    # (2n+1)(n-2): the root 2 sits exactly at the scan end 1 + B // a_d = 1 + 3 // 2
    assert nonneg_integer_roots([-2, -3, 2]) == [2]
    # (n-3)(n-5): both roots are 1 mod 2, a double root there, so the lift runs mod 3
    assert nonneg_integer_roots([15, -8, 1]) == [3, 5]
    # (n - 3,000,017)(2n + 1)(n^2 + 5): a root far past any integer scan
    p = ipoly_mul(ipoly_mul([-3_000_017, 1], [1, 2]), [5, 0, 1])
    assert nonneg_integer_roots(p) == [3_000_017]
    # repeated roots, (n-7)^3 (n+2) and n^2 (n-4)^2: Newton's step needs the squarefree part
    cube = ipoly_mul(ipoly_mul([-7, 1], [-7, 1]), [-7, 1])
    assert nonneg_integer_roots(ipoly_mul(cube, [2, 1])) == [7]
    assert nonneg_integer_roots(ipoly_mul([0, 0, 1], ipoly_mul([-4, 1], [-4, 1]))) == [0, 4]


def test_nonneg_integer_roots_match_cauchy_scan():
    rng = random.Random(97)
    for _ in range(300):
        p = [rng.choice([-1, 1]) * rng.randint(1, 5)]
        for _ in range(rng.randint(1, 2)):
            p = ipoly_mul(p, [-rng.randint(-30, 60), 1])  # plant a root
        p = ipoly_mul(p, [rng.randint(-6, 6) for _ in range(rng.randint(0, 2))] + [1])
        assert nonneg_integer_roots(p) == cauchy_nonneg_integer_roots(p), p


def test_nonneg_integer_roots_find_planted_roots():
    # roots up to 10^12, some repeated, times cofactors whose coefficients
    # are all positive: such a cofactor has no nonnegative root
    rng = random.Random(32)
    for _ in range(200):
        planted = [
            rng.choice([0, rng.randint(1, 40), rng.randint(1, 10**12)])
            for _ in range(rng.randint(1, 4))
        ]
        planted += rng.choices(planted, k=rng.randint(0, 2))
        p = [rng.choice([-1, 1])]
        for r in planted:
            p = ipoly_mul(p, [-r, 1])
        for _ in range(rng.randint(0, 2)):
            p = ipoly_mul(p, [rng.randint(1, 10**6) for _ in range(rng.randint(1, 4))])
        assert nonneg_integer_roots(p) == sorted(set(planted)), p


KREWERAS_ORIGIN = origin_sequence(KREWERAS, 45)
GESSEL_ORIGIN = origin_sequence(GESSEL, 45)


def test_prove_equality_builtins():
    k = hypergeom_term("kreweras")
    g = hypergeom_term("gessel")
    v = prove_equality(P0, k, KREWERAS_ORIGIN)
    assert v.proved and v.checked_initial_values == 3
    v = prove_equality(PG, g, GESSEL_ORIGIN)
    assert v.proved and v.checked_initial_values == 2


def test_prove_equality_of_zero_operator_fails():
    # the zero operator annihilates every sequence, so it proves nothing
    verdict = prove_equality(UniOperator({}), hypergeom_term("gessel"), GESSEL_ORIGIN)
    assert verdict.status == "FAILED(zero-operator)" and not verdict.proved


def test_prove_equality_extends_past_singular_indices():
    # scale the recurrence so its leading coefficient vanishes at n = 4:
    # uniqueness needs initial values through order + 4
    k = hypergeom_term("kreweras")
    scaled = left_multiple(UniOperator({0: [-4, 1]}), P0)
    v = prove_equality(scaled, k, KREWERAS_ORIGIN)
    assert v.proved
    assert v.singular_bound == 4
    assert v.checked_initial_values == 3 + 4 + 1


def test_prove_equality_failure_modes():
    k = hypergeom_term("kreweras")
    tweaked = list(KREWERAS_ORIGIN)
    tweaked[1] += 1
    v = prove_equality(P0, k, tweaked)
    assert v.status == "FAILED(initial-values)"
    assert v.failing_index == 1
    wrong = UniOperator({3: [1], 0: [-1]})
    v = prove_equality(wrong, k, KREWERAS_ORIGIN)
    assert v.status == "FAILED(symbolic-recurrence)"


def test_prove_equality_refuses_a_short_origin_sequence():
    # the recurrence scaled by (n - 4) needs f(n; 0, 0) for n = 0 .. 7:
    # one value fewer is a caller's error, never a verdict
    k = hypergeom_term("kreweras")
    scaled = left_multiple(UniOperator({0: [-4, 1]}), P0)
    assert prove_equality(scaled, k, KREWERAS_ORIGIN[:8]).proved
    with pytest.raises(ValueError, match="8 initial values needed, the origin sequence has 7"):
        prove_equality(scaled, k, KREWERAS_ORIGIN[:7])
    with pytest.raises(ValueError, match="3 initial values needed"):
        prove_equality(P0, k, KREWERAS_ORIGIN[:2])
