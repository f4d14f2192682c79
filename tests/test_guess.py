import random
from fractions import Fraction

import pytest

from quarterwalks import (
    Bounds,
    CountTable,
    GESSEL,
    TemplateError,
    build_template,
    assemble_system,
    filter_candidates,
    guess_operators,
    nullspace,
    plan_points,
    template_from_support,
    trivial_operator,
)
from quarterwalks.guess import _primes

from naive_oracles import fraction_nullspace

T = trivial_operator(GESSEL)
T_SUPPORT = tuple((0, 0, 0, e4, e5, e6) for (e4, e5, e6) in sorted(T.terms))
T_VECTOR = tuple(T.terms[(t[3], t[4], t[5])].constant_value() for t in T_SUPPORT)


def test_template_full_box_counts():
    tpl = build_template(Bounds(1, 1, 1, 1, 1, 1), "full")
    assert len(tpl) == 64


def test_template_quasiholonomic_pure_sn():
    tpl = build_template(Bounds(deg_n=1, ord_sn=2), "quasiholonomic")
    assert len(tpl) == 6
    assert all(t[1] == t[2] == t[4] == t[5] == 0 for t in tpl.support)


def test_template_contains_trivial_support():
    tpl = build_template(Bounds(0, 0, 0, 1, 2, 2), "full")
    for t in T_SUPPORT:
        assert t in tpl.support


def test_template_quasiholonomic_filter():
    tpl = build_template(Bounds(1, 1, 1, 1, 1, 1), "quasiholonomic")
    for (e1, e2, e3, e4, e5, e6) in tpl.support:
        if e2 == 0 and e3 == 0:
            assert (e5, e6) == (0, 0)


def test_template_empty_support_errors():
    with pytest.raises(TemplateError):
        build_template(Bounds(deg_n=-1), "full")
    with pytest.raises(TemplateError):
        template_from_support(())


def test_assemble_constant_template(gessel_oracle):
    tpl = template_from_support(((0, 0, 0, 0, 0, 0),))
    system = assemble_system(tpl, gessel_oracle, [(0, 0, 0)])
    assert system.matrix == [[1]]


def test_assemble_rows_annihilated_by_t(gessel_oracle):
    tpl = template_from_support(T_SUPPORT)
    points = [(n, i, j) for n in range(1, 5) for i in range(3) for j in range(3)]
    system = assemble_system(tpl, gessel_oracle, points)
    for row in system.matrix:
        assert sum(c * v for c, v in zip(T_VECTOR, row)) == 0


def test_assemble_single_entry_value(gessel_oracle):
    # the tuple n * S_n evaluated at (2, 0, 0): 2 * f(3; 0, 0), which is 0
    tpl = template_from_support(((1, 0, 0, 1, 0, 0),))
    system = assemble_system(tpl, gessel_oracle, [(2, 0, 0)])
    assert system.matrix == [[2 * gessel_oracle.value(3, 0, 0)]]
    assert system.matrix == [[0]]


def test_nullspace_trivial_cases():
    assert nullspace([[1, 0], [0, 1]]) == []
    assert nullspace([[1, 1]]) == [(Fraction(1), Fraction(-1))]


def test_nullspace_contains_trivial_operator_vector(gessel_oracle):
    tpl = template_from_support(T_SUPPORT)
    plan = plan_points(tpl, margin=25)
    system = assemble_system(tpl, gessel_oracle, plan.points)
    assert len(plan.points) >= 30
    basis = nullspace(system)
    assert len(basis) == 1
    v = basis[0]
    scale = v[0] / T_VECTOR[0]
    assert all(a == scale * b for a, b in zip(v, T_VECTOR))


def test_nullspace_matches_fraction_oracle():
    rng = random.Random(3)
    for trial in range(100):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        rank_drop = rng.random() < 0.5
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rank_drop and rows > 1:
            m[-1] = [2 * x for x in m[0]]
        assert nullspace(m) == fraction_nullspace(m), (trial, m)


def test_nullspace_rational_rows_match_fraction_oracle():
    rng = random.Random(5)
    for trial in range(80):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [
            [
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)) if rng.random() < 0.6
                else rng.randint(-6, 6)
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        if rows > 1 and rng.random() < 0.5:
            m[-1] = [Fraction(2, 3) * x for x in m[0]]
        if trial % 4 == 0:
            # one rational entry in a matrix of integers
            m = [[int(x) for x in row] for row in m]
            m[-1][-1] = Fraction(1, 7)
        assert nullspace(m) == fraction_nullspace(m), (trial, m)


def _first_primes(k):
    gen = _primes()
    return [next(gen) for _ in range(k)]


def test_nullspace_unlucky_prime_lower_rank():
    # full rank over Q, rank 1 modulo the first prime
    p1 = _first_primes(1)[0]
    assert nullspace([[p1, 0], [0, 1]]) == fraction_nullspace([[p1, 0], [0, 1]]) == []
    m = [[1, 1, 1], [1, 1 + p1, 1]]
    assert nullspace(m) == fraction_nullspace(m) == [(Fraction(1), Fraction(0), Fraction(-1))]


def test_nullspace_unlucky_prime_same_rank():
    # rank 2 modulo the first prime too, but with the pivots {0, 2} or
    # {1, 2} there instead of the rational {0, 1}
    p1 = _first_primes(1)[0]
    for m in ([[1, 1, 0], [p1, 0, 1]], [[p1, 0, 1], [0, 1, 1]]):
        assert nullspace(m) == fraction_nullspace(m), m
    assert nullspace([[1, 1, 0], [p1, 0, 1]]) == [(Fraction(1), Fraction(-1), Fraction(-p1))]


def test_nullspace_needs_several_primes():
    # kernel entries near 2^41 cannot be reconstructed from one 31-bit prime
    a, b = 2**41 + 15, 2**40 + 3
    m = [[a, b, 0], [0, 1, 1]]
    assert nullspace(m) == fraction_nullspace(m)
    assert nullspace(m) == [(Fraction(b), Fraction(-a), Fraction(a))]


def test_nullspace_matches_fraction_oracle_big_entries():
    rng = random.Random(41)
    big = 2**40
    for trial in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-big, big) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.6:
            # force a rank drop with an integer combination of two rows
            s, t = rng.randint(-big, big), rng.randint(1, 9)
            m[-1] = [s * x + t * y for x, y in zip(m[0], m[1])]
        if cols > 1 and rng.random() < 0.3:
            k = rng.randrange(1, cols)
            for row in m:
                row[k] = 3 * row[0]
        assert nullspace(m) == fraction_nullspace(m), (trial, m)


def test_oversampling_never_enlarges_kernel(gessel_oracle):
    rng = random.Random(29)
    for _ in range(5):
        support = set()
        while len(support) < 6:
            support.add(
                (
                    rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
                    rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 2),
                )
            )
        tpl = template_from_support(tuple(sorted(support)))
        plan = plan_points(tpl, margin=10)
        base = list(plan.points)
        doubled = base + [(n + 20, i, j) for (n, i, j) in base]
        dim1 = len(nullspace(assemble_system(tpl, gessel_oracle, base)))
        dim2 = len(nullspace(assemble_system(tpl, gessel_oracle, doubled)))
        assert dim2 <= dim1


def test_filter_keeps_trivial_drops_accidental(gessel_oracle):
    tpl = template_from_support(T_SUPPORT)
    plan = plan_points(tpl, margin=25)
    basis = nullspace(assemble_system(tpl, gessel_oracle, plan.points))
    kept = filter_candidates(basis, tpl, gessel_oracle, plan.fresh_points)
    assert kept == [T.normalized()]
    # the constant operator "solves" the empty point set but fails fresh points
    const_tpl = template_from_support(((0, 0, 0, 0, 0, 0),))
    kept = filter_candidates(
        [(Fraction(1),)], const_tpl, gessel_oracle, plan.fresh_points
    )
    assert kept == []


def test_filter_drops_empty_basis(gessel_oracle):
    assert filter_candidates([], template_from_support(T_SUPPORT), gessel_oracle, []) == []


def test_guessed_candidates_annihilate_on_disjoint_box(gessel_oracle):
    from quarterwalks import Box

    tpl = build_template(Bounds(0, 0, 0, 1, 2, 2), "full")
    ops = guess_operators(tpl, gessel_oracle)
    assert ops
    for op in ops:
        assert op.is_zero_on(gessel_oracle, Box((16, 22), (0, 6), (0, 6)))


def test_guess_from_depth_zero_table_matches_prebuilt(gessel_oracle, kreweras_oracle):
    # the table deepens on read, so no caller has to size it first
    for oracle, bounds in ((gessel_oracle, Bounds(0, 0, 0, 1, 2, 2)),
                           (kreweras_oracle, Bounds(2, 2, 2, 3, 1, 1))):
        tpl = build_template(bounds, "full")
        shallow = CountTable(oracle.step_set, 0)
        ops = guess_operators(tpl, shallow)
        assert ops and ops == guess_operators(tpl, oracle)


def test_quasiholonomic_gessel_small_bounds_empty(gessel_oracle):
    tpl = build_template(Bounds(2, 2, 2, 2, 2, 2, total_poly_deg=2), "quasiholonomic")
    assert guess_operators(tpl, gessel_oracle) == []
