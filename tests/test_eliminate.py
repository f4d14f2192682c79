import copy
import json
import math
import random
from fractions import Fraction

import pytest

from quarterwalks import (
    Bounds,
    EliminationError,
    EliminationFailure,
    GESSEL,
    KREWERAS,
    OreOperator,
    UniOperator,
    VerificationError,
    build_template,
    certify_operator,
    eliminate_shifts,
    generate_module,
    guess_operators,
    operator_from_json,
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
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_shift_arg,
)
from naive_oracles import (
    _schoolbook_mul,
    _shift_arg,
    fraction_cleared,
    fraction_divexact,
    fraction_monic_gcd,
    fraction_ratio_at,
    full_multiplier_reduce,
)
from test_exactmath import random_ipoly
from test_ore import random_operator, rational_operator_json

N = OreOperator.variable("n")
I = OreOperator.variable("i")
J = OreOperator.variable("j")
SN = OreOperator.shift("Sn")
SI = OreOperator.shift("Si")

# the closed-form recurrence of the Kreweras origin counts, order 3
P0 = UniOperator({3: [54, 21, 2], 0: [-108, -162, -54]})


def vector_as_ore(v: dict) -> OreOperator:
    """The operator sum of u(n, S_n) S_i^e5 S_j^e6 over the components u
    of a module vector at the positions (e5, e6)."""
    return OreOperator(
        {
            (d, 0, 0, k, e5, e6): c
            for (e5, e6), comp in v.items()
            for k, p in comp.items()
            for d, c in enumerate(p)
        }
    )


def uni_as_ore(u: UniOperator) -> OreOperator:
    return vector_as_ore({(0, 0): u.cleared()})


def ore_as_comp(op: OreOperator) -> dict:
    """The component {S_n power: IPoly} in Z[n][S_n] of an operator with
    integer coefficients that is free of i, j, S_i and S_j."""
    terms = {}
    for (dn, di, dj, e4, e5, e6), c in op.terms.items():
        assert di == dj == e5 == e6 == 0
        poly = terms.setdefault(e4, [])
        poly.extend([0] * (dn + 1 - len(poly)))
        poly[dn] = c
    return terms


def ore_as_uni(op: OreOperator) -> UniOperator:
    return UniOperator(ore_as_comp(op))


def test_reduce_examples():
    r = N * SN + I * SI
    assert reduce_mod_ij(r) == {(0, 0): {1: [0, 1]}}

    t = trivial_operator(GESSEL)
    assert reduce_mod_ij(t) == {
        (1, 1): {1: [1]},
        (2, 1): {0: [-1]},
        (0, 1): {0: [-1]},
        (2, 2): {0: [-1]},
        (0, 0): {0: [-1]},
    }

    all_i = I * random_operator(random.Random(1), max_terms=4)
    assert reduce_mod_ij(all_i) == {}


def test_reduce_emits_no_empty_component_or_zero_polynomial():
    rng = random.Random(72)
    for _ in range(300):
        r = random_operator(rng, max_terms=6)
        shift = OreOperator({(0, 0, 0, 0, rng.randint(0, 2), rng.randint(0, 2)): 1})
        for comp in reduce_mod_ij(shift * r).values():
            assert comp and all(p and p[-1] for p in comp.values()), r


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
        as_ore = OreOperator({(k, 0, 0, e, 0, 0): v for k, v in enumerate(coeffs)})
        assert reduce_mod_ij(as_ore * r) == reduce_mod_ij(as_ore * vector_as_ore(reduce_mod_ij(r)))


def test_left_multiple_degeneracy():
    rng = random.Random(73)
    for _ in range(100):
        r = random_operator(rng, max_terms=4)
        assert reduce_mod_ij(I * r) == {}
        assert reduce_mod_ij(J * r) == {}


def test_reduce_of_a_shift_multiple_forms_no_product():
    """reduce_mod_ij(op, a, b) is the reduction of S_i^a S_j^b op, with
    its positions and S_n powers in the same order."""
    rng = random.Random(74)
    for _ in range(200):
        r = random_operator(rng, max_terms=6, max_exp=3)
        for a in range(3):
            for b in range(3):
                want = reduce_mod_ij(OreOperator({(0, 0, 0, 0, a, b): 1}) * r)
                assert repr(reduce_mod_ij(r, a, b)) == repr(want), (r, a, b)


def _product_module(ops, bound=None):
    """generate_module's vectors, each reduced from the product
    S_i^a S_j^b op."""
    cap = math.inf if bound is None else bound
    rows = []
    for op in filter(None, ops):
        d = op.degrees()
        for a in range(min(d.deg_i, cap) + 1):
            for b in range(min(d.deg_j, cap) + 1):
                rows.append(reduce_mod_ij(OreOperator({(0, 0, 0, 0, a, b): 1}) * op))
    return list(filter(None, rows))


@pytest.mark.parametrize("bound", [None, 0, 1])
def test_generate_module_rows_match_the_product_form(bound, bench_generators, kreweras_certified):
    for ops in (bench_generators, kreweras_certified):
        vectors, _ = generate_module(ops, bound)
        assert repr(vectors) == repr(_product_module(ops, bound))


def test_generate_module_pure_generator():
    r = (N + 1) * OreOperator.shift("Sn", 2) + 3
    vectors, dropped = generate_module([r])
    assert len(vectors) == 1 and not dropped
    assert set(vectors[0]) == {(0, 0)}


def test_generate_module_trivial_operator_single_vector():
    t = trivial_operator(GESSEL)
    vectors, _ = generate_module([t], multiplier_bound=0)
    assert len(vectors) == 1
    assert vectors[0] == reduce_mod_ij(t)


def test_generate_module_multiples_differ():
    r = I * SI + N
    vectors, _ = generate_module([r])
    # multiples 1 and S_i: S_i shifts the coefficient i to i+1 before the
    # substitution, so the two reductions differ
    assert len(vectors) == 2
    assert vectors[0] != vectors[1]
    assert vectors[0] == {(0, 0): {0: [0, 1]}}
    assert (2, 0) in vectors[1]


def test_generate_module_all_zero_errors():
    # with multiples suppressed the i-divisible generator has nothing left;
    # with multiples allowed S_i recovers a nonzero vector from it
    r = I
    with pytest.raises(EliminationError, match="reduce to zero"):
        generate_module([r], multiplier_bound=0)
    vectors, _ = generate_module([r])
    assert vectors
    with pytest.raises(ValueError, match="multiplier_bound must be >= 0"):
        generate_module([r], multiplier_bound=-1)
    # a zero generator is skipped, and alone it leaves nothing to reduce
    assert generate_module([OreOperator.zero(), r]) == (vectors, False)
    with pytest.raises(EliminationError, match="reduce to zero"):
        generate_module([OreOperator.zero()])


def test_eliminate_concentrated_vector_returned():
    res, diag = eliminate_shifts([{(0, 0): P0.cleared()}])
    assert res is not None
    assert res.cleared() == P0.cleared()


def test_eliminate_duplicate_vectors_no_change():
    a = {1: [1, 1], 0: [3]}
    v1 = {(1, 0): a, (0, 0): P0.cleared()}
    res1, _ = eliminate_shifts([v1, v1])
    res2, _ = eliminate_shifts([v1])
    assert (res1 is None) == (res2 is None)
    v2 = {(1, 0): a, (0, 0): {0: [5]}}
    got_pair, _ = eliminate_shifts([v1, v2])
    got_dup, _ = eliminate_shifts([v1, v2, v2, v1])
    assert got_pair is not None and got_dup is not None
    assert got_pair.cleared() == got_dup.cleared()


def synthetic_vectors():
    """Two vectors whose difference is P0 at (0,0): the echelon has to
    cancel their shared leading term at (1,0)."""
    a = {1: [1, 1], 0: [3]}
    b = {2: [0, 2], 0: [5]}
    b_minus_p0 = ore_as_comp(vector_as_ore({(0, 0): b}) - uni_as_ore(P0))
    return [{(1, 0): a, (0, 0): b}, {(1, 0): a, (0, 0): b_minus_p0}]


def test_eliminate_synthetic_combination():
    res, _ = eliminate_shifts(synthetic_vectors())
    assert res is not None and res.cleared() == P0.cleared()


def test_echelon_step_that_keeps_the_lead_raises(monkeypatch):
    # a reduction step that cancels nothing would loop forever
    monkeypatch.setattr(eliminate, "_reduce_leading", lambda u, w: u)
    with pytest.raises(EliminationError, match="did not lower the leading term"):
        eliminate_shifts(synthetic_vectors())


def test_eliminate_accepts_rational_coefficients():
    # operator files with rational coefficients, ((n+1)/2 Sn + 3/7) Si and
    # that plus P0/2, are read as their multiples by lcm(2, 7) = 14
    a = {(1, 1, 0): {(1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(1, 2)},
         (0, 1, 0): {(0, 0, 0): Fraction(3, 7)}}
    half_p0 = {
        (k, 0, 0): {(d, 0, 0): Fraction(c, 2) for d, c in enumerate(p) if c}
        for k, p in P0.cleared().items()
    }
    a_op = operator_from_json(rational_operator_json(a))
    sum_op = operator_from_json(rational_operator_json({**a, **half_p0}))
    assert a_op == (7 * N + 7) * SN * SI + 6 * SI
    assert sum_op == a_op + 7 * uni_as_ore(P0)
    v1, v2 = reduce_mod_ij(sum_op), reduce_mod_ij(a_op)
    assert v1[(1, 0)] == {1: [7, 7], 0: [6]}
    assert v2[(1, 0)] == {1: [7, 7], 0: [6]}
    res, _ = eliminate_shifts([v1, v2])
    assert res is not None and res.cleared() == P0.cleared()


def test_eliminate_failure_returns_none():
    res, diag = eliminate_shifts([{(1, 0): P0.cleared()}])
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
    r = SN - 2
    assert takayama_pipeline([r], [1, 2, 4, 8]).cleared() == {1: [1], 0: [-2]}
    with pytest.raises(VerificationError, match="fails the origin sequence at n=2"):
        takayama_pipeline([r], [1, 2, 4, 9])
    with pytest.raises(VerificationError, match="too short"):
        takayama_pipeline([r], [1])


def test_kreweras_pipeline_end_to_end(kreweras_diagonal_500, kreweras_p_500):
    diagonal, p = kreweras_diagonal_500, kreweras_p_500
    assert p.order() >= 3
    assert p.first_failure(diagonal, range(0, 501 - p.order())) is None
    # independent check against the closed-form recurrence's solutions:
    # P0 annihilates the same sequence
    assert P0.first_failure(diagonal, range(0, 498)) is None


def test_eliminate_shifts_leaves_its_vectors_unchanged(kreweras_certified):
    vectors, _ = generate_module(kreweras_certified, multiplier_bound=1)
    before = copy.deepcopy(vectors)
    p, _ = eliminate_shifts(vectors)
    assert p is not None
    assert vectors == before


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
        g, _ = ipoly_gcd_cofactors([ipoly_shift_arg(w[pos][kw], ku - kw), u[pos][ku]])
        assert step == {
            p: {k: fraction_divexact(c, g) for k, c in comp.items()} for p, comp in full.items()
        }, (u, w)
        reduced += len(g) > 1
    assert reduced > 120


def scale_row(row, h):
    return {pos: {k: ipoly_mul(p, h) for k, p in comp.items()} for pos, comp in row.items()}


def test_reduce_leading_is_homogeneous_in_the_row():
    """reduce(h u, w) = (h g / g') reduce(u, w) for nonzero h in Z[n], with
    g = gcd(aw', au) and g' = gcd(aw', h au); so both normalize to the same
    row.  h runs over constants of either sign, polynomials of degree up to
    3, and multiples of a factor of aw'."""
    rng = random.Random(121)
    shares = 0
    for t, (u, w) in enumerate(random_row_pairs(109, 300)):
        pos = max(u, key=pos_key)
        ku, kw = max(u[pos]), max(w[pos])
        aw_shift, au = ipoly_shift_arg(w[pos][kw], ku - kw), u[pos][ku]
        g, _ = ipoly_gcd_cofactors([aw_shift, au])
        kind = t % 4
        if kind == 0:
            h = [rng.choice((-1, 1)) * rng.randint(1, 30)]
        elif kind == 1:
            h = random_ipoly(rng, max_deg=3, max_coeff=50)
        else:
            # a factor of aw': the planted gcd with au, or aw' itself
            h = ipoly_mul(g if kind == 2 else aw_shift, random_ipoly(rng, max_deg=1, max_coeff=5))
        step, h_step = _reduce_leading(u, w), _reduce_leading(scale_row(u, h), w)
        assert _row_normalize(h_step) == _row_normalize(step), (u, w, h)
        g2, _ = ipoly_gcd_cofactors([aw_shift, ipoly_mul(h, au)])
        assert scale_row(h_step, g2) == scale_row(step, ipoly_mul(h, g)), (u, w, h)
        shares += len(ipoly_gcd_cofactors([h, aw_shift])[0]) > 1
    assert shares > 80


def reference_echelon(rows):
    """The echelon that normalizes the row after every reduction step:
    returns (pivots, reduction steps)."""
    pivots, steps = {}, 0
    for row in sorted(rows, key=eliminate._row_sort_key):
        while row:
            pos, k, _ = eliminate._row_lead(row)
            w = pivots.get(pos)
            if w is None:
                pivots[pos] = _row_normalize(row)
                break
            _, kw, _ = eliminate._row_lead(w)
            if k >= kw:
                row = _row_normalize(_reduce_leading(row, w))
                steps += 1
            else:
                pivots[pos] = _row_normalize(row)
                row = w
    return pivots, steps


def assert_pivots_match_reference(vectors):
    rows = [row for row in map(_row_normalize, vectors) if row]
    pivots, reductions, _ = eliminate._echelonize(rows)
    want, steps = reference_echelon(rows)
    assert sorted(pivots, key=pos_key) == sorted(want, key=pos_key)
    for pos, pivot in want.items():
        assert pivots[pos] == pivot, pos
    assert reductions == steps
    return pivots, steps


@pytest.mark.parametrize("bound, count", [(None, 16), (1, 9)])
def test_echelon_pivots_match_per_step_normalization(kreweras_certified, bound, count):
    """Normalizing a row only when it becomes a pivot stores every pivot
    that normalizing after each step stores, not only the one on (0,0)."""
    vectors, _ = generate_module(kreweras_certified, multiplier_bound=bound)
    pivots, _ = assert_pivots_match_reference(vectors)
    assert len(pivots) == count and (0, 0) in pivots


def random_module(rng):
    """A few integer vectors over four positions, S_n powers 0..2, with
    shared leading positions so that the echelon has to reduce."""
    positions = [(0, 0), (1, 0), (0, 1), (1, 1)]
    vectors = []
    for _ in range(rng.randint(2, 6)):
        vec = {}
        for _ in range(rng.randint(1, 4)):
            pos, k = rng.choice(positions), rng.randint(0, 2)
            poly = random_ipoly(rng, max_deg=2, max_coeff=9)
            vec.setdefault(pos, {})[k] = [c * rng.choice((1, -2, 6)) for c in poly]
        vectors.append(vec)
    return vectors


def test_echelon_pivots_match_per_step_normalization_random():
    rng = random.Random(122)
    steps = 0
    for _ in range(80):
        steps += assert_pivots_match_reference(random_module(rng))[1]
    assert steps > 500


def sn_multiple(vec, c, k):
    """c(n) S_n^k vec, by the schoolbook oracles: the polynomial p at power
    e becomes c(n) p(n + k) at power e + k."""
    return {
        pos: {e + k: _schoolbook_mul(c, _shift_arg(p, k)) for e, p in comp.items()}
        for pos, comp in vec.items()
    }


def test_sn_multiples_leave_p_unchanged_random():
    """Appending c(n) S_n^k copies of rows, exact duplicates among them,
    leaves P as the reference echelon finds it on the rows before they
    were added, and every copy is counted as dropped."""
    rng = random.Random(123)
    hits = 0
    for _ in range(80):
        vectors = random_module(rng)
        want, _ = reference_echelon([row for row in map(_row_normalize, vectors) if row])
        _, before = eliminate_shifts(vectors)
        nonzero = [v for v in vectors if _row_normalize(v)]
        copies = []
        for _ in range(rng.randint(1, 4)):
            vec = rng.choice(nonzero)
            if rng.random() < 0.25:
                copies.append(copy.deepcopy(vec))
            else:
                c = random_ipoly(rng, max_deg=2, max_coeff=9)
                copies.append(sn_multiple(vec, c, rng.randint(0, 3)))
        mixed = vectors + copies
        rng.shuffle(mixed)
        got, diag = eliminate_shifts(mixed)
        assert diag["sn_multiples"] == before["sn_multiples"] + len(copies), vectors
        assert diag["vectors"] == before["vectors"] + len(copies)
        assert diag["pivot_positions"] == sorted(want, key=pos_key), vectors
        if (0, 0) in want:
            assert got == UniOperator(want[(0, 0)][(0, 0)]), vectors
            hits += 1
        else:
            assert got is None, vectors
    assert hits > 40


@pytest.mark.parametrize("order", ["u first", "Sn*u first"])
def test_sn_multiple_keeps_the_row_of_least_power(order):
    """{u, S_n u} with u on (0,0) alone: u spans S_n u but not the other
    way round, so P is u, whichever row comes first."""
    u = {(0, 0): {1: [1, 2], 0: [-3, 5]}}
    su = sn_multiple(u, [1], 1)
    assert su == {(0, 0): {2: [3, 2], 1: [2, 5]}}
    rows = [u, su] if order == "u first" else [su, u]
    p, diag = eliminate_shifts(rows)
    assert p == UniOperator(u[(0, 0)])
    assert (diag["vectors"], diag["sn_multiples"], diag["reductions"]) == (2, 1, 0)


@pytest.fixture(scope="module")
def bench_generators(kreweras_oracle):
    """The transfer operator and the certified candidates at the benchmark's
    Kreweras bounds."""
    t = trivial_operator(KREWERAS)
    template = build_template(Bounds(2, 2, 2, 4, 1, 1, 2), "full")
    candidates = guess_operators(template, kreweras_oracle)
    return [t] + [c for c in candidates if certify_operator(c, t, kreweras_oracle).certified]


def test_bench_bounds_module_drops_sn_multiples(bench_generators):
    """At the benchmark's Kreweras bounds each of the three order-3
    annihilators is also guessed as S_n times itself: 12 of the 25 module
    vectors are S_n-multiples, and the echelon takes 92 steps instead of
    212 for the same P."""
    vectors, _ = generate_module(bench_generators, multiplier_bound=1)
    p, diag = eliminate_shifts(vectors)
    assert (diag["vectors"], diag["sn_multiples"], diag["reductions"]) == (25, 12, 92)
    pivots, reductions, _ = eliminate._echelonize([_row_normalize(v) for v in vectors])
    assert reductions == 212
    assert p == UniOperator(pivots[(0, 0)][(0, 0)])
    assert p.order() == 9


def test_eliminate_shifts_counts_reductions_and_row_gcds(kreweras_certified, monkeypatch):
    """The full Kreweras module: 28 vectors, 524 reduction steps, and one
    row gcd per vector and per stored pivot (65), not one per step; the
    reported count is the number of ``_row_normalize`` calls made."""
    calls = []

    def counting(row):
        calls.append(row)
        return _row_normalize(row)

    monkeypatch.setattr(eliminate, "_row_normalize", counting)
    vectors, _ = generate_module(kreweras_certified)
    _, diag = eliminate_shifts(vectors)
    assert (diag["vectors"], diag["positions"]) == (28, 16)
    assert diag["sn_multiples"] == 0
    assert (diag["reductions"], diag["row_gcds"]) == (524, 65)
    assert len(calls) == 65


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
    # the one stored form is the cleared one, so a recurrence equals its
    # nonzero rational multiples
    p = UniOperator({1: [2, 4], 0: [8]})
    assert p.cleared() == {1: [1, 2], 0: [4]}
    assert p == UniOperator({1: [1, 2], 0: [4]}) == UniOperator({1: [-2, -4], 0: [-8]})
    assert hash(p) == hash(UniOperator({1: [-1, -2], 0: [-4]}))
    assert UniOperator({1: [0, 0], 0: [3, 0]}).cleared() == {0: [1]}
    assert UniOperator.__slots__ == ("_terms",)


def test_uni_equal_to_its_rational_multiples():
    rng = random.Random(110)
    for _ in range(200):
        terms = {k: random_ipoly(rng, max_deg=3, max_coeff=50) for k in rng.sample(range(5), 3)}
        u = UniOperator(terms)
        c = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        scaled = UniOperator({k: [c * x for x in p] for k, p in terms.items()})
        assert scaled == u and hash(scaled) == hash(u), (terms, c)
        cleared = u.cleared()
        assert cleared[u.order()][-1] > 0
        assert math.gcd(*(x for p in cleared.values() for x in p)) == 1


def test_uni_cleared_is_copied():
    p = UniOperator(P0.cleared())
    seq = [1, 1, 2, 5, 14, 42, 132]
    for n in range(4):
        p.apply_to_sequence(seq, n)
    assert p.leading_cleared() == [54, 21, 2]
    first = p.cleared()
    first[3].append(99)
    first.pop(0)
    p.leading_cleared().append(99)
    assert p.cleared() == {3: [54, 21, 2], 0: [-108, -162, -54]}


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
    # Sn - 1 with power 1 stated as both 5 and 1: the file contradicts
    # itself, whichever copy a reader would keep
    data = uni_to_json(UniOperator({1: [1], 0: [-1]}))
    data["cleared"] = [
        {"power": 1, "coeffs": ["5"]}, {"power": 1, "coeffs": ["1"]}, {"power": 0, "coeffs": ["-1"]}
    ]
    with pytest.raises(ValueError, match="duplicate cleared power 1"):
        uni_from_json(data)
    del data["cleared"][0]
    assert uni_from_json(data) == UniOperator({1: [1], 0: [-1]})


@pytest.mark.parametrize(
    "where, value",
    [("power", 3.9), ("power", "3.0"), ("power", True), ("cleared-power", 3.5),
     ("cleared-coeff", -108.0), ("cleared-coeff", "-108.5"), ("cleared-coeff", "1_0")],
)
def test_uni_json_integer_fields_are_not_truncated(where, value):
    # "power": 3.9 once loaded as 3, and a cleared coefficient -108.0 as -108
    data = uni_to_json(P0)
    if where == "power":
        target, key = data["terms"][1], "power"
    elif where == "cleared-power":
        target, key = data["cleared"][1], "power"
    else:
        target, key = data["cleared"][0]["coeffs"], 0
    target[key] = value
    with pytest.raises(ValueError, match="expected an integer"):
        uni_from_json(data)
    # ints and decimal strings are read
    target[key] = {"power": "3", "cleared-power": 3, "cleared-coeff": -108}[where]
    assert uni_from_json(data) == P0


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
    assert op.cleared() == {1: [2, 2], 0: [0, 1]}


@pytest.mark.parametrize(
    "num, den, message",
    [
        (["1"], ["0"], "power 2: zero denominator"),
        (["1"], ["0", "0"], "power 2: zero denominator"),
        (["1/0"], ["1"], "power 2: bad number"),
        (["1"], ["x"], "power 2: bad number"),
        ([0.1], ["1"], "power 2: bad number"),
        (["1"], [True], "power 2: bad number"),
    ],
    ids=["zero-den", "zero-den-poly", "div-by-zero", "not-a-number", "float", "bool"],
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
        assert cleared == fraction_cleared(terms), terms
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
