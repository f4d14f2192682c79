import functools
import math
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
    parse_step_set,
    trivial_operator,
)
from quarterwalks import guess as guess_module
from quarterwalks.cli import parse_bounds
from quarterwalks.guess import _blocks, _kernel_mod, _primes, _ratrec, _vanishes_mod

from naive_oracles import brute_force_counts, fraction_nullspace, modp_kernel
from test_ore import ReadLog

T = trivial_operator(GESSEL)
T_SUPPORT = tuple(sorted(T.terms))
T_VECTOR = tuple(T.terms[t] for t in T_SUPPORT)


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


@pytest.mark.parametrize("steps", ["E,W,NE,SW", "W,S,NE", "E,W,N,S"])
@pytest.mark.parametrize("shape", ["full", "quasiholonomic"])
def test_assemble_matches_definition_entrywise(steps, shape):
    # entry (n, i, j) x (e1, ..., e6) is n^e1 i^e2 j^e3 f(n + e4, i + e5, j + e6),
    # with f the enumerated counts, zero off the quadrant and past the
    # light cone; the points include n = 0, i = 0, j = 0 and i, j > n
    step_set = parse_step_set(steps)
    counts = functools.cache(lambda n: brute_force_counts(step_set.sorted_steps(), n))

    def f(n, i, j):
        return counts(n).get((i, j), 0) if min(n, i, j) >= 0 else 0

    rng = random.Random(f"{steps} {shape}")
    points = [(n, i, j) for n in range(5) for i in range(7) for j in range(7)]
    for _ in range(3):
        caps = [rng.randint(0, 2) for _ in range(3)] + [rng.randint(0, 2) for _ in range(3)]
        tpl = build_template(Bounds(*caps), shape)
        table = CountTable(step_set, 0)
        matrix = assemble_system(tpl, table, points).matrix
        assert len(matrix) == len(points)
        for (n, i, j), row in zip(points, matrix):
            want = [
                n**e1 * i**e2 * j**e3 * f(n + e4, i + e5, j + e6)
                for e1, e2, e3, e4, e5, e6 in tpl.support
            ]
            assert row == want, (caps, (n, i, j))
            assert all(type(x) is int for x in row)


def _count_kernel_mod(monkeypatch):
    """Record (rows, width) of every `_kernel_mod` call the solver makes."""
    calls = []

    def counting(rows, width, p):
        calls.append((len(rows), width))
        return _kernel_mod(rows, width, p)

    monkeypatch.setattr(guess_module, "_kernel_mod", counting)
    return calls


@pytest.mark.parametrize(
    "steps, shape, bounds, rows, cols, blocks, kernel, kept",
    [
        pytest.param(
            "E,W,NE,SW", "quasiholonomic",
            "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=2,ord_sj=2,total=2",
            425, 264, [(208, 132), (214, 132)], 21, 0, id="gessel-qh-guess",
        ),
        pytest.param(
            "W,S,NE", "full",
            "deg_n=2,deg_i=2,deg_j=2,ord_sn=4,ord_si=1,ord_sj=1,total=2",
            350, 200, [(113, 60), (115, 70), (116, 70)], 6, 6, id="kreweras-prove",
        ),
    ],
)
def test_benchmark_guessing_systems(
    monkeypatch, steps, shape, bounds, rows, cols, blocks, kernel, kept
):
    # the two guessing systems the benchmark solves: their sizes, block
    # split and kernel, solved on the square subsystems alone
    calls = _count_kernel_mod(monkeypatch)
    tpl = build_template(parse_bounds(bounds), shape)
    plan = plan_points(tpl)
    oracle = CountTable(parse_step_set(steps), 0)
    system = assemble_system(tpl, oracle, plan.points)
    basis = nullspace(system)
    assert (len(system.matrix), len(tpl)) == (rows, cols)
    found = [(len(r), len(c)) for r, c in _blocks(system.matrix, cols) if r]
    assert found == blocks
    assert len(basis) == kernel
    assert len(filter_candidates(basis, tpl, oracle, plan.fresh_points)) == kept
    assert calls and all(n <= width for n, width in calls)


@pytest.mark.parametrize(
    "steps, shape, bounds, assembled",
    [
        ("E,W,NE,SW", "quasiholonomic",
         "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=2,ord_sj=2,total=2", 0),
        ("W,S,NE", "full", "deg_n=2,deg_i=2,deg_j=2,ord_sn=4,ord_si=1,ord_sj=1,total=2", 1),
    ],
    ids=["gessel-qh-guess", "kreweras-prove"],
)
def test_filter_assembles_fresh_rows_once_and_only_when_needed(
    monkeypatch, steps, shape, bounds, assembled
):
    """The fresh points' system is assembled once, when the first vector
    reaches that check: on the Gessel quasi-holonomic system none does
    (every kernel vector vanishes at i = j = 0), so no cell at the fresh
    points' levels is read.  The candidates are those that vanish at
    every fresh point, point by point."""
    tpl = build_template(parse_bounds(bounds), shape)
    plan = plan_points(tpl)
    oracle = CountTable(parse_step_set(steps), 0)
    basis = nullspace(assemble_system(tpl, oracle, plan.points))
    calls = []

    def counting(template, oracle, points):
        calls.append(len(points))
        return assemble_system(template, oracle, points)

    monkeypatch.setattr(guess_module, "assemble_system", counting)
    log = ReadLog(oracle)
    kept = filter_candidates(basis, tpl, log, plan.fresh_points)
    assert calls == [len(plan.fresh_points)] * assembled
    fresh_level = min(n for n, _, _ in plan.fresh_points)
    assert any(n >= fresh_level for n, _, _ in log.reads) == bool(assembled)
    want = {}
    for vec in basis:
        op = tpl.materialize(vec)
        if shape == "quasiholonomic" and op.substitute_zero(("i", "j")).is_zero():
            continue
        if all(op.apply_at(oracle, *pt) == 0 for pt in plan.fresh_points):
            want[op.normalized()] = None
    assert kept == list(want)


def test_nullspace_trivial_cases():
    assert nullspace([[1, 0], [0, 1]]) == []
    basis = nullspace([[1, 1]])
    assert basis == [(1, -1)] and all(type(x) is int for x in basis[0])


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


def _cleared(row):
    """A rational row scaled by the lcm of its denominators: integers
    with the same kernel, which is what the solver takes."""
    d = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(x * d) for x in row]


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
        basis = nullspace([_cleared(row) for row in m])
        assert basis == fraction_nullspace(m), (trial, m)
        assert all(type(x) is int for v in basis for x in v)


def test_ratrec_returns_lowest_terms_with_positive_denominator():
    p, q = _first_prime(1), _first_prime(2)
    m = p * q
    rng = random.Random(43)
    for _ in range(200):
        x = Fraction(rng.randint(-2**20, 2**20), rng.randint(1, 2**20))
        u = x.numerator * pow(x.denominator, -1, m) % m
        assert _ratrec(u, m) == (x.numerator, x.denominator)
    # b/a is past sqrt(m / 2), and no smaller fraction is congruent to it
    a, b = 2**41 + 15, 2**40 + 3
    assert _ratrec(b * pow(a, -1, m) % m, m) is None


def _first_prime(width):
    """The first prime the solver uses when the widest block of the
    matrix has `width` columns."""
    return next(_primes(width))


def test_nullspace_unlucky_prime_lower_rank():
    # full rank over Q, rank 1 modulo the first prime
    p1 = _first_prime(1)  # two 1x1 blocks
    assert nullspace([[p1, 0], [0, 1]]) == fraction_nullspace([[p1, 0], [0, 1]]) == []
    p1 = _first_prime(3)
    m = [[1, 1, 1], [1, 1 + p1, 1]]
    assert nullspace(m) == fraction_nullspace(m) == [(1, 0, -1)]


def test_nullspace_unlucky_prime_same_rank():
    # rank 2 modulo the first prime too, but with the pivots {0, 2} or
    # {1, 2} there instead of the rational {0, 1}
    p1 = _first_prime(3)
    for m in ([[1, 1, 0], [p1, 0, 1]], [[p1, 0, 1], [0, 1, 1]]):
        assert nullspace(m) == fraction_nullspace(m), m
    assert nullspace([[1, 1, 0], [p1, 0, 1]]) == [(1, -1, -p1)]


def test_nullspace_needs_several_primes():
    # the kernel entry b/a, near 2^40 / 2^41, cannot be reconstructed from
    # one or two primes below 2^32 (reconstruction reaches sqrt(m / 2))
    a, b = 2**41 + 15, 2**40 + 3
    m = [[a, b, 0], [0, 1, 1]]
    assert nullspace(m) == fraction_nullspace(m)
    assert nullspace(m) == [(b, -a, a)]


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


def _scatter(rng, blocks, zero_rows, zero_cols, keep_row_order=False):
    """A matrix made of `blocks` on the diagonal, with zero rows and zero
    columns added and its rows and columns permuted at random, and the
    column set each block landed on.  With `keep_row_order` the rows of
    each block keep their order, interleaved with the others."""
    nrows = sum(len(b) for b in blocks) + zero_rows
    ncols = sum(len(b[0]) for b in blocks) + zero_cols
    row_at, col_at = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    if keep_row_order:
        r0 = 0
        for b in blocks:
            row_at[r0 : r0 + len(b)] = sorted(row_at[r0 : r0 + len(b)])
            r0 += len(b)
    m = [[0] * ncols for _ in range(nrows)]
    groups, r0, c0 = [], 0, 0
    for b in blocks:
        for r, row in enumerate(b):
            for c, x in enumerate(row):
                m[row_at[r0 + r]][col_at[c0 + c]] = x
        groups.append(sorted(col_at[c0 : c0 + len(b[0])]))
        r0, c0 = r0 + len(b), c0 + len(b[0])
    return m, groups


def test_nullspace_block_split_matches_fraction_oracle():
    rng = random.Random(17)
    nonzero = [x for x in range(-6, 7) if x]
    for trial in range(80):
        blocks = []
        for _ in range(rng.randint(1, 4)):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            b = [[rng.choice(nonzero) for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 0.4:
                b[-1] = [3 * x for x in b[0]]
            if rng.random() < 0.3:
                b[0] = [Fraction(x, rng.randint(1, 9)) for x in b[0]]
            blocks.append(b)
        m, groups = _scatter(rng, blocks, rng.randint(0, 2), rng.randint(0, 2))
        ints = [_cleared(row) for row in m]
        # blocks without zero entries are connected, so the split finds them exactly
        found = [cols for rows, cols in _blocks(ints, len(m[0])) if rows]
        assert sorted(found) == sorted(groups), (trial, m)
        assert nullspace(ints) == fraction_nullspace(m), (trial, m)


def _square_block(rng, cols, extra, bottom_rank, spanned_top=False):
    """A block of cols + extra rows whose last `cols` rows have rank at
    most `bottom_rank`: combinations of `bottom_rank` random rows.  The
    first `extra` rows are random, or with `spanned_top` combinations of
    the same rows, so that the whole block has the rank of its last rows."""
    nonzero = [x for x in range(-6, 7) if x]
    base = [[rng.choice(nonzero) for _ in range(cols)] for _ in range(bottom_rank)]

    def combination():
        coef = [rng.choice((1, 2, 3)) for _ in base]
        return [sum(a * b[c] for a, b in zip(coef, base)) for c in range(cols)]

    top = [
        combination() if spanned_top else [rng.choice(nonzero) for _ in range(cols)]
        for _ in range(extra)
    ]
    return top + [combination() for _ in range(cols)]


def _rank(m):
    return len(m[0]) - len(fraction_nullspace(m))


@pytest.mark.parametrize("screen", [True, False], ids=["mod-p-screen", "exact-check"])
def test_nullspace_falls_back_when_last_rows_fall_short(monkeypatch, screen):
    # the last `cols` rows of a block have a larger kernel than the block:
    # the solver must notice it and solve the block again on all its rows,
    # from the mod-p screen or, with the screen passing everything, from
    # the exact check of a reconstructed vector
    verdicts = []

    def screened(*args):
        verdicts.append(_vanishes_mod(*args))
        return verdicts[-1] or not screen

    monkeypatch.setattr(guess_module, "_vanishes_mod", screened)
    rng = random.Random(31)
    trials = 0
    while trials < 25:
        cols, extra = rng.randint(2, 5), rng.randint(1, 3)
        block = _square_block(rng, cols, extra, rng.randint(1, cols - 1))
        if any(0 in row for row in block) or _rank(block) <= _rank(block[extra:]):
            continue
        trials += 1
        other = [[rng.choice((1, -2, 3, 5)) for _ in range(3)] for _ in range(2)]
        m, _ = _scatter(rng, [block, other], rng.randint(0, 1), rng.randint(0, 1), True)
        calls = _count_kernel_mod(monkeypatch)
        verdicts.clear()
        assert nullspace(m) == fraction_nullspace(m), m
        assert (cols + extra, cols) in calls, (calls, m)
        assert False in verdicts, m


def test_nullspace_square_subsystem_suffices(monkeypatch):
    # the last `cols` rows already have the block's kernel, full or not:
    # no block is solved on all its rows
    rng = random.Random(37)
    trials, kernels = 0, 0
    while trials < 25:
        cols, extra = rng.randint(2, 5), rng.randint(1, 3)
        block = _square_block(rng, cols, extra, rng.randint(1, cols), rng.random() < 0.6)
        if any(0 in row for row in block) or _rank(block[extra:]) != _rank(block):
            continue
        trials += 1
        kernels += _rank(block) < cols
        m, _ = _scatter(rng, [block], rng.randint(0, 1), rng.randint(0, 1), True)
        calls = _count_kernel_mod(monkeypatch)
        assert nullspace(m) == fraction_nullspace(m), m
        assert calls and all(n <= width for n, width in calls), (calls, m)
    assert kernels >= 5


def test_nullspace_unlucky_prime_in_one_block():
    # the first prime lowers the rank, or moves the pivots, of one block
    # only; the other block's residues from it must not be kept
    p1 = _first_prime(3)
    rng = random.Random(23)
    for unlucky in ([[1, 1, 1], [1, 1 + p1, 1]], [[1, 1, 0], [p1, 0, 1]], [[p1, 0, 1], [0, 1, 1]]):
        for lucky in ([[2, 3], [4, 5], [6, 8]], [[1, 2, 3], [2, 4, 7]], [[5, -7]]):
            m, _ = _scatter(rng, [unlucky, lucky], 1, 1)
            assert nullspace(m) == fraction_nullspace(m), m


def test_packed_rows_never_carry_at_the_widest_block():
    # Lazy reduction keeps a slot below p + width * (p - 1)^2.  Here every
    # head is 1 and every reduced pivot entry past its pivot is p - 1, so
    # each forward update adds the most it can, (p - 1)^2, to every slot;
    # the block is the widest the first prime for 40 columns admits, and
    # the last slot of the last rows ends within 2 (p - 1)^2 of 2^64.  A
    # carry between slots would change the residues.
    p = _first_prime(40)
    width = (2**64 - 1 - p) // (p - 1) ** 2
    assert width >= 40
    u = [[0] * k + [1] + [p - 1] * (width - k - 1) for k in range(width - 1)]
    rows = [[sum(col) % p for col in zip(*u[: k + 1])] for k in range(width - 1)]
    rows += [[sum(col) % p for col in zip(*u)]] * 2
    assert (width - 1) * (p - 1) ** 2 + p > 2**64 - 2 * (p - 1) ** 2
    assert _kernel_mod(rows, width, p) == modp_kernel(rows, p)


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
        [(1,)], const_tpl, gessel_oracle, plan.fresh_points
    )
    assert kept == []
    # the diagonal walk's kernel holds vectors W and n*W, which normalize
    # to one operator: it is kept once
    diagonal = CountTable(parse_step_set("NE,NW,SE,SW"), 0)
    tpl = build_template(Bounds(2, 2, 2, 3, 1, 1), "full")
    plan = plan_points(tpl)
    basis = nullspace(assemble_system(tpl, diagonal, plan.points))
    ops = filter_candidates(basis, tpl, diagonal, plan.fresh_points)
    assert len(basis) == 60
    assert len(ops) == len(set(ops)) == 51


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
