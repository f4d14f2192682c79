import json
import random
from itertools import combinations

import pytest
from conftest import run_cli

from quarterwalks import (
    GESSEL,
    KREWERAS,
    Box,
    CountTable,
    StepSetParseError,
    cached_table,
    evidence_check,
    origin_sequence,
    parse_step_set,
    trivial_operator,
    walk_count,
)
from quarterwalks.closedform import hypergeom_term
from quarterwalks.ore import OreOperator
from quarterwalks.walks import (
    DIRECTIONS,
    StepSet,
    _coset_offsets,
    _move_table,
    _reslot,
    _slot_bytes,
    _sweep,
    step_lattice,
)

from naive_oracles import (
    brute_force_counts,
    brute_force_value,
    bytewise_reslot,
    per_move_sweep,
    return_distances,
    scalar_levels,
)

# all 255 nonempty sets of unit steps
ALL_STEP_SETS = [
    StepSet(frozenset(chosen))
    for k in range(1, 9)
    for chosen in combinations(DIRECTIONS.values(), k)
]


def test_parse_gessel_and_kreweras():
    assert parse_step_set("E,W,NE,SW") == GESSEL
    assert parse_step_set("W,S,NE") == KREWERAS
    assert GESSEL.canonical == "E,W,NE,SW"
    assert KREWERAS.canonical == "W,S,NE"


def test_parse_errors_name_the_token():
    with pytest.raises(StepSetParseError, match="X"):
        parse_step_set("X")
    with pytest.raises(StepSetParseError, match="duplicate.*E"):
        parse_step_set("E,E")
    with pytest.raises(StepSetParseError, match="empty"):
        parse_step_set("E,,W")


def test_table_matches_brute_force_small():
    for step_set in (GESSEL, KREWERAS):
        table = CountTable(step_set, 6)
        steps = step_set.sorted_steps()
        for n in range(7):
            expected = brute_force_counts(steps, n)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert table.value(n, i, j) == expected.get((i, j), 0)


def test_frozen_origin_counts():
    # brute-force derived: Gessel f(2;0,0), f(4;0,0); Kreweras f(3;0,0)
    assert brute_force_value(GESSEL.sorted_steps(), 2, 0, 0) == 2
    assert brute_force_value(GESSEL.sorted_steps(), 4, 0, 0) == 11
    assert brute_force_value(KREWERAS.sorted_steps(), 3, 0, 0) == 2
    table = CountTable(GESSEL, 4)
    assert table.value(2, 0, 0) == 2
    assert table.value(4, 0, 0) == 11
    assert CountTable(KREWERAS, 3).value(3, 0, 0) == 2


def test_oracle_zero_extension_and_range():
    oracle = CountTable(GESSEL, 10)
    assert oracle.value(0, 0, 0) == 1
    assert oracle.value(5, -1, 2) == 0
    assert oracle.value(-1, 0, 0) == 0
    assert oracle.value(1, 0, 0) == 0  # odd length cannot return
    assert oracle.value(3, 7, 7) == 0  # beyond the light cone
    # reads that are zero by extension build nothing, however deep
    for n, i, j in ((-3, 0, 0), (40, -1, 0), (40, 0, -2), (40, 41, 0), (40, 3, 41)):
        assert oracle.value(n, i, j) == 0
    assert oracle.n_max == 10
    # a read past n_max deepens the table to the level it reads
    assert oracle.value(16, 2, 4) == CountTable(GESSEL, 16).value(16, 2, 4)
    assert oracle.n_max == 16
    assert oracle.levels == CountTable(GESSEL, 16).levels
    # ``levels`` is a decoded copy: writing into it leaves the counts alone
    grid = oracle.levels[4]
    grid[0][0] += 1
    assert oracle.value(4, 0, 0) == 11


def test_trivial_operator_gessel_display():
    t = trivial_operator(GESSEL)
    assert t.support() == [(0, 0, 0), (0, 0, 1), (0, 2, 1), (0, 2, 2), (1, 1, 1)]
    assert t.terms[(0, 0, 0, 1, 1, 1)] == 1
    for exp in [(0, 0, 0), (0, 0, 1), (0, 2, 1), (0, 2, 2)]:
        assert t.terms[(0, 0, 0) + exp] == -1


def test_trivial_operator_kreweras_annihilates():
    t = trivial_operator(KREWERAS)
    assert t.support() == [(0, 0, 0), (0, 1, 2), (0, 2, 1), (1, 1, 1)]
    oracle = CountTable(KREWERAS, 13)
    assert evidence_check(t, oracle, Box.cube(12))


def test_trivial_operator_single_step():
    t = trivial_operator(parse_step_set("E"))
    assert t == OreOperator({(0, 0, 0, 1, 1, 0): 1, (0, 0, 0, 0, 0, 0): -1})


def test_trivial_operator_annihilates_gessel():
    t = trivial_operator(GESSEL)
    oracle = CountTable(GESSEL, 13)
    assert evidence_check(t, oracle, Box.cube(12))


def test_row_sums_without_boundary():
    step_set = parse_step_set("E,N,NE")
    table = CountTable(step_set, 7)
    for n in range(8):
        total = sum(sum(row) for row in table.levels[n])
        assert total == 3**n


def test_parity_invariants():
    g = CountTable(GESSEL, 25)
    assert all(g.value(n, 0, 0) == 0 for n in range(1, 26, 2))
    k = CountTable(KREWERAS, 24)
    assert all(k.value(n, 0, 0) == 0 for n in range(25) if n % 3 != 0)


def test_origin_sequence_streams_match_table():
    # every step set whose walk DP skips a coset, checked past n = 30
    strided = [s for s in ALL_STEP_SETS if step_lattice(s)[2] > 1]
    assert len(strided) == 124 and GESSEL in strided and KREWERAS in strided
    for step_set in strided:
        table = CountTable(step_set, 60)
        want = [table.value(n, 0, 0) for n in range(61)]
        for n_max in (0, 1, 2, 60):
            assert origin_sequence(step_set, n_max) == want[: n_max + 1], (step_set, n_max)


@pytest.mark.parametrize(
    "steps", ["E,W,N,S", "E,W,N,S,NE,NW,SE,SW", "E,W,NE,SW", "W,S,NE", "NE,NW,SE,SW"]
)
def test_walk_count_matches_table(steps):
    # every cell to n = 25, with a border of negative and beyond-cone cells
    step_set = parse_step_set(steps)
    table = CountTable(step_set, 25)
    for n in range(-1, 26):
        for i in range(-1, n + 3):
            for j in range(-1, n + 3):
                assert walk_count(step_set, n, i, j) == table.value(n, i, j), (n, i, j)


def _lattice_pairs(steps, d):
    return [
        (alpha, beta)
        for alpha in range(d)
        for beta in range(d)
        if all((1 + alpha * dx + beta * dy) % d == 0 for dx, dy in steps)
    ]


def test_step_lattice_holds_on_every_nonzero_cell():
    for step_set in ALL_STEP_SETS:
        steps = step_set.sorted_steps()
        alpha, beta, d = step_lattice(steps)
        # the rule: largest d <= 4 with a pair, then the least pair
        assert (alpha, beta) == min(_lattice_pairs(steps, d)), step_set
        assert not any(_lattice_pairs(steps, e) for e in range(d + 1, 5)), step_set
        for n, level in enumerate(scalar_levels(steps, 12)):
            for i, row in enumerate(level):
                for j, v in enumerate(row):
                    if v:
                        assert (n + alpha * i + beta * j) % d == 0, (step_set, n, i, j)


def test_step_lattice_of_gessel_and_kreweras_is_unique():
    assert step_lattice(KREWERAS) == (1, 1, 3)
    assert step_lattice(GESSEL) == (1, 0, 2)
    for d in range(2, 13):
        assert _lattice_pairs(KREWERAS, d) == ([(1, 1)] if d == 3 else [])
        assert _lattice_pairs(GESSEL, d) == ([(1, 0)] if d == 2 else [])


def test_origin_sequence_matches_scalar_oracle_all_step_sets():
    # the pruning depends on n_max, so the prefix is checked at several depths
    assert len(ALL_STEP_SETS) == 255
    for step_set in ALL_STEP_SETS:
        want = [level[0][0] for level in scalar_levels(step_set.sorted_steps(), 30)]
        for n_max in (0, 1, 2, 3, 7, 30):
            assert origin_sequence(step_set, n_max) == want[: n_max + 1], (step_set, n_max)


def test_table_levels_match_scalar_oracle_all_step_sets():
    for step_set in ALL_STEP_SETS:
        assert CountTable(step_set, 12).levels == scalar_levels(step_set.sorted_steps(), 12), step_set


def test_origin_sequence_closed_forms(kreweras_diagonal_500):
    gessel = origin_sequence(GESSEL, 300)
    assert gessel == hypergeom_term("gessel").sequence(300)
    assert kreweras_diagonal_500 == hypergeom_term("kreweras").sequence(500)


def test_return_distance_is_at_least_the_larger_coordinate():
    """A unit step changes each coordinate by at most one, so a cell
    (i, j) is at least max(i, j) steps from the origin: the square
    max(i, j) <= min(n, n_max - n) that ``origin_sequence`` keeps at level
    n holds every cell of the light cone that can still return.  The
    search runs in [0, 29)^2, which holds every return of at most 14 steps
    from a cell of [0, 14]^2; so there a distance up to 14 is exact, and a
    larger one exceeds max(i, j) in any case."""
    for step_set in ALL_STEP_SETS:
        dist = return_distances(step_set.sorted_steps(), 29)
        for (i, j), d in dist.items():
            assert d >= max(i, j), (step_set, i, j)


def test_origin_sequence_rejects_negative_n_max():
    assert origin_sequence(GESSEL, 0) == [1]
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        origin_sequence(GESSEL, -1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        CountTable(GESSEL, -1)
    # the table's own check, on the path that finds it already built
    cached_table(GESSEL, 2)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        cached_table(GESSEL, -1)


def test_extend_matches_direct_build():
    # from n = 10 up to, onto and across the first word boundary past it
    # (level 32 of Gessel and level 41 of Kreweras need a second word)
    for step_set, boundary in ((GESSEL, 32), (KREWERAS, 41)):
        for n_max in (11, boundary - 1, boundary, boundary + 1, boundary + 8):
            table = CountTable(step_set, 10)
            slot = table._packed[-1][1]
            assert table.extend(n_max) is table
            assert table.n_max == n_max
            assert table.levels == CountTable(step_set, n_max).levels
            assert (table._packed[-1][1] > slot) == (n_max >= boundary), (step_set, n_max)


# one step set of each kind, with a depth past its third word boundary
PAST_RESLOTS = {
    GESSEL: 96,
    KREWERAS: 122,
    parse_step_set("E,W,N,S,NE,NW,SE,SW"): 64,
    parse_step_set("NE,SW"): 192,
}


def _slots_seen(steps, n_max):
    """The slot bytes of levels 0..n_max of the packed sweep (sizes do not
    enter the slot rule, so one cell a level is enough)."""
    sweep = _sweep(steps, step_lattice(steps), [1], 8, 0, [1] * n_max)
    return [8] + [slot for _, slot in sweep]


def test_packed_kernel_matches_scalar_oracle_past_reslots():
    for step_set, depth in PAST_RESLOTS.items():
        steps = step_set.sorted_steps()
        slots = _slots_seen(steps, depth)
        assert sum(a != b for a, b in zip(slots, slots[1:])) >= 3, step_set
        levels = scalar_levels(steps, depth)
        assert origin_sequence(step_set, depth) == [level[0][0] for level in levels], step_set
        assert CountTable(step_set, depth).levels == levels, step_set


def test_origin_levels_hold_returning_cells_in_kept_slots():
    """Each packed row of the origin sweep holds, in slot k, the scalar
    oracle's count at the k-th coset column of the row for every cell of
    the kept square, every cell that can still return to the origin
    among them, and nothing past the square."""
    for step_set in PAST_RESLOTS:
        steps = step_set.sorted_steps()
        alpha, beta, d = lattice = step_lattice(steps)
        n_max = 60
        dist = return_distances(steps, 2 * n_max + 1)
        levels = scalar_levels(steps, n_max)
        sizes = [min(n, n_max - n) + 1 for n in range(n_max + 1)]
        sweep = _sweep(steps, lattice, [1], 8, 0, sizes[1:])
        for n, (level, slot) in enumerate(sweep, 1):
            bits = 8 * slot
            size = sizes[n]
            assert len(level) == size
            for (i, j), dd in dist.items():
                if i <= n and j <= n and dd <= n_max - n:
                    assert i < size and j < size, (step_set, n, i, j)
            for i, row in enumerate(level):
                cols = [j for j in range(size) if (n + alpha * i + beta * j) % d == 0]
                assert row >> (len(cols) * bits) == 0, (step_set, n, i)
                for k, j in enumerate(cols):
                    assert row >> (k * bits) & ((1 << bits) - 1) == levels[n][i][j]


def test_slot_bytes_hold_every_count_and_reslot_once_per_word():
    """A slot of b bytes, whole 64-bit words, holds every count of level
    n, which is at most |S|^n, with no word to spare; every level of the
    sweep to n = 500 is held in exactly that slot, so the sweep re-slots
    once per word boundary it crosses."""
    directions = list(DIRECTIONS.values())
    for size in range(1, 9):
        for n in range(601):
            need = (size**n).bit_length()
            assert 8 * _slot_bytes(size, n) >= need > 8 * (_slot_bytes(size, n) - 8), (size, n)
        slots = _slots_seen(directions[:size], 500)
        assert slots == [_slot_bytes(size, n) for n in range(501)], size
        reslots = sum(a != b for a, b in zip(slots, slots[1:]))
        assert reslots == _slot_bytes(size, 500) // 8 - 1, size


def test_reslot_matches_bytewise_reference():
    """``_reslot`` copies words where the reference joins one bytes slice
    per slot; both must give the row whose slot k holds the old slot k."""
    for size in range(1, 9):
        for n in range(601):
            assert _slot_bytes(size, n) % 8 == 0, (size, n)
    rng = random.Random(34)
    assert _reslot(0, 8, 16) == 0
    for old_words, new_words in ((1, 2), (1, 5), (2, 3), (3, 7), (4, 5)):
        old, new = 8 * old_words, 8 * new_words
        for _ in range(40):
            k = rng.randint(1, 12)
            slots = [rng.getrandbits(rng.randint(0, 8 * old)) for _ in range(k)]
            zeros = rng.randint(0, k - 1)  # rows whose top slots are zero
            slots[k - zeros :] = [0] * zeros
            row = sum(v << 8 * old * s for s, v in enumerate(slots))
            wide = sum(v << 8 * new * s for s, v in enumerate(slots))
            assert _reslot(row, old, new) == bytewise_reslot(row, old, new) == wide
        top = (1 << 8 * old) - 1
        assert _reslot(top, old, new) == bytewise_reslot(top, old, new) == top


# the shapes of dy offsets, in slots, whose product the kernel shares
SHARED_SHAPES = {
    GESSEL: [(0, 1)],
    parse_step_set("NE,NW,SE,SW"): [(0, 1)],  # diagonal
    parse_step_set("E,W,NW,SE"): [(0, 1)],  # Gouyou-Beauchamps
    parse_step_set("E,W,N,S,NE,NW,SE,SW"): [(0, 1, 2)],  # king
    KREWERAS: [],
    parse_step_set("E,W,N,S"): [],  # simple
}


def _shared_shapes(steps):
    lattice = step_lattice(steps)
    stride, offsets = _coset_offsets(lattice)
    _, products, _ = _move_table(steps, lattice, offsets, stride, 1, 1)
    return [(0, *shifts) for shifts in products]


def test_factored_kernel_matches_per_move_reference():
    """Reading each shared product of the steps grouped by dx gives the
    same packed levels and slot bytes as one move per step, for all 255
    step sets: on a growing sweep one level past the first word boundary,
    on a shrinking origin sweep, and on a seeded sweep of random sizes,
    which reads rows above and below the source level."""
    for step_set, shapes in SHARED_SHAPES.items():
        assert _shared_shapes(step_set.sorted_steps()) == shapes, step_set
    assert sum(bool(_shared_shapes(s.sorted_steps())) for s in ALL_STEP_SETS) == 38
    rng = random.Random(35)
    for step_set in ALL_STEP_SETS:
        steps = step_set.sorted_steps()
        lattice = step_lattice(steps)
        boundary = next((n for n in range(1, 80) if _slot_bytes(len(steps), n) > 8), 8)
        origin = [min(m, 30 - m) + 1 for m in range(1, 31)]
        for sizes in (range(2, boundary + 3), origin, [rng.randint(1, 12) for _ in range(12)]):
            got = list(_sweep(steps, lattice, [1], 8, 0, sizes))
            assert got == list(per_move_sweep(steps, lattice, [1], 8, 0, sizes)), step_set


def test_cached_table_reuses_and_extends():
    step_set = parse_step_set("N,E,SW")
    table = cached_table(step_set, 6)
    depth = table.n_max
    assert cached_table(step_set, 3) is table
    assert table.n_max == depth
    assert cached_table(step_set, depth + 5) is table
    assert table.n_max == depth + 5
    assert table.levels == CountTable(step_set, depth + 5).levels


def test_table_json_round_trip_exact_over_2_53(tmp_path):
    # the table command's export, read back: decimal strings keep every
    # count exact where a JSON float would round
    out = tmp_path / "table.json"
    r = run_cli(["table", "--steps", "E,W,NE,SW", "--n-max", "40", "--out", str(out)])
    assert r.exit_code == 0 and r.output.strip() == str(out)
    data = json.loads(out.read_text())
    table = CountTable(GESSEL, 40)
    assert any(v > 2**53 for row in table.levels[40] for v in row)
    assert isinstance(data["levels"][40][0][0], str)
    assert data["steps"] == "E,W,NE,SW" and data["nMax"] == 40
    assert [[[int(v) for v in row] for row in level] for level in data["levels"]] == table.levels
