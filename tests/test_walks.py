import json
from itertools import combinations

import pytest
from click.testing import CliRunner

from quarterwalks import (
    GESSEL,
    KREWERAS,
    Box,
    CountTable,
    StepSetParseError,
    cached_table,
    origin_sequence,
    parse_step_set,
    trivial_operator,
)
from quarterwalks.cli import main
from quarterwalks.closedform import gessel_rhs, kreweras_rhs
from quarterwalks.ore import OreOperator
from quarterwalks.walks import DIRECTIONS, StepSet, _origin_widths

from naive_oracles import (
    brute_force_counts,
    brute_force_value,
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


def test_trivial_operator_gessel_display():
    t = trivial_operator(GESSEL)
    assert t.support() == [(0, 0, 0), (0, 0, 1), (0, 2, 1), (0, 2, 2), (1, 1, 1)]
    assert t.terms[(1, 1, 1)].constant_value() == 1
    for exp in [(0, 0, 0), (0, 0, 1), (0, 2, 1), (0, 2, 2)]:
        assert t.terms[exp].constant_value() == -1


def test_trivial_operator_kreweras_annihilates():
    t = trivial_operator(KREWERAS)
    assert t.support() == [(0, 0, 0), (0, 1, 2), (0, 2, 1), (1, 1, 1)]
    oracle = CountTable(KREWERAS, 13)
    assert t.is_zero_on(oracle, Box.cube(12))


def test_trivial_operator_single_step():
    t = trivial_operator(parse_step_set("E"))
    assert t == OreOperator(
        {(1, 1, 0): 1, (0, 0, 0): -1}
    )


def test_trivial_operator_annihilates_gessel():
    t = trivial_operator(GESSEL)
    oracle = CountTable(GESSEL, 13)
    assert t.is_zero_on(oracle, Box.cube(12))


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
    for step_set in (GESSEL, KREWERAS):
        table = CountTable(step_set, 60)
        assert origin_sequence(step_set, 60) == [table.value(n, 0, 0) for n in range(61)]


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
    assert gessel == [gessel_rhs(n // 2) if n % 2 == 0 else 0 for n in range(301)]
    assert kreweras_diagonal_500 == [
        kreweras_rhs(n // 3) if n % 3 == 0 else 0 for n in range(501)
    ]


def test_origin_widths_keep_every_returning_cell():
    """The kept widths of level n are, row by row, 1 + the largest j whose
    cell can return to the origin within n_max - n steps, capped at the
    light cone; so every such cell is kept.  A return of at most n_max
    steps from a cell of [0, n_max]^2 stays in [0, 2 n_max]^2, where the
    search's distances are exact."""
    for step_set in ALL_STEP_SETS:
        steps = step_set.sorted_steps()
        for n_max in (0, 1, 6, 14):
            dist = return_distances(steps, 2 * n_max + 1)
            widths = _origin_widths(steps, n_max)
            assert len(widths) == n_max + 1
            for n in range(n_max + 1):
                want = [0] * (n + 1)
                for (i, j), d in dist.items():
                    if i <= n and d <= n_max - n:
                        want[i] = max(want[i], min(j + 1, n + 1))
                while want and not want[-1]:
                    want.pop()
                assert widths[n] == want, (step_set, n_max, n)
                for (i, j), d in dist.items():
                    if i <= n and j <= n and d <= n_max - n:
                        assert i < len(widths[n]) and j < widths[n][i]


def test_origin_sequence_rejects_negative_n_max():
    assert origin_sequence(GESSEL, 0) == [1]
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        origin_sequence(GESSEL, -1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        CountTable(GESSEL, -1)


def test_extend_matches_direct_build():
    for step_set in (GESSEL, KREWERAS):
        table = CountTable(step_set, 10)
        assert table.extend(40) is table
        assert table.n_max == 40
        assert table.levels == CountTable(step_set, 40).levels


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
    r = CliRunner().invoke(
        main, ["table", "--steps", "E,W,NE,SW", "--n-max", "40", "--out", str(out)],
        catch_exceptions=False,
    )
    assert r.exit_code == 0 and r.output.strip() == str(out)
    data = json.loads(out.read_text())
    table = CountTable(GESSEL, 40)
    assert any(v > 2**53 for row in table.levels[40] for v in row)
    assert isinstance(data["levels"][40][0][0], str)
    assert data["steps"] == "E,W,NE,SW" and data["nMax"] == 40
    assert [[[int(v) for v in row] for row in level] for level in data["levels"]] == table.levels
