"""Quarter-plane walk enumeration.

A walk family is given by a set of unit steps.  One level-by-level
dynamic program, ``_next_level``, gives the counts f(n; i, j) of n-step
walks from the origin to (i, j) that never leave the first quadrant, with
exact big-integer entries.  ``CountTable`` keeps every level and answers
zero-extended queries (0 outside the quadrant, 0 beyond the light cone
i > n or j > n); ``cached_table`` keeps one such table per step set for
the life of the process and deepens it on request; ``origin_sequence``
streams f(n; 0, 0) holding two levels at a time.  ``trivial_operator``
builds the shift operator that encodes the one-step transfer recurrence
of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import MultiPoly
from . import ore

# The eight unit directions, in canonical listing order.
DIRECTIONS = {
    "E": (1, 0),
    "W": (-1, 0),
    "N": (0, 1),
    "S": (0, -1),
    "NE": (1, 1),
    "NW": (-1, 1),
    "SE": (1, -1),
    "SW": (-1, -1),
}
_CANONICAL_ORDER = ("E", "W", "N", "S", "NE", "NW", "SE", "SW")
_NAME_OF = {v: k for k, v in DIRECTIONS.items()}


class StepSetParseError(ValueError):
    """Raised for an unknown, duplicate, or missing step token."""


@dataclass(frozen=True)
class StepSet:
    """A nonempty subset of the eight unit directions."""

    steps: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not self.steps:
            raise StepSetParseError("empty step set")
        for s in self.steps:
            if s not in _NAME_OF:
                raise StepSetParseError(f"not a unit direction: {s}")

    @property
    def canonical(self) -> str:
        names = [name for name in _CANONICAL_ORDER if DIRECTIONS[name] in self.steps]
        return ",".join(names)

    def sorted_steps(self) -> list[tuple[int, int]]:
        return [DIRECTIONS[n] for n in _CANONICAL_ORDER if DIRECTIONS[n] in self.steps]

    def __iter__(self):
        return iter(self.sorted_steps())

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return f"StepSet({self.canonical})"


def parse_step_set(text: str) -> StepSet:
    """Parse a comma-separated list of direction names (E, W, N, S, NE, NW, SE, SW)."""
    tokens = [t.strip() for t in text.split(",")]
    seen = []
    for tok in tokens:
        if not tok:
            raise StepSetParseError("empty step token")
        if tok not in DIRECTIONS:
            raise StepSetParseError(f"unknown step token: {tok!r}")
        if tok in seen:
            raise StepSetParseError(f"duplicate step token: {tok!r}")
        seen.append(tok)
    return StepSet(frozenset(DIRECTIONS[t] for t in seen))


GESSEL = parse_step_set("E,W,NE,SW")
KREWERAS = parse_step_set("W,S,NE")


class OracleRangeError(LookupError):
    """A query needs table levels that have not been built."""

    def __init__(self, needed: int, have: int):
        super().__init__(f"oracle covers n <= {have}, query needs n = {needed}")
        self.needed = needed
        self.have = have


def _next_level(prev: list[list[int]], steps: list[tuple[int, int]]) -> list[list[int]]:
    """One step of the dynamic program: level n+1 from the (n+1) x (n+1)
    grid of level n.  A walk into (i, j) arrives by a step (dx, dy) from
    (i-dx, j-dy); steps that would leave the quadrant are dropped."""
    size = len(prev) + 1
    cur = [[0] * size for _ in range(size)]
    for pi in range(size - 1):
        row = prev[pi]
        for pj in range(size - 1):
            v = row[pj]
            if v:
                for dx, dy in steps:
                    ti, tj = pi + dx, pj + dy
                    if 0 <= ti and 0 <= tj:
                        cur[ti][tj] += v
    return cur


class CountTable:
    """The walk oracle: levels 0..n_max of exact counts f(n; i, j), level n
    stored as an (n+1) x (n+1) grid.

    ``value`` zero-extends the counts: 0 outside the quadrant and beyond
    the light cone i > n or j > n.  Queries past ``n_max`` raise
    ``OracleRangeError``; ``extend`` builds deeper levels in place.
    """

    def __init__(self, step_set: StepSet, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.step_set = step_set
        self.levels = [[[1]]]
        self.n_max = 0
        self.extend(n_max)

    def extend(self, n_max: int) -> "CountTable":
        """Build the levels up to n_max; levels already built are kept."""
        steps = self.step_set.sorted_steps()
        while self.n_max < n_max:
            self.levels.append(_next_level(self.levels[-1], steps))
            self.n_max += 1
        return self

    def value(self, n: int, i: int, j: int) -> int:
        if n < 0 or i < 0 or j < 0:
            return 0
        if i > n or j > n:
            return 0
        if n > self.n_max:
            raise OracleRangeError(n, self.n_max)
        return self.levels[n][i][j]


def origin_sequence(step_set: StepSet, n_max: int) -> list[int]:
    """The sequence f(n; 0, 0) for n = 0..n_max, streamed level by level.

    Only two levels are held at once, so this scales to n_max in the
    hundreds where retaining a full table would not.
    """
    steps = step_set.sorted_steps()
    level = [[1]]
    out = [1]
    for _ in range(n_max):
        level = _next_level(level, steps)
        out.append(level[0][0])
    return out


_TABLES: dict[StepSet, CountTable] = {}


def cached_table(step_set: StepSet, n_max: int) -> CountTable:
    """The process-wide table of the step set, extended in place to at
    least n_max.  A table deeper than asked for is returned as it is;
    tables only grow, so a caller never sees a value change."""
    table = _TABLES.get(step_set)
    if table is None:
        table = _TABLES[step_set] = CountTable(step_set, n_max)
    return table.extend(n_max)


def trivial_operator(step_set: StepSet) -> "ore.OreOperator":
    """The transfer-recurrence annihilator of the walk counts.

    With a = max(0, max dx) and b = max(0, max dy) over the steps, the
    operator is  S_n S_i^a S_j^b - sum over steps of S_i^(a-dx) S_j^(b-dy);
    all exponents are nonnegative by the choice of a and b.  Applied to the
    zero-extended counts it vanishes on the whole quadrant, because every
    walk into a target cell arrives by one of the steps and contributions
    from outside the quadrant are zero on both sides.
    """
    steps = step_set.sorted_steps()
    a = max(0, max(dx for dx, _ in steps))
    b = max(0, max(dy for _, dy in steps))
    terms = {(1, a, b): MultiPoly.const(1)}
    for dx, dy in steps:
        key = (0, a - dx, b - dy)
        cur = terms.get(key, MultiPoly.zero())
        terms[key] = cur - MultiPoly.const(1)
    return ore.OreOperator(terms)


def table_to_json(table: CountTable) -> dict:
    """The table as JSON with decimal-string entries, exact beyond 2^53."""
    return {
        "steps": table.step_set.canonical,
        "nMax": table.n_max,
        "levels": [
            [[str(v) for v in row] for row in level] for level in table.levels
        ],
    }
