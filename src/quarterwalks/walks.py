"""Quarter-plane walk enumeration.

A walk family is given by a set of unit steps.  One level-by-level
dynamic program, ``_next_level``, gives the counts f(n; i, j) of n-step
walks from the origin to (i, j) that never leave the first quadrant, with
exact big-integer entries.  ``CountTable`` keeps every level and answers
zero-extended queries (0 outside the quadrant, 0 beyond the light cone
i > n or j > n), building deeper levels when a query reaches past them;
``cached_table`` keeps one such table per step set for the life of the
process.  ``origin_sequence`` computes f(n; 0, 0) for n <= N with the
same kernel, but at level n it sweeps only the cells that can still
return to the origin in the N - n steps left, and holds two levels at a
time.  ``trivial_operator`` builds the shift operator that encodes the
one-step transfer recurrence of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

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


def _next_level(
    prev: list[list[int]], steps: list[tuple[int, int]], widths: list[int]
) -> list[list[int]]:
    """One step of the dynamic program: level n+1 from level n.

    Row ti of the new level holds the columns 0..widths[ti]-1.  A walk into
    (ti, tj) arrives by a step (dx, dy) from (ti-dx, tj-dy), so row ti is
    the sum of the rows ti-dx of ``prev`` shifted by dy along j, each added
    as one list slice; source cells outside the quadrant or beyond the kept
    part of a row count as zero, and all-zero source rows are skipped.
    """
    live = [any(row) for row in prev]
    cur = []
    for ti, width in enumerate(widths):
        row = [0] * width
        fresh = True
        for dx, dy in steps:
            pi = ti - dx
            if 0 <= pi < len(prev) and live[pi]:
                src = prev[pi]
                lo = dy if dy > 0 else 0
                hi = min(width, len(src) + dy)
                if lo < hi:
                    if fresh:
                        row[lo:hi] = src[lo - dy : hi - dy]
                        fresh = False
                    else:
                        row[lo:hi] = map(add, row[lo:hi], src[lo - dy : hi - dy])
        cur.append(row)
    return cur


class CountTable:
    """The walk oracle: levels 0..n_max of exact counts f(n; i, j), level n
    stored as an (n+1) x (n+1) grid.

    ``value`` zero-extends the counts: 0 outside the quadrant and beyond
    the light cone i > n or j > n.  A query inside the cone but past
    ``n_max`` deepens the table in place to its level first, so the table
    sizes itself to what its callers read; ``extend`` pre-builds levels.
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
            size = self.n_max + 2
            self.levels.append(_next_level(self.levels[-1], steps, [size] * size))
            self.n_max += 1
        return self

    def value(self, n: int, i: int, j: int) -> int:
        if n < 0 or i < 0 or j < 0:
            return 0
        if i > n or j > n:
            return 0
        if n > self.n_max:
            self.extend(n)
        return self.levels[n][i][j]


def _origin_widths(steps: list[tuple[int, int]], n_max: int) -> list[list[int]]:
    """The kept row widths of levels 0..n_max in ``origin_sequence``.

    Entry [n][i] is min(n + 1, 1 + the largest j such that (i, j) can walk
    back to the origin in at most r = n_max - n steps without leaving the
    quadrant), or 0 if no such j, for the rows i <= min(n, r); trailing
    empty rows are dropped.  Row i of the reach set R_r is a bit mask over
    j, and R_(r+1) adds every quadrant cell c with c + s in R_r for some
    step s.  Each step lowers a coordinate by at most one, so R_r lies in
    the box [0..r]^2, and a sweep of rows 0..r computes it exactly.
    """
    reach = [1]
    by_r = [[1]]
    for r in range(1, n_max + 1):
        grown = []
        for i in range(r + 1):
            mask = reach[i] if i < r else 0
            for dx, dy in steps:
                k = i + dx
                if 0 <= k < r:
                    mask |= reach[k] >> dy if dy >= 0 else reach[k] << -dy
            grown.append(mask)
        reach = grown
        by_r.append([mask.bit_length() for mask in reach])
    out = []
    for n in range(n_max + 1):
        keep = [min(w, n + 1) for w in by_r[n_max - n][: n + 1]]
        while keep and not keep[-1]:
            keep.pop()
        out.append(keep)
    return out


def origin_sequence(step_set: StepSet, n_max: int) -> list[int]:
    """The sequence f(n; 0, 0) for n = 0..n_max, by a reach-pruned sweep.

    Level n keeps only a prefix of each row: the cells inside the light
    cone from which the origin can still be reached in the n_max - n steps
    that are left (``_origin_widths``).  Two levels are held at once.  Why
    the counts that matter are exact, with d(c) the fewest quadrant steps
    from a cell c back to the origin:

    - a cell at level n with d > n_max - n lies on no walk that is back at
      the origin by level n_max, so it feeds no f(m; 0, 0) with m <= n_max;
    - a predecessor c - s of a cell c at level n+1 with d(c) <= n_max-n-1
      has d(c - s) <= d(c) + 1 <= n_max - n, so it is kept at level n, or
      lies beyond the light cone, where the count is 0; by induction on n,
      every cell with d <= n_max - n is kept and exact, the origin among
      them at every level;
    - a kept prefix is a superset of the cells with d <= n_max - n; the
      extra cells may hold partial sums, but by the previous point they
      never feed a cell with d <= n_max - n - 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    steps = step_set.sorted_steps()
    level = [[1]]
    out = [1]
    for keep in _origin_widths(steps, n_max)[1:]:
        level = _next_level(level, steps, keep)
        out.append(level[0][0])
    return out


_TABLES: dict[StepSet, CountTable] = {}


def cached_table(step_set: StepSet, n_max: int = 0) -> CountTable:
    """The process-wide table of the step set, pre-built to at least
    n_max; reads deepen it further as they need.  A table deeper than
    asked for is returned as it is; tables only grow, so a caller never
    sees a value change."""
    table = _TABLES.get(step_set)
    if table is None:
        table = _TABLES[step_set] = CountTable(step_set, n_max)
    return table.extend(n_max)


def trivial_operator(step_set: StepSet) -> "ore.OreOperator":
    """The transfer-recurrence annihilator of the walk counts.

    With a = max(0, max dx) and b = max(0, max dy) over the steps, the
    operator is  S_n S_i^a S_j^b - sum over steps of S_i^(a-dx) S_j^(b-dy);
    all exponents are nonnegative by the choice of a and b.  Applied to the
    zero-extended counts it vanishes for n >= 0 on
    Omega = {i >= -a, j >= -b}, the set where its leading term
    f(n+1; i+a, j+b) reads a cell of the quadrant: every walk into that
    cell arrives by one of the steps, and contributions from outside the
    quadrant are zero on both sides.  Omega contains the quadrant; off
    Omega, T f = 0 is not claimed.
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
