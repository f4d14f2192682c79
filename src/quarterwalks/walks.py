"""Quarter-plane walk enumeration.

A walk family is given by a set of unit steps.  One level-by-level
dynamic program, ``_next_level``, gives the counts f(n; i, j) of n-step
walks from the origin to (i, j) that never leave the first quadrant, with
exact big-integer entries.  It builds only the cells of the step set's
residue lattice (``step_lattice``): each step keeps n + alpha*i + beta*j
fixed mod d, so every nonzero count lies on the coset of the origin, and
the cells off it stay 0 unbuilt.  The kernel packs each row's coset cells
into one integer, a fixed-width slot per cell (Kronecker substitution), so
a step adds a whole shifted source row in one big-integer operation; a
slot is the fewest 64-bit words that hold every count of its level, so no
sum carries out of its slot (``_slot_bytes``), and it widens a word at a
time by strided word copies (``_reslot``).
``CountTable`` keeps every level packed and decodes the one cell a query
reads, zero-extended (0 outside the quadrant, 0 beyond the light cone
i > n or j > n), building deeper levels when a query reaches past them;
``cached_table`` keeps one such table per step set for the life of the
process.  ``origin_sequence`` (f(n; 0, 0) for n <= N) and ``walk_count``
(one count f(n; i, j)) run the same kernel as one ``_square_sweep``, which
keeps at each level only the square of cells that can still reach a cell
read, where the table keeps the whole light cone, and holds two levels.
The module imports only ``records``; the transfer operator of a step
set is built in ``certify``, whose argument rests on it.
"""

from __future__ import annotations

from math import gcd

from .records import FrozenRecord

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


class StepSet(FrozenRecord):
    """A nonempty subset of the eight unit directions."""

    __slots__ = ("steps",)

    def __init__(self, steps: frozenset[tuple[int, int]]):
        self._init(steps)
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


def step_lattice(steps) -> tuple[int, int, int]:
    """The residue lattice (alpha, beta, d) of a step set: every nonzero
    count f(n; i, j) has n + alpha*i + beta*j = 0 (mod d).

    Each step (dx, dy) is required to satisfy 1 + alpha*dx + beta*dy = 0
    (mod d), so it keeps n + alpha*i + beta*j fixed mod d.  The origin at
    n = 0 lies on the coset, so by induction on n every reached cell does;
    a cell off it is 0, and is never a nonzero source.  Any triple with
    that property is exact, d = 1 trivially.

    The rule: the largest d <= 4 that admits one, then the least alpha,
    then the least beta, both in 0..d-1.  No larger d is lost on a step
    set whose vectors (1, dx, dy) span Z^3: for three independent ones,
    with M the matrix of their rows, M (1, alpha, beta) = 0 (mod d), so
    det M = 0 (mod d) after multiplying by adj M, and |det M| is twice
    the area of a triangle in [-1, 1]^2, at most 4.  When the steps lie on
    one line the bound merely stops the search.
    """
    for d in (4, 3, 2):
        for alpha in range(d):
            for beta in range(d):
                if all((1 + alpha * dx + beta * dy) % d == 0 for dx, dy in steps):
                    return alpha, beta, d
    return 0, 0, 1


def _coset_offsets(lattice: tuple[int, int, int]) -> tuple[int, list[int | None]]:
    """(stride, offsets) of the coset of ``lattice``: with
    g = gcd(beta, d), a row i of level n holds cells on the coset only if
    g divides c = n + alpha*i mod d, and then they are the columns
    offsets[c] + k*stride, stride = d/g, where beta*offsets[c] = -c
    (mod d); offsets[c] is None for the other c."""
    alpha, beta, d = lattice
    g = gcd(beta, d)
    stride = d // g
    inverse = pow(beta // g, -1, stride)
    return stride, [-(c // g) * inverse % stride if c % g == 0 else None for c in range(d)]


def _slot_bytes(size: int, n: int) -> int:
    """Bytes per slot that hold every cell of level n of a walk with
    ``size`` steps, in whole 64-bit words.  A cell of level n is the sum
    of at most ``size`` cells of level n-1, so by induction it is at most
    size**n, the sums in the slots cut off past a kept square included,
    and a sum of shifted rows never carries."""
    return ((size**n).bit_length() + 63) // 64 * 8


def _reslot(row: int, old: int, new: int) -> int:
    """A packed row with each slot widened from ``old`` to ``new`` bytes,
    both whole words: word w of every old slot is copied, in one strided
    copy, to word w of the new slot.  Words are copied, never read as
    values, so byte order does not matter."""
    k = -(-row.bit_length() // (8 * old))
    out = bytearray(new * k)
    src = memoryview(row.to_bytes(old * k, "little")).cast("Q")
    dst = memoryview(out).cast("Q")
    for w in range(old // 8):
        dst[w :: new // 8] = src[w :: old // 8]
    return int.from_bytes(out, "little")


def _move_table(
    steps: list[tuple[int, int]],
    lattice: tuple[int, int, int],
    offsets: list[int | None],
    stride: int,
    bits: int,
) -> list[list[tuple[int, int]] | None]:
    """The moves of ``_next_level``, per coset class c = n + alpha*ti
    (mod d) of a new row ti: for each step (dx, dy), the source row offset
    dx and the shift in bits that aligns the source row's slots with the
    new row's; None for a class off the coset.  A walk into (ti, tj)
    arrives by (dx, dy) from (ti-dx, tj-dy), which lies on the coset of
    level n-1 (each step keeps it), in a row with offset j0'.  So slot k
    of the new row, offset j0, reads slot k + s of the source row,
    s = (j0 - dy - j0') / stride, an integer in -1..1, and the shift is
    s * bits."""
    alpha, _, d = lattice
    return [
        [(dx, (j0 - dy - offsets[(c - 1 - alpha * dx) % d]) // stride * bits) for dx, dy in steps]
        if j0 is not None
        else None
        for c, j0 in enumerate(offsets)
    ]


def _next_level(
    prev: list[int],
    moves: list[list[tuple[int, int]] | None],
    kept: list[int],
    lattice: tuple[int, int, int],
    n: int,
    size: int,
) -> list[int]:
    """One step of the dynamic program: level n from level n-1.

    Both levels are held as packed rows: row i is one integer whose slot k
    holds f(i, j0 + k*stride), the k-th cell of the row on the coset of
    ``lattice`` (``_coset_offsets``, j0 = offsets[c]); a row off the coset
    is 0.  The new level keeps the square [0, size)^2: rows 0..size-1,
    each cut to its cells in columns 0..size-1, the low kept[c] bits of a
    row of coset class c.  The new row is the sum over its class's
    ``moves`` of the source rows shifted by their slot offsets, and a read
    left of column 0 is a zero shifted in.  Source rows past the end of
    ``prev`` count as zero.  The slots never carry (``_slot_bytes``), so
    the sum is exact cell by cell; it is masked to the kept slots only
    when its bit length overflows them.
    """
    alpha, _, d = lattice
    rows = len(prev)
    cur = []
    for ti in range(size):
        c = (n + alpha * ti) % d
        total = 0
        if moves[c] is not None:
            for dx, shift in moves[c]:
                pi = ti - dx
                if 0 <= pi < rows:
                    # a shift by 0, or an add to 0, would copy the whole row
                    src = prev[pi]
                    if shift:
                        src = src >> shift if shift > 0 else src << -shift
                    total = total + src if total else src
            if total.bit_length() > kept[c]:
                # clears the bits from ``kept`` up, in fewer passes than a mask
                total ^= total >> kept[c] << kept[c]
        cur.append(total)
    return cur


def _sweep(
    steps: list[tuple[int, int]],
    lattice: tuple[int, int, int],
    level: list[int],
    slot: int,
    n: int,
    sizes: list[int] | range,
):
    """Run the kernel from packed level n, held in ``slot``-byte slots, to
    level n + len(sizes), level n+k keeping the square of side sizes[k-1];
    yield each new level with its slot bytes.  When level m needs another
    word (``_slot_bytes``), the held level is re-slotted to exactly the
    words level m needs, so a slot is never a word wider than its level
    needs, and the sweep re-slots once per word boundary it crosses.  The
    coset offsets are computed once, and the move table once per slot
    width."""
    size = len(steps)
    stride, offsets = _coset_offsets(lattice)
    moves = _move_table(steps, lattice, offsets, stride, 8 * slot)
    for n, keep in enumerate(sizes, n + 1):
        if (wider := _slot_bytes(size, n)) > slot:
            level = [_reslot(row, slot, wider) for row in level]
            slot = wider
            moves = _move_table(steps, lattice, offsets, stride, 8 * slot)
        kept = [len(range(j0, keep, stride)) * 8 * slot if j0 is not None else 0 for j0 in offsets]
        level = _next_level(level, moves, kept, lattice, n, keep)
        yield level, slot


class CountTable:
    """The walk oracle: levels 0..n_max of exact counts f(n; i, j), each
    held as the kernel built it, full width: (packed rows, slot bytes).

    ``value`` decodes the one cell it reads and zero-extends the counts:
    0 outside the quadrant, beyond the light cone i > n or j > n, and off
    the coset.  A query inside the cone but past ``n_max`` deepens the
    table in place to its level first, so the table sizes itself to what
    its callers read; ``extend`` pre-builds levels.  ``levels`` is a
    decoded copy, as (n+1) x (n+1) grids.
    """

    def __init__(self, step_set: StepSet, n_max: int):
        self.step_set = step_set
        self._lattice = step_lattice(step_set.sorted_steps())
        self._stride, self._offsets = _coset_offsets(self._lattice)
        self._packed: list[tuple[list[int], int]] = [([1], 8)]
        self.extend(n_max)

    @property
    def n_max(self) -> int:
        return len(self._packed) - 1

    @property
    def levels(self) -> list[list[list[int]]]:
        sides = [range(n + 1) for n in range(self.n_max + 1)]
        return [[[self.value(n, i, j) for j in side] for i in side] for n, side in enumerate(sides)]

    def extend(self, n_max: int) -> "CountTable":
        """Build the levels up to n_max; levels already built are kept."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        rows, slot = self._packed[-1]
        sizes = range(self.n_max + 2, n_max + 2)
        steps = self.step_set.sorted_steps()
        self._packed.extend(_sweep(steps, self._lattice, rows, slot, self.n_max, sizes))
        return self

    def value(self, n: int, i: int, j: int) -> int:
        if not (0 <= i <= n and 0 <= j <= n):
            return 0
        if n >= len(self._packed):
            self.extend(n)
        alpha, _, d = self._lattice
        # slot k holds column j0 + k*stride, 0 <= j0 < stride; no residue equals a None j0
        k, r = divmod(j, self._stride)
        if r != self._offsets[(n + alpha * i) % d]:
            return 0
        rows, slot = self._packed[n]
        return rows[i] >> 8 * slot * k & ((1 << 8 * slot) - 1)


def _square_sweep(step_set: StepSet, n: int, reach: int):
    """The step set's lattice, and the sweep from the origin to level n
    whose level m keeps only the square max(a, b) <= min(m, reach - m).

    Every kept cell is exact, and a cell (i, j) of level n inside the light
    cone is kept when max(i, j) + n <= reach:

    - a unit step changes each coordinate by at most one, so a cell (a, b)
      of level m that a walk can still take to (i, j) in the n - m steps
      left has max(a, b) <= reach - m; the square drops only cells that
      cannot, and cells beyond the light cone a > m or b > m, where the
      count is 0;
    - a predecessor c - s of a kept cell c of level m+1 has
      max <= min(m+1, reach - m - 1) + 1 <= reach - m, and its count is 0
      if its max exceeds m; so every nonzero predecessor is kept at level
      m, and by induction on m every kept cell is exact;
    - each step keeps the coset of ``step_lattice``, so a cell on it reads
      only cells on it, and a cell off it is 0 in the full table; leaving
      the cells off it at 0 unbuilt changes no cell on it."""
    steps = step_set.sorted_steps()
    lattice = step_lattice(steps)
    sizes = [min(m, reach - m) + 1 for m in range(1, n + 1)]
    return lattice, _sweep(steps, lattice, [1], 8, 0, sizes)


def origin_sequence(step_set: StepSet, n_max: int) -> list[int]:
    """The sequence f(n; 0, 0) for n = 0..n_max, from one ``_square_sweep``
    with reach n_max: slot 0 of row 0 when the origin is on the coset of
    level n, n = 0 (mod d), and 0 otherwise."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    (_, _, d), sweep = _square_sweep(step_set, n_max, n_max)
    out = [1]
    for n, (level, slot) in enumerate(sweep, 1):
        out.append(level[0] & ((1 << 8 * slot) - 1) if n % d == 0 else 0)
    return out


def walk_count(step_set: StepSet, n: int, i: int, j: int) -> int:
    """The one count f(n; i, j), zero-extended like ``CountTable.value``,
    read off one ``_square_sweep`` with reach max(i, j) + n.  A cell off
    the coset of ``step_lattice`` is 0, so it is answered without a sweep."""
    if not (0 <= i <= n and 0 <= j <= n):
        return 0
    lattice, sweep = _square_sweep(step_set, n, max(i, j) + n)
    alpha, _, d = lattice
    stride, offsets = _coset_offsets(lattice)
    k, r = divmod(j, stride)
    if r != offsets[(n + alpha * i) % d]:
        return 0
    rows, slot = [1], 8
    for rows, slot in sweep:
        pass  # only the last level is read
    return rows[i] >> 8 * slot * k & ((1 << 8 * slot) - 1)


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


def table_to_json(table: CountTable) -> dict:
    """The table as JSON with decimal-string entries, exact beyond 2^53."""
    return {
        "steps": table.step_set.canonical,
        "nMax": table.n_max,
        "levels": [
            [[str(v) for v in row] for row in level] for level in table.levels
        ],
    }
