"""Ansatz-based discovery of candidate annihilating operators.

An ansatz template fixes a finite support of monomials
n^e1 i^e2 j^e3 S_n^e4 S_i^e5 S_j^e6 with undetermined coefficients.
Applying the template to the counting oracle at a sample point turns
"the operator annihilates f" into one exact linear constraint on the
coefficients; many points give a linear system whose right kernel holds
every annihilator with that support.  An empty kernel is a proof that no
such annihilator exists, because each row is a necessary condition.

A row comes from ``ore.term_rows``: one oracle read per distinct shift
and one power product per distinct monomial.  The kernel
is computed multimodularly and checked exactly: the matrix is split into
the blocks of its nonzero pattern, each block is row-reduced on its last
min(rows, cols) rows modulo primes below 2^32 with every row packed into
one Python int of 64-bit slots, the kernel vectors are lifted from their
residues by CRT and rational reconstruction to integer (numerator,
denominator) pairs, and A v = 0 is verified over the integers, first on
those rows and then on the rest; a block whose last rows fall short is
solved again on all its rows.
"""

from __future__ import annotations

import math
import struct
from itertools import compress, tee
from operator import mul
from typing import Iterator, Sequence

from .ore import Box, OreOperator, _gather, term_rows
from .records import FrozenRecord, Record

Tuple6 = tuple[int, int, int, int, int, int]


class TemplateError(ValueError):
    """Raised for an ansatz with empty support or bad caps."""


class Bounds(FrozenRecord):
    """Per-symbol caps for an ansatz: polynomial degrees in n, i, j and
    shift orders, plus an optional cap on the total polynomial degree."""

    __slots__ = ("deg_n", "deg_i", "deg_j", "ord_sn", "ord_si", "ord_sj", "total_poly_deg")

    def __init__(
        self, deg_n: int = 0, deg_i: int = 0, deg_j: int = 0, ord_sn: int = 0, ord_si: int = 0,
        ord_sj: int = 0, total_poly_deg: int | None = None,
    ):
        self._init(deg_n, deg_i, deg_j, ord_sn, ord_si, ord_sj, total_poly_deg)

    def validate(self):
        caps = (self.deg_n, self.deg_i, self.deg_j, self.ord_sn, self.ord_si, self.ord_sj)
        if any(c < 0 for c in caps):
            raise TemplateError("all caps must be >= 0")
        if self.total_poly_deg is not None and self.total_poly_deg < 0:
            raise TemplateError("total degree cap must be >= 0")


class AnsatzTemplate(FrozenRecord):
    """An ordered support of exponent 6-tuples (the unknown vector index)."""

    __slots__ = ("support", "shape")

    def __init__(self, support: tuple[Tuple6, ...], shape: str = "custom"):
        self._init(support, shape)
        if not self.support:
            raise TemplateError("empty ansatz support")
        if len(set(self.support)) != len(self.support):
            raise TemplateError("duplicate tuples in ansatz support")

    def __len__(self):
        return len(self.support)

    def max_shift(self) -> tuple[int, int, int]:
        return (
            max(t[3] for t in self.support),
            max(t[4] for t in self.support),
            max(t[5] for t in self.support),
        )

    def max_degrees(self) -> tuple[int, int, int]:
        return (
            max(t[0] for t in self.support),
            max(t[1] for t in self.support),
            max(t[2] for t in self.support),
        )

    def materialize(self, vector: Sequence[int]) -> OreOperator:
        """Turn an integer coefficient vector over the support into an
        operator; the support tuples are its term keys."""
        if len(vector) != len(self.support):
            raise ValueError("vector length does not match support")
        return OreOperator(dict(zip(self.support, vector)))


def quasiholonomic_ok(t: Tuple6) -> bool:
    """A term survives i = j = 0 only if it is free of S_i and S_j."""
    e1, e2, e3, e4, e5, e6 = t
    if e2 == 0 and e3 == 0:
        return (e5, e6) == (0, 0)
    return True


def build_template(bounds: Bounds, shape: str = "full") -> AnsatzTemplate:
    """Enumerate the exponent tuples within the caps and shape restriction."""
    bounds.validate()
    if shape not in ("full", "quasiholonomic"):
        raise TemplateError(f"unknown ansatz shape {shape!r}")
    support = []
    for e1 in range(bounds.deg_n + 1):
        for e2 in range(bounds.deg_i + 1):
            for e3 in range(bounds.deg_j + 1):
                if bounds.total_poly_deg is not None and e1 + e2 + e3 > bounds.total_poly_deg:
                    continue
                for e4 in range(bounds.ord_sn + 1):
                    for e5 in range(bounds.ord_si + 1):
                        for e6 in range(bounds.ord_sj + 1):
                            t = (e1, e2, e3, e4, e5, e6)
                            if shape == "quasiholonomic" and not quasiholonomic_ok(t):
                                continue
                            support.append(t)
    if not support:
        raise TemplateError("caps and shape leave an empty support")
    return AnsatzTemplate(tuple(support), shape)


def template_from_support(support: Sequence[Tuple6]) -> AnsatzTemplate:
    return AnsatzTemplate(tuple(support), "custom")


# ---------------------------------------------------------------------------
# Sample points
# ---------------------------------------------------------------------------


class PointPlan(FrozenRecord):
    """Deterministic sample grid plus disjoint fresh points for filtering."""

    __slots__ = ("points", "fresh_points")

    def __init__(
        self, points: tuple[tuple[int, int, int], ...],
        fresh_points: tuple[tuple[int, int, int], ...],
    ):
        self._init(points, fresh_points)


def plan_points(template: AnsatzTemplate, margin: int = 20) -> PointPlan:
    """Grid n in [1, N], i, j in [0, J] with at least len(template) + margin
    points whose n is not below i and j (rows sampled at i > n or j > n are
    mostly forced zeros and carry little information, so they are not
    counted against the quota)."""
    _, si, sj = template.max_shift()
    dn, di, dj = template.max_degrees()
    J = max(si, sj, di, dj) + 2
    need = len(template) + margin
    per_level = (J + 1) ** 2
    N = J + 1 + max(4, -(-need // per_level))
    points = Box((1, N), (0, J), (0, J)).points()
    fresh = Box((N + 1, N + 2), (0, J), (0, J)).points()
    return PointPlan(tuple(points), tuple(fresh))


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


class LinearSystem(Record):
    """Exact evaluation matrix: one row per point, one column per tuple."""

    __slots__ = ("matrix", "points", "template")

    def __init__(
        self, matrix: list[list[int]], points: list[tuple[int, int, int]], template: AnsatzTemplate,
    ):
        self._init(matrix, points, template)


def assemble_system(
    template: AnsatzTemplate, oracle, points: Sequence[tuple[int, int, int]]
) -> LinearSystem:
    """The entry at point (n, i, j) and tuple (e1, ..., e6) is
    n^e1 i^e2 j^e3 f(n + e4, i + e5, j + e6): the term rows of
    ``ore.term_rows`` over the template's support."""
    return LinearSystem(list(term_rows(template.support, oracle, points)), list(points), template)


# ---------------------------------------------------------------------------
# Exact nullspace
# ---------------------------------------------------------------------------


_SLOT = 2**64
_MASK = _SLOT - 1


def _primes(width: int):
    """Primes p with p + width * (p - 1)^2 < 2^64, descending from the
    largest: a packed row of `width` slots then never carries (see
    `_echelon_mod`)."""
    n = math.isqrt(_SLOT // width) + 1
    while n + width * (n - 1) ** 2 >= _SLOT:
        n -= 1
    if n % 2 == 0:
        n -= 1
    while True:
        if 0 not in map(n.__mod__, range(3, math.isqrt(n) + 1, 2)):
            yield n
        n -= 2


def _pack(values: Sequence[int]) -> int:
    """Residues as one int, value k in bits 64k .. 64k + 63."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(row: int, width: int) -> tuple[int, ...]:
    return struct.unpack(f"<{width}Q", row.to_bytes(8 * width, "little"))


def _blocks(matrix: list[list[int]], ncols: int) -> list[tuple[list[int], list[int]]]:
    """The connected components of the bipartite graph whose nodes are the
    rows and columns and whose edges are the nonzero entries, as (rows,
    columns) in ascending order, ordered by first column.  A zero column
    is a block with no rows; a zero row is in no block.

    Each row's nonzero pattern is one int with a byte per column
    (``bytes(map(bool, row))``); a component is the union of the masks
    of its rows, and a new row mask is merged with every component it
    intersects."""
    by_mask: dict[int, list[int]] = {}
    for r, row in enumerate(matrix):
        by_mask.setdefault(int.from_bytes(bytes(map(bool, row)), "little"), []).append(r)
    by_mask.pop(0, None)
    components: list[tuple[int, list[int]]] = []
    for mask, rows in by_mask.items():
        apart = []
        for other, other_rows in components:
            if other & mask:
                mask |= other
                rows = rows + other_rows
            else:
                apart.append((other, other_rows))
        components = apart + [(mask, rows)]
    columns = range(ncols)
    unused = int.from_bytes(b"\x01" * ncols, "little")
    blocks = []
    for mask, rows in components:
        unused ^= mask
        blocks.append((sorted(rows), list(compress(columns, mask.to_bytes(ncols, "little")))))
    blocks += [([], [c]) for c in compress(columns, unused.to_bytes(ncols, "little"))]
    blocks.sort(key=lambda block: block[1][0])
    return blocks


def _echelon_mod(rows: list[list[int]], p: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Forward elimination over GF(p): the pivot columns, and each pivot
    row scaled to 1 at its pivot, as its entries from the pivot column on.

    Each row is one int of 64-bit slots (`_pack`), shifted down one slot
    per column done, so its lowest slot is always the current column.
    A pivot row is reduced below p once, when it is chosen, and a row
    update r + (p - f) * pivot adds at most (p - 1)^2 to a slot, once per
    pivot.  A slot therefore stays below p + width * (p - 1)^2 < 2^64
    (`_primes`) and never carries into the next, with no reduction in
    between."""
    width = len(rows[0])
    packed = [_pack([x % p for x in row]) for row in rows]
    pivots: list[int] = []
    urows: list[tuple[int, ...]] = []
    for c in range(width):
        if not packed:
            break
        heads = [(r & _MASK) % p for r in packed]
        k = next((k for k, f in enumerate(heads) if f), None)
        if k is not None:
            lazy = _unpack(packed[k], width - c)
            inv = pow(lazy[0] % p, -1, p)
            urows.append(tuple(v * inv % p for v in lazy))
            pivots.append(c)
            del packed[k], heads[k]
            pivot = _pack(urows[-1])
            packed = [(r + (p - f) * pivot if f else r) >> 64 for r, f in zip(packed, heads)]
        else:
            packed = [r >> 64 for r in packed]
    return pivots, urows


def _kernel_mod(
    rows: list[list[int]], width: int, p: int
) -> tuple[list[int], list[int], list[list[int]]]:
    """Pivot columns, free columns and, per free column f, the residues
    -R[k, f] mod p at each pivot k of the reduced row echelon form R.

    Only the free columns are back-substituted: with U the forward
    echelon rows and c_j the pivot columns, R[k, f] = U[k, f] -
    sum_{j > k} U[k, c_j] R[j, f].  The R[j, f] of one row are packed
    like `_echelon_mod`'s rows, under the same slot bound (at most one
    update per pivot)."""
    pivots, urows = _echelon_mod(rows, p) if rows else ([], [])
    free = sorted(set(range(width)) - set(pivots))
    if not free:
        return pivots, free, []
    solved = [0] * len(pivots)
    for k in reversed(range(len(pivots))):
        c, u = pivots[k], urows[k]
        acc = _pack([u[f - c] if f > c else 0 for f in free])
        for j in range(k + 1, len(pivots)):
            if u[pivots[j] - c]:
                acc += (p - u[pivots[j] - c]) * solved[j]
        solved[k] = _pack([v % p for v in _unpack(acc, len(free))])
    solved = [_unpack(r, len(free)) for r in solved]
    return pivots, free, [[-r[t] % p for r in solved] for t in range(len(free))]


def _ratrec(u: int, m: int) -> tuple[int, int] | None:
    """The fraction r/t with r ≡ t*u (mod m) and |r|, |t| <= sqrt(m/2), by
    Wang's half extended Euclid, as (r, t) in lowest terms with t > 0;
    it is unique when it exists, and None when it does not."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _annihilates(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """A v = 0 exactly, for an integer vector v, reading only its support."""
    support = _gather([c for c, v in enumerate(vec) if v])
    values = support(vec)
    return not any(sum(map(mul, support(row), values)) for row in rows)


def _normalize_vector(pairs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Clear a nonzero rational vector, given as (numerator, denominator)
    pairs with positive denominators, to a primitive integer vector whose
    first nonzero entry is positive."""
    den = math.lcm(*(d for _, d in pairs))
    ints = [a * (den // d) for a, d in pairs]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _vanishes_mod(
    rows: Sequence[Sequence[int]], width: int, pivots: list[int], free: list[int],
    res: list[list[int]], p: int,
) -> bool:
    """Whether every row annihilates, mod p, the combination sum_t t v_t
    (t = 1, 2, ...) of the mod-p kernel vectors `_kernel_mod` gives: v_t
    has a 1 at free[t] and res[t][k] at pivots[k]."""
    weights = range(1, len(free) + 1)
    combo = [0] * width
    for f, w in zip(free, weights):
        combo[f] = w
    for k, column in zip(pivots, zip(*res)):
        combo[k] = sum(map(mul, column, weights))
    return not any(sum(map(mul, row, combo)) % p for row in rows)


def _block_kernel(
    rows: list[Sequence[int]], width: int, primes: Iterator[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """The RREF kernel basis of one block with `width` columns, as (free
    column, vector) pairs, solved modulo `primes` on its last `width`
    rows first and on all its rows when those fall short (see
    `nullspace`)."""
    system, rest = rows[-width:], rows[:-width]
    best = None
    for p in primes:
        pivots, free, res = _kernel_mod(system, width, p)
        if not free:
            return []
        if rest and not _vanishes_mod(rest, width, pivots, free, res, p):
            system, rest, best = rows, [], None
            continue
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        if key == best:
            inv = pow(modulus, -1, p)
            residues = [
                [u + modulus * ((r - u) * inv % p) for u, r in zip(us, rs)]
                for us, rs in zip(residues, res)
            ]
            modulus *= p
        else:
            best, residues, modulus = key, res, p
        basis = []
        for f, us in zip(free, residues):
            pairs = [(0, 1)] * width
            pairs[f] = (1, 1)
            for c, u in zip(pivots, us):
                pairs[c] = _ratrec(u, modulus)
            if None in pairs:
                break
            vec = _normalize_vector(pairs)
            if not _annihilates(system, vec):
                break
            if rest and not _annihilates(rest, vec):
                # vec is in the kernel of the last rows but not of the
                # block: solve the block again on all its rows
                system, rest, best = rows, [], None
                break
            basis.append((f, vec))
        else:
            return basis


def nullspace(system: LinearSystem | list[list[int]]) -> list[tuple[int, ...]]:
    """Exact basis of the right kernel, one vector per free column.

    Each vector is a tuple of ints: the RREF kernel vector with a 1 in
    its free column, scaled to be primitive with its first nonzero entry
    positive.  They come in free-column order; the empty list means the
    kernel is trivial.

    The matrix is first split into blocks, the connected components of
    its nonzero pattern (`_blocks`); up to a permutation of rows and
    columns it is block diagonal.  A column c of block b is in the span
    of the columns before it exactly when it is in the span of block b's
    columns before it, since the other columns vanish on b's rows and
    b's columns vanish on all other rows.  So the pivot set of the whole
    matrix, over Q or over GF(p), is the union of the blocks' pivot sets,
    and each RREF kernel vector lives on one block: its free column and
    the pivots of that block.  Each block is solved on its own
    (`_block_kernel`), and a vector on block b satisfies a row of A
    exactly when it satisfies it restricted to b's columns, which is
    zero off b's rows.  Everything below is said of one block, A.

    A is first row-reduced on its square subsystem A_S, its last
    min(rows, cols) rows: `plan_points` lists points by ascending n, so
    these are the highest-n points, which have the fewest forced zeros.
    The elimination runs modulo primes p (`_primes`, sized for the
    widest block).  The kernel vector mod p of a free column f has a 1
    at f and -R[k, f] at each pivot k of the reduced row echelon form R;
    its residues, combined by CRT over the primes so far, are lifted to
    Q by rational reconstruction and checked exactly over Z, first on
    the rows of A_S, then on the other rows of A.  A vector that fails a
    row of A_S is a wrong reconstruction, and another prime is added.  A
    vector that satisfies A_S exactly but fails another row proves
    ker A_S ⊋ ker A; then A is solved again on all its rows, so the
    worst case is twice one elimination.  Reconstructing A_S's own
    kernel can take many primes when it is larger than A's, so each
    prime first screens the other rows mod p (`_vanishes_mod`): they
    must annihilate one fixed combination of the mod-p kernel vectors.
    If ker A_S = ker A and p keeps A_S's pivot set, the mod-p vectors
    are the reductions of rational vectors in ker A and pass; so a
    failed screen means ker A_S ⊋ ker A or an unlucky p, and A is solved
    again on all its rows.  Solving on all rows is always sound, so the
    screen only decides when that happens.

    Reduction mod p can only lower the rank of each column prefix, so the
    mod-p pivot set is never better than the rational one (more pivots,
    or as many lexicographically earlier): full column rank of A_S mod p
    proves ker A_S, and so ker A, trivial, and residues are combined
    only across primes sharing the best pivot set seen.  Only finitely
    many primes are unlucky and reconstruction is exact past a finite
    modulus, so the loop ends: it switches to all rows at most once, and
    on A_S it either accepts A_S's RREF kernel vectors, when they pass
    every row, or one of them fails a row off A_S and forces the switch.
    The accepted vectors lie in ker A and are independent (each has a 1 at
    its own free column and 0 at the others), and there are
    ncols - rank_p(A_S) >= ncols - rank_Q(A_S) >= ncols - rank_Q(A) of
    them, so all three ranks agree.  Each verified vector lives on {f}
    and the pivots before f, so no mod-p free column is a rational pivot
    of A; with equal ranks the pivot sets agree, and the basis is the
    unique rational RREF kernel basis in free-column order, as
    Gauss-Jordan over Q gives it.
    """
    matrix = system.matrix if isinstance(system, LinearSystem) else system
    if not matrix:
        return []
    ncols = len(matrix[0])
    if ncols == 0:
        return []
    blocks = _blocks(matrix, ncols)
    widest = max((len(cols) for rows, cols in blocks if rows), default=1)
    basis = []
    for (rows, cols), primes in zip(blocks, tee(_primes(widest), len(blocks))):
        gather = _gather(cols)
        for f, vec in _block_kernel([gather(matrix[r]) for r in rows], len(cols), primes):
            full = [0] * ncols
            for c, v in zip(cols, vec):
                full[c] = v
            basis.append((cols[f], tuple(full)))
    basis.sort()
    return [vec for _, vec in basis]


def filter_candidates(
    basis: Sequence[Sequence[int]],
    template: AnsatzTemplate,
    oracle,
    fresh_points: Sequence[tuple[int, int, int]],
) -> list[OreOperator]:
    """Materialize kernel vectors and keep those with zero residual on the
    fresh points, normalized, each distinct operator once in the order it
    is first found: normalizing removes the common monomial factor, so
    kernel vectors W and n*W give the same operator.  The fresh points'
    system is assembled once, when the first vector reaches that check.

    For the quasi-holonomic shape, a candidate whose coefficients all
    vanish at i = j = 0 is dropped: its restriction to the origin column
    is the empty recurrence, so it is not a quasi-holonomic operator in
    the useful sense, merely an i- or j-multiple of other annihilators.
    """
    kept = {}
    fresh_rows = None
    for vec in basis:
        op = template.materialize(vec)
        if op.is_zero():
            continue
        if template.shape == "quasiholonomic" and op.substitute_zero(("i", "j")).is_zero():
            continue
        if fresh_rows is None:
            fresh_rows = assemble_system(template, oracle, fresh_points).matrix
        if _annihilates(fresh_rows, vec):
            kept[op.normalized()] = None
    return list(kept)


def guess_operators(
    template: AnsatzTemplate, oracle, margin: int = 20
) -> list[OreOperator]:
    """Full guessing round: plan points, assemble, solve, filter."""
    plan = plan_points(template, margin)
    system = assemble_system(template, oracle, plan.points)
    basis = nullspace(system)
    return filter_candidates(basis, template, oracle, plan.fresh_points)
