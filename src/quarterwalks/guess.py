"""Ansatz-based discovery of candidate annihilating operators.

An ansatz template fixes a finite support of monomials
n^e1 i^e2 j^e3 S_n^e4 S_i^e5 S_j^e6 with undetermined coefficients.
Applying the template to the counting oracle at a sample point turns
"the operator annihilates f" into one exact linear constraint on the
coefficients; many points give a linear system whose right kernel holds
every annihilator with that support.  An empty kernel is a proof that no
such annihilator exists, because each row is a necessary condition.

The kernel is computed multimodularly and checked exactly: the matrix is
split into the blocks of its nonzero pattern, each block is row-reduced
modulo primes below 2^32 with every row packed into one Python int of
64-bit slots, the kernel vectors are lifted from their residues by CRT
and rational reconstruction, and A v = 0 is verified over the integers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Sequence

from .ore import OreOperator

Tuple6 = tuple[int, int, int, int, int, int]


class TemplateError(ValueError):
    """Raised for an ansatz with empty support or bad caps."""


@dataclass(frozen=True)
class Bounds:
    """Per-symbol caps for an ansatz: polynomial degrees in n, i, j and
    shift orders, plus an optional cap on the total polynomial degree."""

    deg_n: int = 0
    deg_i: int = 0
    deg_j: int = 0
    ord_sn: int = 0
    ord_si: int = 0
    ord_sj: int = 0
    total_poly_deg: int | None = None

    def validate(self):
        caps = (self.deg_n, self.deg_i, self.deg_j, self.ord_sn, self.ord_si, self.ord_sj)
        if any(c < 0 for c in caps):
            raise TemplateError("all caps must be >= 0")
        if self.total_poly_deg is not None and self.total_poly_deg < 0:
            raise TemplateError("total degree cap must be >= 0")


@dataclass(frozen=True)
class AnsatzTemplate:
    """An ordered support of exponent 6-tuples (the unknown vector index)."""

    support: tuple[Tuple6, ...]
    shape: str = "custom"

    def __post_init__(self):
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


@dataclass(frozen=True)
class PointPlan:
    """Deterministic sample grid plus disjoint fresh points for filtering."""

    points: tuple[tuple[int, int, int], ...]
    fresh_points: tuple[tuple[int, int, int], ...]


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
    points = [
        (n, i, j)
        for n in range(1, N + 1)
        for i in range(J + 1)
        for j in range(J + 1)
    ]
    fresh = [
        (n, i, j)
        for n in range(N + 1, N + 3)
        for i in range(J + 1)
        for j in range(J + 1)
    ]
    return PointPlan(tuple(points), tuple(fresh))


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


@dataclass
class LinearSystem:
    """Exact evaluation matrix: one row per point, one column per tuple."""

    matrix: list[list[int]]
    points: list[tuple[int, int, int]]
    template: AnsatzTemplate = field(repr=False)


def assemble_system(
    template: AnsatzTemplate, oracle, points: Sequence[tuple[int, int, int]]
) -> LinearSystem:
    rows = []
    for (n, i, j) in points:
        row = []
        for (e1, e2, e3, e4, e5, e6) in template.support:
            if (i == 0 and e2) or (j == 0 and e3):
                row.append(0)
                continue
            v = oracle.value(n + e4, i + e5, j + e6)
            if v:
                row.append(n**e1 * i**e2 * j**e3 * v)
            else:
                row.append(0)
        rows.append(row)
    return LinearSystem(rows, list(points), template)


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
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
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
    is a block with no rows; a zero row is in no block."""
    parent = list(range(ncols))

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supports = [list(compress(range(ncols), row)) for row in matrix]
    for cols in supports:
        if cols:
            r0 = root(cols[0])
            for c in cols[1:]:
                parent[root(c)] = r0
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for c in range(ncols):
        blocks.setdefault(root(c), ([], []))[1].append(c)
    for r, cols in enumerate(supports):
        if cols:
            blocks[root(cols[0])][0].append(r)
    return list(blocks.values())


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


def _ratrec(u: int, m: int) -> Fraction | None:
    """The fraction r/t with r ≡ t*u (mod m) and |r|, |t| <= sqrt(m/2), by
    Wang's half extended Euclid; it is unique when it exists."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _annihilates(matrix: list[list[int]], vec: Sequence[int]) -> bool:
    """A v = 0 exactly, for an integer vector v, reading only its support."""
    support = [(c, v) for c, v in enumerate(vec) if v]
    return not any(sum(row[c] * v for c, v in support) for row in matrix)


def _normalize_vector(vec: list[Fraction | int]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector whose
    first nonzero entry is positive."""
    den = math.lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


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
    the pivots of that block.  Everything below holds for the whole
    matrix with these pivots and residues.

    Each block is row-reduced modulo primes p (`_primes`, sized for the
    widest block).  The kernel vector mod p of a free column f has a 1
    at f and -R[k, f] at each pivot k; its residues, combined by CRT over
    the primes so far, are lifted to Q by rational reconstruction and
    checked exactly, A v = 0 over Z on every row.  Any failure adds a
    prime.

    Reduction mod p can only lower the rank of each column prefix, so the
    mod-p pivot set is never better than the rational one (more pivots,
    or as many lexicographically earlier): full column rank mod p proves
    the kernel trivial, and residues are combined only across primes
    sharing the best pivot set seen.  Only finitely many primes are
    unlucky and reconstruction is exact past a finite modulus, so the
    loop ends.  Each verified vector lives on {f} and the pivots before
    f, so no mod-p free column is a rational pivot; with rank_p <= rank_Q
    the pivot sets agree, and the basis is the unique rational RREF
    kernel basis in free-column order, as Gauss-Jordan over Q gives it.
    """
    matrix = system.matrix if isinstance(system, LinearSystem) else system
    if not matrix:
        return []
    ncols = len(matrix[0])
    if ncols == 0:
        return []
    blocks = [
        (cols, [[matrix[r][c] for c in cols] for r in rows])
        for rows, cols in _blocks(matrix, ncols)
    ]
    width = max((len(cols) for cols, rows in blocks if rows), default=1)
    best = None
    for p in _primes(width):
        pivots, kernel = [], []
        for cols, rows in blocks:
            piv, free, res = _kernel_mod(rows, len(cols), p)
            piv = [cols[k] for k in piv]
            pivots += piv
            kernel += [(cols[f], piv, r) for f, r in zip(free, res)]
        if len(pivots) == ncols:
            return []
        pivots.sort()
        kernel.sort()
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        if key == best:
            inv = pow(modulus, -1, p)
            residues = [
                [u + modulus * ((r - u) * inv % p) for u, r in zip(us, rs)]
                for us, (_, _, rs) in zip(residues, kernel)
            ]
            modulus *= p
        else:
            best, residues, modulus = key, [rs for _, _, rs in kernel], p
        basis = []
        for (f, cols, _), us in zip(kernel, residues):
            vec = [0] * ncols
            vec[f] = 1
            for c, u in zip(cols, us):
                vec[c] = _ratrec(u, modulus)
            if None in vec:
                break
            basis.append(_normalize_vector(vec))
            if not _annihilates(matrix, basis[-1]):
                break
        else:
            return basis


def filter_candidates(
    basis: Sequence[Sequence[int]],
    template: AnsatzTemplate,
    oracle,
    fresh_points: Sequence[tuple[int, int, int]],
) -> list[OreOperator]:
    """Materialize kernel vectors and keep those with zero residual on the
    fresh points, normalized.

    For the quasi-holonomic shape, a candidate whose coefficients all
    vanish at i = j = 0 is dropped: its restriction to the origin column
    is the empty recurrence, so it is not a quasi-holonomic operator in
    the useful sense, merely an i- or j-multiple of other annihilators.
    """
    kept = []
    for vec in basis:
        op = template.materialize(vec)
        if op.is_zero():
            continue
        if template.shape == "quasiholonomic" and op.substitute_zero(("i", "j")).is_zero():
            continue
        if all(op.apply_at(oracle, *pt) == 0 for pt in fresh_points):
            kept.append(op.normalized())
    return kept


def guess_operators(
    template: AnsatzTemplate, oracle, margin: int = 20
) -> list[OreOperator]:
    """Full guessing round: plan points, assemble, solve, filter."""
    plan = plan_points(template, margin)
    system = assemble_system(template, oracle, plan.points)
    basis = nullspace(system)
    return filter_candidates(basis, template, oracle, plan.fresh_points)
