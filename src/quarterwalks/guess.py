"""Ansatz-based discovery of candidate annihilating operators.

An ansatz template fixes a finite support of monomials
n^e1 i^e2 j^e3 S_n^e4 S_i^e5 S_j^e6 with undetermined coefficients.
Applying the template to the counting oracle at a sample point turns
"the operator annihilates f" into one exact linear constraint on the
coefficients; many points give a linear system whose right kernel holds
every annihilator with that support.  An empty kernel is a proof that no
such annihilator exists, because each row is a necessary condition.

The kernel is computed multimodularly and checked exactly: row reduction
modulo word-size primes, rational reconstruction of the kernel vectors
from their residues, and verification A v = 0 over the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exactmath import MultiPoly
from .ore import LEX, MonomialOrder, OreOperator

if TYPE_CHECKING:
    import numpy as np

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

    def materialize(self, vector: Sequence[Fraction]) -> OreOperator:
        """Turn a coefficient vector over the support into an operator."""
        if len(vector) != len(self.support):
            raise ValueError("vector length does not match support")
        by_shift: dict[tuple[int, int, int], dict] = {}
        for (e1, e2, e3, e4, e5, e6), c in zip(self.support, vector):
            if not c:
                continue
            mono = by_shift.setdefault((e4, e5, e6), {})
            exp = (e1, e2, e3)
            mono[exp] = mono.get(exp, Fraction(0)) + Fraction(c)
        terms = {s: MultiPoly(m) for s, m in by_shift.items()}
        return OreOperator(terms)


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
    required_n_max: int


def plan_points(template: AnsatzTemplate, margin: int = 20) -> PointPlan:
    """Grid n in [1, N], i, j in [0, J] with at least len(template) + margin
    points whose n is not below i and j (rows sampled at i > n or j > n are
    mostly forced zeros and carry little information, so they are not
    counted against the quota)."""
    sn, si, sj = template.max_shift()
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
    return PointPlan(tuple(points), tuple(fresh), N + 2 + sn)


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


def _primes():
    """Primes below 2^31, descending: a product of two residues fits int64."""
    n = 2**31 - 1
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n -= 2


def _rref_mod(matrix: list[list[int]], p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) and its pivot columns; each
    pivot is the first nonzero entry of its column among the rows left.

    numpy is imported here, on the first solve, so that the commands that
    never solve a system do not pay for loading it."""
    import numpy as np

    a = np.array([[x % p for x in row] for row in matrix], dtype=np.int64)
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        f = a[:, c].copy()
        f[r] = 0
        rows = np.flatnonzero(f)
        a[rows, c:] = (a[rows, c:] - np.outer(f[rows], a[r, c:])) % p
        pivots.append(c)
    return a, pivots


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


def _annihilates(matrix: list[list[int]], vec: Sequence[Fraction]) -> bool:
    """A v = 0 exactly, for an integer vector v, reading only its support."""
    support = [(c, int(v)) for c, v in enumerate(vec) if v]
    return not any(sum(row[c] * v for c, v in support) for row in matrix)


def _normalize_vector(vec: list[Fraction]) -> tuple[Fraction, ...]:
    """Scale a nonzero vector to a primitive integer vector whose first
    nonzero entry is positive."""
    den = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(Fraction(v, g) for v in ints)


def nullspace(system: LinearSystem | list[list[int]]) -> list[tuple[Fraction, ...]]:
    """Exact basis of the right kernel, one vector per free column.

    Vectors are primitive integer-scaled, with a 1 in their free column,
    in free-column order; the empty list means the kernel is trivial.
    Rational rows are scaled to integers first (the kernel is unchanged).

    The matrix is row-reduced modulo primes p < 2^31.  The kernel vector
    mod p of a free column f has a 1 at f and -R[k, f] at each pivot k;
    its residues, combined by CRT over the primes so far, are lifted to Q
    by rational reconstruction and checked exactly, A v = 0 over Z.  Any
    failure adds a prime.

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
    if any(type(x) is not int for row in matrix for x in row):
        matrix = [[Fraction(x) for x in row] for row in matrix]
        dens = [math.lcm(*(x.denominator for x in row)) for row in matrix]
        matrix = [[int(x * d) for x in row] for row, d in zip(matrix, dens)]
    best = None
    for p in _primes():
        a, pivots = _rref_mod(matrix, p)
        if len(pivots) == ncols:
            return []
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        # residues of the kernel vectors at the pivots, free column by free column
        kernel = (-a[: len(pivots), free] % p).T.ravel().tolist()
        if key == best:
            inv = pow(modulus, -1, p)
            residues = [u + modulus * ((r - u) * inv % p) for u, r in zip(residues, kernel)]
            modulus *= p
        else:
            best, residues, modulus = key, kernel, p
        basis = []
        for k, f in enumerate(free):
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for c, u in zip(pivots, residues[k * len(pivots) : (k + 1) * len(pivots)]):
                vec[c] = _ratrec(u, modulus)
            if None in vec:
                break
            basis.append(_normalize_vector(vec))
            if not _annihilates(matrix, basis[-1]):
                break
        else:
            return basis


def filter_candidates(
    basis: Sequence[Sequence[Fraction]],
    template: AnsatzTemplate,
    oracle,
    fresh_points: Sequence[tuple[int, int, int]],
    order: MonomialOrder = LEX,
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
            kept.append(op.normalized(order))
    return kept


def guess_operators(
    template: AnsatzTemplate,
    oracle,
    margin: int = 20,
    order: MonomialOrder = LEX,
) -> list[OreOperator]:
    """Full guessing round: plan points, assemble, solve, filter."""
    plan = plan_points(template, margin)
    if plan.required_n_max > oracle.n_max:
        from .walks import OracleRangeError

        raise OracleRangeError(plan.required_n_max, oracle.n_max)
    system = assemble_system(template, oracle, plan.points)
    basis = nullspace(system)
    return filter_candidates(basis, template, oracle, plan.fresh_points, order)
