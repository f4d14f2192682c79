"""Takayama-style elimination of the spatial shifts.

Certified annihilating operators are reduced modulo the right ideal
i*A + j*A, which in left-normal form is simply the substitution i = 0,
j = 0 in the left coefficients.  What survives is a vector over the
ring Q(n)[S_n], indexed by the shift monomials S_i^e5 S_j^e6.  Because a
coefficient left-divisible by i or j reduces to zero, useful multiples of
a generator are taken by shift monomials S_i^a S_j^b *before* reducing;
multiplication by i or j from the left is exactly the operation that is
no longer available after reduction.  The operators have integer
coefficients, so every component lies in Z[n][S_n]; the span is taken
over Q(n)[S_n].  A module vector is the plain dict {(e5, e6): {k: IPoly}}
(``Vector``), and that dict is also the echelon's row.

A combination of these vectors, with coefficients in Q(n)[S_n], that is
concentrated in the component (0,0) corresponds to an annihilator of the
form P(n, S_n) + i*Q_1 + j*Q_2, and then P annihilates the origin-return
sequence f(n; 0, 0).  The cofactors Q_1, Q_2 are never written down; the
resulting P is instead re-verified against the counting oracle, which is
mandatory before a P is released.

The elimination itself is a fraction-free echelon computation over
Q(n)[S_n] under a position-over-term order that ranks every component
other than (0,0) above (0,0): a surviving pivot whose leading position is
(0,0) is supported on (0,0) alone, and the Euclidean reduction at each
position makes it the minimal-order such element of the module span.

Elimination builds on ``ore`` and ``exactmath`` only: P is an
``exactmath.UniOperator``, whose file form ``exactmath.uni_to_json``
writes and ``exactmath.uni_from_json`` reads.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .exactmath import (
    IPoly,
    UniOperator,
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_shift_arg,
    ipoly_sub,
)
from .ore import OreOperator

Pos = tuple[int, int]
# A module vector, which is also a row of the echelon: each position
# (e5, e6) maps to its component in Z[n][S_n] as {S_n power: IPoly}.  A
# vector holds no empty component and no zero polynomial; ``_row_clean``
# restores that after each echelon step.
Vector = dict[Pos, dict[int, IPoly]]


class EliminationError(RuntimeError):
    """Unrecoverable elimination problem (e.g. every generator reduces to zero)."""


class EliminationFailure(RuntimeError):
    """No combination of the module vectors is concentrated on (0,0).
    ``attempts`` holds the echelon's diagnostics, one entry."""

    def __init__(self, diag: dict):
        self.attempts = [diag]
        super().__init__(
            f"elimination failed: no shift-free combination "
            f"(vectors={diag['vectors']}, positions={diag['positions']}, "
            f"sn_multiples={diag['sn_multiples']})"
        )


class VerificationError(RuntimeError):
    """The eliminated operator fails a window of the origin sequence."""


# ---------------------------------------------------------------------------
# Module vectors over Q(n)[S_n], indexed by shift monomials S_i^e5 S_j^e6
# ---------------------------------------------------------------------------


def pos_key(pos: Pos):
    """Position-over-term ranking: (0,0) below everything, then by (e5+e6, e5)."""
    if pos == (0, 0):
        return (0, 0, 0)
    return (1, pos[0] + pos[1], pos[0])


def reduce_mod_ij(op: OreOperator, a: int = 0, b: int = 0) -> Vector:
    """Reduction of S_i^a S_j^b op modulo the right ideal i*A + j*A: set
    i = j = 0 in the left coefficients of that multiple and group its
    terms by position, the S_i, S_j exponents, into Z[n][S_n].  The
    multiple is never formed: S_i^a S_j^b c n^dn i^di j^dj S^e is
    c n^dn (i + a)^di (j + b)^dj S^(e + (0, a, b)), which leaves
    c a^di b^dj n^dn (0^0 = 1) at position (e5 + a, e6 + b).  Sums that
    cancel are dropped, so no polynomial is zero."""
    sums: dict[tuple[int, int, int, int], int] = {}
    for (dn, di, dj, e4, e5, e6), c in op.terms.items():
        c *= a**di * b**dj
        if c:
            key = (e5 + a, e6 + b, e4, dn)
            sums[key] = sums.get(key, 0) + c
    comps: Vector = {}
    for (p5, p6, e4, dn), c in sums.items():
        if c:
            poly = comps.setdefault((p5, p6), {}).setdefault(e4, [])
            poly.extend([0] * (dn + 1 - len(poly)))
            poly[dn] = c
    return comps


# ---------------------------------------------------------------------------
# Fraction-free echelon over Q(n)[S_n]
# ---------------------------------------------------------------------------

# A row is a ``Vector``.  The input rows and the pivots are primitive; the
# rows between reduction steps are not (see ``_echelonize``).


def _row_clean(row: Vector) -> Vector:
    out = {}
    for pos, comp in row.items():
        comp2 = {k: p for k, p in comp.items() if p}
        if comp2:
            out[pos] = comp2
    return out


def _row_lead(row: Vector) -> tuple[Pos, int, list[int]]:
    pos = max(row, key=pos_key)
    k = max(row[pos])
    return pos, k, row[pos][k]


def _row_normalize(row: Vector) -> Vector:
    """Divide the row by the gcd over Z of all its polynomials (integer
    content and any common polynomial factor, one ``ipoly_gcd_cofactors``
    call); make the leading polynomial's leading coefficient positive."""
    row = _row_clean(row)
    if not row:
        return row
    _, quotients = ipoly_gcd_cofactors([p for comp in row.values() for p in comp.values()])
    rest = iter(quotients)
    row = {pos: {k: next(rest) for k in comp} for pos, comp in row.items()}
    _, _, lead = _row_lead(row)
    if lead[-1] < 0:
        row = {
            pos: {k: [-c for c in p] for k, p in comp.items()}
            for pos, comp in row.items()
        }
    return row


def _row_scale_poly(row: Vector, q: list[int]) -> Vector:
    return {
        pos: {k: ipoly_mul(p, q) for k, p in comp.items()}
        for pos, comp in row.items()
    }


def _row_shift_sn(row: Vector, delta: int) -> Vector:
    if delta == 0:
        return row
    return {
        pos: {k + delta: ipoly_shift_arg(p, delta) for k, p in comp.items()}
        for pos, comp in row.items()
    }


def _row_sub(a: Vector, b: Vector) -> Vector:
    out = {pos: dict(comp) for pos, comp in a.items()}
    for pos, comp in b.items():
        tgt = out.setdefault(pos, {})
        for k, p in comp.items():
            tgt[k] = ipoly_sub(tgt.get(k, []), p)
    return _row_clean(out)


def _reduce_leading(u: Vector, w: Vector) -> Vector:
    """One gcd-reduced fraction-free cancellation of u's leading term by
    pivot w (same leading position, u's S_n degree >= w's).

    With delta the difference of the S_n degrees, aw' = aw(n + delta) and
    g = gcd(aw', au) over Z, the result is
    (aw'/g) u - (au/g) S_n^delta w (Geddes, Czapor and Labahn, *Algorithms
    for Computer Algebra*, 1992, ch. 9).  The leading terms cancel, since
    S_n^delta aw = aw' S_n^delta.  The step is left multiplication of u by
    the nonzero element aw'/g of Q(n), plus a Q(n)[S_n]-multiple of w, so
    the span is unchanged.  It is the full-multiplier step
    aw' u - au S_n^delta w divided by g: only the polynomial factor that
    a normalization would divide back out is never multiplied in.

    The step is homogeneous in u.  For nonzero h in Z[n], h*u has the
    leading polynomial h*au, and with g' = gcd(aw', h*au)
    reduce(h*u, w) = (h*g/g') * reduce(u, w), a nonzero Q(n)-multiple.
    So u need not be primitive: ``_row_normalize`` gives the same row
    either way (see ``_echelonize``).
    """
    pos_u, ku, au = _row_lead(u)
    pos_w, kw, aw = _row_lead(w)
    assert pos_u == pos_w and ku >= kw
    delta = ku - kw
    _, (cu, cw) = ipoly_gcd_cofactors([ipoly_shift_arg(aw, delta), au])
    left = _row_scale_poly(u, cu)
    right = _row_scale_poly(_row_shift_sn(w, delta), cw)
    return _row_sub(left, right)


def _lead_rank(row: Vector):
    pos, k, _ = _row_lead(row)
    return pos_key(pos), k


def _row_sort_key(row: Vector):
    pos, k, lead = _row_lead(row)
    return (pos_key(pos), k, len(lead))


def _echelonize(rows: list[Vector]) -> tuple[dict[Pos, Vector], int, int]:
    """Euclidean echelon under the position-over-term order.

    Every operation replaces a row by an invertible Q(n)[S_n]-combination,
    so the module span is preserved exactly.  A reduction step
    (``_reduce_leading``) multiplies the row only by the cofactor aw'/g of
    the leading polynomials' gcd, never by the whole of aw'.  Each step
    must lower the row's leading (position, S_n power) strictly, so the
    loop ends; a step that does not raises EliminationError.  The
    returned pivots have pairwise distinct leading positions; a pivot led
    by (0,0) is therefore supported on (0,0) only, and by the Euclidean
    reduction it has minimal S_n-order among all such elements of the
    span.

    A row is normalized (``_row_normalize``, one row-wide gcd) only when
    it is stored as a pivot, not after each step.  Every pivot is still
    the one that normalizing after each step would store:

    1. The step is homogeneous in u: for nonzero h in Z[n],
       reduce(h*u, w) = (h*g/g') * reduce(u, w) (``_reduce_leading``).
       By induction the unnormalized row is a nonzero Q(n)-multiple of
       the per-step normalized one, at every step.
    2. Multiplying by a nonzero element of Q(n) keeps every support, so
       the sequence of leading (position, power) pairs, and with it the
       "did not lower" check and every branch taken, is unchanged.
    3. ``_row_normalize`` gives the same result for every nonzero
       Q(n)-multiple of a row that lies in Z[n]: by Gauss's lemma a
       primitive row times a/b, with a, b coprime in Z[n], lies in Z[n]
       only if b = +-1, and the positive leading coefficient fixes the
       sign.

    The S_n-shifted copies S_n^delta w of each pivot are kept in a dict
    per pivot and reduce in place of w; a pivot's copies are dropped when
    it is replaced.  Returns (pivots, reductions, normalized): the reduction
    steps taken and the ``_row_normalize`` calls made.
    """
    pivots: dict[Pos, Vector] = {}
    shifted: dict[Pos, dict[int, Vector]] = {}
    reductions = normalized = 0
    for row in sorted(rows, key=_row_sort_key):
        while row:
            pos, k, _ = _row_lead(row)
            w = pivots.get(pos)
            if w is None:
                pivots[pos], shifted[pos] = _row_normalize(row), {}
                normalized += 1
                break
            _, kw, _ = _row_lead(w)
            if k >= kw:
                copies, delta = shifted[pos], k - kw
                if delta not in copies:
                    copies[delta] = _row_shift_sn(w, delta)
                row = _reduce_leading(row, copies[delta])
                reductions += 1
                if row and _lead_rank(row) >= (pos_key(pos), k):
                    raise EliminationError(
                        f"a reduction step did not lower the leading term "
                        f"(position {pos}, S_n power {k})"
                    )
            else:
                pivots[pos], shifted[pos] = _row_normalize(row), {}
                normalized += 1
                row = w
    return pivots, reductions, normalized


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def generate_module(
    ops: Sequence[OreOperator], multiplier_bound: Optional[int] = None
) -> tuple[list[Vector], bool]:
    """Reduce each nonzero generator and its shift-monomial multiples
    S_i^a S_j^b into module vectors, every component kept; zero vectors are
    left out.  The multiples of a generator run over a <= deg_i and
    b <= deg_j, each capped by ``multiplier_bound`` when one is given.

    Returns (vectors, False).  Nothing is ever dropped; the constant
    second entry keeps the pair that ``bench/tracing.py`` unpacks.
    """
    if not ops:
        raise EliminationError("no generators given")
    if multiplier_bound is not None and multiplier_bound < 0:
        raise ValueError("multiplier_bound must be >= 0")
    cap = math.inf if multiplier_bound is None else multiplier_bound
    vectors: list[Vector] = []
    for op in ops:
        if op.is_zero():
            continue
        degs = op.degrees()
        for a in range(min(degs.deg_i, cap) + 1):
            for b in range(min(degs.deg_j, cap) + 1):
                vec = reduce_mod_ij(op, a, b)
                if vec:
                    vectors.append(vec)
    if not vectors:
        raise EliminationError("all generators reduce to zero")
    return vectors, False


def _drop_sn_multiples(rows: list[Vector]) -> list[Vector]:
    """The normalized rows without those that are S_n-power multiples of
    another row, in their input order.

    A row v with least S_n power m is keyed by w = S_n^(-m) v: every power
    lowered by m and every polynomial p replaced by p(n - m), so that
    v = S_n^m w exactly.  Of the rows with one key, the first with the
    least m is kept; a row v with the same key as the kept u is
    S_n^(m_v - m_u) u, already in the Q(n)[S_n]-span of u.  (The kept row
    must have the least m: S_n^(-1) is not in Q(n)[S_n], so S_n u does not
    span u.)  The key finds every such multiple among normalized rows:
    n -> n + k is a ring automorphism of Z[n], so S_n^k u is primitive with
    the leading coefficients of u, and ``_row_normalize`` maps any nonzero
    Q(n)-multiple of S_n^k u to S_n^k u itself, whose key is u's.

    So the Q(n)[S_n]-span is unchanged.  P is the unique primitive
    generator, with positive leading coefficient, of the span's elements
    supported on (0,0) alone, and the pivot positions are the leading
    positions of the span's elements: neither can change, and the echelon
    has fewer rows to reduce.
    """
    first: dict[tuple, tuple[int, int]] = {}
    for index, row in enumerate(rows):
        m = min(min(comp) for comp in row.values())
        key = tuple(
            sorted(
                (pos, k - m, tuple(ipoly_shift_arg(p, -m)))
                for pos, comp in row.items()
                for k, p in comp.items()
            )
        )
        if key not in first or m < first[key][0]:
            first[key] = (m, index)
    return [rows[index] for index in sorted(index for _, index in first.values())]


def eliminate_shifts(vectors: Sequence[Vector]) -> tuple[Optional[UniOperator], dict]:
    """Echelonize and extract the pivot concentrated on component (0,0).
    The vectors are read, never changed; zero vectors are skipped, and so
    are rows that are S_n-power multiples of another row
    (``_drop_sn_multiples``), which leaves the span and P unchanged.

    Returns (operator, diagnostics); the operator is None when no
    shift-free combination exists in the span.  ``vectors`` counts every
    nonzero input row and ``positions`` the positions they use,
    ``sn_multiples`` the rows dropped, and ``reductions`` the echelon
    steps on the rows kept.
    """
    if not vectors:
        raise EliminationError("empty vector list")
    rows = [row for row in map(_row_normalize, vectors) if row]
    positions = sorted({p for r in rows for p in r}, key=pos_key)
    kept = _drop_sn_multiples(rows)
    pivots, reductions, normalized = _echelonize(kept)
    diag = {
        "vectors": len(rows),
        "positions": len(positions),
        "sn_multiples": len(rows) - len(kept),
        "pivot_positions": sorted(pivots, key=pos_key),
        "reductions": reductions,
        "row_gcds": len(rows) + normalized,
    }
    hit = pivots.get((0, 0))
    if hit is None:
        return None, diag
    return UniOperator(hit[(0, 0)]), diag


def takayama_pipeline(
    ops: Sequence[OreOperator],
    diagonal: Sequence[int],
    multiplier_bound: Optional[int] = None,
) -> UniOperator:
    """generate_module + eliminate_shifts, then the mandatory check of the
    result on every window of ``diagonal``, f(n; 0, 0) for n = 0..N, by
    ``UniOperator.first_failure`` (ValueError if N leaves fewer than two).
    No pivot on (0,0) raises EliminationFailure.  Every component was kept,
    so a P found is an element of the module the generators span, and one
    that fails a window is a fault, raised as VerificationError."""
    vectors, _ = generate_module(ops, multiplier_bound)
    result, diag = eliminate_shifts(vectors)
    if result is None:
        raise EliminationFailure(diag)
    bad = result.first_failure(diagonal)
    if bad is not None:
        raise VerificationError(f"eliminated operator fails the origin sequence at n={bad}")
    return result
