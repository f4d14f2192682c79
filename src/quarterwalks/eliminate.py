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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactmath import (
    IPoly,
    ipoly_content,
    ipoly_divexact,
    ipoly_divexact_poly,
    ipoly_eval,
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_shift_arg,
    ipoly_sub,
    ipoly_trim,
)
from .ore import OreOperator, json_int

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
    """The eliminated operator failed its oracle re-verification."""


# ---------------------------------------------------------------------------
# Univariate shift operators over Z[n]
# ---------------------------------------------------------------------------


class UniOperator:
    """An element of Z[n][S_n] that stands for the recurrence it defines: a
    map from S_n powers to integer polynomials in n (``IPoly`` lists, low
    degree first).

    A nonzero factor in Q leaves a recurrence unchanged, so the terms are
    stored in one form, the cleared one: zero polynomials dropped, divided
    by their integer content, and signed so that the leading coefficient's
    leading integer is positive.  An element of Q(n)[S_n] is represented
    after clearing its denominators.  Equality therefore holds up to a
    nonzero rational factor.  Instances are immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, IPoly] | None = None):
        clean: dict[int, IPoly] = {}
        for k, p in (terms or {}).items():
            p = ipoly_trim(list(p))
            if p:
                if k < 0:
                    raise ValueError("negative shift power")
                clean[int(k)] = p
        g = math.gcd(*(ipoly_content(p) for p in clean.values()))
        if clean and clean[max(clean)][-1] < 0:
            g = -g
        self._terms = {k: ipoly_divexact(p, g) for k, p in clean.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniOperator):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset((k, tuple(p)) for k, p in self._terms.items()))

    def order(self) -> int:
        """Largest S_n power; -1 for the zero operator."""
        return max(self._terms) if self._terms else -1

    def cleared(self) -> dict[int, IPoly]:
        """A copy of the terms, which the caller owns."""
        return {k: list(p) for k, p in self._terms.items()}

    def leading_cleared(self) -> IPoly:
        return list(self._terms[self.order()]) if self._terms else []

    def apply_to_sequence(self, seq: Sequence, n: int) -> int:
        """Sum of cleared coefficients times sequence values at one index."""
        total = 0
        for k, p in self._terms.items():
            total += ipoly_eval(p, n) * seq[n + k]
        return total

    def first_failure(self, seq: Sequence, n_range: Iterable[int]) -> int | None:
        """The first n in the range where the recurrence does not hold on
        the sequence, or None when it holds at every n.  The zero operator
        holds on every sequence, so checking it would prove nothing and
        raises ValueError instead."""
        if self.is_zero():
            raise ValueError("the zero operator annihilates every sequence")
        return next((n for n in n_range if self.apply_to_sequence(seq, n) != 0), None)

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms, reverse=True):
            cs = _ipoly_str(self._terms[k])
            mono = f"Sn^{k}" if k > 1 else ("Sn" if k == 1 else "")
            if "+" in cs or "- " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)


def _ipoly_str(p: list[int]) -> str:
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            parts.append(f"{c}")
        elif k == 1:
            parts.append(f"{c}*n" if c != 1 else "n")
        else:
            parts.append(f"{c}*n^{k}" if c != 1 else f"n^{k}")
    return " + ".join(parts).replace("+ -", "- ")


def uni_to_json(op: UniOperator) -> dict:
    """Serialize the terms twice: as fractions over the denominator 1, and
    as the ``"cleared"`` integer form that readers check them against."""
    items = sorted(op.cleared().items())
    terms = [{"power": k, "num": [str(c) for c in p], "den": ["1"]} for k, p in items]
    cleared = [{"power": k, "coeffs": [str(c) for c in p]} for k, p in items]
    return {"var": "n", "shift": "Sn", "terms": terms, "cleared": cleared}


def _json_fraction(x) -> Fraction:
    """A coefficient of a term: a JSON integer or a string such as "3/2";
    a float or a bool raises ValueError instead of being read as its
    binary value."""
    if type(x) not in (int, str):
        raise ValueError(f"expected an integer or a fraction string, not {x!r}")
    return Fraction(x)


def _json_term(entry: dict, k: int) -> tuple[list[int], list[int]]:
    """One term num/den of an operator file as integer polynomials in
    lowest terms over Z; (num, den) = ([], [1]) for a zero term."""
    try:
        num, den = ([_json_fraction(x) for x in entry[key]] for key in ("num", "den"))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"term of power {k}: bad number ({e})") from None
    scale = math.lcm(*(c.denominator for c in num + den))
    num, den = ([c.numerator * (scale // c.denominator) for c in p] for p in (num, den))
    num, den = ipoly_trim(num), ipoly_trim(den)
    if not den:
        raise ValueError(f"term of power {k}: zero denominator")
    if not num:
        return [], [1]
    _, (num, den) = ipoly_gcd_cofactors([num, den])
    return num, den


def uni_from_json(data: dict) -> UniOperator:
    """Read an operator file; the result is in its cleared form.

    A term is a rational function num/den in n with rational
    coefficients.  Each one is scaled to integer coefficients and reduced
    to lowest terms, and then every term is multiplied by the lcm L of the
    denominators over Z[n], so term k becomes num_k (L / den_k).  That is
    left multiplication of the whole operator by L, a nonzero element of
    Q(n), so the recurrence is unchanged.  A stated ``"cleared"`` form
    must match the one computed and state each power once.  A malformed
    number or a zero denominator raises ValueError naming the term's
    power; the powers and the cleared coefficients are integer fields,
    read by ``json_int``.
    """
    if data.get("var") != "n" or data.get("shift") != "Sn":
        raise ValueError("unrecognized operator header")
    reduced: dict[int, tuple[list[int], list[int]]] = {}
    den_lcm = [1]
    for entry in data["terms"]:
        k = json_int(entry["power"])
        if k in reduced:
            raise ValueError(f"duplicate power {k}")
        reduced[k] = num, den = _json_term(entry, k)
        _, (_, den_new) = ipoly_gcd_cofactors([den_lcm, den])  # den / gcd(den_lcm, den)
        den_lcm = ipoly_mul(den_lcm, den_new)
    op = UniOperator(
        {
            k: ipoly_mul(num, ipoly_divexact_poly(den_lcm, den))
            for k, (num, den) in reduced.items()
        }
    )
    if "cleared" in data:
        stated: dict[int, list[int]] = {}
        for entry in data["cleared"]:
            k = json_int(entry["power"])
            if k in stated:
                raise ValueError(f"duplicate cleared power {k}")
            stated[k] = [json_int(c) for c in entry["coeffs"]]
        if stated != op.cleared():
            raise ValueError("cleared form does not match the rational terms")
    return op


# ---------------------------------------------------------------------------
# Module vectors over Q(n)[S_n], indexed by shift monomials S_i^e5 S_j^e6
# ---------------------------------------------------------------------------


def pos_key(pos: Pos):
    """Position-over-term ranking: (0,0) below everything, then by (e5+e6, e5)."""
    if pos == (0, 0):
        return (0, 0, 0)
    return (1, pos[0] + pos[1], pos[0])


def reduce_mod_ij(op: OreOperator) -> Vector:
    """Reduction modulo the right ideal i*A + j*A: substitute i = j = 0 in
    the left coefficients, that is keep the terms free of i and j, and
    regroup them by the S_i, S_j exponents; the components lie in
    Z[n][S_n] as the operator's coefficients do.  Every polynomial gets
    its top coefficient from a nonzero term, so none is zero."""
    comps: Vector = {}
    for (dn, di, dj, e4, e5, e6), c in op.terms.items():
        if di == dj == 0:
            poly = comps.setdefault((e5, e6), {}).setdefault(e4, [])
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


def _multiple_bounds(op: OreOperator, bound: Optional[int]) -> tuple[int, int]:
    degs = op.degrees()
    a = degs.deg_i
    b = degs.deg_j
    if bound is not None:
        a = min(a, bound)
        b = min(b, bound)
    return a, b


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
    vectors: list[Vector] = []
    for op in ops:
        if op.is_zero():
            continue
        a_max, b_max = _multiple_bounds(op, multiplier_bound)
        for a in range(a_max + 1):
            for b in range(b_max + 1):
                vec = reduce_mod_ij(OreOperator({(0, 0, 0, 0, a, b): 1}) * op)
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
    """generate_module + eliminate_shifts, then the mandatory
    re-verification of the result against the origin-return sequence.

    ``diagonal`` must hold f(n; 0, 0) for n = 0..N with N at least the
    order of the result; the operator is checked on every window the
    sequence covers before being returned.  No pivot on (0,0) raises
    EliminationFailure.  Every component was kept, so a P found is an
    element of the module the generators span, and one that fails the
    check is a fault, raised as VerificationError.
    """
    vectors, _ = generate_module(ops, multiplier_bound)
    result, diag = eliminate_shifts(vectors)
    if result is None:
        raise EliminationFailure(diag)
    order = result.order()
    if order >= len(diagonal):
        raise VerificationError(
            f"diagonal sequence too short: need at least {order + 1} values"
        )
    bad = result.first_failure(diagonal, range(0, len(diagonal) - order))
    if bad is not None:
        raise VerificationError(f"eliminated operator fails the origin sequence at n={bad}")
    return result
