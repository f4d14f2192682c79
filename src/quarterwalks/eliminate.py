"""Takayama-style elimination of the spatial shifts.

Certified annihilating operators are reduced modulo the right ideal
i*A + j*A, which in left-normal form is simply the substitution i = 0,
j = 0 in the left coefficients.  What survives is a vector over the
ring Q(n)[S_n], indexed by the shift monomials S_i^e5 S_j^e6.  Because a
coefficient left-divisible by i or j reduces to zero, useful multiples of
a generator are taken by shift monomials S_i^a S_j^b *before* reducing;
multiplication by i or j from the left is exactly the operation that is
no longer available after reduction.  Every vector is stored after
clearing its denominators, with components in Z[n][S_n]; the span over
Q(n)[S_n] is the same.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactmath import (
    ipoly_content,
    ipoly_divexact,
    ipoly_divexact_poly,
    ipoly_eval,
    ipoly_gcd,
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_shift_arg,
    ipoly_sub,
    ipoly_trim,
)
from .ore import OreOperator

Pos = tuple[int, int]


class EliminationError(RuntimeError):
    """Unrecoverable elimination problem (e.g. every generator reduces to zero)."""


class EliminationFailure(RuntimeError):
    """No combination of the module vectors is concentrated on (0,0).
    ``attempts`` holds the echelon's diagnostics, one entry."""

    def __init__(self, diag: dict):
        self.attempts = [diag]
        super().__init__(
            f"elimination failed: no shift-free combination "
            f"(vectors={diag['vectors']}, positions={diag['positions']})"
        )


class VerificationError(RuntimeError):
    """The eliminated operator failed its oracle re-verification."""


# ---------------------------------------------------------------------------
# Univariate shift operators over Z[n]
# ---------------------------------------------------------------------------


class UniOperator:
    """An element of Z[n][S_n]: a map from S_n powers to integer
    polynomials in n (``IPoly`` lists, low degree first).

    The terms are stored exactly as given, with zero polynomials dropped;
    equality compares them.  An element of Q(n)[S_n] is represented after
    clearing its denominators, and ``cleared()`` gives the form shared by
    all its nonzero multiples in Q: primitive, with the leading
    coefficient's leading integer positive.

    Instances are immutable, so the cleared form is computed once, on
    first use, and kept."""

    __slots__ = ("_terms", "_cleared")

    def __init__(self, terms: dict[int, list[int]] | None = None):
        clean: dict[int, list[int]] = {}
        for k, p in (terms or {}).items():
            p = ipoly_trim(list(p))
            if p:
                if k < 0:
                    raise ValueError("negative shift power")
                clean[int(k)] = p
        self._terms = clean
        self._cleared: dict[int, list[int]] | None = None

    @classmethod
    def zero(cls) -> "UniOperator":
        return cls()

    @property
    def terms(self) -> dict[int, list[int]]:
        return {k: list(p) for k, p in self._terms.items()}

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

    def cleared(self) -> dict[int, list[int]]:
        """The terms divided by their integer content, signed so that the
        leading coefficient's leading integer is positive.  The caller owns
        the returned dict and lists."""
        return {k: list(p) for k, p in self._cleared_form().items()}

    def _cleared_form(self) -> dict[int, list[int]]:
        """The cached cleared form, shared; never mutate it."""
        if self._cleared is None:
            g = math.gcd(*(ipoly_content(p) for p in self._terms.values()))
            if self._terms and self._terms[self.order()][-1] < 0:
                g = -g
            self._cleared = {k: ipoly_divexact(p, g) for k, p in self._terms.items()}
        return self._cleared

    def leading_cleared(self) -> list[int]:
        c = self._cleared_form()
        return list(c[max(c)]) if c else []

    def apply_to_sequence(self, seq: Sequence, n: int) -> int:
        """Sum of cleared coefficients times sequence values at one index."""
        total = 0
        for k, p in self._cleared_form().items():
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

    def annihilates(self, seq: Sequence, n_range: Iterable[int]) -> bool:
        return self.first_failure(seq, n_range) is None

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
    """Serialize the stored integer terms (written as fractions over the
    denominator 1) together with the cleared form."""
    terms = [
        {"power": k, "num": [str(c) for c in p], "den": ["1"]}
        for k, p in sorted(op.terms.items())
    ]
    cleared = [
        {"power": k, "coeffs": [str(c) for c in poly]}
        for k, poly in sorted(op.cleared().items())
    ]
    return {"var": "n", "shift": "Sn", "terms": terms, "cleared": cleared}


def _json_term(entry: dict, k: int) -> tuple[list[int], list[int]]:
    """One term num/den of an operator file as integer polynomials in
    lowest terms over Z; (num, den) = ([], [1]) for a zero term."""
    try:
        num, den = ([Fraction(x) for x in entry[key]] for key in ("num", "den"))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"term of power {k}: bad number ({e})") from None
    scale = math.lcm(*(c.denominator for c in num + den))
    num, den = ([c.numerator * (scale // c.denominator) for c in p] for p in (num, den))
    num, den = ipoly_trim(num), ipoly_trim(den)
    if not den:
        raise ValueError(f"term of power {k}: zero denominator")
    if not num:
        return [], [1]
    g = ipoly_gcd(num, den)
    return ipoly_divexact_poly(num, g), ipoly_divexact_poly(den, g)


def uni_from_json(data: dict) -> UniOperator:
    """Read an operator file; the result is in its cleared form.

    A term is a rational function num/den in n with rational
    coefficients.  Each one is scaled to integer coefficients and reduced
    to lowest terms, and then every term is multiplied by the lcm L of the
    denominators over Z[n], so term k becomes num_k (L / den_k).  That is
    left multiplication of the whole operator by L, a nonzero element of
    Q(n), so the recurrence is unchanged.  A stated ``"cleared"`` form
    must match the one computed.  A malformed number or a zero
    denominator raises ValueError naming the term's power.
    """
    if data.get("var") != "n" or data.get("shift") != "Sn":
        raise ValueError("unrecognized operator header")
    reduced: dict[int, tuple[list[int], list[int]]] = {}
    den_lcm = [1]
    for entry in data["terms"]:
        k = int(entry["power"])
        if k in reduced:
            raise ValueError(f"duplicate power {k}")
        reduced[k] = num, den = _json_term(entry, k)
        den_lcm = ipoly_mul(den_lcm, ipoly_divexact_poly(den, ipoly_gcd(den_lcm, den)))
    op = UniOperator(
        {
            k: ipoly_mul(num, ipoly_divexact_poly(den_lcm, den))
            for k, (num, den) in reduced.items()
        }
    )
    cleared = op.cleared()
    if "cleared" in data:
        stated = {
            int(e["power"]): [int(c) for c in e["coeffs"]] for e in data["cleared"]
        }
        if stated != cleared:
            raise ValueError("cleared form does not match the rational terms")
    return UniOperator(cleared)


# ---------------------------------------------------------------------------
# Module vectors over Q(n)[S_n], indexed by shift monomials S_i^e5 S_j^e6
# ---------------------------------------------------------------------------


def pos_key(pos: Pos):
    """Position-over-term ranking: (0,0) below everything, then by (e5+e6, e5)."""
    if pos == (0, 0):
        return (0, 0, 0)
    return (1, pos[0] + pos[1], pos[0])


@dataclass
class ModuleVector:
    """Components over the shift-monomial index set."""

    components: dict[Pos, UniOperator]

    def __post_init__(self):
        self.components = {
            p: u for p, u in self.components.items() if not u.is_zero()
        }

    def is_zero(self) -> bool:
        return not self.components

    def positions(self) -> list[Pos]:
        return sorted(self.components, key=pos_key, reverse=True)

    def __eq__(self, other):
        if isinstance(other, ModuleVector):
            return self.components == other.components
        return NotImplemented


def reduce_mod_ij(op: OreOperator) -> ModuleVector:
    """Reduction modulo the right ideal i*A + j*A: substitute i = j = 0 in
    the left coefficients and regroup by the S_i, S_j exponents.

    The vector is scaled by the lcm of its coefficient denominators, so
    that its components lie in Z[n][S_n]; that is left multiplication by
    a nonzero constant, which keeps the components' relative scale and
    the span of any set of vectors."""
    coeffs = {e: c.coefficients_in_n() for e, c in op.substitute_zero(("i", "j")).terms.items()}
    scale = math.lcm(*(x.denominator for p in coeffs.values() for x in p))
    comps: dict[Pos, dict[int, list[int]]] = {}
    for (e4, e5, e6), p in coeffs.items():
        comps.setdefault((e5, e6), {})[e4] = [x.numerator * (scale // x.denominator) for x in p]
    return ModuleVector({pos: UniOperator(t) for pos, t in comps.items()})


# ---------------------------------------------------------------------------
# Fraction-free echelon over Q(n)[S_n]
# ---------------------------------------------------------------------------

# Internal row form: dict[Pos -> dict[int -> list[int]]] with integer
# polynomial coefficients, globally primitive.


def _row_from_vector(v: ModuleVector) -> dict:
    return _row_normalize({pos: u.terms for pos, u in v.components.items()})


def _row_is_zero(row: dict) -> bool:
    return not row


def _row_clean(row: dict) -> dict:
    out = {}
    for pos, comp in row.items():
        comp2 = {k: p for k, p in comp.items() if p}
        if comp2:
            out[pos] = comp2
    return out


def _row_lead(row: dict) -> tuple[Pos, int, list[int]]:
    pos = max(row, key=pos_key)
    k = max(row[pos])
    return pos, k, row[pos][k]


def _row_normalize(row: dict) -> dict:
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


def _row_scale_poly(row: dict, q: list[int]) -> dict:
    return {
        pos: {k: ipoly_mul(p, q) for k, p in comp.items()}
        for pos, comp in row.items()
    }


def _row_shift_sn(row: dict, delta: int) -> dict:
    if delta == 0:
        return row
    return {
        pos: {k + delta: ipoly_shift_arg(p, delta) for k, p in comp.items()}
        for pos, comp in row.items()
    }


def _row_sub(a: dict, b: dict) -> dict:
    out = {pos: dict(comp) for pos, comp in a.items()}
    for pos, comp in b.items():
        tgt = out.setdefault(pos, {})
        for k, p in comp.items():
            tgt[k] = ipoly_sub(tgt.get(k, []), p)
    return _row_clean(out)


def _reduce_leading(u: dict, w: dict) -> dict:
    """One gcd-reduced fraction-free cancellation of u's leading term by
    pivot w (same leading position, u's S_n degree >= w's).

    With delta the difference of the S_n degrees, aw' = aw(n + delta) and
    g = gcd(aw', au) over Z, the result is
    (aw'/g) u - (au/g) S_n^delta w (Geddes, Czapor and Labahn, *Algorithms
    for Computer Algebra*, 1992, ch. 9).  The leading terms cancel, since
    S_n^delta aw = aw' S_n^delta.  The step is left multiplication of u by
    the nonzero element aw'/g of Q(n), plus a Q(n)[S_n]-multiple of w, so
    the span is unchanged.  It is the full-multiplier step
    aw' u - au S_n^delta w divided by g, so once ``_row_normalize`` has made
    each row primitive with a positive leading coefficient the two give the
    same row: only the polynomial factor that it would divide back out is
    never multiplied in.
    """
    pos_u, ku, au = _row_lead(u)
    pos_w, kw, aw = _row_lead(w)
    assert pos_u == pos_w and ku >= kw
    delta = ku - kw
    _, (cu, cw) = ipoly_gcd_cofactors([ipoly_shift_arg(aw, delta), au])
    left = _row_scale_poly(u, cu)
    right = _row_scale_poly(_row_shift_sn(w, delta), cw)
    return _row_sub(left, right)


def _lead_rank(row: dict):
    pos, k, _ = _row_lead(row)
    return pos_key(pos), k


def _row_sort_key(row: dict):
    pos, k, lead = _row_lead(row)
    return (pos_key(pos), k, len(lead))


def _echelonize(rows: list[dict]) -> dict[Pos, dict]:
    """Euclidean echelon under the position-over-term order.

    Every operation replaces a row by an invertible Q(n)[S_n]-combination,
    so the module span is preserved exactly.  A reduction step
    (``_reduce_leading``) multiplies the row only by the cofactor aw'/g of
    the leading polynomials' gcd, never by the whole of aw'; the
    normalized result, and so every pivot, is the one the full-multiplier
    step gives, because the two differ by the factor g that the
    normalization removes.  Each step must lower the row's leading
    (position, S_n power) strictly, so the loop ends; a step that does
    not raises EliminationError.  The returned pivots have
    pairwise distinct leading positions; a pivot led by (0,0) is therefore
    supported on (0,0) only, and by the Euclidean reduction it has minimal
    S_n-order among all such elements of the span.
    """
    pivots: dict[Pos, dict] = {}
    queue = sorted((r for r in rows if not _row_is_zero(r)), key=_row_sort_key)
    for row in queue:
        while not _row_is_zero(row):
            pos, k, _ = _row_lead(row)
            w = pivots.get(pos)
            if w is None:
                pivots[pos] = _row_normalize(row)
                break
            _, kw, _ = _row_lead(w)
            if k >= kw:
                row = _row_normalize(_reduce_leading(row, w))
                if row and _lead_rank(row) >= (pos_key(pos), k):
                    raise EliminationError(
                        f"a reduction step did not lower the leading term "
                        f"(position {pos}, S_n power {k})"
                    )
            else:
                pivots[pos] = _row_normalize(row)
                row = w
    return pivots


def _row_to_uni(row: dict, pos: Pos) -> UniOperator:
    return UniOperator(row.get(pos, {}))


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
) -> tuple[list[ModuleVector], bool]:
    """Reduce each generator and its shift-monomial multiples
    S_i^a S_j^b into module vectors, every component kept.  The multiples
    of a generator run over a <= deg_i and b <= deg_j, each capped by
    ``multiplier_bound`` when one is given.

    Returns (vectors, False).  Nothing is ever dropped; the constant
    second entry keeps the pair that ``bench/tracing.py`` unpacks.
    """
    if not ops:
        raise EliminationError("no generators given")
    if multiplier_bound is not None and multiplier_bound < 0:
        raise ValueError("multiplier_bound must be >= 0")
    vectors: list[ModuleVector] = []
    for op in ops:
        a_max, b_max = _multiple_bounds(op, multiplier_bound)
        for a in range(a_max + 1):
            for b in range(b_max + 1):
                vec = reduce_mod_ij(OreOperator.monomial((0, a, b)) * op)
                if not vec.is_zero():
                    vectors.append(vec)
    if not vectors:
        raise EliminationError("all generators reduce to zero")
    return vectors, False


def eliminate_shifts(vectors: Sequence[ModuleVector]) -> tuple[Optional[UniOperator], dict]:
    """Echelonize and extract the pivot concentrated on component (0,0).

    Returns (operator, diagnostics); the operator is None when no
    shift-free combination exists in the span.
    """
    if not vectors:
        raise EliminationError("empty vector list")
    rows = [_row_from_vector(v) for v in vectors if not v.is_zero()]
    positions = sorted({p for r in rows for p in r}, key=pos_key)
    pivots = _echelonize(rows)
    diag = {
        "vectors": len(rows),
        "positions": len(positions),
        "pivot_positions": sorted(pivots, key=pos_key),
    }
    hit = pivots.get((0, 0))
    if hit is None:
        return None, diag
    return _row_to_uni(hit, (0, 0)), diag


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
