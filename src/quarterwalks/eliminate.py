"""Takayama-style elimination of the spatial shifts.

Certified annihilating operators are reduced modulo the right ideal
i*A + j*A, which in left-normal form is simply the substitution i = 0,
j = 0 in the left coefficients.  What survives is a vector over the
ring Q(n)[S_n], indexed by the shift monomials S_i^e5 S_j^e6.  Because a
coefficient left-divisible by i or j reduces to zero, useful multiples of
a generator are taken by shift monomials S_i^a S_j^b *before* reducing;
multiplication by i or j from the left is exactly the operation that is
no longer available after reduction.

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
    RatFunc,
    ipoly_content,
    ipoly_divexact,
    ipoly_eval,
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_shift_arg,
    ipoly_sub,
    poly_divmod,
    poly_from,
    poly_gcd,
    poly_mul,
)
from .ore import OreOperator

Pos = tuple[int, int]


class EliminationError(RuntimeError):
    """Unrecoverable elimination problem (e.g. every generator reduces to zero)."""


class EliminationFailure(RuntimeError):
    """No shift-free combination found within the retry budget."""

    def __init__(self, attempts: list[dict]):
        self.attempts = attempts
        dims = "; ".join(
            f"d={a['truncation']}, vectors={a['vectors']}, positions={a['positions']}"
            for a in attempts
        )
        super().__init__(f"elimination failed after {len(attempts)} attempt(s): {dims}")


class VerificationError(RuntimeError):
    """The eliminated operator failed its oracle re-verification."""


# ---------------------------------------------------------------------------
# Univariate shift operators over Q(n)
# ---------------------------------------------------------------------------


class UniOperator:
    """An element of Q(n)[S_n]: a map from S_n powers to rational-function
    coefficients, with a denominator-cleared primitive integer form
    available for serialization and sequence checks.

    Instances are immutable, so the cleared form is computed once, on
    first use, and kept."""

    __slots__ = ("_terms", "_cleared")

    def __init__(self, terms: dict[int, RatFunc] | None = None):
        clean: dict[int, RatFunc] = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, RatFunc):
                    c = RatFunc(c)
                if c:
                    if k < 0:
                        raise ValueError("negative shift power")
                    clean[int(k)] = c
        self._terms = clean
        self._cleared: dict[int, list[int]] | None = None

    @classmethod
    def zero(cls) -> "UniOperator":
        return cls()

    @classmethod
    def from_cleared(cls, cleared: dict[int, list[int]]) -> "UniOperator":
        return cls({k: RatFunc(poly_from(p)) for k, p in cleared.items() if p})

    @property
    def terms(self) -> dict[int, RatFunc]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniOperator):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def order(self) -> int:
        """Largest S_n power; -1 for the zero operator."""
        return max(self._terms) if self._terms else -1

    def trailing(self) -> int:
        return min(self._terms) if self._terms else -1

    def __add__(self, other) -> "UniOperator":
        if not isinstance(other, UniOperator):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, RatFunc(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return UniOperator(out)

    def __neg__(self) -> "UniOperator":
        return UniOperator({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "UniOperator":
        if not isinstance(other, UniOperator):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "UniOperator":
        """Ore product: S_n^a c(n) = c(n + a) S_n^a."""
        if isinstance(other, (int, Fraction, RatFunc)):
            other = UniOperator({0: RatFunc(other)})
        if not isinstance(other, UniOperator):
            return NotImplemented
        out: dict[int, RatFunc] = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                k = a + b
                s = out.get(k, RatFunc(0)) + ca * cb.shift_arg(a)
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return UniOperator(out)

    def __rmul__(self, other) -> "UniOperator":
        if isinstance(other, (int, Fraction, RatFunc)):
            return UniOperator({0: RatFunc(other)}) * self
        return NotImplemented

    def cleared(self) -> dict[int, list[int]]:
        """Denominator-cleared primitive integer coefficients, with the
        leading coefficient's leading integer positive.  The caller owns
        the returned dict and lists."""
        return {k: list(p) for k, p in self._cleared_form().items()}

    def _cleared_form(self) -> dict[int, list[int]]:
        """The cached cleared form, shared; never mutate it."""
        if self._cleared is None:
            self._cleared = self._clear()
        return self._cleared

    def _clear(self) -> dict[int, list[int]]:
        if not self._terms:
            return {}
        den = poly_from([1])
        for c in self._terms.values():
            g = poly_gcd(den, c.den)
            den = poly_mul(den, poly_divmod(c.den, g)[0])
        out: dict[int, list[int]] = {}
        den_int = 1
        numerators = {}
        for k, c in self._terms.items():
            q = poly_divmod(den, c.den)[0]
            numerators[k] = poly_mul(c.num, q)
        for p in numerators.values():
            for coeff in p:
                den_int = den_int * coeff.denominator // math.gcd(
                    den_int, coeff.denominator
                )
        for k, p in numerators.items():
            out[k] = [int(coeff * den_int) for coeff in p]
        g = 0
        for p in out.values():
            g = math.gcd(g, ipoly_content(p))
        if g > 1:
            out = {k: ipoly_divexact(p, g) for k, p in out.items()}
        lead = out[max(out)]
        if lead[-1] < 0:
            out = {k: [-c for c in p] for k, p in out.items()}
        return out

    def leading_cleared(self) -> list[int]:
        c = self._cleared_form()
        return list(c[max(c)]) if c else []

    def apply_to_sequence(self, seq: Sequence, n: int) -> Fraction:
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
            c = self._terms[k]
            mono = f"Sn^{k}" if k > 1 else ("Sn" if k == 1 else "")
            cs = repr(c)
            if "+" in cs or "- " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)


def _fraction_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def uni_to_json(op: UniOperator) -> dict:
    """Serialize with both the rational-function terms and the cleared
    polynomial variant; round-trips bit-exactly."""
    terms = []
    for k in sorted(op.terms):
        c = op.terms[k]
        terms.append(
            {
                "power": k,
                "num": [_fraction_str(x) for x in c.num],
                "den": [_fraction_str(x) for x in c.den],
            }
        )
    cleared = [
        {"power": k, "coeffs": [str(c) for c in poly]}
        for k, poly in sorted(op.cleared().items())
    ]
    return {"var": "n", "shift": "Sn", "terms": terms, "cleared": cleared}


def uni_from_json(data: dict) -> UniOperator:
    if data.get("var") != "n" or data.get("shift") != "Sn":
        raise ValueError("unrecognized operator header")
    terms: dict[int, RatFunc] = {}
    for entry in data["terms"]:
        k = int(entry["power"])
        if k in terms:
            raise ValueError(f"duplicate power {k}")
        num = poly_from([Fraction(x) for x in entry["num"]])
        den = poly_from([Fraction(x) for x in entry["den"]])
        terms[k] = RatFunc(num, den)
    op = UniOperator(terms)
    if "cleared" in data:
        stated = {
            int(e["power"]): [int(c) for c in e["coeffs"]] for e in data["cleared"]
        }
        if stated != op.cleared():
            raise ValueError("cleared form does not match the rational terms")
    return op


def uni_from_ore(op: OreOperator) -> UniOperator:
    """Read an operator free of i, j, S_i, S_j as an element of Q(n)[S_n]."""
    terms: dict[int, RatFunc] = {}
    for (e4, e5, e6), c in op.terms.items():
        if e5 or e6:
            raise ValueError("operator still involves S_i or S_j")
        terms[e4] = RatFunc(poly_from(c.coefficients_in_n()))
    return UniOperator(terms)


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

    def truncate(self, d: int) -> tuple["ModuleVector", bool]:
        kept = {p: u for p, u in self.components.items() if p[0] + p[1] <= d}
        return ModuleVector(kept), len(kept) != len(self.components)

    def left_mul(self, u: UniOperator) -> "ModuleVector":
        return ModuleVector({p: u * c for p, c in self.components.items()})

    def __eq__(self, other):
        if isinstance(other, ModuleVector):
            return self.components == other.components
        return NotImplemented


def reduce_mod_ij(op: OreOperator) -> ModuleVector:
    """Reduction modulo the right ideal i*A + j*A: substitute i = j = 0 in
    the left coefficients and regroup by the S_i, S_j exponents."""
    reduced = op.substitute_zero(("i", "j"))
    comps: dict[Pos, dict[int, RatFunc]] = {}
    for (e4, e5, e6), c in reduced.terms.items():
        coeffs = poly_from(c.coefficients_in_n())
        cur = comps.setdefault((e5, e6), {})
        cur[e4] = RatFunc(coeffs)
    return ModuleVector({p: UniOperator(t) for p, t in comps.items()})


# ---------------------------------------------------------------------------
# Fraction-free echelon over Q(n)[S_n]
# ---------------------------------------------------------------------------

# Internal row form: dict[Pos -> dict[int -> list[int]]] with integer
# polynomial coefficients, globally primitive.


def _row_from_vector(v: ModuleVector) -> dict:
    # scaling the whole vector by the least common denominator is left
    # multiplication by an element of Q(n), so the span is unchanged
    den_lcm = poly_from([1])
    for u in v.components.values():
        for c in u.terms.values():
            g = poly_gcd(den_lcm, c.den)
            den_lcm = poly_mul(den_lcm, poly_divmod(c.den, g)[0])
    fr_comps = {}
    for pos, u in v.components.items():
        cleared = {}
        for k, c in u.terms.items():
            cleared[k] = poly_mul(c.num, poly_divmod(den_lcm, c.den)[0])
        fr_comps[pos] = cleared
    den = 1
    for comp in fr_comps.values():
        for p in comp.values():
            for coeff in p:
                den = den * coeff.denominator // math.gcd(den, coeff.denominator)
    row = {
        pos: {k: [int(c * den) for c in p] for k, p in comp.items()}
        for pos, comp in fr_comps.items()
    }
    return _row_normalize(row)


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
    normalization removes.  The returned pivots have
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
            else:
                pivots[pos] = _row_normalize(row)
                row = w
    return pivots


def _row_to_uni(row: dict, pos: Pos) -> UniOperator:
    comp = row.get(pos, {})
    return UniOperator.from_cleared({k: list(p) for k, p in comp.items()})


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


@dataclass
class EliminationConfig:
    """Knobs for the elimination.

    truncation: largest e5+e6 kept in module components (None = keep all
    components any generated vector can reach, which drops nothing).
    multiplier_bound: cap on the shift-monomial multiple degree per
    generator; the effective per-generator bound is min with that
    generator's polynomial degree in i and j.  retry_cap: extra rounds
    with truncation+1 after a failed elimination.
    """

    truncation: Optional[int] = None
    multiplier_bound: Optional[int] = None
    retry_cap: int = 2

    def __post_init__(self):
        if self.truncation is not None and self.truncation < 0:
            raise ValueError("truncation must be >= 0")
        if self.retry_cap < 0:
            raise ValueError("retry_cap must be >= 0")


def _multiple_bounds(op: OreOperator, bound: Optional[int]) -> tuple[int, int]:
    degs = op.degrees()
    a = degs.deg_i
    b = degs.deg_j
    if bound is not None:
        a = min(a, bound)
        b = min(b, bound)
    return a, b


def natural_truncation(ops: Sequence[OreOperator], multiplier_bound: Optional[int]) -> int:
    """Largest component index any generated vector can occupy."""
    best = 0
    for op in ops:
        degs = op.degrees()
        a, b = _multiple_bounds(op, multiplier_bound)
        best = max(best, degs.ord_si + a + degs.ord_sj + b)
    return best


def generate_module(
    ops: Sequence[OreOperator], cfg: EliminationConfig
) -> tuple[list[ModuleVector], bool]:
    """Reduce each generator and its shift-monomial multiples into module
    vectors; returns (vectors, whether truncation dropped any component)."""
    if not ops:
        raise EliminationError("no generators given")
    d = cfg.truncation
    if d is None:
        d = natural_truncation(ops, cfg.multiplier_bound)
    vectors: list[ModuleVector] = []
    dropped_any = False
    for op in ops:
        a_max, b_max = _multiple_bounds(op, cfg.multiplier_bound)
        for a in range(a_max + 1):
            for b in range(b_max + 1):
                mult = OreOperator.monomial((0, a, b)) * op
                vec = reduce_mod_ij(mult)
                vec, dropped = vec.truncate(d)
                dropped_any = dropped_any or dropped
                if not vec.is_zero():
                    vectors.append(vec)
    if not vectors:
        raise EliminationError("all generators reduce to zero")
    return vectors, dropped_any


def eliminate_shifts(
    vectors: Sequence[ModuleVector], cfg: EliminationConfig
) -> tuple[Optional[UniOperator], dict]:
    """Echelonize and extract the pivot concentrated on component (0,0).

    Returns (operator, diagnostics); the operator is None when no
    shift-free combination exists in the span at this truncation.
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
    cfg: EliminationConfig | None = None,
) -> UniOperator:
    """generate_module + eliminate_shifts with retries, then the mandatory
    re-verification of the result against the origin-return sequence.

    ``diagonal`` must hold f(n; 0, 0) for n = 0..N with N at least the
    order of the result; the operator is checked on every window the
    sequence covers before being returned.
    """
    cfg = cfg or EliminationConfig()
    attempts: list[dict] = []
    d = cfg.truncation
    if d is None:
        d = natural_truncation(ops, cfg.multiplier_bound)
    for round_ in range(cfg.retry_cap + 1):
        trial_cfg = EliminationConfig(
            truncation=d + round_,
            multiplier_bound=cfg.multiplier_bound,
            retry_cap=0,
        )
        vectors, dropped_any = generate_module(ops, trial_cfg)
        result, diag = eliminate_shifts(vectors, trial_cfg)
        diag["truncation"] = d + round_
        attempts.append(diag)
        if result is not None:
            order = result.order()
            if order >= len(diagonal):
                raise VerificationError(
                    f"diagonal sequence too short: need at least {order + 1} values"
                )
            bad = result.first_failure(diagonal, range(0, len(diagonal) - order))
            if bad is None:
                return result
            if not dropped_any:
                # nothing was truncated away, so a failing result is a bug,
                # not an unlucky truncation
                raise VerificationError(
                    f"eliminated operator fails the origin sequence at n={bad}"
                )
            # the truncation was lossy and produced a spurious combination;
            # count this round as "nothing found" and widen
            diag["rejected_at_n"] = bad
        elif not dropped_any:
            # raising the truncation cannot add vectors or components
            break
    raise EliminationFailure(attempts)
