"""Closed forms of the origin-return counts and the final proof step.

A closed form is an interlaced hypergeometric term, held as the parameters
of its Pochhammer form

    b(m) = c^m (a_1)_m ... (a_p)_m / ((b_1)_m ... (b_q)_m),

placed at the indices n = period*m + residue and zero elsewhere.  Its
first-order ratio b(m+1) = r(m) b(m) is derived from the parameters,
r = c (m + a_1) ... (m + a_p) / ((m + b_1) ... (m + b_q)), so the ratio
that the proof uses is the stated formula and nothing typed beside it.
``CLOSED_FORMS`` names the two built-in terms with their step sets.  The
Gessel counts vanish at odd length and satisfy

    f(2m; 0, 0) = 16^m (5/6)_m (1/2)_m / ((5/3)_m (2)_m),

and the Kreweras counts vanish off multiples of three with

    k(3m; 0, 0) = 4^m C(3m, m) / ((m+1)(2m+1)) = 27^m (1/3)_m (2/3)_m / ((2)_m (3/2)_m).

``symbolic_satisfies`` turns "the closed form obeys a recurrence P" into
one rational-function identity per residue class and checks each one
exactly, as a polynomial identity over Z once the denominators are
cleared, so a passing check is a proof, not a sampled plausibility.
``prove_equality`` combines that with enough initial values to pin the
sequence past every nonnegative root of the leading coefficient, where
the recurrence alone would not propagate uniqueness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exactmath import (
    ipoly_add,
    ipoly_compose_affine,
    ipoly_eval,
    ipoly_mul,
    ipoly_scale,
    ipoly_shift_arg,
)
from .records import FrozenRecord, Record
from .walks import GESSEL, KREWERAS, StepSet

if TYPE_CHECKING:
    from .eliminate import UniOperator


def _linear_product(params: Sequence[Fraction]) -> list[int]:
    """The integer polynomial prod_k (den(a_k) m + num(a_k)) in m."""
    out = [1]
    for a in params:
        out = ipoly_mul(out, [a.numerator, a.denominator])
    return out


def _den_product(params: Sequence[Fraction]) -> int:
    return math.prod(a.denominator for a in params)


class HypergeomTerm(FrozenRecord):
    """An interlaced hypergeometric sequence in Pochhammer form.

    ``factor`` c, ``upper`` a_k and ``lower`` b_k are exact rationals
    (ints or Fractions) with b(m) = c^m prod (a_k)_m / prod (b_k)_m; the
    full sequence is g(n) = b((n - residue) / period) on the residue class
    and 0 elsewhere.  A lower parameter that is 0 or a negative integer
    would make b undefined from some m on, so it is refused.
    """

    __slots__ = ("factor", "upper", "lower", "period", "residue")

    def __init__(
        self, factor: Fraction, upper: tuple[Fraction, ...], lower: tuple[Fraction, ...],
        period: int, residue: int,
    ):
        self._init(factor, upper, lower, period, residue)
        if self.period < 1 or not (0 <= self.residue < self.period):
            raise ValueError("support pattern must have period >= 1, 0 <= residue < period")
        poles = [-b for b in self.lower if b.denominator == 1 and b <= 0]
        if poles:
            raise ValueError(f"ratio denominator vanishes at m = {min(poles)}")

    @property
    def ratio(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The pair (N, D) of integer coefficient tuples (low degree first)
        with N/D = c prod (m + a_k) / prod (m + b_k), sharing no integer
        content, and with D's leading coefficient positive."""
        c, upper, lower = self.factor, self.upper, self.lower
        # each m + a is scaled to den(a) m + num(a); the product of the
        # other side's denominators undoes the scaling
        num = ipoly_scale(_linear_product(upper), c.numerator * _den_product(lower))
        den = ipoly_scale(_linear_product(lower), c.denominator * _den_product(upper))
        g = math.gcd(*num, *den)
        return tuple(x // g for x in num), tuple(x // g for x in den)

    def sequence(self, n_max: int) -> list[Fraction]:
        """g(0), ..., g(n_max): b(0) = 1 and b(m+1) = r(m) b(m) on the
        residue class, with the interlacing zeros in place."""
        num, den = self.ratio
        out = [Fraction(0)] * (n_max + 1)
        b = Fraction(1)
        for m, n in enumerate(range(self.residue, n_max + 1, self.period)):
            out[n] = b
            b *= Fraction(ipoly_eval(num, m), ipoly_eval(den, m))
        return out


# name -> (step set, origin-return counts of its walks in Pochhammer form)
CLOSED_FORMS: dict[str, tuple[StepSet, HypergeomTerm]] = {
    "gessel": (GESSEL, HypergeomTerm(
        Fraction(16), (Fraction(5, 6), Fraction(1, 2)), (Fraction(5, 3), Fraction(2)), 2, 0
    )),
    "kreweras": (KREWERAS, HypergeomTerm(
        Fraction(27), (Fraction(1, 3), Fraction(2, 3)), (Fraction(2), Fraction(3, 2)), 3, 0
    )),
}


def hypergeom_term(which: str) -> HypergeomTerm:
    """The built-in term named ``which`` (a key of ``CLOSED_FORMS``)."""
    if which not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {which!r}")
    return CLOSED_FORMS[which][1]


# ---------------------------------------------------------------------------
# Integer root location
# ---------------------------------------------------------------------------

_ROOT_SCAN_LIMIT = 2_000_000


def nonneg_integer_roots(p: Sequence[int]) -> list[int]:
    """All nonnegative integer roots of an integer polynomial.

    Scale p = a_0 + ... + a_d x^d by -1 if needed so that a_d > 0, and let
    B be the largest |a_k| over the negative coefficients.  For x > 0,

        p(x) >= a_d x^d - B (x^(d-1) + ... + 1) = a_d x^d - B (x^d - 1)/(x - 1),

    so for x >= 1 + B / a_d (hence B / (x - 1) <= a_d)

        p(x) >= a_d x^d - a_d (x^d - 1) = a_d > 0.

    Every positive root is therefore below 1 + B / a_d, and an integer
    scan of 1 .. 1 + B // a_d is exhaustive; with no negative coefficient
    there is no positive root at all.  A cheap modular filter keeps the
    scan fast.  Bounds beyond the scan limit are refused rather than
    silently truncated.
    """
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial has every root")
    if p[-1] < 0:
        p = [-c for c in p]
    roots = []
    if p[0] == 0:
        roots.append(0)
    b = max((-c for c in p if c < 0), default=0)
    if not b:
        return roots
    bound = 1 + b // p[-1]
    if bound > _ROOT_SCAN_LIMIT:
        raise ValueError(f"root bound {bound} too large for exhaustive scan")
    # Horner scan with a modular pre-check so candidates are rejected
    # without big-integer work.
    small = 2_147_483_629
    pm = [c % small for c in p]
    for m in range(1, bound + 1):
        acc = 0
        x = m % small
        for c in reversed(pm):
            acc = (acc * x + c) % small
        if acc == 0 and ipoly_eval(p, m) == 0:
            roots.append(m)
    return roots


def max_nonneg_root(p: Sequence[int]) -> int:
    """Largest nonnegative integer root, or -1 when there is none."""
    roots = nonneg_integer_roots(p)
    return max(roots) if roots else -1


# ---------------------------------------------------------------------------
# Symbolic recurrence check
# ---------------------------------------------------------------------------


def symbolic_satisfies(p: UniOperator, term: HypergeomTerm) -> bool:
    """Exact proof that the interlaced term satisfies the recurrence.

    For each residue class c modulo the period, substitute n = period*m + c;
    a term coefficient survives only when its shift lands on the support
    class, and then g(n+k) = b(m + e) = b(m) * r(m) r(m+1) ... r(m+e-1).
    Dividing by b(m) leaves one rational-function identity in m per class;
    all must normalize to zero.  Every sequence satisfies the zero
    operator, so checking it would prove nothing and raises ValueError.
    """
    if p.is_zero():
        raise ValueError("the zero operator annihilates every sequence")
    cleared = p.cleared()
    period, residue = term.period, term.residue
    rnum, rden = term.ratio
    for c in range(period):
        # n = period*m + c with m >= 0 covers every n >= 0 in the class;
        # since c + k >= 0 and c + k = residue (mod period), the b-index
        # offset e = (c + k - residue) / period is a nonnegative integer.
        surviving = []
        for k, poly in cleared.items():
            if (c + k) % period == residue:
                surviving.append((k, (c + k - residue) // period, poly))
        if not surviving:
            continue
        e_max = max(e for _, e, _ in surviving)
        # identity numerator: sum_k coeff_k(period*m + c) * prod_{s<e_k} rnum(m+s)
        #                                              * prod_{e_k<=s<e_max} rden(m+s)
        total: list[int] = []
        for k, e, poly in surviving:
            part = ipoly_compose_affine(poly, period, c)
            for s in range(e):
                part = ipoly_mul(part, ipoly_shift_arg(list(rnum), s))
            for s in range(e, e_max):
                part = ipoly_mul(part, ipoly_shift_arg(list(rden), s))
            total = ipoly_add(total, part)
        if total:
            return False
    return True


# ---------------------------------------------------------------------------
# The final equality verdict
# ---------------------------------------------------------------------------

PROVED = "PROVED"


class EqualityVerdict(Record):
    """The outcome of ``prove_equality``; ``status`` is PROVED or FAILED(<reason>)."""

    __slots__ = ("status", "checked_initial_values", "singular_bound", "failing_index")

    def __init__(
        self, status: str, checked_initial_values: int = 0, singular_bound: int = -1,
        failing_index: int | None = None,
    ):
        self._init(status, checked_initial_values, singular_bound, failing_index)

    @property
    def proved(self) -> bool:
        return self.status == PROVED


def prove_equality(p: UniOperator, term: HypergeomTerm, oracle) -> EqualityVerdict:
    """Decide closed form == counting sequence from a shared recurrence.

    PROVED requires (a) the exact symbolic check that the term satisfies P
    and (b) matching initial values for n = 0 .. order(P) + s, where s is
    the largest nonnegative integer root of P's leading cleared coefficient
    (-1 if none): past n = s the leading coefficient cannot vanish, so the
    recurrence propagates the equality from the checked segment to all n.
    """
    if p.is_zero():
        return EqualityVerdict("FAILED(zero-operator)")
    if not symbolic_satisfies(p, term):
        return EqualityVerdict("FAILED(symbolic-recurrence)")
    order = p.order()
    s = max_nonneg_root(p.leading_cleared())
    upper = order + s  # s = -1 when the leading coefficient never vanishes
    count = upper + 1
    closed = term.sequence(upper) if upper >= 0 else []
    for n in range(count):
        if closed[n] != oracle.value(n, 0, 0):
            return EqualityVerdict(
                "FAILED(initial-values)", count, s, failing_index=n
            )
    return EqualityVerdict(PROVED, count, s)
