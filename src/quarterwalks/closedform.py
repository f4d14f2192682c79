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
sequence past every nonnegative integer root of the leading coefficient
(Hensel-lifted by ``nonneg_integer_roots``, with no bound on their size),
where the recurrence alone would not propagate uniqueness.  This module
holds only the closed forms and the proof, and alone imports ``fractions``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .exactmath import (
    UniOperator,
    ipoly_add,
    ipoly_compose_affine,
    ipoly_eval,
    ipoly_gcd_cofactors,
    ipoly_mul,
    ipoly_scale,
    ipoly_shift_arg,
    ipoly_trim,
)
from .records import FrozenRecord, Record
from .walks import GESSEL, KREWERAS, StepSet


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

    def first_mismatch(self, counts: Sequence[int]) -> int | None:
        """The first n at which g(n) differs from counts[n], or None."""
        pairs = zip(self.sequence(len(counts) - 1), counts)
        return next((n for n, (value, count) in enumerate(pairs) if value != count), None)


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


def nonneg_integer_roots(p: Sequence[int]) -> list[int]:
    """All nonnegative integer roots of an integer polynomial, ascending.

    0 is a root when a_0 = 0, and the power of x is divided out.  Scale p
    by -1 if needed so that a_d > 0, and let B be the largest |a_k| over
    the negative coefficients.  For x >= 1 + B / a_d (so x > 1 and
    B / (x - 1) <= a_d), p(x) >= a_d x^d - B (x^(d-1) + ... + 1)
    = a_d x^d - B (x^d - 1)/(x - 1) >= a_d > 0: every positive root is at
    most bound = 1 + B // a_d, and with no negative coefficient there is none.

    q = p / gcd(p, p') has the roots of p, all simple, so disc(q) != 0; at
    a prime m dividing neither lc(q) nor disc(q), q' is a unit at every
    root of q mod m, so the search for the least prime m not dividing lc(q)
    with that property ends.  Each such root has one lift to a root mod
    M = m^e for every e (roots x = y (mod m) have q(x) - q(y) = (x - y) u,
    u = q'(y) a unit mod m, so x = y (mod M)), and Newton's step
    r - q(r) q'(r)^-1 (mod M^2) takes the lift mod M to the lift mod M^2.
    Once M > bound, a root r in 1 .. bound is the lift of r mod m itself;
    a lift in range is kept when p(r) = 0 exactly.
    """
    p = ipoly_trim(list(p))
    if not p:
        raise ValueError("zero polynomial has every root")
    if p[-1] < 0:
        p = [-c for c in p]
    roots = [0] if p[0] == 0 else []
    p = p[next(k for k, c in enumerate(p) if c) :]
    b = max((-c for c in p if c < 0), default=0)
    if not b:
        return roots
    bound = 1 + b // p[-1]
    _, (q, _) = ipoly_gcd_cofactors([p, [k * c for k, c in enumerate(p)][1:]])
    dq = [k * c for k, c in enumerate(q)][1:]
    for mod in itertools.count(2):
        if q[-1] % mod and all(mod % k for k in range(2, math.isqrt(mod) + 1)):
            qm, dqm = [c % mod for c in q], [c % mod for c in dq]
            lifts = [r for r in range(mod) if _eval_mod(qm, r, mod) == 0]
            if all(_eval_mod(dqm, r, mod) for r in lifts):
                break
    while mod <= bound:
        mod *= mod
        qm, dqm = [c % mod for c in q], [c % mod for c in dq]
        lifts = [(r - _eval_mod(qm, r, mod) * pow(_eval_mod(dqm, r, mod), -1, mod)) % mod for r in lifts]
    return roots + sorted(r for r in lifts if 0 < r <= bound and ipoly_eval(p, r) == 0)


def _eval_mod(a: Sequence[int], x: int, mod: int) -> int:
    """a(x) mod ``mod`` by Horner's rule, reduced at every step: with x
    and the coefficients reduced mod ``mod``, no intermediate reaches
    mod**2."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % mod
    return acc


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


def prove_equality(p: UniOperator, term: HypergeomTerm, origin: Sequence[int]) -> EqualityVerdict:
    """Decide closed form == counting sequence from a shared recurrence.

    ``origin`` is the counting sequence from n = 0 on, f(n; 0, 0) at index
    n, as ``walks.origin_sequence`` gives it.  PROVED requires (a) the
    exact symbolic check that the term satisfies P and (b) matching
    initial values for n = 0 .. order(P) + s, where s is the largest
    nonnegative integer root of P's leading cleared coefficient (-1 if
    none): past n = s the leading coefficient cannot vanish, so the
    recurrence propagates the equality from the checked segment to all n.
    An ``origin`` shorter than order(P) + s + 1 values raises ValueError.
    """
    if p.is_zero():
        return EqualityVerdict("FAILED(zero-operator)")
    s = max_nonneg_root(p.leading_cleared())
    count = p.order() + s + 1  # s = -1 when the leading coefficient never vanishes
    if len(origin) < count:
        raise ValueError(f"{count} initial values needed, the origin sequence has {len(origin)}")
    if not symbolic_satisfies(p, term):
        return EqualityVerdict("FAILED(symbolic-recurrence)")
    bad = term.first_mismatch(origin[:count])
    if bad is not None:
        return EqualityVerdict("FAILED(initial-values)", count, s, failing_index=bad)
    return EqualityVerdict(PROVED, count, s)
