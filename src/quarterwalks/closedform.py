"""Closed forms of the origin-return counts and the final proof step.

The two built-in closed forms are hypergeometric terms with an interlacing
pattern: the Gessel counts vanish at odd length and satisfy

    f(2m; 0, 0) = 16^m (5/6)_m (1/2)_m / ((5/3)_m (2)_m),

and the Kreweras counts vanish off multiples of three with

    k(3m; 0, 0) = 4^m / ((m+1)(2m+1)) * binomial(3m, m).

Both are represented by a first-order ratio certificate b(m+1) = r(m) b(m),
with r = N/D for integer polynomials N and D, together with the support
pattern (period, residue).  ``symbolic_satisfies`` turns "the closed form
obeys a recurrence P" into one rational-function identity per residue
class and checks each one exactly, as a polynomial identity over Z once
the denominators are cleared, so a passing check is a proof, not a sampled
plausibility.  ``prove_equality`` combines that with enough initial values
to pin the sequence past every nonnegative root of the leading
coefficient, where the recurrence alone would not propagate uniqueness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .eliminate import UniOperator
from .exactmath import (
    ipoly_add,
    ipoly_compose_affine,
    ipoly_eval,
    ipoly_mul,
    ipoly_shift_arg,
)

GESSEL_NAME = "gessel"
KREWERAS_NAME = "kreweras"


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+k-1); the empty product is 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for t in range(k):
        out *= a + t
    return out


def gessel_rhs(m: int) -> int:
    """Closed form for the 2m-step Gessel walks returning to the origin."""
    if m < 0:
        raise ValueError("m must be >= 0")
    value = (
        Fraction(16) ** m
        * pochhammer(Fraction(5, 6), m)
        * pochhammer(Fraction(1, 2), m)
        / (pochhammer(Fraction(5, 3), m) * pochhammer(Fraction(2), m))
    )
    if value.denominator != 1:
        raise AssertionError(f"Gessel closed form not integral at m={m}: {value}")
    return value.numerator


def kreweras_rhs(m: int) -> int:
    """Closed form for the 3m-step Kreweras walks returning to the origin."""
    if m < 0:
        raise ValueError("m must be >= 0")
    value = Fraction(4**m * math.comb(3 * m, m), (m + 1) * (2 * m + 1))
    if value.denominator != 1:
        raise AssertionError(f"Kreweras closed form not integral at m={m}: {value}")
    return value.numerator


@dataclass(frozen=True)
class HypergeomTerm:
    """An interlaced hypergeometric sequence.

    ``ratio`` is the pair (N, D) of integer coefficient tuples (low degree
    first) of r = N/D with b(m+1) = r(m) b(m), and ``initial`` is b(0); the
    full sequence is g(n) = b((n - residue) / period) on the residue class
    and 0 elsewhere.  D must have no nonnegative integer root, so b is
    defined for every m >= 0.
    """

    ratio: tuple[tuple[int, ...], tuple[int, ...]]
    initial: Fraction
    period: int
    residue: int

    def __post_init__(self):
        if self.period < 1 or not (0 <= self.residue < self.period):
            raise ValueError("support pattern must have period >= 1, 0 <= residue < period")
        roots = nonneg_integer_roots(self.ratio[1])
        if roots:
            raise ValueError(f"ratio denominator vanishes at m = {min(roots)}")

    def ratio_at(self, m: int) -> Fraction:
        """r(m) = N(m) / D(m)."""
        num, den = self.ratio
        return Fraction(ipoly_eval(num, m), ipoly_eval(den, m))

    def base_values(self, count: int) -> list[Fraction]:
        """b(0), ..., b(count-1) by iterating the ratio certificate."""
        out = [Fraction(self.initial)]
        for m in range(count - 1):
            out.append(out[-1] * self.ratio_at(m))
        return out

    def sequence(self, n_max: int) -> list[Fraction]:
        """g(0), ..., g(n_max) with the interlacing zeros in place."""
        base = self.base_values(n_max // self.period + 1)
        out = []
        for n in range(n_max + 1):
            if n % self.period == self.residue:
                out.append(base[(n - self.residue) // self.period])
            else:
                out.append(Fraction(0))
        return out


def hypergeom_term(which: str) -> HypergeomTerm:
    """The built-in terms; ratios come from simplifying consecutive quotients
    of the closed forms and are re-checked against them in the test suite."""
    if which == GESSEL_NAME:
        # b(m+1)/b(m) = 4 (6m+5)(2m+1) / ((3m+5)(m+2)), support = even n
        return HypergeomTerm(((20, 64, 48), (10, 11, 3)), Fraction(1), 2, 0)
    if which == KREWERAS_NAME:
        # b(m+1)/b(m) = 6 (3m+1)(3m+2) / ((m+2)(2m+3)), support = multiples of 3
        return HypergeomTerm(((12, 54, 54), (6, 7, 2)), Fraction(1), 3, 0)
    raise ValueError(f"unknown closed form {which!r}")


def closed_form_value(which: str, n: int) -> int:
    """The interlaced sequence value at index n (0 off the support class)."""
    term = hypergeom_term(which)
    if n % term.period != term.residue:
        return 0
    m = (n - term.residue) // term.period
    return gessel_rhs(m) if which == GESSEL_NAME else kreweras_rhs(m)


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
    all must normalize to zero.
    """
    if p.is_zero():
        warnings.warn("the zero operator is satisfied by every sequence")
        return True
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


@dataclass
class EqualityVerdict:
    status: str  # PROVED or FAILED(<reason>)
    checked_initial_values: int = 0
    singular_bound: int = -1
    failing_index: int | None = None

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
