"""The shift-operator algebra Z[n, i, j]<S_n, S_i, S_j>.

An operator is a polynomial in all six generators, kept in left-normal
form: every power of n, i, j stands to the left of every shift symbol.
It is stored as one map from the exponents (dn, di, dj, e4, e5, e6) of a
term n^dn i^di j^dj S_n^e4 S_i^e5 S_j^e6 to its nonzero integer
coefficient; the key order is that of the ansatz index ``guess.Tuple6``.
A polynomial of Z[n, i, j] is an operator without shifts, built from
``variable`` and ``const``.

The variables commute with each other and so do the shift symbols; the
product is the only noncommutative step.  Moving S_x leftward past a
monomial substitutes x -> x + 1 in it, S_x x^d = (x + 1)^d S_x, so a
product of two terms expands the right term's monomial binomially.  An
operator with rational coefficients has a nonzero integer multiple with
the same annihilation claims, and that is the form in which an operator
file is read.

``div_rem`` divides by an operator with constant coefficients and a unit
leading coefficient (such as the transfer operator of a walk family), so
that the quotient stays integral.  It reduces the remainder in place, and
each cancelled term touches only the divisor's other terms; it is the
workhorse of the certification algorithm, together with ``commutator``:
[T, W] for such a T, built without products.  ``evaluate`` is the one
evaluator of operators on a counting oracle, over ``term_rows``.
"""

from __future__ import annotations

import functools
import heapq
import math
from operator import itemgetter, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .records import FrozenRecord, json_int

Term = tuple[int, int, int, int, int, int]
ShiftExp = tuple[int, int, int]
Point = tuple[int, int, int]

VARS = ("n", "i", "j")
SHIFTS = ("Sn", "Si", "Sj")


class UnsupportedDivisorError(ValueError):
    """Division is only implemented for constant-coefficient divisors
    whose leading coefficient is 1 or -1."""


class Degrees(FrozenRecord):
    """Per-symbol maxima of an operator; ``empty`` marks the zero operator."""

    __slots__ = ("empty", "deg_n", "deg_i", "deg_j", "ord_sn", "ord_si", "ord_sj", "total_poly_deg")

    def __init__(
        self, empty: bool, deg_n: int | None = None, deg_i: int | None = None,
        deg_j: int | None = None, ord_sn: int | None = None, ord_si: int | None = None,
        ord_sj: int | None = None, total_poly_deg: int | None = None,
    ):
        self._init(empty, deg_n, deg_i, deg_j, ord_sn, ord_si, ord_sj, total_poly_deg)


def _shift_first(key: Term) -> tuple[int, ...]:
    """Order terms by shift monomial, then by the monomial in n, i, j."""
    return key[3:] + key[:3]


def _add_into(out: dict[Term, int], terms: Iterable[tuple[Term, int]]) -> dict[Term, int]:
    """Add the (key, coefficient) pairs into ``out``, dropping every key
    whose coefficient cancels to zero."""
    for key, c in terms:
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


@functools.cache
def _binomial(d: int, a: int) -> tuple[tuple[int, int], ...]:
    """(x + a)^d as (power of x, integer coefficient) pairs; cached, since
    few pairs (d, a) occur and the result is immutable."""
    if not a:
        return ((d, 1),)
    return tuple((t, math.comb(d, t) * a ** (d - t)) for t in range(d + 1))


def _moved_past(
    terms: dict[Term, int], shift: ShiftExp, commute: bool = False
) -> Iterable[tuple[Term, int]]:
    """The terms of S^shift * op with S^shift written on the right:
    n, i, j are replaced by n + shift[0], i + shift[1], j + shift[2] and
    each monomial is expanded binomially (the shifts of ``terms`` are
    kept; S^shift itself is not added).  With ``commute``, the terms of
    S^shift op - op S^shift, where c S^e gives (c(x + shift) - c(x)) S^(e + shift)."""
    if not any(shift):
        return [] if commute else terms.items()
    out: dict[Term, int] = {}
    for (dn, di, dj, e4, e5, e6), c in terms.items():
        if commute:
            e4, e5, e6 = e4 + shift[0], e5 + shift[1], e6 + shift[2]
        for tn, cn in _binomial(dn, shift[0]):
            for ti, ci in _binomial(di, shift[1]):
                for tj, cj in _binomial(dj, shift[2]):
                    if commute and tn == dn and ti == di and tj == dj:
                        continue
                    key = (tn, ti, tj, e4, e5, e6)
                    out[key] = out.get(key, 0) + c * cn * ci * cj
    return [(key, c) for key, c in out.items() if c]


def _power_product(names: tuple[str, ...], exps: Iterable[int]) -> str:
    return "".join(f"{s}^{e}" if e > 1 else (s if e == 1 else "") for s, e in zip(names, exps))


class OreOperator:
    """An element of Z[n,i,j]<S_n,S_i,S_j> in left-normal form: a map from
    term exponents (dn, di, dj, e4, e5, e6) to nonzero ints."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, int] | None = None):
        """Check an outside term map: every coefficient is an int (a
        Fraction, a float or a bool raises TypeError), zero coefficients
        are dropped, and the key of every other one is six nonnegative int
        exponents (ValueError otherwise).  Results the class computes
        itself skip this check."""
        clean: dict[Term, int] = {}
        for key, c in (terms or {}).items():
            if type(c) is not int:
                raise TypeError(f"expected an int coefficient, got {type(c).__name__}")
            if c:
                key = tuple(key)
                if len(key) != 6 or any(type(e) is not int or e < 0 for e in key):
                    raise ValueError(f"term exponents must be six nonnegative ints, not {key}")
                clean[key] = c
        self._terms = clean

    @classmethod
    def _of(cls, terms: dict[Term, int]) -> "OreOperator":
        """Wrap a term map built by this module: valid keys and nonzero
        int coefficients, owned by the new operator."""
        op = object.__new__(cls)
        op._terms = terms
        return op

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "OreOperator":
        return cls._of({})

    @classmethod
    def const(cls, c: int) -> "OreOperator":
        return cls({(0, 0, 0, 0, 0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "OreOperator":
        """The polynomial n, i or j."""
        if name not in VARS:
            raise ValueError(f"unknown variable {name!r}")
        key = [0] * 6
        key[VARS.index(name)] = 1
        return cls._of({tuple(key): 1})

    @classmethod
    def shift(cls, name: str, power: int = 1) -> "OreOperator":
        if name not in SHIFTS:
            raise ValueError(f"unknown shift symbol {name!r}")
        key = [0] * 6
        key[3 + SHIFTS.index(name)] = power
        return cls({tuple(key): 1})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Term, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, OreOperator):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def support(self) -> list[ShiftExp]:
        """The shift monomials that carry a term, sorted."""
        return sorted({key[3:] for key in self._terms})

    def leading_monomial(self) -> ShiftExp:
        """The lex-largest shift monomial: S_n exponent first, then S_i,
        then S_j."""
        if not self._terms:
            raise ValueError("zero operator has no leading monomial")
        return max(key[3:] for key in self._terms)

    def degrees(self) -> Degrees:
        if not self._terms:
            return Degrees(empty=True)
        maxima = (max(key[k] for key in self._terms) for k in range(6))
        return Degrees(False, *maxima, total_poly_deg=self.total_poly_deg())

    def total_poly_deg(self) -> int:
        """Max total degree in n, i, j over the terms; -1 for zero."""
        return max((key[0] + key[1] + key[2] for key in self._terms), default=-1)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other) -> "OreOperator":
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        return OreOperator._of(_add_into(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "OreOperator":
        return OreOperator._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "OreOperator":
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OreOperator":
        return _coerce_op(other) + (-self)

    def __mul__(self, other) -> "OreOperator":
        """Product in left-normal form, term by term:
        (a x^P S^A)(b x^Q S^B) = a b x^P (x + A)^Q S^(A+B), with x^Q
        standing for n^dn i^di j^dj and (x + A)^Q expanded binomially."""
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Term, int] = {}
        moved: dict[ShiftExp, Iterable[tuple[Term, int]]] = {}
        for (an, ai, aj, a4, a5, a6), ca in self._terms.items():
            shift = (a4, a5, a6)
            if shift not in moved:
                moved[shift] = _moved_past(other._terms, shift)
            _add_into(
                out,
                (
                    ((an + bn, ai + bi, aj + bj, a4 + b4, a5 + b5, a6 + b6), ca * cb)
                    for (bn, bi, bj, b4, b5, b6), cb in moved[shift]
                ),
            )
        return OreOperator._of(out)

    def __rmul__(self, other) -> "OreOperator":
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    # -- specialization -----------------------------------------------------

    def substitute_zero(self, names: Iterable[str]) -> "OreOperator":
        """Set the named coefficient variables (from i, j) to zero."""
        names = list(names)
        for v in names:
            if v not in ("i", "j"):
                raise ValueError(f"can only substitute i or j to zero, not {v!r}")
        ks = [VARS.index(v) for v in names]
        return OreOperator._of(
            {key: c for key, c in self._terms.items() if not any(key[k] for k in ks)}
        )

    def normalized(self) -> "OreOperator":
        """Canonical scaling: integer content and common monomial factor
        removed, leading integer of the leading coefficient positive.

        Common polynomial factors beyond monomials are not cancelled.
        """
        if not self._terms:
            return self
        mn, mi, mj = (min(key[k] for key in self._terms) for k in range(3))
        content = math.gcd(*self._terms.values())
        if self._terms[max(self._terms, key=_shift_first)] < 0:
            content = -content
        return OreOperator._of(
            {
                (dn - mn, di - mi, dj - mj, e4, e5, e6): c // content
                for (dn, di, dj, e4, e5, e6), c in self._terms.items()
            }
        )

    # -- action on the counting oracle ---------------------------------------

    def apply_at(self, oracle, n: int, i: int, j: int) -> int:
        """(this operator applied to the oracle) at one point, by ``evaluate``."""
        return next(evaluate([self], oracle, [(n, i, j)]))[0]

    def is_zero_on(self, oracle, box: "Box") -> bool:
        return first_nonzero(self, oracle, box.points()) is None

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        by_shift: dict[ShiftExp, list[str]] = {}
        for key in sorted(self._terms, key=_shift_first, reverse=True):
            c, mono = self._terms[key], _power_product(VARS, key[:3])
            if not mono:
                text = f"{c}"
            else:
                text = ("" if c == 1 else "-" if c == -1 else f"{c}*") + mono
            by_shift.setdefault(key[3:], []).append(text)
        parts = []
        for shift, monos in by_shift.items():
            cs = " + ".join(monos)
            if len(monos) > 1:
                cs = f"({cs})"
            mono = _power_product(SHIFTS, shift)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts).replace("+ -", "- ")


def _coerce_op(x):
    if isinstance(x, OreOperator):
        return x
    if isinstance(x, int):
        return OreOperator.const(x)
    return NotImplemented


class Box(FrozenRecord):
    """Inclusive coordinate ranges for grid evaluation."""

    __slots__ = ("n_range", "i_range", "j_range")

    def __init__(
        self, n_range: tuple[int, int], i_range: tuple[int, int], j_range: tuple[int, int],
    ):
        self._init(n_range, i_range, j_range)

    @classmethod
    def cube(cls, n_max: int, ij_max: int | None = None, n_min: int = 0) -> "Box":
        if ij_max is None:
            ij_max = n_max
        return cls((n_min, n_max), (0, ij_max), (0, ij_max))

    def points(self):
        for n in range(self.n_range[0], self.n_range[1] + 1):
            for i in range(self.i_range[0], self.i_range[1] + 1):
                for j in range(self.j_range[0], self.j_range[1] + 1):
                    yield (n, i, j)


# ---------------------------------------------------------------------------
# Evaluation on the counting oracle, and the commutator
# ---------------------------------------------------------------------------


def _gather(indices: Sequence[int]):
    """``itemgetter`` over `indices` that returns a tuple for any number."""
    if len(indices) == 1:
        k = indices[0]
        return lambda seq: (seq[k],)
    return itemgetter(*indices) if indices else lambda seq: ()


def term_rows(support: Sequence[Term], oracle, points: Iterable[Point]) -> Iterator[list[int]]:
    """Per point, made when asked for, the row of n^e1 i^e2 j^e3 f(n + e4,
    i + e5, j + e6) over the support's terms (e1, ..., e6): each distinct
    shift and monomial is computed once per point (0^0 = 1), and each
    distinct cell asked of ``oracle.value`` once per call."""
    shifts = {s: k for k, s in enumerate(sorted({t[3:] for t in support}))}
    monomials = {m: k for k, m in enumerate(sorted({t[:3] for t in support}))}
    shift_of = _gather([shifts[t[3:]] for t in support])
    monomial_of = _gather([monomials[t[:3]] for t in support])
    value = functools.cache(oracle.value)
    for n, i, j in points:
        values = [value(n + e4, i + e5, j + e6) for e4, e5, e6 in shifts]
        powers = [n**e1 * i**e2 * j**e3 for e1, e2, e3 in monomials]
        yield list(map(mul, monomial_of(powers), shift_of(values)))


def evaluate(ops: Sequence[OreOperator], oracle, points: Iterable[Point]) -> Iterator[list[int]]:
    """Per point, in point order, the list of the values (op f)(n; i, j):
    the term rows over the union of the supports times each operator's
    coefficient vector, so each point and cell is read once for all."""
    support = list(dict.fromkeys(key for op in ops for key in op._terms))
    column = {key: c for c, key in enumerate(support)}
    dots = [(_gather([column[key] for key in op._terms]), tuple(op._terms.values())) for op in ops]
    for row in term_rows(support, oracle, points):
        yield [sum(map(mul, gather(row), coeffs)) for gather, coeffs in dots]


def first_nonzero(op: OreOperator, oracle, points: Iterable[Point]) -> Point | None:
    """The first of the points where (op f) is nonzero, or None; reads no cell past it."""
    points = list(points)
    return next((pt for pt, (v,) in zip(points, evaluate([op], oracle, points)) if v), None)


def commutator(t: OreOperator, w: OreOperator) -> OreOperator:
    """[T, W] = T W - W T for T with constant coefficients (any other T
    raises UnsupportedDivisorError, as in ``div_rem``), without either
    product: for T = sum_k t_k S^k and W = sum_m c_m(x) S^m it is the sum
    of t_k [S^k, c_m S^m] = t_k (c_m(x + k) - c_m(x)) S^(k+m)."""
    if t.total_poly_deg() > 0:
        raise UnsupportedDivisorError("divisor must have constant coefficients")
    out: dict[Term, int] = {}
    for (_, _, _, k4, k5, k6), tk in t._terms.items():
        _add_into(out, ((key, tk * c) for key, c in _moved_past(w._terms, (k4, k5, k6), True)))
    return OreOperator._of(out)


def div_rem(x: OreOperator, t: OreOperator) -> tuple[OreOperator, OreOperator]:
    """Division with remainder by a constant-coefficient operator whose
    leading coefficient is 1 or -1 (every transfer operator has leading
    coefficient 1); any other divisor raises UnsupportedDivisorError.

    Returns (u, v) with  x = u*t + v  exactly, u and v integral, and no
    shift monomial of v divisible, componentwise in exponents, by the
    leading monomial lm of t.  The remainder is one term map, reduced in
    place: a divisible term a x^P S^m, the lex-largest left (S_n exponent
    first, then S_i, then S_j), is cancelled by subtracting
    (a / lc) x^P S^(m - lm) t.  As t's coefficients are constants, that
    only changes the terms x^P S^(m - lm + s) for t's other monomials s,
    each strictly below m, since lex is compatible with monomial
    multiplication.  The cancelled monomial thus falls strictly from round
    to round, and lex is a well-order on N^3, so the loop terminates.
    """
    if t.is_zero():
        raise UnsupportedDivisorError("division by the zero operator")
    if t.total_poly_deg() > 0:
        raise UnsupportedDivisorError("divisor must have constant coefficients")
    lm = t.leading_monomial()
    lc = t._terms[(0, 0, 0) + lm]
    if lc not in (1, -1):
        raise UnsupportedDivisorError(f"divisor's leading coefficient {lc} is not 1 or -1")
    tail = [(key[3:], c) for key, c in t._terms.items() if key[3:] != lm]
    u, v = {}, dict(x._terms)
    heap = [(-key[3], -key[4], -key[5], key) for key in v]
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)[3]
        if not v[key] or any(e < b for e, b in zip(key[3:], lm)):
            continue
        q = v.pop(key) * lc  # = v_key / lc, as lc = +-1
        mono, d = key[:3], (key[3] - lm[0], key[4] - lm[1], key[5] - lm[2])
        u[mono + d] = q
        for (s4, s5, s6), c in tail:
            k = mono + (d[0] + s4, d[1] + s5, d[2] + s6)
            if k not in v:
                heapq.heappush(heap, (-k[3], -k[4], -k[5], k))
            v[k] = v.get(k, 0) - q * c
    return OreOperator._of(u), OreOperator._of({key: c for key, c in v.items() if c})


# ---------------------------------------------------------------------------
# JSON interchange (round-trips bit-exactly).
# ---------------------------------------------------------------------------


def operator_to_json(op: OreOperator) -> dict:
    """The file form groups the terms by shift monomial: each shift lists
    its coefficient's monomials, both in ascending order."""
    by_shift: dict[ShiftExp, list[dict]] = {}
    for key, c in sorted(op.terms.items(), key=lambda kc: _shift_first(kc[0])):
        mono = {"exp": list(key[:3]), "num": str(c), "den": "1"}
        by_shift.setdefault(key[3:], []).append(mono)
    terms = [{"shift": list(shift), "coeff": monos} for shift, monos in by_shift.items()]
    return {"vars": ["n", "i", "j"], "shifts": ["Sn", "Si", "Sj"], "terms": terms}


def operator_from_json(data: dict) -> OreOperator:
    """Read an operator file.  Each coefficient is a fraction num/den of
    integer fields (``json_int``).  When some den is not 1, every
    coefficient is multiplied by the lcm L of the denominators in lowest
    terms: that is left multiplication of the whole operator by the
    nonzero constant L, which annihilates exactly what the file's operator
    annihilates, and the result has integer coefficients.  A zero
    denominator, a repeated shift monomial, or a monomial repeated in one
    coefficient raises ValueError naming its shift monomial."""
    if data.get("vars") != ["n", "i", "j"] or data.get("shifts") != ["Sn", "Si", "Sj"]:
        raise ValueError("unrecognized operator header")
    fracs: dict[Term, tuple[int, int]] = {}
    shifts: set[ShiftExp] = set()
    for entry in data["terms"]:
        shift = tuple(json_int(x) for x in entry["shift"])
        if len(shift) != 3:
            raise ValueError(f"bad shift triple {entry['shift']}")
        if shift in shifts:
            raise ValueError(f"duplicate shift monomial {shift}")
        shifts.add(shift)
        for mono in entry["coeff"]:
            pexp = tuple(json_int(x) for x in mono["exp"])
            if len(pexp) != 3:
                raise ValueError(f"bad exponent triple {mono['exp']}")
            if pexp + shift in fracs:
                raise ValueError(f"duplicate exponent {pexp} in the coefficient of shift {shift}")
            num, den = json_int(mono["num"]), json_int(mono["den"])
            if not den:
                raise ValueError(f"zero denominator in the coefficient of shift {shift}")
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            fracs[pexp + shift] = num // g, den // g
    scale = math.lcm(*(den for _, den in fracs.values()))
    return OreOperator({key: num * (scale // den) for key, (num, den) in fracs.items()})
