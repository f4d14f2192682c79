"""The shift-operator algebra Q[n, i, j]<S_n, S_i, S_j>.

Operators are kept in left-normal form: every power of n, i, j stands to
the left of every shift symbol, so an operator is a map from shift
monomials S_n^e4 S_i^e5 S_j^e6 to polynomial left coefficients.  The shift
symbols commute with each other; moving a shift S_x leftward past a
coefficient substitutes x -> x + 1 in it, which is the only source of
noncommutativity.

``div_rem`` divides by an operator with constant coefficients (such as the
transfer-recurrence operator of a walk family) and is the workhorse of the
certification algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exactmath import MultiPoly

ShiftExp = tuple[int, int, int]

SHIFTS = ("Sn", "Si", "Sj")


class UnsupportedDivisorError(ValueError):
    """Division is only implemented for constant-coefficient divisors."""


@dataclass(frozen=True)
class MonomialOrder:
    """A total order on shift monomials.

    ``lex`` compares exponents of S_n, then S_i, then S_j; ``grlex``
    compares total shift degree first.  Both are compatible with monomial
    multiplication, which is what the division argument needs.
    """

    kind: str = "lex"

    def key(self, exp: ShiftExp):
        if self.kind == "lex":
            return exp
        if self.kind == "grlex":
            return (sum(exp), exp[0], exp[1], exp[2])
        raise ValueError(f"unknown monomial order {self.kind!r}")

    def max(self, exps: Iterable[ShiftExp]) -> ShiftExp:
        return max(exps, key=self.key)


LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")


@dataclass(frozen=True)
class Degrees:
    """Per-symbol maxima of an operator; ``empty`` marks the zero operator."""

    empty: bool
    deg_n: int | None = None
    deg_i: int | None = None
    deg_j: int | None = None
    ord_sn: int | None = None
    ord_si: int | None = None
    ord_sj: int | None = None
    total_poly_deg: int | None = None


class OreOperator:
    """An element of Q[n,i,j]<S_n,S_i,S_j> in left-normal form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ShiftExp, MultiPoly] | None = None):
        clean: dict[ShiftExp, MultiPoly] = {}
        if terms:
            for exp, coeff in terms.items():
                if not isinstance(coeff, MultiPoly):
                    coeff = MultiPoly.const(coeff)
                if coeff:
                    e = (int(exp[0]), int(exp[1]), int(exp[2]))
                    if any(x < 0 for x in e):
                        raise ValueError(f"negative shift exponent in {exp}")
                    clean[e] = coeff
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "OreOperator":
        return cls()

    @classmethod
    def one(cls) -> "OreOperator":
        return cls({(0, 0, 0): MultiPoly.const(1)})

    @classmethod
    def shift(cls, name: str, power: int = 1) -> "OreOperator":
        if name not in SHIFTS:
            raise ValueError(f"unknown shift symbol {name!r}")
        exp = [0, 0, 0]
        exp[SHIFTS.index(name)] = power
        return cls({tuple(exp): MultiPoly.const(1)})

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "OreOperator":
        return cls({(0, 0, 0): p})

    @classmethod
    def monomial(cls, shift_exp: ShiftExp, coeff=1) -> "OreOperator":
        c = coeff if isinstance(coeff, MultiPoly) else MultiPoly.const(coeff)
        return cls({shift_exp: c})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[ShiftExp, MultiPoly]:
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
        return sorted(self._terms)

    def leading_monomial(self, order: MonomialOrder = LEX) -> ShiftExp:
        if not self._terms:
            raise ValueError("zero operator has no leading monomial")
        return order.max(self._terms)

    def has_constant_coefficients(self) -> bool:
        return all(c.is_constant() for c in self._terms.values())

    def degrees(self) -> Degrees:
        if not self._terms:
            return Degrees(empty=True)
        return Degrees(
            empty=False,
            deg_n=max(c.degree("n") for c in self._terms.values()),
            deg_i=max(c.degree("i") for c in self._terms.values()),
            deg_j=max(c.degree("j") for c in self._terms.values()),
            ord_sn=max(e[0] for e in self._terms),
            ord_si=max(e[1] for e in self._terms),
            ord_sj=max(e[2] for e in self._terms),
            total_poly_deg=max(c.total_degree() for c in self._terms.values()),
        )

    def total_poly_deg(self) -> int:
        """Max total degree in n, i, j over the coefficients; -1 for zero."""
        if not self._terms:
            return -1
        return max(c.total_degree() for c in self._terms.values())

    # -- algebra ----------------------------------------------------------

    def __add__(self, other) -> "OreOperator":
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, MultiPoly.zero()) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return OreOperator(out)

    __radd__ = __add__

    def __neg__(self) -> "OreOperator":
        return OreOperator({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "OreOperator":
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OreOperator":
        return _coerce_op(other) + (-self)

    def __mul__(self, other) -> "OreOperator":
        """Product in left-normal form.

        For single terms, (a(n,i,j) S^A)(b(n,i,j) S^B) = a * b', with b'
        the coefficient b shifted by the offsets in A, on the monomial
        S^(A+B).
        """
        other = _coerce_op(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[ShiftExp, MultiPoly] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                shifted = cb
                if ea[0]:
                    shifted = shifted.substitute_shift("n", ea[0])
                if ea[1]:
                    shifted = shifted.substitute_shift("i", ea[1])
                if ea[2]:
                    shifted = shifted.substitute_shift("j", ea[2])
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                s = out.get(e, MultiPoly.zero()) + ca * shifted
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return OreOperator(out)

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
        out: dict[ShiftExp, MultiPoly] = {}
        for exp, c in self._terms.items():
            c0 = c.substitute_zero(names)
            if c0:
                out[exp] = c0
        return OreOperator(out)

    def normalized(self, order: MonomialOrder = LEX) -> "OreOperator":
        """Canonical scaling: common rational content and common monomial
        factor removed, leading rational of the leading coefficient positive.

        Common polynomial factors beyond monomials are not cancelled.
        """
        if not self._terms:
            return self
        mins = [10**9, 10**9, 10**9]
        for c in self._terms.values():
            m = c.monomial_min_exponents()
            mins = [min(a, b) for a, b in zip(mins, m)]
        num_gcd, den_lcm = 0, 1
        for c in self._terms.values():
            cc = c.content()
            num_gcd = math.gcd(num_gcd, cc.numerator)
            den_lcm = den_lcm * cc.denominator // math.gcd(den_lcm, cc.denominator)
        content = Fraction(num_gcd, den_lcm) if num_gcd else Fraction(1)
        lead = self._terms[order.max(self._terms)]
        lead_coeff = lead.terms[max(lead.terms)]
        sign = -1 if lead_coeff < 0 else 1
        scale = Fraction(sign) / content
        shift_down = tuple(-m for m in mins)
        out: dict[ShiftExp, MultiPoly] = {}
        for exp, c in self._terms.items():
            new_terms = {}
            for pexp, q in c.terms.items():
                new_terms[
                    (pexp[0] + shift_down[0], pexp[1] + shift_down[1], pexp[2] + shift_down[2])
                ] = q * scale
            out[exp] = MultiPoly(new_terms)
        return OreOperator(out)

    # -- action on the counting oracle ---------------------------------------

    def apply_at(self, oracle, n: int, i: int, j: int) -> Fraction:
        """Value of (this operator applied to the oracle) at one point.

        The sum is kept as an integer numerator over the lcm of the
        coefficients' denominators and divided once at the end."""
        total, den = 0, 1
        for (e4, e5, e6), c in self._terms.items():
            num, d = c.eval_parts(n, i, j)
            if num:
                m = math.lcm(den, d)
                total = total * (m // den) + num * oracle.value(n + e4, i + e5, j + e6) * (m // d)
                den = m
        return Fraction(total, den)

    def apply(self, oracle, box: "Box") -> dict[tuple[int, int, int], Fraction]:
        """Grid of values over a box of points (inclusive ranges)."""
        out = {}
        for n, i, j in box.points():
            out[(n, i, j)] = self.apply_at(oracle, n, i, j)
        return out

    def is_zero_on(self, oracle, box: "Box") -> bool:
        for n, i, j in box.points():
            if self.apply_at(oracle, n, i, j):
                return False
        return True

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms, reverse=True):
            c = self._terms[exp]
            mono = "".join(
                f"{s}^{e}" if e > 1 else (s if e == 1 else "")
                for s, e in zip(("Sn", "Si", "Sj"), exp)
            )
            cs = repr(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts).replace("+ -", "- ")


def _coerce_op(x):
    if isinstance(x, OreOperator):
        return x
    if isinstance(x, MultiPoly):
        return OreOperator.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return OreOperator({(0, 0, 0): MultiPoly.const(x)})
    return NotImplemented


@dataclass(frozen=True)
class Box:
    """Inclusive coordinate ranges for grid evaluation."""

    n_range: tuple[int, int]
    i_range: tuple[int, int]
    j_range: tuple[int, int]

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


def div_rem(
    x: OreOperator, t: OreOperator, order: MonomialOrder = LEX
) -> tuple[OreOperator, OreOperator]:
    """Division with remainder by a constant-coefficient operator.

    Returns (u, v) with  x = u*t + v  exactly and no shift monomial of v
    divisible, componentwise in exponents, by the leading monomial of t.
    Each round cancels the order-largest divisible monomial of the running
    remainder; the replacement monomials are strictly smaller, so the loop
    terminates.
    """
    if t.is_zero():
        raise UnsupportedDivisorError("division by the zero operator")
    if not t.has_constant_coefficients():
        raise UnsupportedDivisorError("divisor must have constant coefficients")
    lm = t.leading_monomial(order)
    lc = t.terms[lm].constant_value()
    u_terms: dict[ShiftExp, MultiPoly] = {}
    v = x
    while True:
        divisible = [
            e
            for e in v._terms
            if e[0] >= lm[0] and e[1] >= lm[1] and e[2] >= lm[2]
        ]
        if not divisible:
            break
        m = order.max(divisible)
        q_coeff = v._terms[m] * (Fraction(1) / lc)
        q_exp = (m[0] - lm[0], m[1] - lm[1], m[2] - lm[2])
        cur = u_terms.get(q_exp, MultiPoly.zero()) + q_coeff
        if cur:
            u_terms[q_exp] = cur
        else:
            u_terms.pop(q_exp, None)
        v = v - OreOperator({q_exp: q_coeff}) * t
    return OreOperator(u_terms), v


# ---------------------------------------------------------------------------
# JSON interchange (round-trips bit-exactly).
# ---------------------------------------------------------------------------


def operator_to_json(op: OreOperator) -> dict:
    terms = []
    for exp in sorted(op.terms):
        coeff = op.terms[exp]
        monos = []
        for pexp in sorted(coeff.terms):
            q = coeff.terms[pexp]
            monos.append(
                {"exp": list(pexp), "num": str(q.numerator), "den": str(q.denominator)}
            )
        terms.append({"shift": list(exp), "coeff": monos})
    return {"vars": ["n", "i", "j"], "shifts": ["Sn", "Si", "Sj"], "terms": terms}


def operator_from_json(data: dict) -> OreOperator:
    if data.get("vars") != ["n", "i", "j"] or data.get("shifts") != ["Sn", "Si", "Sj"]:
        raise ValueError("unrecognized operator header")
    terms: dict[ShiftExp, MultiPoly] = {}
    for entry in data["terms"]:
        exp = tuple(int(x) for x in entry["shift"])
        if len(exp) != 3:
            raise ValueError(f"bad shift triple {entry['shift']}")
        coeff_terms = {}
        for mono in entry["coeff"]:
            pexp = tuple(int(x) for x in mono["exp"])
            if len(pexp) != 3:
                raise ValueError(f"bad exponent triple {mono['exp']}")
            coeff_terms[pexp] = Fraction(int(mono["num"]), int(mono["den"]))
        if exp in terms:
            raise ValueError(f"duplicate shift monomial {exp}")
        terms[exp] = MultiPoly(coeff_terms)
    return OreOperator(terms)
