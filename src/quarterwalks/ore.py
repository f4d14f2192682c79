"""The shift-operator algebra Z[n, i, j]<S_n, S_i, S_j>.

Operators are kept in left-normal form: every power of n, i, j stands to
the left of every shift symbol, so an operator is a map from shift
monomials S_n^e4 S_i^e5 S_j^e6 to polynomial left coefficients.  The shift
symbols commute with each other; moving a shift S_x leftward past a
coefficient substitutes x -> x + 1 in it, which is the only source of
noncommutativity.  The coefficients are ``MultiPoly`` polynomials with
integer coefficients; an operator with rational coefficients has a
nonzero integer multiple with the same annihilation claims, and that is
the form in which an operator file is read.

``div_rem`` divides by an operator with constant coefficients and a unit
leading coefficient (such as the transfer-recurrence operator of a walk
family), so that the quotient stays integral; it is the workhorse of the
certification algorithm.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .exactmath import MultiPoly

ShiftExp = tuple[int, int, int]

SHIFTS = ("Sn", "Si", "Sj")


class UnsupportedDivisorError(ValueError):
    """Division is only implemented for constant-coefficient divisors
    whose leading coefficient is 1 or -1."""


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
    """An element of Z[n,i,j]<S_n,S_i,S_j> in left-normal form."""

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

    def leading_monomial(self) -> ShiftExp:
        """The lex-largest shift monomial: S_n exponent first, then S_i,
        then S_j."""
        if not self._terms:
            raise ValueError("zero operator has no leading monomial")
        return max(self._terms)

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

    def normalized(self) -> "OreOperator":
        """Canonical scaling: integer content and common monomial factor
        removed, leading integer of the leading coefficient positive.

        Common polynomial factors beyond monomials are not cancelled.
        """
        if not self._terms:
            return self
        mins = [10**9, 10**9, 10**9]
        for c in self._terms.values():
            m = c.monomial_min_exponents()
            mins = [min(a, b) for a, b in zip(mins, m)]
        content = math.gcd(*(c.content() for c in self._terms.values()))
        lead = self._terms[max(self._terms)]
        if lead.terms[max(lead.terms)] < 0:
            content = -content
        out: dict[ShiftExp, MultiPoly] = {}
        for exp, c in self._terms.items():
            out[exp] = MultiPoly(
                {
                    (pexp[0] - mins[0], pexp[1] - mins[1], pexp[2] - mins[2]): q // content
                    for pexp, q in c.terms.items()
                }
            )
        return OreOperator(out)

    # -- action on the counting oracle ---------------------------------------

    def apply_at(self, oracle, n: int, i: int, j: int) -> int:
        """Value of (this operator applied to the oracle) at one point; the
        oracle is read only where a coefficient does not vanish."""
        total = 0
        for (e4, e5, e6), c in self._terms.items():
            v = c.eval(n, i, j)
            if v:
                total += v * oracle.value(n + e4, i + e5, j + e6)
        return total

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
    if isinstance(x, int):
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


def div_rem(x: OreOperator, t: OreOperator) -> tuple[OreOperator, OreOperator]:
    """Division with remainder by a constant-coefficient operator whose
    leading coefficient is 1 or -1 (every transfer operator has leading
    coefficient 1); any other divisor raises UnsupportedDivisorError.

    Returns (u, v) with  x = u*t + v  exactly and no shift monomial of v
    divisible, componentwise in exponents, by the leading monomial of t.
    Each quotient term is a coefficient of the running remainder divided
    by the unit lc(t), so u and v have integer coefficients.
    Shift monomials are ordered lex (S_n exponent first, then S_i, then
    S_j).  Lex is compatible with monomial multiplication, which is what
    the argument needs: each round cancels the lex-largest divisible
    monomial m of the running remainder by subtracting q S^(m - lm) t, and
    every other monomial of that product is S^(m - lm) times a monomial of
    t below lm, so it lies strictly below m.  The cancelled monomial thus
    falls strictly from round to round, and lex is a well-order on N^3, so
    the loop terminates.
    """
    if t.is_zero():
        raise UnsupportedDivisorError("division by the zero operator")
    if not t.has_constant_coefficients():
        raise UnsupportedDivisorError("divisor must have constant coefficients")
    lm = t.leading_monomial()
    lc = t.terms[lm].constant_value()
    if lc not in (1, -1):
        raise UnsupportedDivisorError(f"divisor's leading coefficient {lc} is not 1 or -1")
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
        m = max(divisible)
        q_coeff = v._terms[m] * lc  # = v_m / lc, as lc = +-1
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


def json_int(x) -> int:
    """An integer field of an operator file: a JSON integer, or a string of
    decimal digits with an optional sign.  Anything else (a float, a bool,
    "1.5", "1/2") raises ValueError instead of being truncated."""
    if type(x) is int or (isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+", x)):
        return int(x)
    raise ValueError(f"expected an integer, not {x!r}")


def operator_to_json(op: OreOperator) -> dict:
    terms = []
    for exp in sorted(op.terms):
        coeff = op.terms[exp].terms
        monos = [{"exp": list(pexp), "num": str(coeff[pexp]), "den": "1"} for pexp in sorted(coeff)]
        terms.append({"shift": list(exp), "coeff": monos})
    return {"vars": ["n", "i", "j"], "shifts": ["Sn", "Si", "Sj"], "terms": terms}


def operator_from_json(data: dict) -> OreOperator:
    """Read an operator file.  Each coefficient is a fraction num/den of
    integer fields (``json_int``).  When some den is not 1, every
    coefficient is multiplied by the lcm L of the denominators in lowest
    terms: that is left multiplication of the whole operator by the
    nonzero constant L, which annihilates exactly what the file's operator
    annihilates, and the result has integer coefficients.  A zero
    denominator raises ValueError naming its shift monomial."""
    if data.get("vars") != ["n", "i", "j"] or data.get("shifts") != ["Sn", "Si", "Sj"]:
        raise ValueError("unrecognized operator header")
    fracs: dict[ShiftExp, dict[ShiftExp, tuple[int, int]]] = {}
    for entry in data["terms"]:
        exp = tuple(json_int(x) for x in entry["shift"])
        if len(exp) != 3:
            raise ValueError(f"bad shift triple {entry['shift']}")
        if exp in fracs:
            raise ValueError(f"duplicate shift monomial {exp}")
        coeff = fracs[exp] = {}
        for mono in entry["coeff"]:
            pexp = tuple(json_int(x) for x in mono["exp"])
            if len(pexp) != 3:
                raise ValueError(f"bad exponent triple {mono['exp']}")
            num, den = json_int(mono["num"]), json_int(mono["den"])
            if not den:
                raise ValueError(f"zero denominator in the coefficient of shift {exp}")
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            coeff[pexp] = num // g, den // g
    scale = math.lcm(*(den for coeff in fracs.values() for _, den in coeff.values()))
    return OreOperator(
        {
            exp: MultiPoly({pexp: num * (scale // den) for pexp, (num, den) in coeff.items()})
            for exp, coeff in fracs.items()
        }
    )
