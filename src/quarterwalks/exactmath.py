"""Exact arithmetic foundation: polynomials over Z in n, i, j and in n alone.

Everything here is exact; there is no floating point anywhere in the
pipeline.  ``MultiPoly`` is a polynomial in the three commuting variables
n, i, j with integer coefficients, stored as a canonical sparse map from
exponent triples to nonzero ints; guessing and certification work with
it, as the coefficients of the shift operators in ``ore``.

Univariate polynomials in n are plain ``int`` coefficient lists (``IPoly``,
low degree first) -- see the ``ipoly_*`` helpers.  They are the
coefficients of every element of Z[n][S_n]: the elimination rows, the
eliminated recurrence and the closed-form ratios.  Their exact division
and gcd stay in Z[x] (integer long division, and a heuristic gcd with the
primitive PRS as fallback).  Nothing in this module uses ``Fraction``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

VARS = ("n", "i", "j")
_VAR_INDEX = {"n": 0, "i": 1, "j": 2}

Exponent = tuple[int, int, int]


class MultiPoly:
    """A polynomial in Z[n, i, j] in canonical sparse form.

    The term map never stores a zero coefficient; the zero polynomial has
    an empty map.  A coefficient that is not an int (a ``Fraction``, a
    float) raises TypeError.  Instances are immutable and hashable, so
    equality of canonical forms is plain map equality.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        clean: dict[Exponent, int] = {}
        if terms:
            for exp, c in terms.items():
                if type(c) is not int:
                    raise TypeError(f"expected an int coefficient, got {type(c).__name__}")
                if c:
                    e = (int(exp[0]), int(exp[1]), int(exp[2]))
                    if any(x < 0 for x in e):
                        raise ValueError(f"negative exponent in {exp}")
                    clean[e] = c
        self._terms = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, value: int) -> "MultiPoly":
        return cls({(0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        exp = [0, 0, 0]
        exp[_VAR_INDEX[name]] = 1
        return cls({tuple(exp): 1})

    @classmethod
    def monomial(cls, exp: Exponent, coeff: int = 1) -> "MultiPoly":
        return cls({exp: coeff})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._terms)

    def constant_value(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms[(0, 0, 0)]

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        k = _VAR_INDEX[var]
        return max(e[k] for e in self._terms)

    def total_degree(self) -> int:
        """Total degree in n, i, j; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self == MultiPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return _coerce_poly(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Exponent, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(out)

    __rmul__ = __mul__

    # -- evaluation and substitution -------------------------------------

    def eval(self, n: int, i: int, j: int) -> int:
        """Exact value at a point: an int at an integer point (and a
        Fraction at a point with Fraction coordinates)."""
        return sum(c * n**dn * i**di * j**dj for (dn, di, dj), c in self._terms.items())

    def substitute_shift(self, var: str, offset: int) -> "MultiPoly":
        """Replace ``var`` by ``var + offset`` and expand to canonical form.

        This is the coefficient side of the shift commutation rule
        ``S_x p(x) = p(x + 1) S_x``.
        """
        if offset == 0:
            return self
        k = _VAR_INDEX[var]
        out: dict[Exponent, int] = {}
        for exp, c in self._terms.items():
            d = exp[k]
            # (x + offset)^d expanded binomially onto powers of x
            for t in range(d + 1):
                coeff = c * math.comb(d, t) * offset ** (d - t)
                e = list(exp)
                e[k] = t
                e2 = tuple(e)
                s = out.get(e2, 0) + coeff
                if s:
                    out[e2] = s
                else:
                    out.pop(e2, None)
        return MultiPoly(out)

    def substitute_zero(self, names: Iterable[str]) -> "MultiPoly":
        """Set the named variables to 0, dropping every term they divide."""
        ks = [_VAR_INDEX[v] for v in names]
        out: dict[Exponent, int] = {}
        for exp, c in self._terms.items():
            if all(exp[k] == 0 for k in ks):
                out[exp] = c
        return MultiPoly(out)

    def coefficients_in_n(self) -> IPoly:
        """The ``IPoly`` of a polynomial free of i and j, low degree first."""
        if self.degree("i") > 0 or self.degree("j") > 0:
            raise ValueError("polynomial still involves i or j")
        coeffs = [0] * (self.degree("n") + 1)
        for (dn, _, _), c in self._terms.items():
            coeffs[dn] = c
        return coeffs

    # -- normalization helpers -------------------------------------------

    def content(self) -> int:
        """The gcd of the coefficients, positive; 0 for the zero polynomial."""
        return math.gcd(*self._terms.values())

    def monomial_min_exponents(self) -> Exponent:
        """Componentwise minimum exponent over all terms (zero poly: (0,0,0))."""
        if not self._terms:
            return (0, 0, 0)
        exps = list(self._terms)
        return (
            min(e[0] for e in exps),
            min(e[1] for e in exps),
            min(e[2] for e in exps),
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms, reverse=True):
            c = self._terms[exp]
            mono = "".join(
                f"{v}^{e}" if e > 1 else (v if e == 1 else "")
                for v, e in zip(VARS, exp)
            )
            if mono:
                cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{cs}{mono}")
            else:
                parts.append(f"{c}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s


def _coerce_poly(x):
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, int):
        return MultiPoly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# Integer-coefficient univariate polynomials as lists, for fraction-free work.
# ---------------------------------------------------------------------------

IPoly = list  # list[int], low degree first, trailing zeros trimmed


def ipoly_trim(p: IPoly) -> IPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def ipoly_add(a: IPoly, b: IPoly) -> IPoly:
    n = max(len(a), len(b))
    out = [0] * n
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    return ipoly_trim(out)


def ipoly_sub(a: IPoly, b: IPoly) -> IPoly:
    n = max(len(a), len(b))
    out = [0] * n
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] -= c
    return ipoly_trim(out)


def ipoly_mul(a: IPoly, b: IPoly) -> IPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for ka, ca in enumerate(a):
        if ca:
            for kb, cb in enumerate(b):
                out[ka + kb] += ca * cb
    return ipoly_trim(out)


def ipoly_scale(a: IPoly, s: int) -> IPoly:
    if s == 0:
        return []
    return [c * s for c in a]


def ipoly_compose_affine(a: IPoly, scale: int, shift: int) -> IPoly:
    """Compose ``a(scale * x + shift)`` with integer arithmetic."""
    acc: IPoly = []
    for c in reversed(a):
        # acc = acc*(scale*x + shift) + c
        up = [0] + (acc if scale == 1 else [v * scale for v in acc])
        for k, v in enumerate(acc):
            up[k] += v * shift
        up[0] += c
        acc = ipoly_trim(up)
    return acc


def ipoly_shift_arg(a: IPoly, offset: int) -> IPoly:
    """Compose ``a(x + offset)`` with integer arithmetic."""
    if offset == 0 or not a:
        return list(a)
    return ipoly_compose_affine(a, 1, offset)


def ipoly_content(a: IPoly) -> int:
    return math.gcd(*a)


def ipoly_divexact(a: IPoly, d: int) -> IPoly:
    if d == 1:
        return list(a)
    out = []
    for c in a:
        q, r = divmod(c, d)
        if r:
            raise ArithmeticError("inexact integer polynomial division")
        out.append(q)
    return out


def ipoly_pseudo_rem(a: IPoly, b: IPoly) -> IPoly:
    """Pseudo-remainder of a by b (b nonzero), over Z."""
    if not b:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and r:
        lead = r[-1]
        k = len(r) - 1 - db
        r = ipoly_scale(r, lb)
        for t, c in enumerate(b):
            r[k + t] -= lead * c
        r = ipoly_trim(r)
    return r


_GCDHEU_TRIES = 6


def _gcdheu(polys: list[IPoly]) -> tuple[IPoly, list[IPoly]] | None:
    """Heuristic gcd of nonzero primitive polynomials, or None.

    Returns the gcd, primitive with a positive leading coefficient, and the
    quotient of each input by it; the quotients are the ones the exact
    divisions of the acceptance check produce.  The gcd is read off one
    integer gcd (Char, Geddes and Gonnet, "GCDHEU: heuristic polynomial GCD
    algorithm based on integer GCD computation", J. Symbolic Comput. 7,
    1989).  Let M = min |a|_inf over the inputs a and take an integer
    xi >= 2M + 2.  Let G be the polynomial whose coefficients are the
    symmetric base-xi digits (each in (-xi/2, xi/2]) of gamma, the gcd of
    all the a(xi), so that G(xi) = gamma, and let P = pp(G).

    Claim (CGG): if P divides every input, then P = gcd of the inputs up to
    sign.  The proof does not depend on the number of inputs.
    Proof.  Let g be the primitive gcd of the inputs.  P is a common
    divisor, so g = P H with H in Z[x] (Gauss's lemma).  Also g(xi) divides
    every a(xi), hence gamma = c P(xi), where c is the content of G;
    gamma != 0, because a root of an input a has modulus below
    1 + |a|_inf (Cauchy), and the input of smallest norm does not vanish at
    xi.  So P(xi) H(xi) divides c P(xi), that is, H(xi) divides c, and
    |c| <= |lc(G)| <= xi/2.  Every root alpha of H is a common root of all
    inputs, so |alpha| < 1 + M and |xi - alpha| > xi - 1 - M >= xi/2.  If H
    had degree d >= 1, then |H(xi)| > (xi/2)^d >= xi/2 >= |c| > 0, which
    cannot divide c.  Hence H is a constant, and since g and P are both
    primitive, H = +-1.

    A wrong digit expansion (gamma may carry extra integer factors) shows
    up as P failing to divide some input; then xi grows and the evaluation
    is retried.  No result is accepted without every exact division
    passing, and after ``_GCDHEU_TRIES`` failures ``ipoly_gcd_cofactors``
    falls back to folding the primitive PRS (``_prs_gcd``) over its
    inputs.  When gamma is 1, or its digits make a constant, the gcd is 1
    and the inputs are their own quotients.
    """
    m = min(max(abs(c) for c in a) for a in polys)
    # xi = 2^bits, so that evaluation and digit extraction are shifts; the
    # 16 spare bits make an extra integer factor in gamma much less likely
    # to spoil the digits (on the full Kreweras echelon, 0 retries in 577
    # per-row calls; pairwise, 2 retries in 7,469 gcds against 322 without
    # the spare bits)
    bits = (2 * m + 2).bit_length() + 16
    for _ in range(_GCDHEU_TRIES):
        gamma = 0
        for a in polys:
            gamma = math.gcd(gamma, _eval_pow2(a, bits))
            if gamma == 1:
                return [1], [list(a) for a in polys]
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)
        h: IPoly = []
        while gamma:
            d = gamma & mask
            if d > half:
                d -= 1 << bits
            h.append(d)
            gamma = (gamma - d) >> bits
        if len(h) == 1:
            return [1], [list(a) for a in polys]
        h = ipoly_divexact(h, ipoly_content(h))
        if h[-1] < 0:
            h = [-c for c in h]
        quotients = []
        for a in polys:
            q = _ipoly_quotient(a, h)
            if q is None:
                break
            quotients.append(q)
        else:
            return h, quotients
        bits += bits // 4 + 2
    return None


def _eval_pow2(a: IPoly, bits: int) -> int:
    """a(2^bits) by Horner's rule with shifts."""
    acc = 0
    for c in reversed(a):
        acc = (acc << bits) + c
    return acc


def _prs_gcd(a: IPoly, b: IPoly) -> IPoly:
    """gcd of two nonzero primitive polynomials by the primitive
    pseudo-remainder sequence; primitive, of either sign."""
    while b:
        r = ipoly_pseudo_rem(a, b)
        cr = ipoly_content(r)
        if cr:
            r = ipoly_divexact(r, cr)
        a, b = b, r
    return a


def ipoly_gcd(a: IPoly, b: IPoly) -> IPoly:
    """gcd over Z: the primitive gcd times the gcd of the contents, with a
    positive leading coefficient (``ipoly_gcd_cofactors`` of the pair when
    both are nonzero, else the other input up to sign)."""
    if a and b:
        return ipoly_gcd_cofactors([a, b])[0]
    g = list(a or b)
    return ipoly_scale(g, -1) if g and g[-1] < 0 else g


def ipoly_gcd_cofactors(polys: list[IPoly]) -> tuple[IPoly, list[IPoly]]:
    """The gcd over Z of nonzero polynomials (the primitive gcd times the
    gcd of the contents, with a positive leading coefficient), and the
    quotient of each polynomial by it.

    The primitive gcd comes from the heuristic ``_gcdheu`` on the primitive
    parts, whose result is the gcd by the Char-Geddes-Gonnet theorem once it
    has passed an exact division of every part (see its docstring); that
    gives every quotient too, each from a single long division.  When the
    heuristic gives up, ``_prs_gcd`` is folded over the primitive parts and
    each is divided by the result.  A quotient is then multiplied back by
    its polynomial's content over the common content.
    """
    contents = [ipoly_content(p) for p in polys]
    common = math.gcd(*contents)
    prims = [ipoly_divexact(p, c) for p, c in zip(polys, contents)]
    heu = _gcdheu(prims)
    if heu is not None:
        prim, quotients = heu
    else:
        prim = prims[0]
        for p in prims[1:]:
            if len(prim) == 1:
                break
            prim = _prs_gcd(prim, p)
        if prim[-1] < 0:
            prim = [-c for c in prim]
        quotients = [ipoly_divexact_poly(p, prim) for p in prims]
    quotients = [
        q if c == common else ipoly_scale(q, c // common)
        for q, c in zip(quotients, contents)
    ]
    return ipoly_scale(prim, common), quotients


def _ipoly_quotient(a: IPoly, g: IPoly) -> IPoly | None:
    """The quotient a / g when it exists in Z[x], else None (g nonzero).

    Integer long division: each step divides the current top coefficient
    by lc(g).  When a / g lies in Z[x] every such step is exact, so a
    nonzero remainder at any step, or a nonzero remainder of degree below
    deg g at the end, means a / g is not in Z[x].
    """
    dg = len(g) - 1
    if len(a) <= dg:
        return None if a else []
    r = list(a)
    lg = g[-1]
    low = g[:-1]
    q = [0] * (len(a) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], lg)
        if rem:
            return None
        if c:
            q[k] = c
            r[k : k + dg] = [x - c * v for x, v in zip(r[k : k + dg], low)]
    if any(r[:dg]):
        return None
    return ipoly_trim(q)


def ipoly_divexact_poly(a: IPoly, g: IPoly) -> IPoly:
    """Exact division of a by g over Z; ArithmeticError unless a / g lies
    in Z[x] (an inexact division or a non-integral quotient)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = _ipoly_quotient(a, g)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


def ipoly_eval(a: IPoly, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc
