"""Exact arithmetic foundation: polynomials over Z in n, and recurrences.

Everything here is exact; there is no floating point anywhere in the
pipeline.  A polynomial in n is a plain ``int`` coefficient list
(``IPoly``, low degree first) -- see the ``ipoly_*`` helpers.  They are
the coefficients of every element of Z[n][S_n]: the elimination rows,
the eliminated recurrence and the closed-form ratios.  Their exact
division and gcd stay in Z[x] (integer long division, and the heuristic
gcd GCDHEU, whose evaluation point grows until its candidate divides
every input).  Nothing in this module uses ``Fraction``.  Polynomials in
n, i, j are the shift-free elements of the operator algebra in ``ore``.

``UniOperator`` is a recurrence, an element of Z[n][S_n]; ``uni_to_json``
writes its file form (``closedform.uni_from_json`` reads it).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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


def _gcdheu(polys: list[IPoly]) -> tuple[IPoly, list[IPoly]]:
    """The gcd of nonzero primitive polynomials, and their quotients by it.

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
    primitive, H = +-1.  When gamma is 1, or its digits make a constant,
    the same bound shows that g is constant, so the gcd is 1 and the
    inputs are their own quotients.

    A wrong digit expansion (gamma may carry extra integer factors) shows
    up as P failing to divide some input; then xi grows and the evaluation
    is repeated, until P divides every input.
    Termination.  Let h_t = a_t / g.  The h_t have no common factor, so a
    Bezout identity over Q cleared over Z gives sum_t u_t h_t = D with
    u_t in Z[x] and D a fixed nonzero integer.  Then c = gcd_t h_t(xi)
    divides D at every xi, and gamma = c |g(xi)|.  Once
    xi > 2 |D| |g|_inf, every coefficient of c g lies in (-xi/2, xi/2), so
    the symmetric base-xi digits of gamma are exactly the coefficients of
    +-c g, and P = g divides every input and is accepted.  xi grows every
    round, so the loop ends.

    The gcd comes out with a positive leading coefficient without a sign
    flip: gamma > 0, so the top digit of G, at xi^k, is positive (the
    digits below it sum to less than xi^k in modulus), and dividing by the
    positive content keeps it so.
    """
    m = min(max(abs(c) for c in a) for a in polys)
    # xi = 2^bits, so that evaluation and digit extraction are shifts; the
    # 16 spare bits make an extra integer factor in gamma much less likely
    # to spoil the digits (on the full Kreweras echelon, 0 retries in 577
    # per-row calls; pairwise, 2 retries in 7,469 gcds against 322 without
    # the spare bits)
    bits = (2 * m + 2).bit_length() + 16
    while True:
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
        quotients = []
        for a in polys:
            q = _ipoly_quotient(a, h)
            if q is None:
                break
            quotients.append(q)
        else:
            return h, quotients
        bits += bits // 4 + 2


def _eval_pow2(a: IPoly, bits: int) -> int:
    """a(2^bits) by Horner's rule with shifts."""
    acc = 0
    for c in reversed(a):
        acc = (acc << bits) + c
    return acc


def ipoly_gcd_cofactors(polys: list[IPoly]) -> tuple[IPoly, list[IPoly]]:
    """The gcd over Z of nonzero polynomials (the primitive gcd times the
    gcd of the contents, with a positive leading coefficient), and the
    quotient of each polynomial by it.

    The primitive gcd and the quotients of the primitive parts come from
    ``_gcdheu``, whose candidate is the gcd by the Char-Geddes-Gonnet
    theorem once it has passed an exact division of every part, and which
    raises its evaluation point until one does (see its docstring).  A
    quotient is then multiplied back by its polynomial's content over the
    common content.
    """
    contents = [ipoly_content(p) for p in polys]
    common = math.gcd(*contents)
    prim, quotients = _gcdheu([ipoly_divexact(p, c) for p, c in zip(polys, contents)])
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
            if mono:  # a unit coefficient prints as its sign
                cs = cs[:-1] if cs in ("1", "-1") else f"{cs}*"
            parts.append(cs + mono)
        return " + ".join(parts).replace("+ -", "- ")


def _ipoly_str(p: list[int]) -> str:
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            parts.append(f"{c}")
        else:  # a unit coefficient prints as its sign
            mono = "n" if k == 1 else f"n^{k}"
            parts.append(("" if c == 1 else "-" if c == -1 else f"{c}*") + mono)
    return " + ".join(parts).replace("+ -", "- ")


def uni_to_json(op: UniOperator) -> dict:
    """Serialize the terms twice: as fractions over the denominator 1, and
    as the ``"cleared"`` integer form that readers check them against."""
    items = sorted(op.cleared().items())
    terms = [{"power": k, "num": [str(c) for c in p], "den": ["1"]} for k, p in items]
    cleared = [{"power": k, "coeffs": [str(c) for c in p]} for k, p in items]
    return {"var": "n", "shift": "Sn", "terms": terms, "cleared": cleared}
