"""Rigorous certification that an operator annihilates the walk counts.

The certificate rests on the transfer operator T of the step set, which
annihilates the counts by construction.  To decide whether a candidate R
annihilates them too, it is enough to know that (T R) f = 0 together with
finitely many base cases at n = 0: T propagates the vanishing of R f from
one level to the next.  Checking (T R) f = 0 reduces, by division with
remainder T R = U T + V, to checking V f = 0, and so on down a chain of
remainders that ends at 0.  What remains is a finite set of exact
evaluations.

The chain ends by a theorem.  T has constant coefficients and leading
coefficient 1 or -1 (``ore.div_rem`` refuses any other divisor).  So
T W = W T + [T, W] with W T a left multiple of T, and as the remainder
modulo T is unique (the leading monomial of U T is lm(U) lm(T)),
rem(T W, T) = rem([T, W], T).  For W = sum_m c_m S^m and T = sum_k t_k S^k,
[T, W] = sum_k sum_m t_k (c_m(x + k) - c_m(x)) S^(k+m) is a finite
difference: each coefficient has lower total degree in n, i, j than W, or
is 0.  Division by T only rewrites S^lm(T) with T's constant tail, which
raises no degree.  So the remainder V is 0 or deg V < deg W, and the chain
of R has at most total_poly_deg(R) + 1 elements.
"""

from __future__ import annotations

from .ore import Box, OreOperator, commutator, div_rem, first_nonzero
from .records import Record
from .walks import CountTable

CERTIFIED = "certified"
REFUTED = "refuted"


class BaseCheck(Record):
    """One base-case sweep: operator index in the chain, box checked, outcome."""

    __slots__ = ("chain_index", "box", "all_zero", "counterexample")

    def __init__(
        self, chain_index: int, box: Box, all_zero: bool,
        counterexample: tuple[int, int, int] | None = None,
    ):
        self._init(chain_index, box, all_zero, counterexample)


class Certificate(Record):
    __slots__ = ("operator", "verdict", "chain", "base_checks", "counterexample", "detail")

    def __init__(
        self, operator: OreOperator, verdict: str, chain: list[OreOperator],
        base_checks: list[BaseCheck], counterexample: tuple[int, int, int] | None = None,
        detail: str = "",
    ):
        self._init(operator, verdict, chain, base_checks, counterexample, detail)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def check_base_cases(w: OreOperator, oracle: CountTable, chain_index: int = 0) -> BaseCheck:
    """Evaluate (W f)(0; i, j) for 0 <= i, j <= ord_Sn(W) and report the
    box swept with its first nonzero point, if any.

    No other point of level 0 can be nonzero, by the light cone: a term
    of W with shift S_n^e4 S_i^e5 S_j^e6 reads f(e4; i + e5, j + e6) at
    (0; i, j), with e4 <= ord_Sn(W), and f(n; i, j) = 0 once i > n or
    j > n, so every term vanishes when i or j exceeds ord_Sn(W).
    """
    if w.is_zero():
        raise ValueError("the zero operator has no base cases to check")
    bound = w.degrees().ord_sn
    box = Box((0, 0), (0, bound), (0, bound))
    point = first_nonzero(w, oracle, box.points())
    return BaseCheck(chain_index, box, point is None, point)


def _find_refutation(
    r: OreOperator, oracle: CountTable, t: OreOperator, chain_index: int, seed
) -> tuple[int, int, int]:
    """Locate a concrete point where (R f) != 0.

    A nonzero base value of the chain operator at level m means R f is
    nonzero within m of the transfer operator's shift offsets of that
    point, so a bounded scan must succeed.
    """
    d = t.degrees()
    reach = zip(seed, (d.ord_sn, d.ord_si, d.ord_sj))
    box = Box(*((0, s + chain_index * e) for s, e in reach))
    point = first_nonzero(r, oracle, box.points())
    if point is None:
        raise AssertionError("refutation seed did not propagate to the original operator")
    return point


def certify_operator(r: OreOperator, t: OreOperator, oracle: CountTable) -> Certificate:
    """Run the reduction-chain decision procedure for (R f) = 0.

    The chain steps from W = R to rem([T, W], T) = rem(T W, T) and reaches
    0 within total_poly_deg(R) + 1 steps, by the module's argument.  Its
    hypotheses on T (constant coefficients, leading coefficient 1 or -1)
    are what ``ore.commutator`` and ``ore.div_rem`` check: any other T
    raises UnsupportedDivisorError.

    Verdicts: certified when the chain reached 0 and every base sweep was
    all-zero; refuted, with a point where R f != 0, when a base value is
    nonzero.  Each W is swept at level 0 on 0 <= i, j <= ord_Sn(W) only,
    which ``check_base_cases`` shows is enough, by the light cone.
    """
    if r.is_zero():
        raise ValueError("candidate operator is zero; nothing to certify")
    chain, base_checks = [], []
    w = r
    while True:
        level = len(chain)
        check = check_base_cases(w, oracle, level)
        base_checks.append(check)
        if not check.all_zero:
            point = _find_refutation(r, oracle, t, level, check.counterexample)
            detail = (
                f"base case failed at chain level {level}, point {check.counterexample}; "
                f"(R f) != 0 at {point}"
            )
            return Certificate(r, REFUTED, chain, base_checks, point, detail)
        w = div_rem(commutator(t, w), t)[1]
        chain.append(w)
        if w.is_zero():
            return Certificate(r, CERTIFIED, chain, base_checks)


def evidence_check(r: OreOperator, oracle: CountTable, box: Box) -> bool:
    """Defense-in-depth numeric sweep: (R f) identically zero on the box.

    Not part of the certificate logic; certified operators are expected to
    pass this on boxes disjoint from the base-case sweeps.
    """
    return r.is_zero_on(oracle, box)

