"""Rigorous certification that an operator annihilates the walk counts.

The certificate rests on the transfer operator T of the step set, which
annihilates the counts by construction.  To decide whether a candidate R
annihilates them too, it is enough to know that (T R) f = 0 together with
finitely many base cases at n = 0: T propagates the vanishing of R f from
one level to the next.  Checking (T R) f = 0 reduces, by division with
remainder T R = U T + V, to checking V f = 0, and the total degree of V
in n, i, j drops strictly at every round, so the chain of remainders
reaches 0 after finitely many steps.  What remains is a finite set of
exact evaluations.

The degree drop is asserted at runtime rather than trusted; a violation
aborts with an inconclusive verdict instead of certifying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import ore
from .ore import Box, OreOperator
from .walks import CountTable

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive-error"


@dataclass
class BaseCheck:
    """One base-case sweep: operator index in the chain, box checked, outcome."""

    chain_index: int
    box: Box
    all_zero: bool
    counterexample: Optional[tuple[int, int, int]] = None


@dataclass
class Certificate:
    operator: OreOperator
    chain: list[OreOperator] = field(default_factory=list)
    base_checks: list[BaseCheck] = field(default_factory=list)
    verdict: str = INCONCLUSIVE
    counterexample: Optional[tuple[int, int, int]] = None
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def check_base_cases(
    w: OreOperator, oracle: CountTable, margin: int = 2
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Evaluate (W f)(0; i, j) for 0 <= i, j <= ord_Sn(W) + margin.

    Beyond ord_Sn(W) the values vanish automatically because f(n; i, j) = 0
    once i > n or j > n; the margin only widens the sweep.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if w.is_zero():
        return True, None
    r_n = w.degrees().ord_sn
    bound = r_n + margin
    for i in range(bound + 1):
        for j in range(bound + 1):
            if w.apply_at(oracle, 0, i, j):
                return False, (0, i, j)
    return True, None


def _find_refutation(
    r: OreOperator, oracle: CountTable, t: OreOperator, chain_index: int, seed
) -> tuple[int, int, int]:
    """Locate a concrete point where (R f) != 0.

    A nonzero base value of the chain operator at level m means R f is
    nonzero within m of the transfer operator's shift offsets of that
    point, so a bounded scan must succeed.
    """
    dn, di, dj = (t.degrees().ord_sn, t.degrees().ord_si, t.degrees().ord_sj)
    n0, i0, j0 = seed
    for n in range(0, n0 + chain_index * dn + 1):
        for i in range(0, i0 + chain_index * di + 1):
            for j in range(0, j0 + chain_index * dj + 1):
                if r.apply_at(oracle, n, i, j):
                    return (n, i, j)
    raise AssertionError("refutation seed did not propagate to the original operator")


def certify_operator(
    r: OreOperator, t: OreOperator, oracle: CountTable, margin: int = 2
) -> Certificate:
    """Run the reduction-chain decision procedure for (R f) = 0.

    Verdicts:  certified when the remainder chain reached 0 and every base
    sweep was all-zero;  refuted, with a concrete counterexample point for
    R itself, when a base value is nonzero;  inconclusive-error when the
    expected total-degree decrease of the chain fails (never silently
    accepted).
    """
    if r.is_zero():
        raise ValueError("candidate operator is zero; nothing to certify")
    cert = Certificate(operator=r)
    w = r
    level = 0
    while True:
        r_n = w.degrees().ord_sn
        box = Box((0, 0), (0, r_n + margin), (0, r_n + margin))
        ok, point = check_base_cases(w, oracle, margin)
        cert.base_checks.append(BaseCheck(level, box, ok, point))
        if not ok:
            cert.verdict = REFUTED
            cert.counterexample = _find_refutation(r, oracle, t, level, point)
            cert.detail = (
                f"base case failed at chain level {level}, point {point}; "
                f"(R f) != 0 at {cert.counterexample}"
            )
            return cert
        u, v = ore.div_rem(t * w, t)
        cert.chain.append(v)
        if v.is_zero():
            cert.verdict = CERTIFIED
            return cert
        if v.total_poly_deg() >= w.total_poly_deg():
            cert.verdict = INCONCLUSIVE
            cert.detail = (
                f"remainder total degree {v.total_poly_deg()} did not drop "
                f"below {w.total_poly_deg()} at chain level {level}"
            )
            return cert
        w = v
        level += 1


def evidence_check(r: OreOperator, oracle: CountTable, box: Box) -> bool:
    """Defense-in-depth numeric sweep: (R f) identically zero on the box.

    Not part of the certificate logic; certified operators are expected to
    pass this on boxes disjoint from the base-case sweeps.
    """
    return r.is_zero_on(oracle, box)

