"""Guess-and-certify: from data to proven annihilating operators.

An ansatz template is applied to the counting oracle at many points; the
exact kernel of the resulting linear system holds every annihilator with
that support.  Survivors of a fresh-point filter are then *certified* by
the reduction-chain algorithm, which turns each candidate into finitely
many exact base-case evaluations.
"""

from quarterwalks import (
    GESSEL,
    CountTable,
    build_template,
    Bounds,
    certify_operator,
    guess_operators,
    trivial_operator,
)
from quarterwalks.certify import REFUTED

oracle = CountTable(GESSEL, 30)
T = trivial_operator(GESSEL)

# --- rediscover the transfer operator from data ------------------------------

template = build_template(Bounds(0, 0, 0, 1, 2, 2), "full")
print(f"template: constant coefficients, shift orders (1, 2, 2); {len(template)} unknowns")
candidates = guess_operators(template, oracle)
print(f"{len(candidates)} candidate(s) found")
for op in candidates:
    print("  candidate:", op)
print("the transfer operator is rediscovered:", T.normalized() in candidates)
assert T.normalized() in candidates
print()

# --- certification ------------------------------------------------------------

for op in candidates:
    cert = certify_operator(op, T, oracle)
    print("verdict:", cert.verdict, "| chain length:", len(cert.chain),
          "| base sweeps:", len(cert.base_checks))

# a wrong operator is refuted with a concrete counterexample point
bad = T + 1
cert = certify_operator(bad, T, oracle)
print()
residual = bad.apply_at(oracle, *cert.counterexample)
print("T + 1 ->", cert.verdict, "at", cert.counterexample, "where the residual is", residual)
assert cert.verdict == REFUTED and residual != 0
