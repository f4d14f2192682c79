"""Chain-equality probe: the commutator chain against the product chain.

``certify_operator`` steps its chain by W' = rem([T, W], T).  This script
recomputes every chain of every default-bounds candidate of five models
the older way, W' = rem(T W, T) with a reference division that rebuilds
the operator each round, and checks that the two chains agree element by
element, that every nonzero element has lower total degree than the one
before, and that the chain has at most total_poly_deg(R) + 1 elements.
It prints one line per model and exits 1 on any disagreement.

It takes about ten seconds, so the test suite does not collect it:

    PYTHONPATH=src python tests/chain_probe.py
"""

import sys
import time

from quarterwalks import (
    Bounds,
    CountTable,
    OreOperator,
    build_template,
    certify_operator,
    guess_operators,
    parse_step_set,
    trivial_operator,
)

MODELS = [
    ("Gouyou-Beauchamps", "E,W,NW,SE"),
    ("simple", "E,W,N,S"),
    ("diagonal", "NE,NW,SE,SW"),
    ("king", "E,W,N,S,NE,NW,SE,SW"),
    ("Kreweras", "W,S,NE"),
]
DEFAULT_BOUNDS = Bounds(2, 2, 2, 3, 1, 1)  # the CLI's default --bounds


def reference_rem(x, t):
    """Remainder of x modulo t by the textbook loop: cancel the lex-largest
    divisible shift monomial with a whole operator product per round."""
    lm = t.leading_monomial()
    lc = t.terms[(0, 0, 0) + lm]
    v = x
    while True:
        divisible = [m for m in v.support() if all(a >= b for a, b in zip(m, lm))]
        if not divisible:
            return v
        m = max(divisible)
        d = tuple(a - b for a, b in zip(m, lm))
        q = OreOperator({k[:3] + d: c * lc for k, c in v.terms.items() if k[3:] == m})
        v = v - q * t


def probe(steps):
    """(candidates, chain elements, longest chain, certified, mismatches)
    for one step set."""
    step_set = parse_step_set(steps)
    oracle = CountTable(step_set, 0)
    t = trivial_operator(step_set)
    candidates = guess_operators(build_template(DEFAULT_BOUNDS), oracle)
    elements = longest = certified = 0
    mismatches = []
    for r in candidates:
        cert = certify_operator(r, oracle)
        certified += cert.certified
        elements += len(cert.chain)
        longest = max(longest, len(cert.chain))
        if len(cert.chain) > r.total_poly_deg() + 1:
            mismatches.append((r, "chain longer than total_poly_deg(R) + 1"))
        w = r
        for level, got in enumerate(cert.chain):
            if got != reference_rem(t * w, t):
                mismatches.append((r, f"chain element {level} differs"))
                break
            if not got.is_zero() and got.total_poly_deg() >= w.total_poly_deg():
                mismatches.append((r, f"degree did not drop at chain element {level}"))
                break
            w = got
    return len(candidates), elements, longest, certified, mismatches


def main():
    failed = False
    for name, steps in MODELS:
        start = time.perf_counter()
        n, elements, longest, certified, mismatches = probe(steps)
        print(
            f"{name}: {n} candidates, {certified} certified, {elements} chain elements "
            f"(longest {longest}), {len(mismatches)} mismatches, "
            f"{time.perf_counter() - start:.1f} s"
        )
        for r, what in mismatches:
            print(f"  {what}: {r}")
        failed = failed or bool(mismatches)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
