"""The whole pipeline on the Kreweras family (runs in about 2 seconds).

1. guess annihilating operators of f(n; i, j) from exact data,
2. certify each one rigorously,
3. eliminate S_i and S_j by the module computation, giving a recurrence
   P(n, S_n) for the origin-return counts (mandatorily re-verified
   against the first 500 terms),
4. prove the closed form: P is satisfied symbolically by the interlaced
   hypergeometric term, and enough initial values agree.

The same architecture proves the Gessel closed form once the published
order-32 recurrence is supplied as an import file; the elimination that
produces it is far beyond desk scale.
"""

from quarterwalks import (
    CLOSED_FORMS,
    Bounds,
    CountTable,
    build_template,
    certify_operator,
    guess_operators,
    origin_sequence,
    prove_equality,
    takayama_pipeline,
    trivial_operator,
)

# the family's step set and its closed form in Pochhammer form,
# 27^m (1/3)_m (2/3)_m / ((2)_m (3/2)_m) at n = 3m
steps, term = CLOSED_FORMS["kreweras"]

print("== 1. guessing ==")
oracle = CountTable(steps, 30)
T = trivial_operator(steps)
template = build_template(Bounds(2, 2, 2, 3, 1, 1), "full")
print(f"ansatz: degrees (2,2,2), shift orders (3,1,1); {len(template)} unknowns")
candidates = guess_operators(template, oracle)
print(f"{len(candidates)} candidates (exact kernel: mod-p reduction, lifted and verified over Z)")

print("== 2. certification ==")
generators = [T]
for op in candidates:
    cert = certify_operator(op, T, oracle)
    print("  verdict:", cert.verdict)
    if cert.certified:
        generators.append(op)

print("== 3. elimination ==")
diagonal = origin_sequence(steps, 500)
P = takayama_pipeline(generators, diagonal)
print("eliminated recurrence, order", P.order(), "(re-verified on n <= 500):")
print(" ", P)

print("== 4. closed form ==")
verdict = prove_equality(P, term, oracle)
print("symbolic recurrence check + initial values ->", verdict.status)
print(f"(initial values checked: {verdict.checked_initial_values};",
      f"singular bound: {verdict.singular_bound})")
assert verdict.proved
