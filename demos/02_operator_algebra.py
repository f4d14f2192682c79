"""The shift-operator algebra and division with remainder.

Operators live in Z[n,i,j]<S_n,S_i,S_j> with the commutation rule
S_x p(x) = p(x+1) S_x.  The transfer operator T of a step set encodes the
one-step recurrence of the counts and annihilates them by construction;
division with remainder by T is the engine of the certification algorithm.
"""

from quarterwalks import (
    Box,
    GESSEL,
    OreOperator,
    CountTable,
    div_rem,
    evidence_check,
    trivial_operator,
)

n = OreOperator.variable("n")
i = OreOperator.variable("i")
Sn = OreOperator.shift("Sn")
Si = OreOperator.shift("Si")

# --- noncommutativity ---------------------------------------------------------

print("S_n * n        =", Sn * n)
print("n * S_n        =", n * Sn)
print("difference     =", Sn * n - n * Sn)
print()
print("i (S_i - 1)            =", i * (Si - 1))
print("(S_i - 1)(i - 1) - 1   =", (Si - 1) * (i - 1) - 1)
print()

# --- the transfer operator -----------------------------------------------------

T = trivial_operator(GESSEL)
print("Gessel transfer operator T =", T)
oracle = CountTable(GESSEL, 13)
print("T annihilates the counts on n,i,j <= 12:", evidence_check(T, oracle, Box.cube(12)))
print()

# --- division with remainder ----------------------------------------------------

X = n * n * T + i * Sn + 3
U, V = div_rem(X, T)
print("X        =", X)
print("quotient =", U)
print("remainder=", V)
print("round-trip U*T + V == X:", U * T + V == X)
lm = T.leading_monomial()
print("no remainder monomial is divisible by the leading monomial", lm, ":",
      all(not all(e[k] >= lm[k] for k in range(3)) for e in V.support()))
print()

# --- the certification step ------------------------------------------------------

# T has constant coefficients, so T*X - X*T is a finite difference of X's
# coefficients, and X*T is a left multiple of T: both sides leave the
# same remainder, of lower total degree in n, i, j than X.
_, by_product = div_rem(T * X, T)
_, by_commutator = div_rem(T * X - X * T, T)
print("rem(T*X, T)       =", by_product)
print("rem(T*X - X*T, T) == rem(T*X, T):", by_commutator == by_product)
print("total degree", X.total_poly_deg(), "->", by_product.total_poly_deg())
assert by_commutator == by_product
assert by_product.total_poly_deg() < X.total_poly_deg()
