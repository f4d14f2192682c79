"""Counting quarter-plane walks exactly.

A walk family is a set of unit steps; walks start at the origin and must
never leave the first quadrant.  The dynamic program gives exact counts
f(n; i, j) of n-step walks ending at (i, j), and the two classical
families have closed forms for their origin-return counts.
"""

from quarterwalks import (
    CLOSED_FORMS,
    GESSEL,
    KREWERAS,
    CountTable,
    origin_sequence,
    parse_step_set,
)

# --- a table of exact counts -------------------------------------------------

gessel = CountTable(GESSEL, 20)
print("Gessel steps:", GESSEL.canonical)
print("f(n; 0, 0) for n = 0..12:", [gessel.value(n, 0, 0) for n in range(13)])
print("every odd length vanishes; the even subsequence is 1, 2, 11, 85, ...")
print()

# --- closed forms ------------------------------------------------------------

# each built-in closed form is a step set with a term held by its
# Pochhammer parameters; the term's sequence interlaces the zeros
_, gessel_term = CLOSED_FORMS["gessel"]
gessel_closed = gessel_term.sequence(14)
print("closed form agreement (Gessel, 2m steps):")
for m in range(8):
    enumerated = gessel.value(2 * m, 0, 0)
    formula = gessel_closed[2 * m]
    print(f"  m={m}: enumeration {enumerated}, 16^m (5/6)_m (1/2)_m / ((5/3)_m (2)_m) = {formula}")
    assert enumerated == formula

kreweras = CountTable(KREWERAS, 21)
_, kreweras_term = CLOSED_FORMS["kreweras"]
kreweras_closed = [int(v) for v in kreweras_term.sequence(21)[::3]]
print()
print("Kreweras steps:", KREWERAS.canonical)
for m in range(8):
    assert kreweras.value(3 * m, 0, 0) == kreweras_closed[m]
print("k(3m; 0, 0) for m = 0..7:", kreweras_closed)
print()

# --- arbitrary step sets and streaming --------------------------------------

diagonal_family = parse_step_set("NE,SE,NW,SW")
print("diagonal-steps family, origin returns:", origin_sequence(diagonal_family, 10))

# streaming keeps only two levels in memory, so long prefixes are cheap
long_run = origin_sequence(KREWERAS, 120)
print("Kreweras origin count at n = 120 has", len(str(long_run[120])), "digits")
