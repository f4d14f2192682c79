"""Deliberately naive reference implementations used as test oracles.

These stay independent of the library's production code paths: the walk
counter enumerates every step sequence, the level oracle moves every cell
of the full grid one step at a time, a packed row is re-slotted one slot
at a time, the distance oracle is a plain breadth-first search over
cells, the nullspace oracle is plain
Gaussian elimination over Fraction, polynomial division and gcd are
schoolbook division and Euclid over Fraction, the echelon row step
multiplies by the whole leading polynomials, operator and
rational-function evaluation sum Fraction terms, and a hypergeometric
term is the product of its rising factorials.  Slow on purpose; used only at small sizes.
"""

from fractions import Fraction
from itertools import product
from math import gcd


def brute_force_counts(steps, n):
    """Counts of n-step quadrant-confined walks by full enumeration.

    Returns a dict {(i, j): count} over the endpoints reached.
    """
    steps = sorted(steps)
    counts = {}
    for seq in product(steps, repeat=n):
        x = y = 0
        ok = True
        for dx, dy in seq:
            x += dx
            y += dy
            if x < 0 or y < 0:
                ok = False
                break
        if ok:
            counts[(x, y)] = counts.get((x, y), 0) + 1
    return counts


def brute_force_value(steps, n, i, j):
    if n < 0 or i < 0 or j < 0:
        return 0
    return brute_force_counts(steps, n).get((i, j), 0)


def scalar_levels(steps, n_max):
    """Levels 0..n_max of the counts as full (n+1) x (n+1) grids: each
    nonzero cell of level n is pushed along every step, and steps that
    leave the quadrant are dropped."""
    levels = [[[1]]]
    for _ in range(n_max):
        prev = levels[-1]
        size = len(prev) + 1
        cur = [[0] * size for _ in range(size)]
        for pi in range(size - 1):
            for pj in range(size - 1):
                v = prev[pi][pj]
                if v:
                    for dx, dy in steps:
                        ti, tj = pi + dx, pj + dy
                        if 0 <= ti and 0 <= tj:
                            cur[ti][tj] += v
        levels.append(cur)
    return levels


def bytewise_reslot(row, old, new):
    """A packed row with each ``old``-byte slot widened to ``new`` bytes:
    one bytes slice per slot, joined with ``new - old`` zero bytes."""
    data = row.to_bytes(-(-row.bit_length() // (8 * old)) * old, "little")
    pad = bytes(new - old)
    return int.from_bytes(pad.join(data[k : k + old] for k in range(0, len(data), old)), "little")


def return_distances(steps, size):
    """{(i, j): fewest steps from (i, j) back to the origin without leaving
    the quadrant} for the cells of [0, size)^2 whose shortest return stays
    in that box, by a breadth-first search backwards from the origin."""
    from collections import deque

    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        i, j = queue.popleft()
        for dx, dy in steps:
            c = (i - dx, j - dy)
            if 0 <= c[0] < size and 0 <= c[1] < size and c not in dist:
                dist[c] = dist[(i, j)] + 1
                queue.append(c)
    return dist


def fraction_nullspace(matrix):
    """Right-kernel basis by textbook Gauss-Jordan over Fraction.

    Returns vectors normalized the same way as the production solver:
    primitive integers, first nonzero entry positive, one per free column.
    """
    import math

    if not matrix:
        return []
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((rr for rr in range(r, nrows) if m[rr][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for rr in range(nrows):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -m[k][fc]
        den = 1
        for x in v:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [int(x * den) for x in v]
        g = 0
        for x in ints:
            g = math.gcd(g, x)
        first = next((x for x in ints if x), 0)
        if first < 0:
            g = -g
        basis.append(tuple(Fraction(x, g) for x in ints) if g else tuple(map(Fraction, ints)))
    return basis


def modp_kernel(matrix, p):
    """Textbook Gauss-Jordan over GF(p) on unpacked rows: the pivot
    columns, the free columns and, per free column f, -R[k, f] mod p at
    each pivot k of the reduced row echelon form R."""
    m = [[x % p for x in row] for row in matrix]
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((rr for rr in range(r, len(m)) if m[rr][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for rr in range(len(m)):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [(a - f * b) % p for a, b in zip(m[rr], m[r])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    return pivots, free, [[-m[k][f] % p for k in range(len(pivots))] for f in free]


def pochhammer(a, k):
    """Rising factorial a (a+1) ... (a+k-1); the empty product is 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for t in range(k):
        out *= a + t
    return out


def product_form(term, m):
    """b(m) = c^m prod (a_k)_m / prod (b_k)_m of a ``HypergeomTerm``,
    each rising factorial multiplied out."""
    value = Fraction(term.factor) ** m
    for a in term.upper:
        value *= pochhammer(a, m)
    for b in term.lower:
        value /= pochhammer(b, m)
    return value


def cauchy_nonneg_integer_roots(p):
    """Nonnegative integer roots by evaluating p at every integer up to the
    Cauchy bound 1 + max |a_k| / |a_lead|, which bounds every real root."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    bound = 1 + max(abs(c) for c in p) // abs(p[-1])
    roots = []
    for x in range(bound + 1):
        acc = 0
        for c in reversed(p):
            acc = acc * x + c
        if acc == 0:
            roots.append(x)
    return roots


def _fraction_divmod(a, b):
    """Schoolbook division of Fraction coefficient lists (low degree first)."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        f = r[k + len(b) - 1] / b[-1]
        q[k] = f
        for t, c in enumerate(b):
            r[k + t] -= f * c
    while r and not r[-1]:
        r.pop()
    return q, r


def fraction_divexact(a, g):
    """a / g for integer coefficient lists, divided over Q: the integer
    quotient list, or None when the remainder is nonzero or a quotient
    coefficient is not an integer."""
    q, r = _fraction_divmod(a, [Fraction(c) for c in g])
    if r or any(c.denominator != 1 for c in q):
        return None
    q = [c.numerator for c in q]
    while q and not q[-1]:
        q.pop()
    return q


def fraction_monic_gcd(a, b):
    """Monic gcd over Q of two integer coefficient lists by the Euclidean
    algorithm on Fraction coefficients; [] when both are zero."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def fraction_apply_at(op, oracle, n, i, j):
    """(op f)(n; i, j) with f read from ``oracle.value``, for an operator
    given as its term map {(dn, di, dj, e4, e5, e6): coefficient}: each
    term c n^dn i^di j^dj f(n+e4, i+e5, j+e6) is one Fraction product, and
    the products are summed one at a time."""
    total = Fraction(0)
    for (dn, di, dj, e4, e5, e6), c in op.items():
        x = c * Fraction(n) ** dn * Fraction(i) ** di * Fraction(j) ** dj
        total += x * oracle.value(n + e4, i + e5, j + e6)
    return total


class Ones:
    """f = 1 everywhere: a shift-free operator applied to it gives the
    value of its polynomial."""

    def value(self, n, i, j):
        return 1


class Applied:
    """The function op f, for f read from ``oracle``, as an oracle of
    Fraction values: ``fraction_apply_at(a, Applied(b, f), *pt)`` is
    a (b f) at pt, with no operator product involved."""

    def __init__(self, op, oracle):
        self.op, self.oracle = op, oracle

    def value(self, n, i, j):
        return fraction_apply_at(self.op, self.oracle, n, i, j)


def _schoolbook_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for ka, ca in enumerate(a):
        for kb, cb in enumerate(b):
            out[ka + kb] += ca * cb
    return out


def _shift_arg(a, delta):
    """a(x + delta) by Horner's rule on coefficient lists."""
    acc = []
    for c in reversed(a):
        acc = [0] + acc
        for k in range(len(acc) - 1):
            acc[k] += delta * acc[k + 1]
        acc[0] += c
    return acc


def full_multiplier_reduce(u, w, pos_key):
    """One fraction-free cancellation of u's leading term by w, multiplying
    by the whole leading polynomials: aw(n + delta) u - au S_n^delta w.

    Rows are {position: {S_n power: integer coefficient list}}; the leading
    term is the highest S_n power at the position that ``pos_key`` ranks
    highest, and both rows must share that position with u's power at
    least w's.  Zero polynomials and empty components are dropped."""
    pos = max(u, key=pos_key)
    ku, kw = max(u[pos]), max(w[pos])
    delta = ku - kw
    aw = _shift_arg(w[pos][kw], delta)
    au = u[pos][ku]
    out = {}
    for p, comp in u.items():
        for k, c in comp.items():
            out.setdefault(p, {})[k] = _schoolbook_mul(c, aw)
    for p, comp in w.items():
        for k, c in comp.items():
            prod = _schoolbook_mul(_shift_arg(c, delta), au)
            cur = out.setdefault(p, {}).get(k + delta, [])
            size = max(len(cur), len(prod))
            cur, prod = cur + [0] * (size - len(cur)), prod + [0] * (size - len(prod))
            out[p][k + delta] = [x - y for x, y in zip(cur, prod)]
    clean = {}
    for p, comp in out.items():
        for k, c in comp.items():
            while c and not c[-1]:
                c.pop()
            if c:
                clean.setdefault(p, {})[k] = c
    return clean


def fraction_ratio_at(num, den, x):
    """num(x) / den(x) for coefficient lists of Fractions (low degree
    first), by Horner's rule over Fraction; None where den(x) = 0."""
    values = []
    for p in (num, den):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        values.append(acc)
    return values[0] / values[1] if values[1] else None


def fraction_cleared(terms):
    """The cleared form of an operator {power: (num, den)} given by
    Fraction coefficient lists, computed in Q(n): each nonzero term reduced
    by the monic Euclidean gcd of num and den, all terms multiplied by the
    monic lcm of the reduced denominators, and the result scaled to
    coprime integers with the leading coefficient's leading integer
    positive."""
    reduced = {}
    lcm = [Fraction(1)]
    for k, (num, den) in terms.items():
        if not any(num):
            continue
        g = fraction_monic_gcd(num, den)
        reduced[k] = _fraction_divmod(num, g)[0], _fraction_divmod(den, g)[0]
        den = reduced[k][1]
        lcm = _fraction_divmod(_schoolbook_mul(lcm, den), fraction_monic_gcd(lcm, den))[0]
    out = {
        k: _schoolbook_mul(num, _fraction_divmod(lcm, den)[0])
        for k, (num, den) in reduced.items()
    }
    if not out:
        return {}
    scale = 1
    for p in out.values():
        for c in p:
            scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = {}
    for k, p in out.items():
        ints[k] = [int(c * scale) for c in p]
        while not ints[k][-1]:
            ints[k].pop()
    content = 0
    for p in ints.values():
        for c in p:
            content = gcd(content, c)
    if ints[max(ints)][-1] < 0:
        content = -content
    return {k: [c // content for c in p] for k, p in ints.items()}
