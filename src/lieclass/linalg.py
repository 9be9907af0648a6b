"""Small exact linear-algebra helpers over Fraction entries.

Matrices are lists of lists (or tuples of tuples) of Fractions/ints.  Sizes
here are tiny (ambient dimensions <= ~20), so plain Gaussian elimination
with exact rationals is fine where an exact basis is needed (rref,
nullspace); ranks go through rank.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def matmul(a, b):
    n, k, c = len(a), len(b), len(b[0])
    out = zeros(n, c)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(c):
                    oi[j] += x * bt[j]
    return out

def matvec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def commutator(a, b):
    ab = matmul(a, b)
    ba = matmul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(len(a))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def flatten(a):
    return [x for row in a for x in row]


def scale_row_to_int(row):
    """Clear denominators and divide by the gcd; [] stays []."""
    from math import gcd

    den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
    ints = [int(Fraction(x) * den) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def int_rows(rows):
    return [scale_row_to_int(row) for row in rows]


def rref(rows):
    """Reduced row echelon form over Q.  Returns (matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0} over Q, one vector per free column."""
    if not rows:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols or 0)
        ]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


def invert_unit_lower(l):
    """Inverse of a unit lower-triangular integer matrix (exact, integer)."""
    n = len(l)
    inv = identity(n)
    for j in range(n):
        col = inv
        for i in range(j + 1, n):
            s = 0
            for k in range(j, i):
                s += l[i][k] * col[k][j]
            col[i][j] = -s
    return inv


def invert_unit_upper(u):
    n = len(u)
    lt = [[u[j][i] for j in range(n)] for i in range(n)]
    inv_lt = invert_unit_lower(lt)
    return [[inv_lt[j][i] for j in range(n)] for i in range(n)]
