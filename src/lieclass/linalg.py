"""Small exact linear algebra over the integers.

Matrices are lists of lists (or tuples of tuples) of ints.  Exact bases
(rref, nullspace) come from fraction-free Gauss-Jordan elimination: rows
are kept as primitive integer rows, so no Fraction arithmetic is done;
rational input rows are cleared of denominators once, on entry.  Ranks go
through rank.py.  Sizes are modest: the largest systems, the table
normalizers, have a few thousand rows over at most a few hundred columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def primitive(row):
    """The primitive integer row on the ray of a rational row: denominators
    cleared, then divided by the (positive) gcd of the entries.  A zero row
    stays zero."""
    den = lcm(*(Fraction(x).denominator for x in row if type(x) is not int))
    ints = [x * den if type(x) is int else int(Fraction(x) * den) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rref(rows):
    """Reduced row echelon form over Q, fraction-free.  Returns (matrix,
    pivot columns): the r-th row for r < len(pivots) is the primitive
    integer row with a positive entry in column pivots[r] and zeros in the
    other pivot columns; the remaining rows are zero."""
    m = [primitive(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), -1)
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        if row_r[c] < 0:
            row_r = m[r] = [-x for x in row_r]
        p = row_r[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = primitive([p * a - f * b for a, b in zip(m[i], row_r)])
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0} over Q, one primitive integer vector per free
    column, with a positive entry there (the unique such vector on its
    ray); ncols is needed only when rows is empty."""
    if not rows:
        return [[int(j == i) for j in range(ncols)] for i in range(ncols or 0)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    # pivot row r reads p_r x_c = -sum red[r][free] x_free; scale x_free to
    # the lcm of the pivots so that every x_c is an integer
    den = lcm(*(red[r][c] for r, c in enumerate(pivots)))
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [0] * ncols
        v[free] = den
        for r, c in enumerate(pivots):
            v[c] = -red[r][free] * den // red[r][c]
        basis.append(primitive(v))
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
