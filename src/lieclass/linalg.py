"""Small exact linear algebra over the integers.

Matrices are lists of lists (or tuples of tuples) of Python ints; an
int64 array is passed as .tolist(), since int64 products in the
eliminations below would wrap where Python ints grow.  The one exact
elimination for bases is Echelon, an incremental fraction-free
Gauss-Jordan on primitive integer rows: rref absorbs every row and
nullspace reads its vectors off rref, snmod's group-ring span absorbs
products one at a time, and quivers absorbs vectors over Q(zeta_m) as
their coordinate rows over Q (restriction of scalars).  No Fraction
arithmetic is done; rational input rows are cleared of denominators
once, on entry (primitive), and the integer rows formed after that are
only divided by their gcd.  Ranks go through rank.py.  Sizes are
modest: the largest systems are the table's spans, at most n^2 rows over
n^2 columns for a module of dimension n <= 32 (algebras.MAX_MATRIX_SIZE).
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


def flatten(a):
    return [x for row in a for x in row]


def primitive(row):
    """The primitive integer row on the ray of a rational row: denominators
    cleared, then divided by the (positive) gcd of the entries.  A zero row
    stays zero.  Returns a new list."""
    if {int}.issuperset(map(type, row)):
        return _content_free(list(row))
    den = lcm(*(Fraction(x).denominator for x in row))
    return _content_free([int(Fraction(x) * den) for x in row])


def _content_free(ints):
    """A list of Python ints divided by the (positive) gcd of its entries:
    the primitive form of a row that is already integer, as every row
    formed inside Echelon and nullspace is."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


class Echelon:
    """Incremental fraction-free Gauss-Jordan over Q.

    ``rows`` maps each pivot column to one primitive integer row that is
    positive there and zero in every other pivot column.  A pivot row's
    leading entry never moves: a new row is reduced against the pivot rows,
    and if anything is left its leading column becomes a new pivot, cleared
    from the older rows (only rows whose pivot lies to its left have an
    entry there).  So after any sequence of absorbs the rows are the unique
    primitive reduced echelon basis, with positive pivots, of the span."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def absorb(self, row):
        """Add a rational row to the span; True iff it was not already in it."""
        v = primitive(row)
        for col, prow in self.rows.items():
            f = v[col]
            if f:
                p = prow[col]
                v = _content_free([p * a - f * b for a, b in zip(v, prow)])
        col = next((c for c, x in enumerate(v) if x), -1)
        if col < 0:
            return False
        if v[col] < 0:
            v = [-x for x in v]
        p = v[col]
        for pcol, prow in self.rows.items():
            f = prow[col]
            if f:
                w = [p * a - f * b for a, b in zip(prow, v)]
                self.rows[pcol] = _content_free(w)
        self.rows[col] = v
        return True


def rref(rows):
    """Reduced row echelon form over Q, fraction-free.  Returns (matrix,
    pivot columns): the r-th row for r < len(pivots) is the primitive
    integer row with a positive entry in column pivots[r] and zeros in the
    other pivot columns; the remaining rows are zero."""
    ech = Echelon()
    nrows = ncols = 0
    for row in rows:
        ech.absorb(row)
        nrows, ncols = nrows + 1, len(row)
    pivots = sorted(ech.rows)
    zero = [[0] * ncols for _ in range(nrows - len(pivots))]
    return [ech.rows[c] for c in pivots] + zero, pivots


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
        basis.append(_content_free(v))
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
