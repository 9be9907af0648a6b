"""Integer matrix rank: one mod-p numpy elimination, the kernel it gives,
rational reconstruction, and exact Bareiss elimination as the last resort.

Ranks over Q are computed here.  Exact bases come from linalg's one
incremental echelon (linalg.Echelon, behind rref, nullspace, snmod's
group-ring span and the quiver spans over cyclotomic fields), so the
modular elimination, rank_exact and Echelon are the package's only
eliminations.  Reduction mod a 31-bit prime can only lower a rank, so a
modular rank that reaches a known upper bound is the exact rank.

rank_modp and kernel_modp share one fraction-free forward elimination; a
caller that keeps the echelon form rank_modp leaves in its out array gets
the kernel from it by back-substitution alone.  A rank below the bound is
proved from that kernel when it can be: each kernel vector is lifted to a
primitive integer vector by rational reconstruction (rational_lift,
lift_vector) and the caller checks the lifts exactly.  k checked lifts of
an m-column matrix bound its rank over Q by m - k, which meets the modular
rank from above (the oracle does this with stabilizer vectors).  Whatever
that cannot prove, because a kernel entry is too large for one prime or a
lift fails its check, is re-done by fraction-free Bareiss elimination over
Python ints, exact for arbitrary entry sizes.  rank_capped takes an
integer array, certifies a rank at its cap mod p and falls back to
Bareiss below it; only that fallback reads the entries as Python ints.

Entries must be integers (Python or numpy ints); they are read with
operator.index, and the modular elimination accepts only integer dtypes,
so a Fraction or float raises TypeError instead of being truncated.
rank_capped reads its input with np.asarray and so takes integers in the
range of one numpy integer dtype only: a list holding an entry beyond
int64 becomes an object or float64 array and raises TypeError.
Rational rows are cleared of denominators first (linalg.primitive).
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import index

import numpy as np

from .errors import CapExceeded

# Largest prime below 2^31 - 18; (P-1)^2 < 2^63 so products stay in int64.
MOD_PRIME = 2147483629

# The modular kernel is numpy only; perfbench/run.py records this value.
HAS_NUMBA = False


def _residues(a, p, out=None):
    """Integer input as a 2-D int64 array of residues mod p (in out, when
    given).  Non-integer dtypes raise TypeError unless the input is empty."""
    a = np.asarray(a)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise TypeError("modular elimination needs integer entries, not %s" % a.dtype)
    a = np.atleast_2d(a)
    if not a.size:
        a = np.zeros(a.shape, dtype=np.int64)
    return np.remainder(a.astype(np.int64, copy=False), p, out=out)


def _eliminate(a, p):
    """Fraction-free forward elimination of a residue array, in place; the
    rank.  Row i becomes pivot * row_i - a[i, c] * row_r: scaling a row by
    the nonzero pivot keeps the rank over GF(p), so no inverse is needed,
    and both products stay below p^2 < 2^62.  Leaves a row echelon form
    whose rows past the rank are zero."""
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r + 1 :, c:] = (
            a[r, c] * a[r + 1 :, c:] - a[r + 1 :, c, None] * a[r, c:]
        ) % p
        r += 1
    return r


def rank_modp(a, p=MOD_PRIME, out=None):
    """Rank over GF(p) of an integer matrix (an array or nested lists).

    Always a lower bound for the rank over Q of the integer matrix the
    input reduces.  The input is not modified; the elimination runs on a
    copy of its residues, or in out (an int64 array of the input's 2-D
    shape) when given, which is then left holding the row echelon form
    that kernel_modp(out, rank=...) reads.  Entries of a non-integer
    dtype (floats, Fractions in an object array) raise TypeError; empty
    input of any dtype has rank 0.
    """
    return _eliminate(_residues(a, p, out), p)


def kernel_modp(a, p=MOD_PRIME, rank=None):
    """Basis of the right kernel over GF(p) of an integer matrix, as an
    int64 array with one row per free column (cols - rank_modp rows).

    The vector of free column f is 1 at f and 0 at every other free
    column.  Back-substitution takes one inverse per pivot: the pivot rows
    are scaled to a unit pivot, then cleared upwards on the free columns
    only (an entry of a pivot column is never changed by a row below it).
    When rank is given, a is the row echelon form of that rank which
    rank_modp left in its out array, and is not eliminated again.
    """
    if rank is None:
        a = _residues(a, p)
        rank = _eliminate(a, p)
    cols = a.shape[1]
    if not cols:
        return np.zeros((0, 0), dtype=np.int64)
    pivots = np.argmax(a[:rank] != 0, axis=1)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    inv = [pow(d, -1, p) for d in a[np.arange(rank), pivots].tolist()]
    a = a[:rank] * np.array(inv, dtype=np.int64)[:, None] % p
    s = a[:, free]
    for i in range(rank - 1, 0, -1):
        s[:i] = (s[:i] - a[:i, pivots[i], None] * s[i]) % p
    out = np.zeros((len(free), cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = (-s.T) % p
    return out


def rational_lift(u, p=MOD_PRIME):
    """The fraction a/b with a = b u (mod p), |a| <= N and 0 < b <= N for
    N = isqrt((p - 1) / 2), as the pair (a, b) in lowest terms, or None.

    Below that bound such a fraction is unique; it is found by the half
    extended Euclid of Wang, Guy and Davenport (SIGSAM Bull. 1982)."""
    bound = isqrt((p - 1) // 2)
    r0, r1, t0, t1 = p, int(u) % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def lift_vector(v, p=MOD_PRIME):
    """The primitive integer vector on the ray of the rational vector that
    reconstructs each residue of v (rational_lift), or None when one does
    not reconstruct.  Every denominator is below p, so the lift reduces to
    a unit multiple of v.  Entries that are small integers mod p need no
    Euclid: a kernel vector of small integers is its own lift."""
    v = np.asarray(v, dtype=np.int64) % p
    small = np.where(v > p // 2, v - p, v)
    if np.abs(small).max(initial=0) <= isqrt((p - 1) // 2):
        ints = small.tolist()
    else:
        fracs = [rational_lift(u, p) for u in v.tolist()]
        if None in fracs:
            return None
        den = lcm(*(b for _, b in fracs))
        ints = [a * (den // b) for a, b in fracs]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rank_exact(rows):
    """Rank over Q of a matrix with integer entries (fraction-free Bareiss)."""
    m = [list(map(index, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if ncols == 0:
        return 0
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivval = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            f = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (pivval * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pivval
        r += 1
    return r


def reduce_mod(rows, p=MOD_PRIME):
    """Integer matrix (list of lists) -> int64 numpy array of residues."""
    return np.array(
        [[x % p for x in map(index, row)] for row in rows], dtype=np.int64
    )


def rank_capped(a, cap):
    """Exact rank of an integer array known in advance to be <= cap.

    The array is reduced mod p with np.remainder (rank_modp), and a modular
    rank at the cap certifies rank == cap directly; otherwise the exact
    Bareiss rank of its entries, read as Python ints, is returned.  A rank
    found above the cap (mod p, or by Bareiss) proves the premise false and
    raises CapExceeded.  Entries of a non-integer dtype raise TypeError,
    and so does a list with an entry beyond int64 (np.asarray makes it an
    object or float64 array).
    """
    a = np.asarray(a)
    if not a.size:
        return 0
    cap = min(cap, *a.shape)
    rank = rank_modp(a)
    if rank < cap:
        rank = rank_exact(a.tolist())
    if rank > cap:
        raise CapExceeded("rank %d exceeds the stated bound %d" % (rank, cap))
    return rank
