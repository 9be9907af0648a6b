"""Integer matrix rank: a mod-p numpy kernel and exact Bareiss elimination.

Ranks over Q are computed here.  Exact bases come from linalg's one
incremental echelon (linalg.Echelon, behind rref, nullspace, snmod's
group-ring span and the quiver spans over cyclotomic fields), so rank_modp,
rank_exact and Echelon are the package's only eliminations.  The oracle
needs ranks that are bounded above by a known cap (the dimension of the
variety or module being probed).  Reduction mod a 31-bit prime can only
lower the rank, so whenever the modular kernel reaches the cap the exact
rank is certified without touching big integers.
Anything short of the cap is re-done with fraction-free Bareiss elimination
over Python ints, which is exact for arbitrary entry sizes.

Entries must be integers (Python or numpy ints); they are read with
operator.index, and rank_modp accepts only integer dtypes, so a Fraction
or float raises TypeError instead of being truncated.  Rational rows are
cleared of denominators first (linalg.primitive).
"""

from __future__ import annotations

from operator import index

import numpy as np

# Largest prime below 2^31 - 18; (P-1)^2 < 2^63 so products stay in int64.
MOD_PRIME = 2147483629

# The modular kernel is numpy only; perfbench/run.py records this value.
HAS_NUMBA = False


def rank_modp(a, p=MOD_PRIME):
    """Rank over GF(p) of an integer matrix (an array or nested lists).

    Always a lower bound for the rank over Q of the integer matrix the
    input reduces.  Row updates are vectorized and fraction-free: row i
    becomes pivot * row_i - a[i, c] * row_r.  Scaling a row by the nonzero
    pivot keeps the rank over GF(p), so no inverse is needed, and both
    products stay below p^2 < 2^62.  The input is not modified.  Entries
    of a non-integer dtype (floats, Fractions in an object array) raise
    TypeError; empty input of any dtype has rank 0.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError("rank_modp needs integer entries, not %s" % a.dtype)
    a = np.atleast_2d(a.astype(np.int64, copy=False)) % p
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


def rank_capped(rows, cap):
    """Exact rank of an integer matrix known in advance to be <= cap.

    The modular kernel certifies rank == cap directly; otherwise the exact
    Bareiss rank is returned.
    """
    if not rows or not rows[0]:
        return 0
    cap = min(cap, len(rows), len(rows[0]))
    if rank_modp(reduce_mod(rows)) >= cap:
        return cap
    return rank_exact(rows)
