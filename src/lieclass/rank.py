"""Integer matrix rank: one mod-p numpy elimination, and exact Bareiss
elimination for the ranks it cannot prove.

Ranks over Q are computed here.  Exact bases come from linalg's one
incremental echelon (linalg.Echelon, behind rref, nullspace, snmod's
group-ring span and the quiver spans over cyclotomic fields), so the
modular elimination, rank_exact and Echelon are the package's only
eliminations.  Reduction mod the one 31-bit prime, MOD_PRIME, can only
lower a rank, so a modular rank that reaches a known upper bound is the
exact rank.  A rank below the bound is re-done by fraction-free Bareiss
elimination over Python ints, exact for arbitrary entry sizes.
rank_capped takes an integer array, certifies a rank at its cap mod p and
falls back to Bareiss below it; only that fallback reads the entries as
Python ints.  The oracle does the same with R, the Borel's own rank.

Entries must be integers (Python or numpy ints); they are read with
operator.index, and the modular elimination accepts only integer dtypes,
so a Fraction or float raises TypeError instead of being truncated.
rank_capped reads its input with np.asarray and so takes integers in the
range of one numpy integer dtype only: a list holding an entry beyond
int64 becomes an object or float64 array and raises TypeError.
Rational rows are cleared of denominators first (linalg.primitive).
"""

from __future__ import annotations

from operator import index

import numpy as np

from .errors import CapExceeded

# Largest prime below 2^31 - 18; (P-1)^2 < 2^63 so products stay in int64.
MOD_PRIME = 2147483629

# The modular kernel is numpy only; perfbench/run.py records this value.
HAS_NUMBA = False


def _eliminate(a, p):
    """Fraction-free forward elimination of a residue array, in place; the
    rank.  Row i becomes pivot * row_i - a[i, c] * row_r: scaling a row by
    the nonzero pivot keeps the rank over GF(p), so no inverse is needed,
    and both products stay below p^2 < 2^62."""
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


def rank_modp(a):
    """Rank over GF(MOD_PRIME) of an integer matrix (an array or lists).

    Always a lower bound for the rank over Q of the integer matrix the
    input reduces; the prime is fixed so that _eliminate's products stay
    in int64.  The input is not modified; the elimination runs on a copy
    of its residues.  A uint64 array is reduced before the cast to int64,
    which would wrap its entries of 2^63 and up.  Entries of a non-integer
    dtype (floats, Fractions in an object array) raise TypeError; empty
    input of any dtype has rank 0.
    """
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError("modular elimination needs integer entries, not %s" % a.dtype)
    if a.ndim < 2:
        a = np.atleast_2d(a)
    if not a.size:
        a = np.zeros(a.shape, dtype=np.int64)
    elif a.dtype == np.uint64:
        a = a % np.uint64(MOD_PRIME)
    a = np.remainder(a.astype(np.int64, copy=False), MOD_PRIME)
    return _eliminate(a, MOD_PRIME)


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
