"""Integer matrix rank: exact Bareiss elimination plus a mod-p fast path.

The oracle only ever needs ranks that are bounded above by a known cap (the
dimension of the variety or module being probed).  Reduction mod a 31-bit
prime can only lower the rank, so whenever the modular kernel reaches the
cap the exact rank is certified without touching big integers.  Anything
short of the cap is re-done with fraction-free Bareiss elimination over
Python ints, which is exact for arbitrary entry sizes.

The modular kernel is compiled with numba when available; otherwise, or
when the environment variable LIECLASS_NO_NUMBA is set, the vectorized
numpy kernel runs (benchmarks/rank_bench.py times it on the oracle's
matrices, and the numba kernel beside it when numba imports).
"""

from __future__ import annotations

import os

import numpy as np

# Largest prime below 2^31 - 18; (P-1)^2 < 2^63 so products stay in int64.
MOD_PRIME = 2147483629


def _rank_modp_numpy(a, p=MOD_PRIME):
    """Row reduction mod p with vectorized, fraction-free row updates:
    row i becomes pivot * row_i - a[i, c] * row_r.  Scaling a row by the
    nonzero pivot keeps the rank over GF(p), so no inverse is needed, and
    both products stay below p^2 < 2^62."""
    a = np.asarray(a, dtype=np.int64) % p
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


if os.environ.get("LIECLASS_NO_NUMBA"):
    HAS_NUMBA = False
else:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a hard dependency
        HAS_NUMBA = False

if HAS_NUMBA:

    @njit(cache=True)
    def _rank_modp_jit(a, p):
        rows, cols = a.shape
        r = 0
        for i in range(rows):
            for j in range(cols):
                a[i, j] = a[i, j] % p
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
                for j in range(cols):
                    tmp = a[r, j]
                    a[r, j] = a[piv, j]
                    a[piv, j] = tmp
            # modular inverse by Fermat
            inv = 1
            base = a[r, c] % p
            e = p - 2
            while e > 0:
                if e & 1:
                    inv = (inv * base) % p
                base = (base * base) % p
                e >>= 1
            for j in range(c, cols):
                a[r, j] = (a[r, j] * inv) % p
            for i in range(r + 1, rows):
                f = a[i, c]
                if f != 0:
                    for j in range(c, cols):
                        a[i, j] = (a[i, j] - f * a[r, j]) % p
            r += 1
        return r

    def _rank_modp_numba(a, p=MOD_PRIME):
        return int(_rank_modp_jit(np.asarray(a, dtype=np.int64).copy(), p))


def rank_modp(a, p=MOD_PRIME):
    """Rank of an int64 numpy matrix over GF(p).

    Always a lower bound for the rank over Q of the integer matrix the
    input reduces.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    if HAS_NUMBA:
        return _rank_modp_numba(a, p)
    return _rank_modp_numpy(a, p)


def rank_exact(rows):
    """Rank over Q of a matrix with Python-int entries (fraction-free Bareiss)."""
    m = [[int(x) for x in row] for row in rows]
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
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


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
