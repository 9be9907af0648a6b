import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieclass import linalg
from lieclass.rank import (
    MOD_PRIME,
    _rank_modp_numpy,
    rank_capped,
    rank_exact,
    rank_modp,
    reduce_mod,
)

matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-30, 30), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestRank:
    def test_identity(self):
        assert rank_exact(linalg.identity(4)) == 4

    def test_singular(self):
        assert rank_exact([[1, 2], [2, 4]]) == 1

    def test_big_entries(self):
        rows = [[10**40, 1], [0, 10**40]]
        assert rank_exact(rows) == 2

    @given(matrices)
    @settings(max_examples=60)
    def test_modp_never_overcounts(self, rows):
        exact = rank_exact(rows)
        modular = rank_modp(reduce_mod(rows))
        assert modular <= exact
        # entries are tiny compared to the prime, so equality holds here
        assert modular == exact

    @given(matrices)
    @settings(max_examples=40)
    def test_matches_numpy_float_rank_on_small_entries(self, rows):
        expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert rank_exact(rows) == expected

    def test_capped_certifies(self):
        rows = linalg.identity(5)
        assert rank_capped(rows, 5) == 5
        assert rank_capped(rows, 3) >= 3

    def test_prime_is_prime(self):
        for q in range(2, 50000):
            if MOD_PRIME % q == 0:
                raise AssertionError(q)
            if q * q > MOD_PRIME:
                break


def _rank_modp_reference(rows, p=MOD_PRIME):
    """Gauss-Jordan mod p over Python ints, pivots normalized by Fermat."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


class TestModpKernel:
    """The fraction-free numpy kernel keeps every rank over GF(p)."""

    @pytest.mark.parametrize("shape", [(34, 28), (112, 28), (6, 3), (3, 9)])
    def test_low_rank_residue_matrices(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        rows, cols = shape
        for rank in range(0, min(shape) + 1, max(1, min(shape) // 4)):
            left = rng.integers(0, MOD_PRIME, size=(rows, rank))
            right = rng.integers(0, MOD_PRIME, size=(rank, cols))
            # product mod p with Python ints, then full-size residues
            a = np.array(
                [[sum(int(x) * int(y) for x, y in zip(lr, rc)) % MOD_PRIME
                  for rc in right.T] for lr in left],
                dtype=np.int64,
            ).reshape(rows, cols)
            a[rng.permutation(rows)[: rows // 3]] = 0
            want = _rank_modp_reference(a.tolist())
            assert _rank_modp_numpy(a) == want
            assert rank_modp(a) == want

    def test_input_is_not_modified(self):
        a = np.array([[3, 5], [7, MOD_PRIME - 1]], dtype=np.int64)
        before = a.copy()
        _rank_modp_numpy(a)
        assert np.array_equal(a, before)


class TestNumbaFallback:
    def test_fallback_matches(self):
        code = (
            "from lieclass.rank import rank_modp, reduce_mod, HAS_NUMBA;"
            "import sys;"
            "rows=[[1,2,3],[4,5,6],[7,8,10]];"
            "print(rank_modp(reduce_mod(rows)), HAS_NUMBA)"
        )
        env = dict(os.environ, LIECLASS_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        rank_str, has_numba = out.stdout.split()
        assert rank_str == "3"
        assert has_numba == "False"


class TestLinalg:
    def test_rref_and_rank(self):
        rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert linalg.rank(rows) == 2

    def test_nullspace(self):
        rows = [[1, 1, 0], [0, 0, 1]]
        ns = linalg.nullspace(rows, 3)
        assert len(ns) == 1
        v = ns[0]
        assert v[0] + v[1] == 0 and v[2] == 0

    def test_unit_triangular_inverse(self):
        lo = [[1, 0, 0], [5, 1, 0], [-3, 2, 1]]
        inv = linalg.invert_unit_lower(lo)
        assert linalg.matmul(lo, inv) == linalg.identity(3)
        up = linalg.transpose(lo)
        invu = linalg.invert_unit_upper(up)
        assert linalg.matmul(up, invu) == linalg.identity(3)

    @given(matrices)
    @settings(max_examples=40)
    def test_span_consistency(self, rows):
        assert linalg.rank(rows) == rank_exact(rows)
