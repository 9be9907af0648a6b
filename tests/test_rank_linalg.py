from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieclass import linalg
from lieclass.errors import CapExceeded
from lieclass.rank import (
    MOD_PRIME,
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

    def test_rank_above_the_cap_raises(self):
        with pytest.raises(CapExceeded):
            rank_capped(linalg.identity(5), 3)
        # Bareiss finds the excess when the mod-p rank stays below the cap
        with pytest.raises(CapExceeded):
            rank_capped([[MOD_PRIME, 0], [0, MOD_PRIME]], 1)

    def test_capped_int64_array_at_the_cap_needs_no_bareiss(self, monkeypatch):
        from lieclass import rank

        calls = []
        monkeypatch.setattr(rank, "rank_exact", lambda rows: calls.append(rows))
        a = np.array([[1, 2, 3], [0, 1, 2**40], [0, 0, 5], [1, 3, 8]], dtype=np.int64)
        assert rank_capped(a, 3) == 3
        assert calls == []

    def test_capped_int64_array_below_the_cap_runs_bareiss(self, monkeypatch):
        from lieclass import rank

        calls = []

        def spy(rows):
            calls.append(rows)
            return rank_exact(rows)

        monkeypatch.setattr(rank, "rank_exact", spy)
        # rank 1 over Q; the second row is 2^40 times the first
        a = np.array([[3, -7, 0], [3 * 2**40, -7 * 2**40, 0]], dtype=np.int64)
        assert rank_capped(a, 2) == 1
        # Bareiss reads the entries as Python ints
        assert calls == [a.tolist()] and type(calls[0][1][0]) is int
        # the mod-p rank 0 of multiples of p is raised to the exact rank
        p = np.array([[MOD_PRIME, 0], [0, MOD_PRIME]], dtype=np.int64)
        assert rank_capped(p, 2) == 2

    def test_capped_int64_array_above_the_cap_raises(self):
        with pytest.raises(CapExceeded):
            rank_capped(np.eye(4, dtype=np.int64), 2)
        with pytest.raises(CapExceeded):
            rank_capped(np.array([[MOD_PRIME, 0], [0, MOD_PRIME]], dtype=np.int64), 1)

    @pytest.mark.parametrize(
        "rows", [[[2**64, 1], [0, 1]], [[-(2**63) - 1, 1], [0, 1]], [[2**63, 0], [0, 1]]]
    )
    def test_capped_list_beyond_int64_raises(self, rows):
        # np.asarray makes these an object or a float64 array
        assert np.asarray(rows).dtype.kind in "Of"
        with pytest.raises(TypeError):
            rank_capped(rows, 2)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0)])
    def test_capped_empty_array_has_rank_zero(self, shape):
        assert rank_capped(np.zeros(shape, dtype=np.int64), 4) == 0

    @pytest.mark.parametrize(
        "rows",
        [
            [[Fraction(1, 2), Fraction(1, 3)]],
            [[Fraction(1, 2), 0]],
            [[Fraction(2), 1]],
            [[0.5, 0]],
        ],
    )
    def test_non_integer_entries_raise(self, rows):
        for fn in (rank_exact, reduce_mod, lambda r: rank_capped(r, 1)):
            with pytest.raises(TypeError):
                fn(rows)

    @pytest.mark.parametrize(
        "a",
        [
            [[0.5, 0]],
            np.array([[1.0, 2.0], [2.0, 4.0]]),
            np.array([[Fraction(1, 2), 0]], dtype=object),
            np.array([[Fraction(2), 1]], dtype=object),
        ],
    )
    def test_modp_rejects_non_integer_dtypes(self, a):
        with pytest.raises(TypeError):
            rank_modp(a)

    @pytest.mark.parametrize(
        "a",
        [[], [[]], np.zeros((0, 3)), np.zeros((2, 0), dtype=object)],
    )
    def test_modp_empty_input_has_rank_zero(self, a):
        assert rank_modp(a) == 0

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
    def test_modp_integer_dtypes(self, dtype):
        assert rank_modp(np.array([[1, 2], [2, 4], [0, 3]], dtype=dtype)) == 2
        assert rank_modp([[1, 2], [2, 4]]) == 1

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
            assert rank_modp(a) == _rank_modp_reference(a.tolist())

    def test_input_is_not_modified(self):
        a = np.array([[3, 5], [7, MOD_PRIME - 1]], dtype=np.int64)
        before = a.copy()
        rank_modp(a)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize(
        "dtype, lo, hi",
        [(np.int64, -(2**63), 2**63 - 1), (np.uint64, 0, 2**64 - 1)],
        ids=["int64", "uint64"],
    )
    @given(data=st.data())
    @settings(max_examples=100)
    def test_every_entry_of_the_dtype_is_reduced(self, dtype, lo, hi, data):
        # entries over the whole dtype, with small ones and multiples of p
        # (zero mod p) mixed in so that ranks fall short
        ks = (-2, -1, 1, 2, lo // MOD_PRIME + 1, hi // MOD_PRIME)
        multiples = [k * MOD_PRIME for k in ks if k * MOD_PRIME >= lo]
        entry = st.one_of(
            st.integers(max(lo, -3), 3), st.integers(lo, hi), st.sampled_from(multiples)
        )
        rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        a = data.draw(
            st.lists(st.lists(entry, min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows)
        )
        arr = np.array(a, dtype=dtype).reshape(rows, cols)
        assert rank_modp(arr) == _rank_modp_reference(a) <= rank_exact(a)

    def test_uint64_entries_beyond_int64_keep_the_lower_bound(self):
        # the second row is twice the first, so the rank over Q is 1; cast to
        # int64 first, 2^63 would wrap to -2^63 and the determinant become
        # -2^64, a unit mod p
        a = np.array([[1, 2**62], [2, 2**63]], dtype=np.uint64)
        assert rank_exact(a.tolist()) == 1
        assert rank_modp(a) == 1
        assert rank_capped(a, 1) == 1


def _reference_rref(rows):
    """Gauss-Jordan over Q in Fractions, each pivot scaled to 1."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _reference_int_row(row):
    """Clear a rational row's denominators, then divide by the gcd."""
    den = lcm(*(Fraction(x).denominator for x in row))
    ints = [int(Fraction(x) * den) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _reference_nullspace(rows, ncols=None):
    """The Fraction pipeline: one vector per free column with a 1 there and
    minus the reduced pivot rows' entries elsewhere, cleared to integers."""
    if not rows:
        return [[int(j == i) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = _reference_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(_reference_int_row(v))
    return basis


@st.composite
def low_rank_matrices(draw):
    """A product of an r x k and a k x c matrix, k <= min(r, c), with int or
    Fraction entries: rank-deficient more often than not."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(nrows, ncols)))
    entry = draw(
        st.sampled_from(
            [
                st.integers(-9, 9),
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
            ]
        )
    )

    def matrix(r, c):
        return st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)

    left, right = draw(matrix(nrows, k)), draw(matrix(k, ncols))
    return [
        [sum((left[i][t] * right[t][j] for t in range(k)), 0) for j in range(ncols)]
        for i in range(nrows)
    ]


class TestExactBasis:
    """Fraction-free rref/nullspace give the Fraction pipeline's integer
    bases bit for bit."""

    @given(low_rank_matrices())
    @settings(max_examples=300)
    def test_nullspace_matches_fraction_pipeline(self, rows):
        basis = linalg.nullspace(rows)
        assert basis == _reference_nullspace(rows)
        assert all(type(x) is int for v in basis for x in v)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)

    @given(low_rank_matrices())
    @settings(max_examples=200)
    def test_rref_rows_are_primitive_reduced_rows(self, rows):
        red, pivots = linalg.rref(rows)
        ref, ref_pivots = _reference_rref(rows)
        assert pivots == ref_pivots
        for r in range(len(pivots)):
            assert red[r] == _reference_int_row(ref[r])
        assert all(not any(row) for row in red[len(pivots) :])

    @given(low_rank_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_echelon_ignores_absorb_order(self, rows, rnd):
        order = list(range(len(rows)))
        rnd.shuffle(order)
        ech = linalg.Echelon()
        added = [ech.absorb(rows[i]) for i in order]
        red, pivots = linalg.rref(rows)
        assert sorted(ech.rows) == pivots
        assert [ech.rows[c] for c in pivots] == red[: len(pivots)]
        assert sum(added) == len(ech) == len(pivots)

    def test_echelon_absorb_reports_membership(self):
        ech = linalg.Echelon()
        assert ech.absorb([0, 2, 4])
        assert not ech.absorb([0, Fraction(-1, 2), -1])
        assert not ech.absorb([0, 0, 0])
        assert ech.absorb([3, 1, 0])
        assert ech.rows == {0: [3, 0, -2], 1: [0, 1, 2]}

    @pytest.mark.parametrize("ncols", [0, 1, 4])
    def test_empty_rows(self, ncols):
        basis = linalg.nullspace([], ncols)
        assert basis == _reference_nullspace([], ncols) == linalg.identity(ncols)
        assert all(type(x) is int for v in basis for x in v)

    def test_primitive(self):
        assert linalg.primitive([Fraction(1, 2), Fraction(-1, 3), 0]) == [3, -2, 0]
        assert linalg.primitive([4, -6, 0]) == [2, -3, 0]
        assert linalg.primitive([0, 0]) == [0, 0]
        assert linalg.primitive([]) == []


class TestLinalg:
    def test_rref_and_rank(self):
        rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert len(linalg.rref(rows)[1]) == 2

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

    @given(matrices)
    @settings(max_examples=40)
    def test_span_consistency(self, rows):
        assert len(linalg.rref(rows)[1]) == rank_exact(rows)
