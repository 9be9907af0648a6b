"""The table normalizer against the rows of its whole system.

algebras.normalizer_dim solves only for the entries of x that commute
with the diagonal generators (the rest of the normalizer lies in the span
itself).  The reference below builds every row of the full system over all
n^2 entries one by one in pure Python, the way the system is defined: one
row f([., s]) per generator s and annihilating functional f.  The
normalizer's dimension is n^2 minus the rank of those rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieclass import cli, linalg
from lieclass.algebras import (
    ModuleSpec,
    _annihilator,
    make_algebra,
    normalizer_dim,
    representation,
    summand_scalars,
)
from lieclass.errors import BadParameter, CapExceeded, MismatchedSize, TooLarge
from lieclass.rank import rank_exact
from lieclass.sphericaltable import is_spherical_module_by_table


def transpose(a):
    return [list(col) for col in zip(*a)]


def commutator(a, b):
    ab, ba = linalg.matmul(a, b), linalg.matmul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def reference_rows(mats, n):
    """Rows of the normalizer system: for each generator s and each f in
    the annihilator of span(mats), the coefficients of x in f([x, s]),
    that is the entries of f s^T - s^T f."""
    ann = linalg.nullspace([linalg.flatten(m) for m in mats], n * n)
    rows = []
    for s in mats:
        st_ = transpose(s)
        for f in ann:
            fm = [f[i * n : (i + 1) * n] for i in range(n)]
            c = linalg.matmul(fm, st_)
            d = linalg.matmul(st_, fm)
            rows.append([c[i][j] - d[i][j] for i in range(n) for j in range(n)])
    return ann, rows


def assert_matches_reference(mats, n):
    _, rows = reference_rows(mats, n)
    dim = normalizer_dim(mats, (), n)
    assert dim == n * n - rank_exact(rows)
    assert dim.span_dim == rank_exact([linalg.flatten(m) for m in mats])


def assert_annihilator_is_nullspace(mats, n):
    """The annihilator read off the echelon form is linalg.nullspace of the
    same rows, vector for vector, as one int64 array."""
    s = np.array(mats, dtype=np.int64).reshape(len(mats), n, n)
    ann = _annihilator(s)
    assert ann.dtype == np.int64 and ann.shape[1:] == (n * n,)
    assert ann.tolist() == linalg.nullspace(s.reshape(len(s), n * n).tolist(), n * n)


# Modules of dimension <= 6 whose bases the generators are drawn from.
SMALL_MODULES = [
    ([("sl", 2)], [("natural", 0)]),
    ([("sl", 3)], [("natural", 0)]),
    ([("so", 3)], [("natural", 0)]),
    ([("sp", 4)], [("natural", 0)]),
    ([("so", 4)], [("natural", 0)]),
    ([("sl", 2)], [("sym2", 0)]),
    ([("sl", 4)], [("wedge2", 0)]),
    ([("sl", 3)], [("natural", 0), ("dual", 0)]),
    ([("sl", 2)], [("natural", 0), ("natural", 0), ("trivial",)]),
    ([("sl", 2), ("sl", 3)], [("tensor", 0, 1)]),
]


def module_pool(factors, summands):
    """Generators of one small module: its basis, the summand scalars and
    the identity."""
    spec = ModuleSpec(summands)
    algs = [make_algebra(tag, n) for tag, n in factors]
    rep = representation(algs, spec)
    pool = rep.basis.tolist()
    pool += [m.tolist() for m in summand_scalars(spec, [a.n for a in algs])]
    pool.append(linalg.identity(rep.n))
    return rep.n, pool


POOLS = [module_pool(*m) for m in SMALL_MODULES]


def bracket_closure(mats):
    """mats followed by enough commutators to span the Lie subalgebra that
    mats generate (normalizer_dim needs a subalgebra: it caps the rank of
    the system at n^2 - dim span)."""
    ech = linalg.Echelon()
    basis = [m for m in mats if ech.absorb(linalg.flatten(m))]
    out = list(mats)
    i = 0
    while i < len(basis):
        for b in basis[: i + 1]:
            c = commutator(basis[i], b)
            if ech.absorb(linalg.flatten(c)):
                basis.append(c)
                out.append(c)
        i += 1
    return out


@st.composite
def generator_subsets(draw):
    """A random subset of a module's generators, with repeats, multiples and
    sums of two, so that the generators are often dependent, closed under
    the bracket."""
    n, pool = draw(st.sampled_from(POOLS))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=len(pool) + 3))
    mats = [pool[i] for i in picks]
    for scale, i, j in draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(0, len(pool) - 1),
                      st.integers(0, len(pool) - 1)),
            max_size=2,
        )
    ):
        mats.append([[scale * a + b for a, b in zip(ra, rb)]
                     for ra, rb in zip(pool[i], pool[j])])
    return bracket_closure(mats), n


class TestAgainstReferenceRows:
    @given(generator_subsets())
    @settings(max_examples=80)
    def test_random_generator_subsets(self, case):
        mats, n = case
        assert_matches_reference(mats, n)
        assert_annihilator_is_nullspace(mats, n)

    # the module cases of the exact_span benchmark workload
    TABLE_CASES = [
        ([("sl", 3)], [("natural", 0)]),
        ([("sl", 4)], [("natural", 0)]),
        ([("so", 4)], [("natural", 0)]),
        ([("so", 6)], [("natural", 0)]),
        ([("sp", 6)], [("natural", 0)]),
        ([("sl", 4)], [("sym2", 0)]),
        ([("sl", 5)], [("wedge2", 0)]),
        ([("sl", 2), ("sl", 3)], [("tensor", (0, "n"), (1, "n"))]),
        ([("sl", 3), ("sl", 3)], [("tensor", (0, "n"), (1, "d"))]),
        ([("sl", 2), ("sp", 6)], [("tensor", (0, "n"), (1, "n"))]),
        ([("sl", 3), ("sp", 4)], [("tensor", (0, "n"), (1, "n"))]),
        ([("sl", 4)], [("natural", 0), ("dual", 0)]),
        ([("sl", 3)], [("natural", 0), ("natural", 0)]),
        ([("sl", 4)], [("natural", 0), ("wedge2", 0)]),
        ([("sl", 2), ("sp", 4)], [("tensor", (0, "n"), (1, "n")), ("natural", 0)]),
    ]

    @pytest.mark.parametrize("factors, summands", TABLE_CASES)
    def test_table_spans(self, factors, summands, monkeypatch):
        """The span each table verdict builds (k + centers + scalar)."""
        import lieclass.sphericaltable as table

        seen = []

        def record(k_basis, extra_center=(), n=None):
            mats = [*k_basis, *extra_center]
            seen.append(([np.asarray(m).tolist() for m in mats], n))
            return normalizer_dim(k_basis, extra_center, n)

        monkeypatch.setattr(table, "normalizer_dim", record)
        algs = [make_algebra(tag, n) for tag, n in factors]
        is_spherical_module_by_table(algs, ModuleSpec(summands))
        (mats, n), = seen
        assert_matches_reference(mats, n)
        assert_annihilator_is_nullspace(mats, n)

    def test_normalizer_larger_than_the_span(self):
        """so_5 plus the identity on two copies of C^5: the normalizer adds
        gl_2 on the multiplicities (dim 14 > 11), so the capped rank misses
        its cap and the exact fallback ranks the rows."""
        rep = representation(
            [make_algebra("so", 5)], ModuleSpec([("natural", 0), ("natural", 0)])
        )
        mats = rep.basis.tolist() + [linalg.identity(rep.n)]
        assert normalizer_dim(mats) == 14
        assert_matches_reference(mats, rep.n)

    def test_no_generators(self):
        assert normalizer_dim([], (), 3) == 9
        assert normalizer_dim([], (), 3).span_dim == 0
        assert_matches_reference([], 3)
        assert_annihilator_is_nullspace([], 3)

    def test_zero_dimensional_space(self):
        """The zero span of gl_0 is its own normalizer."""
        dim = normalizer_dim([], (), 0)
        assert (dim, dim.span_dim) == (0, 0)

    def test_whole_of_gl(self):
        mats = make_algebra("gl", 3).basis.tolist()
        assert normalizer_dim(mats) == normalizer_dim(mats).span_dim == 9
        assert_matches_reference(mats, 3)
        assert_annihilator_is_nullspace(mats, 3)

    def test_no_diagonal_generator(self):
        """span(E12) has no diagonal generator, so every entry of x is an
        unknown: its normalizer is the upper triangular matrices."""
        e12 = [[0, 1], [0, 0]]
        assert normalizer_dim([e12]) == 3
        assert_matches_reference([e12], 2)
        assert_annihilator_is_nullspace([e12], 2)

    def test_dependent_and_repeated_generators(self):
        n, pool = POOLS[7]  # sl_3 on C^3 + its dual, scalars, identity
        twice = pool + pool
        both = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(pool[0], pool[1])]
        sums = pool + [both]
        for mats in (twice, sums, [pool[0]] * 4):
            assert_matches_reference(mats, n)
            assert_annihilator_is_nullspace(mats, n)
        assert normalizer_dim(twice) == normalizer_dim(pool)


# the table questions at the size cap (CI runs each under a time bound)
SIZE_CAP_QUESTIONS = [
    "sl(8) on wedge2",
    "sl(4)+sl(8) on C4xC8",
    "so(32) on C32",
    "sp(32) on C32",
    "sl(16)+sl(2) on C16xC2",
]


@pytest.mark.parametrize("question", SIZE_CAP_QUESTIONS)
def test_size_cap_annihilators_are_the_nullspace(question, monkeypatch, capsys):
    import lieclass.sphericaltable as table

    seen = []

    def record(k_basis, extra_center=(), n=None):
        seen.append(([*k_basis, *extra_center], n))
        return normalizer_dim(k_basis, extra_center, n)

    monkeypatch.setattr(table, "normalizer_dim", record)
    assert cli.run(["table", "--k", question]) == 0
    assert "spherical: yes" in capsys.readouterr().out
    (mats, n), = seen
    assert_annihilator_is_nullspace(mats, n)


class TestAnnihilatorBound:
    """The entries den * red[r][f] / p_r are formed in int64 only when
    den * max|red| < 2^63; otherwise linalg.nullspace forms the vectors,
    and only they must fit in int64."""

    @staticmethod
    def nullspace_calls(monkeypatch):
        calls = []
        nullspace = linalg.nullspace

        def spy(rows, ncols=None):
            calls.append(None)
            return nullspace(rows, ncols)

        monkeypatch.setattr(linalg, "nullspace", spy)
        return calls

    def test_just_below_the_bound(self, monkeypatch):
        # one pivot row (2, 0, 0, 2^62 - 1): den * max|red| = 2^63 - 2
        mats = np.array([[[2, 0], [0, 2**62 - 1]]], dtype=np.int64)
        calls = self.nullspace_calls(monkeypatch)
        ann = _annihilator(mats)
        assert calls == []
        assert ann.tolist() == linalg.nullspace([[2, 0, 0, 2**62 - 1]], 4)

    @pytest.mark.parametrize(
        "mats",
        [
            # one pivot row (2, 0, 0, 2^62 + 1): den * max|red| = 2^63 + 2
            [[[2, 0], [0, 2**62 + 1]]],
            # coprime pivots: den = p q is about 2^62, and so is max|ann|
            [[[2147483629, 0], [0, 1]], [[0, 2147483587], [0, 1]]],
        ],
    )
    def test_at_the_bound_the_nullspace_forms_the_vectors(self, mats, monkeypatch):
        calls = self.nullspace_calls(monkeypatch)
        assert_annihilator_is_nullspace(mats, 2)
        # once inside _annihilator, once in the comparison
        assert len(calls) == 2

    @staticmethod
    def prime_pivot_span(primes, entries):
        """The i-th generator has primes[i] at entries[2 i] and 1 at the
        later entries[2 i + 1] of a 7 x 7 matrix: den is the product of the
        primes, and every annihilator vector is a unit vector or (-1, p_i)."""
        mats = []
        for i, p in enumerate(primes):
            m = [0] * 49
            m[entries[2 * i]], m[entries[2 * i + 1]] = p, 1
            mats.append([m[r * 7 : r * 7 + 7] for r in range(7)])
        return mats

    def test_sixteen_prime_pivots(self, monkeypatch):
        """The primes 2..53 at distinct off-diagonal entries of gl_7: den is
        about 3.3e19 > 2^63.  The span is not a subalgebra, so the
        normalizer's rank bound fails (CapExceeded), not the annihilator."""
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        mats = self.prime_pivot_span(primes, [k for k in range(49) if k % 8])
        calls = self.nullspace_calls(monkeypatch)
        assert_annihilator_is_nullspace(mats, 7)
        assert len(calls) == 2
        with pytest.raises(CapExceeded):
            normalizer_dim(mats)

    def test_prime_pivots_in_an_abelian_span(self, monkeypatch):
        """Five primes near 2^13 in the block of rows 0..2 and columns 3..6,
        where every bracket vanishes: den is about 3.7e19 > 2^63, and the
        normalizer is the reference's."""
        primes = [8191, 8209, 8219, 8221, 8231]
        mats = self.prime_pivot_span(primes, [r * 7 + c for r in range(3) for c in range(3, 7)])
        calls = self.nullspace_calls(monkeypatch)
        assert_matches_reference(mats, 7)
        assert len(calls) == 2  # inside normalizer_dim and in reference_rows
        assert_annihilator_is_nullspace(mats, 7)

    def test_vectors_beyond_int64_raise(self):
        # coprime pivots above 2^32: the vector (-q, -p, 0, p q) overflows
        p, q = 4294967311, 4294967291
        mats = np.array([[[p, 0], [0, 1]], [[0, q], [0, 1]]], dtype=np.int64)
        with pytest.raises(TooLarge):
            _annihilator(mats)


def test_int64_overflow_raises():
    for entry in (2**61, 2**64):
        with pytest.raises(TooLarge):
            normalizer_dim([[[0, entry], [0, 0]]], (), 2)


def test_span_not_closed_under_the_bracket_raises():
    """[E12, E21] = H is outside span(E12, I, E21): the system has rank 2,
    above the cap n^2 - dim span = 1, so there is no normalizer dimension
    to return."""
    e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(CapExceeded):
        normalizer_dim([e12, linalg.identity(2), e21], (), 2)


def test_span_not_stable_under_its_diagonal_generator_raises():
    """[diag(1, 2, 4), E12 + E23] = -E12 - 2 E23 is outside span(diag(1, 2,
    4), E12 + E23): the annihilator has a vector on two weights."""
    d = [[1, 0, 0], [0, 2, 0], [0, 0, 4]]
    e = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    with pytest.raises(CapExceeded):
        normalizer_dim([d, e])


def test_no_operators_and_no_size_is_a_bad_parameter():
    with pytest.raises(BadParameter):
        normalizer_dim([], (), None)


def test_an_operator_of_another_size_is_a_size_mismatch():
    with pytest.raises(MismatchedSize):
        normalizer_dim([linalg.identity(2)], [linalg.identity(3)])
    with pytest.raises(MismatchedSize):
        normalizer_dim(make_algebra("sl", 2).basis, [linalg.identity(3)])
