"""The table normalizer's Gram matrix against the rows it stands for.

algebras._normalizer_system returns the Gram matrix A^T A of the normalizer
system A instead of A.  The reference below builds the rows of A one by one
in pure Python, the way the system is defined: one row f([., s]) per
generator s and annihilating functional f.  Rank, nullspace and reduced
echelon form must not tell the two apart.
"""

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieclass import linalg
from lieclass.algebras import (
    CatalogAlgebra,
    ModuleSpec,
    _normalizer_system,
    make_algebra,
    normalizer_dim,
    normalizer_in_gl,
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


def python_gram(rows, ncols):
    return [
        [sum(r[i] * r[j] for r in rows) for j in range(ncols)] for i in range(ncols)
    ]


def echelon_rows(rows):
    red, pivots = linalg.rref(rows)
    return red[: len(pivots)], pivots


def assert_matches_reference(mats, n):
    ann, rows = reference_rows(mats, n)
    got_ann, gram = _normalizer_system(mats, n)
    assert got_ann == ann
    if rows:
        assert echelon_rows(gram) == echelon_rows(rows)
    else:
        assert gram == []
    dim = normalizer_dim(mats, (), n)
    assert dim == n * n - rank_exact(rows)
    assert dim.span_dim == rank_exact([linalg.flatten(m) for m in mats])
    norm = normalizer_in_gl(CatalogAlgebra(mats, [], n, {}))
    expected = linalg.nullspace(rows, n * n)
    assert [linalg.flatten(b) for b in norm.basis] == expected


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


class TestGramAgainstRows:
    @given(generator_subsets())
    @settings(max_examples=80)
    def test_random_generator_subsets(self, case):
        mats, n = case
        assert_matches_reference(mats, n)

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

    def test_normalizer_larger_than_the_span(self):
        """so_5 plus the identity on two copies of C^5: the normalizer adds
        gl_2 on the multiplicities (dim 14 > 11), so the capped rank misses
        its cap and the exact fallback ranks the Gram matrix."""
        rep = representation(
            [make_algebra("so", 5)], ModuleSpec([("natural", 0), ("natural", 0)])
        )
        mats = rep.basis.tolist() + [linalg.identity(rep.n)]
        assert normalizer_dim(mats) == 14
        assert_matches_reference(mats, rep.n)

    def test_no_generators(self):
        ann, gram = _normalizer_system([], 3)
        assert len(ann) == 9 and gram == []
        assert normalizer_dim([], (), 3) == 9
        assert normalizer_in_gl(CatalogAlgebra([], [], 3, {})).dim == 9
        assert_matches_reference([], 3)

    def test_whole_of_gl(self):
        mats = make_algebra("gl", 3).basis.tolist()
        ann, gram = _normalizer_system(mats, 3)
        assert ann == [] and gram == []
        assert_matches_reference(mats, 3)

    def test_dependent_and_repeated_generators(self):
        n, pool = POOLS[7]  # sl_3 on C^3 + its dual, scalars, identity
        twice = pool + pool
        both = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(pool[0], pool[1])]
        sums = pool + [both]
        for mats in (twice, sums, [pool[0]] * 4):
            assert_matches_reference(mats, n)
        assert normalizer_dim(twice) == normalizer_dim(pool)


class TestExactnessBound:
    """The Gram matrix is summed in float64; past 2^53 that sum could round,
    so the system refuses with TooLarge rather than return a wrong rank."""

    def scaled_case(self):
        """sl_2 on S^2 C^2 and the largest scale c of its generators for
        which len(mats) * len(ann) * max|row entry|^2 < 2^53."""
        n, pool = POOLS[5]
        mats = pool[:3]
        ann, rows = reference_rows(mats, n)
        terms = len(mats) * len(ann)
        top = max(abs(x) for r in rows for x in r)
        c = isqrt((2**53 - 1) // terms) // top
        assert terms * (c * top) ** 2 < 2**53 <= terms * ((c + 1) * top) ** 2
        return n, mats, c

    @staticmethod
    def scale(mats, c):
        return [[[c * x for x in row] for row in m] for m in mats]

    def test_just_below_the_bound_is_exact(self):
        n, mats, c = self.scaled_case()
        big = self.scale(mats, c)
        _, rows = reference_rows(big, n)
        _, gram = _normalizer_system(big, n)
        assert max(max(row) for row in gram) > 2**49
        assert gram == python_gram(rows, n * n)
        assert normalizer_dim(big, (), n) == normalizer_dim(mats, (), n)

    def test_past_the_bound_raises(self):
        n, mats, c = self.scaled_case()
        big = self.scale(mats, c + 1)
        with pytest.raises(TooLarge):
            _normalizer_system(big, n)
        with pytest.raises(TooLarge):
            normalizer_dim(big, (), n)
        with pytest.raises(TooLarge):
            normalizer_in_gl(CatalogAlgebra(big, [], n, {}))

    def test_int64_overflow_raises(self):
        for entry in (2**61, 2**64):
            with pytest.raises(TooLarge):
                _normalizer_system([[[0, entry], [0, 0]]], 2)


def test_span_not_closed_under_the_bracket_raises():
    """[E12, E21] = H is outside span(E12, I, E21): the system has rank 2,
    above the cap n^2 - dim span = 1, so there is no normalizer dimension
    to return."""
    e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(CapExceeded):
        normalizer_dim([e12, linalg.identity(2), e21], (), 2)


def test_no_operators_and_no_size_is_a_bad_parameter():
    with pytest.raises(BadParameter):
        normalizer_dim([], (), None)


def test_an_operator_of_another_size_is_a_size_mismatch():
    with pytest.raises(MismatchedSize):
        normalizer_dim([linalg.identity(2)], [linalg.identity(3)])
    with pytest.raises(MismatchedSize):
        normalizer_in_gl(make_algebra("sl", 2), [linalg.identity(3)])
