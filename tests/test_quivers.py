from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieclass.cyclotomic import CyclotomicField
from lieclass.errors import BadParameter, ShapeMismatch, TooLarge
from lieclass.linalg import Echelon
from lieclass.quivers import (
    QuiverRep,
    QuiverSpec,
    _absorb,
    check_relations,
    count_P,
    enumerate_simples,
    is_simple,
    monodromy_operators,
    monodromy_scalar,
    witness,
)
from lieclass.tuples import MonodromyClass


def scalar_rep(kind, n, lam_minus_1, field=None):
    """All-ones dims with q=1 and constant p, the full-support shape."""
    spec = QuiverSpec(kind, n)
    p = [[[lam_minus_1]] for _ in range(n)]
    q = [[[1]] for _ in range(n)]
    return QuiverRep(spec, [1] * (n + 1), p, q, field=field)


class TestSpec:
    def test_validation(self):
        with pytest.raises(BadParameter):
            QuiverSpec("C", 2)
        with pytest.raises(BadParameter):
            QuiverSpec("A", 0)

    def test_size_cap(self):
        assert QuiverSpec("B", 1000).n == 1000
        with pytest.raises(TooLarge):
            QuiverSpec("B", 1001)

    def test_equality(self):
        assert QuiverSpec("A", 2) == QuiverSpec("A", 2)
        assert QuiverSpec("A", 2) != QuiverSpec("B", 2)


class TestCheckRelations:
    def test_last_vertex_point_rep(self):
        spec = QuiverSpec("A", 3)
        r = QuiverRep(spec, [0, 0, 0, 1], [None] * 3, [None] * 3)
        assert check_relations(r)
        assert is_simple(r)

    def test_scalar_family_kind_a(self):
        r = scalar_rep("A", 2, 2)  # qp = 2, so xi = nu = 3 everywhere
        assert check_relations(r)
        assert is_simple(r)

    def test_singular_xi_rejected(self):
        r = scalar_rep("A", 2, -1)  # qp = -1 makes xi = 0
        assert not check_relations(r)

    def test_lambda_one_fails_simplicity_check_path(self):
        # qp = 0 gives xi = nu = 1; relations hold but the rep decomposes
        r = scalar_rep("A", 2, 0)
        assert check_relations(r)
        assert not is_simple(r)

    def test_kind_b_needs_sign_alternation(self):
        good = QuiverRep(
            QuiverSpec("B", 2),
            [1, 1, 1],
            [[[1]], [[-3]]],  # p_i = (-1)^i * 2 - 1
            [[[1]], [[1]]],
        )
        assert check_relations(good)
        bad = QuiverRep(
            QuiverSpec("B", 2), [1, 1, 1], [[[1]], [[1]]], [[[1]], [[1]]]
        )
        assert not check_relations(bad)

    def test_singular_2x2_xi_rejected(self):
        spec = QuiverSpec("A", 1)
        ident = [[1, 0], [0, 1]]
        # qp = [[0, 1], [1, 0]]: xi = [[1, 1], [1, 1]] over Q
        r = QuiverRep(spec, [2, 2], [ident], [[[0, 1], [1, 0]]])
        assert not check_relations(r)
        # xi = [[1, i], [i, -1]] over Q(i): its rows are independent over Q
        # but the second is i times the first
        f = CyclotomicField(4)
        i = f.zeta()
        r = QuiverRep(spec, [2, 2], [ident], [[[0, i], [i, -2]]], field=f)
        assert not check_relations(r)

    def test_shape_mismatch(self):
        spec = QuiverSpec("A", 1)
        with pytest.raises(ShapeMismatch):
            QuiverRep(spec, [1, 1], [[[1, 2]]], [[[1]]])


class TestIsSimple:
    def test_vertex_witnesses(self):
        for kind in ("A", "B"):
            for d in enumerate_simples(QuiverSpec(kind, 3)):
                if d.variant[0] == "full":
                    continue
                r = witness(d)
                assert check_relations(r)
                assert is_simple(r), d

    def test_direct_sum_of_vertex_simples_not_simple(self):
        spec = QuiverSpec("A", 2)
        r = QuiverRep(spec, [1, 0, 1], [None] * 2, [None] * 2)
        assert check_relations(r)
        assert not is_simple(r)

    def test_too_large(self):
        spec = QuiverSpec("A", 1)
        d = 7
        ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        r = QuiverRep(spec, [d, d], [ident], [ident])
        with pytest.raises(TooLarge):
            is_simple(r)


class TestNonThin:
    """is_simple on reps with a vertex of dimension 2: spin, then Burnside."""

    ident = [[1, 0], [0, 1]]

    @pytest.mark.parametrize("m", [1, 3])
    def test_diagonal_loop_splits(self, m):
        r = QuiverRep(
            QuiverSpec("A", 1), [2, 2], [self.ident], [[[2, 0], [0, 3]]],
            field=CyclotomicField(m),
        )
        assert check_relations(r)
        assert not is_simple(r)

    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_rotation_loop_is_undecided(self, m):
        # every block of the generated algebra is a polynomial in the
        # rotation: 8 dimensions, not the 16 of End_K(V), so Burnside
        # cannot certify; and no basis vector spins a proper
        # subrepresentation, though over Q(zeta_4) the rep splits
        r = QuiverRep(
            QuiverSpec("A", 1), [2, 2], [self.ident], [[[0, -1], [1, 0]]],
            field=CyclotomicField(m),
        )
        assert check_relations(r)
        with pytest.raises(TooLarge):
            is_simple(r)

    @pytest.mark.parametrize("m", [1, 3])
    def test_dims_1_2_1_simple(self, m):
        r = QuiverRep(
            QuiverSpec("A", 2),
            [1, 2, 1],
            [[[0, 1]], [[0], [1]]],
            [[[1], [0]], [[1, 0]]],
            field=CyclotomicField(m),
        )
        assert is_simple(r)


def _k_rank(rows):
    """Rank over K by Gauss elimination without division: a row is replaced
    by pivot * row - entry * pivot row, which keeps the rank since the pivot
    is a nonzero field element."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [prow[c] * x - f * y for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


@st.composite
def k_matrices(draw):
    """Small matrices over Q(zeta_m); square ones sometimes, and sometimes
    a last row that is a K-combination of the others."""
    field = CyclotomicField(draw(st.sampled_from([1, 3, 4, 5, 8, 12])))
    ncols = draw(st.integers(1, 4))
    nrows = ncols if draw(st.booleans()) else draw(st.integers(1, 4))

    def elem():
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        return field.element(coeffs) * field.zeta(draw(st.integers(0, 11)))

    rows = [[elem() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        coefs = [elem() for _ in range(nrows - 1)]
        rows[-1] = [
            sum((c * row[j] for c, row in zip(coefs, rows)), field.zero())
            for j in range(ncols)
        ]
    return field, rows


class TestAbsorb:
    @settings(max_examples=80)
    @given(k_matrices())
    def test_matches_division_free_gauss(self, case):
        field, rows = case
        ech = Echelon()
        for i, row in enumerate(rows):
            grew = _k_rank(rows[: i + 1]) > (_k_rank(rows[:i]) if i else 0)
            assert _absorb(ech, row) == grew
        assert len(ech) == field.degree * _k_rank(rows)


class TestEnumerate:
    def test_kind_a_unfiltered(self):
        out = enumerate_simples(QuiverSpec("A", 2))
        variants = [d.variant for d in out]
        assert variants.count(("full",)) == 1
        assert [v for v in variants if v[0] == "vertex"] == [
            ("vertex", 0), ("vertex", 1), ("vertex", 2)
        ]

    def test_kind_b_inner_vertex_spectra(self):
        out = enumerate_simples(QuiverSpec("B", 3))
        inner = [d for d in out
                 if d.variant[0] == "vertex" and d.spectrum == ("1", "1")]
        assert sorted(d.variant[1] for d in inner) == [1, 2]

    def test_kind_b_n1_has_no_inner_vertices(self):
        out = enumerate_simples(QuiverSpec("B", 1))
        assert not [d for d in out
                    if d.variant[0] == "vertex" and d.spectrum == ("1", "1")]

    def test_generic_filter_is_finite(self):
        out = enumerate_simples(
            QuiverSpec("A", 3), monodromy_filter=MonodromyClass.generic()
        )
        assert len(out) == 3
        assert all(d.variant == ("full",) for d in out)

    def test_residue_filter_matches(self):
        c = MonodromyClass(Fraction(1, 3))
        for d in enumerate_simples(QuiverSpec("A", 2), monodromy_filter=c):
            assert d.monodromy == c


class TestMonodromy:
    def test_operators_agree_on_witnesses(self):
        for kind in ("A", "B"):
            for n in (1, 2, 3):
                for d in enumerate_simples(QuiverSpec(kind, n)):
                    if d.eigenvalue is not None and d.eigenvalue.is_generic:
                        continue
                    r = witness(d)
                    assert len(monodromy_operators(r)) == len(r.support)
                    monodromy_scalar(r)  # raises unless scalar and equal

    def test_scalar_matches_descriptor_residue(self):
        c = MonodromyClass(Fraction(1, 3))
        for d in enumerate_simples(QuiverSpec("A", 2), monodromy_filter=c):
            r = witness(d)
            s = monodromy_scalar(r)
            field = r.field
            expected = field.zeta(int(c.residue * field.m) % field.m)
            assert s == expected

    def test_vertex_monodromy_is_sign(self):
        for n in (1, 2, 3, 4):
            for d in enumerate_simples(QuiverSpec("B", n)):
                if d.variant[0] != "vertex":
                    continue
                assert d.monodromy.residue in (Fraction(0), Fraction(1, 2))

    def test_zero_rep_rejected(self):
        spec = QuiverSpec("A", 1)
        r = QuiverRep(spec, [0, 0], [None], [None])
        with pytest.raises(BadParameter):
            monodromy_scalar(r)


class TestCountP:
    def test_kind_a_examples(self):
        assert count_P(QuiverSpec("A", 2), MonodromyClass(Fraction(1, 3))) == 2
        assert count_P(QuiverSpec("A", 2), MonodromyClass(0)) == 2

    def test_kind_b_n1_zero_spectrum_one_one(self):
        # no inner vertices for n=1: only the two endpoint verticess and
        # full-support solutions can appear, endpoints are excluded
        c = MonodromyClass(0)
        out = enumerate_simples(QuiverSpec("B", 1), monodromy_filter=c)
        inner = [d for d in out if d.variant[0] == "vertex"
                 and d.support not in ({0}, {1})]
        assert not [d for d in inner if d.spectrum == ("1", "1")]

    def test_generic_count(self):
        g = MonodromyClass.generic()
        assert count_P(QuiverSpec("A", 3), g) == 3
        assert count_P(QuiverSpec("B", 4), g) == 4

    def test_excludes_endpoint_supports(self):
        c = MonodromyClass(0)
        for d in enumerate_simples(QuiverSpec("A", 2), monodromy_filter=c):
            if d.support in (frozenset({0}), frozenset({2})):
                assert d.variant[0] == "vertex"
        assert count_P(QuiverSpec("A", 2), c) == len(
            [
                d
                for d in enumerate_simples(QuiverSpec("A", 2), c)
                if d.support not in (frozenset({0}), frozenset({2}))
            ]
        )


class TestGenericWitness:
    def test_generic_eigenvalue_has_no_witness(self):
        d = [x for x in enumerate_simples(QuiverSpec("A", 2))
             if x.variant == ("full",)][0]
        with pytest.raises(BadParameter):
            witness(d)
