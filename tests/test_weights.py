from fractions import Fraction

import pytest

from lieclass.errors import BadParameter, MismatchedSize, TooLarge
from lieclass.weights import (
    WeightOrderContext,
    correctly_ordered,
    is_dominant,
    weight_leq,
    weights_equivalent,
    weyl_stabilizer,
)


class TestContext:
    def test_rank_bound(self):
        with pytest.raises(TooLarge):
            WeightOrderContext("A", 9)
        assert WeightOrderContext("C", 8).n == 8

    def test_unknown_type_tag_is_a_bad_parameter(self):
        with pytest.raises(BadParameter):
            WeightOrderContext("B", 3)

    def test_root_counts(self):
        assert len(WeightOrderContext("A", 4).positive_roots()) == 6
        assert len(WeightOrderContext("C", 3).positive_roots()) == 9

    def test_weight_length_checked(self):
        ctx = WeightOrderContext("A", 3)
        with pytest.raises(MismatchedSize):
            weight_leq((1, 2), (2, 1), ctx)


class TestWeightLeq:
    def test_single_reflection_move(self):
        ctx = WeightOrderContext("A", 3)
        # (1,2,0) pairs to 1 on e2-e3... moving down from (2,1,0)
        assert weight_leq((1, 2, 0), (2, 1, 0), ctx)
        assert not weight_leq((2, 1, 0), (1, 2, 0), ctx)

    def test_reflexive(self):
        ctx = WeightOrderContext("A", 4)
        assert weight_leq((3, 1, 4, 1), (3, 1, 4, 1), ctx)

    def test_non_integral_pairing_blocks_moves(self):
        ctx = WeightOrderContext("A", 2)
        assert not weight_leq(
            (Fraction(1, 2), 0), (0, Fraction(1, 2)), ctx
        )

    def test_type_c_sign_moves(self):
        ctx = WeightOrderContext("C", 2)
        # the long root at coordinate 0 flips a positive integer entry
        assert weight_leq((-2, 1), (2, 1), ctx)
        assert not weight_leq((2, 1), (-2, 1), ctx)

    def test_antisymmetry_on_samples(self):
        ctx = WeightOrderContext("A", 3)
        pts = [(2, 1, 0), (1, 2, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0)]
        for a in pts:
            for b in pts:
                if a != b and weight_leq(a, b, ctx) and weight_leq(b, a, ctx):
                    raise AssertionError((a, b))


class TestDominance:
    def test_type_a(self):
        ctx = WeightOrderContext("A", 3)
        assert is_dominant((3, 2, 1), ctx)
        assert not is_dominant((1, 2, 3), ctx)
        # non-integral pairings never block dominance
        assert is_dominant((0, Fraction(1, 2), 0), ctx)

    def test_type_c(self):
        ctx = WeightOrderContext("C", 2)
        assert is_dominant((2, 1), ctx)
        assert not is_dominant((-1, 2), ctx)

    def test_dominant_is_maximal(self):
        ctx = WeightOrderContext("A", 3)
        psi = (2, 1, 0)
        others = [(1, 2, 0), (0, 2, 1), (0, 1, 2), (2, 0, 1), (1, 0, 2)]
        for phi in others:
            assert weight_leq(phi, psi, ctx)
            assert not weight_leq(psi, phi, ctx)


class TestStabilizer:
    def test_regular_weight_trivial(self):
        ctx = WeightOrderContext("A", 4)
        assert weyl_stabilizer((4, 2, 1, 0), ctx).order == 1

    def test_repeated_coordinates(self):
        ctx = WeightOrderContext("A", 4)
        # two equal pairs: stabilizer S2 x S2
        assert weyl_stabilizer((1, 1, 0, 0), ctx).order == 4

    def test_type_c_zero_coordinate(self):
        ctx = WeightOrderContext("C", 2)
        # psi = (1, 0): the short root flip at coordinate 1 fixes psi
        assert weyl_stabilizer((1, 0), ctx).order == 2

    def test_apply_fixes_weight(self):
        ctx = WeightOrderContext("C", 3)
        psi = (2, 1, 0)
        stab = weyl_stabilizer(psi, ctx)
        psi_f = tuple(Fraction(x) for x in psi)
        for e in stab.elements:
            assert stab.apply(e, psi_f) == psi_f


class TestEquivalence:
    def test_integral_shift(self):
        ctx = WeightOrderContext("A", 3)
        assert weights_equivalent((2, 1, 0), (3, 2, 1), ctx)

    def test_different_stabilizers(self):
        ctx = WeightOrderContext("A", 3)
        assert not weights_equivalent((1, 1, 0), (2, 1, 0), ctx)

    def test_non_integral_difference(self):
        ctx = WeightOrderContext("A", 2)
        assert not weights_equivalent((Fraction(1, 2), 0), (1, 0), ctx)


class TestCorrectlyOrdered:
    def test_regular_dominant(self):
        ctx = WeightOrderContext("A", 3)
        assert correctly_ordered((2, 1, 0), (2, 1, 0), ctx)
        assert correctly_ordered((2, 1, 0), (0, 1, 2), ctx)

    def test_requires_dominant(self):
        ctx = WeightOrderContext("A", 3)
        assert not correctly_ordered((0, 1, 2), (0, 1, 2), ctx)

    def test_stabilizer_condition(self):
        ctx = WeightOrderContext("A", 3)
        # phi has stabilizer swapping slots 0,1; psi must sit below its swap
        assert correctly_ordered((1, 1, 0), (2, 3, 0), ctx)
        assert not correctly_ordered((1, 1, 0), (3, 2, 0), ctx)
