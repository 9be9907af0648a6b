import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lieclass.errors import MismatchedSize
from lieclass.partitions import (
    FlagOrderRelation,
    FlagType,
    Partition,
    canonical_flag,
    cotangent_equivalent,
    dominance_leq,
    flag_order,
    orbit_dim,
    richardson_partition,
    step_partition,
)


def partitions_of(n, maxp=None):
    maxp = n if maxp is None else maxp
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in partitions_of(n - p, p):
            yield (p,) + rest


def all_flags(n):
    for length in range(1, n):
        for dims in itertools.combinations(range(1, n), length):
            yield FlagType(dims, n)


partition_strategy = st.integers(1, 9).flatmap(
    lambda n: st.sampled_from(sorted(partitions_of(n)))
)


class TestPartition:
    def test_conjugate_involution(self):
        for n in range(1, 9):
            for p in partitions_of(n):
                part = Partition(p)
                assert part.conjugate().conjugate() == part

    def test_step_and_richardson(self):
        f = FlagType((1, 3), 6)
        assert step_partition(f) == Partition((3, 2, 1))
        assert richardson_partition(f) == Partition((3, 2, 1))
        g = FlagType((2,), 6)
        assert step_partition(g) == Partition((4, 2))
        assert richardson_partition(g) == Partition((2, 2, 1, 1))

    def test_bad_dims(self):
        with pytest.raises(Exception):
            FlagType((3, 2), 6)
        with pytest.raises(Exception):
            FlagType((0, 2), 6)
        with pytest.raises(Exception):
            FlagType((2, 6), 6)

    def test_steps_and_dim(self):
        # the ordered steps are the differences of (0, dims, n), and dim is
        # the sum of n_i (n_{i+1} - n_i), the count of the chart entries
        for n in range(2, 8):
            for f in all_flags(n):
                ext = (0,) + f.dims + (n,)
                diffs = tuple(b - a for a, b in zip(ext, ext[1:]))
                assert f.steps == diffs
                assert step_partition(f).parts == tuple(sorted(diffs, reverse=True))
                assert f.dim() == sum(
                    ext[i] * (ext[i + 1] - ext[i]) for i in range(1, len(ext) - 1)
                )

    @pytest.mark.parametrize("bad", [2.7, Fraction(5, 2), 2.0, "2"])
    def test_a_non_integer_part_raises(self, bad):
        with pytest.raises(TypeError):
            Partition((bad, 1))

    def test_numpy_integer_parts_pass(self):
        p = Partition((np.int64(2), np.int32(1)))
        assert p.parts == (2, 1) and all(type(x) is int for x in p.parts)


class TestFlagTypeSizes:
    @pytest.mark.parametrize(
        "dims, ambient",
        [((1.5,), 3), ((1,), 3.9), ((Fraction(1),), 3), ((1,), 3.0), (("1",), 3)],
    )
    def test_a_non_integer_size_raises(self, dims, ambient):
        with pytest.raises(TypeError):
            FlagType(dims, ambient)

    def test_numpy_integers_pass(self):
        f = FlagType(np.array([1, 3]), np.int64(5))
        assert f == FlagType((1, 3), 5) and f.steps == (1, 2, 2)
        assert all(type(x) is int for x in f.dims + f.steps + (f.ambient,))

    @pytest.mark.parametrize("steps", [(1.5, 2), (Fraction(1), 2), (1.0, 2)])
    def test_canonical_flag_refuses_a_non_integer_step(self, steps):
        with pytest.raises(TypeError):
            canonical_flag(steps)

    def test_canonical_flag_takes_numpy_steps(self):
        assert canonical_flag(np.array([2, 1, 1])) == FlagType((1, 2), 4)


class TestDominance:
    def test_known_chain(self):
        assert dominance_leq(Partition((1, 1, 1, 1)), Partition((2, 1, 1)))
        assert dominance_leq(Partition((2, 1, 1)), Partition((2, 2)))
        assert dominance_leq(Partition((2, 2)), Partition((3, 1)))
        assert not dominance_leq(Partition((3, 1)), Partition((2, 2)))

    def test_incomparable(self):
        a, b = Partition((3, 1, 1, 1)), Partition((2, 2, 2))
        assert not dominance_leq(a, b)
        assert not dominance_leq(b, a)

    def test_size_mismatch(self):
        with pytest.raises(MismatchedSize):
            dominance_leq(Partition((2,)), Partition((2, 1)))

    @given(partition_strategy)
    def test_reflexive(self, p):
        assert dominance_leq(Partition(p), Partition(p))

    @given(partition_strategy, partition_strategy)
    def test_antisymmetric(self, p, q):
        a, b = Partition(p), Partition(q)
        if a.n != b.n:
            return
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b


class TestOrbitDim:
    def test_examples(self):
        assert orbit_dim(Partition((2, 2))) == 8
        for n in range(2, 9):
            assert orbit_dim(Partition((2,) + (1,) * (n - 2))) == 2 * (n - 1)
            assert orbit_dim(Partition((1,) * n)) == 0
            assert orbit_dim(Partition((n,))) == n * n - n

    def test_monotone_small(self):
        for n in range(1, 8):
            parts = [Partition(p) for p in partitions_of(n)]
            for p, q in itertools.product(parts, parts):
                if dominance_leq(p, q):
                    assert orbit_dim(p) <= orbit_dim(q)


class TestFlagOrder:
    def test_projective_space_is_minimal(self):
        # fact (1): everything is higher than or equivalent to P(V)
        for n in range(2, 9):
            pv = FlagType((1,), n)
            for f in all_flags(n):
                assert flag_order(f, pv) in (
                    FlagOrderRelation.Higher,
                    FlagOrderRelation.CotangentEquivalent,
                )

    def test_grassmannian_chain(self):
        # fact (2): Gr(r1) higher than Gr(r2) when r1 > r2, r's up to n/2
        for n in range(4, 9):
            for r2 in range(1, n // 2 + 1):
                for r1 in range(r2 + 1, n // 2 + 1):
                    rel = flag_order(FlagType((r1,), n), FlagType((r2,), n))
                    assert rel == FlagOrderRelation.Higher

    def test_cotangent_equivalence_properties(self):
        for n in range(2, 7):
            flags = list(all_flags(n))
            for f1, f2 in itertools.product(flags, flags):
                eq = cotangent_equivalent(f1, f2)
                assert eq == cotangent_equivalent(f2, f1)
                if eq:
                    assert flag_order(f1, f2) == (
                        FlagOrderRelation.CotangentEquivalent
                    )

    def test_canonical_flag(self):
        f = canonical_flag((1, 1, 3))
        assert f.dims == (1, 2) and f.ambient == 5
        assert cotangent_equivalent(f, FlagType((1, 4), 5))
        with pytest.raises(MismatchedSize):
            canonical_flag((1, 2), ambient=5)
