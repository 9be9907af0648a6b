import itertools
import random
from math import factorial

import pytest

from lieclass.errors import BadParameter, RelationViolation, TooLarge
from lieclass.partitions import partitions_of
from lieclass.snmod import (
    GroupAlgebraElement,
    SnRep,
    class_representative,
    conjugacy_classes,
    decompose,
    dim_partition,
    direct_sum_rep,
    lsn_check,
    mn_character,
    permutation_rep,
    pf_generators_span,
    pf_ring_multiply,
    regular_rep,
    sign_rep,
    standard_rep,
    tensor_sign,
    trivial_rep,
)


class TestCharacters:
    def test_hook_dimensions(self):
        assert dim_partition((4,)) == 1
        assert dim_partition((1, 1, 1, 1)) == 1
        assert dim_partition((3, 1)) == 3
        assert dim_partition((2, 2)) == 2
        assert dim_partition((2, 1, 1)) == 3

    def test_sign_character(self):
        # chi_(1^n)(cycle type) is the sign of the class
        for ct, _ in conjugacy_classes(5):
            parity = sum(c - 1 for c in ct) % 2
            assert mn_character((1,) * 5, ct) == (-1) ** parity

    def test_orthogonality_small_n(self):
        for n in range(1, 7):
            classes = conjugacy_classes(n)
            order = factorial(n)
            shapes = partitions_of(n)
            for a in shapes:
                for b in shapes:
                    acc = sum(
                        size * mn_character(a, ct) * mn_character(b, ct)
                        for ct, size in classes
                    )
                    assert acc == (order if a == b else 0), (a, b)

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 8):
            assert sum(size for _, size in conjugacy_classes(n)) == factorial(n)

    def test_partitions_count(self):
        assert len(partitions_of(8)) == 22

    def test_class_representative_type(self):
        rep = class_representative((3, 2))
        seen = []
        left = set(range(5))
        while left:
            start = min(left)
            cur, length = start, 0
            while True:
                left.discard(cur)
                length += 1
                cur = rep[cur]
                if cur == start:
                    break
            seen.append(length)
        assert sorted(seen, reverse=True) == [3, 2]


class TestSnRep:
    def test_relations_checked(self):
        with pytest.raises(RelationViolation):
            SnRep(3, [[[1]], [[2]]])
        with pytest.raises(RelationViolation):
            SnRep(4, [[[1]], [[1]]])

    def test_matrix_is_permutation_matrix(self):
        r = permutation_rep(4)
        for perm in itertools.permutations(range(4)):
            m = r.matrix(perm)
            for i in range(4):
                assert m[perm[i]][i] == 1
                assert sum(m[j][i] for j in range(4)) == 1

    def test_matrix_is_multiplicative(self):
        r = standard_rep(4)
        p = (1, 2, 0, 3)
        q = (0, 3, 1, 2)
        pq = tuple(p[q[i]] for i in range(4))
        from lieclass import linalg

        assert linalg.matmul(r.matrix(p), r.matrix(q)) == r.matrix(pq)

    def test_characters_of_named_reps(self):
        assert trivial_rep(5).character((3, 2)) == 1
        assert sign_rep(5).character((2, 1, 1, 1)) == -1
        # permutation character counts fixed points
        assert permutation_rep(5).character((3, 1, 1)) == 2


class TestDecompose:
    def test_permutation_module(self):
        assert decompose(permutation_rep(3)) == {(3,): 1, (2, 1): 1}

    def test_regular_module(self):
        assert decompose(regular_rep(3)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}

    def test_standard_module_irreducible(self):
        assert decompose(standard_rep(4)) == {(3, 1): 1}

    def test_tensor_sign_transposes(self):
        dec = decompose(tensor_sign(standard_rep(4)))
        assert dec == {(2, 1, 1): 1}

    def test_direct_sum(self):
        r = direct_sum_rep(trivial_rep(4), standard_rep(4))
        assert decompose(r) == {(4,): 1, (3, 1): 1}

    def test_cap(self):
        with pytest.raises(TooLarge):
            decompose(trivial_rep(9))

    def test_mismatched_sum(self):
        with pytest.raises(BadParameter):
            direct_sum_rep(trivial_rep(3), trivial_rep(4))


class TestLsn:
    def test_permutation_module_concludes(self):
        res = lsn_check(permutation_rep(4))
        assert res.kind == "Conclusion"
        assert res.decomposition == {(4,): 1, (3, 1): 1}

    def test_sign_module_fails_hypothesis(self):
        assert lsn_check(sign_rep(4)).kind == "HypothesisFails"

    def test_regular_module_fails_hypothesis(self):
        assert lsn_check(regular_rep(4)).kind == "HypothesisFails"

    def test_trivial_module_concludes(self):
        res = lsn_check(trivial_rep(5))
        assert res.kind == "Conclusion"
        assert res.decomposition == {(5,): 1}


class TestGroupAlgebra:
    def test_generator_identity(self):
        # (s_i + 1)^2 = 2 (s_i + 1)
        g = GroupAlgebraElement.transposition_plus_one(4, 2)
        assert pf_ring_multiply(g, g) == g.scale(2)

    def test_unit(self):
        e = GroupAlgebraElement.unit(4)
        g = GroupAlgebraElement.transposition_plus_one(4, 1)
        assert pf_ring_multiply(e, g) == g
        assert pf_ring_multiply(g, e) == g

    def test_generators_span_group_algebra(self):
        assert pf_generators_span(3)
        assert pf_generators_span(4)

    def test_span_multiplication_counts(self, monkeypatch):
        """Every accepted product joins the frontier, so the number of
        products formed before the span reaches n! pins the sequence of
        accept/reject decisions of the incremental elimination.  Each
        product is absorbed once, after the unit: products = absorbs - 1."""
        from lieclass import linalg

        calls = []
        absorb = linalg.Echelon.absorb

        def counting(self, row):
            calls.append(None)
            return absorb(self, row)

        monkeypatch.setattr(linalg.Echelon, "absorb", counting)
        for n, count in ((2, 1), (3, 10), (4, 69), (5, 476)):
            calls.clear()
            assert pf_generators_span(n)
            assert len(calls) - 1 == count, n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_index_map_product_is_the_ring_product(self, n):
        """e (s_i + 1) by the index map equals pf_ring_multiply on random
        elements of Z[S_n]."""
        from lieclass.snmod import _plus_one_maps, _times_plus_one

        rng = random.Random(n)
        perms, maps = _plus_one_maps(n)
        assert perms[0] == tuple(range(n))
        for _ in range(20):
            e = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in perms]
            elem = GroupAlgebraElement(n, dict(zip(perms, e)))
            for i, m in enumerate(maps, start=1):
                g = GroupAlgebraElement.transposition_plus_one(n, i)
                prod = pf_ring_multiply(elem, g)
                assert _times_plus_one(e, m) == [prod.coeffs.get(p, 0) for p in perms]

    def test_negative_n_is_a_bad_parameter(self):
        for n in (-1, -5):
            with pytest.raises(BadParameter):
                pf_generators_span(n)
        assert pf_generators_span(0) and pf_generators_span(1)

    def test_span_cap(self):
        with pytest.raises(TooLarge):
            pf_generators_span(6)
