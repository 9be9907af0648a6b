from fractions import Fraction

import numpy as np
import pytest

from lieclass import classifier
from lieclass.algebras import ModuleSpec, make_algebra
from lieclass.classifier import (
    ClassificationDatum,
    bounded_subalgebra_sl,
    classify_flag_datum,
    classify_grassmannian,
    datum_algebra,
    product_flags_spherical,
)
from lieclass.errors import (
    BadParameter,
    MismatchedSize,
    TooLarge,
    UnsupportedShape,
)
from lieclass.oracle import is_spherical_flag
from lieclass.partitions import canonical_flag


class TestDatum:
    def test_ambient_is_total_size(self):
        d = ClassificationDatum((2,), [("sp", 4), ("sl", 3)])
        assert d.ambient == 7
        assert d.flag.dims == (2,)

    def test_unsupported_factor(self):
        with pytest.raises(UnsupportedShape):
            ClassificationDatum((1,), [("e8", 248)])

    def test_bad_sizes(self):
        with pytest.raises(BadParameter):
            ClassificationDatum((1,), [("sp", 3)])
        with pytest.raises(BadParameter):
            ClassificationDatum((1,), [("so", 2), ("sl", 2)])

    @pytest.mark.parametrize(
        "factors, trivial",
        [
            ([("sl", 2.9)], 0),
            ([("sl", 2)], 0.5),
            ([("sp", Fraction(4))], 0),
            ([("so", 3.0)], 1),
        ],
    )
    def test_a_non_integer_size_raises(self, factors, trivial):
        # int() would ask about sl(2) with 0 trivial summands instead
        with pytest.raises(TypeError):
            ClassificationDatum((1,), factors, trivial)

    def test_numpy_integer_sizes_pass(self):
        d = ClassificationDatum(np.array([2]), [("sl", np.int64(3))], np.int32(1))
        assert (d.dims, d.factors, d.trivial, d.ambient) == ((2,), (("sl", 3),), 1, 4)

    def test_one_flag_is_kept(self):
        d = ClassificationDatum((2,), [("sp", 4), ("sl", 3)])
        assert d.flag is d.flag and d.flag.ambient == d.ambient

    def test_negative_trivial_count(self):
        # sl(4) plus -1 trivial summands would claim the ambient C^3
        with pytest.raises(BadParameter):
            ClassificationDatum((2,), [("sl", 4)], trivial=-1)


class TestFlagClassifier:
    def test_mixed_grassmannian_case(self):
        d = ClassificationDatum((2,), [("sp", 4), ("sl", 3)])
        v = classify_flag_datum(d)
        assert v and v.case_id == "I-2-1-1"

    def test_two_step_sp_flag_rejected(self):
        d = ClassificationDatum((2, 4), [("sp", 6)])
        v = classify_flag_datum(d)
        assert not v and v.reason == "absent-from-list"

    def test_all_sl_flags_spherical(self):
        for dims in ((1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 3, 4)):
            d = ClassificationDatum(dims, [("sl", 5)])
            v = classify_flag_datum(d)
            assert v, dims
            if dims not in ((1,), (4,)):
                assert v.case_id in ("I-1", "II-1-1"), dims

    def test_projective_case_uses_module_table(self):
        d = ClassificationDatum((1,), [("so", 5)])
        assert classify_flag_datum(d).case_id == "P(V)"
        # the hyperplane flag is cotangent-equivalent to the line flag
        d2 = ClassificationDatum((4,), [("so", 5)])
        assert classify_flag_datum(d2).case_id == "P(V)"

    def test_cotangent_equivalence_invariance(self):
        # Fl(1,3) and Fl(2,3) in C^4 share the step multiset {1,1,2}
        a = ClassificationDatum((1, 3), [("sp", 4)])
        b = ClassificationDatum((2, 3), [("sp", 4)])
        va, vb = classify_flag_datum(a), classify_flag_datum(b)
        assert va.spherical == vb.spherical

    def test_sp2_canonicalized_to_sl2(self):
        a = ClassificationDatum((2,), [("sp", 2), ("sl", 3)])
        b = ClassificationDatum((2,), [("sl", 2), ("sl", 3)])
        assert classify_flag_datum(a).case_id == classify_flag_datum(b).case_id

    def test_so_factors_spherical_only_on_grassmannians(self):
        for dims in ((1, 2), (1, 3), (2, 3), (1, 2, 3)):
            d = ClassificationDatum(dims, [("so", 5)])
            assert not classify_flag_datum(d), dims

    def test_sp_multi_step_list(self):
        assert classify_flag_datum(
            ClassificationDatum((1, 2, 3), [("sp", 8)])
        ).case_id == "II-1-2"
        assert classify_flag_datum(
            ClassificationDatum((1, 4), [("sp", 8)])
        ).case_id == "II-1-3"
        assert not classify_flag_datum(
            ClassificationDatum((2, 4), [("sp", 8)])
        )


class TestGrassmannianClassifier:
    def test_mixed_sl_sp(self):
        d = ClassificationDatum((3,), [("sl", 2), ("sp", 4)])
        v = classify_grassmannian(3, d)
        assert v and v.case_id == "2-2"

    def test_three_lines(self):
        d = ClassificationDatum((2,), [("sl", 2), ("sl", 1), ("sl", 1)])
        v = classify_grassmannian(2, d)
        assert v and v.case_id == "3-1-1"

    def test_sp6_plus_sl2_middle_grassmannian(self):
        d = ClassificationDatum((4,), [("sp", 6), ("sl", 2)])
        assert not classify_grassmannian(4, d)

    def test_range_checked(self):
        d = ClassificationDatum((1,), [("sl", 6)])
        with pytest.raises(BadParameter):
            classify_grassmannian(4, d)
        assert classify_grassmannian(1, d).case_id == "P(V)"


    @pytest.mark.parametrize("r", [2.5, 2.0, Fraction(2)])
    def test_a_non_integer_r_raises(self, r):
        # 2 <= 2.5 <= 3 passed the range check, and Gr(2.5, C^6) read as case 1
        with pytest.raises(TypeError):
            classify_grassmannian(r, ClassificationDatum((1,), [("sl", 6)]))


class TestGrassmannianTwoAlwaysCovered:
    def test_spherical_flags_imply_spherical_gr2(self):
        # every non-projective spherical datum stays spherical on Gr(2;V)
        data = [
            ClassificationDatum((2,), [("sp", 4), ("sl", 3)]),
            ClassificationDatum((3,), [("sl", 2), ("sp", 4)]),
            ClassificationDatum((1, 2), [("sl", 6)]),
            ClassificationDatum((1, 2, 3), [("sp", 8)]),
            ClassificationDatum((2,), [("sp", 6)], trivial=1),
        ]
        for d in data:
            assert classify_flag_datum(d)
            gr2 = ClassificationDatum((2,), d.factors, d.trivial)
            assert classify_flag_datum(gr2), d


class TestGrassmannianAgreesWithFlags:
    def test_every_datum_to_n8(self):
        """classify_grassmannian(r, d) is the verdict on the one-step flag
        (r,) of d's factors, its case id without the I- prefix; r = 1 is P(V)."""
        from test_acceptance import small_data

        count = 0
        for d in small_data(range(2, 9)):
            if d.dims != (1,):
                continue  # one datum per (factors, trivial)
            for r in range(1, d.ambient // 2 + 1):
                gr = classify_grassmannian(r, d)
                flag = classify_flag_datum(ClassificationDatum((r,), d.factors, d.trivial))
                want = flag.case_id
                if r == 1:
                    assert want == "P(V)" or flag.reason == "P(V) module test failed"
                elif flag.spherical:
                    assert want.startswith("I-")
                    want = want[2:]
                got = (gr.spherical, gr.case_id, gr.reason)
                assert got == (flag.spherical, want, flag.reason), (r, d)
                count += 1
        assert count == 277


class TestProductFlags:
    def test_listed_pairs(self):
        assert product_flags_spherical({2, 3}, (1, 2, 2))
        assert product_flags_spherical((3, 3), (3, 3))
        assert product_flags_spherical((2, 4), (2, 2, 2))
        assert product_flags_spherical((1, 5), (1, 1, 2, 2))

    def test_counterexample_pairs(self):
        assert not product_flags_spherical((1, 1, 3), (1, 1, 3))
        assert not product_flags_spherical((3, 3), (2, 2, 2))

    def test_total_mismatch(self):
        with pytest.raises(MismatchedSize):
            product_flags_spherical((1, 2), (1, 3))

    @pytest.mark.parametrize(
        "steps1, steps2", [((0, 0), (0,)), ((2, 0), (1, 1)), ((3, -1), (2,)), ((), ())]
    )
    def test_steps_below_one_refused(self, steps1, steps2):
        with pytest.raises(BadParameter):
            product_flags_spherical(steps1, steps2)

    @pytest.mark.parametrize(
        "steps1, steps2", [((1, 1, 1), (3,)), ((4,), (4,)), ((1, 2), (3,))]
    )
    def test_one_step_is_not_a_flag(self, steps1, steps2):
        # one step is the point G/G, which FlagType refuses; a verdict on
        # it would be false (G/B x pt is spherical, yet the list says no)
        for a, b in ((steps1, steps2), (steps2, steps1)):
            with pytest.raises(BadParameter):
                product_flags_spherical(a, b)


class TestBoundedSubalgebra:
    def test_sym2_true(self):
        assert bounded_subalgebra_sl(
            [make_algebra("sl", 3)], ModuleSpec([("sym2", 0)])
        )

    def test_doubled_so_false(self):
        assert not bounded_subalgebra_sl(
            [("so", 5)], ModuleSpec([("natural", 0), ("natural", 0)])
        )

    def test_gl_on_natural_true(self):
        assert bounded_subalgebra_sl(
            [make_algebra("gl", 4)], ModuleSpec([("natural", 0)])
        )


def _criterion_1_groups(ns):
    """(factors, trivial) of every criterion-1 datum with n in ns."""
    from test_acceptance import small_data

    return {(d.factors, d.trivial) for d in small_data(ns)}


def _block_reference(d):
    """The group a datum speaks about, placed block by block: gl(s) for
    sl(s), so(s) or sp(s) plus the identity, gl(1) per trivial line.
    Returns n and the sorted bytes of the basis and of the Borel
    matrices."""
    blocks = []
    for tag, size in d.factors:
        k = make_algebra("gl" if tag == "sl" else tag, size)
        extra = [] if tag == "sl" else [np.eye(size, dtype=np.int64)]
        blocks.append((size, list(k.basis) + extra, list(k.borel_basis) + extra))
    one = [np.ones((1, 1), dtype=np.int64)]
    blocks += [(1, one, one)] * d.trivial
    n = sum(size for size, _, _ in blocks)
    basis, borel, lo = [], [], 0
    for size, block_basis, block_borel in blocks:
        for mats, out in ((block_basis, basis), (block_borel, borel)):
            for m in mats:
                big = np.zeros((n, n), dtype=np.int64)
                big[lo : lo + size, lo : lo + size] = m
                out.append(big.tobytes())
        lo += size
    return n, sorted(basis), sorted(borel)


def assert_matches_block_reference(d):
    k = datum_algebra(d)
    got = (
        k.n,
        sorted(m.tobytes() for m in k.basis),
        sorted(m.tobytes() for m in k.borel_basis),
    )
    assert got == _block_reference(d), d
    assert k.check_closed(), d


@pytest.mark.ci
def test_datum_algebra_matches_the_block_reference_n9_n10():
    groups = _criterion_1_groups([9, 10])
    for factors, trivial in groups:
        assert_matches_block_reference(ClassificationDatum((1,), factors, trivial))
    assert len(groups) == 94


class TestDatumAlgebra:
    def test_blocks_and_centers(self):
        d = ClassificationDatum((2,), [("sp", 4), ("sl", 3)])
        k = datum_algebra(d)
        assert k.n == 7
        assert k.dim == (10 + 1) + 9  # sp4 + scalar, gl3
        assert k.check_closed()

    def test_matches_the_block_reference(self):
        groups = _criterion_1_groups(range(2, 9))
        for factors, trivial in groups:
            assert_matches_block_reference(ClassificationDatum((1,), factors, trivial))
        assert len(groups) == 92

    def test_four_sl32_factors_are_too_large(self):
        with pytest.raises(TooLarge):
            datum_algebra(ClassificationDatum((1,), [("sl", 32)] * 4))

    def test_matches_oracle_on_examples(self):
        spherical = ClassificationDatum((2,), [("sp", 4), ("sl", 3)])
        not_spherical = ClassificationDatum((2, 4), [("sp", 6)])
        assert is_spherical_flag(
            datum_algebra(spherical), spherical.flag, seed=17
        )
        assert not is_spherical_flag(
            datum_algebra(not_spherical), not_spherical.flag, seed=17
        )


class TestCanonicalFlag:
    def test_normal_form(self):
        flag = canonical_flag((2, 1, 1), 4)
        assert flag.ambient == 4
        assert flag.dims == (1, 2)


def _projective_data():
    """The criterion-1 data with n <= 8 whose flag is P(V) or P(V*)."""
    from test_acceptance import small_data

    for d in small_data(range(2, 9)):
        if d.dims in ((1,), (d.ambient - 1,)):
            yield d


class TestProjectiveTableQuestion:
    """P(V) and P(V*) ask the module table one question, answered once per
    (factors, trivial) and handed out in a fresh verdict each time."""

    def test_line_and_hyperplane_ask_once(self, monkeypatch):
        from lieclass import sphericaltable

        asked, table = [], sphericaltable.is_spherical_module_by_table

        def spy(*args, **kwargs):
            asked.append(args)
            return table(*args, **kwargs)

        monkeypatch.setattr(sphericaltable, "is_spherical_module_by_table", spy)
        classifier._projective_spherical.cache_clear()
        factors = [("sp", 4), ("sl", 3)]
        line = classify_flag_datum(ClassificationDatum((1,), factors, 1))
        hyper = classify_flag_datum(ClassificationDatum((7,), factors, 1))
        gr1 = classify_grassmannian(1, ClassificationDatum((1,), factors, 1))
        assert len(asked) == 1
        assert {(v.spherical, v.case_id, v.reason) for v in (line, hyper, gr1)} == {
            (line.spherical, line.case_id, line.reason)
        }

    def test_cold_and_warm_answers_agree(self):
        seen = 0
        for d in _projective_data():
            warm = classify_flag_datum(d)
            classifier._projective_spherical.cache_clear()
            cold = classify_flag_datum(d)
            assert (warm.spherical, warm.case_id, warm.reason) == (
                cold.spherical,
                cold.case_id,
                cold.reason,
            ), d
            seen += 1
        assert seen > 100

    @pytest.mark.parametrize(
        "factors,trivial", [([("so", 5)], 0), ([("sp", 4), ("sl", 3)], 1)]
    )
    def test_changing_a_verdict_leaves_the_next_alone(self, factors, trivial):
        d = ClassificationDatum((1,), factors, trivial)
        first = classify_flag_datum(d)
        want = (first.spherical, first.case_id, first.reason)
        first.spherical, first.case_id, first.reason = False, None, "changed"
        again = classify_flag_datum(d)
        assert again is not first
        assert (again.spherical, again.case_id, again.reason) == want
