import numpy as np
import pytest

from lieclass import linalg
from lieclass.algebras import ModuleSpec, make_algebra
from lieclass.classifier import datum_algebra
from lieclass.errors import BadSampleCount, DimensionMismatch, TooLarge
from lieclass.oracle import (
    COEFF_BOX,
    FlagPoint,
    OracleVerdict,
    _constraint_rows,
    _flag_residues,
    _gl_borel,
    _unit_lower,
    borel_orbit_dim_at,
    complexity_flag,
    is_spherical_flag,
    is_spherical_module,
    levi_borel,
    levi_flag_complexity,
    product_flag_complexity,
    sample_flag_point,
)
from lieclass.partitions import FlagType
from lieclass.rank import reduce_mod


class TestFlagPoint:
    def test_sampled_point_is_unimodular(self):
        rng = np.random.default_rng(5)
        x = sample_flag_point(FlagType((1, 3), 5), rng, box=50)
        assert linalg.matmul(x.g, x.g_inv) == linalg.identity(5)
        assert all(isinstance(e, int) for row in x.g for e in row)
        assert all(isinstance(e, int) for row in x.g_inv for e in row)

    def test_inverse_required(self):
        with pytest.raises(DimensionMismatch):
            FlagPoint(3, (1,), linalg.identity(3))

    def test_standard_point(self):
        x = FlagPoint.standard(FlagType((2,), 4))
        assert x.g == linalg.identity(4)


class TestOrbitDim:
    def test_standard_flag_has_zero_borel_motion(self):
        # a gl Borel fixes the standard flag, so its orbit is a point
        k = make_algebra("gl", 4)
        x = FlagPoint.standard(FlagType((1, 2), 4))
        assert borel_orbit_dim_at(k, x) == 0

    def test_generic_point_gives_full_dim(self):
        k = make_algebra("gl", 4)
        flag = FlagType((2,), 4)
        rng = np.random.default_rng(1)
        x = sample_flag_point(flag, rng, box=100)
        assert borel_orbit_dim_at(k, x) == flag.dim()

    def test_size_mismatch(self):
        k = make_algebra("gl", 3)
        with pytest.raises(DimensionMismatch):
            borel_orbit_dim_at(k, FlagPoint.standard(FlagType((1,), 4)))


class TestFlagOracle:
    def test_projective_space_spherical_for_so(self):
        k = make_algebra("so", 5)
        v = is_spherical_flag(k, FlagType((1,), 5), seed=2)
        assert v.kind == "Yes"
        assert v.certificate is not None

    def test_full_flag_not_spherical_for_so(self):
        k = make_algebra("so", 5)
        v = is_spherical_flag(k, FlagType((1, 2, 3, 4), 5), seed=2)
        assert v.kind == "ProbablyNo"
        assert v.complexity > 0

    def test_every_flag_spherical_for_sp4(self):
        k = make_algebra("sp", 4)
        for dims in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)):
            assert is_spherical_flag(k, FlagType(dims, 4), seed=7)

    def test_sample_count_validated(self):
        k = make_algebra("sp", 4)
        with pytest.raises(BadSampleCount):
            is_spherical_flag(k, FlagType((1,), 4), samples=0)

    def test_ambient_mismatch(self):
        k = make_algebra("sp", 4)
        with pytest.raises(DimensionMismatch):
            is_spherical_flag(k, FlagType((1,), 6))

    def test_complexity_matches_verdict(self):
        k = make_algebra("so", 6)
        flag = FlagType((1, 2), 6)
        v = is_spherical_flag(k, flag, seed=4)
        assert complexity_flag(k, flag, seed=4) == v.target - v.rank


class TestReproducibility:
    def test_probably_no_replays_identically(self):
        k = make_algebra("so", 5)
        flag = FlagType((1, 2), 5)
        first = is_spherical_flag(k, flag, samples=4, seed=123)
        second = is_spherical_flag(k, flag, samples=first.samples,
                                   seed=first.seed)
        assert first.kind == second.kind == "ProbablyNo"
        assert first.rank == second.rank
        assert first.target == second.target

    def test_module_oracle_replays(self):
        ks = [make_algebra("so", 5)]
        spec = ModuleSpec([("natural", 0), ("natural", 0)])
        a = is_spherical_module(ks, spec, seed=31)
        b = is_spherical_module(ks, spec, seed=31)
        assert a.kind == b.kind and a.rank == b.rank

    def test_different_seeds_still_same_verdict(self):
        k = make_algebra("sp", 6)
        flag = FlagType((1, 2, 3), 6)
        kinds = {is_spherical_flag(k, flag, seed=s).kind for s in range(4)}
        assert len(kinds) == 1


class TestModuleOracle:
    def test_natural_module_spherical(self):
        assert is_spherical_module([make_algebra("sl", 3)],
                                   ModuleSpec([("natural", 0)]), seed=1)

    def test_doubled_natural_not_spherical_for_so(self):
        v = is_spherical_module(
            [make_algebra("so", 5)],
            ModuleSpec([("natural", 0), ("natural", 0)]),
            seed=1,
        )
        assert v.kind == "ProbablyNo"

    def test_sample_count_validated(self):
        with pytest.raises(BadSampleCount):
            is_spherical_module([make_algebra("sl", 3)],
                                ModuleSpec([("natural", 0)]), samples=0)


class TestProductComplexity:
    def test_projective_pairs_spherical(self):
        f = FlagType((1,), 4)
        assert product_flag_complexity(4, f, f, seed=5) == 0

    def test_two_full_flags_positive(self):
        f = FlagType((1, 2, 3), 4)
        assert product_flag_complexity(4, f, f, seed=5) > 0

    def test_levi_restriction_identity(self):
        f1 = FlagType((2,), 5)
        f2 = FlagType((1, 3), 5)
        assert product_flag_complexity(5, f1, f2, seed=9) == \
            levi_flag_complexity(5, f1, f2, seed=9)

    def test_ambient_checked(self):
        with pytest.raises(DimensionMismatch):
            product_flag_complexity(4, FlagType((1,), 4), FlagType((1,), 5))


class TestVerdictObject:
    def test_bool_and_complexity(self):
        yes = OracleVerdict("Yes", 6, 6, 5, 0, certificate=object())
        no = OracleVerdict("ProbablyNo", 4, 6, 5, 0)
        assert yes and not no
        assert no.complexity == 2 and yes.complexity == 0


class TestLeviValidation:
    def test_smaller_f1_ambient_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            levi_flag_complexity(4, FlagType((1,), 3), FlagType((2,), 4))

    def test_larger_f1_ambient_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            levi_flag_complexity(4, FlagType((1,), 5), FlagType((2,), 4))

    def test_samples_checked_before_the_levi_borel(self):
        # f2 cannot cut a Levi of gl_4; the sample count is reported first
        with pytest.raises(BadSampleCount):
            levi_flag_complexity(
                4, FlagType((1,), 4), FlagType((2,), 5), samples=0
            )


class TestRandomStream:
    """The golden seeds rely on vector draws repeating scalar draws."""

    @pytest.mark.parametrize("seed", [0, 5, 123, 20260823])
    def test_vector_draw_equals_scalar_draws(self, seed):
        box = COEFF_BOX
        scalar = np.random.default_rng(seed)
        vector = np.random.default_rng(seed)
        for k in (0, 1, 2, 3, 10, 21, 45, 0, 7):
            want = [int(scalar.integers(-box, box + 1)) for _ in range(k)]
            got = vector.integers(-box, box + 1, size=k).tolist()
            assert got == want, k
        # and the streams are still in step afterwards
        assert int(scalar.integers(-box, box + 1)) == int(
            vector.integers(-box, box + 1)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_unit_lower_matches_row_by_row_draws(self, n):
        rng = np.random.default_rng(n)
        ref = np.random.default_rng(n)
        for _ in range(3):
            m = _unit_lower(n, rng, 50)
            want = linalg.identity(n)
            for i in range(n):
                for j in range(i):
                    want[i][j] = int(ref.integers(-50, 51))
            assert m.tolist() == want


def _conjugation_rows(borel, x):
    """Constraint rows from the full products g^-1 y g: the definition
    that _constraint_rows computes from the nonzero entries of y."""
    conj = [linalg.matmul(linalg.matmul(x.g_inv, [list(r) for r in y]), x.g)
            for y in borel]
    return [
        [c[r][k] for c in conj]
        for d in x.dims
        for r in range(d, x.ambient)
        for k in range(d)
    ]


def _flags_of(n):
    """One, two and three steps, and the full flag."""
    dims_sets = [(1,), (n - 1,), tuple(range(1, n))]
    if n >= 4:
        dims_sets += [(2,), (1, n - 2)]
    if n >= 5:
        dims_sets.append((1, 3, n - 1))
    return [FlagType(d, n) for d in dict.fromkeys(dims_sets)]


def _algebras():
    for n in range(2, 8):
        for tag in ("gl", "sl", "so", "sp"):
            if tag == "so" and n < 3 or tag == "sp" and n % 2:
                continue
            yield make_algebra(tag, n)
    yield make_algebra("sl", 10)


class TestResidues:
    """The batched residues mod p equal the exact rows reduced mod p."""

    @staticmethod
    def _check(borel, flags, seed, samples=3):
        rng = np.random.default_rng(seed)
        points = [
            tuple(sample_flag_point(f, rng, COEFF_BOX) for f in flags)
            for _ in range(samples)
        ]
        got = _flag_residues(borel, points, flags)
        for s, xs in enumerate(points):
            exact = [row for x in xs for row in _constraint_rows(borel, x)]
            want = reduce_mod(exact).reshape(len(exact), len(borel))
            assert got[s].shape == want.shape
            assert np.array_equal(got[s], want)

    @pytest.mark.parametrize(
        "k", list(_algebras()), ids=lambda k: "%s%d" % (k.meta["type"], k.n)
    )
    def test_single_flag(self, k):
        for i, flag in enumerate(_flags_of(k.n)):
            self._check(list(k.borel_basis), (flag,), seed=k.n * 31 + i)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_stacked_product_rows(self, n):
        flags = _flags_of(n)
        for i, f1 in enumerate(flags):
            f2 = flags[-1 - i]
            self._check(_gl_borel(n), (f1, f2), seed=n + i)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_levi_rows(self, n):
        flags = _flags_of(n)
        for i, f2 in enumerate(flags):
            self._check(levi_borel(n, f2), (flags[0],), seed=n + i)

    def test_empty_borel(self):
        flag = FlagType((1, 2), 4)
        rng = np.random.default_rng(0)
        points = [(sample_flag_point(flag, rng),) for _ in range(2)]
        got = _flag_residues([], points, (flag,))
        rows = len(_constraint_rows([], points[0][0]))
        assert got.shape == (2, rows, 0)
        v = is_spherical_flag([], flag, seed=1)
        assert v.kind == "ProbablyNo" and v.rank == 0

    @pytest.mark.parametrize("tag,n", [("gl", 2), ("so", 5), ("sp", 6)])
    def test_exact_rows_match_full_conjugation(self, tag, n):
        k = make_algebra(tag, n)
        rng = np.random.default_rng(n)
        for flag in _flags_of(n):
            x = sample_flag_point(flag, rng)
            assert _constraint_rows(k.borel_basis, x) == _conjugation_rows(
                k.borel_basis, x
            )

    def test_box_too_large_for_int64_is_refused(self):
        k = make_algebra("sl", 3)
        with pytest.raises(TooLarge):
            is_spherical_flag(k, FlagType((1,), 3), box=2**32)


class TestCertificates:
    """Every Yes carries a point that re-verifies exactly; every ProbablyNo
    replays from (samples, seed)."""

    def test_criterion_1_slice(self):
        from test_acceptance import small_data

        cache, yes, no = {}, 0, 0
        for i, d in enumerate(small_data()):
            if i % 5:
                continue
            key = (d.factors, d.trivial)
            if key not in cache:
                cache[key] = datum_algebra(d)
            k = cache[key]
            v = is_spherical_flag(k, d.flag, samples=5, seed=i)
            if v.kind == "Yes":
                x = v.certificate
                n = x.ambient
                assert linalg.matmul(x.g, x.g_inv) == linalg.identity(n)
                assert borel_orbit_dim_at(k, x) == v.target
                yes += 1
            else:
                again = is_spherical_flag(k, d.flag, samples=v.samples,
                                          seed=v.seed)
                assert (again.kind, again.rank) == ("ProbablyNo", v.rank)
                no += 1
        assert yes > 10 and no > 10
