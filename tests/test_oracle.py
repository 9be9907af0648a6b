import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from lieclass import linalg, oracle
from lieclass.algebras import (
    MAX_MATRIX_SIZE,
    CatalogAlgebra,
    ModuleSpec,
    gl_borel,
    make_algebra,
    representation,
)
from lieclass.classifier import ClassificationDatum, datum_algebra
from lieclass.cli import parse_algebra_module
from lieclass.errors import (
    BadParameter,
    BadSampleCount,
    DimensionMismatch,
    NoMatrixModel,
    TooLarge,
)
from lieclass.oracle import (
    COEFF_BOX,
    FlagPoint,
    OracleVerdict,
    _flag_residues,
    borel_orbit_dim_at,
    is_spherical_flag,
    is_spherical_module,
    levi_borel,
    levi_flag_complexity,
    product_flag_complexity,
    sample_flag_point,
)
from lieclass.partitions import FlagType, canonical_flag
from lieclass.rank import MOD_PRIME, rank_exact, rank_modp
from test_acceptance import stacked_product_verdict, stacked_rows


class TestFlagPoint:
    def test_sampled_point_is_unimodular(self, monkeypatch):
        monkeypatch.setattr(oracle, "COEFF_BOX", 50)
        rng = np.random.default_rng(5)
        x = sample_flag_point(FlagType((1, 3), 5), rng)
        assert linalg.matmul(x.g, x.g_inv) == linalg.identity(5)
        assert all(isinstance(e, int) for row in x.g for e in row)
        assert all(isinstance(e, int) for row in x.g_inv for e in row)

    def test_standard_point(self):
        x = FlagPoint.standard(FlagType((2,), 4))
        assert x.g == x.g_inv == linalg.identity(4)


class TestOrbitDim:
    def test_standard_flag_has_zero_borel_motion(self):
        # a gl Borel fixes the standard flag, so its orbit is a point
        k = make_algebra("gl", 4)
        x = FlagPoint.standard(FlagType((1, 2), 4))
        assert borel_orbit_dim_at(k, x) == 0

    def test_generic_point_gives_full_dim(self, monkeypatch):
        monkeypatch.setattr(oracle, "COEFF_BOX", 100)
        k = make_algebra("gl", 4)
        flag = FlagType((2,), 4)
        rng = np.random.default_rng(1)
        x = sample_flag_point(flag, rng)
        assert borel_orbit_dim_at(k, x) == flag.dim()

    def test_size_mismatch(self):
        k = make_algebra("gl", 3)
        with pytest.raises(DimensionMismatch):
            borel_orbit_dim_at(k, FlagPoint.standard(FlagType((1,), 4)))

    def test_non_square_borel_is_a_dimension_mismatch(self):
        # 3 x 4 matrices cannot act on C^4: the last axis alone matches
        borel = np.zeros((2, 3, 4), dtype=np.int64)
        flag = FlagType((1,), 4)
        with pytest.raises(DimensionMismatch):
            borel_orbit_dim_at(borel, FlagPoint.standard(flag))
        with pytest.raises(DimensionMismatch):
            is_spherical_flag(borel, flag)


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

    def test_trivial_module_without_scalar_has_no_rows(self):
        v = is_spherical_module([make_algebra("sl", 2)],
                                ModuleSpec([("trivial",)]), with_scalar=False)
        assert v.kind == "ProbablyNo" and (v.rank, v.target) == (0, 1)

    def test_sample_count_validated(self):
        with pytest.raises(BadSampleCount):
            is_spherical_module([make_algebra("sl", 3)],
                                ModuleSpec([("natural", 0)]), samples=0)

    def test_sample_count_capped(self):
        with pytest.raises(TooLarge):
            is_spherical_module([make_algebra("sl", 3)],
                                ModuleSpec([("natural", 0)]),
                                samples=oracle.MAX_SAMPLES + 1)

    def test_row_cells_capped(self):
        # 1000 samples x (527 + 1) rows x 32 columns
        with pytest.raises(TooLarge):
            is_spherical_module([make_algebra("sl", 32)],
                                ModuleSpec([("natural", 0)]), samples=1000)

    def test_factors_without_a_spec_are_a_bad_parameter(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the representation must not be built")

        monkeypatch.setattr(oracle, "representation", unbuilt)
        for k in ([make_algebra("sp", 4)], [make_algebra("sl", 2)] * 2):
            with pytest.raises(BadParameter, match="ModuleSpec"):
                is_spherical_module(k)

    def test_a_factor_without_a_matrix_model_is_refused_unbuilt(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the representation must not be built")

        monkeypatch.setattr(oracle, "representation", unbuilt)
        sl2 = make_algebra("sl", 2)
        alien = CatalogAlgebra(sl2.basis, sl2.borel_basis, 2, {"type": "e8"})
        spec = ModuleSpec([("natural", 0), ("natural", 1)])
        with pytest.raises(NoMatrixModel, match="'e8'"):
            is_spherical_module([sl2, alien], spec)


def _module_rows_reference(rep, with_scalar, samples, seed):
    """Points drawn entry by entry and rows y.w summed in Python ints: the
    definition the batched int64 rows of the module oracle must match."""
    borel = rep.borel_basis.tolist()
    if with_scalar:
        borel.append(linalg.identity(rep.n))
    rng = np.random.default_rng(seed)
    points = [
        [int(rng.integers(-COEFF_BOX, COEFF_BOX + 1)) for _ in range(rep.n)]
        for _ in range(samples)
    ]
    rows = [
        [[sum(a * x for a, x in zip(yrow, w)) for yrow in y] for y in borel]
        for w in points
    ]
    return points, rows


class TestModuleRows:
    """The module oracle's points and rows, mod p and exact, equal the
    pure-Python reference at every sample, and a Yes carries one of the
    points."""

    @pytest.mark.parametrize(
        "factors,summands",
        [
            ((("sl", 4),), [("natural", 0)]),
            ((("so", 5),), [("natural", 0), ("natural", 0)]),
            ((("sp", 6),), [("natural", 0), ("trivial",)]),
            ((("sl", 2), ("sp", 4)), [("tensor", (0, "n"), (1, "n"))]),
            ((("sl", 2),), []),
        ],
    )
    @pytest.mark.parametrize("with_scalar", [True, False])
    def test_rows_match_reference(self, monkeypatch, factors, summands, with_scalar):
        ks = [make_algebra(tag, n) for tag, n in factors]
        spec = ModuleSpec(summands)
        seen, scan = {}, oracle._scan

        def spy(borel, scalars, target, draw, rows, *rest):
            seen.update(draw=draw, rows=rows)
            return scan(borel, scalars, target, draw, rows, *rest)

        monkeypatch.setattr(oracle, "_scan", spy)
        v = is_spherical_module(ks, spec, with_scalar, samples=4, seed=9)
        points, rows = _module_rows_reference(
            representation(ks, spec), with_scalar, 4, 9
        )
        if v:
            assert v.certificate in points
        # the scan's draws from its own seeded generator, replayed: every
        # sample, also those a stop leaves undrawn
        rng = np.random.default_rng(9)
        for i in range(4):
            x = seen["draw"](rng)
            assert x == points[i]
            # the scan ranks the transpose: one column per Borel element
            want = [list(col) for col in zip(*rows[i])]
            exact = seen["rows"](x, None).tolist()
            assert exact == want
            assert all(type(e) is int for row in exact for e in row)
            residues = np.remainder(seen["rows"](x, MOD_PRIME), MOD_PRIME)
            assert residues.tolist() == [[e % MOD_PRIME for e in row] for row in want]

    def test_entries_too_large_for_int64_rows_are_refused(self):
        # an algebra built by a library caller: a row of the module oracle
        # sums n products of an entry and a point coordinate, and with
        # entries near 2^50 and coordinates up to COEFF_BOX that passes 2^63
        def algebra(entry):
            mats = [[[entry, 0], [0, 0]]]
            return CatalogAlgebra(mats, mats, 2, {"type": "rep"})

        with pytest.raises(TooLarge):
            is_spherical_module(algebra(2**50))
        v = is_spherical_module(algebra(2**40), with_scalar=False)
        assert (v.kind, v.rank, v.target) == ("ProbablyNo", 1, 2)


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
        with pytest.raises(DimensionMismatch):
            product_flag_complexity(4, FlagType((1,), 5), FlagType((1,), 4))

    @pytest.mark.parametrize(
        "dims1, dims2, scanned",
        [
            # Levi Borels 1 + 6 = 7 and 3 + 3 = 6: (2,) restricts
            ((1,), (2,), (1,)),
            ((2,), (1,), (1,)),
            # a tie, 1 + 1 + 3 = 5 and 1 + 3 + 1 = 5: f2 restricts
            ((1, 2), (1, 3), (1, 2)),
            ((1, 3), (1, 2), (1, 3)),
            ((2,), (2,), (2,)),
        ],
    )
    def test_the_smaller_levi_borel_restricts(self, monkeypatch, dims1, dims2, scanned):
        asked, verdict = [], oracle.is_spherical_flag

        def spy(k, flag, *rest):
            asked.append((flag.dims, k))
            return verdict(k, flag, *rest)

        monkeypatch.setattr(oracle, "is_spherical_flag", spy)
        f1, f2 = FlagType(dims1, 4), FlagType(dims2, 4)
        c = product_flag_complexity(4, f1, f2, seed=3)
        restricting = dims2 if scanned == dims1 else dims1
        [(dims, borel)] = asked
        assert dims == scanned
        assert np.array_equal(borel, levi_borel(4, FlagType(restricting, 4)))
        assert c == stacked_product_verdict(4, f1, f2, 5, 3).complexity


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

    @pytest.mark.parametrize(
        "entry", [levi_flag_complexity, product_flag_complexity]
    )
    def test_ambients_checked_before_the_size_bound(self, entry):
        with pytest.raises(DimensionMismatch):
            entry(40, FlagType((20,), 40), FlagType((20,), 41))
        with pytest.raises(DimensionMismatch):
            entry(40, FlagType((20,), 41), FlagType((20,), 40))
        with pytest.raises(TooLarge):
            entry(40, FlagType((20,), 40), FlagType((20,), 40))

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

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_chart_matches_row_by_row_draws(self, monkeypatch, n):
        monkeypatch.setattr(oracle, "COEFF_BOX", 50)
        # every flag of C^n: the entries below the diagonal blocks, drawn
        # row by row, one scalar draw each; 1 on the diagonal, 0 elsewhere
        rng = np.random.default_rng(n)
        ref = np.random.default_rng(n)
        for length in range(1, n):
            for dims in itertools.combinations(range(1, n), length):
                x = sample_flag_point(FlagType(dims, n), rng)
                want = linalg.identity(n)
                for i in range(n):
                    for j in range(max((d for d in dims if d <= i), default=0)):
                        want[i][j] = int(ref.integers(-50, 51))
                assert x.lower.tolist() == want, dims
                assert x.g == want
        assert int(rng.integers(-50, 51)) == int(ref.integers(-50, 51))

    @pytest.mark.parametrize(
        "seed, lower",
        [
            (0, [[1, 0, 0, 0], [7013, 1, 0, 0],
                 [2739, 223, 1, 0], [-4604, -3844, 0, 1]]),
            (99, [[1, 0, 0, 0], [9164, 1, 0, 0],
                  [121, 5153, 1, 0], [1302, -6444, 0, 1]]),
        ],
    )
    def test_first_draws_are_pinned(self, seed, lower):
        # the seeded verdicts and the golden files replay these draws: a
        # numpy whose stream differs fails here by name, not only as a
        # changed verdict somewhere else
        x = sample_flag_point(FlagType((1, 2), 4), np.random.default_rng(seed))
        assert x.g == lower


def _conjugation_rows(borel, dims, g, g_inv):
    """Constraint rows from the full products g^-1 y g over Python ints,
    for any invertible g: the definition that _flag_residues computes from
    y L by one block step of L^-1 per step of the flag.  Each entry (r, k)
    that must vanish, k below the last step <= r, once, row by row."""
    conj = [
        linalg.matmul(linalg.matmul(g_inv, [[int(e) for e in r] for r in y]), g)
        for y in borel
    ]
    return [
        [c[r][k] for c in conj]
        for r in range(len(g))
        for k in range(max((d for d in dims if d <= r), default=0))
    ]


def _point_rows(borel, x):
    """The reference rows of the point x."""
    return _conjugation_rows(borel, x.dims, x.g, x.g_inv)


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
    """The exact rows of _flag_residues equal the full conjugation g^-1 y g
    over Python ints, and its residues mod p equal them reduced mod p."""

    @staticmethod
    def _check(borel, flag, seed, samples=3):
        rng = np.random.default_rng(seed)
        array = oracle._borel_array(borel, flag.ambient)
        for _ in range(samples):
            x = sample_flag_point(flag, rng)
            got = _flag_residues(array, x)
            exact = _flag_residues(array, x, None)
            assert got.shape == exact.shape == (flag.dim(), len(borel))
            assert got.dtype == np.int64
            want = _point_rows(borel, x)
            assert exact.tolist() == want
            assert got.tolist() == [[e % MOD_PRIME for e in row] for row in want]

    @pytest.mark.parametrize(
        "k", list(_algebras()), ids=lambda k: "%s%d" % (k.meta["type"], k.n)
    )
    def test_single_flag(self, k):
        for i, flag in enumerate(_flags_of(k.n)):
            self._check(list(k.borel_basis), flag, seed=k.n * 31 + i)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_stacked_product_rows(self, n):
        # the tests' reference rows of the product G/P x G/Q: both flags'
        # rows over gl_borel(n), stacked in order
        borel = gl_borel(n)
        flags = _flags_of(n)
        rng = np.random.default_rng(n)
        for f1, f2 in zip(flags, reversed(flags)):
            xs = (sample_flag_point(f1, rng), sample_flag_point(f2, rng))
            want = _point_rows(borel, xs[0]) + _point_rows(borel, xs[1])
            assert len(want) == f1.dim() + f2.dim()
            assert stacked_rows(xs, None).tolist() == want
            assert stacked_rows(xs).tolist() == [
                [e % MOD_PRIME for e in row] for row in want
            ]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_levi_rows(self, n):
        flags = _flags_of(n)
        for i, f2 in enumerate(flags):
            self._check(levi_borel(n, f2), flags[0], seed=n + i)

    def test_empty_borel(self):
        flag = FlagType((1, 2), 4)
        x = sample_flag_point(flag, np.random.default_rng(0))
        empty = oracle._borel_array([], 4)
        for p in (MOD_PRIME, None):
            got = _flag_residues(empty, x, p)
            assert got.shape == (flag.dim(), 0)
        v = is_spherical_flag([], flag, seed=1)
        assert v.kind == "ProbablyNo" and v.rank == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_row_per_chart_coordinate(self, n):
        # all n^2 matrix units at the standard point: the row of entry
        # (r, k) of g^-1 y g is the unit vector at r n + k, so the rows
        # name their entries
        units = [
            [[int((a, c) == divmod(e, n)) for c in range(n)] for a in range(n)]
            for e in range(n * n)
        ]
        units = oracle._borel_array(units, n)
        rng = np.random.default_rng(n)
        for length in range(1, n):
            for dims in itertools.combinations(range(1, n), length):
                flag = FlagType(dims, n)
                x = FlagPoint.standard(flag)
                rows = _flag_residues(units, x, None).tolist()
                entries = [row.index(1) for row in rows]
                assert all(sum(row) == 1 for row in rows), dims
                assert len(set(entries)) == len(entries) == flag.dim(), dims
                got = _flag_residues(gl_borel(n), sample_flag_point(flag, rng))
                assert got.shape[0] == flag.dim(), dims

    def test_array_borel_gives_exact_rows(self):
        # entries of L^-1 for the full flag of C^7 pass 2^63 at the full
        # box, so the exact rows must be formed over Python ints
        lists = make_algebra("gl", 7).borel_basis.tolist()
        array = gl_borel(7)
        assert array.dtype == np.int64 and array.tolist() == lists
        full = FlagType(tuple(range(1, 7)), 7)
        x = sample_flag_point(full, np.random.default_rng(7))
        rows = _flag_residues(array, x, None).tolist()
        from_lists = _flag_residues(oracle._borel_array(lists, 7), x, None)
        assert rows == from_lists.tolist()
        assert all(type(e) is int for row in rows for e in row)
        assert max(abs(e) for row in rows for e in row) >= 2**63
        assert rows == _point_rows(lists, x)
        assert borel_orbit_dim_at(array, x) == borel_orbit_dim_at(lists, x)
        assert borel_orbit_dim_at(array, x) == rank_exact(rows)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "dims",
        [(1,), (16,), (8, 16, 24), tuple(range(1, MAX_MATRIX_SIZE))],
        ids=["line", "half", "three", "full"],
    )
    def test_box_corners_at_the_size_cap(self, dims, sign):
        # every chart entry at +-COEFF_BOX: each block step adds the most
        # products of one sign, and the residues still equal the
        # definition mod p (no int64 wrap) and the exact rows equal it
        n = MAX_MATRIX_SIZE
        lower = np.eye(n, dtype=np.int64)
        lower.flat[oracle._chart(n, dims)[0]] = sign * COEFF_BOX
        x = FlagPoint(FlagType(dims, n), lower)
        borel = gl_borel(n)[::17]
        want = _point_rows(borel, x)
        assert _flag_residues(borel, x, None).tolist() == want
        assert _flag_residues(borel, x).tolist() == [
            [e % MOD_PRIME for e in row] for row in want
        ]

    def test_borel_arrays_are_built_once_and_read_only(self):
        assert gl_borel(5) is gl_borel(5)
        assert np.array_equal(make_algebra("gl", 5).borel_basis, gl_borel(5))
        spec = ModuleSpec([("tensor", (0, "n"), (1, "d")), ("sym2", 1)])
        factors = [make_algebra("sl", 2), make_algebra("sp", 4)]
        builders = [make_algebra(tag, 4) for tag in ("gl", "sl", "so", "sp")]
        builders += [
            representation(factors, spec),
            datum_algebra(ClassificationDatum((1,), [("so", 3), ("sl", 2)], 1)),
        ]
        for k in builders:
            for mats in (k.basis, k.borel_basis):
                assert mats.dtype == np.int64 and mats.shape == (len(mats), k.n, k.n)
                with pytest.raises(ValueError):
                    mats[..., 0, 0] = 7
        with pytest.raises(ValueError):
            gl_borel(5)[0, 0, 0] = 7


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _unit_lower_in(n, cells, rng, box):
    """Unit lower triangular matrix with random entries at `cells`."""
    m = linalg.identity(n)
    for i, j in cells:
        m[i][j] = int(rng.integers(-box, box + 1))
    return m


class TestChart:
    """A factor of P changes no rank: the orbit dimension at the chart
    point L equals the one at L M U, for M unit lower inside the diagonal
    blocks and U unit upper (every unit lower g factors as L M, so L M U
    is the point g = L U the chart replaced)."""

    @pytest.mark.parametrize(
        "tag,n",
        [(tag, n) for n in range(2, 8) for tag in ("gl", "so", "sp")
         if not (tag == "so" and n < 3 or tag == "sp" and n % 2)],
    )
    def test_rank_at_lmu_equals_rank_at_l(self, monkeypatch, tag, n):
        monkeypatch.setattr(oracle, "COEFF_BOX", 50)
        k = make_algebra(tag, n)
        rng = np.random.default_rng(100 + n)
        for flag in _flags_of(n):
            x = sample_flag_point(flag, rng)
            cuts = [max((d for d in flag.dims if d <= i), default=0)
                    for i in range(n)]
            m = _unit_lower_in(
                n, [(i, j) for i in range(n) for j in range(cuts[i], i)], rng, 50
            )
            ut = _unit_lower_in(
                n, [(i, j) for i in range(n) for j in range(i)], rng, 50
            )
            mu = linalg.matmul(m, _transpose(ut))
            mu_inv = linalg.matmul(
                _transpose(linalg.invert_unit_lower(ut)),
                linalg.invert_unit_lower(m),
            )
            g = linalg.matmul(x.g, mu)
            g_inv = linalg.matmul(mu_inv, x.g_inv)
            assert linalg.matmul(g, g_inv) == linalg.identity(n)
            rows = _conjugation_rows(k.borel_basis, flag.dims, g, g_inv)
            assert rank_exact(rows) == borel_orbit_dim_at(k, x), flag


def _entry_point_calls(n, flag, samples):
    """The three flag entry points, each asked about `flag` (and a good
    flag of C^n) with the gl_n Borel."""
    good = FlagType((1,), n)
    k = make_algebra("gl", n)
    return {
        "is_spherical_flag": lambda: is_spherical_flag(k, flag, samples),
        "product_flag_complexity": lambda: product_flag_complexity(
            n, good, flag, samples
        ),
        "levi_flag_complexity": lambda: levi_flag_complexity(
            n, flag, good, samples
        ),
    }


class TestFlagValidation:
    """The flag entry points share one validation: the same bad input
    raises the same type from each of them."""

    @pytest.mark.parametrize(
        "flag_n,samples,error",
        [
            (4, 0, BadSampleCount),
            (5, 0, BadSampleCount),
            (5, 5, DimensionMismatch),
            (3, 1, DimensionMismatch),
            (4, oracle.MAX_SAMPLES + 1, TooLarge),
            (5, oracle.MAX_SAMPLES + 1, TooLarge),
        ],
    )
    @pytest.mark.parametrize(
        "entry",
        ["is_spherical_flag", "product_flag_complexity", "levi_flag_complexity"],
    )
    def test_same_error_from_every_entry_point(self, entry, flag_n, samples, error):
        call = _entry_point_calls(4, FlagType((1,), flag_n), samples)[entry]
        with pytest.raises(error):
            call()


def _seeded_calls(seed, samples=5):
    """The four oracle entry points, each asked a small question."""
    gl4, line, plane = make_algebra("gl", 4), FlagType((1,), 4), FlagType((2,), 4)
    return {
        "is_spherical_flag": lambda: is_spherical_flag(gl4, line, samples, seed),
        "is_spherical_module": lambda: is_spherical_module(
            [make_algebra("sl", 4)], ModuleSpec([("wedge2", 0)]), True, samples, seed
        ),
        "product_flag_complexity": lambda: product_flag_complexity(
            4, line, plane, samples, seed
        ),
        "levi_flag_complexity": lambda: levi_flag_complexity(
            4, line, plane, samples, seed
        ),
    }


class TestSeedValidation:
    @pytest.mark.parametrize("entry", sorted(_seeded_calls(0)))
    def test_a_negative_seed_is_refused_before_the_scan(self, monkeypatch, entry):
        def unscanned(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(oracle, "_scan", unscanned)
        with pytest.raises(BadParameter, match="seed must be >= 0, got -1"):
            _seeded_calls(-1)[entry]()
        # the sample count is still reported first
        with pytest.raises(BadSampleCount):
            _seeded_calls(-1, samples=0)[entry]()

    @pytest.mark.parametrize("entry", sorted(_seeded_calls(0)))
    def test_a_numpy_seed_is_its_integer(self, entry):
        a, b = _seeded_calls(7)[entry](), _seeded_calls(np.int64(7))[entry]()
        if isinstance(a, OracleVerdict):
            a, b = (a.kind, a.rank, a.seed), (b.kind, b.rank, b.seed)
        assert a == b


class TestSampleCount:
    """The sample count is read with operator.index, as the seed is."""

    @pytest.mark.parametrize("samples", [2.5, 5.0, Fraction(5), "5"])
    @pytest.mark.parametrize("entry", sorted(_seeded_calls(0)))
    def test_a_non_integer_count_is_refused_before_the_borel_is_built(
        self, monkeypatch, entry, samples
    ):
        def unbuilt(*args):
            raise AssertionError("the Borel must not be built")

        for name in ("levi_borel", "_borel_array", "representation", "_scan"):
            monkeypatch.setattr(oracle, name, unbuilt)
        with pytest.raises(TypeError):
            _seeded_calls(0, samples=samples)[entry]()

    @pytest.mark.parametrize("entry", sorted(_seeded_calls(0)))
    def test_a_numpy_count_is_its_integer(self, monkeypatch, entry):
        seen, scan = [], oracle._scan

        def spy(*args):
            verdict = scan(*args)
            seen.append(verdict.samples)
            return verdict

        monkeypatch.setattr(oracle, "_scan", spy)
        _seeded_calls(0, samples=np.int64(3))[entry]()
        assert seen == [3] and type(seen[0]) is int


class TestLeviBorel:
    def test_blocks_are_the_steps(self):
        # reference: the block of index i is the number of dims <= i; every
        # composition of n <= 8, so a selection cached under a key that
        # forgets the steps is caught
        for n in range(2, 9):
            i, j = np.triu_indices(n)
            for length in range(1, n):
                for dims in itertools.combinations(range(1, n), length):
                    flag = FlagType(dims, n)
                    block = np.searchsorted(dims, np.arange(n), side="right")
                    want = gl_borel(n)[block[i] == block[j]]
                    got, again = levi_borel(n, flag), levi_borel(n, flag)
                    assert np.array_equal(got, want), dims
                    assert np.array_equal(again, want), dims
                    assert got is not again and not np.shares_memory(got, again)
                    assert got.flags.writeable and again.flags.writeable
                    assert len(got) == oracle._levi_borel_dim(flag), dims


class TestSizeBound:
    def test_ambient_checked_before_the_borel_is_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the Borel must not be built")

        with pytest.raises(TooLarge):
            is_spherical_flag(unbuilt, FlagType((1,), MAX_MATRIX_SIZE + 1))
        monkeypatch.setattr(oracle, "levi_borel", unbuilt)
        with pytest.raises(TooLarge):
            product_flag_complexity(
                80, FlagType((40,), 80), FlagType((40,), 80)
            )

    def test_residue_cells_capped(self):
        # 1000 samples x 528 Borel elements x 32 x 16 products y L
        k = make_algebra("gl", 32)
        with pytest.raises(TooLarge):
            is_spherical_flag(k, FlagType((16,), 32), samples=1000)


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


class TestExactRank:
    """A ProbablyNo rank is the exact rank of one sample's rows: the sample
    that reached R, or the best sample of a scan without a stop, whose
    rows Bareiss ranks once."""

    @staticmethod
    def _record(monkeypatch):
        """Spy on the scan: per call, the row callback, the points drawn, the
        samples ranked mod p, the samples whose exact rows were formed,
        those rows, and the rows Bareiss ranked.  A scan that ends in
        ProbablyNo without forming exact rows stopped early at its newest
        sample."""
        calls, scan, exact = [], oracle._scan, oracle.rank_exact

        def scan_spy(borel, scalars, target, draw, rows, *rest):
            call = {
                "point_rows": rows,
                "drawn": [],
                "ranked": [],
                "formed": [],
                "rows": [],
                "bareiss": [],
            }
            calls.append(call)

            def drawn(rng):
                call["drawn"].append(draw(rng))
                return call["drawn"][-1]

            def counted(x, p):
                i = next(i for i, y in enumerate(call["drawn"]) if y is x)
                out = rows(x, p)
                if p is None:
                    call["formed"].append(i)
                    call["rows"].append(out)
                else:
                    call["ranked"].append(i)
                return out

            return scan(borel, scalars, target, drawn, counted, *rest)

        def exact_spy(rows):
            calls[-1]["bareiss"].append(rows)
            return exact(rows)

        monkeypatch.setattr(oracle, "_scan", scan_spy)
        monkeypatch.setattr(oracle, "rank_exact", exact_spy)
        return calls

    @staticmethod
    def _check(calls, verdicts):
        proved = early = 0
        for call, v in zip(calls, verdicts, strict=True):
            # a scan ranks each point it draws once, in order; it forms
            # exact rows once at most, for its best sample, and Bareiss
            # ranks exactly those rows
            assert call["ranked"] == list(range(len(call["drawn"])))
            assert len(call["formed"]) <= 1
            assert call["bareiss"] == [r.tolist() for r in call["rows"]]
            if v.kind == "ProbablyNo":
                index = (call["formed"] or call["ranked"])[-1]
                x = call["drawn"][index]
                rows = call["point_rows"](x, None).tolist()
                assert v.rank == rank_exact(rows)
                proved += 1
                early += len(call["ranked"]) < v.samples
        return proved, early

    @staticmethod
    def _pair_cases():
        """The Levi scans of the product pairs, in both orders: one of them
        is the scan product_flag_complexity runs."""
        from test_acceptance import step_multisets

        for n in range(2, 8):
            ms = step_multisets(n)
            for a, b in itertools.combinations_with_replacement(ms, 2):
                f1, f2 = canonical_flag(a, n), canonical_flag(b, n)
                for x, y in ((f1, f2), (f2, f1)):
                    yield levi_borel(n, y), x

    @staticmethod
    def _criterion_cases():
        from test_acceptance import small_data

        cache = {}
        for d in small_data(range(2, 7)):
            key = (d.factors, d.trivial)
            if key not in cache:
                cache[key] = datum_algebra(d)
            yield cache[key], d.flag

    @pytest.mark.parametrize("seed", [3, 4])
    def test_product_and_levi_pairs(self, monkeypatch, seed):
        calls, verdicts = self._record(monkeypatch), []
        for borel, flag in self._pair_cases():
            verdicts.append(is_spherical_flag(borel, flag, 5, seed))
        proved, early = self._check(calls, verdicts)
        assert proved > 100 and early > 100

    @pytest.mark.parametrize("seed", [3, 4])
    def test_criterion_1_probably_no(self, monkeypatch, seed):
        calls, verdicts = self._record(monkeypatch), []
        for k, flag in self._criterion_cases():
            verdicts.append(is_spherical_flag(k, flag, seed=seed))
        proved, early = self._check(calls, verdicts)
        assert proved > 100 and early > 100

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("box", [COEFF_BOX, 1])
    @pytest.mark.parametrize("cases", ["_pair_cases", "_criterion_cases"])
    def test_early_stop_reaches_the_best_of_all_samples(
        self, monkeypatch, cases, box, seed
    ):
        """The verdict's rank is the largest mod-p rank of all five samples,
        drawn up front and ranked here one by one, however few the scan
        ranked.  At box 1 many samples fall below the generic rank, so a
        scan that stopped too soon would report less than the maximum.
        The call itself draws the points of the samples it ranks and no
        more, and they are the points of the up-front draw."""
        monkeypatch.setattr(oracle, "COEFF_BOX", box)
        calls, stops = self._record(monkeypatch), 0
        drawn, draw = [], oracle.sample_flag_point

        def counted(*args):
            drawn.append(args[0])
            return draw(*args)

        for k, flag in getattr(self, cases)():
            drawn.clear()
            monkeypatch.setattr(oracle, "sample_flag_point", counted)
            v = is_spherical_flag(k, flag, 5, seed)
            monkeypatch.setattr(oracle, "sample_flag_point", draw)
            ranked = calls[-1]["ranked"]
            assert drawn == [flag] * len(ranked)
            rng = np.random.default_rng(seed)
            points = [sample_flag_point(flag, rng) for _ in range(5)]
            assert [x.g for x in calls[-1]["drawn"]] == [
                x.g for x in points[: len(ranked)]
            ]
            borel = oracle._borel_array(k, flag.ambient)
            ranks = [rank_modp(_flag_residues(borel, x)) for x in points]
            assert ranked == list(range(len(ranked)))
            before = max((ranks[i] for i in ranked[:-1]), default=-1)
            if v.kind == "Yes":
                assert ranks[ranked[-1]] >= v.target > before
                assert v.certificate.g == points[ranked[-1]].g
            else:
                assert v.rank == max(ranks)
                if len(ranked) < 5:
                    # a stop comes only at a new best rank
                    assert ranks[ranked[-1]] == v.rank > before
                    stops += 1
        assert stops > 100

    def test_yes_at_the_first_sample_forms_its_residues_alone(self, monkeypatch):
        formed, residues = [], oracle._flag_residues

        def spy(borel, x, p=MOD_PRIME):
            formed.append(p)
            return residues(borel, x, p)

        monkeypatch.setattr(oracle, "_flag_residues", spy)
        full = FlagType(tuple(range(1, 8)), 8)
        v = is_spherical_flag(make_algebra("sl", 8), full, samples=20)
        assert v.kind == "Yes" and formed == [MOD_PRIME]

    def test_yes_at_the_first_sample_draws_its_point_alone(self, monkeypatch):
        drawn, draw = [], oracle.sample_flag_point

        def counted(*args):
            drawn.append(args[0])
            return draw(*args)

        monkeypatch.setattr(oracle, "sample_flag_point", counted)
        full = FlagType(tuple(range(1, 8)), 8)
        v = is_spherical_flag(make_algebra("sl", 8), full, samples=1000)
        assert v.kind == "Yes" and drawn == [full]

    def test_a_module_yes_at_the_first_sample_draws_one_point(self, monkeypatch):
        calls = self._record(monkeypatch)
        factors, spec = parse_algebra_module("sl(3) on C3")
        v = is_spherical_module([make_algebra(*f) for f in factors], spec, samples=1000)
        call = calls[-1]
        assert v.kind == "Yes" and v.certificate is call["drawn"][0]
        assert len(call["drawn"]) == 1
        assert (call["ranked"], call["formed"]) == ([0], [])

    @pytest.mark.parametrize("seed, stop", [(4, 2), (18, 3)])
    def test_a_module_scan_draws_up_to_its_stop(self, monkeypatch, seed, stop):
        # at box 1 many points of so(5) on C5+C5 rank below R = 7; the
        # first of these seeds' samples to reach it is `stop`, and the scan
        # draws and ranks that sample and those before it, and no more
        monkeypatch.setattr(oracle, "COEFF_BOX", 1)
        calls = self._record(monkeypatch)
        factors, spec = parse_algebra_module("so(5) on C5+C5")
        v = is_spherical_module([make_algebra(*f) for f in factors], spec, seed=seed)
        call = calls[-1]
        rng = np.random.default_rng(seed)
        points = [rng.integers(-1, 2, size=10).tolist() for _ in range(5)]
        ranks = [rank_modp(call["point_rows"](w, MOD_PRIME)) for w in points]
        assert ranks.index(7) == stop
        assert (v.kind, v.rank, v.target) == ("ProbablyNo", 7, 10)
        assert call["drawn"] == points[: stop + 1]
        assert (call["ranked"], call["formed"]) == (list(range(stop + 1)), [])

    @pytest.mark.parametrize("cases", ["_pair_cases", "_criterion_cases"])
    def test_bareiss_runs_once_and_only_without_a_stop(self, monkeypatch, cases):
        calls = self._record(monkeypatch)
        stops = ends = 0
        for k, flag in getattr(self, cases)():
            v = is_spherical_flag(k, flag, 5, 3)
            call = calls[-1]
            # Bareiss runs exactly when exact rows were formed, on them
            assert len(call["bareiss"]) == len(call["formed"]) <= 1
            assert call["bareiss"] == [r.tolist() for r in call["rows"]]
            stops += v.kind == "ProbablyNo" and not call["formed"]
            ends += bool(call["formed"])
        assert stops > 100 and ends > 10

    def test_bareiss_turns_a_scan_without_a_stop_into_a_yes(self, monkeypatch):
        # the full flag of C^8 is spherical for sl(8) at its first sample;
        # one mod-p rank short, every sample ranks below both the target
        # 28 and R = 35, so the scan ends without a stop and Bareiss finds
        # the Yes at the first best sample (ties never replace it)
        calls = self._record(monkeypatch)
        monkeypatch.setattr(oracle, "rank_modp", lambda a: rank_modp(a) - 1)
        full = FlagType(tuple(range(1, 8)), 8)
        v = is_spherical_flag(make_algebra("sl", 8), full)
        assert (v.kind, v.rank, v.target) == ("Yes", 28, 28)
        first = sample_flag_point(full, np.random.default_rng(0))
        assert v.certificate.g == first.g
        assert calls[-1]["ranked"] == list(range(5))
        assert calls[-1]["formed"] == [0] and len(calls[-1]["bareiss"]) == 1

    def test_module_with_empty_kernel_needs_no_bareiss(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("Bareiss ran")

        monkeypatch.setattr(oracle, "rank_exact", refuse)
        factors, spec = parse_algebra_module("so(5) on C5+C5")
        v = is_spherical_module([make_algebra(*f) for f in factors], spec)
        assert (v.kind, v.rank, v.target) == ("ProbablyNo", 7, 10)

    @pytest.mark.parametrize(
        "text, rank, target",
        [
            ("sl(10) on C10+C10+C10", 27, 30),
            ("so(16) on C16+C16", 29, 32),
            ("sp(16) on C16+C16", 31, 32),
        ],
    )
    def test_module_without_a_stop_is_ranked_by_bareiss_once(
        self, monkeypatch, text, rank, target
    ):
        calls = self._record(monkeypatch)
        factors, spec = parse_algebra_module(text)
        v = is_spherical_module([make_algebra(*f) for f in factors], spec)
        assert (v.kind, v.rank, v.target) == ("ProbablyNo", rank, target)
        assert len(calls[-1]["ranked"]) == v.samples
        assert len(calls[-1]["bareiss"]) == 1
        assert self._check(calls, [v]) == (1, 0)

    def test_bareiss_raises_a_short_modular_rank_to_the_exact_rank(self, monkeypatch):
        # so(5) on C5+C5 stops at its first sample, whose mod-p rank is
        # R = 7; one mod-p rank short, no sample reaches R, so the scan ends
        # without a stop and Bareiss ranks the first best sample's rows at 7
        factors, spec = parse_algebra_module("so(5) on C5+C5")
        ks = [make_algebra(*f) for f in factors]
        calls = self._record(monkeypatch)
        stopped = is_spherical_module(ks, spec)
        assert calls[-1]["ranked"] == [0] and calls[-1]["bareiss"] == []
        monkeypatch.setattr(oracle, "rank_modp", lambda a: rank_modp(a) - 1)
        v = is_spherical_module(ks, spec)
        assert (v.kind, v.rank, v.target) == ("ProbablyNo", 7, 10)
        assert (stopped.kind, stopped.rank, stopped.target) == ("ProbablyNo", 7, 10)
        assert calls[-1]["ranked"] == list(range(5))
        assert calls[-1]["formed"] == [0] and len(calls[-1]["bareiss"]) == 1

    def test_bareiss_turns_a_module_scan_without_a_stop_into_a_yes(self, monkeypatch):
        # sl(4) on C4+C4* is spherical at its first sample; one mod-p rank
        # short, no sample reaches the target 8, and Bareiss finds the Yes
        # at the first best sample, whose point the first Yes carried
        factors, spec = parse_algebra_module("sl(4) on C4+C4*")
        ks = [make_algebra(*f) for f in factors]
        calls = self._record(monkeypatch)
        first = is_spherical_module(ks, spec)
        assert first.kind == "Yes" and calls[-1]["ranked"] == [0]
        monkeypatch.setattr(oracle, "rank_modp", lambda a: rank_modp(a) - 1)
        v = is_spherical_module(ks, spec)
        assert (v.kind, v.rank, v.target) == ("Yes", 8, 8)
        assert v.certificate == first.certificate
        assert calls[-1]["ranked"] == list(range(5))
        assert calls[-1]["formed"] == [0] and len(calls[-1]["bareiss"]) == 1


class TestMaxRank:
    """R, the rank of the Borel action itself: m minus the dimension of the
    v whose combination is scalar (flags) or zero (modules), counted as
    rank([Y; I]) - 1 or rank(Y) from linalg.rref."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_gl_loses_the_scalars_on_flags(self, n):
        borel = gl_borel(n)
        assert oracle._max_rank(borel, True) == len(borel) - 1
        assert oracle._max_rank(borel, False) == len(borel)

    @pytest.mark.parametrize(
        "tag, n", [("sl", 2), ("sl", 5), ("so", 3), ("so", 6), ("sp", 4), ("sp", 6)]
    )
    def test_semisimple_borels_act_faithfully(self, tag, n):
        borel = make_algebra(tag, n).borel_basis
        assert oracle._max_rank(borel, True) == len(borel)
        assert oracle._max_rank(borel, False) == len(borel)

    @pytest.mark.parametrize("scalars", [True, False])
    def test_duplicate_and_zero_elements_count_once(self, scalars):
        borel = gl_borel(4)
        padded = np.concatenate([borel, borel[:3], np.zeros((2, 4, 4), np.int64)])
        want = len(borel) - scalars
        assert oracle._max_rank(borel, scalars) == want
        assert oracle._max_rank(padded, scalars) == want

    def test_module_scalar_already_in_the_representation(self, monkeypatch):
        bounds, scan = [], oracle._scan

        def spy(borel, scalars, *rest):
            bounds.append((len(borel), oracle._max_rank(borel, scalars)))
            return scan(borel, scalars, *rest)

        monkeypatch.setattr(oracle, "_scan", spy)
        for text in ("gl(3) on C3+C3", "sl(3) on C3+C3"):
            factors, spec = parse_algebra_module(text)
            is_spherical_module([make_algebra(*f) for f in factors], spec)
        # gl(3) holds I already, so the appended scalar adds nothing: 7 - 1;
        # sl(3) plus I is faithful on C^6
        assert bounds == [(7, 6), (6, 6)]

    def test_empty_basis(self):
        empty = np.zeros((0, 3, 3), dtype=np.int64)
        assert oracle._max_rank(empty, True) == oracle._max_rank(empty, False) == 0

    def test_cached_by_contents(self):
        oracle._max_rank_of.cache_clear()
        borel = make_algebra("so", 7).borel_basis
        first = oracle._max_rank(borel, True)
        assert oracle._max_rank(np.array(borel), True) == first
        assert oracle._max_rank(borel, False) == first
        info = oracle._max_rank_of.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_a_yes_at_the_first_sample_never_computes_it(self, monkeypatch):
        asked, bound = [], oracle._max_rank

        def spy(borel, scalars):
            asked.append(scalars)
            return bound(borel, scalars)

        monkeypatch.setattr(oracle, "_max_rank", spy)
        full = FlagType(tuple(range(1, 8)), 8)
        assert is_spherical_flag(make_algebra("sl", 8), full, samples=20)
        factors, spec = parse_algebra_module("sl(3) on C3")
        assert is_spherical_module([make_algebra(*f) for f in factors], spec)
        assert asked == []
        full = FlagType((1, 2, 3), 4)
        v = is_spherical_flag(levi_borel(4, full), full, 5, 2)
        assert not v and asked == [True]


# one datum algebra per ambient for the sweep beyond tier-1
_RESIDUE_DATA = {
    8: ClassificationDatum((1,), [("sp", 4), ("sl", 3)], 1),
    9: ClassificationDatum((1,), [("so", 5), ("sl", 4)]),
    10: ClassificationDatum((1,), [("sp", 6), ("so", 3)], 1),
}


@pytest.mark.ci
def test_residues_match_the_definition_beyond_tier_1():
    # every flag of one, two or three steps at n = 8, 9, 10, under gl_n's
    # Borel and a datum algebra's: both modes of _flag_residues against
    # the full conjugation g^-1 y g
    start = time.perf_counter()
    rng = np.random.default_rng(38)
    checked = 0
    for n, datum in _RESIDUE_DATA.items():
        borels = [gl_borel(n), datum_algebra(datum).borel_basis]
        for length in (1, 2, 3):
            for dims in itertools.combinations(range(1, n), length):
                x = sample_flag_point(FlagType(dims, n), rng)
                for borel in borels:
                    want = _point_rows(borel, x)
                    assert _flag_residues(borel, x, None).tolist() == want, dims
                    assert _flag_residues(borel, x).tolist() == [
                        [e % MOD_PRIME for e in row] for row in want
                    ], dims
                    checked += 1
    assert checked == 2 * (63 + 92 + 129)
    assert time.perf_counter() - start < 60
