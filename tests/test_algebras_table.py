from fractions import Fraction

import numpy as np
import pytest

from lieclass import linalg
from lieclass.algebras import (
    MAX_MATRIX_SIZE,
    CatalogAlgebra,
    ModuleSpec,
    make_algebra,
    normalizer_dim,
    representation,
    summand_scalars,
    upper_pairs,
    _kron,
)
from lieclass.errors import BadParameter, TooLarge, UnrecognizedShape
from lieclass.oracle import is_spherical_module
from lieclass.rank import rank_exact
from lieclass.sphericaltable import (
    decompose_blocks,
    is_spherical_module_by_table,
)


class TestMakeAlgebra:
    def test_dimensions(self):
        assert make_algebra("gl", 3).dim == 9
        assert make_algebra("sl", 4).dim == 15
        assert make_algebra("so", 5).dim == 10
        assert make_algebra("sp", 6).dim == 21

    def test_closed_under_bracket(self):
        for tag, n in (("gl", 3), ("sl", 3), ("so", 4), ("sp", 4)):
            assert make_algebra(tag, n).check_closed()

    def test_not_closed(self):
        e01, e10 = ((0, 1), (0, 0)), ((0, 0), (1, 0))
        h, d = ((1, 0), (0, -1)), ((1, 0), (0, 0))
        meta = {"type": "test"}
        # [E01, E10] = H is missing from the span
        assert not CatalogAlgebra([e01, e10], [e01], 2, meta).check_closed()
        # a Borel of gl2 is not inside sl2
        sl2 = [h, e01, e10]
        assert not CatalogAlgebra(sl2, [d, e01], 2, meta).check_closed()
        # H listed twice
        assert not CatalogAlgebra(sl2 + [h], [h, e01], 2, meta).check_closed()
        assert CatalogAlgebra(sl2, [h, e01], 2, meta).check_closed()

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            make_algebra("sp", 5)
        with pytest.raises(BadParameter):
            make_algebra("so", 2)

    @pytest.mark.parametrize("k", [0, 1])
    def test_upper_pairs_are_built_once_and_read_only(self, k):
        for n in (1, 2, 5, MAX_MATRIX_SIZE):
            pairs = upper_pairs(n, k)
            assert pairs is upper_pairs(n, k)
            for got, want in zip(pairs, np.triu_indices(n, k)):
                assert np.array_equal(got, want) and got.dtype == want.dtype
                with pytest.raises(ValueError):
                    got[...] = 0

    @pytest.mark.parametrize("n", [2.5, 4.0, Fraction(4), "4"])
    def test_a_non_integer_size_raises(self, n):
        with pytest.raises(TypeError):
            make_algebra("sl", n)

    def test_a_numpy_integer_size_passes(self):
        k = make_algebra("sp", np.int64(4))
        assert type(k.n) is int and k.meta["factors"] == (("sp", 4),)

    def test_direct_sum(self):
        k = representation(
            [make_algebra("sl", 2), make_algebra("sp", 4)],
            ModuleSpec([("natural", 0), ("natural", 1)]),
        )
        assert k.n == 6
        assert k.dim == 3 + 10
        assert k.check_closed()

    def test_normalizer_of_sl_is_gl(self):
        assert normalizer_dim(make_algebra("sl", 3).basis) == 9

    def test_normalizer_dim(self):
        so3 = make_algebra("so", 3).basis
        assert normalizer_dim(so3) == 4  # so_3 plus scalars

    @pytest.mark.parametrize(
        "factors, summands, dim",
        [
            ([("so", 4)], [("natural", 0)], 7),
            ([("sp", 4)], [("natural", 0)], 11),
            # sl_3 on two copies of C^3: gl_2 on the multiplicities adds 4
            ([("sl", 3)], [("natural", 0), ("natural", 0)], 12),
        ],
    )
    def test_normalizer_ignores_dependent_generators(self, factors, summands, dim):
        """A repeated generator, a multiple of one and a repeated scalar only
        add rows already in the span of the others."""
        rep = representation(
            [make_algebra(*f) for f in factors], ModuleSpec(summands)
        )
        basis = [list(map(list, m)) for m in rep.basis]
        ident = linalg.identity(rep.n)
        doubled = [[2 * x for x in row] for row in basis[0]]
        assert normalizer_dim(basis) == dim
        assert normalizer_dim(basis + basis[:2] + [doubled]) == dim
        assert normalizer_dim(basis, [ident]) == normalizer_dim(basis, [ident, ident])
        assert normalizer_dim(rep.basis) == dim
        assert normalizer_dim(rep.basis, [doubled, ident]) == normalizer_dim(
            rep.basis, [ident]
        )


def _form_algebra(n, form, upper_only=False):
    """Reference: basis of {x : x^T F + F x = 0}, optionally intersected
    with upper triangular matrices, solved as an exact nullspace."""
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for a in range(n):
                # coefficient of x_{a i} in (x^T F)_{ij} is F[a][j]
                row[a * n + i] += form[a][j]
                # coefficient of x_{a j} in (F x)_{ij} is F[i][a]
                row[a * n + j] += form[i][a]
            rows.append(row)
    if upper_only:
        for a in range(n):
            for b in range(a):
                row = [0] * (n * n)
                row[a * n + b] = 1
                rows.append(row)
    return [[v[i * n : (i + 1) * n] for i in range(n)] for v in linalg.nullspace(rows)]


def _antidiagonal(n, signs):
    f = [[0] * n for _ in range(n)]
    for i in range(n):
        f[i][n - 1 - i] = signs[i]
    return f


class TestClosedFormBases:
    """The closed-form so_n and sp_n bases equal the solved form equations,
    element by element in order and sign, for the algebra and its Borel."""

    @pytest.mark.parametrize(
        "tag,n",
        [("so", n) for n in range(3, 17)] + [("sp", n) for n in range(2, 17, 2)],
    )
    def test_equal_to_the_nullspace(self, tag, n):
        signs = [1] * n if tag == "so" else [1] * (n // 2) + [-1] * (n // 2)
        form = _antidiagonal(n, signs)
        k = make_algebra(tag, n)
        assert k.basis.tolist() == _form_algebra(n, form)
        assert k.borel_basis.tolist() == _form_algebra(n, form, upper_only=True)


class TestRepresentation:
    def test_natural_plus_dual(self):
        k = make_algebra("sl", 3)
        rep = representation([k], ModuleSpec([("natural", 0), ("dual", 0)]))
        assert rep.n == 6
        assert rep.check_closed()

    def test_wedge_and_sym(self):
        k = make_algebra("gl", 4)
        assert representation([k], ModuleSpec([("wedge2", 0)])).n == 6
        assert representation([k], ModuleSpec([("sym2", 0)])).n == 10

    def test_tensor(self):
        ks = [make_algebra("sl", 2), make_algebra("sl", 3)]
        rep = representation(ks, ModuleSpec([("tensor", (0, "n"), (1, "n"))]))
        assert rep.n == 6
        assert rep.check_closed()

    def test_summand_scalars(self):
        spec = ModuleSpec([("natural", 0), ("trivial",)])
        ops = summand_scalars(spec, [3])
        assert len(ops) == 2
        assert rank_exact([linalg.flatten(m) for m in ops]) == 2


def _with_brackets(k):
    """k with its basis followed by its nonzero brackets [x_i, x_j], i < j,
    and the triples (i, j, index of the bracket) they come from."""
    x = k.basis
    triples, brackets = [], []
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            c = x[i] @ x[j] - x[j] @ x[i]
            if c.any():
                triples.append((i, j, len(x) + len(brackets)))
                brackets.append(c)
    return CatalogAlgebra([*x, *brackets], [], k.n, dict(k.meta)), triples


ONE_FACTOR = [("sl", 3), ("so", 4), ("sp", 4), ("gl", 3)]
HOMOMORPHISM_CASES = (
    [
        ([f], [(kind, 0)])
        for kind in ("natural", "dual", "sym2", "wedge2")
        for f in ONE_FACTOR
    ]
    # the natural summand keeps every image nonzero, so none is dropped
    + [([f], [("trivial",), ("natural", 0)]) for f in ONE_FACTOR]
    + [
        (pair, [("tensor", (0, a), (1, b))])
        for pair in ([("sl", 2), ("sp", 4)], [("gl", 2), ("so", 3)])
        for a in "nd"
        for b in "nd"
    ]
)


@pytest.mark.parametrize("factors, summands", HOMOMORPHISM_CASES)
def test_representation_is_a_lie_homomorphism(factors, summands):
    """rho([x, y]) = [rho x, rho y] for basis pairs of each factor, and the
    images of two factors commute."""
    probes = [_with_brackets(make_algebra(*f)) for f in factors]
    rho = representation([k for k, _ in probes], ModuleSpec(summands)).basis
    starts = np.cumsum([0] + [k.dim for k, _ in probes])
    assert len(rho) == starts[-1]
    for (_, triples), s in zip(probes, starts):
        for i, j, c in triples:
            x, y = rho[s + i], rho[s + j]
            assert np.array_equal(x @ y - y @ x, rho[s + c])
    if len(probes) == 2:
        x, y = rho[: starts[1], None], rho[None, starts[1] :]
        assert not (x @ y - y @ x).any()


@pytest.mark.parametrize("dual", ["n", "d"])
def test_tensor_of_a_factor_with_itself(dual):
    """x acts on C^n (x) C^n as x (x) 1 + 1 (x) x, with -x^T on a dual
    side; x -> x (x) 1 alone would also be a homomorphism."""
    k = make_algebra("sl", 3)
    rho = representation([k], ModuleSpec([("tensor", (0, "n"), (0, dual))])).basis
    one = np.eye(3, dtype=np.int64)
    for x, image in zip(k.basis, rho):
        y = -x.T if dual == "d" else x
        assert np.array_equal(image, np.kron(x, one) + np.kron(one, y))


@pytest.mark.parametrize("stack_side", ["left", "right"])
@pytest.mark.parametrize("sides", ["nn", "nd", "dn", "dd"])
def test_broadcast_kronecker_is_numpy_kron(stack_side, sides):
    """_kron of a stack and a matrix equals np.kron of each stack element,
    with the stack on either side, an identity of either size on the
    other, and -x^T for a dual side."""
    rng = np.random.default_rng(len(sides) + len(stack_side))
    x = rng.integers(-9, 10, size=(5, 3, 3))
    x = -x.transpose(0, 2, 1) if sides[0] == "d" else x
    y = rng.integers(-9, 10, size=(4, 4))
    y = -y.T if sides[1] == "d" else y
    for other in (y, np.eye(4, dtype=np.int64), np.eye(3, dtype=np.int64)):
        got = _kron(x, other) if stack_side == "left" else _kron(other, x)
        want = [np.kron(a, other) if stack_side == "left" else np.kron(other, a) for a in x]
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("sides", ["nn", "nd", "dn", "dd"])
def test_tensor_summand_is_numpy_kron(sides):
    """The tensor summand of two factors acts as x (x) 1 and 1 (x) y, with
    -x^T on a dual side, as np.kron builds them."""
    k, h = make_algebra("sl", 2), make_algebra("sp", 4)
    spec = ModuleSpec([("tensor", (0, sides[0]), (1, sides[1]))])
    rho = representation([k, h], spec).basis
    side = lambda x, c: -x.T if c == "d" else x  # noqa: E731
    want = [np.kron(side(x, sides[0]), np.eye(4, dtype=np.int64)) for x in k.basis]
    want += [np.kron(np.eye(2, dtype=np.int64), side(y, sides[1])) for y in h.basis]
    assert np.array_equal(rho, np.array(want))


class TestSizeBound:
    @pytest.mark.parametrize("tag", ["gl", "sl", "so", "sp"])
    def test_make_algebra_above_the_bound(self, tag):
        with pytest.raises(TooLarge):
            make_algebra(tag, MAX_MATRIX_SIZE + 2)

    def test_representation_above_the_bound(self):
        k = make_algebra("sl", 8)
        assert representation([k], ModuleSpec([("wedge2", 0)])).n == 28
        with pytest.raises(TooLarge):
            representation([k], ModuleSpec([("sym2", 0)]))


def table(fstr, summands, centers="entries", with_scalar=True):
    factors = [make_algebra(tag, n) for tag, n in fstr]
    return is_spherical_module_by_table(
        factors, ModuleSpec(summands), with_scalar=with_scalar, centers=centers
    )


class TestTableMatching:
    def test_fundamental_entries(self):
        assert table([("sl", 3)], [("natural", 0)]).entries == ("i-1",)
        assert table([("so", 5)], [("natural", 0)]).entries == ("i-2",)
        assert table([("sp", 4)], [("natural", 0)]).entries == ("i-3",)
        assert table([("sl", 3)], [("sym2", 0)]).entries == ("i-4",)

    def test_degenerate_aliases(self):
        # the wedge square of C4 is the so_6 natural module
        assert table([("sl", 4)], [("wedge2", 0)]).entries == ("i-2",)
        # the symmetric square of C2 is the so_3 (= sl_2 adjoint) module
        assert table([("sl", 2)], [("sym2", 0)]).spherical

    def test_tensor_entries(self):
        v = table(
            [("sl", 2), ("sl", 3)], [("tensor", (0, "n"), (1, "n"))]
        )
        assert v.spherical and v.entries == ("ii-1",)
        v = table(
            [("sl", 2), ("sp", 4)], [("tensor", (0, "n"), (1, "n"))]
        )
        assert v.spherical and v.entries == ("ii-3",)

    def test_reducible_entries(self):
        v = table([("sl", 3)], [("natural", 0), ("dual", 0)])
        assert v.spherical and v.entries == ("iii-3",)

    def test_not_in_table(self):
        v = table([("so", 5)], [("natural", 0), ("natural", 0)])
        assert not v.spherical and v.reason == "block not in table"

    @pytest.mark.parametrize(
        "centers, with_scalar", [("summand", True), ("", True), ("summands", False)]
    )
    def test_options_it_would_ignore_raise(self, centers, with_scalar):
        with pytest.raises(BadParameter):
            table([("so", 5)], [("natural", 0)], centers, with_scalar)

    def test_unrecognized_factor(self):
        rep = representation(
            [make_algebra("sl", 2)], ModuleSpec([("natural", 0)])
        )
        with pytest.raises(UnrecognizedShape):
            is_spherical_module_by_table([rep], ModuleSpec([("natural", 0)]))

    def test_blocks_split_by_shared_factors(self):
        factors = [make_algebra("sl", 2), make_algebra("sl", 3)]
        spec = ModuleSpec([("natural", 0), ("natural", 1)])
        blocks = decompose_blocks(factors, spec)
        assert len(blocks) == 2

    def test_summand_centers_upgrade(self):
        # two copies of the natural module need independent scalars
        factors = [make_algebra("sl", 3)]
        spec = [("natural", 0), ("natural", 0)]
        strict = table([("sl", 3)], spec, centers="entries", with_scalar=True)
        relaxed = table([("sl", 3)], spec, centers="summands")
        assert relaxed.spherical
        assert strict.entries == relaxed.entries == ("iii-2",)


def oracle_for_verdict(factors, spec, verdict, seed=0):
    """Oracle on exactly the group the table verdict speaks about."""
    rep = representation(list(factors), spec)
    basis = [list(map(list, m)) for m in rep.basis] + [
        list(map(list, m)) for m in verdict.center_ops
    ]
    borel = [list(map(list, m)) for m in rep.borel_basis] + [
        list(map(list, m)) for m in verdict.center_ops
    ]
    alg = CatalogAlgebra(basis, borel, rep.n, dict(rep.meta))
    return is_spherical_module(alg, with_scalar=False, samples=5, seed=seed)


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


class TestTableOracleAgreement:
    @pytest.mark.parametrize("fstr,summands", TABLE_CASES)
    def test_matched_group_agreement(self, fstr, summands):
        factors = [make_algebra(tag, n) for tag, n in fstr]
        spec = ModuleSpec(summands)
        verdict = is_spherical_module_by_table(factors, spec, centers="entries")
        oracle = oracle_for_verdict(factors, spec, verdict, seed=11)
        assert bool(verdict) == bool(oracle), (fstr, summands, verdict, oracle)

    def test_negative_case_agrees(self):
        factors = [make_algebra("so", 5)]
        spec = ModuleSpec([("natural", 0), ("natural", 0)])
        verdict = is_spherical_module_by_table(factors, spec)
        assert not verdict
        oracle = is_spherical_module(factors, spec, with_scalar=True, seed=3)
        assert not oracle


def _t(i, ci, j, cj):
    return ("tensor", (i, ci), (j, cj))


# one instance of every entry id _match_block can return
ENTRY_CASES = {
    "0": ([("sl", 1)], [("natural", 0)]),
    "i-1": ([("sl", 3)], [("natural", 0)]),
    "i-2": ([("so", 5)], [("natural", 0)]),
    "i-3": ([("sp", 4)], [("natural", 0)]),
    "i-4": ([("sl", 3)], [("sym2", 0)]),
    "i-5": ([("sl", 5)], [("wedge2", 0)]),
    "i-6": ([("sl", 6)], [("wedge2", 0)]),
    "ii-1": ([("sl", 2), ("sl", 3)], [_t(0, "n", 1, "n")]),
    "ii-2": ([("sl", 3), ("sl", 3)], [_t(0, "n", 1, "n")]),
    "ii-3": ([("sl", 2), ("sp", 4)], [_t(0, "n", 1, "n")]),
    "ii-4": ([("sl", 3), ("sp", 4)], [_t(0, "n", 1, "n")]),
    "ii-5": ([("sl", 5), ("sp", 4)], [_t(0, "n", 1, "n")]),
    "ii-6": ([("sl", 4), ("sp", 4)], [_t(0, "n", 1, "n")]),
    "iii-1": (
        [("sl", 3), ("sl", 3), ("sl", 2)], [_t(0, "n", 2, "n"), _t(1, "n", 2, "n")]
    ),
    "iii-2": ([("sl", 3)], [("natural", 0), ("natural", 0)]),
    "iii-3": ([("sl", 3)], [("natural", 0), ("dual", 0)]),
    "iii-4": ([("sl", 4)], [("natural", 0), ("wedge2", 0)]),
    "iii-5": ([("sl", 5)], [("natural", 0), ("wedge2", 0)]),
    "iii-6": ([("sl", 5)], [("dual", 0), ("wedge2", 0)]),
    "iii-7": ([("sl", 2), ("sl", 3)], [("natural", 0), _t(0, "n", 1, "n")]),
    "iii-8": ([("sl", 4), ("sl", 2)], [("natural", 0), _t(0, "n", 1, "n")]),
    "iii-9": ([("sl", 3), ("sl", 4)], [("natural", 0), _t(0, "d", 1, "n")]),
    "iii-10": ([("sl", 4), ("sl", 2)], [("natural", 0), _t(0, "d", 1, "n")]),
    "iii-11": (
        [("sl", 3), ("sp", 4), ("sl", 2)], [_t(0, "n", 2, "n"), _t(1, "n", 2, "n")]
    ),
    "iii-12": ([("sl", 2)], [("natural", 0), ("natural", 0)]),
    "iii-13": ([("sl", 3), ("sl", 3)], [("natural", 0), _t(0, "n", 1, "n")]),
    "iii-14": ([("sl", 3), ("sl", 2)], [("natural", 0), _t(0, "n", 1, "n")]),
    "iii-15": ([("sl", 2), ("sp", 4)], [("natural", 0), _t(0, "n", 1, "n")]),
    "iii-16": (
        [("sp", 4), ("sp", 4), ("sl", 2)], [_t(0, "n", 2, "n"), _t(1, "n", 2, "n")]
    ),
    "iii-17": (
        [("sl", 2), ("sl", 2), ("sl", 2)], [_t(0, "n", 2, "n"), _t(1, "n", 2, "n")]
    ),
}

# With only the centers attached to the entry (and the overall scalar)
# these instances are not spherical, and the oracle agrees on that group;
# with every summand scalar adjoined they are.
NOT_SPHERICAL_WITH_ENTRY_CENTERS = {
    "iii-2", "iii-8", "iii-12", "iii-13", "iii-14", "iii-15", "iii-16", "iii-17"
}


class TestEveryEntryId:
    """_match_block is the table's one statement: each id it can return is
    reached by an instance, whose verdict the oracle confirms on the
    matched group."""

    @pytest.mark.parametrize("centers", ["entries", "summands"])
    @pytest.mark.parametrize("eid", list(ENTRY_CASES))
    def test_instance_matches_its_id_and_the_oracle(self, eid, centers):
        fstr, summands = ENTRY_CASES[eid]
        factors = [make_algebra(tag, n) for tag, n in fstr]
        spec = ModuleSpec(summands)
        verdict = is_spherical_module_by_table(factors, spec, centers=centers)
        assert verdict.entries == (eid,)
        oracle = oracle_for_verdict(factors, spec, verdict, seed=11)
        assert bool(verdict) == bool(oracle), (verdict, oracle)
        spherical = centers == "summands" or eid not in NOT_SPHERICAL_WITH_ENTRY_CENTERS
        assert bool(verdict) == spherical
