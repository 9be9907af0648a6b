"""Monte Carlo sphericity oracle via exact orbit dimensions.

A Borel orbit through a rational point has dimension equal to the rank of
an integer constraint matrix, so sphericity of a flag variety or module is
decided by sampling points and comparing the best rank against the variety
dimension; by Schwartz-Zippel a point drawn from the coefficient box misses
the generic rank only with small probability.  A rank mod p can only
undercount, so reaching the dimension mod p certifies a Yes outright, and
the single best sample of a failing run is recomputed with exact Bareiss
elimination, so every reported rank is exact.

Points on a flag variety are sampled as g = L U with unit triangular
integer L, U whose off-diagonal entries are drawn uniformly from the
coefficient box; det g = 1.  The flag entry points form the constraint rows
of all samples of one call at once, as int64 residues mod MOD_PRIME:
g^-1 y g = U^-1 L^-1 (y L U) for the whole Borel basis is one
(samples, m, n, dmax) array, L^-1 and U^-1 are applied by forward and back
substitution so that every product is a box-sized entry of L or U times a
residue (no int64 overflow), and the rows are gathered through an index
fixed by the flag.  Exact integers remain in two places only: the point
g, g^-1 of a Yes certificate or of the best failing sample, formed from
L and U when first read, and that failing sample's rows for Bareiss, built
from the nonzero entries of each Borel matrix.  The module oracle keeps
exact rows throughout and reduces them mod p per sample.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from . import linalg
from .algebras import CatalogAlgebra, ModuleSpec, representation
from .errors import (
    BadSampleCount,
    DimensionMismatch,
    NoMatrixModel,
    TooLarge,
)
from .partitions import FlagType
from .rank import MOD_PRIME, rank_exact, rank_modp, reduce_mod

COEFF_BOX = 10_000
DEFAULT_SAMPLES = 5


class FlagPoint:
    """A flag given by an invertible integer matrix: the first n_i columns
    of g span the i-th subspace.

    A sampled point keeps the int64 factors of g = L U (``lower``,
    ``upper``) and forms the exact g and g^-1 from them when first read."""

    __slots__ = ("ambient", "dims", "lower", "upper", "_g", "_g_inv")

    def __init__(self, ambient, dims, g, g_inv=None):
        if g_inv is None:
            raise DimensionMismatch("g_inv required")
        self.ambient = ambient
        self.dims = tuple(dims)
        self.lower = self.upper = None
        self._g = [list(row) for row in g]
        self._g_inv = [list(row) for row in g_inv]

    @classmethod
    def standard(cls, flag: FlagType):
        n = flag.ambient
        ident = linalg.identity(n)
        return cls(n, flag.dims, ident, ident)

    @classmethod
    def from_factors(cls, flag: FlagType, lower, upper):
        """The point g = lower @ upper, for unit lower and upper triangular
        integer arrays."""
        x = cls.__new__(cls)
        x.ambient = flag.ambient
        x.dims = tuple(flag.dims)
        x.lower, x.upper = lower, upper
        x._g = x._g_inv = None
        return x

    def _exact(self):
        if self._g is None:
            lo, up = self.lower.tolist(), self.upper.tolist()
            self._g = linalg.matmul(lo, up)
            self._g_inv = linalg.matmul(
                linalg.invert_unit_upper(up), linalg.invert_unit_lower(lo)
            )

    @property
    def g(self):
        self._exact()
        return self._g

    @property
    def g_inv(self):
        self._exact()
        return self._g_inv

    def __repr__(self):
        return "FlagPoint(n=%d, dims=%r)" % (self.ambient, self.dims)


class OracleVerdict:
    """Yes carries a certificate point; ProbablyNo carries replay data."""

    __slots__ = ("kind", "rank", "target", "samples", "seed", "certificate")

    def __init__(self, kind, rank, target, samples, seed, certificate=None):
        self.kind = kind  # "Yes" | "ProbablyNo"
        self.rank = rank
        self.target = target
        self.samples = samples
        self.seed = seed
        self.certificate = certificate

    @property
    def complexity(self):
        return self.target - self.rank

    def __bool__(self):
        return self.kind == "Yes"

    def __repr__(self):
        return "OracleVerdict(%s, rank=%d/%d, samples=%r, seed=%r)" % (
            self.kind,
            self.rank,
            self.target,
            self.samples,
            self.seed,
        )


@lru_cache(maxsize=None)
def _below_diagonal(n):
    """Flat indices of the entries below the diagonal of an n x n matrix,
    row by row."""
    below = np.array([i * n + j for i in range(n) for j in range(i)], dtype=np.intp)
    below.flags.writeable = False
    return below


def _unit_lower(n, rng, box):
    """Unit lower triangular int64 matrix.  The entries below the diagonal
    come row by row from one vector draw, the same stream as one scalar
    draw per entry."""
    below = _below_diagonal(n)
    m = np.eye(n, dtype=np.int64)
    m.flat[below] = rng.integers(-box, box + 1, size=len(below))
    return m


def sample_flag_point(flag: FlagType, rng, box=COEFF_BOX) -> FlagPoint:
    """A random point g = L U: L is drawn first, then U (as the transpose
    of a unit lower matrix)."""
    n = flag.ambient
    lo = _unit_lower(n, rng, box)
    up = _unit_lower(n, rng, box).T
    return FlagPoint.from_factors(flag, lo, up)


def _borel_of(b):
    if isinstance(b, CatalogAlgebra):
        return list(b.borel_basis)
    return list(b)


@lru_cache(maxsize=4096)
def _row_index(n, dims):
    """Entries (r, k) of g^-1 y g that must vanish for y to fix the flag,
    k < d <= r for each step d (blocks of different steps overlap), as a
    tuple of pairs and as gather arrays."""
    pairs = tuple((r, k) for d in dims for r in range(d, n) for k in range(d))
    rr = np.array([r for r, _ in pairs], dtype=np.intp)
    kk = np.array([k for _, k in pairs], dtype=np.intp)
    rr.flags.writeable = kk.flags.writeable = False
    return pairs, rr, kk


def _constraint_rows(borel_mats, x: FlagPoint):
    """Rows of the map  coefficients -> violated flag-stability entries.

    y fixes the flag iff (g^-1 y g) keeps every coordinate subspace
    span(e_0..e_{d-1}); the rank of these rows is the orbit dimension.
    Exact integers: entry (r, k) is summed over the nonzero y[i][j] only,
    and only for the (r, k) that some row needs.
    """
    pairs = _row_index(x.ambient, x.dims)[0]
    g, g_inv = x.g, x.g_inv
    terms = [
        (b, i, j, v)
        for b, y in enumerate(borel_mats)
        for i, row in enumerate(y)
        for j, v in enumerate(row)
        if v
    ]
    entries = {}
    for r, k in pairs:
        if (r, k) not in entries:
            gr, gk = g_inv[r], [row[k] for row in g]
            out = [0] * len(borel_mats)
            for b, i, j, v in terms:
                out[b] += v * gr[i] * gk[j]
            entries[r, k] = out
    return [list(entries[rk]) for rk in pairs]


def _flag_residues(borel, points, flags, p=MOD_PRIME):
    """Constraint rows of every sample mod p, shape (samples, rows, m).

    points[s] holds one sampled point per flag; the rows of the flags are
    stacked in order, each block ordered as in _constraint_rows.  Every
    product taken is a residue times an entry of the Borel basis, L or U,
    so it stays in int64 while n * box * p < 2^63.
    """
    n, m = flags[0].ambient, len(borel)
    if not m:
        rows = sum(len(_row_index(n, f.dims)[0]) for f in flags)
        return np.zeros((len(points), rows, 0), dtype=np.int64)
    borel = np.array(borel, dtype=np.int64).reshape(m, n, n) % p
    blocks = []
    for f, flag in enumerate(flags):
        _, rr, kk = _row_index(n, flag.dims)
        lower = np.stack([x[f].lower for x in points])
        upper = np.stack([x[f].upper for x in points])
        lo, hi = min(flag.dims), max(flag.dims)
        # Columns k < hi of y L U: U is upper triangular, so they need only
        # L[:, :hi] and U[:hi, :hi].
        a = np.matmul(borel, lower[:, None, :, :hi]) % p
        a = np.matmul(a, upper[:, None, :hi, :hi]) % p
        # L^-1 by forward substitution.
        for j in range(n - 1):
            a[:, :, j + 1 :] -= lower[:, None, j + 1 :, j, None] * a[:, :, j, None]
            a[:, :, j + 1 :] %= p
        # U^-1 by back substitution; rows r >= lo are all that is read.
        for j in range(n - 1, lo, -1):
            a[:, :, lo:j] -= upper[:, None, lo:j, j, None] * a[:, :, j, None]
            a[:, :, lo:j] %= p
        blocks.append(a[:, :, rr, kk].transpose(0, 2, 1))
    return np.concatenate(blocks, axis=1)


def borel_orbit_dim_at(b, x: FlagPoint):
    """Exact dimension of the orbit of the Borel b through the flag x."""
    borel = _borel_of(b)
    if borel and len(borel[0]) != x.ambient:
        raise DimensionMismatch(
            "Borel acts on C^%d, point lives in C^%d"
            % (len(borel[0]), x.ambient)
        )
    rows = _constraint_rows(borel, x)
    if not rows or not borel:
        return 0
    return rank_exact(rows)


def _scan(target, residues, exact_rows, certificate, samples, seed):
    """Shared max-rank loop: modular rank per sample, Yes on certification,
    exact recomputation at the best sample otherwise.

    residues(i) is the constraint matrix of sample i mod p, exact_rows(i)
    the same matrix over Z (asked for the best failing sample only), and
    certificate(i) the point a Yes at sample i carries."""
    best_rank, best_index = -1, -1
    for idx in range(samples):
        a = residues(idx)
        rp = rank_modp(a) if a.size else 0
        if rp >= target:
            return OracleVerdict(
                "Yes", target, target, samples, seed, certificate(idx)
            )
        if rp > best_rank:
            best_rank, best_index = rp, idx
    rows = exact_rows(best_index)
    exact = rank_exact(rows) if rows and rows[0] else 0
    if exact >= target:
        return OracleVerdict(
            "Yes", target, target, samples, seed, certificate(best_index)
        )
    return OracleVerdict("ProbablyNo", exact, target, samples, seed)


def _flag_verdict(borel, flags, samples, seed, box):
    """The one scan path of the flag entry points: the Borel acts
    diagonally on the product of the flag varieties of `flags` (all in
    C^n).  Each sample draws one point per flag, in order."""
    n = flags[0].ambient
    if n * max(box, 1) * MOD_PRIME >= 2**63:
        raise TooLarge(
            "coefficient box %d too large for int64 residues at n = %d" % (box, n)
        )
    rng = np.random.default_rng(seed)
    points = [
        tuple(sample_flag_point(f, rng, box) for f in flags)
        for _ in range(samples)
    ]
    residues = _flag_residues(borel, points, flags)

    def exact_rows(i):
        return [row for x in points[i] for row in _constraint_rows(borel, x)]

    certificates = points if len(flags) > 1 else [x for (x,) in points]
    return _scan(
        sum(f.dim() for f in flags),
        residues.__getitem__,
        exact_rows,
        certificates.__getitem__,
        samples,
        seed,
    )


def is_spherical_flag(
    k, flag: FlagType, samples=DEFAULT_SAMPLES, seed=0, box=COEFF_BOX
) -> OracleVerdict:
    if samples < 1:
        raise BadSampleCount("samples must be >= 1")
    borel = _borel_of(k)
    if borel and len(borel[0]) != flag.ambient:
        raise DimensionMismatch("algebra size does not match flag ambient")
    return _flag_verdict(borel, (flag,), samples, seed, box)


def complexity_flag(k, flag: FlagType, samples=DEFAULT_SAMPLES, seed=0, box=COEFF_BOX):
    return is_spherical_flag(k, flag, samples, seed, box).complexity


def is_spherical_module(
    k,
    spec: ModuleSpec = None,
    with_scalar=True,
    samples=DEFAULT_SAMPLES,
    seed=0,
    box=COEFF_BOX,
) -> OracleVerdict:
    """Open-Borel-orbit test on the module itself: the span of b.w (plus w
    for the appended scalar) must be everything at some sampled w.

    k is either a list of factors with a ModuleSpec, or an already-built
    representation algebra (spec omitted)."""
    if samples < 1:
        raise BadSampleCount("samples must be >= 1")
    if isinstance(k, CatalogAlgebra) and spec is None:
        rep = k
    else:
        factors = [k] if isinstance(k, CatalogAlgebra) else list(k)
        for f in factors:
            if f.meta["type"] not in ("gl", "sl", "so", "sp", "sum", "rep"):
                raise NoMatrixModel(
                    "no matrix model for factor type %r" % (f.meta["type"],)
                )
        rep = representation(factors, spec)
    borel = _borel_of(rep)
    if with_scalar:
        borel = borel + [linalg.identity(rep.n)]
    target = rep.n
    rng = np.random.default_rng(seed)
    points = [
        [int(rng.integers(-box, box + 1)) for _ in range(rep.n)]
        for _ in range(samples)
    ]

    @cache
    def rows_at(i):
        w = points[i]
        return [linalg.matvec(y, w) for y in borel]

    return _scan(
        target,
        lambda i: reduce_mod(rows_at(i)),
        rows_at,
        points.__getitem__,
        samples,
        seed,
    )


def _gl_borel(n):
    return [
        [[1 if (a, c) == (i, j) else 0 for c in range(n)] for a in range(n)]
        for i in range(n)
        for j in range(i, n)
    ]


def levi_borel(n, flag: FlagType):
    """Borel of the block-diagonal Levi cut out by the steps of a flag:
    upper-triangular inside each diagonal block."""
    if flag.ambient != n:
        raise DimensionMismatch("flag ambient does not match n")
    exts = (0,) + flag.dims + (n,)
    out = []
    for b in range(len(exts) - 1):
        lo, hi = exts[b], exts[b + 1]
        for i in range(lo, hi):
            for j in range(i, hi):
                m = [[0] * n for _ in range(n)]
                m[i][j] = 1
                out.append(m)
    return out


def product_flag_complexity(
    g_n, f1: FlagType, f2: FlagType, samples=DEFAULT_SAMPLES, seed=0, box=COEFF_BOX
):
    """Complexity of the gl_n Borel acting diagonally on pairs of flags."""
    if samples < 1:
        raise BadSampleCount("samples must be >= 1")
    if f1.ambient != g_n or f2.ambient != g_n:
        raise DimensionMismatch("flag ambients must equal g_n")
    return _flag_verdict(_gl_borel(g_n), (f1, f2), samples, seed, box).complexity


def levi_flag_complexity(
    g_n, f1: FlagType, f2: FlagType, samples=DEFAULT_SAMPLES, seed=0, box=COEFF_BOX
):
    """Complexity of f1 under the Borel of the Levi attached to f2; equal to
    the product complexity by the restriction identity."""
    if samples < 1:
        raise BadSampleCount("samples must be >= 1")
    if f1.ambient != g_n or f2.ambient != g_n:
        raise DimensionMismatch("flag ambients must equal g_n")
    return _flag_verdict(levi_borel(g_n, f2), (f1,), samples, seed, box).complexity
