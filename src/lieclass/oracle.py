"""Monte Carlo sphericity oracle via exact orbit dimensions.

A Borel orbit through a rational point has dimension equal to the rank of
an integer constraint matrix, so sphericity of a flag variety or module is
decided by sampling points and comparing the best rank against the variety
dimension; by Schwartz-Zippel a point drawn from the box [-COEFF_BOX,
COEFF_BOX] misses the generic rank only with small probability.  A rank
mod p can only undercount, so reaching the dimension mod p certifies a Yes
outright.

Every ProbablyNo reports the exact rank r at its best sample.  The columns
of the constraint matrix are the m Borel basis elements, and its kernel
over Q is the stabilizer algebra b_x of the point, so r = m - dim b_x.
Either the sample's mod-p rank reached R, the highest rank any point can
reach (below), or the scan ended without reaching it and the best
sample's rows are formed over Z and ranked by fraction-free Bareiss
elimination, which may still find a Yes.

Points on a flag variety G/P are sampled in its big cell N^-_P . P/P, the
open affine chart given by the Bruhat decomposition: g = L is unit lower
triangular, zero inside the diagonal blocks cut by the flag's steps, with
the entries below them drawn uniformly from the box; det g = 1
and g^-1 = L^-1 is again an integer matrix.  A factor U of the Borel would
not change any rank (the rows at L U are the rows at L under the
invertible Ad(U^-1) on g/p), so none is drawn.  For k blocks the entries
of L^-1 have degree at most k - 1 in the drawn entries, an r x r minor of
the constraint rows degree at most k r, and by Schwartz-Zippel one sample
misses the generic rank with probability at most k r / (2 COEFF_BOX + 1).

No point ranks above R, the rank of the Borel action itself: m minus
the dimension of the v whose Y = sum v_b y_b acts trivially at every
point (Y scalar on the flags, Y = 0 on the module), since every such v
lies in every point's stabilizer: R = rank(y_1, ..., y_m, I) - 1 on the
flags and rank(y_1, ..., y_m) on the module, counted once per Borel basis
from an exact echelon form (linalg.rref), cached by the basis' contents,
and computed only when the first sample is not a Yes.  The scan stops as
soon as a sample's mod-p rank r_p reaches R: then r_p is the exact rank,
an early stop is a certain No, and the samples left are neither drawn
nor ranked.  Only a scan that ends without a stop runs Bareiss, once, on
its best sample.

Every flag scan ranks one flag.  A product G/P x G/Q is asked through
the restriction identity c_B(G/P x G/Q) = c_{B_L}(G/P): the Borel B has
an open orbit on G/Q whose stabilizer is conjugate to the Borel B_L of
Q's Levi, so the scan ranks dim G/P rows over the Levi Borel's
sum b (b + 1) / 2 columns (b over Q's blocks).  The restricting flag is
the one with the smaller Levi Borel (product_flag_complexity).

One loop, _scan, answers flags and modules alike: it seeds the
generator, draws each sample's point when it reaches that sample, ranks
the point's rows mod p, and carries the point as a Yes certificate.  The
generator is sequential and the scan goes in order, so every sample gets
the point an up-front draw would give it, and a call that stops at
sample i draws i + 1 points.  The Borel basis enters as one read-only
int64 (m, n, n) array: an algebra's own borel_basis, algebras.gl_borel(n),
built once per n, or a row selection of it for a Levi; a bare Borel
basis is read with np.asarray; a Levi's row selection and a flag's chart
coordinates are built once per shape and cached.  On a flag,
_flag_residues conjugates the basis by the sample's point: g^-1 y g =
L^-1 (y L) for the whole Borel basis is one (n, m, dmax) array, L^-1 is
applied one diagonal block at a time (L is the identity inside each
block, so k blocks take k - 1 matmul steps), and the rows are gathered at
the chart coordinates, the entries of g^-1 y g that must vanish, so the
flag gives dim G/P rows.  Mod MOD_PRIME every product is a box-sized
entry of L times a residue, and a step adds at most n - 1 of them to a
residue (no int64 overflow at n <= MAX_MATRIX_SIZE, asserted below); the
same steps over Python ints give the exact rows.  A Yes or an
early stop at the first sample pays for that sample's residues alone (and
R, for a stop, unless cached).  Exact integers appear in three places
only: R's echelon form, the point g, g^-1 of a Yes certificate, formed
from L when read, and the exact rows of the best sample of a scan that
does not stop early, which Bareiss ranks, read as Python ints
(.tolist()).  On a module a sample's rows are the int64 product of the
Borel basis with the point w, exact since every partial sum stays below
2^63 (checked before the scan); rank_modp reduces them and Bareiss reads
the same rows.  A call whose int64 residues, summed over its samples,
would pass MAX_CELLS is refused with TooLarge before anything is drawn.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import index

import numpy as np

from . import linalg
from .algebras import (
    MAX_MATRIX_SIZE,
    CatalogAlgebra,
    ModuleSpec,
    check_matrix_size,
    gl_borel,
    representation,
    upper_pairs,
)
from .errors import (
    BadParameter,
    BadSampleCount,
    DimensionMismatch,
    NoMatrixModel,
    TooLarge,
)
from .partitions import FlagType
from .rank import MOD_PRIME, rank_exact, rank_modp

COEFF_BOX = 10_000
DEFAULT_SAMPLES = 5
MAX_SAMPLES = 1000
# int64 cells of the residue arrays of one call, summed over its samples
# (64 MB); the scan forms them one sample at a time, so this bounds work
MAX_CELLS = 2**23
# a block step of _flag_residues adds at most n - 1 products of an entry
# of L and a residue to a residue, n <= MAX_MATRIX_SIZE
assert MAX_MATRIX_SIZE * COEFF_BOX * MOD_PRIME < 2**63


def _check_cells(cells):
    if cells > MAX_CELLS:
        raise TooLarge("%d int64 cells exceed the bound %d" % (cells, MAX_CELLS))


def _check_draws(samples, seed):
    """The sample count, read with operator.index (a float, Fraction or str
    raises TypeError), after the checks on it and on the seed."""
    samples = index(samples)
    if samples < 1:
        raise BadSampleCount("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise TooLarge("samples must be <= %d" % MAX_SAMPLES)
    if index(seed) < 0:
        raise BadParameter("seed must be >= 0, got %d" % seed)
    return samples


class FlagPoint:
    """A sampled point of a flag variety, stored as its int64 chart factor
    g = L (``lower``), unit lower triangular: the first d columns of g span
    the subspace of dimension d of each step.  g and g^-1 = L^-1 are exact
    views, nested lists of Python ints formed when read."""

    __slots__ = ("ambient", "dims", "lower")

    def __init__(self, flag: FlagType, lower):
        self.ambient = flag.ambient
        self.dims = tuple(flag.dims)
        self.lower = lower

    @classmethod
    def standard(cls, flag: FlagType):
        return cls(flag, np.eye(flag.ambient, dtype=np.int64))

    @property
    def g(self):
        return self.lower.tolist()

    @property
    def g_inv(self):
        return linalg.invert_unit_lower(self.g)

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


def sample_flag_point(flag: FlagType, rng) -> FlagPoint:
    """A random point g = L of the big cell N^-_P . P/P of the flag
    variety: unit lower triangular, zero inside the diagonal blocks cut by
    the steps, and the entries below them drawn from the box row by row in
    one vector draw (the same stream as one scalar draw per entry).

    The rank at L U equals the rank at L for any U in the Borel, and the
    within-block part of a unit lower matrix lies in P, so nothing else is
    drawn.  For k blocks an r x r minor of the constraint rows has degree
    at most k r in the drawn entries, so by Schwartz-Zippel the point
    misses the generic rank with probability at most k r / (2 box + 1)."""
    chart = _chart(flag.ambient, flag.dims)[0]
    lower = _identity(flag.ambient).copy()
    lower.flat[chart] = rng.integers(-COEFF_BOX, COEFF_BOX + 1, size=len(chart))
    return FlagPoint(flag, lower)


@lru_cache(maxsize=64)
def _identity(n):
    """The read-only int64 identity of size n, copied by every point."""
    one = np.eye(n, dtype=np.int64)
    one.flags.writeable = False
    return one


@lru_cache(maxsize=1024)
def _chart(n, dims):
    """The chart entries of an n x n matrix, row by row: (i, j) with j
    below the last step d <= i, that is, below the diagonal blocks cut by
    the steps, as three read-only intp arrays: the flat indices i n + j,
    the rows i and the columns j.  The same entries of g^-1 y g are the
    ones the constraint rows read.  An entry holds at most 3 x 496 intp
    (12 KB, the full flag at n = MAX_MATRIX_SIZE), so the cache at most
    12 MB."""
    cuts = [max((d for d in dims if d <= i), default=0) for i in range(n)]
    rows = np.repeat(np.arange(n, dtype=np.intp), cuts)
    cols = np.concatenate([np.arange(c, dtype=np.intp) for c in cuts])
    chart = (rows * n + cols, rows, cols)
    for a in chart:
        a.flags.writeable = False
    return chart


def _flag_residues(borel, x, p=MOD_PRIME):
    """Constraint rows of the int64 (m, n, n) Borel basis at the flag point
    x, shape (dim G/P, m): int64 residues mod p, or for p None the exact
    rows, Python ints in an object array.

    One row per chart coordinate, row by row.  Entry (c, b) is the chart
    entry c of g^-1 y_b g = L^-1 (y_b L).  y fixes the flag iff every chart
    entry vanishes, so the kernel is the stabilizer and the rank the orbit
    dimension.  Only the columns k < dims[-1] of y L are formed (below the
    diagonal, L is zero in the columns of the last block), and L^-1 is
    applied one block at a time: L is the identity inside each diagonal
    block, so the rows of block [lo, d) are final once the blocks above
    have been subtracted, and one matmul subtracts L[d:, lo:d] times them
    from every row below.  Mod p each entry gains at most n - 1 products
    of an entry of L and a residue, so it stays in int64 while
    n * COEFF_BOX * p < 2^63.  For the exact rows the same steps run over
    Python ints: entries of L^-1 pass 2^63.
    """
    n = x.ambient
    _, rr, kk = _chart(n, x.dims)
    lower = x.lower
    if p is None:
        borel, lower = borel.astype(object), lower.astype(object)
    else:
        borel = borel % p
    # a[r, b, k] = (y_b L)[r, k], rows first: a step is one matmul on the
    # (n, m hi) view flat
    a = np.matmul(borel.transpose(1, 0, 2), lower[:, : x.dims[-1]])
    if p is not None:
        a %= p
    flat = a.reshape(n, -1)
    lo = 0
    for d in x.dims:
        flat[d:] -= np.matmul(lower[d:, lo:d], flat[lo:d])
        if p is not None:
            flat[d:] %= p
        lo = d
    return a[rr, :, kk]


def _borel_array(k, n):
    """The Borel basis of k (an algebra or a bare Borel basis) as an int64
    (m, n, n) array; it must act on C^n."""
    if isinstance(k, CatalogAlgebra):
        k = k.borel_basis
    borel = np.asarray(k, dtype=np.int64)
    if len(borel) and borel.shape[1:] != (n, n):
        raise DimensionMismatch(
            "Borel matrices of shape %r, the flag lives in C^%d"
            % (borel.shape[1:], n)
        )
    return borel.reshape(len(borel), n, n)


def borel_orbit_dim_at(b, x: FlagPoint):
    """Exact dimension of the orbit of the Borel b (an algebra or a bare
    Borel basis) through the flag x."""
    borel = _borel_array(b, x.ambient)
    return rank_exact(_flag_residues(borel, x, None).tolist())


def _scan(borel, scalars_act_trivially, target, draw, rows, samples, seed):
    """The one max-rank loop of every oracle question: modular rank per
    sample, Yes on certification, a certain No when a rank reaches R,
    otherwise the exact rank at the best sample by Bareiss.

    draw(rng) is the next sample's point, drawn when the scan reaches that
    sample from the generator seeded here, and rows(x, p) the constraint
    matrix at the point x, one column per element of the int64 Borel basis
    borel, as an integer array: for p = MOD_PRIME its entries mod p are the
    ones rank_modp ranks (a flag forms residues, a module its exact int64
    rows), and for p None it holds the exact integers (formed once, for
    the best sample of a scan that does not stop early).  A Yes carries
    its sample's point.  R, the highest rank any point can reach
    (_max_rank, with Y scalar when scalars_act_trivially, else 0), is
    asked for once, after the first sample if it is not a Yes, so a Yes at
    the first sample never computes it.

    Early stop: a sample whose mod-p rank r_p equals R ends the scan with
    ProbablyNo(r_p), without drawing or ranking the rest.  Every point's
    kernel contains the trivially acting v, so no point ranks above R: r_p
    = R is the exact rank, and since it is below the target (a Yes is
    checked first), no later sample can be a Yes or rank higher.  Otherwise
    every mod-p rank stays below R, and Bareiss ranks the exact rows of the
    best sample (the first to reach the highest mod-p rank), once: a rank
    it finds at the target is still a Yes, carrying that sample's point."""
    rng = np.random.default_rng(seed)
    best_rank = -1
    for idx in range(samples):
        x = draw(rng)
        rp = rank_modp(rows(x, MOD_PRIME))
        if rp >= target:
            return OracleVerdict("Yes", target, target, samples, seed, x)
        if not idx:
            bound = _max_rank(borel, scalars_act_trivially)
        if rp == bound:
            return OracleVerdict("ProbablyNo", rp, target, samples, seed)
        if rp > best_rank:
            best_rank, best = rp, x
    exact = rank_exact(rows(best, None).tolist())
    if exact >= target:
        return OracleVerdict("Yes", target, target, samples, seed, best)
    return OracleVerdict("ProbablyNo", exact, target, samples, seed)


def _max_rank(borel, scalars_act_trivially):
    """R = m - dim{v : Y = sum v_b y_b acts trivially}, the highest rank of
    the constraint rows at any point, for an int64 (m, n, n) Borel basis:
    Y scalar when scalars_act_trivially (flags), Y = 0 otherwise (a
    module).  On flags R = rank([b; I]) - 1.  Cached by the basis'
    shape, nonzero indices and values."""
    idx = np.flatnonzero(borel)
    vals = borel.ravel()[idx]
    return _max_rank_of(
        borel.shape, idx.tobytes(), vals.tobytes(), scalars_act_trivially
    )


@lru_cache(maxsize=1024)
def _max_rank_of(shape, idx, vals, scalars_act_trivially):
    """_max_rank on its cache key: the rank of [y_1 ... y_m | I] (or of
    [y_1 ... y_m]), one equation per nonzero matrix entry, less one for
    the I, whose kernel projects one to one onto the v in question."""
    m, n = shape[0], shape[-1]
    cols = np.zeros(m * n * n, dtype=np.int64)
    cols[np.frombuffer(idx, dtype=np.intp)] = np.frombuffer(vals, dtype=np.int64)
    cols = cols.reshape(m, n * n)
    if scalars_act_trivially:
        cols = np.vstack([cols, np.eye(n, dtype=np.int64).reshape(1, n * n)])
    rows = cols.T
    rows = rows[rows.any(axis=1)]
    return len(linalg.rref(rows.tolist())[1]) - scalars_act_trivially


def is_spherical_flag(
    k, flag: FlagType, samples=DEFAULT_SAMPLES, seed=0
) -> OracleVerdict:
    """Open-Borel-orbit test on the flag variety of `flag`: the Borel of k
    (an algebra or a bare Borel basis) acting on C^n, n the flag's
    ambient.  Every check comes before the first draw."""
    samples = _check_draws(samples, seed)
    n = flag.ambient
    check_matrix_size(n)
    borel = _borel_array(k, n)
    _check_cells(samples * len(borel) * n * flag.dims[-1])
    return _scan(
        borel,
        True,
        flag.dim(),
        partial(sample_flag_point, flag),
        partial(_flag_residues, borel),
        samples,
        seed,
    )


def is_spherical_module(
    k,
    spec: ModuleSpec = None,
    with_scalar=True,
    samples=DEFAULT_SAMPLES,
    seed=0,
) -> OracleVerdict:
    """Open-Borel-orbit test on the module itself: the span of b.w (plus w
    for the appended scalar) must be everything at some sampled w.

    k is either a list of factors with a ModuleSpec, or an already-built
    representation algebra (spec omitted)."""
    samples = _check_draws(samples, seed)
    if isinstance(k, CatalogAlgebra) and spec is None:
        rep = k
    elif spec is None:
        raise BadParameter("a module of factors needs a ModuleSpec, got none")
    else:
        factors = [k] if isinstance(k, CatalogAlgebra) else list(k)
        for f in factors:
            if f.meta["type"] not in ("gl", "sl", "so", "sp", "rep"):
                raise NoMatrixModel(
                    "no matrix model for factor type %r" % (f.meta["type"],)
                )
        rep = representation(factors, spec)
    n, borel = rep.n, rep.borel_basis
    if with_scalar:
        borel = np.concatenate([borel, np.eye(n, dtype=np.int64)[None]])
    _check_cells(samples * len(borel) * n)
    bmax = int(np.abs(borel).max(initial=0))
    if n * max(bmax, 1) * COEFF_BOX >= 2**63:
        raise TooLarge(
            "entries up to %d too large for int64 rows at dim %d" % (bmax, n)
        )
    return _scan(
        borel,
        False,
        n,
        lambda rng: rng.integers(-COEFF_BOX, COEFF_BOX + 1, size=n).tolist(),
        # row j, column b: (borel[b] . w)_j, every partial sum below 2^63
        lambda w, p: np.matmul(borel, w).T,
        samples,
        seed,
    )


def levi_borel(n, flag: FlagType):
    """Borel of the block-diagonal Levi cut out by the steps of a flag: the
    units E_ij of gl_borel(n) with i and j in one block, in its order, as a
    fresh array."""
    if flag.ambient != n:
        raise DimensionMismatch("flag ambient does not match n")
    return gl_borel(n)[_levi_rows(n, flag.steps)]


@lru_cache(maxsize=1024)
def _levi_rows(n, steps):
    """The positions in gl_borel(n) of the units inside one block of the
    steps, as a read-only intp array: at most 528 entries (4.2 KB) at n =
    MAX_MATRIX_SIZE, so the cache at most 4.3 MB."""
    block = np.repeat(np.arange(len(steps)), steps)
    i, j = upper_pairs(n)
    rows = np.flatnonzero(block[i] == block[j])
    rows.flags.writeable = False
    return rows


def _levi_borel_dim(flag: FlagType):
    """Dimension of levi_borel(n, flag): sum b (b + 1) / 2 over its blocks b."""
    return sum(b * (b + 1) // 2 for b in flag.steps)


def _levi_verdict(g_n, f1, f2, samples, seed):
    """The scan of f1 under the Borel of f2's Levi.  The checks keep the
    order of the other flag entry points: samples and seed, both ambients,
    the size bound, and only then the Levi Borel is built."""
    samples = _check_draws(samples, seed)
    if f1.ambient != g_n or f2.ambient != g_n:
        raise DimensionMismatch("flag ambients must equal %d" % g_n)
    check_matrix_size(g_n)
    return is_spherical_flag(levi_borel(g_n, f2), f1, samples, seed)


def product_flag_complexity(
    g_n, f1: FlagType, f2: FlagType, samples=DEFAULT_SAMPLES, seed=0
):
    """Complexity of the gl_n Borel acting diagonally on pairs of flags,
    computed as a Levi complexity.

    B has an open orbit B w_0 Q on G/Q, whose stabilizer is conjugate to the
    Borel of Q's Levi, so c_B(G/P x G/Q) = c_{B_L}(G/P): one flag's dim G/P
    rows over sum b (b + 1) / 2 columns, instead of both flags' rows over
    n (n + 1) / 2.  The restricting flag is the one with the smaller Levi
    Borel, f2 on a tie, and the scan runs on its partner: on criterion 3 at
    n = 10 (samples 5, seed 99, 2 cores, median of 6) this order takes
    0.7 s and the other 1.9 s, with the same complexities."""
    x, y = (f2, f1) if _levi_borel_dim(f1) < _levi_borel_dim(f2) else (f1, f2)
    return _levi_verdict(g_n, x, y, samples, seed).complexity


def levi_flag_complexity(
    g_n, f1: FlagType, f2: FlagType, samples=DEFAULT_SAMPLES, seed=0
):
    """Complexity of f1 under the Borel of the Levi attached to f2; equal to
    the product complexity by the restriction identity."""
    return _levi_verdict(g_n, f1, f2, samples, seed).complexity
