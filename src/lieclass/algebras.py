"""Matrix models of the classical Lie algebras and their small modules.

All bases are integer matrices.  so_n and sp_n are realized through
ANTIDIAGONAL bilinear forms, so the intersection with upper-triangular
matrices is a genuine Borel subalgebra and no triangular decomposition has
to be computed.  Their bases are written down in closed form (_form_basis):
each equation of the form pairs two matrix entries, so no linear system
is solved.  Modules built from factors (naturals, duals, symmetric and
exterior squares, two-factor tensor products, trivial summands) are
assembled by pushing each factor's basis through the representation maps.
make_algebra, representation and the flag oracle refuse (TooLarge) any
size above MAX_MATRIX_SIZE before building a matrix.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import BadParameter, MismatchedSize, TooLarge
from .rank import rank_capped, rank_exact

# at the bound, `lieclass oracle --k 'sl(32)'` with the full flag takes
# about 1.3 s and 97 MB (2-core x86_64, Python 3.11)
MAX_MATRIX_SIZE = 32


def check_matrix_size(n):
    if n > MAX_MATRIX_SIZE:
        raise TooLarge("matrix size %d exceeds the bound %d" % (n, MAX_MATRIX_SIZE))


class CatalogAlgebra:
    """A Lie algebra of n x n integer matrices with a chosen Borel."""

    __slots__ = ("basis", "borel_basis", "n", "meta", "_borel_array")

    def __init__(self, basis, borel_basis, n, meta):
        self.basis = [tuple(tuple(row) for row in b) for b in basis]
        self.borel_basis = [tuple(tuple(row) for row in b) for b in borel_basis]
        self.n = n
        self.meta = meta
        self._borel_array = None

    @property
    def borel_array(self):
        """The Borel basis as one read-only int64 (m, n, n) array, built
        when first read and kept with the algebra."""
        if self._borel_array is None:
            a = np.array(self.borel_basis, dtype=np.int64).reshape(
                len(self.borel_basis), self.n, self.n
            )
            a.flags.writeable = False
            self._borel_array = a
        return self._borel_array

    @property
    def dim(self):
        return len(self.basis)

    @property
    def borel_dim(self):
        return len(self.borel_basis)

    def check_closed(self):
        """Basis and Borel basis independent and closed under commutator,
        Borel inside the algebra (test hook)."""
        both = [linalg.flatten(b) for b in self.basis + self.borel_basis]
        return (
            _closed(self.basis)
            and _closed(self.borel_basis)
            and rank_exact(both) == self.dim
        )

    def __repr__(self):
        return "CatalogAlgebra(%s, n=%d, dim=%d)" % (
            self.meta.get("type"),
            self.n,
            self.dim,
        )


def _closed(basis):
    """The basis is independent and its span holds every commutator of two
    basis elements."""
    vecs = [linalg.flatten(b) for b in basis]
    if rank_exact(vecs) != len(vecs):
        return False
    brackets = [
        linalg.flatten(linalg.commutator(a, b))
        for i, a in enumerate(basis)
        for b in basis[i + 1 :]
    ]
    return rank_exact(vecs + brackets) == len(vecs)


def _unit(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


def _form_basis(n, signs):
    """Basis of {x : x^T F + F x = 0} for the antidiagonal form
    F[i][n-1-i] = signs[i], and its Borel, in closed form.

    With i' = n-1-i the entries (i, j) of x^T F + F x read
    s_j' x_j'i + s_i x_i'j, so the equations pair x_ab with x_b'a' and
    x_b'a' = -s_a' s_b' x_ab.  Walking the flat index f = a n + b, a pair
    gives E_ab - s_a' s_b' E_b'a' at the later of its two indices, and an
    entry that is its own partner (b = a') is free exactly when
    s_a s_a' = -1, which for sp it always is.  Elements with a <= b are
    upper triangular and span the Borel."""
    basis, borel = [], []
    for a in range(n):
        for b in range(n):
            ra, rb = n - 1 - a, n - 1 - b
            partner = rb * n + ra
            if partner < a * n + b:
                m = _unit(n, a, b)
                m[rb][ra] = -signs[ra] * signs[rb]
            elif partner == a * n + b and signs[a] != signs[ra]:
                m = _unit(n, a, b)
            else:
                continue
            basis.append(m)
            if a <= b:
                borel.append(m)
    return basis, borel


def make_algebra(tag, n):
    n = int(n)
    check_matrix_size(n)
    if tag == "gl":
        if n < 1:
            raise BadParameter("gl needs n >= 1")
        basis = [_unit(n, i, j) for i in range(n) for j in range(n)]
        borel = [_unit(n, i, j) for i in range(n) for j in range(i, n)]
        rank = n
    elif tag == "sl":
        if n < 1:
            raise BadParameter("sl needs n >= 1")
        basis = [_unit(n, i, j) for i in range(n) for j in range(n) if i != j]
        diag = []
        for i in range(n - 1):
            h = _unit(n, i, i)
            h[i + 1][i + 1] = -1
            diag.append(h)
        basis += diag
        borel = [_unit(n, i, j) for i in range(n) for j in range(i + 1, n)] + diag
        rank = n - 1
    elif tag == "so":
        if n < 3:
            raise BadParameter("so needs n >= 3")
        basis, borel = _form_basis(n, [1] * n)
        rank = n // 2
    elif tag == "sp":
        if n < 2 or n % 2:
            raise BadParameter("sp needs even n >= 2")
        basis, borel = _form_basis(n, [1] * (n // 2) + [-1] * (n // 2))
        rank = n // 2
    else:
        raise BadParameter("unknown algebra tag %r" % (tag,))
    return CatalogAlgebra(
        basis, borel, n, {"type": tag, "rank": rank, "factors": ((tag, n),)}
    )


def _embed(m, size, offset):
    out = [[0] * size for _ in range(size)]
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            out[offset + i][offset + j] = x
    return out


def direct_sum(a: CatalogAlgebra, b: CatalogAlgebra) -> CatalogAlgebra:
    n = a.n + b.n
    basis = [_embed(m, n, 0) for m in a.basis] + [_embed(m, n, a.n) for m in b.basis]
    borel = [_embed(m, n, 0) for m in a.borel_basis] + [
        _embed(m, n, a.n) for m in b.borel_basis
    ]
    meta = {
        "type": "sum",
        "rank": a.meta["rank"] + b.meta["rank"],
        "factors": a.meta["factors"] + b.meta["factors"],
    }
    return CatalogAlgebra(basis, borel, n, meta)


# --- module construction -------------------------------------------------

_SYMBOL_SUMMANDS = ("trivial",)


def _norm_summand(s):
    """Accepts ('natural', i) | ('dual', i) | ('sym2', i) | ('wedge2', i)
    | ('trivial',) | ('tensor', i, j) | ('tensor', (i, 'n'|'d'), (j, 'n'|'d'))."""
    if s == ("trivial",) or s == "trivial":
        return ("trivial",)
    kind = s[0]
    if kind in ("natural", "dual", "sym2", "wedge2"):
        return (kind, int(s[1]))
    if kind == "tensor":
        a, b = s[1], s[2]
        if isinstance(a, int):
            a = (a, "n")
        if isinstance(b, int):
            b = (b, "n")
        return ("tensor", (int(a[0]), a[1]), (int(b[0]), b[1]))
    raise BadParameter("unknown summand %r" % (s,))


class ModuleSpec:
    """A direct sum of summands built from a list of factors."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = tuple(_norm_summand(s) for s in summands)

    def summand_dims(self, factor_sizes):
        out = []
        for s in self.summands:
            if s[0] == "trivial":
                out.append(1)
            elif s[0] in ("natural", "dual"):
                out.append(factor_sizes[s[1]])
            elif s[0] == "sym2":
                k = factor_sizes[s[1]]
                out.append(k * (k + 1) // 2)
            elif s[0] == "wedge2":
                k = factor_sizes[s[1]]
                out.append(k * (k - 1) // 2)
            else:
                out.append(factor_sizes[s[1][0]] * factor_sizes[s[2][0]])
        return out

    def dim(self, factor_sizes):
        return sum(self.summand_dims(factor_sizes))

    def __repr__(self):
        return "ModuleSpec(%r)" % (self.summands,)


def _dual_op(x):
    n = len(x)
    return [[-x[j][i] for j in range(n)] for i in range(n)]


def _sym2_op(x):
    n = len(x)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    idx = {p: k for k, p in enumerate(pairs)}
    d = len(pairs)
    out = [[0] * d for _ in range(d)]

    def add(a, b, col, coef):
        if a > b:
            a, b = b, a
        out[idx[(a, b)]][col] += coef

    for col, (a, b) in enumerate(pairs):
        for c in range(n):
            if x[c][a]:
                add(c, b, col, x[c][a])
            if x[c][b]:
                add(a, c, col, x[c][b])
    return out


def _wedge2_op(x):
    n = len(x)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    idx = {p: k for k, p in enumerate(pairs)}
    d = len(pairs)
    out = [[0] * d for _ in range(d)]

    def add(a, b, col, coef):
        if a == b:
            return
        if a > b:
            a, b = b, a
            coef = -coef
        out[idx[(a, b)]][col] += coef

    for col, (a, b) in enumerate(pairs):
        for c in range(n):
            if x[c][a]:
                add(c, b, col, x[c][a])
            if x[c][b]:
                add(a, c, col, x[c][b])
    return out


def _kron(a, b):
    na, nb = len(a), len(b)
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            if a[i][j]:
                for k in range(nb):
                    for l in range(nb):
                        if b[k][l]:
                            out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def _summand_op(x, factor_index, summand, factor_sizes):
    """Operator induced on one summand by basis element x of the given
    factor, or None if the factor does not act there."""
    kind = summand[0]
    if kind == "trivial":
        return None
    if kind in ("natural", "dual", "sym2", "wedge2"):
        if summand[1] != factor_index:
            return None
        if kind == "natural":
            return [list(r) for r in x]
        if kind == "dual":
            return _dual_op(x)
        if kind == "sym2":
            return _sym2_op(x)
        return _wedge2_op(x)
    (i, ci), (j, cj) = summand[1], summand[2]
    ni, nj = factor_sizes[i], factor_sizes[j]
    if factor_index == i:
        xi = _dual_op(x) if ci == "d" else [list(r) for r in x]
        return _kron(xi, linalg.identity(nj))
    if factor_index == j:
        xj = _dual_op(x) if cj == "d" else [list(r) for r in x]
        return _kron(linalg.identity(ni), xj)
    return None


def _assemble(ops_by_summand, dims):
    total = sum(dims)
    out = [[0] * total for _ in range(total)]
    off = 0
    for op, d in zip(ops_by_summand, dims):
        if op is not None:
            for i in range(d):
                for j in range(d):
                    out[off + i][off + j] = op[i][j]
        off += d
    return out


def representation(factors, spec: ModuleSpec) -> CatalogAlgebra:
    """Direct sum of factors acting on the module described by spec."""
    if isinstance(factors, CatalogAlgebra):
        factors = [factors]
    sizes = [f.n for f in factors]
    dims = spec.summand_dims(sizes)
    check_matrix_size(sum(dims))
    for s in spec.summands:
        for ref in _factor_refs(s):
            if ref >= len(factors):
                raise BadParameter("summand %r references missing factor" % (s,))

    def induce(fi, x):
        return _assemble(
            [_summand_op(x, fi, s, sizes) for s in spec.summands], dims
        )

    basis, borel = [], []
    for fi, f in enumerate(factors):
        for x in f.basis:
            m = induce(fi, x)
            if any(any(row) for row in m):
                basis.append(m)
        for x in f.borel_basis:
            m = induce(fi, x)
            if any(any(row) for row in m):
                borel.append(m)
    meta = {
        "type": "rep",
        "rank": sum(f.meta["rank"] for f in factors),
        "factors": tuple((f.meta["type"], f.n) for f in factors),
        "module": spec,
        "summand_dims": tuple(dims),
    }
    return CatalogAlgebra(basis, borel, sum(dims), meta)


def _factor_refs(summand):
    if summand[0] == "trivial":
        return ()
    if summand[0] == "tensor":
        return (summand[1][0], summand[2][0])
    return (summand[1],)


def summand_scalars(spec: ModuleSpec, factor_sizes):
    """One identity-on-summand operator per summand (the maximal torus of
    scalars commuting with the factor action)."""
    dims = spec.summand_dims(factor_sizes)
    total = sum(dims)
    out = []
    off = 0
    for d in dims:
        m = [[0] * total for _ in range(total)]
        for i in range(d):
            m[off + i][off + i] = 1
        out.append(m)
        off += d
    return out


def scalar_on_summands(spec: ModuleSpec, factor_sizes, weights):
    """Sum of weight_s * Id restricted to summand s."""
    scalars = summand_scalars(spec, factor_sizes)
    total = len(scalars[0])
    m = [[0] * total for _ in range(total)]
    for w, s in zip(weights, scalars):
        for i in range(total):
            m[i][i] += w * s[i][i]
    return m


# --- normalizer ----------------------------------------------------------


def _normalizer_system(mats, n):
    """Gram matrix of the linear system for the normalizer of U = span(mats)
    in gl_n.

    Returns (ann, gram).  ann is an integer basis of the annihilator of U
    (n^2 - dim U functionals), and x normalizes U exactly when f([x, s]) = 0
    for every generator s and every f in ann.  Those equations are the rows
    of a system A over the n^2 entries of x, one row per pair; every
    generator contributes rows, not only a basis of U (the rows of a
    dependent generator are combinations of rows already present).
    gram = A^T A has the same row space as A, because x^T A^T A x = |Ax|^2,
    so it has the same rank and nullspace while its size, n^2 x n^2, does
    not grow with the number of rows.  It is returned as lists of ints, and
    as [] when A has no rows (no generators, or U = gl_n).

    A is never formed: for each generator s the block F s^T - s^T F of its
    rows is formed in int64 (F is the stack of ann as n x n matrices), one
    term per nonzero entry of s, and block^T block is added in float64
    through BLAS, on the columns the block touches.  The float sum is exact
    while len(mats) * len(ann) * max|block entry|^2 < 2^53, because every
    product and every partial sum is then an integer below 2^53; TooLarge
    is raised beyond that bound, and when an int64 block entry could reach
    2 n max|f| max|s| >= 2^63."""
    ann = linalg.nullspace([linalg.flatten(m) for m in mats], n * n)
    if not mats or not ann:
        return ann, []
    fmax = max(abs(x) for f in ann for x in f)
    smax = max(abs(x) for s in mats for row in s for x in row)
    if 2 * n * fmax * smax >= 2**63:
        raise TooLarge("normalizer system entries overflow int64")
    terms = len(mats) * len(ann)
    fs = np.array(ann, dtype=np.int64).reshape(len(ann), n, n)
    gram = np.zeros((n * n, n * n))
    top = 0
    for s in mats:
        # F s^T - s^T F, one term per nonzero v = s[j][k]: it adds
        # v F[:, :, k] to column j of every f and subtracts v F[:, j, :]
        # from row k
        block = np.zeros_like(fs)
        for j, k in zip(*np.nonzero(s)):
            v = s[j][k]
            block[:, :, j] += v * fs[:, :, k]
            block[:, k, :] -= v * fs[:, j, :]
        block = block.reshape(len(ann), n * n)
        top = max(top, int(np.abs(block).max()))
        if terms * top * top >= 2**53:
            raise TooLarge("normalizer Gram entries exceed exact float64 sums")
        # only the columns the block touches change
        cols = np.flatnonzero(block.any(axis=0))
        sub = block[:, cols].astype(np.float64)
        gram[np.ix_(cols, cols)] += sub.T @ sub
    return ann, gram.astype(np.int64).tolist()


def normalizer_in_gl(k: CatalogAlgebra, extra_center=()) -> CatalogAlgebra:
    """Normalizer of span(k.basis + extra_center) in gl_n; its basis is the
    primitive integer nullspace basis of the normalizer system, read off the
    system's Gram matrix (same nullspace, and the basis is canonical, so it
    is the one the rows themselves give).  Raises TooLarge past the Gram
    matrix's exactness bound (see _normalizer_system)."""
    n = k.n
    for m in extra_center:
        if len(m) != n:
            raise MismatchedSize("extra center operator of wrong size")
    _, gram = _normalizer_system(list(k.basis) + list(extra_center), n)
    sol = linalg.nullspace(gram, n * n)
    basis = [[v[i * n : (i + 1) * n] for i in range(n)] for v in sol]
    meta = {"type": "normalizer", "rank": None, "factors": k.meta.get("factors")}
    return CatalogAlgebra(basis, [], n, meta)


class NormalizerDim(int):
    """The dimension of the normalizer of a span U in gl_n, an int that
    carries dim U as span_dim.  normalizer_dim reads both off one
    elimination, so a caller that compares them (the table's fixed-point
    test) eliminates U once."""

    def __new__(cls, dim, span_dim):
        self = super().__new__(cls, dim)
        self.span_dim = span_dim
        return self


def normalizer_dim(k_basis, extra_center=(), n=None):
    """dim of the normalizer of span(k_basis + extra_center) in gl_n, as a
    NormalizerDim whose span_dim is dim U = n^2 - len(ann).

    The span must be a Lie subalgebra (the table passes k plus central
    operators).  Then the normalizer contains it, so the system has rank
    at most n^2 - dim span = len(ann); a span found to break that bound is
    not bracket-closed, and CapExceeded is raised.  Its rank is that of
    its n^2 x n^2 Gram matrix, whose float64 assembly is exact below 2^53
    (TooLarge beyond; see _normalizer_system); the capped-rank fast path
    certifies the rank with the modular kernel alone, and exact Bareiss
    runs, on the Gram matrix, only when the normalizer is strictly larger
    than the span.
    """
    mats = list(k_basis) + list(extra_center)
    if mats:
        n = len(mats[0])
    ann, gram = _normalizer_system(mats, n)
    return NormalizerDim(n * n - rank_capped(gram, len(ann)), n * n - len(ann))
