"""Matrix models of the classical Lie algebras and their small modules.

Every basis is one read-only int64 array of shape (m, n, n), m integer
n x n matrices: CatalogAlgebra builds it once from what it is given, the
builders here form their matrices as arrays, and every consumer reads
them as they are.  The exact steps (independence and bracket checks, the
echelon form of a span) read the entries as Python ints through
.tolist(), never as int64 scalars, whose products could wrap.  The
normalizer's annihilator is read off that echelon form (linalg.rref) as
one int64 array (through linalg.nullspace when the entries of the echelon
form are too large for that), and its rows are formed in int64, each only
below a proven bound; rank_capped takes those rows as they are.
normalizer_dim solves only for the entries of x that commute with the
diagonal generators of the span.  so_n and sp_n are realized through
ANTIDIAGONAL bilinear forms, so the intersection with upper-triangular
matrices is a genuine Borel subalgebra and no triangular decomposition
has to be computed.
Their bases are written down in closed form (_form_basis): each equation
of the form pairs two matrix entries, so no linear system is solved.
Modules built from factors (naturals, duals, symmetric and exterior
squares, two-factor tensor products, trivial summands) are assembled by
pushing each factor's basis, as one stack, through the representation
maps into the diagonal blocks of the summands; x (x) 1 and 1 (x) x are
formed for the whole stack by broadcasting (_kron).  make_algebra,
representation and the flag oracle refuse (TooLarge) any size above
MAX_MATRIX_SIZE before building a matrix.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import index

import numpy as np

from . import linalg
from .errors import BadParameter, CapExceeded, MismatchedSize, TooLarge
from .rank import rank_capped, rank_exact

# at the bound, `lieclass oracle --k 'sl(32)'` with the full flag takes
# about 0.7 s and 60 MB peak RSS in a fresh process (2-core x86_64,
# Python 3.11.7, numpy 2.4.6)
MAX_MATRIX_SIZE = 32


def check_matrix_size(n):
    if n > MAX_MATRIX_SIZE:
        raise TooLarge("matrix size %d exceeds the bound %d" % (n, MAX_MATRIX_SIZE))


class CatalogAlgebra:
    """A Lie algebra of n x n integer matrices with a chosen Borel.

    basis and borel_basis are read-only int64 arrays of shape (m, n, n),
    built once by the constructor from nested lists, a list of arrays or
    an array, and read as they are by every consumer."""

    __slots__ = ("basis", "borel_basis", "n", "meta")

    def __init__(self, basis, borel_basis, n, meta):
        self.basis = _frozen(basis, n)
        self.borel_basis = _frozen(borel_basis, n)
        self.n = n
        self.meta = meta

    @property
    def dim(self):
        return len(self.basis)

    @property
    def borel_dim(self):
        return len(self.borel_basis)

    def check_closed(self):
        """Basis and Borel basis independent and closed under commutator,
        Borel inside the algebra (test hook)."""
        both = np.concatenate([self.basis, self.borel_basis])
        return (
            _closed(self.basis)
            and _closed(self.borel_basis)
            and rank_exact(_exact_rows(both)) == self.dim
        )

    def __repr__(self):
        return "CatalogAlgebra(%s, n=%d, dim=%d)" % (
            self.meta.get("type"),
            self.n,
            self.dim,
        )


def _frozen(mats, n):
    """A copy of the matrices as one read-only int64 (m, n, n) array."""
    a = np.array(mats, dtype=np.int64).reshape(len(mats), n, n)
    a.flags.writeable = False
    return a


def _exact_rows(mats):
    """The matrices of an (m, n, n) array as m flat rows of Python ints,
    the input of the exact eliminations (int64 products there could wrap)."""
    n = mats.shape[-1]
    return mats.reshape(len(mats), n * n).tolist()


def _closed(basis):
    """The basis is independent and its span holds every commutator of two
    basis elements, formed over Python ints."""
    vecs = _exact_rows(basis)
    if rank_exact(vecs) != len(vecs):
        return False
    x = basis.astype(object)
    brackets = [
        row
        for i in range(len(x))
        for row in _exact_rows(x[i] @ x[i + 1 :] - x[i + 1 :] @ x[i])
    ]
    return rank_exact(vecs + brackets) == len(vecs)


def _units(n, i, j):
    """The matrix units E_ij, one per index pair, as an int64 (m, n, n)
    array."""
    out = np.zeros((len(i), n, n), dtype=np.int64)
    out[np.arange(len(i)), i, j] = 1
    return out


@lru_cache(maxsize=64)
def gl_borel(n):
    """The Borel of gl_n, the matrix units E_ij with i <= j row by row, as
    one read-only int64 (m, n, n) array: make_algebra("gl", n) and the flag
    oracle's product and Levi Borels read it."""
    units = _units(n, *np.triu_indices(n))
    units.flags.writeable = False
    return units


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
    s = np.array(signs, dtype=np.int64)
    a, b = np.divmod(np.arange(n * n), n)
    ra, rb = n - 1 - a, n - 1 - b
    flat, partner = a * n + b, rb * n + ra
    paired = partner < flat
    keep = paired | ((partner == flat) & (s[a] != s[ra]))
    a, b, ra, rb, paired = a[keep], b[keep], ra[keep], rb[keep], paired[keep]
    basis = _units(n, a, b)
    e = np.flatnonzero(paired)
    basis[e, rb[e], ra[e]] = -s[ra[e]] * s[rb[e]]
    return basis, basis[a <= b]


def make_algebra(tag, n):
    n = index(n)
    check_matrix_size(n)
    if tag in ("gl", "sl") and n < 1:
        raise BadParameter("%s needs n >= 1" % tag)
    if tag == "gl":
        basis = _units(n, *np.divmod(np.arange(n * n), n))
        borel = gl_borel(n)
        rank = n
    elif tag == "sl":
        i, j = np.divmod(np.arange(n * n), n)
        d = np.arange(n - 1)
        diag = _units(n, d, d)
        diag[d, d + 1, d + 1] = -1
        basis = np.concatenate([_units(n, i[i != j], j[i != j]), diag])
        borel = np.concatenate([_units(n, *np.triu_indices(n, 1)), diag])
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


def direct_sum(a: CatalogAlgebra, b: CatalogAlgebra) -> CatalogAlgebra:
    n = a.n + b.n

    def blocks(x, y):
        out = np.zeros((len(x) + len(y), n, n), dtype=np.int64)
        out[: len(x), : a.n, : a.n] = x
        out[len(x) :, a.n :, a.n :] = y
        return out

    meta = {
        "type": "sum",
        "rank": a.meta["rank"] + b.meta["rank"],
        "factors": a.meta["factors"] + b.meta["factors"],
    }
    return CatalogAlgebra(
        blocks(a.basis, b.basis), blocks(a.borel_basis, b.borel_basis), n, meta
    )


# --- module construction -------------------------------------------------

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


def _square_ops(x, symmetric):
    """Operators induced on S^2 C^n (symmetric) or wedge^2 C^n by each
    matrix of the stack x.  x acts on C^n (x) C^n as x (x) 1 + 1 (x) x; the
    basis vector e_a e_b (a <= b) or e_a ^ e_b (a < b) is the image of
    e_a (x) e_b, and e_c (x) e_d maps to e_c e_d = e_d e_c, or to
    e_c ^ e_d = -e_d ^ e_c (zero for c = d)."""
    n = x.shape[-1]
    a, b = np.triu_indices(n, 0 if symmetric else 1)
    one = np.eye(n, dtype=np.int64)
    fold = np.zeros((len(a), n * n), dtype=np.int64)
    fold[np.arange(len(a)), b * n + a] = 1 if symmetric else -1
    fold[np.arange(len(a)), a * n + b] = 1
    return fold @ (_kron(x, one) + _kron(one, x))[:, :, a * n + b]


def _kron(x, y):
    """np.kron over the last two axes, with the leading (stack) axes
    broadcast: x (x) y has the entry x[i, j] y[k, l] at (i q + k, j s + l)
    for y of shape (q, s)."""
    p, r = x.shape[-2:]
    q, s = y.shape[-2:]
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * q, r * s))


def _summand_ops(x, factor_index, summand, factor_sizes):
    """Operators induced on one summand by the stack x of basis elements of
    the given factor (x on a natural, -x^T on a dual), or None if the
    factor does not act there."""
    kind = summand[0]
    if kind == "trivial":
        return None
    if kind in ("natural", "dual", "sym2", "wedge2"):
        if summand[1] != factor_index:
            return None
        if kind == "natural":
            return x
        if kind == "dual":
            return -x.transpose(0, 2, 1)
        return _square_ops(x, kind == "sym2")
    (i, ci), (j, cj) = summand[1], summand[2]
    if factor_index not in (i, j):
        return None
    # x (x) 1 + 1 (x) x on a tensor of the factor with itself
    ops = 0
    if factor_index == i:
        xi = -x.transpose(0, 2, 1) if ci == "d" else x
        ops = _kron(xi, np.eye(factor_sizes[j], dtype=np.int64))
    if factor_index == j:
        xj = -x.transpose(0, 2, 1) if cj == "d" else x
        ops = ops + _kron(np.eye(factor_sizes[i], dtype=np.int64), xj)
    return ops


def representation(factors, spec: ModuleSpec) -> CatalogAlgebra:
    """Direct sum of factors acting on the module described by spec."""
    if isinstance(factors, CatalogAlgebra):
        factors = [factors]
    sizes = [f.n for f in factors]
    dims = spec.summand_dims(sizes)
    total = sum(dims)
    check_matrix_size(total)
    for s in spec.summands:
        for ref in _factor_refs(s):
            if ref >= len(factors):
                raise BadParameter("summand %r references missing factor" % (s,))
    offsets = np.cumsum([0] + dims)

    def induce(fi, x):
        # each summand's operators fill its diagonal block; elements acting
        # as zero on the whole module are dropped
        out = np.zeros((len(x), total, total), dtype=np.int64)
        for s, lo, hi in zip(spec.summands, offsets, offsets[1:]):
            op = _summand_ops(x, fi, s, sizes)
            if op is not None:
                out[:, lo:hi, lo:hi] = op
        return out[out.any(axis=(1, 2))]

    empty = np.zeros((0, total, total), dtype=np.int64)
    basis = np.concatenate(
        [empty] + [induce(i, f.basis) for i, f in enumerate(factors)]
    )
    borel = np.concatenate(
        [empty] + [induce(i, f.borel_basis) for i, f in enumerate(factors)]
    )
    meta = {
        "type": "rep",
        "rank": sum(f.meta["rank"] for f in factors),
        "factors": tuple((f.meta["type"], f.n) for f in factors),
        "module": spec,
        "summand_dims": tuple(dims),
    }
    return CatalogAlgebra(basis, borel, total, meta)


def _factor_refs(summand):
    if summand[0] == "trivial":
        return ()
    if summand[0] == "tensor":
        return (summand[1][0], summand[2][0])
    return (summand[1],)


def summand_scalars(spec: ModuleSpec, factor_sizes):
    """One identity-on-summand operator per summand (the maximal torus of
    scalars commuting with the factor action)."""
    units = np.eye(len(spec.summands), dtype=np.int64)
    return [scalar_on_summands(spec, factor_sizes, w) for w in units]


def scalar_on_summands(spec: ModuleSpec, factor_sizes, weights):
    """Sum of weight_s * Id restricted to summand s, an int64 matrix."""
    dims = spec.summand_dims(factor_sizes)
    return np.diag(np.repeat(np.asarray(weights, dtype=np.int64), dims))


# --- normalizer ----------------------------------------------------------


def _int64(rows):
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise TooLarge("normalizer system entries overflow int64") from None


def _magnitude(a):
    """max |entry| of an int64 array, as a Python int (np.abs wraps -2^63)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


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
    """dim of the normalizer N(U) of U = span(k_basis + extra_center) in
    gl_n, as a NormalizerDim whose span_dim is dim U.

    The span must be a Lie subalgebra (the table passes k plus central
    operators).  Only the entries of x in c are unknowns, where D is the
    set of generators that are diagonal and c is their centralizer in
    gl_n: the E_ij with d_i = d_j for every d in D.  D lies in U, so U is
    stable under ad D, and so is N(U); both split into ad-D weight spaces,
    E_ij having the weight d -> d_i - d_j.  Take x in N(U) of a weight
    lambda != 0 and d in D with lambda(d) != 0: then lambda(d) x = [d, x]
    lies in U, so x does.  Hence N(U) = U + N_c(U), and

        dim N(U) = dim U - dim(U & c) + dim N_c(U).

    ann, the canonical integer basis of the annihilator of U (the vectors
    of linalg.nullspace, read off linalg.rref of the span as one int64
    array by _annihilator; TooLarge when a vector does not fit), is
    then graded too, one weight per vector; a vector supported on two
    weights shows that U is not ad-D-stable, so not a subalgebra, and
    CapExceeded is raised.  x in c normalizes U exactly when f([x, s]) = 0
    for every generator s and f in ann.  An f of weight nu reads only the
    weight-nu part of s, so it is paired only with the generators that
    have one (D itself commutes with c); the row f([E_ij, s]), (i, j) in
    c, holds the entries of F s^T - s^T F there, formed in int64
    (TooLarge when an entry could reach 2 n max|f| max|s| >= 2^63).  The
    vectors of ann supported on c, cap of them, span the annihilator of
    U & c inside c, so cap = |c| - dim(U & c); N_c(U) contains U & c, so
    the rows have rank at most cap.  rank_capped takes the rows as one
    int64 array, certifies the rank mod p, runs Bareiss below the cap, and
    raises CapExceeded above it.  With no diagonal generator c is gl_n and the
    rows are the whole system.

    Generators are n x n integer matrices, lists or arrays; n, when not
    given, is the size of the first.  MismatchedSize is raised for one of
    another size, and BadParameter when there are none and no n."""
    mats = list(k_basis) + list(extra_center)
    if n is None and mats:
        n = len(mats[0])
    if n is None:
        raise BadParameter("the normalizer of no operators needs the size n")
    if any(np.shape(m) != (n, n) for m in mats):
        raise MismatchedSize("operator of another size than %d x %d" % (n, n))
    s = _int64(mats).reshape(len(mats), n, n)
    ann = _annihilator(s)
    if 2 * n * _magnitude(ann) * _magnitude(s) >= 2**63:
        raise TooLarge("normalizer system entries overflow int64")
    span_dim = n * n - len(ann)
    flat = s.reshape(len(s), n * n)
    diagonal = ~flat[:, ~np.eye(n, dtype=bool).ravel()].any(axis=1)
    wid = _weight_ids(flat[diagonal][:, :: n + 1])
    support = ann != 0
    fw = wid[np.argmax(support, axis=1)]
    if (support & (wid != fw[:, None])).any():
        raise CapExceeded("span is not stable under its diagonal generators")
    cap = int(np.count_nonzero(fw == wid[0]))
    parts = np.zeros((len(s), wid.max() + 1), dtype=bool)
    g, e = np.nonzero(flat)
    parts[g, wid[e]] = True
    parts[diagonal] = False
    fi, gi = np.nonzero(parts[:, fw].T)
    fs = ann.reshape(len(ann), n, n)
    ci, cj = np.divmod(np.flatnonzero(wid == wid[0]), n)
    # F s^T - s^T F at (ci, cj), one row per pair; the mixed indexing puts
    # the summed index k last in every operand
    rows = np.einsum(
        "pck,pck->pc", fs[fi[:, None], ci], s[gi[:, None], cj]
    ) - np.einsum("pck,pck->pc", s[gi[:, None], :, ci], fs[fi[:, None], :, cj])
    rows = rows[rows.any(axis=1)]
    return NormalizerDim(span_dim + cap - rank_capped(rows, cap), span_dim)


def _annihilator(s):
    """The canonical integer basis of the annihilator of the span of the
    stack s, as one int64 array: the vectors linalg.nullspace gives, in its
    order, read off linalg.rref of the flat matrices.

    With pivot rows red[r] (pivot p_r at column c_r) and den the lcm of the
    pivots, the vector of free column f is den e_f - sum_r red[r][f]
    (den / p_r) e_{c_r}, divided by the gcd of its entries.  Every entry is
    at most den max|red| in size, so the vectors are formed in int64 when
    that stays below 2^63.  Otherwise they come from linalg.nullspace, which
    forms each one over Python ints: den, the lcm of every pivot, can be far
    larger than what one primitive vector needs, and only the vectors
    themselves must fit in int64 (TooLarge)."""
    nn = s.shape[1] * s.shape[2]
    rows = _exact_rows(s)
    red, pivots = linalg.rref(rows)
    den = lcm(*(red[r][c] for r, c in enumerate(pivots)))
    try:
        red = _int64(red[: len(pivots)]).reshape(len(pivots), nn)
        fits = den * _magnitude(red) < 2**63
    except TooLarge:
        fits = False
    if not fits:
        return _int64(linalg.nullspace(rows, nn)).reshape(-1, nn)
    pivots = np.array(pivots, dtype=np.intp)
    pivot_values = red[np.arange(len(pivots)), pivots]
    free = np.ones(nn, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    ann = np.zeros((len(free), nn), dtype=np.int64)
    ann[np.arange(len(free)), free] = den
    ann[:, pivots] = -(red[:, free] * (den // pivot_values)[:, None]).T
    return ann // np.gcd.reduce(ann, axis=1)[:, None]


def _weight_ids(d):
    """One id per weight of E_ij under the diagonal matrices whose diagonals
    are the rows of d, the weight being d -> d_i - d_j; E_00 has weight 0.

    The k weight components of each E_ij are packed into one 1-D key, a
    byte string of k + 1 int64 values (the first always 0, so that k may be
    0), and ids are read off np.unique of the keys: E_ij and E_kl get one id
    exactly when their weights agree."""
    k, n = d.shape
    weights = np.zeros((n, n, k + 1), dtype=np.int64)
    weights[:, :, 1:] = d.T[:, None, :] - d.T[None, :, :]
    keys = weights.reshape(n * n, k + 1).view(np.dtype((np.void, 8 * (k + 1))))
    return np.unique(keys.ravel(), return_inverse=True)[1].ravel()
