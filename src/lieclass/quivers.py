"""Linear quivers with invertibility and sign relations, their simple
representations, and monodromy bookkeeping.

Two families are supported, both on vertices 0..n with arrows q_i going up
and p_i going down.  Writing xi_i = 1 + q_{i-1} p_{i-1} and
nu_i = 1 + p_i q_i:

  kind A: all xi_i, nu_i invertible and xi_i = nu_i at inner vertices;
  kind B: all xi_i, nu_i invertible, xi_i^2 = nu_i^2 at inner vertices,
          and p, q anticommute with nu and xi in the staggered sense
          (p_j nu_{j+1} = -nu_j p_j and its three companions).

The simples are thin (at most one dimension per vertex).  For kind A they
are the vertex simples plus a one-parameter family of full-support reps
with q_i = 1 and p_i = lambda - 1.  For kind B the sign relations twist the
family: the vertex simples, one simple per adjacent pair {i, i+1} (with
p_i q_i = -2), and a full-support family q_i = 1, p_i = (-1)^i nubar - 1
for nubar outside {0, 1, -1}.  Monodromy is read off the n+1 operators
nu_j^(n-j) xi_j^j; for kind B the operators only become proportional to a
common scalar after the sign twist nu_j -> (-1)^j nu_j,
xi_j -> (-1)^(j-1) xi_j, which is what the sign relations transport along
the quiver.

Eigenvalues and monodromies are tracked as residues in Q/Z (the root of
unity e^(2 pi i r)) or a generic tag; witness matrices for residue r live
in the cyclotomic field K = Q(zeta_m) of the denominator m of r.  Ranks
over K go through linalg.Echelon by restriction of scalars (_absorb): v
enters as the coordinate rows over Q, in the basis 1, zeta, ...,
zeta^(phi(m)-1), of v, zeta v, ..., so no field element is ever divided.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .cyclotomic import CyclotomicField
from .errors import BadParameter, ShapeMismatch, TooLarge
from .linalg import Echelon, flatten
from .tuples import MonodromyClass

_SIMPLE_DIM_CAP = 12
# enumerate_simples lists O(n^2) descriptors: about 4 MB of CLI output at n = 1000
_QUIVER_CAP = 1000


class QuiverSpec:
    __slots__ = ("kind", "n")

    def __init__(self, kind, n):
        if kind not in ("A", "B"):
            raise BadParameter("kind must be 'A' or 'B'")
        if n < 1:
            raise BadParameter("need n >= 1")
        if n > _QUIVER_CAP:
            raise TooLarge("quiver size %d exceeds the bound %d" % (n, _QUIVER_CAP))
        self.kind = kind
        self.n = int(n)

    def __repr__(self):
        return "QuiverSpec(%s, n=%d)" % (self.kind, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, QuiverSpec)
            and (self.kind, self.n) == (other.kind, other.n)
        )

    def __hash__(self):
        return hash((self.kind, self.n))


def _fmat(field, rows, cols, entries):
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            e = entries[r][c]
            if not hasattr(e, "field"):
                e = field.from_rational(e)
            row.append(e)
        out.append(row)
    return out


def _fzero(field, rows, cols):
    z = field.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def _fident(field, n):
    m = _fzero(field, n, n)
    for i in range(n):
        m[i][i] = field.one()
    return m


def _fmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatch("inner dimensions differ")
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                t = a[i][k] * b[k][j]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return out


def _fadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _fneg(a):
    return [[-x for x in row] for row in a]


def _feq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class QuiverRep:
    """dims[i] per vertex; p[i]: vertex i+1 -> i, q[i]: vertex i -> i+1.

    All matrix entries live in one cyclotomic field; plain ints and
    Fractions are coerced on construction.
    """

    __slots__ = ("spec", "dims", "p", "q", "field")

    def __init__(self, spec, dims, p, q, field=None):
        self.spec = spec
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != spec.n + 1:
            raise ShapeMismatch("need %d dimensions" % (spec.n + 1,))
        if any(d < 0 for d in self.dims):
            raise ShapeMismatch("dimensions must be nonnegative")
        if len(p) != spec.n or len(q) != spec.n:
            raise ShapeMismatch("need %d maps in each direction" % spec.n)
        self.field = field if field is not None else CyclotomicField(1)
        self.p = []
        self.q = []
        for i in range(spec.n):
            pm = self._shape(p[i], self.dims[i], self.dims[i + 1])
            qm = self._shape(q[i], self.dims[i + 1], self.dims[i])
            self.p.append(pm)
            self.q.append(qm)

    def _shape(self, m, rows, cols):
        if m is None:
            return _fzero(self.field, rows, cols)
        if len(m) != rows or any(len(r) != cols for r in m):
            raise ShapeMismatch("map has the wrong shape")
        return _fmat(self.field, rows, cols, m)

    @property
    def total_dim(self):
        return sum(self.dims)

    @property
    def support(self):
        return frozenset(i for i, d in enumerate(self.dims) if d)

    def xi(self, i):
        """1 + q_{i-1} p_{i-1} on vertex i, defined for 1 <= i <= n."""
        if not 1 <= i <= self.spec.n:
            raise BadParameter("xi_i needs 1 <= i <= n")
        ident = _fident(self.field, self.dims[i])
        if self.dims[i - 1] == 0:
            return ident
        return _fadd(ident, _fmul(self.q[i - 1], self.p[i - 1]))

    def nu(self, i):
        """1 + p_i q_i on vertex i, defined for 0 <= i <= n-1."""
        if not 0 <= i <= self.spec.n - 1:
            raise BadParameter("nu_i needs 0 <= i <= n-1")
        ident = _fident(self.field, self.dims[i])
        if self.dims[i + 1] == 0:
            return ident
        return _fadd(ident, _fmul(self.p[i], self.q[i]))

    def __repr__(self):
        return "QuiverRep(%r, dims=%r)" % (self.spec, self.dims)


def check_relations(r: QuiverRep) -> bool:
    n = r.spec.n
    # every xi and nu must be invertible: square, so of full rank
    for m in chain((r.xi(i) for i in range(1, n + 1)), (r.nu(i) for i in range(n))):
        ech = Echelon()
        if not all(_absorb(ech, row) for row in m):
            return False
    if r.spec.kind == "A":
        return all(_feq(r.xi(i), r.nu(i)) for i in range(1, n))
    # kind B: squared equality at inner vertices plus the sign relations,
    # each imposed only where both sides are defined
    for i in range(1, n):
        xi, nu = r.xi(i), r.nu(i)
        if not _feq(_fmul(xi, xi), _fmul(nu, nu)):
            return False
    # p_j op_{j+1} = -op_j p_j and q_j op_j = -op_{j+1} q_j for op = nu, xi
    for op, js in ((r.nu, range(n - 1)), (r.xi, range(1, n))):
        for j in js:
            lo, hi, p, q = op(j), op(j + 1), r.p[j], r.q[j]
            if not _feq(_fmul(p, hi), _fneg(_fmul(lo, p))):
                return False
            if not _feq(_fmul(q, lo), _fneg(_fmul(hi, q))):
                return False
    return True


def _thin_is_simple(r: QuiverRep) -> bool:
    """Exact for dims <= 1 everywhere: subrepresentations are the vertex
    subsets closed under every nonzero arrow."""
    supp = sorted(r.support)
    if not supp:
        return False
    if len(supp) == 1:
        return True
    nonzero_up = {i for i in range(r.spec.n) if any(any(row) for row in r.q[i])}
    nonzero_dn = {i for i in range(r.spec.n) if any(any(row) for row in r.p[i])}
    for seed in supp:
        closure = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in (v + 1, v - 1):
                if w in closure or w not in r.support:
                    continue
                up = v in nonzero_up and w == v + 1
                dn = v - 1 in nonzero_dn and w == v - 1
                if up or dn:
                    closure.add(w)
                    frontier.append(w)
        if closure != set(supp):
            return False
    return True


def _total_maps(r: QuiverRep):
    """Vertex idempotents and arrows as endomorphisms of the total space."""
    d = r.total_dim
    offs = [0]
    for dim in r.dims:
        offs.append(offs[-1] + dim)
    field = r.field
    maps = []
    for v in range(r.spec.n + 1):
        m = _fzero(field, d, d)
        for a in range(offs[v], offs[v + 1]):
            m[a][a] = field.one()
        maps.append(m)
    for i in range(r.spec.n):
        m = _fzero(field, d, d)
        for a in range(r.dims[i]):
            for b in range(r.dims[i + 1]):
                m[offs[i] + a][offs[i + 1] + b] = r.p[i][a][b]
        maps.append(m)
        m = _fzero(field, d, d)
        for a in range(r.dims[i + 1]):
            for b in range(r.dims[i]):
                m[offs[i + 1] + a][offs[i] + b] = r.q[i][a][b]
        maps.append(m)
    return maps


def _absorb(ech, vec):
    """Add the K-span of vec to ech, an Echelon of coordinate rows over Q
    holding a K-stable span; True iff vec was new.  A K-stable span holds vec
    iff it holds every zeta^k vec, so vec's own row decides, and the rows of
    zeta vec, ..., zeta^(phi-1) vec keep the span K-stable."""
    if not ech.absorb([c for x in vec for c in x.coeffs]):
        return False
    field = vec[0].field
    zeta = field.zeta()
    for _ in range(field.degree - 1):
        vec = [zeta * x for x in vec]
        ech.absorb([c for x in vec for c in x.coeffs])
    return True


def _spin(maps, vec, d):
    """K-dimension of the span of the orbit of vec under the maps."""
    ech = Echelon()
    basis = [vec]
    _absorb(ech, vec)
    for v in basis:
        for m in maps:
            img = [
                sum((m[a][b] * v[b] for b in range(d) if v[b]), m[0][0] * 0)
                for a in range(d)
            ]
            if _absorb(ech, img):
                basis.append(img)
    return len(basis)


def is_simple(r: QuiverRep) -> bool:
    """Exact for thin reps; otherwise False on a proper subrepresentation
    spun from a basis vector, True when the arrows generate all of
    End_K(V) (Burnside), and TooLarge when neither settles it or the total
    dimension passes _SIMPLE_DIM_CAP."""
    d = r.total_dim
    if d == 0:
        return False
    if d > _SIMPLE_DIM_CAP:
        raise TooLarge("total dimension %d exceeds the search bound" % d)
    if all(dim <= 1 for dim in r.dims):
        return _thin_is_simple(r)
    maps = _total_maps(r)
    field = r.field
    # every standard basis vector must generate everything; any failure is
    # a genuine proper subrepresentation
    for vec in _fident(field, d):
        if _spin(maps, vec, d) < d:
            return False
    # remaining doubt only if the generated matrix algebra is not full
    frontier = list(maps)
    span = Echelon()
    _absorb(span, flatten(_fident(field, d)))
    while frontier:
        m = frontier.pop()
        if _absorb(span, flatten(m)):
            frontier.extend(_fmul(m, g) for g in maps)
    if len(span) == field.degree * d * d:
        return True
    raise TooLarge("cannot certify simplicity for this representation")


class SimpleDescriptor:
    """variant is ('vertex', i), ('pair', i) for kind B, or ('full',)."""

    __slots__ = ("kind", "n", "variant", "eigenvalue", "spectrum", "monodromy", "support")

    def __init__(self, kind, n, variant, eigenvalue, spectrum, monodromy, support):
        self.kind = kind
        self.n = n
        self.variant = variant
        self.eigenvalue = eigenvalue
        self.spectrum = spectrum
        self.monodromy = monodromy
        self.support = frozenset(support)

    def __repr__(self):
        return "SimpleDescriptor(%s, n=%d, %r, eig=%s, monodromy=%s)" % (
            self.kind,
            self.n,
            self.variant,
            self.eigenvalue,
            self.monodromy,
        )


def _half(parity):
    return MonodromyClass(Fraction(1, 2)) if parity % 2 else MonodromyClass(0)


def _vertex_descriptor(kind, n, j):
    if kind == "A":
        return SimpleDescriptor(
            "A", n, ("vertex", j), MonodromyClass(0), ("1", "1"), MonodromyClass(0), {j}
        )
    if j == 0:
        spectrum = ("-1", "1")
    elif j == n:
        spectrum = ("1", "-1")
    else:
        spectrum = ("1", "1")
    return SimpleDescriptor(
        "B", n, ("vertex", j), _half(j), spectrum, _half(j * (n - 1)), {j}
    )


def _pair_descriptor(n, i):
    spectrum = ("1", "-1") if i % 2 == 0 else ("-1", "1")
    return SimpleDescriptor(
        "B",
        n,
        ("pair", i),
        MonodromyClass(Fraction(1, 2)),
        spectrum,
        _half((i + 1) * n),
        {i, i + 1},
    )


def _full_descriptor(kind, n, eig):
    if eig.is_generic:
        mono = MonodromyClass.generic("%s^%d" % (eig.tag, n))
    else:
        mono = MonodromyClass(eig.residue * n)
    spectrum = (str(eig), str(eig)) if kind == "A" else ("-" + str(eig), str(eig))
    return SimpleDescriptor(
        kind, n, ("full",), eig, spectrum, mono, set(range(n + 1))
    )


def enumerate_simples(spec: QuiverSpec, monodromy_filter=None):
    """All simple descriptors, with the continuous full-support family
    collapsed to one generic descriptor when no residue filter pins it."""
    kind, n = spec.kind, spec.n
    out = []
    for j in range(n + 1):
        d = _vertex_descriptor(kind, n, j)
        if monodromy_filter is None or d.monodromy == monodromy_filter:
            out.append(d)
    if kind == "B":
        for i in range(n):
            d = _pair_descriptor(n, i)
            if monodromy_filter is None or d.monodromy == monodromy_filter:
                out.append(d)
    banned = (
        {Fraction(0)} if kind == "A" else {Fraction(0), Fraction(1, 2)}
    )
    if monodromy_filter is None:
        tag = "lambda" if kind == "A" else "nubar"
        out.append(_full_descriptor(kind, n, MonodromyClass.generic(tag)))
    elif monodromy_filter.is_generic:
        for k in range(n):
            eig = MonodromyClass.generic(
                "%s^(1/%d)[%d]" % (monodromy_filter.tag, n, k)
            )
            out.append(_full_descriptor(kind, n, eig))
    else:
        c = monodromy_filter.residue
        for k in range(n):
            s = (c + k) / n % 1
            if s in banned:
                continue
            d = _full_descriptor(kind, n, MonodromyClass(s))
            if d.monodromy == monodromy_filter:
                out.append(d)
    return out


def witness(desc: SimpleDescriptor) -> QuiverRep:
    """An explicit representation realizing the descriptor; raises for
    generic eigenvalues, which have no exact matrix model."""
    spec = QuiverSpec(desc.kind, desc.n)
    n = desc.n
    if desc.variant[0] == "vertex":
        j = desc.variant[1]
        dims = [1 if v == j else 0 for v in range(n + 1)]
        return QuiverRep(spec, dims, [None] * n, [None] * n)
    if desc.variant[0] == "pair":
        i = desc.variant[1]
        dims = [1 if v in (i, i + 1) else 0 for v in range(n + 1)]
        p = [None] * n
        q = [None] * n
        p[i] = [[-2]]
        q[i] = [[1]]
        return QuiverRep(spec, dims, p, q)
    eig = desc.eigenvalue
    if eig.is_generic:
        raise BadParameter("generic eigenvalue has no exact witness")
    den = eig.residue.denominator
    field = CyclotomicField(den)
    lam = field.zeta(eig.residue.numerator % den)
    dims = [1] * (n + 1)
    if desc.kind == "A":
        p = [[[lam - 1]] for _ in range(n)]
    else:
        p = [[[(lam if i % 2 == 0 else -lam) - 1]] for i in range(n)]
    q = [[[1]] for _ in range(n)]
    return QuiverRep(spec, dims, p, q, field=field)


def monodromy_operators(rep: QuiverRep):
    """The n+1 operators nu_j^(n-j) xi_j^j, one per supported vertex, after
    the kind-B sign twist; for a simple they are a common scalar."""
    n = rep.spec.n
    out = []
    for j in range(n + 1):
        if rep.dims[j] == 0:
            continue
        ident = _fident(rep.field, rep.dims[j])
        nu_part = ident
        if j <= n - 1:
            nu = rep.nu(j)
            if rep.spec.kind == "B" and j % 2:
                nu = _fneg(nu)
            for _ in range(n - j):
                nu_part = _fmul(nu_part, nu)
        xi_part = ident
        if j >= 1:
            xi = rep.xi(j)
            if rep.spec.kind == "B" and (j - 1) % 2:
                xi = _fneg(xi)
            for _ in range(j):
                xi_part = _fmul(xi_part, xi)
        out.append((j, _fmul(nu_part, xi_part)))
    return out


def monodromy_scalar(rep: QuiverRep):
    """The common scalar of the monodromy operators, as a field element;
    raises if the operators are not scalar or disagree."""
    ops = monodromy_operators(rep)
    if not ops:
        raise BadParameter("zero representation has no monodromy")
    value = None
    for j, m in ops:
        c = m[0][0]
        ident = _fident(rep.field, len(m))
        scaled = [[c * x for x in row] for row in ident]
        if not _feq(m, scaled):
            raise BadParameter("operator at vertex %d is not scalar" % j)
        if value is None:
            value = c
        elif value != c:
            raise BadParameter("monodromy operators disagree")
    return value


def count_P(spec: QuiverSpec, c: MonodromyClass) -> int:
    """Simples with monodromy c whose support is neither exactly {0} nor
    exactly {n}."""
    full, banned = frozenset({0}), frozenset({spec.n})
    total = 0
    for d in enumerate_simples(spec, monodromy_filter=c):
        if d.support == full or d.support == banned:
            continue
        total += 1
    return total
