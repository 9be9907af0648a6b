"""Symmetric group utilities: exact character theory, decomposition of
matrix representations, the fixed-vector span test, and the integral group
ring with its coarse generation check.

Characters come from the Murnaghan-Nakayama rule in the beta-number
formulation (removing a rim hook of length k replaces a first-column hook
length b by b - k), so no tables are shipped.  Representations are given by
the matrices of the adjacent transpositions s_1, ..., s_{n-1}, with exact
rational entries; the Coxeter relations are verified on construction.
Characters and multiplicities are exact rationals.  Fixed spaces and the
group-ring span are found by linalg's one fraction-free elimination on
primitive integer rows: fixed spaces by linalg.nullspace, the span by
absorbing each new product into a linalg.Echelon, so membership of a
product is a single reduction pass.  No basis is carried in Fractions.
The span works on coefficient lists over the permutations, and right
multiplication by a generator s_i + 1 is an index map on them
(prod[j] = e[j] + e[m_i[j]]), read once per generator off one
pf_ring_multiply; GroupAlgebraElement and pf_ring_multiply, the dict
convolution, are the general product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import linalg
from .errors import BadParameter, RelationViolation, TooLarge
from .partitions import partitions_of
from .rank import rank_exact

_DECOMPOSE_CAP = 8
_RING_CAP = 6
_SPAN_CAP = 5


def _betas(shape):
    m = len(shape)
    return tuple(sorted(shape[i] + (m - 1 - i) for i in range(m)))


def _shape_from_betas(betas):
    b = sorted(betas)
    shape = tuple(sorted((x - i for i, x in enumerate(b)), reverse=True))
    return tuple(x for x in shape if x > 0)


@lru_cache(maxsize=None)
def mn_character(shape, cycle_type):
    """Character of the simple module labeled by shape at a permutation of
    the given cycle type, by Murnaghan-Nakayama recursion."""
    if sum(shape) != sum(cycle_type):
        raise BadParameter("shape and cycle type have different sizes")
    if not cycle_type:
        return 1
    k = cycle_type[0]
    rest = cycle_type[1:]
    betas = _betas(shape)
    bset = set(betas)
    total = 0
    for b in betas:
        if b - k < 0 or (b - k) in bset:
            continue
        height = sum(1 for x in betas if b - k < x < b)
        new = _shape_from_betas([x for x in betas if x != b] + [b - k])
        total += (-1) ** height * mn_character(new, rest)
    return total


def dim_partition(shape):
    """Dimension of the simple module: character at the identity."""
    return mn_character(shape, (1,) * sum(shape))


def conjugacy_classes(n):
    """(cycle type, class size) for S_n."""
    out = []
    for mu in partitions_of(n):
        z = 1
        counts = {}
        for part in mu:
            counts[part] = counts.get(part, 0) + 1
        for part, m in counts.items():
            z *= part**m * factorial(m)
        out.append((mu, factorial(n) // z))
    return out


def _adjacent_word(perm):
    """perm as a product of adjacent transpositions (bubble sort)."""
    p = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)  # s_{i+1} swaps positions i, i+1
                changed = True
    word.reverse()
    return word


def class_representative(cycle_type):
    """A permutation (as a tuple of images of 0..n-1) with the cycle type."""
    n = sum(cycle_type)
    perm = list(range(n))
    pos = 0
    for k in cycle_type:
        for j in range(k):
            perm[pos + j] = pos + (j + 1) % k
        pos += k
    return tuple(perm)


class SnRep:
    """Matrices of s_1..s_{n-1} over exact rationals; Coxeter relations are
    checked on construction."""

    __slots__ = ("n", "gens", "dim")

    def __init__(self, n, gens):
        self.n = int(n)
        if len(gens) != self.n - 1:
            raise RelationViolation("need n-1 generator matrices")
        self.gens = [
            [[Fraction(x) for x in row] for row in g] for g in gens
        ]
        self.dim = len(self.gens[0]) if self.gens else 1
        ident = linalg.identity(self.dim)
        for g in self.gens:
            if len(g) != self.dim or any(len(r) != self.dim for r in g):
                raise RelationViolation("generator matrices differ in size")
            if linalg.matmul(g, g) != ident:
                raise RelationViolation("an s_i is not an involution")
        for i in range(len(self.gens) - 1):
            a, b = self.gens[i], self.gens[i + 1]
            if linalg.matmul(linalg.matmul(a, b), a) != linalg.matmul(
                linalg.matmul(b, a), b
            ):
                raise RelationViolation("braid relation fails at %d" % (i + 1,))
        for i in range(len(self.gens)):
            for j in range(i + 2, len(self.gens)):
                a, b = self.gens[i], self.gens[j]
                if linalg.matmul(a, b) != linalg.matmul(b, a):
                    raise RelationViolation(
                        "distant generators %d, %d do not commute" % (i + 1, j + 1)
                    )

    def matrix(self, perm):
        """Matrix of an arbitrary permutation via its adjacent-word."""
        out = linalg.identity(self.dim)
        for s in _adjacent_word(perm):
            out = linalg.matmul(out, self.gens[s - 1])
        return out

    def character(self, cycle_type):
        m = self.matrix(class_representative(cycle_type))
        return sum(m[i][i] for i in range(self.dim))

    def __repr__(self):
        return "SnRep(n=%d, dim=%d)" % (self.n, self.dim)


def trivial_rep(n):
    return SnRep(n, [[[1]] for _ in range(n - 1)])


def sign_rep(n):
    return SnRep(n, [[[-1]] for _ in range(n - 1)])


def permutation_rep(n):
    gens = []
    for i in range(n - 1):
        m = linalg.identity(n)
        m[i][i] = m[i + 1][i + 1] = 0
        m[i][i + 1] = m[i + 1][i] = 1
        gens.append(m)
    return SnRep(n, gens)


def standard_rep(n):
    """The (n-1)-dimensional quotient of the permutation module, in the
    basis e_i - e_{i+1}."""
    gens = []
    for i in range(n - 1):
        m = linalg.identity(n - 1)
        m[i][i] = -1
        if i > 0:
            m[i - 1][i] = 0
            m[i][i - 1] = 1
        if i < n - 2:
            m[i + 1][i] = 0
            m[i][i + 1] = 1
        gens.append(m)
    # entries above fix s_i acting on the gap basis; verify via SnRep
    return SnRep(n, gens)


def regular_rep(n):
    perms = _all_perms(n)
    index = {p: k for k, p in enumerate(perms)}
    gens = []
    for i in range(1, n):
        m = [[0] * len(perms) for _ in perms]
        for p, k in index.items():
            q = list(p)
            q[i - 1], q[i] = q[i], q[i - 1]
            m[index[tuple(q)]][k] = 1
        gens.append(m)
    return SnRep(n, gens)


def tensor_sign(rep: SnRep) -> SnRep:
    return SnRep(rep.n, [[[-x for x in row] for row in g] for g in rep.gens])


def direct_sum_rep(a: SnRep, b: SnRep) -> SnRep:
    if a.n != b.n:
        raise BadParameter("representations of different symmetric groups")
    gens = []
    for ga, gb in zip(a.gens, b.gens):
        d = a.dim + b.dim
        m = [[0] * d for _ in range(d)]
        for i in range(a.dim):
            for j in range(a.dim):
                m[i][j] = ga[i][j]
        for i in range(b.dim):
            for j in range(b.dim):
                m[a.dim + i][a.dim + j] = gb[i][j]
        gens.append(m)
    return SnRep(a.n, gens)


def decompose(r: SnRep):
    """Multiplicities of the simple modules via character inner products."""
    if r.n > _DECOMPOSE_CAP:
        raise TooLarge("decompose supports n <= %d" % _DECOMPOSE_CAP)
    classes = conjugacy_classes(r.n)
    traces = {ct: r.character(ct) for ct, _ in classes}
    order = factorial(r.n)
    out = {}
    for shape in partitions_of(r.n):
        acc = Fraction(0)
        for ct, size in classes:
            acc += size * mn_character(shape, ct) * traces[ct]
        mult = acc / order
        if mult.denominator != 1 or mult < 0:
            raise RelationViolation(
                "non-integral multiplicity %s at %r" % (mult, shape)
            )
        if mult:
            out[shape] = int(mult)
    return out


class LsnResult:
    __slots__ = ("kind", "decomposition")

    def __init__(self, kind, decomposition=None):
        self.kind = kind  # "HypothesisFails" | "Conclusion"
        self.decomposition = decomposition

    def __repr__(self):
        if self.kind == "Conclusion":
            return "Conclusion(%r)" % (self.decomposition,)
        return self.kind


def _fixed_space(r: SnRep, skip):
    """Basis of vectors fixed by every s_j with j != skip (1-based js)."""
    rows = []
    ident = linalg.identity(r.dim)
    for j, g in enumerate(r.gens, start=1):
        if j == skip:
            continue
        for a in range(r.dim):
            rows.append([g[a][b] - ident[a][b] for b in range(r.dim)])
    if not rows:
        return [list(row) for row in ident]
    return linalg.nullspace(rows, r.dim)


def lsn_check(r: SnRep) -> LsnResult:
    if r.n > _DECOMPOSE_CAP:
        raise TooLarge("lsn_check supports n <= %d" % _DECOMPOSE_CAP)
    vectors = []
    for i in range(1, r.n):
        vectors.extend(_fixed_space(r, i))
    span = rank_exact(vectors)
    if span != r.dim:
        return LsnResult("HypothesisFails")
    dec = decompose(r)
    allowed = {(r.n,), (r.n - 1, 1)}
    bad = [shape for shape in dec if shape not in allowed]
    if bad:
        raise RelationViolation(
            "span hypothesis held but decomposition has %r" % (bad,)
        )
    return LsnResult("Conclusion", dec)


def _all_perms(n):
    import itertools

    return [tuple(p) for p in itertools.permutations(range(n))]


class GroupAlgebraElement:
    """Finitely supported integer combination of permutations of S_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = int(n)
        self.coeffs = {}
        for perm, c in (coeffs or {}).items():
            if c:
                self.coeffs[tuple(perm)] = int(c)

    @classmethod
    def unit(cls, n):
        return cls(n, {tuple(range(n)): 1})

    @classmethod
    def transposition_plus_one(cls, n, i):
        """s_i + 1 for 1 <= i <= n-1."""
        if not 1 <= i <= n - 1:
            raise BadParameter("need 1 <= i <= n-1")
        perm = list(range(n))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return cls(n, {tuple(perm): 1, tuple(range(n)): 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return GroupAlgebraElement(self.n, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def scale(self, c):
        return GroupAlgebraElement(
            self.n, {p: c * v for p, v in self.coeffs.items()}
        )

    def __repr__(self):
        return "GroupAlgebraElement(n=%d, %d terms)" % (self.n, len(self.coeffs))


def pf_ring_multiply(a: GroupAlgebraElement, b: GroupAlgebraElement):
    """Convolution product in Z[S_n]."""
    if a.n != b.n:
        raise BadParameter("elements of different group rings")
    if a.n > _RING_CAP:
        raise TooLarge("group ring operations support n <= %d" % _RING_CAP)
    out = {}
    for p, cp in a.coeffs.items():
        for q, cq in b.coeffs.items():
            pq = tuple(p[q[i]] for i in range(a.n))
            out[pq] = out.get(pq, 0) + cp * cq
    return GroupAlgebraElement(a.n, out)


def _plus_one_maps(n):
    """The permutations of _all_perms(n) and, for each generator s_i + 1,
    the index map m_i with e (s_i + 1) = [e[j] + e[m_i[j]] for j]: the
    coefficient of perms[j] in e s_i is e[m_i[j]].

    Each map is read off one pf_ring_multiply, so it follows the ring's
    product convention by construction: the element L with coefficient
    j + 1 at perms[j] has L (s_i + 1) = [(j + 1) + (m_i[j] + 1) for j]."""
    perms = _all_perms(n)
    labels = GroupAlgebraElement(n, {p: j + 1 for j, p in enumerate(perms)})
    maps = []
    for i in range(1, n):
        prod = pf_ring_multiply(labels, GroupAlgebraElement.transposition_plus_one(n, i))
        maps.append([prod.coeffs[p] - j - 2 for j, p in enumerate(perms)])
    return perms, maps


def _times_plus_one(e, m):
    """e (s_i + 1) for a coefficient list e and the index map m of s_i:
    the coefficient list of pf_ring_multiply(e, s_i + 1)."""
    return [a + e[k] for a, k in zip(e, m)]


def pf_generators_span(n) -> bool:
    """Do {s_i + 1} generate Z[S_n] as a unital ring?  Checked by spanning
    over Q: iterate products until the linear span stabilizes at n!.
    Elements are coefficient lists over _all_perms(n), and each product is
    the index map of _plus_one_maps, so no GroupAlgebraElement is formed
    in the loop."""
    if n < 0:
        raise BadParameter("S_n needs n >= 0")
    if n > _SPAN_CAP:
        raise TooLarge("generation check supports n <= %d" % _SPAN_CAP)
    perms, maps = _plus_one_maps(n)
    target = len(perms)
    span = linalg.Echelon()
    unit = [1] + [0] * (target - 1)  # perms[0] is the identity
    span.absorb(unit)
    frontier = [unit]
    while frontier:
        e = frontier.pop()
        for m in maps:
            prod = _times_plus_one(e, m)
            if span.absorb(prod):
                frontier.append(prod)
                if len(span) == target:
                    return True
    return len(span) == target
