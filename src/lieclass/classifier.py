"""Decision tables for spherical partial flag varieties.

A classification datum is a flag type together with the semisimple factors
acting blockwise on the ambient space (each factor on its natural module)
plus optional trivial one-dimensional summands.  The verdict is computed
purely combinatorially:

  * a flag is read through its step partition (its cotangent-equivalence
    class), and the cases match on its parts, a weakly decreasing tuple;
  * flags equivalent to the projective space delegate to the module table
    with the maximal torus of summand scalars;
  * everything else is matched against the encoded Grassmannian and
    multi-step case lists with their literal parameter guards.

"Spherical" here means spherical for the factors extended by the best
possible central torus, the scalars of every summand.  The datum's module
(_natural_module: the factors' naturals, then the trivial lines) is stated
once: the P(V) question asks the table about it, and datum_algebra builds
its matrix model through algebras.representation, the block-diagonal group
K with each summand's scalar, so the Monte Carlo oracle probes exactly the
group the verdict speaks about.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .errors import BadParameter, MismatchedSize, UnsupportedShape
from .partitions import FlagType, Partition, step_partition

# The matrix models, the table and the oracle are imported by the functions
# that use them: the case lists alone need no numpy.


class ClassificationDatum:
    """Flag dims + factor list (tag, size) + count of trivial summands, read
    with operator.index (a float raises TypeError), and the one FlagType."""

    __slots__ = ("flag", "dims", "factors", "trivial", "ambient")

    def __init__(self, dims, factors, trivial=0):
        self.factors = tuple((tag, index(size)) for tag, size in factors)
        self.trivial = index(trivial)
        if self.trivial < 0:
            raise BadParameter("trivial summand count must be >= 0")
        for tag, size in self.factors:
            if tag not in ("sl", "so", "sp"):
                raise UnsupportedShape("factor type %r unsupported" % (tag,))
            if tag == "sl" and size < 1:
                raise BadParameter("sl factor needs size >= 1")
            if tag == "so" and size < 3:
                raise BadParameter("so factor needs size >= 3")
            if tag == "sp" and (size < 2 or size % 2):
                raise BadParameter("sp factor needs even size >= 2")
        self.ambient = sum(s for _, s in self.factors) + self.trivial
        self.flag = FlagType(dims, self.ambient)
        self.dims = self.flag.dims

    def __repr__(self):
        return "ClassificationDatum(dims=%r, factors=%r, trivial=%d)" % (
            self.dims,
            self.factors,
            self.trivial,
        )


class ClassificationVerdict:
    __slots__ = ("spherical", "case_id", "reason")

    def __init__(self, spherical, case_id=None, reason=""):
        self.spherical = spherical
        self.case_id = case_id
        self.reason = reason

    def __bool__(self):
        return self.spherical

    def __repr__(self):
        if self.spherical:
            return "Spherical(%r)" % (self.case_id,)
        return "NotSpherical(%r)" % (self.reason,)


def _canon_factors(factors, trivial):
    """sp_2 is sl_2 and sl_1 acts trivially; normalize both away."""
    out = []
    t = trivial
    for tag, size in factors:
        if tag == "sl" and size == 1:
            t += 1
        elif tag == "sp" and size == 2:
            out.append(("sl", 2))
        else:
            out.append((tag, size))
    return out, t


def _slot_ok(slot, factor):
    kind = slot[0]
    tag, size = factor
    if kind == "sl":
        return tag == "sl" and size >= slot[1] and (slot[2] is None or size == slot[2])
    if kind == "so":
        return tag == "so"
    if kind == "sp":
        return tag == "sp" and (slot[1] is None or size == slot[1])
    return False


def _assign(slots, factors, trivial):
    """Can the factors + trivial summands fill the slots exactly?  sl slots
    with minimum 1 may absorb a trivial summand (an sl_1 factor)."""
    if not slots:
        return not factors and trivial == 0
    slot, rest = slots[0], slots[1:]
    if slot[0] == "triv":
        return trivial > 0 and _assign(rest, factors, trivial - 1)
    for i, f in enumerate(factors):
        if _slot_ok(slot, f) and _assign(rest, factors[:i] + factors[i + 1 :], trivial):
            return True
    if slot[0] == "sl" and slot[1] <= 1 and trivial > 0:
        return _assign(rest, factors, trivial - 1)
    return False


def _sl(minsize=1, exact=None):
    return ("sl", minsize, exact)


def _sp(exact=None):
    return ("sp", exact)


_SO = ("so",)
_TRIV = ("triv",)


def _two(step):
    return lambda s, n: len(s) == 2 and step in s


def _any2(s, n):
    return len(s) == 2


def _any(s, n):
    return True


# Grassmannian case list; used both for one-step flag data and for the
# standalone Grassmannian classifier (same case numbering, different
# prefix).  Order matters only for which case id gets reported.
_GR_CASES = [
    ("1", [_sl()], _any2),
    ("1", [_SO], _any2),
    ("1", [_sp()], _any2),
    ("2-1-1", [_sp(), _sl()], _two(2)),
    ("2-1-2", [_sp(), _sp()], _two(2)),
    ("2-2", [_sl(), _sp()], _two(3)),
    ("2-3", [_sp(), _TRIV], _any2),
    ("2-4", [_sl(), _sp(4)], _any2),
    ("2-5", [_sl(), _sl()], _any2),
    ("3-1-1", [_sl(), _sl(), _sl()], _two(2)),
    ("3-1-2", [_sl(), _sl(), _sp()], _two(2)),
    ("3-1-3", [_sl(), _sp(), _sp()], _two(2)),
    ("3-1-4", [_sp(), _sp(), _sp()], _two(2)),
    ("3-2", [_sl(), _sl(), _TRIV], _any2),
]


def _len3_with_1(s, n):
    return len(s) == 3 and 1 in s


def _len3(s, n):
    return len(s) == 3


def _fl123(s, n):
    return s == (n - 3, 1, 1, 1)


def _fl12(s, n):
    return s == (n - 2, 1, 1)


_MULTI_CASES = [
    ("II-1-1", [_sl()], _any),
    ("II-1-2", [_sp()], _fl123),
    ("II-1-3", [_sp()], _len3_with_1),
    ("II-2-1", [_sl(), _TRIV], _any),
    ("II-2-2", [_sl(), _sl()], _len3_with_1),
    ("II-2-3", [_sl(exact=2), _sl()], _len3),
    ("II-2-4", [_sl(), _sp()], _fl12),
    ("II-2-5", [_sp(), _sp()], _fl12),
]


def _match(cases, d, parts, prefix=""):
    """The first case whose predicate holds on the parts s and the ambient n
    and whose slots the datum's factors fill; else absent-from-list."""
    factors, trivial = _canon_factors(d.factors, d.trivial)
    for case_id, slots, pred in cases:
        if pred(parts, d.ambient) and _assign(tuple(slots), tuple(factors), trivial):
            return ClassificationVerdict(True, prefix + case_id)
    return ClassificationVerdict(False, reason="absent-from-list")


def _natural_module(count, trivial):
    """The module of a datum with `count` factors: each factor on its
    natural summand, in order, then `trivial` trivial lines."""
    from .algebras import ModuleSpec

    return ModuleSpec([("natural", i) for i in range(count)] + [("trivial",)] * trivial)


@lru_cache(maxsize=1024)
def _projective_spherical(factors, trivial) -> bool:
    """The module table's answer for the datum's module, with every
    per-summand scalar adjoined.  P(V) and P(V*) of one datum ask the same
    question, so it is asked once per (factors, trivial) of a validated
    datum, as given."""
    from .algebras import make_algebra
    from .sphericaltable import is_spherical_module_by_table

    algs = [make_algebra(tag, size) for tag, size in factors]
    spec = _natural_module(len(factors), trivial)
    return bool(is_spherical_module_by_table(algs, spec, centers="summands"))


def _projective_verdict(d: ClassificationDatum) -> ClassificationVerdict:
    """A flag equivalent to P(V) (or to P(V*), the same question): the
    table's cached answer for the datum's (factors, trivial), in a fresh
    verdict."""
    if _projective_spherical(d.factors, d.trivial):
        return ClassificationVerdict(True, "P(V)")
    return ClassificationVerdict(False, reason="P(V) module test failed")


def classify_flag_datum(d: ClassificationDatum) -> ClassificationVerdict:
    """Match the step partition's parts: (n - 1, 1) is P(V), at n = 2 too;
    two parts take the Grassmannian cases (prefix I-), more the multi-step."""
    n = d.ambient
    parts = step_partition(d.flag).parts
    if parts == (n - 1, 1):
        return _projective_verdict(d)
    if len(parts) == 2:
        return _match(_GR_CASES, d, parts, prefix="I-")
    return _match(_MULTI_CASES, d, parts)


def classify_grassmannian(r, d: ClassificationDatum) -> ClassificationVerdict:
    """The Grassmannian of r-planes in the datum's ambient: P(V) for r = 1,
    else the Grassmannian cases on the parts (n - r, r), unprefixed."""
    n, r = d.ambient, index(r)
    if r == 1:
        return _projective_verdict(d)
    if not 2 <= r <= n // 2:
        raise BadParameter("need 2 <= r <= n/2")
    return _match(_GR_CASES, d, (n - r, r))


def product_flags_spherical(steps1, steps2) -> bool:
    """Membership in the list of spherical products of two flag varieties,
    by unordered pair of step multisets.  A multiset of one step is the
    point G/G, not a flag variety, and is refused as FlagType refuses it;
    Partition refuses a step below 1."""
    a, b = Partition.of_multiset(steps1), Partition.of_multiset(steps2)
    if min(len(a), len(b)) < 2:
        raise BadParameter("a flag needs at least two steps")
    if a.n != b.n:
        raise MismatchedSize("step multisets must sum to the same total")
    for x, y in ((a.parts, b.parts), (b.parts, a.parts)):
        if len(x) == 2 and len(y) == 2:
            return True
        if len(x) == 2 and len(y) == 3 and 1 in y:
            return True
        if len(x) == 2 and 2 in x and len(y) == 3:
            return True
        if len(x) == 2 and 1 in x:
            return True
    return False


def datum_algebra(d: ClassificationDatum) -> CatalogAlgebra:
    """Matrix model of the group the verdict speaks about: the datum's
    module as a representation, each sl(s) factor taken as gl(s), with the
    scalar of every summand that has none yet (an so or sp natural, a
    trivial line) appended to the basis and to the Borel."""
    import numpy as np

    from .algebras import CatalogAlgebra, make_algebra, representation, summand_scalars

    spec = _natural_module(len(d.factors), d.trivial)
    k = representation(
        [make_algebra("gl" if tag == "sl" else tag, size) for tag, size in d.factors],
        spec,
    )
    tags = [tag for tag, _ in d.factors] + ["trivial"] * d.trivial
    sizes = [size for _, size in d.factors]
    scalars = [z for tag, z in zip(tags, summand_scalars(spec, sizes)) if tag != "sl"]
    scalars = np.array(scalars, dtype=np.int64).reshape(-1, k.n, k.n)
    return CatalogAlgebra(
        np.concatenate([k.basis, scalars]),
        np.concatenate([k.borel_basis, scalars]),
        k.n,
        dict(k.meta, rank=k.meta["rank"] + len(scalars)),
    )


def bounded_subalgebra_sl(k, spec: ModuleSpec, samples=5, seed=0) -> bool:
    """Existence of an infinite-dimensional simple bounded pair: sphericity
    of the module with the overall scalar appended."""
    from .algebras import CatalogAlgebra, make_algebra
    from .oracle import is_spherical_module

    if not isinstance(k, (list, tuple, CatalogAlgebra)):
        raise BadParameter("k must be factor algebras")
    if not isinstance(k, CatalogAlgebra):
        k = [f if isinstance(f, CatalogAlgebra) else make_algebra(*f) for f in k]
    verdict = is_spherical_module(
        k, spec, with_scalar=True, samples=samples, seed=seed
    )
    return bool(verdict)
