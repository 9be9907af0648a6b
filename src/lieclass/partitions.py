"""Partition calculus for partial flag varieties and nilpotent orbits.

A partial flag variety Fl(n1,...,ns; C^n) is recorded only through its
dimension vector.  Its step partition (the multiset of consecutive dimension
jumps) determines the associated Richardson orbit via partition conjugation,
and two flag varieties are cotangent-equivalent exactly when their step
multisets agree.  The closure order on nilpotent orbits is the dominance
order on partitions, so "higher/lower" between flag varieties reduces to
dominance between Richardson partitions.
"""

from __future__ import annotations

import enum
from functools import total_ordering

from .errors import BadParameter, MismatchedSize, TooLarge

# Largest flag ambient accepted: flag_order and the classifier take time
# linear in it (about 0.1 s at the bound), and the oracle's own bound,
# algebras.MAX_MATRIX_SIZE, is far below it.
MAX_AMBIENT = 10_000


@total_ordering
class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts", "n")

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise BadParameter("partition parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise BadParameter("partition parts must weakly decrease: %r" % (parts,))
        self.parts = parts
        self.n = sum(parts)

    @classmethod
    def of_multiset(cls, values):
        """Build a partition from an arbitrary iterable of positive integers."""
        return cls(sorted(values, reverse=True))

    def conjugate(self):
        """The conjugate partition: its part i (from 0) counts the parts above i."""
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))
        )

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)


class FlagType:
    """Dimension vector 0 < n1 < ... < ns < n of a partial flag variety."""

    __slots__ = ("dims", "ambient")

    def __init__(self, dims, ambient):
        dims = tuple(int(d) for d in dims)
        ambient = int(ambient)
        if ambient > MAX_AMBIENT:
            raise TooLarge(
                "flag ambient %d exceeds the bound %d" % (ambient, MAX_AMBIENT)
            )
        if not dims:
            raise BadParameter("flag needs at least one subspace dimension")
        if dims[0] < 1 or dims[-1] >= ambient:
            raise BadParameter("flag dims must satisfy 0 < n1, ns < n")
        if any(dims[i] >= dims[i + 1] for i in range(len(dims) - 1)):
            raise BadParameter("flag dims must strictly increase: %r" % (dims,))
        self.dims = dims
        self.ambient = ambient

    def dim(self):
        """Dimension of the flag variety: sum n_i * (n_{i+1} - n_i)."""
        ext = self.dims + (self.ambient,)
        return sum(ext[i] * (ext[i + 1] - ext[i]) for i in range(len(self.dims)))

    def __eq__(self, other):
        return (
            isinstance(other, FlagType)
            and self.dims == other.dims
            and self.ambient == other.ambient
        )

    def __hash__(self):
        return hash((self.dims, self.ambient))

    def __repr__(self):
        return "FlagType(%r, %d)" % (self.dims, self.ambient)


class FlagOrderRelation(enum.Enum):
    Higher = "Higher"
    Lower = "Lower"
    CotangentEquivalent = "CotangentEquivalent"
    Incomparable = "Incomparable"


def step_partition(f: FlagType) -> Partition:
    """Multiset {n1, n2-n1, ..., n-ns} as a partition."""
    ext = (0,) + f.dims + (f.ambient,)
    return Partition.of_multiset(ext[i + 1] - ext[i] for i in range(len(ext) - 1))


def richardson_partition(f: FlagType) -> Partition:
    """Jordan type of the Richardson orbit attached to f.

    This is the conjugate of the step partition; its closure is the image of
    the moment map of T*Fl.
    """
    return step_partition(f).conjugate()


def dominance_leq(p: Partition, q: Partition) -> bool:
    """Dominance order: every prefix sum of p is <= the one of q."""
    if p.n != q.n:
        raise MismatchedSize("partitions of %d and %d" % (p.n, q.n))
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p.parts[i] if i < len(p) else 0
        sq += q.parts[i] if i < len(q) else 0
        if sp > sq:
            return False
    return True


def cotangent_equivalent(f1: FlagType, f2: FlagType) -> bool:
    if f1.ambient != f2.ambient:
        raise MismatchedSize("ambient %d vs %d" % (f1.ambient, f2.ambient))
    return step_partition(f1) == step_partition(f2)


def flag_order(f1: FlagType, f2: FlagType) -> FlagOrderRelation:
    """Compare two flag varieties through their Richardson orbit closures."""
    if f1.ambient != f2.ambient:
        raise MismatchedSize("ambient %d vs %d" % (f1.ambient, f2.ambient))
    r1 = richardson_partition(f1)
    r2 = richardson_partition(f2)
    if r1 == r2:
        return FlagOrderRelation.CotangentEquivalent
    if dominance_leq(r2, r1):
        return FlagOrderRelation.Higher
    if dominance_leq(r1, r2):
        return FlagOrderRelation.Lower
    return FlagOrderRelation.Incomparable


def orbit_dim(p: Partition) -> int:
    """Dimension of the nilpotent GL_n-orbit with Jordan type p."""
    return p.n * p.n - sum(c * c for c in p.conjugate())


def canonical_flag(steps, ambient=None) -> FlagType:
    """Canonical representative of a cotangent-equivalence class.

    Rebuilds a dimension vector from the step multiset sorted ascending, so
    e.g. steps {1,1,3} of ambient 5 give Fl(1,2;C^5).
    """
    steps = sorted(int(s) for s in steps)
    n = sum(steps)
    if ambient is not None and ambient != n:
        raise MismatchedSize("steps sum to %d, ambient is %d" % (n, ambient))
    dims = []
    acc = 0
    for s in steps[:-1]:
        acc += s
        dims.append(acc)
    return FlagType(tuple(dims), n)
