"""Partition calculus for partial flag varieties and nilpotent orbits.

A partial flag variety Fl(n1,...,ns; C^n) is recorded through its
dimension vector, whose differences FlagType takes once, into its steps
(n1, n2 - n1, ..., n - ns): the block sizes of the flag's Levi, and the
one source of them.  The step partition (the steps as a multiset)
determines the associated Richardson orbit via partition conjugation, and
two flag varieties are cotangent-equivalent exactly when their step
multisets agree.  The closure order on nilpotent orbits is the dominance
order on partitions, so "higher/lower" between flag varieties reduces to
dominance between Richardson partitions.
"""

from __future__ import annotations

import enum
from functools import total_ordering
from itertools import accumulate
from operator import index

from .errors import BadParameter, MismatchedSize, TooLarge

# Largest flag ambient accepted: flag_order and the classifier take time
# linear in it (about 0.1 s at the bound), and the oracle's own bound,
# algebras.MAX_MATRIX_SIZE, is far below it.
MAX_AMBIENT = 10_000


@total_ordering
class Partition:
    """A weakly decreasing sequence of positive integers, read with
    operator.index: a float or Fraction part raises TypeError."""

    __slots__ = ("parts", "n")

    def __init__(self, parts):
        parts = tuple(index(p) for p in parts)
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
    """Dimension vector 0 < n1 < ... < ns < n of a partial flag variety, read
    with operator.index, and its steps (n1, n2 - n1, ..., n - ns) in order."""

    __slots__ = ("dims", "ambient", "steps")

    def __init__(self, dims, ambient):
        dims = tuple(index(d) for d in dims)
        ambient = index(ambient)
        if ambient > MAX_AMBIENT:
            raise TooLarge(
                "flag ambient %d exceeds the bound %d" % (ambient, MAX_AMBIENT)
            )
        if not dims:
            raise BadParameter("flag needs at least one subspace dimension")
        ext = (0,) + dims + (ambient,)
        steps = tuple(ext[i + 1] - ext[i] for i in range(len(dims) + 1))
        if min(steps) < 1:
            raise BadParameter(
                "flag dims %r must satisfy 0 < n1 < ... < ns < %d" % (dims, ambient)
            )
        self.dims = dims
        self.ambient = ambient
        self.steps = steps

    def dim(self):
        """Dimension of the flag variety: (n^2 - sum s^2) / 2 over steps s."""
        return (self.ambient**2 - sum(s * s for s in self.steps)) // 2

    def __eq__(self, other):
        # the ordered steps fix the dims (their partial sums) and the ambient
        return isinstance(other, FlagType) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return "FlagType(%r, %d)" % (self.dims, self.ambient)


class FlagOrderRelation(enum.Enum):
    Higher = "Higher"
    Lower = "Lower"
    CotangentEquivalent = "CotangentEquivalent"
    Incomparable = "Incomparable"


def step_partition(f: FlagType) -> Partition:
    """The steps {n1, n2-n1, ..., n-ns} as a multiset: the partition of n
    that fixes the Richardson orbit, on whose parts the classifier matches."""
    return Partition.of_multiset(f.steps)


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
    steps = sorted(index(s) for s in steps)
    n = sum(steps)
    if ambient is not None and ambient != n:
        raise MismatchedSize("steps sum to %d, ambient is %d" % (n, ambient))
    return FlagType(accumulate(steps[:-1]), n)
