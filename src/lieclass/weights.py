"""The generated order on weights, dominance, stabilizers and equivalence.

Weights are coordinate tuples.  The order is generated by single reflection
moves: phi <^gamma psi whenever phi = s_gamma(psi) and the coroot pairing
gamma_vee(psi) is a positive integer.  Two root systems are supported in the
paper's coordinates:

  type A_{n-1}:  roots e_i - e_j (i < j), pairing psi_i - psi_j;
  type C_n:      additionally e_i + e_j (pairing psi_i + psi_j) and
                 2 e_i (pairing psi_i).

Reflections act by (signed) coordinate permutations, so every orbit is
finite and the order can be explored by breadth-first search.
"""

from __future__ import annotations

from .errors import BadParameter, MismatchedSize, TooLarge
from .tuples import as_tuple

_RANK_CAP = 8
_GROUP_CAP = 200_000


class WeightOrderContext:
    """Root-system data for the weight order; type_tag in {"A", "C"}."""

    __slots__ = ("type_tag", "n")

    def __init__(self, type_tag, n):
        if type_tag not in ("A", "C"):
            raise BadParameter("type_tag must be 'A' or 'C', not %r" % (type_tag,))
        self.type_tag = type_tag
        self.n = int(n)
        if self.n > _RANK_CAP:
            raise TooLarge("rank %d exceeds the bound %d" % (self.n, _RANK_CAP))

    def positive_roots(self):
        n = self.n
        roots = [("A", i, j) for i in range(n) for j in range(i + 1, n)]
        if self.type_tag == "C":
            roots += [("P", i, j) for i in range(n) for j in range(i + 1, n)]
            roots += [("L", i) for i in range(n)]
        return roots

    @staticmethod
    def pairing(root, psi):
        """Coroot pairing gamma_vee(psi)."""
        if root[0] == "A":
            return psi[root[1]] - psi[root[2]]
        if root[0] == "P":
            return psi[root[1]] + psi[root[2]]
        return psi[root[1]]

    @staticmethod
    def reflect(root, psi):
        psi = list(psi)
        if root[0] == "A":
            i, j = root[1], root[2]
            psi[i], psi[j] = psi[j], psi[i]
        elif root[0] == "P":
            i, j = root[1], root[2]
            psi[i], psi[j] = -psi[j], -psi[i]
        else:
            i = root[1]
            psi[i] = -psi[i]
        return tuple(psi)


def _check(ctx, *weights):
    ws = [as_tuple(w) for w in weights]
    for w in ws:
        if len(w) != ctx.n:
            raise MismatchedSize(
                "weight length %d does not match context rank %d" % (len(w), ctx.n)
            )
    return ws


def _down_moves(ctx, psi):
    for root in ctx.positive_roots():
        pairing = ctx.pairing(root, psi)
        if pairing.denominator == 1 and pairing > 0:
            yield ctx.reflect(root, psi)


def weight_leq(phi, psi, ctx: WeightOrderContext) -> bool:
    """phi <= psi in the order generated by reflection moves."""
    phi, psi = _check(ctx, phi, psi)
    if phi == psi:
        return True
    seen = {psi}
    frontier = [psi]
    while frontier:
        nxt = []
        for w in frontier:
            for moved in _down_moves(ctx, w):
                if moved == phi:
                    return True
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return False


def is_dominant(psi, ctx: WeightOrderContext) -> bool:
    """No positive root pairs to a negative integer: psi is maximal."""
    (psi,) = _check(ctx, psi)
    for root in ctx.positive_roots():
        pairing = ctx.pairing(root, psi)
        if pairing.denominator == 1 and pairing < 0:
            return False
    return True


class StabilizerDescriptor:
    """Generating reflections (as root labels) and the subgroup they generate.

    Elements are stored as signed-permutation tables: w[i] = (src, sign)
    meaning (w psi)[i] = sign * psi[src].
    """

    __slots__ = ("roots", "elements")

    def __init__(self, roots, elements):
        self.roots = tuple(roots)
        self.elements = elements

    @property
    def order(self):
        return len(self.elements)

    def apply(self, element, psi):
        return tuple(sign * psi[src] for (src, sign) in element)

    def __repr__(self):
        return "StabilizerDescriptor(order=%d, roots=%r)" % (self.order, self.roots)


def _root_as_element(ctx, root):
    ident = [(i, 1) for i in range(ctx.n)]
    if root[0] == "A":
        i, j = root[1], root[2]
        ident[i], ident[j] = ident[j], ident[i]
    elif root[0] == "P":
        i, j = root[1], root[2]
        ident[i], ident[j] = (j, -1), (i, -1)
    else:
        i = root[1]
        ident[i] = (i, -1)
    return tuple(ident)


def _compose(a, b):
    """Element acting as 'first b, then a'."""
    return tuple((b[src][0], sign * b[src][1]) for (src, sign) in a)


def weyl_stabilizer(psi, ctx: WeightOrderContext) -> StabilizerDescriptor:
    """Stabilizer of psi: generated by the positive-root reflections fixing it."""
    (psi,) = _check(ctx, psi)
    roots = [r for r in ctx.positive_roots() if ctx.pairing(r, psi) == 0]
    gens = [_root_as_element(ctx, r) for r in roots]
    ident = tuple((i, 1) for i in range(ctx.n))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = _compose(g, e)
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
            if len(elements) > _GROUP_CAP:
                raise TooLarge("stabilizer exceeds %d elements" % _GROUP_CAP)
        frontier = nxt
    return StabilizerDescriptor(roots, elements)


def _integral_difference(phi1, phi2, ctx):
    diff = tuple(a - b for a, b in zip(phi1, phi2))
    return all(
        ctx.pairing(root, diff).denominator == 1 for root in ctx.positive_roots()
    )


def weights_equivalent(phi1, phi2, ctx: WeightOrderContext) -> bool:
    """Integral difference and identical stabilizers."""
    phi1, phi2 = _check(ctx, phi1, phi2)
    if not _integral_difference(phi1, phi2, ctx):
        return False
    fix1 = [r for r in ctx.positive_roots() if ctx.pairing(r, phi1) == 0]
    fix2 = [r for r in ctx.positive_roots() if ctx.pairing(r, phi2) == 0]
    return fix1 == fix2


def correctly_ordered(phi, psi, ctx: WeightOrderContext) -> bool:
    """phi dominant, phi - psi integral, and psi <= w psi for the whole
    stabilizer of phi."""
    phi, psi = _check(ctx, phi, psi)
    if not is_dominant(phi, ctx):
        return False
    if not _integral_difference(phi, psi, ctx):
        return False
    stab = weyl_stabilizer(phi, ctx)
    for e in stab.elements:
        if not weight_leq(psi, stab.apply(e, psi), ctx):
            return False
    return True
