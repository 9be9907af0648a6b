"""Joseph-ideal predicates for tuple parameters, the bounded-module count,
and the paired Spin module dimension bookkeeping.

For sl-side tuples the verdict is one of three mutually exclusive cases:
semi-integral semi-decreasing, singular integral semi-decreasing, or a
regular integral tuple that is exactly one adjacent swap away from being
decreasing (the swap index is reported, 1-based).  On the sp side the
predicate is Shale-Weil membership.

The count of infinite-dimensional simple bounded modules with a fixed
annihilator reduces to counting quiver simples with the matching
monodromy: quiver kind A of size n_V/2 for the wedge square module and
kind B of size n_V for the symmetric square.

A positive Shale-Weil tuple mu determines a pair of Spin(2n) highest
weights Lambda = mu - rho_D and its sigma twist; the two Weyl dimensions
always agree since the D_n dimension formula only sees the squares of the
shifted coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BadParameter,
    MismatchedSize,
    NotPositiveShaleWeil,
    NotShaleWeil,
    TupleTooShort,
)
from .tuples import (
    as_tuple,
    classify_tuple,
    is_positive_sw,
    is_shale_weil,
    monodromy,
    sigma,
)


class JosephVerdict:
    """kind is one of CaseA, CaseB, CaseC, NotJoseph; k is the 1-based
    adjacent swap index in CaseC."""

    __slots__ = ("kind", "k")

    def __init__(self, kind, k=None):
        self.kind = kind
        self.k = k

    @property
    def is_joseph(self):
        return self.kind != "NotJoseph"

    def __eq__(self, other):
        if isinstance(other, str):
            return self.kind == other and self.k is None
        if isinstance(other, tuple):
            return (self.kind, self.k) == other
        if isinstance(other, JosephVerdict):
            return (self.kind, self.k) == (other.kind, other.k)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.k))

    def __repr__(self):
        if self.kind == "CaseC":
            return "CaseC(%d)" % self.k
        return self.kind


def _single_adjacent_swap(t):
    """If sorting t strictly descending takes exactly one adjacent swap,
    return its 1-based index, else None.  Assumes distinct entries."""
    rises = [i for i in range(len(t) - 1) if t[i] < t[i + 1]]
    if len(rises) != 1:
        return None
    i = rises[0]
    swapped = list(t)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    if all(swapped[j] > swapped[j + 1] for j in range(len(swapped) - 1)):
        return i + 1
    return None


def is_joseph_sl(entries) -> JosephVerdict:
    t = as_tuple(entries)
    if len(t) < 3:
        raise TupleTooShort("need at least 3 entries")
    cls = classify_tuple(t)
    if cls.semi_integral and cls.semi_decreasing:
        return JosephVerdict("CaseA")
    if cls.integral and not cls.regular and cls.semi_decreasing:
        return JosephVerdict("CaseB")
    if cls.integral and cls.regular:
        k = _single_adjacent_swap(t)
        if k is not None:
            return JosephVerdict("CaseC", k)
    return JosephVerdict("NotJoseph")


def is_joseph_sp(entries) -> bool:
    return is_shale_weil(entries)


def bounded_count_sl(entries, w_kind, n_v) -> int:
    from .quivers import QuiverSpec, count_P

    t = as_tuple(entries)
    if w_kind == "wedge2":
        if n_v % 2:
            raise BadParameter("wedge2 counting needs even n_V")
        dim_w = n_v * (n_v - 1) // 2
        spec = QuiverSpec("A", n_v // 2)
    elif w_kind == "sym2":
        dim_w = n_v * (n_v + 1) // 2
        spec = QuiverSpec("B", n_v)
    else:
        raise BadParameter("w_kind must be 'sym2' or 'wedge2'")
    if len(t) != dim_w:
        raise MismatchedSize(
            "tuple length %d does not match dim W = %d" % (len(t), dim_w)
        )
    return count_P(spec, monodromy(t))


_rho_d = lambda n: tuple(Fraction(n - 1 - i) for i in range(n))


class OddPair:
    __slots__ = ("mu", "lam", "sigma_lam", "dims")

    def __init__(self, mu, lam, sigma_lam, dims):
        self.mu = mu
        self.lam = lam
        self.sigma_lam = sigma_lam
        self.dims = dims

    def __repr__(self):
        return "OddPair(mu=%r, lam=%r, dims=%r)" % (self.mu, self.lam, self.dims)


def _weyl_dim_d(lam):
    """Weyl dimension formula for D_n in epsilon coordinates; the positive
    roots are e_i - e_j and e_i + e_j, so only squares of the shifted
    coordinates enter."""
    n = len(lam)
    rho = _rho_d(n)
    l = [a + b for a, b in zip(lam, rho)]
    num = Fraction(1)
    den = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= l[i] * l[i] - l[j] * l[j]
            den *= rho[i] * rho[i] - rho[j] * rho[j]
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise BadParameter("weight is not dominant regular enough: %r" % (lam,))
    return int(dim)


def odd_pair(entries) -> OddPair:
    mu = as_tuple(entries)
    if not is_positive_sw(mu):
        raise NotPositiveShaleWeil("tuple is not positive Shale-Weil")
    n = len(mu)
    rho = _rho_d(n)
    lam = tuple(a - b for a, b in zip(mu, rho))
    if any(2 * a % 2 != 1 for a in lam):
        raise NotPositiveShaleWeil("highest weight is not strictly half-integral")
    dominant = all(lam[i] >= lam[i + 1] for i in range(n - 2)) and (
        n < 2 or lam[n - 2] >= abs(lam[n - 1])
    )
    if not dominant:
        raise NotPositiveShaleWeil("shifted tuple is not dominant for D_n")
    slam = sigma(lam)
    dims = (_weyl_dim_d(lam), _weyl_dim_d(slam))
    return OddPair(mu, lam, slam, dims)


def sw_pair_index(entries, module_id):
    mu = as_tuple(entries)
    if not is_shale_weil(mu):
        raise NotShaleWeil("tuple is not Shale-Weil")
    if not is_positive_sw(mu):
        mu = sigma(mu)
    return mu, module_id
