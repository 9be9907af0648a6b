"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are residues of rational polynomials modulo the m-th cyclotomic
polynomial, stored low degree first.  Phi_m is computed by dividing x^m - 1
by the cyclotomic polynomials of the proper divisors of m.  Elements form
a ring here: +, -, * and nonnegative powers, and no division.  Linear
dependence over Q(zeta_m) is decided over Q instead, on the coordinates
in the basis 1, zeta, ..., zeta^(phi(m)-1) (quivers._absorb).  Everything
is a Fraction, so equality tests are exact.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(tuple(out))


def _poly_divmod(a, b):
    a = list(a)
    b = _trim(tuple(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = len(b) - 1
    lead = b[-1]
    q = [_ZERO] * max(len(a) - deg_b, 0)
    for i in range(len(a) - 1, deg_b - 1, -1):
        c = a[i] / lead
        if c:
            q[i - deg_b] = c
            for j, y in enumerate(b):
                a[i - deg_b + j] -= c * y
    return _trim(tuple(q)), _trim(tuple(a))


_PHI_CACHE = {}


def cyclotomic_polynomial(m):
    """Coefficients of Phi_m, low degree first, exact Fractions."""
    if m < 1:
        raise ValueError("m must be positive")
    if m in _PHI_CACHE:
        return _PHI_CACHE[m]
    # x^m - 1 divided by Phi_d over all proper divisors d of m
    poly = tuple([Fraction(-1)] + [_ZERO] * (m - 1) + [_ONE])
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    _PHI_CACHE[m] = poly
    return poly


class CyclotomicField:
    """Q[x]/Phi_m(x) with zeta = class of x, a primitive m-th root of 1."""

    _instances = {}

    def __new__(cls, m):
        if m in cls._instances:
            return cls._instances[m]
        self = super().__new__(cls)
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        cls._instances[m] = self
        return self

    def element(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        _, rem = _poly_divmod(coeffs, self.modulus)
        return CycElem(self, rem + (_ZERO,) * (self.degree - len(rem)))

    def from_rational(self, q):
        return self.element((Fraction(q),))

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def zeta(self, power=1):
        power %= self.m
        return self.element(tuple([_ZERO] * power + [_ONE]))

    def __repr__(self):
        return "CyclotomicField(%d)" % self.m


class CycElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CycElem):
            if other.field is not self.field:
                raise ValueError("elements live in different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        return CycElem(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        prod = _poly_mul(self.coeffs, o.coeffs)
        return self.field.element(prod)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("exponent must be >= 0: elements are not divided")
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.m, self.coeffs))

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return "CycElem(m=%d, %r)" % (self.field.m, [str(c) for c in self.coeffs])
