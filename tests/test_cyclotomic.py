from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lieclass.cyclotomic import CyclotomicField, cyclotomic_polynomial


def as_ints(poly):
    assert all(c.denominator == 1 for c in poly)
    return [int(c) for c in poly]


class TestPolynomial:
    def test_known_values(self):
        assert as_ints(cyclotomic_polynomial(1)) == [-1, 1]
        assert as_ints(cyclotomic_polynomial(2)) == [1, 1]
        assert as_ints(cyclotomic_polynomial(3)) == [1, 1, 1]
        assert as_ints(cyclotomic_polynomial(4)) == [1, 0, 1]
        assert as_ints(cyclotomic_polynomial(6)) == [1, -1, 1]
        assert as_ints(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]

    def test_degree_is_totient(self):
        def totient(m):
            return sum(1 for k in range(1, m + 1) if _gcd(k, m) == 1)

        def _gcd(a, b):
            while b:
                a, b = b, a % b
            return a

        for m in range(1, 20):
            assert len(cyclotomic_polynomial(m)) - 1 == totient(m)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


elements = st.builds(
    lambda m, coeffs: CyclotomicField(m).element(coeffs),
    st.integers(1, 8),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
             min_size=1, max_size=6),
)


class TestFieldAxioms:
    def test_zeta_order(self):
        for m in range(1, 10):
            f = CyclotomicField(m)
            z = f.zeta()
            assert z**m == f.one()
            for k in range(1, m):
                assert z**k != f.one() or m == 1

    def test_rational_subfield(self):
        f = CyclotomicField(5)
        a = f.from_rational(Fraction(3, 7))
        assert a.is_rational() and a.as_rational() == Fraction(3, 7)

    def test_primitive_root_sum(self):
        f = CyclotomicField(5)
        z = f.zeta()
        assert z + z**2 + z**3 + z**4 == f.from_rational(-1)

    def test_field_instances_cached(self):
        assert CyclotomicField(7) is CyclotomicField(7)

    def test_mixed_field_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicField(3).zeta() + CyclotomicField(4).zeta()

    @given(elements, elements)
    def test_commutativity(self, a, b):
        if a.field is not b.field:
            return
        assert a + b == b + a
        assert a * b == b * a

    @given(elements)
    def test_distributivity_with_rationals(self, a):
        assert a * 2 + a == a * 3
        assert a - a == a.field.zero()

    def test_negative_power_raises(self):
        # elements are never divided, so there is no inverse to raise
        z = CyclotomicField(8).zeta()
        assert z**0 == CyclotomicField(8).one()
        with pytest.raises(ValueError):
            z**-1
