"""Exact coefficient rings and seeded specializations."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from blowup_genera.coefficients import (
    SplitMix64,
    Specialization,
    YPoly,
    YRat,
    poly_gcd,
    sample_specialization,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_polys = st.lists(small_fractions, min_size=0, max_size=5).map(YPoly)


def test_field_ops_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    one_minus_y = YRat(YPoly((1, -1)))
    assert one_minus_y * one_minus_y.reciprocal() == 1
    val = YRat(YPoly((2, -1)) * YPoly((3, -1)), YPoly((2,)))
    assert val.evaluate(F(1)) == 1


def test_ypoly_canonical_form():
    assert YPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert YPoly((0, 0)).coeffs == ()
    assert not YPoly()
    assert YPoly((0, 1)) == YPoly.y()
    assert YPoly.monomial(3).coeffs == (0, 0, 0, 1)


def test_ypoly_arithmetic():
    p = YPoly((2, -1))  # 2 - y
    q = YPoly((3, -1))  # 3 - y
    assert p * q == YPoly((6, -5, 1))
    assert p + q == YPoly((5, -2))
    assert (p - p) == 0
    assert p**2 == YPoly((4, -4, 1))
    assert p.evaluate(F(2)) == 0
    assert (2 * p) == YPoly((4, -2))


def test_ypoly_divmod_and_gcd():
    a = YPoly((6, -5, 1))  # (2-y)(3-y)
    quo, rem = a.divmod(YPoly((2, -1)))
    assert rem == 0 and quo == YPoly((3, -1))
    g = poly_gcd(a, YPoly((2, -1)))
    assert g.degree == 1
    assert a.divmod(g)[1] == 0
    assert poly_gcd(YPoly((1, 1)), YPoly((1,))) == 1


def test_yrat_reduction_and_normal_form():
    r = YRat(YPoly((6, -5, 1)), YPoly((2, -1)))  # (2-y)(3-y)/(2-y)
    assert r.den == YPoly.one()
    assert r.num == YPoly((3, -1))
    # denominator normalized to coprime integer coefficients, positive lead
    r2 = YRat(YPoly((1,)), YPoly((F(-1, 2), F(-3, 2))))
    assert r2.den.coeffs == (1, 3)
    assert r2.num.coeffs == (-2,)
    assert YRat(0, YPoly((5, 7))) == 0


def test_yrat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        YRat(YPoly.one(), YPoly.zero())
    with pytest.raises(ZeroDivisionError):
        YRat.zero().reciprocal()


def test_cross_type_equality_and_hash():
    assert YPoly((2,)) == F(2) == YRat(2)
    assert hash(YPoly((2,))) == hash(F(2)) == hash(YRat(2))
    assert YRat(YPoly((1, 1))) == YPoly((1, 1))
    assert YPoly((1, 1)) != 1


@given(small_fractions, small_fractions)
def test_rational_field_axioms(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


@given(small_polys, small_polys)
def test_ypoly_ring_axioms(p, q):
    assert (p + q) - q == p
    assert p * q == q * p


@given(small_polys, small_polys)
def test_yrat_exactness(p, q):
    a = YRat(p)
    b = YRat(q)
    assert (a + b) - b == a
    if q:
        assert (a * b) / b == a


def test_symbolic_matches_numeric_evaluation():
    p = YRat(YPoly((6, -5, 1)), YPoly((2,)))
    for y0 in (F(0), F(1), F(3, 7)):
        assert p.evaluate(y0) == (6 - 5 * y0 + y0 * y0) / 2


def test_serialization_grammar():
    # a constant prints exactly as its int or Fraction does
    for c in (0, 7, -2, F(3, 4), F(-2), F(-5, 6)):
        assert YPoly((c,)).to_str() == str(c)
    assert YPoly((1, 1)).to_str() == "1 + y"
    assert YPoly((2, -1)).to_str() == "2 - y"
    assert YPoly((0, F(1, 2), 0, -2)).to_str() == "1/2*y - 2*y^3"
    assert YPoly().to_str() == "0"
    assert YRat(YPoly((0, 1)), YPoly((1, 1))).to_str() == "(y) / (1 + y)"
    assert YPoly((1, 1)).evaluate(F(2)) == 3


def test_splitmix64_is_fixed_forever():
    # first outputs of the reference stream for seed 0; changing the
    # generator breaks every recorded report, so this is pinned
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4


def test_sample_specialization_deterministic():
    a = sample_specialization(3, 99)
    b = sample_specialization(3, 99)
    assert a == b
    assert a != sample_specialization(3, 100)
    assert a.seed == 99


def test_sample_specialization_invariants():
    for seed in range(40):
        s = sample_specialization(2, seed)
        vals = (s.t1, s.t2) + s.e
        assert len(set(vals)) == len(vals)
        assert all(v not in (0, 1) for v in vals)
        assert s.t1 != s.t2


def test_specialization_validation():
    with pytest.raises(ValueError):
        Specialization(F(1), F(2), (F(3),), 0)
    with pytest.raises(ValueError):
        Specialization(F(2), F(2), (F(3),), 0)


# -- the integer y-polynomial product against a Fraction schoolbook product --------

def schoolbook(a, b):
    """Fraction reference product of two coefficient sequences, lowest power first."""
    a, b = [F(c) for c in a], [F(c) for c in b]
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def exact(coeffs):
    """Each coefficient as (type, numerator, denominator): equal tuples, equal Fractions."""
    return [(type(c), c.numerator, c.denominator) for c in coeffs]


mixed_scalars = st.one_of(
    st.integers(-60, 60), st.fractions(min_value=-30, max_value=30, max_denominator=40)
)
mixed_coeffs = st.lists(st.one_of(st.just(0), mixed_scalars), max_size=6)


@given(mixed_coeffs, mixed_coeffs)
def test_integer_ypoly_product_is_the_fraction_product(a, b):
    product = YPoly(a) * YPoly(b)
    assert exact(product.coeffs) == exact(schoolbook(a, b))


@given(mixed_scalars, mixed_coeffs)
def test_scalar_times_ypoly_is_the_fraction_product(c, a):
    expected = exact(schoolbook([c], a))
    assert exact((c * YPoly(a)).coeffs) == expected
    assert exact((YPoly(a) * c).coeffs) == expected


@given(mixed_coeffs, st.integers(0, 4))
def test_ypoly_power_is_the_repeated_fraction_product(a, n):
    expected = (F(1),)
    for _ in range(n):
        expected = schoolbook(expected, a)
    assert exact((YPoly(a) ** n).coeffs) == exact(expected)
