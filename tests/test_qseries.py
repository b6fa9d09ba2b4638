"""Truncated series ring: exactness, truncation tracking, product expansions."""

from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, strategies as st

from blowup_genera.coefficients import YPoly
from blowup_genera.qseries import (
    InvertNonUnitError,
    QSeries,
    TruncationError,
    euler_product,
)


def series(offset, coeffs, order):
    return QSeries(offset, [F(c) for c in coeffs], order)


small_series = st.builds(
    series,
    st.just(0),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
    st.just(8),
)


def test_mul_example():
    a = series(0, [1, 1], 2)  # 1 + q, valid below q^2
    b = series(0, [1, -1], 2)  # 1 - q
    prod = a * b
    assert prod.order == 2
    assert prod.coefficient(0) == 1 and prod.coefficient(1) == 0
    # with more valid room the q^2 term shows up
    a = series(0, [1, 1, 0], 3)
    b = series(0, [1, -1, 0], 3)
    assert (a * b).coefficient(2) == -1


def test_invert_geometric():
    inv = series(0, [1, -1] + [0] * 6, 8).invert()
    for e in range(8):
        assert inv.coefficient(e) == 1


def test_invert_laurent_shift():
    s = series(1, [1, 1] + [0] * 4, 7)  # q * (1 + q + O(q^5))
    inv = s.invert()
    assert inv.offset == -1
    assert inv.order == 7 - 2
    assert inv.coefficient(-1) == 1 and inv.coefficient(0) == -1
    assert (s * inv).coefficient(0) == 1


def test_invert_nonunit():
    with pytest.raises(InvertNonUnitError):
        QSeries.zero(5).invert()


def test_truncation_is_tracked():
    a = series(0, [1, 2, 3], 3)
    with pytest.raises(TruncationError):
        a.coefficient(3)
    b = series(0, [1, 2, 3, 4], 4)
    with pytest.raises(TruncationError):
        a.first_difference(b, 3)
    assert a.agrees_to(b, 2)
    with pytest.raises(TruncationError):
        a.truncate(9)
    # an order at or below the offset leaves the zero series O(q^order)
    assert QSeries.zero(5).truncate(3) == QSeries.zero(3)
    assert QSeries(4, [1], 8).truncate(3) == QSeries.zero(3)
    assert series(0, [1, 0, 3], 3).truncate(2) == series(0, [1], 2)


def test_mul_order_bookkeeping():
    a = series(0, [1] * 4, 4)
    b = series(2, [1] * 3, 5)
    prod = a * b
    assert prod.offset == 2
    assert prod.order == min(4 + 2, 5 + 0)
    s = a + b
    assert s.order == 4


@given(small_series, small_series)
def test_structural_equality_ignores_padding(a, b):
    assert series(0, [0, 1], 4) == series(1, [1], 4)
    assert series(0, [1], 2) != series(0, [1], 3)  # different valid orders
    # the canonical form is one (offset, order, coeffs) however the series is built
    built = (
        series(0, [0, 0, 2, 0, -1], 6),
        QSeries.from_terms({2: 2, 4: -1}, 6),
        series(1, [0, 2, 0, -1, 0, 0, 5], 8).truncate(6),
    )
    assert all(s == built[0] and hash(s) == hash(built[0]) for s in built)
    # equal exactly when no coefficient below the common order differs
    assert (a == b) == (a.first_difference(b, a.order - 1) is None)


def test_pow_and_scale():
    a = series(0, [1, 1, 0, 0], 4)
    assert a**2 == a * a
    assert a**0 == QSeries.one(4)
    assert (a**-1) * a == QSeries.one(4)
    assert a.scale(F(1, 2)).coefficient(1) == F(1, 2)


def agree(x, y):
    through = min(x.order, y.order) - 1
    return x.agrees_to(y, through)


@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    # validity orders may legitimately differ between routes (a known zero
    # bottom extends products), so compare on the common valid range
    assert agree((a + b) + c, a + (b + c))
    assert agree(a * (b + c), a * b + a * c)
    assert agree(a * b, b * a)


@given(small_series)
def test_invert_roundtrip(a):
    if not a.is_zero() and a.coefficient(a.offset) != 0 and a.offset == 0:
        prod = a * a.invert()
        assert all(prod.coefficient(e) == (1 if e == 0 else 0) for e in range(prod.order))


def test_euler_product_symbolic_example():
    # prod (1 - (q^2 y)^n)^-1: coefficient of q^(2m) is p(m) * y^m
    s = euler_product(2, 1, -1, 7)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == YPoly.y()
    assert s.coefficient(4) == YPoly((0, 0, 2))
    assert s.coefficient(6) == YPoly((0, 0, 0, 3))
    assert s.coefficient(3) == 0


def test_euler_product_partition_counts():
    s = euler_product(1, 0, -1, 5)
    assert [s.coefficient(e) for e in range(5)] == [1, 1, 2, 3, 5]


def test_euler_product_zero_power():
    assert euler_product(3, 1, 0, 6) == QSeries.one(6)


def test_euler_product_power_matches_repeated_product():
    base = euler_product(1, 0, -1, 9)
    assert euler_product(1, 0, -3, 9) == base * base * base


def reference_euler_product(q_step, y_step, power, order, y0=None):
    """The factor-by-factor expansion that euler_product replaced, at y0 if given.

    Each factor (1 - c * q**(q_step*n))**power, c = y**(y_step*n), is expanded
    by the binomial series and multiplied into the running QSeries product.
    """
    result = QSeries.one(order)
    if power == 0:
        return result
    n = 1
    while n * q_step < order:
        if y_step == 0:
            c = 1
        elif y0 is None:
            c = YPoly.monomial(y_step * n)
        else:
            c = F(y0) ** (y_step * n)
        q_exp = n * q_step
        terms = {0: 1}
        for j in range(1, (order - 1) // q_exp + 1):
            terms[j * q_exp] = comb(-power - 1 + j, j) * c**j
        result = result * QSeries.from_terms(terms, order)
        n += 1
    return result


@pytest.mark.parametrize("power", (0, -1, -2, -6))
@pytest.mark.parametrize("y_step", (0, 1, 3))
@pytest.mark.parametrize("q_step", (1, 2, 3, 6))
def test_euler_product_matches_factor_by_factor_reference(q_step, y_step, power):
    for order in (0, 1, 2, 7, 19, 40):
        got = euler_product(q_step, y_step, power, order)
        want = reference_euler_product(q_step, y_step, power, order)
        assert got.to_json() == want.to_json()
        for y0 in (F(0), F(1), F(2, 3)):
            want = reference_euler_product(q_step, y_step, power, order, y0=y0)
            assert got.at_y(y0) == want
            assert got.at_y(y0).to_json() == want.to_json()


def test_euler_product_rejects_positive_power_and_step():
    with pytest.raises(ValueError, match="power"):
        euler_product(1, 0, 1, 5)
    with pytest.raises(ValueError, match="q_step"):
        euler_product(0, 1, -1, 5)


def test_euler_product_rejects_negative_y_step():
    # a negative y step would place y**-n, which no YPoly holds
    with pytest.raises(ValueError, match="y_step"):
        euler_product(1, -1, -1, 5)


def test_euler_product_numeric_y():
    # prod (1 - (y q)^n)^-1 at y = 2: p(n) * 2^n
    at_two = euler_product(1, 1, -1, 8).at_y(F(2))
    assert at_two.coeffs == (1, 2, 8, 24, 80, 224, 704, 1920)


def test_at_y_folds_zeros_like_from_terms():
    s = QSeries.from_terms({1: YPoly((0, 1)), 2: YPoly((3,)), 3: F(2), 5: YPoly((1, -1))}, 7)
    at_zero = s.at_y(F(0))
    assert (at_zero.offset, at_zero.order) == (2, 7)
    assert at_zero.coeffs == (3, 2, 0, 1, 0)
    at_one = s.at_y(F(1))
    assert (at_one.offset, at_one.coeffs) == (1, (1, 3, 2, 0, 0, 0))
    # a series that vanishes at y0 is the zero series of the same order
    vanishing = QSeries.from_terms({2: YPoly((0, 1))}, 5).at_y(F(0))
    assert vanishing == QSeries.zero(5) and vanishing.offset == 5
    assert s.at_y(F(2, 3)).to_json()["coeffs"] == ["2/3", "3", "2", "0", "1/3", "0"]


def test_json_encoding():
    s = series(1, [1, 2], 3)
    assert s.to_json() == {"offset": 1, "order": 3, "coeffs": ["1", "2"]}


def test_from_terms_and_items():
    s = QSeries.from_terms({4: F(7), 2: F(0), 6: F(1)}, 8)
    assert s.offset == 4
    assert s.items() == [(4, F(7)), (6, F(1))]
    assert s.coefficient(2) == 0
