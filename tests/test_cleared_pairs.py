"""YPoly as a lowest-terms cleared pair, differentially against a Fraction reference.

RefPoly below is the Fraction-tuple y-polynomial with the arithmetic the
cleared-pair YPoly replaced, and ref_mul / ref_invert / ref_at_y are the
term-by-term q-series loops that QSeries.__mul__, invert and at_y
replaced.  A QSeries holds only YPoly coefficients, so the references
compute in RefPoly and Fraction and store their results as YPoly.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from blowup_genera.blowup_factor import yk_euler, yk_gottsche, yk_hol, yk_main
from blowup_genera.coefficients import YPoly, YRat, cleared_value, sample_specialization
from blowup_genera.genera import (
    EQUIVARIANT,
    LIMIT,
    SeriesRequest,
    z_series,
    z_series_limit_closed,
    zhat_series,
)
from blowup_genera.qseries import InvertNonUnitError, QSeries, euler_product
from blowup_genera.rank1 import nekrasov_okounkov_rhs, w_series


class RefPoly:
    """Polynomial in y as a tuple of Fractions, no trailing zeros."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, RefPoly):
            return other
        if isinstance(other, (int, F)):
            return RefPoly((other,))
        return None

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = sorted((self.coeffs, o.coeffs), key=len, reverse=True)
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [F(0)] * max(len(self.coeffs) + len(o.coeffs) - 1, 0)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(o.coeffs):
                out[i + j] += x * y
        return RefPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = RefPoly((1,))
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.coeffs == o.coeffs

    def evaluate(self, y0):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * y0 + c
        return acc

    def to_str(self):
        pieces = []
        for exp, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                ypow = "y" if exp == 1 else f"y^{exp}"
                body = ypow if mag == 1 else f"{mag}*{ypow}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces) or "0"


def exact(coeffs):
    """Each coefficient as (type, numerator, denominator): equal tuples, equal Fractions."""
    return [(type(c), c.numerator, c.denominator) for c in coeffs]


def in_lowest_terms(p: YPoly) -> bool:
    return (
        type(p.num) is tuple
        and all(type(c) is int for c in p.num)
        and p.den > 0
        and (p.num[-1] != 0 if p.num else p.den == 1)
        and gcd(p.den, *p.num) == 1
    )


def same(p: YPoly, ref: RefPoly) -> bool:
    return in_lowest_terms(p) and exact(p.coeffs) == exact(ref.coeffs)


scalars = st.one_of(
    st.integers(-60, 60), st.fractions(min_value=-30, max_value=30, max_denominator=40)
)
coeff_lists = st.lists(st.one_of(st.just(0), scalars), max_size=6)
points = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=9))


# -- the sign of the denominator, constants and zero ---------------------------

def test_a_pair_and_its_negation_over_minus_den_are_one_ypoly():
    # the kernel's denominator, a product of (p - q)^m, can be negative
    for num, den in (([3, -4, 0, 6], 10), ([-7], 3), ([0, 5], 1), ([2, 4], 6)):
        a = cleared_value((num, den))
        b = cleared_value(([-c for c in num], -den))
        assert a == b and hash(a) == hash(b)
        assert a.den > 0 and in_lowest_terms(a)
    assert cleared_value(([1, 2], -3)).to_str() == "-1/3 - 2/3*y"


def test_a_constant_ypoly_equals_and_hashes_like_its_scalar():
    for value in (3, -3, F(3, 2), F(-5, 7), 1):
        for p in (YPoly((value,)), cleared_value(((F(value).numerator * 6,), F(value).denominator * 6)),
                  cleared_value(((-F(value).numerator,), -F(value).denominator))):
            assert p == value and value == p
            assert p == F(value) and hash(p) == hash(value) == hash(F(value))
    assert YPoly((2, 1)) != 2 and YPoly((F(1, 2),)) != 1


def test_every_zero_is_the_one_zero_pair():
    for z in (YPoly(()), YPoly((0, 0)), cleared_value(([0], 5)), cleared_value(([0, 0], -3)),
              YPoly((1, 2)) - YPoly((1, 2))):
        assert not z and z == 0 and z == F(0) and z == YPoly()
        assert (z.num, z.den) == ((), 1) and hash(z) == 0 and z.to_str() == "0"
        assert z.evaluate(F(2, 3)) == 0 and type(z.evaluate(F(2, 3))) is F


def test_the_constructor_keeps_lowest_terms():
    assert (YPoly((2, 4, 0)).num, YPoly((2, 4, 0)).den) == ((2, 4), 1)
    p = YPoly((F(1, 2), F(1, 3), F(-5, 6)))
    assert (p.num, p.den) == ((3, 2, -5), 6)
    assert in_lowest_terms(YPoly((F(2, 4), F(3, 6))))


# -- YPoly against the Fraction reference --------------------------------------

@given(coeff_lists, coeff_lists)
def test_ring_operations_are_the_fraction_operations(a, b):
    p, q = YPoly(a), YPoly(b)
    rp, rq = RefPoly(a), RefPoly(b)
    assert same(p, rp)
    assert same(p + q, rp + rq)
    assert same(p - q, rp - rq)
    assert same(-p, -rp)
    assert same(p * q, rp * rq)
    assert (p == q) == (rp == rq)
    assert p.to_str() == rp.to_str()
    if rp == rq:
        assert hash(p) == hash(q)
    # the same polynomial over a scaled, negated denominator
    twin = cleared_value(([-3 * c for c in p.num], -3 * p.den))
    assert twin == p and hash(twin) == hash(p)


@given(coeff_lists, scalars)
def test_scalar_operations_are_the_fraction_operations(a, c):
    p, rp = YPoly(a), RefPoly(a)
    for got, want in ((p + c, rp + c), (c + p, c + rp), (p - c, rp - c), (c - p, c - rp),
                      (p * c, rp * c), (c * p, c * rp)):
        assert type(got) is YPoly and same(got, want)
    assert (p == c) == (rp == c) == (c == p)
    if c:
        assert same(p / c, rp * (1 / F(c)))


@given(coeff_lists, st.integers(0, 4))
def test_powers_are_the_fraction_powers(a, n):
    assert same(YPoly(a) ** n, RefPoly(a) ** n)


@given(coeff_lists, points)
def test_evaluate_is_the_fraction_horner_value(a, y0):
    got = YPoly(a).evaluate(y0)
    assert type(got) is F and got == RefPoly(a).evaluate(y0)


# -- QSeries against the term-by-term reference --------------------------------

def to_ref(c: YPoly) -> RefPoly:
    return RefPoly(c.coeffs)


def from_ref(c):
    """A reference value as a QSeries coefficient: a RefPoly as a YPoly, a scalar as is."""
    return YPoly(c.coeffs) if isinstance(c, RefPoly) else c


def described(s):
    """offset, order and every coefficient with its type and lowest-terms pair."""
    return s.offset, s.order, [(type(c), c.num, c.den) for c in s.coeffs]


def ref_mul(a: QSeries, b: QSeries) -> QSeries:
    order = min(a.order + b.offset, b.order + a.offset)
    offset = a.offset + b.offset
    if offset >= order or a.is_zero() or b.is_zero():
        return QSeries.zero(order)
    out = [0] * (order - offset)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if x and y and i + j < order - offset:
                out[i + j] = out[i + j] + to_ref(x) * to_ref(y)
    return QSeries(offset, [from_ref(c) for c in out], order)


def ref_invert(a: QSeries) -> QSeries:
    m, cs = a.offset, [to_ref(c) for c in a.coeffs]
    inv0 = 1 / cs[0].coeffs[0]
    out = [inv0] + [0] * (a.order - m - 1)
    for n in range(1, len(out)):
        acc = 0
        for j in range(1, min(n, len(cs) - 1) + 1):
            if cs[j]:
                acc = acc + cs[j] * out[n - j]
        out[n] = -inv0 * acc if acc else 0
    return QSeries(-m, [from_ref(c) for c in out], a.order - 2 * m)


def ref_at_y(a: QSeries, y0) -> QSeries:
    terms = {e: to_ref(c).evaluate(y0) for e, c in a.items()}
    return QSeries.from_terms(terms, a.order)


# entries mix int, Fraction and YPoly, zeros of each type included; the
# constructor stores each as a YPoly
entries = st.one_of(
    st.just(0), st.just(F(0)), st.just(YPoly()), scalars, coeff_lists.map(YPoly)
)
units = st.one_of(
    st.integers(1, 9), st.integers(-9, -1), st.fractions(min_value=1, max_value=9, max_denominator=7),
    st.integers(1, 9).map(lambda c: YPoly((c,))),
)


@st.composite
def mixed_series(draw, lead=None):
    offset = draw(st.integers(-2, 2))
    head = [draw(lead)] if lead is not None else []
    coeffs = head + draw(st.lists(entries, max_size=5))
    order = offset + len(coeffs) + draw(st.integers(0, 2))
    return QSeries(offset, coeffs, order)


@given(mixed_series(), mixed_series())
def test_series_product_is_the_term_by_term_product(a, b):
    assert described(a * b) == described(ref_mul(a, b))


@given(mixed_series(lead=units))
def test_series_inverse_is_the_term_by_term_inverse(a):
    assert described(a.invert()) == described(ref_invert(a))


@given(mixed_series(), points)
def test_series_at_y_is_the_fraction_evaluation(a, y0):
    assert described(a.at_y(y0)) == described(ref_at_y(a, y0))


def test_rational_functions_of_y_are_typed_errors():
    # Q[y] is the one coefficient ring: a non-constant lowest coefficient
    # is no unit, a polynomial divides only by a scalar, and a YRat is no
    # QSeries coefficient, so no series holds one to add, scale or print
    s = QSeries(0, [YPoly((1, -1)), 2, YPoly.y()], 3)
    with pytest.raises(InvertNonUnitError, match="1 - y"):
        s.invert()
    with pytest.raises(TypeError):
        YPoly((1, 1)) / YPoly((2,))
    assert YPoly((1, 1)) / 3 == YPoly((F(1, 3), F(1, 3)))
    assert YPoly((1, 1)) / F(2, 3) == YPoly((F(3, 2), F(3, 2)))
    assert YPoly.one() / YRat(YPoly((1, -1))) == YRat(YPoly.one(), YPoly((1, -1)))
    rat = YRat(YPoly.one(), YPoly((1, -1)))
    one = QSeries.one(2)
    for op in (lambda: QSeries(0, [1, rat], 2), lambda: QSeries(0, [YRat(YPoly((2,)))], 1),
               lambda: QSeries.from_terms({1: rat}, 2), lambda: one.scale(rat),
               lambda: one * rat, lambda: rat * one, lambda: one + rat,
               lambda: one + QSeries.monomial(rat, 1, 2)):
        with pytest.raises(TypeError, match="YRat"):
            op()


def test_every_series_coefficient_is_a_ypoly():
    # YPoly is the one coefficient type: every builder and every series
    # operation returns YPoly coefficients, whatever scalars went in
    spec = sample_specialization(2, 101)
    z = z_series(SeriesRequest(rank=2, max_n=2, spec=spec))
    built = [z, z_series_limit_closed(SeriesRequest(rank=2, max_n=2, spec=spec, mode=LIMIT)),
             w_series(sample_specialization(1, 44), 5), nekrasov_okounkov_rhs(5),
             yk_main(2, 1, 12), yk_gottsche(2, 1, 12), yk_euler(2, 1, 12),
             yk_hol(2, 1, 12).main_at_y0, euler_product(1, 0, -2, 8), euler_product(2, 1, -1, 8)]
    for mode in (EQUIVARIANT, LIMIT):
        built.append(z_series(SeriesRequest(rank=2, max_n=2, spec=spec, mode=mode)))
        built.append(zhat_series(SeriesRequest(rank=2, max_n=2, spec=spec, k=1, mode=mode)))
    scalars_only = QSeries(-1, [2, F(1, 3), 0, -5], 4)
    for s in (z, scalars_only):
        built += [s.at_y(F(2, 3)), s * s, s.invert(), s.truncate(2), s ** 2, s ** -1,
                  s + s, -s, s.scale(3), F(1, 2) * s, QSeries.from_terms({0: 1, 2: F(1, 2)}, 3)]
    for s in built:
        assert s.coeffs and all(type(c) is YPoly for c in s.coeffs), s
        assert type(s.coefficient(s.offset - 1)) is YPoly
