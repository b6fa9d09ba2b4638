"""The universal blow-up factor in its three presentations."""

import time
from fractions import Fraction as F
from itertools import product
from math import isqrt

import pytest

from blowup_genera import blowup_factor
from blowup_genera.blowup_factor import (
    IntegralityViolationError,
    _check_exponent,
    _exact_quotient,
    _gottsche_lattice,
    lattice_theta_series,
    yk_euler,
    yk_gottsche,
    yk_hol,
    yk_main,
)
from blowup_genera.coefficients import YPoly, coeff_evaluate
from blowup_genera.partitions import enumerate_lattice_vectors
from blowup_genera.qseries import QSeries, euler_product


def lattice_series(terms: dict, order: int) -> QSeries:
    """A lattice sum {(q_exp, y_exp): count} as a q-series over YPoly, valid through q^order."""
    coeffs = {}
    for (q_exp, y_exp), n in terms.items():
        coeffs[q_exp] = coeffs.get(q_exp, YPoly.zero()) + YPoly.monomial(y_exp, n)
    return QSeries.from_terms(coeffs, order + 1)


def test_yk_main_rank1_is_pure_euler_product():
    got = yk_main(1, 0, 8)
    assert got == euler_product(2, 1, -1, 9)
    assert got.coefficient(2) == YPoly.y()
    assert got.coefficient(4) == YPoly((0, 0, 2))


def test_yk_main_rank2_leading_terms():
    assert yk_main(2, 0, 4).coefficient(0) == 1
    y1 = yk_main(2, 1, 5)
    assert y1.offset == 1
    assert y1.coefficient(1) == YPoly((1, 1))  # 1 + y


def test_yk_main_lowest_exponent_is_balanced_vector():
    for r in (1, 2, 3):
        for k in range(r):
            assert yk_main(r, k, 10).offset == k * (r - k)


def test_yk_main_sign_variants_agree():
    # reversing a lattice vector negates the linear part, so both y-sign
    # conventions produce the same summed series
    for r, k in ((2, 0), (2, 1), (3, 1), (3, 2)):
        assert yk_main(r, k, 12, y_sign=+1) == yk_main(r, k, 12, y_sign=-1)


def test_lattice_support_congruence():
    for r, k in ((2, 1), (3, 1), (3, 2)):
        theta = lattice_theta_series(r, k, 16)
        for e, _y in theta:
            assert (e - k * (r - k)) % (2 * r) == 0


def test_yk_gottsche_matches_yk_main():
    for r in (1, 2, 3):
        for k in range(r):
            order = 2 * r * 4
            assert yk_gottsche(r, k, order) == yk_main(r, k, order)


def fraction_exponent(value: F, label: str) -> int:
    """A Fraction exponent that must be a nonnegative integer, else IntegralityViolationError."""
    return _exact_quotient(value.numerator, value.denominator, label)


def fraction_scan_gottsche_lattice(r: int, k: int, order: int) -> QSeries:
    """The original shifted-lattice sum: scan a box of integer m, form
    v = m + k/r over Fraction, and keep v^T A v <= order/(2r)."""
    bound = F(order, 2 * r)
    if r == 1:
        return QSeries.one(order + 1)
    shift = F(k, r)
    coord_cap = isqrt(int(2 * bound)) + 1
    terms = {}
    for m in product(range(-coord_cap - 1, coord_cap + 2), repeat=r - 1):
        v = [mi + shift for mi in m]
        s = sum(v)
        vav = (s * s + sum(x * x for x in v)) / 2
        if vav > bound:
            continue
        vai = sum((r - i) * v[i - 1] for i in range(1, r))
        q_exp = fraction_exponent(2 * r * vav, "q")
        y_exp = fraction_exponent(r * vav + vai, "y")
        terms[q_exp] = terms.get(q_exp, YPoly.zero()) + YPoly.monomial(y_exp)
    return QSeries.from_terms(terms, order + 1)


# every order below 30 for r <= 3; the Fraction scan costs about 40 us per
# box point, so ranks 4 and 5 take the orders on both sides of each widening
# of the box (orders 4 and 16 for r = 4, order 5 for r = 5)
GOTTSCHE_ORDERS = {
    1: range(30), 2: range(30), 3: range(30), 4: (0, 3, 4, 15, 16, 29), 5: (0, 4, 5, 19)
}


@pytest.mark.parametrize("r", sorted(GOTTSCHE_ORDERS))
def test_gottsche_lattice_matches_fraction_scan(r):
    for k in range(-3, r + 3):
        for order in GOTTSCHE_ORDERS[r]:
            got = lattice_series(_gottsche_lattice(r, k, order), order).to_json()
            assert got == fraction_scan_gottsche_lattice(r, k, order).to_json(), (r, k, order)


@pytest.mark.parametrize(
    "r, k, order", [(4, 0, 24), (4, 1, 24), (4, 2, 24), (4, 3, 24), (5, 2, 30), (6, 3, 35)]
)
def test_higher_rank_forms_cross_check(r, k, order):
    main = yk_main(r, k, order)
    assert yk_gottsche(r, k, order) == main
    at_one = main.map_coefficients(lambda c: coeff_evaluate(c, F(1)))
    assert at_one == yk_euler(r, k, order)


def product_reference(r: int, terms: dict, order: int) -> QSeries:
    """The generic product the shift-add replaced: Euler prefactor times the lattice series."""
    return euler_product(2 * r, r, -r, order + 1) * lattice_series(terms, order)


def euler_product_reference(r: int, k: int, order: int) -> QSeries:
    """The y = 1 product: prod (1 - q^(2rn))^-r times sum q^pair_form over the lattice."""
    terms = {}
    for vec in enumerate_lattice_vectors(r, k, order):
        terms[vec.pair_form] = terms.get(vec.pair_form, 0) + 1
    return euler_product(2 * r, 0, -r, order + 1) * QSeries.from_terms(terms, order + 1)


@pytest.mark.parametrize("r, k", [(r, k) for r in range(1, 7) for k in range(r)])
def test_shift_add_matches_product(r, k):
    # orders around the first shift (2r), the lowest lattice term k(r-k), and up to 40
    for order in sorted({0, 1, k * (r - k), 2 * r - 1, 2 * r, 2 * r + 1, 23, 40}):
        for y_sign in (+1, -1):
            want = product_reference(r, lattice_theta_series(r, k, order, y_sign), order)
            assert yk_main(r, k, order, y_sign).to_json() == want.to_json(), (order, y_sign)
        want = product_reference(r, _gottsche_lattice(r, k, order), order)
        assert yk_gottsche(r, k, order).to_json() == want.to_json(), order
        want = euler_product_reference(r, k, order)
        assert yk_euler(r, k, order).to_json() == want.to_json(), order


def test_order_600_forms_agree():
    # about 0.02 s per form on a 2-core machine; the bound leaves room for slow hosts
    start = time.perf_counter()
    main = yk_main(2, 1, 600)
    assert yk_gottsche(2, 1, 600) == main
    assert main.map_coefficients(lambda c: coeff_evaluate(c, F(1))) == yk_euler(2, 1, 600)
    assert time.perf_counter() - start < 5


def test_yk_euler_examples():
    e = yk_euler(1, 0, 8)
    # partition generating function in q^2
    assert [e.coefficient(2 * m) for m in range(5)] == [1, 1, 2, 3, 5]
    assert yk_euler(2, 1, 3).coefficient(1) == 2
    assert yk_euler(2, 0, 3).coefficient(0) == 1


def test_yk_euler_is_y_one_specialization():
    for r in (1, 2, 3):
        for k in range(r):
            at_one = yk_main(r, k, 2 * r * 4).map_coefficients(
                lambda c: coeff_evaluate(c, F(1))
            )
            assert at_one == yk_euler(r, k, 2 * r * 4)


def test_yk_hol_reports_both_values():
    rep = yk_hol(1, 0, 6)
    assert rep.stated == 1
    assert rep.main_at_y0 == QSeries.monomial(F(1), 0, 7)
    assert not rep.discrepant

    rep = yk_hol(2, 1, 6)
    assert rep.stated == 0
    # direct y = 0 evaluation leaves the single monotone lattice vector
    assert rep.main_at_y0 == QSeries.monomial(F(1), 1, 7)
    assert rep.discrepant
    payload = rep.to_json()
    assert payload["stated"] == 0 and payload["discrepant"] is True


def test_yk_hol_k0_always_one():
    for r in (1, 2, 3):
        rep = yk_hol(r, 0, 8)
        assert rep.main_at_y0 == QSeries.monomial(F(1), 0, 9)
        assert not rep.discrepant


def test_integrality_guard():
    assert _check_exponent(2, "q") == 2
    assert _check_exponent(0, "q") == 0
    with pytest.raises(IntegralityViolationError):
        _check_exponent(-1, "y")


def test_exact_quotient_guard():
    assert _exact_quotient(12, 4, "q") == 3
    assert _exact_quotient(0, 6, "y") == 0
    with pytest.raises(IntegralityViolationError, match="q exponent 7/2 is not an integer"):
        _exact_quotient(7, 2, "q")
    with pytest.raises(IntegralityViolationError, match="y exponent -2 is negative"):
        _exact_quotient(-4, 2, "y")


def test_gottsche_exponents_pass_the_guard(monkeypatch):
    # every q- and y-exponent of the shifted-lattice sum goes through the
    # checked quotient, by r and by 2r
    seen = []

    def spy(num, den, label):
        seen.append((label, den))
        return _exact_quotient(num, den, label)

    monkeypatch.setattr(blowup_factor, "_exact_quotient", spy)
    r, k, order = 3, 1, 18
    vectors = sum(_gottsche_lattice(r, k, order).values())
    assert vectors > 1
    assert seen == [("q", r), ("y", 2 * r)] * vectors
