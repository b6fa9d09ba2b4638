"""Closed forms of the universal blow-up factor Y_k in three presentations.

Each form is the Euler prefactor prod_{n>0} (1 - (q^2 y)^(rn))^-r times a
finite lattice sum.  A lattice sum is kept as counts of exponent pairs
(Q, e), and the product is qseries.euler_times, the engine's one
Euler-product shift-add, with q-step 2r, y-step r and r colors: each
term q^Q y^e adds c_r(m), the number of r-colored partitions of m, to the
coefficient of q^(Q + 2rm) y^(e + rm).  No q-series is multiplied.

yk_main: the lattice sum over integer vectors with sum k, each
contributing q^Q * y^((Q + L)/2) where Q = sum_{i<j} (k_i - k_j)^2 and
L = sum_{i<j} (k_i - k_j).  Half-integer intermediates are never
materialized; the combined exponents are formed as integers and checked.

yk_gottsche: the same series as an eta-quotient style product in x times
a theta sum over the shifted lattice Z^(r-1) + (k/r) * (1,...,1), with
the upper-triangular all-ones Gram matrix A: each vector v contributes
x^(v^T A v) * y^(v^T A I).  Its lattice is enumerated independently of
yk_main's, so the two presentations cross-check each other.

yk_euler: the y = 1 specialization, prod (1 - q^(2rn))^-r times
sum q^Q: yk_main's lattice with its y-exponents collapsed to 0, and the
shift-add with y-step 0, so every coefficient is a constant YPoly.

yk_hol: the y = 0 branch.  The stated table value is 1 for k = 0 and 0
otherwise; direct evaluation of yk_main at y = 0 instead leaves the single
monotone lattice vector, giving q^(k(r-k)).  Both values are reported side
by side without deciding intent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .partitions import check_k, enumerate_lattice_vectors
from .qseries import QSeries, euler_times
from .records import Record


class IntegralityViolationError(ArithmeticError):
    """A combined lattice exponent failed to be a nonnegative integer."""


def _check_exponent(value: int, label: str) -> int:
    if value < 0:
        raise IntegralityViolationError(f"{label} exponent {value} is negative")
    return value


def _exact_quotient(num: int, den: int, label: str) -> int:
    if num % den:
        raise IntegralityViolationError(f"{label} exponent {Fraction(num, den)} is not an integer")
    return _check_exponent(num // den, label)


def lattice_theta_series(
    r: int, k: int, order: int, y_sign: int = +1
) -> dict[tuple[int, int], int]:
    """Lattice sum of yk_main through q^order, as {(q_exp, y_exp): count}.

    Each vector contributes q^Q y^((Q + L)/2).  y_sign flips the linear
    part of the y exponent to (Q - L)/2; the two signs give the same
    series because reversing a vector negates L while fixing Q.  Every
    contributing q-exponent is checked to be congruent to k(r-k) mod 2r.
    """
    if y_sign not in (+1, -1):
        raise ValueError("y_sign must be +1 or -1")
    terms: dict[tuple[int, int], int] = {}
    for vec in enumerate_lattice_vectors(r, k, order):
        q_exp = _check_exponent(vec.pair_form, "q")
        linear = sum(ki - kj for ki, kj in combinations(vec.entries, 2))
        y_exp = _exact_quotient(q_exp + y_sign * linear, 2, "y")
        if (q_exp - k * (r - k)) % (2 * r) != 0:
            raise IntegralityViolationError(
                f"lattice exponent {q_exp} is not congruent to k(r-k) mod 2r"
            )
        terms[q_exp, y_exp] = terms.get((q_exp, y_exp), 0) + 1
    return terms


def yk_main(r: int, k: int, order: int, y_sign: int = +1) -> QSeries:
    """Blow-up factor in its Euler-product-times-lattice-sum form, over YPoly.

    Memoized per (r, k, order, y_sign) for the process, since the drivers
    of one rank ask for one factor several times; no caller changes a
    QSeries in place, so they share it.
    """
    return _yk_main(r, k, order, y_sign)


@lru_cache(maxsize=None)
def _yk_main(r: int, k: int, order: int, y_sign: int) -> QSeries:
    check_k(r, k)
    return euler_times(lattice_theta_series(r, k, order, y_sign), 2 * r, r, r, order + 1)


def _gottsche_lattice(r: int, k: int, order: int) -> dict[tuple[int, int], int]:
    # vectors v = m + (k/r)(1,..,1), m integral, with v^T A v <= order/(2r);
    # A upper-triangular ones gives v^T A v = ((sum v)^2 + sum v^2)/2.  In
    # the scaled coordinates w = r*v, each w_i = r*m_i + k, the bound reads
    # F(w) = (sum w)^2 + sum w^2 <= r*order, with q-exponent F/r and
    # y-exponent (F + 2*sum (r-i) w_i)/(2r).  The recursion picks w_1, w_2,
    # ... in turn: with j - 1 coordinates still open after a prefix of sum s
    # and square sum S, the smallest real completion of F is S + s^2/j, so
    # the prefix is kept only while j*S + s^2 <= j*r*order (exact at j = 1).
    # The terms are counted by (q, y) exponent pair, as in lattice_theta_series.
    if r == 1:
        # empty lattice, the sum is the single term 1
        return {(0, 0): 1}
    cap = r * order
    terms: dict[tuple[int, int], int] = {}

    def add_term(ws: tuple[int, ...], form: int) -> None:
        q_exp = _exact_quotient(form, r, "q")
        linear = sum((r - i) * w for i, w in enumerate(ws, start=1))
        y_exp = _exact_quotient(form + 2 * linear, 2 * r, "y")
        terms[q_exp, y_exp] = terms.get((q_exp, y_exp), 0) + 1

    def extend(ws: tuple[int, ...], s: int, sq: int) -> None:
        j = r - 1 - len(ws)  # open coordinates after this one, plus one
        # j*(sq + x^2) + (s + x)^2 <= j*cap, a quadratic in x = r*m + k
        disc = s * s - (j + 1) * (s * s + j * sq - j * cap)
        if disc < 0:
            return
        root = isqrt(disc)
        x_lo = -((root + s) // (j + 1))
        x_hi = (root - s) // (j + 1)
        for m in range(-((k - x_lo) // r), (x_hi - k) // r + 1):
            x = r * m + k
            if j == 1:
                add_term(ws + (x,), (s + x) ** 2 + sq + x * x)
            else:
                extend(ws + (x,), s + x, sq + x * x)

    extend((), 0, 0)
    return terms


def yk_gottsche(r: int, k: int, order: int) -> QSeries:
    """Blow-up factor in the eta-quotient and shifted-lattice presentation."""
    check_k(r, k)
    return euler_times(_gottsche_lattice(r, k, order), 2 * r, r, r, order + 1)


def yk_euler(r: int, k: int, order: int) -> QSeries:
    """Euler-characteristic branch: the blow-up factor at y = 1, integer constants."""
    check_k(r, k)
    lattice: dict[tuple[int, int], int] = {}
    for (q_exp, _y_exp), n in lattice_theta_series(r, k, order).items():
        lattice[q_exp, 0] = lattice.get((q_exp, 0), 0) + n
    return euler_times(lattice, 2 * r, 0, r, order + 1)


class YkHolReport(Record):
    """Holomorphic branch: stated table value next to the direct y = 0 value."""

    __slots__ = _fields = ("r", "k", "stated", "main_at_y0")

    def __init__(self, r: int, k: int, stated: int, main_at_y0: QSeries):
        self._set(r, k, stated, main_at_y0)

    @property
    def discrepant(self) -> bool:
        return self.main_at_y0 != QSeries.monomial(self.stated, 0, self.main_at_y0.order)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "k": self.k,
            "stated": self.stated,
            "main_at_y0": self.main_at_y0.to_json(),
            "discrepant": self.discrepant,
        }


def yk_hol(r: int, k: int, order: int) -> YkHolReport:
    """Holomorphic-Euler branch: stated value plus yk_main evaluated at y = 0.

    For 0 < k < r the two disagree (q^(k(r-k)) versus 0); the report
    carries both so callers can record the discrepancy without failing.
    """
    stated = 1 if k == 0 else 0
    return YkHolReport(r, k, stated, yk_main(r, k, order).at_y(Fraction(0)))
