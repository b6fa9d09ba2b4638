"""Truncated Laurent series in q over an exact coefficient ring.

A QSeries stores a dense coefficient vector starting at ``offset`` and an
exclusive ``order``: coefficients are exact for every exponent below
``order`` and unknown past it.  Truncation is tracked, never inferred;
asking for a coefficient at or beyond ``order`` raises TruncationError.
Coefficient values may be int, Fraction, YPoly or YRat, mixed freely.
Series in y are built symbolic, and at_y evaluates every coefficient at
one rational y0, which is the only way a numeric y enters.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import YPoly, YRat, coeff_evaluate, coeff_to_str


class TruncationError(ValueError):
    """A coefficient beyond the valid truncation order was requested."""


class InvertNonUnitError(ZeroDivisionError):
    """The series has no invertible lowest term within its known range."""


def _reciprocal(c):
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    if isinstance(c, YPoly):
        if c.degree == 0:
            return 1 / c.coeffs[0]
        return YRat(YPoly.one(), c)
    if isinstance(c, YRat):
        return c.reciprocal()
    raise TypeError(f"no reciprocal for {type(c).__name__}")


class QSeries:
    """Laurent series known exactly on exponents [offset, order)."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs, order: int):
        coeffs = list(coeffs)
        if order < offset:
            raise ValueError("order must be at least offset")
        if len(coeffs) > order - offset:
            raise ValueError("coefficient vector exceeds the truncation window")
        coeffs.extend([0] * (order - offset - len(coeffs)))
        # canonical form: the vector starts at the lowest potentially
        # nonzero exponent, leading zeros fold into the offset
        start = 0
        while start < len(coeffs) and not coeffs[start]:
            start += 1
        self.offset = offset + start
        self.coeffs = tuple(coeffs[start:])
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order, (), order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, coeff, exp: int, order: int) -> "QSeries":
        if exp >= order:
            return cls.zero(order)
        return cls(exp, (coeff,), order)

    @classmethod
    def from_terms(cls, terms: dict, order: int) -> "QSeries":
        """Build from an exponent -> coefficient map, valid below ``order``."""
        live = {e: c for e, c in terms.items() if e < order and c}
        if not live:
            return cls.zero(order)
        offset = min(live)
        coeffs = [live.get(e, 0) for e in range(offset, order)]
        return cls(offset, coeffs, order)

    # -- inspection --------------------------------------------------------

    def coefficient(self, exp: int):
        if exp >= self.order:
            raise TruncationError(
                f"coefficient q^{exp} requested but series is only valid below q^{self.order}"
            )
        if exp < self.offset:
            return 0
        return self.coeffs[exp - self.offset]

    def items(self):
        """(exponent, coefficient) pairs for the nonzero known terms."""
        return [
            (self.offset + i, c) for i, c in enumerate(self.coeffs) if c
        ]

    def is_zero(self) -> bool:
        return not self.coeffs or all(not c for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        lo = min(self.offset, other.offset)
        return all(
            self.coefficient(e) == other.coefficient(e) for e in range(lo, self.order)
        )

    def __hash__(self):
        return hash((self.offset, self.order, self.coeffs))

    def agrees_to(self, other: "QSeries", through: int) -> bool:
        """Exact coefficient equality for every exponent <= through."""
        return self.first_difference(other, through) is None

    def first_difference(self, other: "QSeries", through: int):
        """Lowest exponent <= through where the series differ, or None."""
        if through >= self.order or through >= other.order:
            raise TruncationError(
                f"comparison through q^{through} exceeds valid orders "
                f"{self.order}, {other.order}"
            )
        lo = min(self.offset, other.offset)
        for e in range(lo, through + 1):
            if self.coefficient(e) != other.coefficient(e):
                return e
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        offset = min(self.offset, other.offset, order)
        coeffs = [
            self._window(e) + other._window(e) for e in range(offset, order)
        ]
        return QSeries(offset, coeffs, order)

    def _window(self, exp: int):
        if self.offset <= exp < self.offset + len(self.coeffs):
            return self.coeffs[exp - self.offset]
        return 0

    def __neg__(self):
        return QSeries(self.offset, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        order = min(self.order + other.offset, other.order + self.offset)
        offset = self.offset + other.offset
        if offset >= order or self.is_zero() or other.is_zero():
            return QSeries.zero(order)
        out = [0] * (order - offset)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            ea = self.offset + i
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                e = ea + other.offset + j
                if e >= order:
                    break
                out[e - offset] = out[e - offset] + a * b
        return QSeries(offset, out, order)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "QSeries":
        return QSeries(self.offset, [c * a for a in self.coeffs], self.order)

    def invert(self) -> "QSeries":
        """Multiplicative inverse as a Laurent series.

        The lowest nonzero known coefficient must be invertible; with the
        lowest term at q^m the inverse is valid below q^(order - 2m).
        """
        if self.is_zero():
            raise InvertNonUnitError("cannot invert a series that is zero to its order")
        m = self.offset  # canonical form puts the first nonzero coefficient here
        n_terms = self.order - m
        inv0 = _reciprocal(self.coeffs[0])
        out = [0] * n_terms
        out[0] = inv0
        for n in range(1, n_terms):
            acc = 0
            for j in range(1, min(n, len(self.coeffs) - 1) + 1):
                a = self.coeffs[j]
                if a:
                    acc = acc + a * out[n - j]
            out[n] = -inv0 * acc if acc else 0
        return QSeries(-m, out, self.order - 2 * m)

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return QSeries.one(self.order)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise TruncationError(f"cannot extend valid order {self.order} to {order}")
        return QSeries(self.offset, list(self.coeffs)[: max(order - self.offset, 0)], order)

    def at_y(self, y0) -> "QSeries":
        """The series with every coefficient evaluated at y = y0, zeros folded."""
        return QSeries.from_terms({e: coeff_evaluate(c, y0) for e, c in self.items()}, self.order)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "order": self.order,
            "coeffs": [coeff_to_str(c) for c in self.coeffs],
        }

    def __repr__(self):
        terms = ", ".join(f"q^{e}: {coeff_to_str(c)}" for e, c in self.items()[:6])
        more = " ..." if len(self.items()) > 6 else ""
        return f"QSeries(O(q^{self.order}); {terms}{more})"


def colored_partition_counts(colors: int, top: int) -> list[int]:
    """[c(0), ..., c(top)], c(m) the number of ``colors``-colored partitions of m.

    c(m) is the x**m coefficient of prod_{n>0} (1 - x**n)**(-colors), counted
    over the integers by one running sum with stride n per color and part
    size n.
    """
    counts = [1] + [0] * top
    for n in range(1, top + 1):
        for _ in range(colors):
            for m in range(n, top + 1):
                counts[m] += counts[m - n]
    return counts


def euler_product(q_step: int, y_step: int, power: int, order: int) -> QSeries:
    """prod_{n>0} (1 - q**(q_step*n) * y**(y_step*n)) ** power, valid below ``order``.

    power must be <= 0.  The x**m coefficient of the product is
    c(m) = colored_partition_counts(-power, ...)[m], placed at
    q**(q_step*m) times y**(y_step*m), a YPoly when y_step > 0.
    """
    if q_step < 1:
        raise ValueError("q_step must be positive so the product is a power series")
    if power > 0:
        raise ValueError(f"power must be at most 0, got {power}")
    top = (order - 1) // q_step
    counts = colored_partition_counts(-power, top)
    terms = {0: 1}
    for m in range(1, top + 1):
        if y_step == 0:
            terms[q_step * m] = counts[m]
        else:
            terms[q_step * m] = YPoly.monomial(y_step * m, counts[m])
    return QSeries.from_terms(terms, order)
