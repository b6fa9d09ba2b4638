"""Truncated Laurent series in q over Q[y].

A QSeries stores a dense coefficient vector starting at ``offset`` and an
exclusive ``order``: coefficients are exact for every exponent below
``order`` and unknown past it.  Truncation is tracked, never inferred;
asking for a coefficient at or beyond ``order`` raises TruncationError.
Every coefficient is a YPoly: the engine's series are polynomial in y,
so Q[y] is the one coefficient ring.  The constructor turns int and
Fraction coefficients into YPoly and refuses any other type with
TypeError.  Products and inverses sum in integers: each coefficient is
read as its cleared pair, and every output coefficient is one cleared sum
of pair products, normalized once.  A series inverts only when its
lowest coefficient is a unit of Q[y], a nonzero constant.  Series in y
are built symbolic, and at_y evaluates every coefficient at one rational
y0, which is the only way a numeric y enters.  An Euler product
prod (1 - q^(a n) y^(b n))^-c times a finite sum of terms q^Q y^e is one
shift-add in integers, euler_times; euler_product and every closed form
of the blow-up factor Y_k expand through it.  The canonical form makes
(offset, order, coeffs) unique, so equality and hashing read those three
fields.
"""

from __future__ import annotations

from .coefficients import YPoly, cleared_product, cleared_sum, cleared_value


class TruncationError(ValueError):
    """A coefficient beyond the valid truncation order was requested."""


class InvertNonUnitError(ZeroDivisionError):
    """The series has no invertible lowest term within its known range."""


_ZERO = YPoly()


def _coefficient(c) -> YPoly:
    """c as a YPoly; an int or a Fraction is coerced, any other type raises TypeError."""
    p = YPoly._coerce(c)
    if p is None:
        raise TypeError(f"a QSeries coefficient is a YPoly, int or Fraction, not {type(c).__name__}")
    return p


class QSeries:
    """Laurent series known exactly on exponents [offset, order)."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs, order: int):
        coeffs = [_coefficient(c) for c in coeffs]
        if order < offset:
            raise ValueError("order must be at least offset")
        if len(coeffs) > order - offset:
            raise ValueError("coefficient vector exceeds the truncation window")
        coeffs.extend([_ZERO] * (order - offset - len(coeffs)))
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
        coeffs = [live.get(e, _ZERO) for e in range(offset, order)]
        return cls(offset, coeffs, order)

    # -- inspection --------------------------------------------------------

    def coefficient(self, exp: int):
        if exp >= self.order:
            raise TruncationError(
                f"coefficient q^{exp} requested but series is only valid below q^{self.order}"
            )
        if exp < self.offset:
            return _ZERO
        return self.coeffs[exp - self.offset]

    def items(self):
        """(exponent, coefficient) pairs for the nonzero known terms."""
        return [
            (self.offset + i, c) for i, c in enumerate(self.coeffs) if c
        ]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        # the canonical form makes (offset, order, coeffs) unique, as __hash__ uses
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.offset, self.order, self.coeffs) == (other.offset, other.order, other.coeffs)

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
            self.coefficient(e) + other.coefficient(e) for e in range(offset, order)
        ]
        return QSeries(offset, coeffs, order)

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
        width = order - offset
        a = [(c.num, c.den) for c in self.coeffs[:width]]
        b = [(c.num, c.den) for c in other.coeffs[:width]]
        terms = [[] for _ in range(width)]
        for i, x in enumerate(a):
            if x[0]:
                for j, y in enumerate(b[: width - i], i):
                    if y[0]:
                        terms[j].append(cleared_product(x, y))
        return QSeries(offset, [cleared_value(cleared_sum(t)) for t in terms], order)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "QSeries":
        return QSeries(self.offset, [c * a for a in self.coeffs], self.order)

    def invert(self) -> "QSeries":
        """Multiplicative inverse as a Laurent series.

        The lowest nonzero known coefficient must be a unit of Q[y], a
        nonzero constant, or InvertNonUnitError names it; with the lowest
        term at q^m the inverse is valid below q^(order - 2m).
        """
        if self.is_zero():
            raise InvertNonUnitError("cannot invert a series that is zero to its order")
        m = self.offset  # canonical form puts the first nonzero coefficient here
        lead = self.coeffs[0]
        if lead.degree:
            raise InvertNonUnitError(f"lowest coefficient {lead.to_str()} is not a unit of Q[y]")
        a = [(c.num, c.den) for c in self.coeffs]
        inv0 = cleared_value(((lead.den,), lead.num[0]))
        minus_inv0 = ((-inv0.num[0],), inv0.den)
        out, known = [inv0], [(inv0.num, inv0.den)]  # known: the pair of each out[n]
        for n in range(1, self.order - m):
            acc = cleared_sum(
                cleared_product(a[j], known[n - j])
                for j in range(1, min(n, len(a) - 1) + 1)
                if a[j][0] and known[n - j][0]
            )
            c = cleared_value(cleared_product(acc, minus_inv0))
            out.append(c)
            known.append((c.num, c.den))
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
        return QSeries.from_terms(dict(self.items()), order)

    def at_y(self, y0) -> "QSeries":
        """The series with every coefficient evaluated at y = y0, zeros folded."""
        return QSeries.from_terms({e: c.evaluate(y0) for e, c in self.items()}, self.order)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "order": self.order,
            "coeffs": [c.to_str() for c in self.coeffs],
        }

    def __repr__(self):
        terms = ", ".join(f"q^{e}: {c.to_str()}" for e, c in self.items()[:6])
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


def euler_times(terms: dict[tuple[int, int], int], q_step: int, y_step: int, colors: int,
                order: int) -> QSeries:
    """prod_{n>0} (1 - q**(q_step*n) * y**(y_step*n)) ** -colors times a sum, valid below ``order``.

    ``terms`` counts the sum's terms q**Q * y**e by (Q, e).  The product's
    x**m coefficient is c(m) = colored_partition_counts(colors, ...)[m], so
    each term adds n * c(m) to q**(Q + q_step*m) * y**(e + y_step*m): a
    shift-add summed in ints per (q, y) exponent, with one YPoly built per
    q-coefficient and no q-series multiplied.  q_step must be positive,
    y_step and colors nonnegative, and every e nonnegative.
    """
    tops = [(order - 1 - q_exp) // q_step for q_exp, _e in terms]
    counts = colored_partition_counts(colors, max(tops, default=0))
    rows: dict[int, dict[int, int]] = {}
    for ((q_exp, y_exp), n), top in zip(terms.items(), tops):
        for m in range(top + 1):
            row = rows.setdefault(q_exp + q_step * m, {})
            e = y_exp + y_step * m
            row[e] = row.get(e, 0) + n * counts[m]
    coeffs = {q: YPoly([row.get(e, 0) for e in range(max(row) + 1)]) for q, row in rows.items()}
    return QSeries.from_terms(coeffs, order)


def euler_product(q_step: int, y_step: int, power: int, order: int) -> QSeries:
    """prod_{n>0} (1 - q**(q_step*n) * y**(y_step*n)) ** power, valid below ``order``.

    power must be <= 0, q_step positive and y_step nonnegative, or
    ValueError says which is not; the product is euler_times of the single
    term 1 with -power colors.
    """
    if q_step < 1:
        raise ValueError("q_step must be positive so the product is a power series")
    if y_step < 0:
        raise ValueError(f"y_step must be nonnegative so the product is a polynomial in y, "
                         f"got {y_step}")
    if power > 0:
        raise ValueError(f"power must be at most 0, got {power}")
    return euler_times({(0, 0): 1}, q_step, y_step, -power, order)
