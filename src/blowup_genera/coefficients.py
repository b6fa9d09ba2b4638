"""Exact coefficient arithmetic for the localization sums.

Scalars are arbitrary-precision rationals (fractions.Fraction).  On top of
those sit YPoly, polynomials in the genus variable y, and YRat, reduced
ratios of two YPoly.  Every series coefficient is a YPoly, since y stays
symbolic throughout the engine, and a numeric y0 is one evaluation of the
finished series (QSeries.at_y); a YRat arises only where a YPoly is
divided by a non-constant one.  Both interoperate with int and Fraction
through the usual operators, so the q-series code can stay agnostic
about which ring it multiplies in.

A cleared pair (Cleared) is an integer coefficient list in y, lowest
power first, over one integer denominator.  cleared_sum, cleared_product
and cleared_convolution add, multiply and convolve pairs in integers,
and cleared_value turns a pair into its YPoly coefficient.  The series
code sums theta in this form, and YPoly products run on it too: each
operand is cleared over the lcm of its denominators, the integer lists
are multiplied by cleared_product, and each output coefficient becomes
one canonical Fraction, so the product is the Fraction product
coefficient for coefficient.

Specialization holds one exact rational value per equivariant parameter
(t1, t2, e_1..e_r) and the seed it was drawn from.  sample_specialization draws
the values from a splitmix64 stream, a documented 64-bit generator fixed
permanently for reproducibility; numerators and denominators come uniformly
from [2, 97] and coordinates violating the nonunit/distinctness invariants
are redrawn.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .records import Record

PRNG_NAME = "splitmix64"
# the default seeds: DEFAULT_SEED_COUNT of them, from DEFAULT_SEED_BASE on
DEFAULT_SEED_BASE = 1729
DEFAULT_SEED_COUNT = 5
SAMPLE_RANGE = (2, 97)


def _frac_str(c: Fraction) -> str:
    return str(c)  # "p" or "p/q", denominator always positive


# a cleared pair: integer coefficients, lowest power of y first, over one integer denominator
Cleared = tuple[list[int], int]


def cleared_value(pair: Cleared) -> YPoly:
    """The coefficient a cleared pair stands for, as a YPoly."""
    num, den = pair
    return YPoly(Fraction(c, den) for c in num)


def cleared_sum(pairs) -> Cleared:
    """Sum of cleared pairs over a running common denominator."""
    num, den = [], 1
    for xs, d in pairs:
        g = gcd(den, d)
        up, scale = d // g, den // g
        out = [c * up for c in num] + [0] * (len(xs) - len(num))
        for i, c in enumerate(xs):
            out[i] += c * scale
        num, den = out, den * up
    return num, den


def cleared_product(a: Cleared, b: Cleared) -> Cleared:
    """Product of two cleared pairs."""
    (xs, d), (ys, e) = a, b
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out, d * e


def cleared_convolution(a, b) -> Cleared:
    """sum_{i+j=w} a[i] * b[j] for two lists of w + 1 cleared pairs."""
    return cleared_sum(cleared_product(x, y) for x, y in zip(a, reversed(b)))


class YPoly:
    """Polynomial in y over Fraction, canonical form with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "YPoly":
        return cls()

    @classmethod
    def one(cls) -> "YPoly":
        return cls((1,))

    @classmethod
    def y(cls) -> "YPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exp: int, coeff=1) -> "YPoly":
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls((0,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def _cleared(self) -> Cleared:
        """The coefficients as a cleared pair over the lcm of their denominators."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    @staticmethod
    def _coerce(other):
        if isinstance(other, YPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return YPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return YPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return YPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return YPoly()
        num, den = cleared_product(self._cleared(), o._cleared())
        return YPoly(Fraction(c, den) for c in num)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial, use YRat")
        result, base = YPoly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = 1 / Fraction(other)
            return YPoly(c * inv for c in self.coeffs)
        if isinstance(other, YPoly):
            return YRat(self, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, YPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return self.degree == 0 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def evaluate(self, y0) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * y0 + c
        return acc

    def divmod(self, other: "YPoly") -> tuple["YPoly", "YPoly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        d = len(other.coeffs) - 1
        while len(rem) - 1 >= d and any(rem):
            if not rem[-1]:
                rem.pop()
                continue
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return YPoly(q), YPoly(rem)

    def content(self) -> Fraction:
        """Positive rational c such that self / c has coprime integer coefficients."""
        if not self.coeffs:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, abs(c.numerator))
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    def to_str(self) -> str:
        """Fixed report grammar: ascending powers joined by signs, e.g. "2 - y + y^2"."""
        if not self.coeffs:
            return "0"
        pieces = []
        for exp, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if exp == 0:
                body = _frac_str(mag)
            else:
                ypow = "y" if exp == 1 else f"y^{exp}"
                body = ypow if mag == 1 else f"{_frac_str(mag)}*{ypow}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"YPoly({self.to_str()})"


def poly_gcd(a: YPoly, b: YPoly) -> YPoly:
    """Monic gcd over the rationals; gcd(0, 0) is 0."""
    while b:
        a, b = b, a.divmod(b)[1]
    if a:
        lead = a.coeffs[-1]
        if lead != 1:
            a = a / lead
    return a


class YRat:
    """Reduced fraction of two YPoly.

    Canonical form: gcd(num, den) = 1, denominator has coprime integer
    coefficients and positive leading coefficient; zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, YPoly) else YPoly._coerce(num)
        if den is None:
            den = YPoly.one()
        else:
            den = den if isinstance(den, YPoly) else YPoly._coerce(den)
        if num is None or den is None:
            raise TypeError("YRat components must be polynomials or scalars")
        if not den:
            raise ZeroDivisionError("YRat denominator is zero")
        if not num:
            self.num, self.den = YPoly.zero(), YPoly.one()
            return
        if den.degree > 0 and num.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        scale = den.content()
        if den.coeffs[-1] < 0:
            scale = -scale
        if scale != 1:
            num = num / scale
            den = den / scale
        self.num, self.den = num, den

    @classmethod
    def zero(cls) -> "YRat":
        return cls(YPoly.zero())

    @classmethod
    def one(cls) -> "YRat":
        return cls(YPoly.one())

    @staticmethod
    def _coerce(other):
        if isinstance(other, YRat):
            return other
        if isinstance(other, (int, Fraction, YPoly)):
            return YRat(other)
        return None

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return YRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = YRat.__new__(YRat)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return YRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "YRat":
        if not self.num:
            raise ZeroDivisionError("reciprocal of zero")
        return YRat(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        return YRat(self.num**n, self.den**n)

    def __eq__(self, other):
        if isinstance(other, YRat):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, YPoly)):
            return self.den == YPoly.one() and self.num == other
        return NotImplemented

    def __hash__(self):
        if self.den == YPoly.one():
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def evaluate(self, y0) -> Fraction:
        d = self.den.evaluate(y0)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at y={y0}")
        return self.num.evaluate(y0) / d

    def to_str(self) -> str:
        if self.den == YPoly.one():
            return self.num.to_str()
        return f"({self.num.to_str()}) / ({self.den.to_str()})"

    def __repr__(self):
        return f"YRat({self.to_str()})"


def coeff_to_str(c) -> str:
    """Serialize any coefficient (int, Fraction, YPoly, YRat) to the report grammar."""
    if isinstance(c, (YPoly, YRat)):
        return c.to_str()
    return _frac_str(Fraction(c))


def coeff_evaluate(c, y0: Fraction):
    """Evaluate a coefficient at a numeric y, passing plain rationals through."""
    if isinstance(c, (YPoly, YRat)):
        return c.evaluate(y0)
    return Fraction(c)


# ---------------------------------------------------------------------------
# Seeded specializations of the equivariant parameters.

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream (Steele-Lea-Flood constants), fixed permanently."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


class Specialization(Record):
    """Exact rational values for t1, t2, e_1..e_r, and the seed they came from.

    Invariants: every value is nonzero, differs from 1 and from every
    other value, which keeps all single-parameter ratios away from the
    forbidden weight value 1.  y is no part of it: every series built at
    a specialization is a polynomial identity in y.

    weight_memo maps each weight met so far to its value p/q as the
    lowest-terms pair (p, q).  pair_memo maps each mode ("equivariant" or
    "limit") to the Nekrasov pair factors F that the blow-up series of
    this specialization have met in that mode (see
    characters.plane_block_theta), so every zhat_series build at this
    specialization shares them, whatever its k or max_n.  Neither memo
    takes part in equality, hashing or repr, and every specialization has
    both of its own.
    """

    _fields = ("t1", "t2", "e", "seed")
    __slots__ = _fields + ("weight_memo", "pair_memo")

    def __init__(self, t1: Fraction, t2: Fraction, e: tuple[Fraction, ...], seed: int):
        vals = (t1, t2) + e
        for v in vals:
            if v == 0 or v == 1:
                raise ValueError(f"specialization value {v} is forbidden")
        if len(set(vals)) != len(vals):
            raise ValueError("specialization values must be pairwise distinct")
        self._set(t1, t2, e, seed)
        object.__setattr__(self, "weight_memo", {})
        object.__setattr__(self, "pair_memo", {})

    @property
    def rank(self) -> int:
        return len(self.e)


def sample_specialization(r: int, seed: int) -> Specialization:
    """Deterministic specialization for (r, seed); same inputs, same output.

    Draws numerator and denominator uniformly from [2, 97] via splitmix64
    and redraws any coordinate that would equal 1 or repeat an earlier
    value.  The redraw loop terminates because the value space is far
    larger than r + 2 at this range.
    """
    if r < 1:
        raise ValueError("r must be positive")
    gen = SplitMix64(seed)
    lo, hi = SAMPLE_RANGE
    span = hi - lo + 1

    def draw() -> Fraction:
        p = lo + gen.next_u64() % span
        q = lo + gen.next_u64() % span
        return Fraction(p, q)

    vals: list[Fraction] = []
    while len(vals) < r + 2:
        c = draw()
        if c != 1 and c not in vals:
            vals.append(c)
    return Specialization(vals[0], vals[1], tuple(vals[2:]), seed)
