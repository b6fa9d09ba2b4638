"""Independent reference computations for the benchmark's output checks.

Nothing here imports the program under test.  Everything is plain
integer or Fraction arithmetic on dense coefficient lists, written from
the closed forms rather than from the program's code:

- r-tuples of partitions are counted from prod_{m>=1} (1 - q^m)^-r;
- lattice vectors with sum k are enumerated recursively, pruned on the
  sum of squares, and graded by Q = sum_{i<j} (k_i - k_j)^2;
- the blow-up fixed-point count in degree 2rn + k(r-k) is the sum over
  lattice vectors of the number of 2r-tuples of partitions of
  (degree - Q) / 2r;
- the blow-up factor is prod_{n>=1} (1 - (q^2 y)^(rn))^-r times
  sum q^Q y^((Q + L)/2), L = sum_{i<j} (k_i - k_j), at y = 1 over the
  integers and at any other rational y over Fraction.

The report grammar of the program's series (``{"offset", "order",
"coeffs"}`` with coefficients such as ``2 - y + 3/4*y^2`` or
``(P) / (Q)``) is parsed here too, so coefficients can be evaluated at a
rational y without the program's own code.
"""

from __future__ import annotations

from fractions import Fraction


def partition_tuple_counts(r: int, top: int) -> list[int]:
    """Number of r-tuples of partitions of total size n, for n = 0..top."""
    counts = [1] + [0] * top
    for m in range(1, top + 1):
        for _ in range(r):
            # multiply in place by 1 / (1 - q^m)
            for i in range(m, top + 1):
                counts[i] += counts[i - m]
    return counts


def lattice_vectors(r: int, k: int, bound: int):
    """Yield integer r-vectors with sum k and sum_{i<j} (k_i - k_j)^2 <= bound.

    Uses Q = r * sum k_i^2 - k^2, so the condition is a budget on the sum
    of squares.  Coordinates are chosen one at a time; a partial vector is
    dropped as soon as the smallest sum of squares its completion could
    have, s^2 / m for remaining sum s over m coordinates, exceeds the
    budget.
    """
    budget = Fraction(bound + k * k, r)

    def extend(prefix, remaining_sum, used):
        m = r - len(prefix)
        if m == 1:
            if used + remaining_sum * remaining_sum <= budget:
                yield prefix + (remaining_sum,)
            return
        left = budget - used
        # remaining coordinates after this one must still fit: the square
        # of this coordinate plus (s - x)^2 / (m - 1) is at most ``left``
        span = 1
        while span * span <= left:
            span += 1
        for x in range(-span, span + 1):
            rest = remaining_sum - x
            if x * x + Fraction(rest * rest, m - 1) <= left:
                yield from extend(prefix + (x,), rest, used + x * x)

    yield from extend((), k, 0)


def pair_form(vec) -> int:
    """sum_{i<j} (k_i - k_j)^2."""
    return sum((a - b) ** 2 for i, a in enumerate(vec) for b in vec[i + 1:])


def pair_linear(vec) -> int:
    """sum_{i<j} (k_i - k_j)."""
    return sum(a - b for i, a in enumerate(vec) for b in vec[i + 1:])


def lattice_counts(r: int, k: int, bound: int) -> dict[int, int]:
    """Number of lattice vectors with sum k at each value Q <= bound."""
    out: dict[int, int] = {}
    for vec in lattice_vectors(r, k, bound):
        q = pair_form(vec)
        out[q] = out.get(q, 0) + 1
    return out


def blowup_fixed_point_counts(r: int, k: int, max_n: int) -> dict[int, int]:
    """Blow-up fixed points in each degree 2rn + k(r-k), n = 0..max_n."""
    base = k * (r - k)
    top = base + 2 * r * max_n
    tuples = partition_tuple_counts(2 * r, max_n)
    lattice = lattice_counts(r, k, top)
    out = {}
    for n in range(max_n + 1):
        degree = base + 2 * r * n
        total = 0
        for q, count in lattice.items():
            rem = degree - q
            if rem >= 0 and rem % (2 * r) == 0:
                total += count * tuples[rem // (2 * r)]
        out[degree] = total
    return out


def _times_inverse_factor(series: list, step: int, coeff) -> None:
    """Multiply ``series`` in place by 1 / (1 - coeff * q^step)."""
    for i in range(step, len(series)):
        series[i] += coeff * series[i - step]


def multiply(a: list, b: list) -> list:
    """Truncated product of two dense series of equal length."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def blowup_factor_at(r: int, k: int, order: int, y0) -> list:
    """Dense coefficients of Y_k at y = y0 for exponents 0..order.

    y0 = 1 stays in the integers; any other value is taken as a Fraction.
    """
    y0 = 1 if y0 == 1 else Fraction(y0)
    length = order + 1
    prefactor = [1] + [0] * order
    n = 1
    while 2 * r * n <= order:
        c = y0 ** (r * n)
        for _ in range(r):
            _times_inverse_factor(prefactor, 2 * r * n, c)
        n += 1
    lattice = [0] * length
    for vec in lattice_vectors(r, k, order):
        q = pair_form(vec)
        twice_y = q + pair_linear(vec)
        if twice_y % 2:
            raise ArithmeticError(f"odd y exponent at {vec}")
        lattice[q] += y0 ** (twice_y // 2)
    return multiply(prefactor, lattice)


# -- the program's series report grammar ------------------------------------


def parse_poly(text: str) -> dict[int, Fraction]:
    """``2 - y + 3/4*y^2`` as {exponent: coefficient}."""
    tokens = text.split()
    out: dict[int, Fraction] = {}
    sign = 1
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        if "*" in tok:
            mag, ypow = tok.split("*")
        elif tok.startswith("y"):
            mag, ypow = "1", tok
        else:
            mag, ypow = tok, ""
        exp = 0 if not ypow else (1 if ypow == "y" else int(ypow[2:]))
        if exp in out:
            raise ValueError(f"repeated power y^{exp} in {text!r}")
        out[exp] = sign * Fraction(mag)
        sign = 1
    return {e: c for e, c in out.items() if c}


def parse_coefficient(text: str):
    """A coefficient as (numerator, denominator) polynomials."""
    if text.startswith("("):
        num, den = text[1:-1].split(") / (")
        return parse_poly(num), parse_poly(den)
    return parse_poly(text), {0: Fraction(1)}


def evaluate_poly(poly: dict[int, Fraction], y0) -> Fraction:
    return sum((c * Fraction(y0) ** e for e, c in poly.items()), Fraction(0))


def evaluate_coefficient(text: str, y0) -> Fraction:
    num, den = parse_coefficient(text)
    d = evaluate_poly(den, y0)
    if not d:
        raise ZeroDivisionError(f"denominator of {text[:60]!r} vanishes at y={y0}")
    return evaluate_poly(num, y0) / d


def dense(series: dict, convert) -> list:
    """Coefficients of a series report for exponents 0..order-1."""
    offset, order = series["offset"], series["order"]
    if offset < 0:
        raise ValueError("the benchmark's series start at q^0 or later")
    out = [convert("0")] * order
    for i, text in enumerate(series["coeffs"]):
        out[offset + i] = convert(text)
    return out
