"""Torus weights, tangent characters at fixed points, and theta evaluation.

A Weight (i1, i2, num, den) stands for the one-dimensional representation
e_num * e_den**-1 * t1**i1 * t2**i2; num and den are None for a pure
t-monomial, and num == den cancels to that form.  A Character is a finite
integer-multiplicity combination of weights.

Tangent characters come from two closed formulas.  For diagrams Y_a, Y_b
framed at slots a, b the pairing block is

    e_b/e_a * ( sum over s in Y_a of t1^(-leg_{Y_b}(s)) * t2^(arm_{Y_a}(s)+1)
              + sum over s in Y_b of t1^(leg_{Y_a}(s)+1) * t2^(-arm_{Y_b}(s)) ),

whose t-exponents hook_exponents yields, and for a lattice vector the
exceptional block of slots a, b is e_b/e_a times a simplex of t-monomials
fixed by the difference k_a - k_b (empty when that difference is 0 or 1
in the relevant direction), whose t-exponents simplex_exponents yields.
The tangent space on the plane is the double sum of pairing blocks.  On
the blow-up (Nakajima-Yoshioka) a fixed point (Y, Z, kvec) has three
blocks, each one double sum over slot pairs: the simplex of kvec, the Y
block (the pairing blocks of Y under (t1, t2/t1), twisted by
t1^(k_b - k_a)) and the Z block (those of Z under (t1/t2, t2), twisted
by t2^(k_b - k_a)).  BLOWUP_SIDES holds the substitution and twist
of each side, and simplex_weights and plane_block_weights are the only
generators of blow-up weights: simplex_block and plane_block check and
count one block, which the factored blow-up series evaluates on its own,
and tangent_blowup counts all three into the full character.  Every
character is built in one pass from those exponent pairs (i1, i2),
remapped through the SUBSTITUTIONS table.

The multiplicative genus is evaluated weight by weight through
theta(x) = (1 - y/x) / (1 - 1/x) = (x - y) / (x - 1), with x the exact
rational value of the weight.  Each Specialization memoizes that value
as the lowest-terms pair (p, q), keyed by weight.  Written over the
integers, theta(p/q) = (p - q*y) / (p - q): the factors of one character
multiply out as a cleared pair, an integer coefficient list in y over
one integer denominator (for numeric y = a/b the list holds the single
numerator of (p*b - q*a) / (b*(p - q))).  theta_eval and
theta_limit_factor return that pair, and a negative multiplicity, which
would leave a y-denominator, raises ValueError.  The series code sums,
multiplies and convolves pairs with cleared_sum, cleared_product and
cleared_convolution, and cleared_value turns a pair into its coefficient,
a YPoly or a Fraction for numeric y.  theta_limit_factor applies the
ordered e_r -> 0, ..., e_1 -> 0 limit as an exact case table: a weight
with denominator slot below the numerator slot contributes 1, the
opposite order contributes y = theta(0), and pure t-monomials keep their
theta.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import NamedTuple

from .coefficients import Specialization, YPoly
from .partitions import BlowupFixedPoint, LatticeVector, Partition, PartitionTuple, arm_leg


class TrivialWeightError(ValueError):
    """The trivial weight appeared where an isolated fixed point was required."""


class DegenerateSpecializationError(ValueError):
    """A weight evaluated to 1, so its theta factor would divide by zero."""

    def __init__(self, weight, seed):
        self.weight = weight
        self.seed = seed
        super().__init__(
            f"theta factor degenerated: weight {weight_to_str(weight, 1)} evaluates to 1 "
            f"under specialization seed {seed}"
        )


class RankCheckError(RuntimeError):
    """A tangent character has the wrong rank, indicating a convention bug."""


class Weight(NamedTuple):
    i1: int
    i2: int
    num: int | None = None
    den: int | None = None


def make_weight(i1: int, i2: int, num: int | None = None, den: int | None = None) -> Weight:
    if (num is None) != (den is None):
        raise ValueError("e-part needs both slots or neither")
    if num == den:
        num = den = None
    return Weight(i1, i2, num, den)


def weight_is_trivial(w: Weight) -> bool:
    return w.i1 == 0 and w.i2 == 0 and w.num is None


def weight_to_str(w: Weight, mult: int) -> str:
    parts = [str(mult)]
    if w.num is not None:
        parts.append(f"e{w.num}/e{w.den}")
    parts.append(f"t1^{w.i1}")
    parts.append(f"t2^{w.i2}")
    return " * ".join(parts)


def _sort_key(w: Weight):
    return (w.den or 0, w.num or 0, w.i1, w.i2)


class Character:
    """Finite integer combination of weights; zero multiplicities are dropped."""

    __slots__ = ("_mult",)

    def __init__(self, items=()):
        acc: dict[Weight, int] = {}
        for w, m in items:
            acc[w] = acc.get(w, 0) + m
        self._mult = {w: m for w, m in acc.items() if m}

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self._mult.items(), key=lambda wm: _sort_key(wm[0]))

    @property
    def rank(self) -> int:
        return sum(self._mult.values())

    def __len__(self):
        return len(self._mult)

    def __eq__(self, other):
        if isinstance(other, Character):
            return self._mult == other._mult
        return NotImplemented

    def contains_trivial(self) -> bool:
        return any(weight_is_trivial(w) for w in self._mult)

    def to_str(self) -> str:
        if not self._mult:
            return "0"
        return " + ".join(weight_to_str(w, m) for w, m in self.sorted_items())

    def __repr__(self):
        return f"Character({self.to_str()})"


# exponent map (i1, i2) -> (i1', i2') of each variable substitution
SUBSTITUTIONS = {
    "identity": lambda i1, i2: (i1, i2),
    "t2/t1": lambda i1, i2: (i1 - i2, i2),  # (t1, t2) -> (t1, t2/t1)
    "t1/t2": lambda i1, i2: (i1, i2 - i1),  # (t1, t2) -> (t1/t2, t2)
}


def hook_exponents(y_a: Partition, y_b: Partition):
    """t-exponents (i1, i2) of the pairing block of Y_a with Y_b, box by box."""
    for s in y_a.boxes():
        yield -arm_leg(y_b, s)[1], arm_leg(y_a, s)[0] + 1
    for s in y_b.boxes():
        yield arm_leg(y_a, s)[1] + 1, -arm_leg(y_b, s)[0]


def simplex_exponents(ka: int, kb: int):
    """t-exponents (i1, i2) of the exceptional block for degrees k_a, k_b.

    Nonempty only when k_a > k_b (simplex of nonpositive exponents) or
    k_a + 1 < k_b (simplex of strictly positive exponents).
    """
    if ka > kb:
        bound = ka - kb - 1
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                yield -i, -j
    elif ka + 1 < kb:
        bound = kb - ka - 2
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                yield i + 1, j + 1


@lru_cache(maxsize=None)
def tangent_p2(fp: PartitionTuple) -> Character:
    """Tangent character at a fixed point of the plane moduli.

    The rank must equal 2*r*n for the tuple of total size n; a mismatch
    means an index-convention bug and raises rather than warns.
    """
    total = Character(
        (make_weight(i1, i2, b, a), 1)
        for a, y_a in enumerate(fp.entries, 1)
        for b, y_b in enumerate(fp.entries, 1)
        for i1, i2 in hook_exponents(y_a, y_b)
    )
    expected = 2 * fp.rank * fp.total_size
    if total.rank != expected:
        raise RankCheckError(
            f"tangent rank {total.rank} != {expected} at {fp!r}"
        )
    return total


# blow-up side -> (substitution, twisted exponent): the Y-tuple sits in the
# chart (t1, t2/t1) twisted by t1^d, the Z-tuple in (t1/t2, t2) twisted by
# t2^d, d = k_b - k_a; each substitution fixes the variable of its twist, so
# the twist goes first
BLOWUP_SIDES = {"y": ("t2/t1", (1, 0)), "z": ("t1/t2", (0, 1))}


def simplex_weights(kvec: LatticeVector):
    """(weight, 1) pairs of the exceptional block of a lattice vector, slot pair by slot pair."""
    slots = list(enumerate(kvec.entries, 1))
    for a, ka in slots:
        for b, kb in slots:
            for i1, i2 in simplex_exponents(ka, kb):
                yield make_weight(i1, i2, b, a), 1


def plane_block_weights(pt: PartitionTuple, kvec: LatticeVector, side: str):
    """(weight, 1) pairs of the Y block (side "y") or Z block (side "z") of a tuple.

    The plane tangent character of the tuple, substituted and twisted as
    BLOWUP_SIDES says for that side of the blow-up.
    """
    kind, (u1, u2) = BLOWUP_SIDES[side]
    remap = SUBSTITUTIONS[kind]
    slots = list(enumerate(zip(kvec.entries, pt.entries), 1))
    for a, (ka, p_a) in slots:
        for b, (kb, p_b) in slots:
            d = kb - ka
            for i1, i2 in hook_exponents(p_a, p_b):
                yield make_weight(*remap(i1 + u1 * d, i2 + u2 * d), b, a), 1


def _checked(char: Character, expected: int, where: str) -> Character:
    if char.rank != expected:
        raise RankCheckError(f"tangent rank {char.rank} != {expected} at {where}")
    if char.contains_trivial():
        raise TrivialWeightError(f"trivial weight in tangent character at {where}")
    return char


def simplex_block(kvec: LatticeVector) -> Character:
    """Exceptional block of a lattice vector; its rank must equal pair_form."""
    return _checked(Character(simplex_weights(kvec)), kvec.pair_form, f"simplex of {kvec!r}")


def plane_block(pt: PartitionTuple, kvec: LatticeVector, side: str) -> Character:
    """Y or Z block of a blow-up fixed point; its rank must equal 2*r*|pt|."""
    return _checked(
        Character(plane_block_weights(pt, kvec, side)),
        2 * pt.rank * pt.total_size,
        f"{side} block of {pt!r} under {kvec!r}",
    )


@lru_cache(maxsize=None)
def tangent_blowup(fp: BlowupFixedPoint) -> Character:
    """Tangent character at a blow-up fixed point.

    The exceptional block plus the Y and Z blocks, counted into one
    Character.  The rank must equal the q-degree 2*r*w + pair_form, and
    the trivial weight must be absent (fixed points are isolated); both
    are hard checks.
    """
    weights = chain(
        simplex_weights(fp.kvec),
        plane_block_weights(fp.y_tuple, fp.kvec, "y"),
        plane_block_weights(fp.z_tuple, fp.kvec, "z"),
    )
    return _checked(Character(weights), fp.virtual_dim, repr(fp))


def weight_value(w: Weight, spec: Specialization) -> Fraction:
    """Exact rational value of a weight under a specialization."""
    val = spec.t1**w.i1 * spec.t2**w.i2
    if w.num is not None:
        val = val * spec.e[w.num - 1] / spec.e[w.den - 1]
    return val


def _times_linear(coeffs: list[int], p: int, q: int, m: int) -> list[int]:
    """coeffs * (p - q*y)**m for an integer coefficient list, lowest power first."""
    for _ in range(m):
        out = [p * c for c in coeffs] + [0]
        for i, c in enumerate(coeffs):
            out[i + 1] -= q * c
        coeffs = out
    return coeffs


# a cleared pair: integer coefficients, lowest power of y first, over one integer denominator
Cleared = tuple[list[int], int]


def _cleared(factors, spec: Specialization) -> Cleared:
    """The product of theta(p/q)**m over (p, q, m) triples as a cleared pair.

    Each factor theta(p/q) = (p - q*y) / (p - q) is multiplied out over
    the integers; for numeric y = a/b it is (p*b - q*a) / (b*(p - q)) and
    the list holds the one numerator.  Every m must be positive: a
    negative one would leave a y-denominator, which a cleared pair cannot
    hold.
    """
    if spec.symbolic:
        num, den = [1], 1
        for p, q, m in factors:
            num = _times_linear(num, p, q, m)
            den *= (p - q) ** m
        return num, den
    a, b = spec.y0.numerator, spec.y0.denominator
    num, den = 1, 1
    for p, q, m in factors:
        num *= (p * b - q * a) ** m
        den *= (b * (p - q)) ** m
    return [num], den


def cleared_value(pair: Cleared, spec: Specialization):
    """The coefficient a cleared pair stands for: a YPoly, or a Fraction for numeric y."""
    num, den = pair
    if spec.symbolic:
        return YPoly(Fraction(c, den) for c in num)
    return Fraction(num[0] if num else 0, den)


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


def _theta_factor(w: Weight, spec: Specialization) -> tuple[int, int]:
    """The weight's value p/q in lowest terms, after the degeneracy check p != q.

    The value comes from the specialization's weight memo; the check runs
    on every lookup, so a degenerate weight raises each time it is met.
    """
    pq = spec.weight_memo.get(w)
    if pq is None:
        x = weight_value(w, spec)
        pq = spec.weight_memo[w] = (x.numerator, x.denominator)
    if pq[0] == pq[1]:
        raise DegenerateSpecializationError(w, spec.seed)
    return pq


def _theta_factors(c: Character, spec: Specialization, limit: bool):
    """(p, q, m) triples of theta over the weights of c, each weight checked.

    A negative multiplicity raises ValueError (see _cleared).  In limit
    mode a weight with an e-part tends to 0 when its denominator slot is
    above its numerator slot, where theta(0) = y, and to infinity
    otherwise, where theta tends to 1; the first kind adds its
    multiplicity to one exponent of y, which gives the single triple
    (0, 1, exponent), and the second kind gives no triple.
    """
    factors, y_exp = [], 0
    for w, m in c.sorted_items():
        if weight_is_trivial(w):
            raise TrivialWeightError(f"theta undefined on the trivial weight in {c!r}")
        if m < 0:
            raise ValueError(f"theta needs positive multiplicities: {c!r}")
        if not limit or w.num is None:
            factors.append(_theta_factor(w, spec) + (m,))
        elif w.den > w.num:
            y_exp += m
    if y_exp:
        factors.append((0, 1, y_exp))
    return factors


def theta_eval(c: Character, spec: Specialization) -> Cleared:
    """Multiplicative theta genus of a character at a specialization, as a cleared pair.

    cleared_value gives its YPoly, or its Fraction for numeric y.  Raises
    ValueError for a negative multiplicity, TrivialWeightError if the
    trivial weight is present and DegenerateSpecializationError naming the
    first weight whose value is 1; all checks run, weight by weight in
    sorted order, before any factor is multiplied.
    """
    return _cleared(_theta_factors(c, spec, limit=False), spec)


def theta_limit_factor(c: Character, spec: Specialization) -> Cleared:
    """Theta genus after the ordered limit e_r -> 0, ..., e_1 -> 0.

    Case table per weight: denominator slot below numerator slot gives 1,
    above gives y, and pure t-monomials keep theta of their t-value.  The
    limit is exact by construction, no values are actually driven to 0.
    The result and the errors are as for theta_eval.
    """
    return _cleared(_theta_factors(c, spec, limit=True), spec)
