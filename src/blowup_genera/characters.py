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
For a tuple at degrees k_1, ..., k_r a plane block is the double sum over
slot pairs of the pairing blocks, each twisted by d = k_b - k_a and taken
in one chart, as the SUBSTITUTIONS table names both.  pair_exponents
holds the twisted, remapped t-exponents of one pairing block; they depend
on no specialization, so one process-wide cache serves every builder, and
its rank and isolation checks run once per entry.  plane_block_weights
adds the e-parts to them and is the one generator of plane-block weights.
The plane tangent character (tangent_p2) is that sum in the identity chart
with every k_a = 0, and the rank-one hook character (hook_character) is
its one-slot case, whose e-parts cancel; both are cached process-wide.
On the blow-up (Nakajima-Yoshioka) a fixed point (Y, Z, kvec) has three
blocks: the simplex of kvec (simplex_weights), the Y block (the pairing
blocks of Y in the chart (t1, t2/t1), twisted by t1^(k_b - k_a)) and the
Z block (those of Z in (t1/t2, t2), twisted by t2^(k_b - k_a));
BLOWUP_SIDES names the chart of each side.  simplex_block and
plane_block build one block, and tangent_blowup counts all three into
the full character.  Every Character builder passes one check,
_checked: the rank the geometry fixes, and no trivial weight (fixed
points are isolated).

The multiplicative genus is evaluated weight by weight through
theta(x) = (1 - y/x) / (1 - 1/x) = (x - y) / (x - 1), with x the exact
rational value of the weight.  Each Specialization memoizes that value
as the lowest-terms pair (p, q), keyed by weight.  Written over the
integers, theta(p/q) = (p - q*y) / (p - q): the factors of one character
multiply out as a cleared pair, an integer coefficient list in y over
one integer denominator.  y stays symbolic here, as everywhere in the
engine: a numeric y0 is one evaluation of the finished series
(QSeries.at_y).  theta_eval and theta_limit_factor return that pair, and
a negative multiplicity, which would leave a y-denominator, raises
ValueError.  The pair helpers (Cleared, cleared_sum, cleared_product,
cleared_convolution and cleared_value) live in coefficients, where YPoly
multiplies with them too, and are imported here under the same names;
theta_sum is the sum over the characters of one q-degree that every
series makes.
theta_limit_factor applies the ordered e_r -> 0, ..., e_1 -> 0 limit as
an exact case table: a weight with denominator slot below the numerator
slot contributes 1, the opposite order contributes y = theta(0), and
pure t-monomials keep their theta.

Theta is multiplicative, so theta of a Y or Z block is the product of its
pair factors F(Y_a, Y_b, a, b, d, side), theta of one pairing block, the
chi_y form of Nekrasov's factor N_{Y_a,Y_b}.  plane_block_theta
multiplies them without building the block, from the memo of F that the
specialization keeps for the mode (Specialization.pair_memo), which
every blow-up series at that specialization and mode shares.  F is a
cleared pair from the same case table and the same checks as
theta_eval, and an unreduced product of integers does not depend on the
order of its factors, so the product is the block's theta_eval pair,
integer for integer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

# the pair helpers live in coefficients and are importable from here too, so
# the package exports cleared_value from this module
from .coefficients import (
    Cleared,
    Specialization,
    cleared_convolution,
    cleared_product,
    cleared_sum,
    cleared_value,
)
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


# substitution -> (exponent map (i1, i2) -> (i1', i2'), twist (u1, u2)): a
# pairing block of slots a, b is twisted by t1^(u1*d) * t2^(u2*d), d = k_b - k_a,
# and then remapped; each substitution fixes the variable of its twist, so the
# twist goes first
SUBSTITUTIONS = {
    "identity": (lambda i1, i2: (i1, i2), (0, 0)),
    "t2/t1": (lambda i1, i2: (i1 - i2, i2), (1, 0)),  # (t1, t2) -> (t1, t2/t1)
    "t1/t2": (lambda i1, i2: (i1, i2 - i1), (0, 1)),  # (t1, t2) -> (t1/t2, t2)
}

# blow-up side -> its chart: the Y-tuple sits in (t1, t2/t1), the Z-tuple in (t1/t2, t2)
BLOWUP_SIDES = {"y": "t2/t1", "z": "t1/t2"}


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


def simplex_weights(kvec: LatticeVector):
    """(weight, 1) pairs of the exceptional block of a lattice vector, slot pair by slot pair."""
    slots = list(enumerate(kvec.entries, 1))
    for a, ka in slots:
        for b, kb in slots:
            for i1, i2 in simplex_exponents(ka, kb):
                yield make_weight(i1, i2, b, a), 1


@lru_cache(maxsize=None)
def pair_exponents(y_a: Partition, y_b: Partition, d: int, substitution: str):
    """t-exponents (i1, i2) of the pairing block of Y_a with Y_b, twisted by d and remapped.

    The exponents of hook_exponents, twisted and remapped as SUBSTITUTIONS
    says for the substitution; an unknown substitution raises ValueError.
    They depend on no specialization, so one process-wide cache serves
    every builder.  The checks run once, when an entry is made: there are
    |Y_a| + |Y_b| exponents, and an entry a diagonal pair can use (Y_a =
    Y_b, d = 0) has no (0, 0), whose weight would be trivial there.
    """
    if substitution not in SUBSTITUTIONS:
        raise ValueError(f"unsupported substitution {substitution!r}")
    remap, (u1, u2) = SUBSTITUTIONS[substitution]
    exps = tuple(remap(i1 + u1 * d, i2 + u2 * d) for i1, i2 in hook_exponents(y_a, y_b))
    expected = y_a.size + y_b.size
    if len(exps) != expected:
        where = _pair_where(y_a, y_b, d, substitution)
        raise RankCheckError(f"tangent rank {len(exps)} != {expected} at {where}")
    if d == 0 and y_a == y_b and (0, 0) in exps:
        where = _pair_where(y_a, y_b, d, substitution)
        raise TrivialWeightError(f"trivial weight in tangent character at {where}")
    return exps


def _pair_where(y_a: Partition, y_b: Partition, d: int, substitution: str) -> str:
    return f"pairing block of {y_a!r} with {y_b!r} at d = {d} under {substitution}"


def plane_block_weights(pt: PartitionTuple, ks, substitution: str):
    """(weight, 1) pairs of the pairing blocks of a tuple at degrees ks, in one chart.

    The double sum over slot pairs (a, b) of pair_exponents of Y_a with
    Y_b at d = k_b - k_a, each exponent carrying the e-part e_b/e_a.
    """
    slots = list(enumerate(zip(ks, pt.entries), 1))
    for a, (ka, p_a) in slots:
        for b, (kb, p_b) in slots:
            for i1, i2 in pair_exponents(p_a, p_b, kb - ka, substitution):
                yield make_weight(i1, i2, b, a), 1


def _checked(char: Character, expected: int, where: str, *args) -> Character:
    """char, after the rank and isolation checks; where.format(*args) names a failure."""
    if char.rank != expected:
        raise RankCheckError(f"tangent rank {char.rank} != {expected} at {where.format(*args)}")
    if char.contains_trivial():
        raise TrivialWeightError(f"trivial weight in tangent character at {where.format(*args)}")
    return char


def _plane_checked(pt: PartitionTuple, ks, substitution: str, where: str, *args) -> Character:
    """The pairing blocks of a tuple counted into one Character of rank 2*r*|pt|."""
    char = Character(plane_block_weights(pt, ks, substitution))
    return _checked(char, 2 * pt.rank * pt.total_size, where, *args)


@lru_cache(maxsize=None)
def tangent_p2(fp: PartitionTuple) -> Character:
    """Tangent character at a fixed point of the plane moduli.

    Its pairing blocks in the identity chart; the rank must be 2*r*n at
    total size n, and the trivial weight must be absent.
    """
    return _plane_checked(fp, (0,) * fp.rank, "identity", "{!r}", fp)


@lru_cache(maxsize=None)
def hook_character(p: Partition, substitution: str = "identity") -> Character:
    """Both hook monomials of every box of one diagram, as a character.

    This is the single-slot pairing block of p with itself, whose e-parts
    cancel, under the given variable substitution; its rank must be 2*|p|.
    An unknown substitution raises ValueError, which is not cached.
    """
    where = "hook character of {!r} under {}"
    return _plane_checked(PartitionTuple((p,)), (0,), substitution, where, p, substitution)


def simplex_block(kvec: LatticeVector) -> Character:
    """Exceptional block of a lattice vector; its rank must equal pair_form."""
    return _checked(Character(simplex_weights(kvec)), kvec.pair_form, "simplex of {!r}", kvec)


def plane_block(pt: PartitionTuple, kvec: LatticeVector, side: str) -> Character:
    """Y or Z block of a blow-up fixed point; its rank must equal 2*r*|pt|."""
    return _plane_checked(
        pt, kvec.entries, BLOWUP_SIDES[side], "{} block of {!r} under {!r}", side, pt, kvec
    )


@lru_cache(maxsize=None)
def tangent_blowup(fp: BlowupFixedPoint) -> Character:
    """Tangent character at a blow-up fixed point.

    The exceptional block plus the Y and Z blocks, counted into one
    Character.  The rank must equal the q-degree 2*r*w + pair_form, and
    the trivial weight must be absent (fixed points are isolated); both
    are hard checks.
    """
    ks = fp.kvec.entries
    weights = chain(
        simplex_weights(fp.kvec),
        plane_block_weights(fp.y_tuple, ks, BLOWUP_SIDES["y"]),
        plane_block_weights(fp.z_tuple, ks, BLOWUP_SIDES["z"]),
    )
    return _checked(Character(weights), fp.virtual_dim, "{!r}", fp)


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


def _cleared(factors) -> Cleared:
    """The product of theta(p/q)**m over (p, q, m) triples as a cleared pair.

    Each factor theta(p/q) = (p - q*y) / (p - q) is multiplied out over
    the integers.  Every m must be positive: a negative one would leave a
    y-denominator, which a cleared pair cannot hold.
    """
    num, den = [1], 1
    for p, q, m in factors:
        num = _times_linear(num, p, q, m)
        den *= (p - q) ** m
    return num, den


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


def _theta_factors(items, spec: Specialization, limit: bool):
    """(p, q, m) triples of theta over a list of (weight, multiplicity) items, each checked.

    A negative multiplicity raises ValueError (see _cleared).  In limit
    mode a weight with an e-part tends to 0 when its denominator slot is
    above its numerator slot, where theta(0) = y, and to infinity
    otherwise, where theta tends to 1; the first kind adds its
    multiplicity to one exponent of y, which gives the single triple
    (0, 1, exponent), and the second kind gives no triple.  The error
    messages name the items as one Character.
    """
    factors, y_exp = [], 0
    for w, m in items:
        if weight_is_trivial(w):
            c = Character(items)
            raise TrivialWeightError(f"theta undefined on the trivial weight in {c!r}")
        if m < 0:
            raise ValueError(f"theta needs positive multiplicities: {Character(items)!r}")
        if not limit or w.num is None:
            factors.append(_theta_factor(w, spec) + (m,))
        elif w.den > w.num:
            y_exp += m
    if y_exp:
        factors.append((0, 1, y_exp))
    return factors


def theta_eval(c: Character, spec: Specialization) -> Cleared:
    """Multiplicative theta genus of a character at a specialization, as a cleared pair.

    cleared_value gives its YPoly.  Raises ValueError for a negative
    multiplicity, TrivialWeightError if the trivial weight is present and
    DegenerateSpecializationError naming the first weight whose value is
    1; all checks run, weight by weight in sorted order, before any factor
    is multiplied.
    """
    return _cleared(_theta_factors(c.sorted_items(), spec, limit=False))


def theta_limit_factor(c: Character, spec: Specialization) -> Cleared:
    """Theta genus after the ordered limit e_r -> 0, ..., e_1 -> 0.

    Case table per weight: denominator slot below numerator slot gives 1,
    above gives y, and pure t-monomials keep theta of their t-value.  The
    limit is exact by construction, no values are actually driven to 0.
    The result and the errors are as for theta_eval.
    """
    return _cleared(_theta_factors(c.sorted_items(), spec, limit=True))


def theta_sum(chars, spec: Specialization, limit: bool = False) -> Cleared:
    """Sum of theta over characters, in their order, as a cleared pair.

    Limit mode takes theta_limit_factor of each character, otherwise
    theta_eval; the errors are theirs.
    """
    # looked up as module attributes at call time, so a wrapper installed on
    # them (perfbench/spans.py) sees every character
    theta = theta_limit_factor if limit else theta_eval
    return cleared_sum(theta(c, spec) for c in chars)


def plane_block_theta(
    pt: PartitionTuple, kvec: LatticeVector, side: str, spec: Specialization, limit: bool,
    factors: dict,
) -> Cleared:
    """Theta of plane_block(pt, kvec, side), or its limit, as a product of pair factors.

    Theta is multiplicative and the block is the sum over slot pairs (a, b)
    of the pairing blocks of Y_a with Y_b at d = k_b - k_a, so its theta
    is the product of the pair factors F = theta of one pairing block,
    taken from pair_exponents.  factors memoizes F by (Y_a, Y_b, a, b, d,
    side); it belongs to one specialization and one mode, since F depends
    on t1, t2 and e and on the mode's case table, and zhat_series
    passes the specialization's pair_memo entry for its mode.  Only a
    factor that returns is stored, so a degenerate one raises again each
    time it is met.  The product is never reduced, so it is the cleared
    pair of theta_eval or theta_limit_factor of the block, integer for
    integer.  A degenerate weight raises DegenerateSpecializationError,
    but not always the one theta_eval would name first.
    """
    substitution = BLOWUP_SIDES[side]
    slots = list(enumerate(zip(kvec.entries, pt.entries), 1))
    block = None
    for a, (ka, p_a) in slots:
        for b, (kb, p_b) in slots:
            d = kb - ka
            key = (p_a, p_b, a, b, d, side)
            f = factors.get(key)
            if f is None:
                exps = pair_exponents(p_a, p_b, d, substitution)
                items = [(make_weight(i1, i2, b, a), 1) for i1, i2 in exps]
                f = factors[key] = _cleared(_theta_factors(items, spec, limit))
            block = f if block is None else cleared_product(block, f)
    return block
