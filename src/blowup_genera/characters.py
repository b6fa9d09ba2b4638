"""Torus weights, tangent characters at fixed points, and theta evaluation.

A Weight (i1, i2, num, den) stands for the one-dimensional representation
e_num * e_den**-1 * t1**i1 * t2**i2; num and den are None for a pure
t-monomial, and num == den cancels to that form.  A Character is a finite
integer-multiplicity combination of weights.

Tangent characters come from two closed formulas.  For diagrams Y_a, Y_b
framed at slots a, b the pairing block is

    e_b/e_a * ( sum over s in Y_a of t1^(-leg_{Y_b}(s)) * t2^(arm_{Y_a}(s)+1)
              + sum over s in Y_b of t1^(leg_{Y_a}(s)+1) * t2^(-arm_{Y_b}(s)) ),

whose t-exponents hook_exponents lists, box by box, in one table per
diagram pair: it reads arm and leg from the two diagrams' row and column
lengths once and is cached process-wide.  For a lattice vector the
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
The checks of pair_exponents are the one check site of every plane
block: each multiplicity is +1, so nothing cancels, and the chart maps
are linear bijections that fix (0, 0), so a Character built from pairing
blocks has rank 2*r*|pt| and no trivial weight by construction.
The plane tangent character (tangent_p2) is that sum in the identity chart
with every k_a = 0, and the rank-one hook character (hook_character) is
its one-slot case, whose e-parts cancel; both are cached process-wide.
On the blow-up (Nakajima-Yoshioka) a fixed point (Y, Z, kvec) has three
blocks: the simplex of kvec (simplex_weights), the Y block (the pairing
blocks of Y in the chart (t1, t2/t1), twisted by t1^(k_b - k_a)) and the
Z block (those of Z in (t1/t2, t2), twisted by t2^(k_b - k_a));
BLOWUP_SIDES names the chart of each side.  simplex_block and
plane_block build one block, and tangent_blowup counts all three into
the full character.  The simplex has no other check site, so
simplex_block and tangent_blowup pass one check, _checked: the rank the
geometry fixes, and no trivial weight (fixed points are isolated).

The multiplicative genus is evaluated weight by weight through
theta(x) = (1 - y/x) / (1 - 1/x) = (x - y) / (x - 1), with x the exact
rational value of the weight.  Each Specialization memoizes that value
as the lowest-terms pair (p, q), keyed by weight.  Written over the
integers, theta(p/q) = (p - q*y) / (p - q): the factors of one character
multiply out as a cleared pair, an integer coefficient list in y over
one integer denominator.  _cleared is the one loop that multiplies theta
factors out, for theta_eval and pair factors alike: it takes (p, q, m)
triples and multiplies the list by each linear factor p - q*y in place.
y stays symbolic here, as everywhere in the engine: a numeric y0 is one
evaluation of the finished series (QSeries.at_y).  theta_eval and
theta_limit_factor return that pair, and a negative multiplicity, which
would leave a y-denominator, raises ValueError.  The pair helpers live
in coefficients, where a YPoly is itself a pair in lowest terms, and
cleared_value there gives a pair's YPoly; theta_sum is the sum over the
characters of one q-degree that every series makes.
theta_limit_factor applies the ordered e_r -> 0, ..., e_1 -> 0 limit as
an exact case table: a weight with denominator slot below the numerator
slot contributes 1, the opposite order contributes y = theta(0), and
pure t-monomials keep their theta.

Theta is multiplicative, so theta of a Y or Z block is the product of its
pair factors F(Y_a, Y_b, a, b, d, side), theta of one pairing block, the
chi_y form of Nekrasov's factor N_{Y_a,Y_b}.  The specialization keeps
the products it reads back (Specialization.pair_memo, see _pair_factor):
a diagonal factor F_aa, which has no e-part, once per diagram and side,
the same in limit mode (genera._limit_convolution), and for slots a < b
the slot-pair product P_ab = F_ab * F_ba.  A missing entry costs one
memo lookup and one linear product per weight: its triples come from
_pair_triples, which looks each value up by the plain tuple
(i1, i2, num, den) of the weight and builds a Weight only on a miss or
for a degenerate value.  An entry is a cleared pair from the same checks
as theta_eval, and an unreduced product of integers does not depend on
the order of its factors, so the product of a block's entries is the
block's theta_eval pair, integer for integer.

The series multiply no block out.  side_sum_theta sums theta of the
blocks of every tuple of one size as one sum nested by slot, by the
distributive law: the entries of slot b with the slots before it
multiply the sum over the slots after it.  In place of the r^2 - 1
products of each block, a tuple takes at most r - 1 of its own, at its
last slot; the products at the slots before are shared by every tuple
that extends them, and none is taken with the unit entry of two empty
diagrams.  The nested sum meets the pair factors slot by slot, not block
by block, so when one degenerates the blocks are checked again one by
one (check_side_blocks), which names the weight the per-block sum names,
in either mode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .coefficients import Cleared, Specialization, cleared_product, cleared_sum
from .partitions import (
    BlowupFixedPoint,
    LatticeVector,
    Partition,
    PartitionTuple,
    enumerate_partitions,
    enumerate_tuples,
)

# the two modes of theta: full evaluation, and the ordered e -> 0 limit
EQUIVARIANT = "equivariant"
LIMIT = "limit"


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

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold only the message
        return type(self), (self.weight, self.seed)


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


def _sort_key(item: tuple[Weight, int]):
    """Order of (weight, multiplicity) items: by e-part, then by t-exponents."""
    w = item[0]
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
        return sorted(self._mult.items(), key=_sort_key)

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


@lru_cache(maxsize=None)
def hook_exponents(y_a: Partition, y_b: Partition) -> tuple[tuple[int, int], ...]:
    """t-exponents (i1, i2) of the pairing block of Y_a with Y_b, box by box, as one table.

    A box s of Y_a gives (-leg_{Y_b}(s), arm_{Y_a}(s) + 1) and a box of Y_b
    gives (leg_{Y_a}(s) + 1, -arm_{Y_b}(s)), boxes in row order.  Arm and
    leg are read from each diagram's row and column lengths, zero beyond
    the diagram as in partitions.arm_leg.  The table depends on no twist,
    chart or specialization, so one process-wide cache serves them all.
    """
    width = max(y_a.part(1), y_b.part(1))
    cols_a = [y_a.transpose_part(j) for j in range(1, width + 1)]
    cols_b = [y_b.transpose_part(j) for j in range(1, width + 1)]
    return tuple(
        [(i - cols_b[j], row - j) for i, row in enumerate(y_a.parts, 1) for j in range(row)]
        + [(cols_a[j] - i + 1, j + 1 - row)
           for i, row in enumerate(y_b.parts, 1) for j in range(row)]
    )


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


@lru_cache(maxsize=None)
def tangent_p2(fp: PartitionTuple) -> Character:
    """Tangent character at a fixed point of the plane moduli.

    Its pairing blocks in the identity chart, of rank 2*r*n at total size
    n and without the trivial weight, as pair_exponents checks.
    """
    return Character(plane_block_weights(fp, (0,) * fp.rank, "identity"))


@lru_cache(maxsize=None)
def hook_character(p: Partition, substitution: str = "identity") -> Character:
    """Both hook monomials of every box of one diagram, as a character.

    This is the single-slot pairing block of p with itself, whose e-parts
    cancel, under the given variable substitution, of rank 2*|p| as
    pair_exponents checks.  An unknown substitution raises ValueError,
    which is not cached.
    """
    return Character(plane_block_weights(PartitionTuple((p,)), (0,), substitution))


def simplex_block(kvec: LatticeVector) -> Character:
    """Exceptional block of a lattice vector; its rank must equal pair_form."""
    return _checked(Character(simplex_weights(kvec)), kvec.pair_form, "simplex of {!r}", kvec)


def plane_block(pt: PartitionTuple, kvec: LatticeVector, side: str) -> Character:
    """Y or Z block of a blow-up fixed point, of rank 2*r*|pt| as pair_exponents checks."""
    return Character(plane_block_weights(pt, kvec.entries, BLOWUP_SIDES[side]))


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


def _cleared(factors) -> Cleared:
    """The product of theta(p/q)**m over (p, q, m) triples as a cleared pair.

    Each factor theta(p/q) = (p - q*y) / (p - q) is multiplied out over
    the integers, the numerator list in place, one linear factor at a
    time.  Every m must be positive: a negative one would leave a
    y-denominator, which a cleared pair cannot hold.
    """
    num, den = [1], 1
    for p, q, m in factors:
        for _ in range(m):
            prev = 0
            for i, c in enumerate(num):
                num[i] = p * c - q * prev
                prev = c
            num.append(-q * prev)
        den *= (p - q) ** m
    return num, den


def _theta_factor(key, spec: Specialization) -> tuple[int, int]:
    """The value p/q in lowest terms of one weight, after the degeneracy check p != q.

    key is the Weight or the plain (i1, i2, num, den) tuple of its fields,
    which hashes and compares equal to it.  The value comes from the
    specialization's weight memo, and a Weight is built only on a miss, as
    the key the value is stored under, or for the error.  The check runs on
    every lookup, so a degenerate weight raises each time it is met.
    """
    pq = spec.weight_memo.get(key)
    if pq is None:
        w = Weight(*key)
        x = weight_value(w, spec)
        pq = spec.weight_memo[w] = (x.numerator, x.denominator)
    if pq[0] == pq[1]:
        raise DegenerateSpecializationError(Weight(*key), spec.seed)
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


def _pair_triples(exps, a: int, b: int, spec: Specialization):
    """(p, q, m) triples of theta over the weights e_b/e_a * t1^i1 * t2^i2, (i1, i2) in exps.

    The triples _theta_factors gives for those weights, each of
    multiplicity 1, without building a Weight for a weight whose value is
    memoized: the plain tuple (i1, i2, b, a), or (i1, i2, None, None) on
    the diagonal a = b, is the memo key.  pair_exponents has checked the
    exponents, so no weight is trivial.
    """
    num, den = (None, None) if a == b else (b, a)
    for i1, i2 in exps:
        p, q = _theta_factor((i1, i2, num, den), spec)
        yield p, q, 1


def _pair_factor(factors: dict, p_a, p_b, a: int, b: int, d: int, side: str,
                 spec: Specialization) -> Cleared:
    """The memo entry of slots a <= b at d = k_b - k_a, from factors or made there.

    A diagonal factor F(Y_a, Y_a, side) (a = b, d = 0) has no e-part, so
    it is stored once under (Y_a, side).  For a < b the entry is P_ab =
    F_ab * F_ba under (Y_a, Y_b, a, b, d, side): one _cleared over the
    triples of both pairing blocks, F_ab's first.  Only an entry that
    returns is stored, so a degenerate one raises
    DegenerateSpecializationError again each time it is met.
    """
    key = (p_a, side) if a == b else (p_a, p_b, a, b, d, side)
    f = factors.get(key)
    if f is None:
        chart = BLOWUP_SIDES[side]
        triples = _pair_triples(pair_exponents(p_a, p_b, d, chart), a, b, spec)
        if a != b:
            back = _pair_triples(pair_exponents(p_b, p_a, -d, chart), b, a, spec)
            triples = chain(triples, back)
        f = factors[key] = _cleared(triples)
    return f


def check_side_blocks(w: int, ks, side: str, spec: Specialization, limit: bool) -> None:
    """Check theta of the block of every tuple of total size w, as a per-block side sum would.

    Tuples go in enumeration order and the weights of each block in sorted
    order, through the checks of theta_eval (of theta_limit_factor in limit
    mode), and nothing is multiplied.  So the DegenerateSpecializationError
    raised, if any, is that of the first degenerate block of the side sum,
    and it names the weight theta of that block names.
    """
    chart = BLOWUP_SIDES[side]
    for pt in enumerate_tuples(len(ks), w):
        _theta_factors(sorted(plane_block_weights(pt, ks, chart), key=_sort_key), spec, limit)


def side_sum_theta(w: int, kvec: LatticeVector, side: str, spec: Specialization) -> Cleared:
    """Sum of theta of the blocks plane_block(pt, kvec, side), |pt| = w, as one nested sum.

    The block of (Y_1, ..., Y_r) is the sum of its pairing blocks, so its
    theta is the product of its pair factors F_ab.  By the distributive
    law the sum nests by slot:

        sum_{Y_1} F_11 * sum_{Y_2} (P_12 * F_22) * sum_{Y_3} (P_13 * P_23 * F_33) * ...

    with P_ab = F_ab * F_ba; _pair_factor gives F_bb and P_ab, which
    spec.pair_memo keeps.  The nesting depth is the rank, and the last
    slot takes the size that is left.  The entry of two empty diagrams is
    the unit ([1], 1), and no product is taken with it.  The sum is never
    reduced, so each block's share is its theta_eval pair, integer for
    integer.  It meets every pair factor of every block, so it is
    degenerate exactly when one of the blocks is, but it meets them slot
    by slot, not block by block; a sum that raises
    DegenerateSpecializationError is therefore checked again block by block
    (check_side_blocks), and the error of the first degenerate block, the
    one the per-block sum raises, is the one raised.
    """
    factors = spec.pair_memo
    ks = kvec.entries
    last = len(ks)
    chosen = []  # (slot, diagram) of the slots summed over so far

    def level(b, left):
        # sum over Y_b of its factors with the slots before it, times the rest
        terms = []
        for size in (left,) if b == last else range(left + 1):
            for p_b in enumerate_partitions(size):
                term = None
                if p_b:
                    term = _pair_factor(factors, p_b, p_b, b, b, 0, side, spec)
                for a, p_a in chosen:
                    if p_a or p_b:
                        d = ks[b - 1] - ks[a - 1]
                        p = _pair_factor(factors, p_a, p_b, a, b, d, side, spec)
                        term = p if term is None else cleared_product(term, p)
                if b < last:
                    chosen.append((b, p_b))
                    rest = level(b + 1, left - size)
                    chosen.pop()
                    term = rest if term is None else cleared_product(term, rest)
                terms.append(([1], 1) if term is None else term)
        # a sum of one pair is that pair, so it is not copied
        return terms[0] if len(terms) == 1 else cleared_sum(terms)

    try:
        return level(1, w)
    except DegenerateSpecializationError:
        check_side_blocks(w, ks, side, spec, False)
        raise
