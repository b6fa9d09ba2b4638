"""Tangent characters and theta evaluation at exact specializations."""

from fractions import Fraction as F
from itertools import chain, product

import pytest
from hypothesis import example, given, settings, strategies as st

from blowup_genera import characters
from blowup_genera.characters import (
    Character,
    DegenerateSpecializationError,
    RankCheckError,
    TrivialWeightError,
    hook_exponents,
    make_weight,
    plane_block,
    simplex_block,
    simplex_exponents,
    tangent_blowup,
    tangent_p2,
    theta_eval,
    theta_limit_factor,
    weight_is_trivial,
    weight_value,
)
from blowup_genera.coefficients import (
    Specialization,
    YPoly,
    YRat,
    cleared_product,
    cleared_value,
    sample_specialization,
)
from blowup_genera.partitions import (
    LatticeVector,
    Partition,
    PartitionTuple,
    arm_leg,
    enumerate_blowup_fixed_points,
    enumerate_partitions,
    enumerate_tuples,
)


def spec23():
    return Specialization(F(2), F(3), (F(5),), seed=0)


def char_of(*weights):
    return Character((make_weight(*w), 1) for w in weights)


def char_sum(*chars):
    return Character(chain.from_iterable(c.sorted_items() for c in chars))


def at(value, y0):
    """A coefficient at y = y0, or the coefficient itself for y0 = None."""
    return value if y0 is None else value.evaluate(y0)


def printed(value):
    """The report string of a YPoly, or of a Fraction value at a numeric y0."""
    return value.to_str() if isinstance(value, YPoly) else str(value)


def theta_value(c, spec, limit=False, y0=None):
    """The coefficient theta_eval (or theta_limit_factor) gives for c, at y0 if given."""
    theta = theta_limit_factor if limit else theta_eval
    return at(cleared_value(theta(c, spec)), y0)


# -- weights and blocks ------------------------------------------------------

def test_weight_canonicalization():
    assert make_weight(1, 0, 2, 2) == make_weight(1, 0)
    with pytest.raises(ValueError):
        make_weight(0, 0, 1, None)


def test_hook_exponents_single_boxes():
    got = hook_exponents(Partition((1,)), Partition((1,)))
    assert sorted(got) == [(0, 1), (1, 0)]  # t2 + t1


def test_hook_exponents_empty():
    assert list(hook_exponents(Partition(), Partition())) == []


def test_hook_exponents_row_of_two():
    got = hook_exponents(Partition((2,)), Partition((2,)))
    assert sorted(got) == [(0, 1), (0, 2), (1, -1), (1, 0)]  # t2 + t2^2 + t1 t2^-1 + t1


def test_pairing_block_carries_e_part():
    # single box of Y_a against the empty Y_b: leg in the empty diagram is
    # -1, so the weight is e2/e1 * t1 * t2
    assert list(hook_exponents(Partition((1,)), Partition())) == [(1, 1)]
    got = tangent_p2(PartitionTuple((Partition((1,)), Partition())))
    assert got == Character(
        (make_weight(*w), 1) for w in ((1, 0), (0, 1), (1, 1, 2, 1), (0, 0, 1, 2))
    )


def test_simplex_exponents_cases():
    assert list(simplex_exponents(1, 1)) == []
    # k_a - k_b = 1: single constant weight, with the e-part in the block
    assert list(simplex_exponents(1, 0)) == [(0, 0)]
    assert simplex_block(LatticeVector((1, 0))) == Character([(make_weight(0, 0, 2, 1), 1)])
    # k_b - k_a = 2: single t1 t2 weight
    assert list(simplex_exponents(0, 2)) == [(1, 1)]
    # size grows as a simplex: difference d > 0 gives d(d+1)/2 weights
    assert len(list(simplex_exponents(3, 0))) == 6
    assert len(list(simplex_exponents(0, 3))) == 3


# -- tangent characters -------------------------------------------------------

def test_tangent_p2_examples():
    single = PartitionTuple((Partition((1,)),))
    assert tangent_p2(single) == char_of((1, 0), (0, 1))
    empty = PartitionTuple((Partition(),))
    assert tangent_p2(empty) == Character()
    row2 = PartitionTuple((Partition((2,)),))
    assert tangent_p2(row2).rank == 4


def test_tangent_p2_rank_formula():
    for r in (1, 2, 3):
        for n in range(4):
            for fp in enumerate_tuples(r, n):
                assert tangent_p2(fp).rank == 2 * r * n


def test_tangent_blowup_examples():
    pts = enumerate_blowup_fixed_points(1, 0, 0)
    assert tangent_blowup(pts[0]) == Character()

    pts = enumerate_blowup_fixed_points(1, 0, 1)
    y_first = tangent_blowup(pts[0])  # ((1), {}, (0))
    assert y_first == char_of((1, 0), (-1, 1))  # t1 + t2/t1

    pts = enumerate_blowup_fixed_points(2, 1, 0)
    for fp in pts:
        assert tangent_blowup(fp).rank == 1


def test_tangent_blowup_rank_and_isolation():
    for r in (1, 2):
        for k in range(r):
            for n in range(3):
                for fp in enumerate_blowup_fixed_points(r, k, n):
                    char = tangent_blowup(fp)
                    assert char.rank == fp.virtual_dim
                    assert not char.contains_trivial()


def test_rank_check_fires_on_broken_block(monkeypatch):
    # the trap guards against convention bugs; simulate one by dropping the
    # exceptional blocks and calling the uncached implementation
    import blowup_genera.characters as characters

    fp = enumerate_blowup_fixed_points(2, 1, 0)[0]
    monkeypatch.setattr(characters, "simplex_exponents", lambda ka, kb: iter(()))
    with pytest.raises(RankCheckError):
        tangent_blowup.__wrapped__(fp)


def test_tangent_blowup_is_the_sum_of_its_three_blocks():
    # the factorization the blow-up series uses: simplex + Y block + Z block
    for r, max_n in ((1, 4), (2, 3), (3, 2)):
        for k in range(r):
            for n in range(max_n + 1):
                for fp in enumerate_blowup_fixed_points(r, k, n):
                    blocks = (
                        simplex_block(fp.kvec),
                        plane_block(fp.y_tuple, fp.kvec, "y"),
                        plane_block(fp.z_tuple, fp.kvec, "z"),
                    )
                    assert blocks[0].rank == fp.kvec.pair_form
                    assert blocks[1].rank == 2 * r * fp.y_tuple.total_size
                    assert blocks[2].rank == 2 * r * fp.z_tuple.total_size
                    assert char_sum(*blocks) == tangent_blowup(fp)


# -- differential test against the block-by-block assembly ----------------------
# The tangent characters as they were built before the one-pass assembly: one
# Character per block, substitution and twist, added up as a running sum.

def reference_hook_exponents(y_a, y_b):
    exps = []
    for s in y_a.boxes():
        arm = arm_leg(y_a, s)[0]
        leg = arm_leg(y_b, s)[1]
        exps.append((-leg, arm + 1))
    for s in y_b.boxes():
        leg = arm_leg(y_a, s)[1]
        arm = arm_leg(y_b, s)[0]
        exps.append((leg + 1, -arm))
    return exps


def reference_n_block(y_a, y_b, a, b):
    exps = reference_hook_exponents(y_a, y_b)
    return Character((make_weight(i1, i2, b, a), 1) for i1, i2 in exps)


def test_hook_table_is_the_box_formula_in_order():
    # the table read from row and column lengths lists the arm/leg formula's
    # exponents box by box, for every ordered pair up to size 5
    parts = [p for n in range(6) for p in enumerate_partitions(n)]
    for y_a, y_b in product(parts, repeat=2):
        assert list(hook_exponents(y_a, y_b)) == reference_hook_exponents(y_a, y_b)


def reference_l_block(kvec, a, b):
    ka = kvec.entries[a - 1]
    kb = kvec.entries[b - 1]
    items = []
    if ka > kb:
        bound = ka - kb - 1
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                items.append((make_weight(-i, -j, b, a), 1))
    elif ka + 1 < kb:
        bound = kb - ka - 2
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                items.append((make_weight(i + 1, j + 1, b, a), 1))
    return Character(items)


def reference_substitute(c, kind):
    if kind == "t2/t1":
        def remap(w):
            return make_weight(w.i1 - w.i2, w.i2, w.num, w.den)
    else:
        def remap(w):
            return make_weight(w.i1, w.i2 - w.i1, w.num, w.den)
    return Character((remap(w), m) for w, m in c.sorted_items())


def reference_twist(c, dt1=0, dt2=0):
    return Character(
        (make_weight(w.i1 + dt1, w.i2 + dt2, w.num, w.den), m)
        for w, m in c.sorted_items()
    )


def reference_tangent_p2(fp):
    """The plane tangent character as the sum of its n_blocks."""
    r = fp.rank
    blocks = []
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            blocks.append(reference_n_block(fp.entries[a - 1], fp.entries[b - 1], a, b))
    return char_sum(*blocks)


def reference_tangent_blowup(fp):
    """The blow-up tangent character as the sum of its substituted, twisted blocks."""
    r = fp.rank
    kv = fp.kvec
    blocks = []
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = kv.entries[b - 1] - kv.entries[a - 1]
            blocks.append(reference_l_block(kv, a, b))
            ny = reference_n_block(fp.y_tuple.entries[a - 1], fp.y_tuple.entries[b - 1], a, b)
            blocks.append(reference_twist(reference_substitute(ny, "t2/t1"), dt1=d))
            nz = reference_n_block(fp.z_tuple.entries[a - 1], fp.z_tuple.entries[b - 1], a, b)
            blocks.append(reference_twist(reference_substitute(nz, "t1/t2"), dt2=d))
    return char_sum(*blocks)


def reference_simplex_block(kvec):
    """The exceptional block as the sum of its l_blocks."""
    slots = range(1, kvec.rank + 1)
    return char_sum(*(reference_l_block(kvec, a, b) for a in slots for b in slots))


def reference_plane_block(pt, kvec, side):
    """The Y or Z block as the sum of its substituted, twisted n_blocks."""
    kind, dt1, dt2 = {"y": ("t2/t1", 1, 0), "z": ("t1/t2", 0, 1)}[side]
    blocks = []
    for a in range(1, pt.rank + 1):
        for b in range(1, pt.rank + 1):
            d = kvec.entries[b - 1] - kvec.entries[a - 1]
            n = reference_n_block(pt.entries[a - 1], pt.entries[b - 1], a, b)
            blocks.append(reference_twist(reference_substitute(n, kind), dt1 * d, dt2 * d))
    return char_sum(*blocks)


DIFFERENTIAL_RANGE = ((1, 6), (2, 4), (3, 2))  # (r, largest n)


def test_tangent_characters_match_block_sum_reference():
    for r, max_n in DIFFERENTIAL_RANGE:
        for n in range(max_n + 1):
            for fp in enumerate_tuples(r, n):
                assert tangent_p2.__wrapped__(fp) == reference_tangent_p2(fp)
            for k in range(r):
                for fp in enumerate_blowup_fixed_points(r, k, n):
                    assert tangent_blowup.__wrapped__(fp) == reference_tangent_blowup(fp)
                    # and each block on its own, as the factored series uses it
                    kv = fp.kvec
                    assert simplex_block(kv) == reference_simplex_block(kv)
                    for side, pt in (("y", fp.y_tuple), ("z", fp.z_tuple)):
                        assert plane_block(pt, kv, side) == reference_plane_block(pt, kv, side)


# -- theta evaluation ----------------------------------------------------------

def test_theta_eval_symbolic_example():
    val = theta_value(char_of((1, 0), (0, 1)), spec23())
    assert val == YRat(YPoly((2, -1)) * YPoly((3, -1)), YPoly((2,)))


def test_theta_eval_empty_product():
    assert theta_eval(Character(), spec23()) == ([1], 1)
    assert theta_value(Character(), spec23()) == 1


def test_theta_eval_trivial_weight_error():
    with pytest.raises(TrivialWeightError):
        theta_eval(char_of((0, 0)), spec23())


def test_theta_eval_degenerate_error_identifies_weight():
    # t1 * t2^-1 evaluates to 1 when t1 == t2 is forced via e-part values;
    # here use t1^2 t2^-1 with t2 = t1^2
    bad_spec = Specialization(F(2), F(4), (F(5),), seed=11)
    with pytest.raises(DegenerateSpecializationError) as err:
        theta_eval(char_of((2, -1)), bad_spec)
    assert err.value.weight == make_weight(2, -1)
    assert err.value.seed == 11


def test_theta_eval_multiplicative():
    a = char_of((1, 0), (0, 1))
    b = char_of((1, -1), (0, 2))
    s = spec23()
    assert theta_value(char_sum(a, b), s) == theta_value(a, s) * theta_value(b, s)


def test_theta_eval_at_y_one_counts_fixed_points():
    spec = sample_specialization(2, 3)
    for fp in enumerate_tuples(2, 2):
        assert theta_value(tangent_p2(fp), spec, y0=F(1)) == 1
    assert theta_value(char_of((1, 0), (0, 1)), spec23(), y0=F(1)) == 1


def test_theta_eval_of_tangent_characters_is_a_polynomial():
    # positive multiplicities leave only the constant denominator prod (p - q):
    # an integer list over an integer, whose value is a YPoly
    spec = sample_specialization(2, 1)
    pairs = [theta_eval(tangent_blowup(fp), spec) for fp in enumerate_blowup_fixed_points(2, 1, 2)]
    for fp in enumerate_tuples(2, 2):
        pairs += [theta_eval(tangent_p2(fp), spec), theta_limit_factor(tangent_p2(fp), spec)]
    pairs.append(theta_eval(Character(), spec))
    for num, den in pairs:
        assert all(type(x) is int for x in num + [den])
        assert type(cleared_value((num, den))) is YPoly


def test_degenerate_weight_with_e_part_is_named():
    # e2/e1 * t1 = (6/5) * (5/6) = 1: p == q for that weight only
    s = Specialization(F(5, 6), F(3), (F(2), F(12, 5)), seed=7)
    bad = make_weight(1, 0, 2, 1)
    c = Character([(make_weight(0, 1), 2), (bad, 1), (make_weight(1, 1), 1)])
    with pytest.raises(DegenerateSpecializationError) as err:
        theta_eval(c, s)
    assert err.value.weight == bad
    assert "1 * e2/e1 * t1^1 * t2^0 evaluates to 1" in str(err.value)
    # the limit keeps theta of pure t-monomials: t1^2 t2^-1 = 4/4
    limit_spec = Specialization(F(2), F(4), (F(5), F(7)), seed=3)
    with pytest.raises(DegenerateSpecializationError) as err:
        theta_limit_factor(Character([(make_weight(2, -1), 1)]), limit_spec)
    assert err.value.weight == make_weight(2, -1)


def test_cleared_theta_rejects_negative_multiplicities():
    # theta of a negative multiplicity would leave a y-denominator
    negative = [
        Character([(make_weight(1, 0), -1)]),
        Character([(make_weight(1, 0), 1), (make_weight(0, 1), -1)]),
        # limit mode drops this weight (its value tends to infinity), yet it is rejected
        Character([(make_weight(1, 0), 1), (make_weight(0, 0, 2, 1), -1)]),
    ]
    s = Specialization(F(2), F(3), (F(5), F(7)), seed=0)
    for c in negative:
        for limit in (False, True):
            theta = theta_limit_factor if limit else theta_eval
            with pytest.raises(ValueError, match="positive multiplicities") as err:
                theta(c, s)
            assert type(err.value) is ValueError
            assert outcome(theta, c, s) == outcome(reference_theta, c, s, limit)


def test_cleared_theta_is_the_reference_value_over_one_denominator():
    c = Character([(make_weight(1, 0), 2), (make_weight(0, 1, 1, 2), 1)])
    s = Specialization(F(2), F(3), (F(5), F(7)), seed=0)
    for limit in (False, True):
        num, den = (theta_limit_factor if limit else theta_eval)(c, s)
        assert all(type(x) is int for x in num + [den])
        assert len(num) == 4
        for y0 in (None, F(0), F(2, 3)):
            assert at(cleared_value((num, den)), y0) == reference_theta(c, s, limit, y0)


# -- the weight-value memo of a specialization ------------------------------------

def test_weight_memo_leaves_equality_hash_and_repr_alone():
    used, fresh = sample_specialization(2, 5), sample_specialization(2, 5)
    before = (hash(used), repr(used))
    theta_eval(tangent_p2(enumerate_tuples(2, 2)[0]), used)
    assert used.weight_memo
    assert used == fresh and hash(used) == hash(fresh)
    assert (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))
    assert "weight_memo" not in repr(used)
    with pytest.raises(AttributeError):
        used.weight_memo = {}


def test_weight_memo_belongs_to_one_specialization():
    a = sample_specialization(2, 5)
    b = sample_specialization(2, 5)
    c = sample_specialization(2, 6)
    char = tangent_p2(enumerate_tuples(2, 2)[0])
    theta_eval(char, a)
    assert a.weight_memo is not b.weight_memo and not b.weight_memo
    theta_eval(char, c)
    assert set(c.weight_memo) == set(a.weight_memo)
    for spec in (a, c):
        for w, (p, q) in spec.weight_memo.items():
            assert F(p, q) == weight_value(w, spec) and (p, q) == (F(p, q).numerator, q)
    assert a.weight_memo != c.weight_memo


def test_degenerate_weight_raises_again_from_the_memo():
    s = Specialization(F(2), F(4), (F(5),), seed=11)
    bad = make_weight(2, -1)  # 2^2 / 4 = 1
    messages = []
    for theta in (theta_eval, theta_eval, theta_limit_factor):
        with pytest.raises(DegenerateSpecializationError) as err:
            theta(Character([(make_weight(1, 0), 1), (bad, 1)]), s)
        assert err.value.weight == bad
        messages.append(str(err.value))
        assert s.weight_memo[bad] == (1, 1)
    assert len(set(messages)) == 1


# -- ordered limit --------------------------------------------------------------

def test_theta_limit_factor_case_table():
    s = Specialization(F(2), F(3), (F(5), F(7)), seed=0)
    # numerator slot above denominator slot: factor 1
    assert theta_value(Character([(make_weight(1, 0, 2, 1), 1)]), s, limit=True) == 1
    # numerator slot below denominator slot: factor y
    got = theta_value(Character([(make_weight(1, 0, 1, 2), 1)]), s, limit=True)
    assert got == YRat(YPoly.y())
    # pure t-monomial keeps theta: theta(2/3) = (2/3 - y)/(2/3 - 1) = 3y - 2
    got = theta_value(Character([(make_weight(1, -1), 1)]), s, limit=True)
    assert got == YRat(YPoly((-2, 3)))


def test_theta_limit_factor_trivial_weight():
    s = Specialization(F(2), F(3), (F(5),), seed=0)
    with pytest.raises(TrivialWeightError):
        theta_limit_factor(char_of((0, 0)), s)


def test_limit_bookkeeping_matches_hook_product():
    # for a plane fixed point the limit factor equals
    # prod_a y^((r-1)|Y_a|) * prod of the r = 1 hook thetas of each Y_a
    from blowup_genera.rank1 import hook_character

    r = 3
    spec = sample_specialization(r, 17)
    rank1_spec = Specialization(spec.t1, spec.t2, (spec.e[0],), seed=spec.seed)
    for fp in enumerate_tuples(r, 2):
        got = theta_value(tangent_p2(fp), spec, limit=True)
        expected = YRat(YPoly.one())
        for part in fp.entries:
            expected = expected * YRat(YPoly.monomial((r - 1) * part.size))
            expected = expected * theta_value(hook_character(part), rank1_spec)
        assert got == expected


def test_weight_value():
    s = Specialization(F(2), F(3), (F(5), F(7)), seed=0)
    assert weight_value(make_weight(1, 1), s) == 6
    assert weight_value(make_weight(0, 0, 2, 1), s) == F(7, 5)
    assert weight_value(make_weight(-1, 0, 1, 2), s) == F(5, 14)


def test_character_serialization():
    c = Character([(make_weight(0, 1, 2, 1), 2), (make_weight(1, 0), 1)])
    assert c.to_str() == "1 * t1^1 * t2^0 + 2 * e2/e1 * t1^0 * t2^1"
    assert Character().to_str() == "0"


# -- differential test against the Fraction/YPoly kernel -------------------------

def reference_theta_product(factors, y0):
    """The theta kernel before integer clearing: one YPoly/Fraction multiply per factor.

    Symbolic y for y0 = None, else numeric throughout.  Every multiplicity
    is positive, so the denominator prod (x - 1)**m is a rational number.
    """
    if y0 is None:
        num = YPoly.one()
        den = F(1)
        for _w, x, m in factors:
            num = num * YPoly((x, -1)) ** m  # x - y
            den = den * (x - 1) ** m
        return num * (1 / den)
    result = F(1)
    for _w, x, m in factors:
        result = result * ((x - y0) / (x - 1)) ** m
    return result


def reference_theta(c, spec, limit=False, y0=None):
    """Theta of c as a YPoly, or a Fraction at a numeric y0, weight by weight.

    The checks raise in sorted_items() order: the trivial weight, then a
    negative multiplicity, then a weight whose value is 1.
    """
    y_exp = 0
    factors = []
    for w, m in c.sorted_items():
        if weight_is_trivial(w):
            raise TrivialWeightError(f"theta undefined on the trivial weight in {c!r}")
        if m < 0:
            raise ValueError(f"theta needs positive multiplicities: {c!r}")
        if limit and w.num is not None:
            if w.den > w.num:
                y_exp += m
            continue
        x = weight_value(w, spec)
        if x == 1:
            raise DegenerateSpecializationError(w, spec.seed)
        factors.append((w, x, m))
    y_power = YPoly.monomial(y_exp) if y0 is None else y0**y_exp
    return y_power * reference_theta_product(factors, y0)


def outcome(fn, *args):
    """Result of fn, or the exception type and message it raised.

    ValueError covers DegenerateSpecializationError and TrivialWeightError.
    """
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same(got, expected):
    assert got == expected
    if not isinstance(expected, tuple):
        assert type(got) is type(expected)
        assert printed(got) == printed(expected)


Y_MODES = (None, F(0), F(1), F(2, 3))

random_weights = st.tuples(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3))),
).map(lambda t: make_weight(t[0], t[1], *(t[2] or (None, None))))
random_characters = st.lists(
    st.tuples(random_weights, st.integers(-3, 3).filter(bool)), max_size=8
).map(Character)
# theta's values: no negative multiplicity, no trivial weight
positive_characters = (
    st.lists(st.tuples(random_weights, st.integers(1, 3)), min_size=1, max_size=8)
    .map(Character)
    .filter(lambda c: not c.contains_trivial())
)


def assert_theta_matches_reference(c, seed, y0):
    spec = sample_specialization(3, seed)
    for limit in (False, True):
        assert_same(
            outcome(theta_value, c, spec, limit, y0), outcome(reference_theta, c, spec, limit, y0)
        )


@settings(max_examples=150, deadline=None)
@given(random_characters, st.integers(0, 2**16), st.sampled_from(Y_MODES))
def test_theta_kernel_matches_fraction_reference(c, seed, y0):
    # mostly the order of the errors: most draws hold a negative multiplicity
    assert_theta_matches_reference(c, seed, y0)


@settings(max_examples=150, deadline=None)
@given(positive_characters, st.integers(0, 2**16), st.sampled_from(Y_MODES))
def test_theta_kernel_values_match_fraction_reference(c, seed, y0):
    assert_theta_matches_reference(c, seed, y0)


def test_theta_limit_factor_folds_y_exponent():
    up = make_weight(1, 0, 1, 2)  # contributes y
    s = Specialization(F(2), F(3), (F(5), F(7)), seed=0)
    for y0 in Y_MODES:
        for mult in (3, 2):
            c = Character([(up, mult), (make_weight(1, -1), 1), (make_weight(0, 1), 1)])
            assert_same(theta_value(c, s, True, y0), reference_theta(c, s, True, y0))


def test_theta_kernel_matches_reference_on_tangent_characters():
    spec = sample_specialization(2, 1)
    for n in range(4):
        for fp in enumerate_blowup_fixed_points(2, 1, n):
            c = tangent_blowup(fp)
            for y0, limit in product(Y_MODES, (False, True)):
                assert_same(theta_value(c, spec, limit, y0), reference_theta(c, spec, limit, y0))


# -- blow-up blocks from pair factors ------------------------------------------
# theta of a block is the product of its r diagonal factors and r(r-1)/2
# slot-pair products, which must agree with theta_eval of the whole
# plane_block integer for integer, not only in value.  Its value at y0 must
# be the Fraction reference's theta of the block.

def pair_factor_product(pt, kvec, side, spec):
    """theta of plane_block(pt, kvec, side) as the product of its memo entries, slots a <= b."""
    slots = list(enumerate(zip(kvec.entries, pt.entries), 1))
    block = ([1], 1)
    for a, (ka, p_a) in slots:
        for b, (kb, p_b) in slots[a - 1:]:
            f = characters._pair_factor(spec.pair_memo, p_a, p_b, a, b, kb - ka, side, spec)
            block = cleared_product(block, f)
    return block


# small values make some weight of a block evaluate to 1 far more often than
# sample_specialization's draws from [2, 97]
SMALL_VALUES = (F(2), F(-2), F(1, 2), F(-1, 2), F(-1), F(3), F(-3), F(4), F(1, 4))


@st.composite
def plane_blocks(draw):
    """A tuple, its degrees, and a sampled specialization or one of small values."""
    r = draw(st.integers(1, 3))
    pt = draw(st.sampled_from(enumerate_tuples(r, draw(st.integers(0, 3)))))
    kvec = LatticeVector(tuple(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))))
    if draw(st.booleans()):
        return pt, kvec, sample_specialization(r, draw(st.integers(0, 2**16)))
    vals = draw(st.lists(st.sampled_from(SMALL_VALUES), min_size=r + 2, max_size=r + 2, unique=True))
    return pt, kvec, Specialization(vals[0], vals[1], tuple(vals[2:]), seed=0)


@settings(max_examples=200, deadline=None)
@given(plane_blocks(), st.sampled_from(["y", "z"]), st.sampled_from(Y_MODES))
@example(  # e2/e1 * t1^-5 = 1 in pair (1, 2) and t1^2 = 1 in pair (2, 2)
    (
        PartitionTuple((Partition(), Partition((1, 1)))),
        LatticeVector((2, -2)),
        Specialization(F(-1), F(-3), (F(2), F(-2)), seed=0),
    ),
    "y",
    None,
)
def test_pair_factor_theta_is_the_block_theta(block, side, y0):
    pt, kvec, spec = block
    try:
        want = theta_eval(plane_block(pt, kvec, side), spec)
    except DegenerateSpecializationError:
        # some pair factor holds the weight, and none is stored that raised
        with pytest.raises(DegenerateSpecializationError):
            pair_factor_product(pt, kvec, side, spec)
        return
    for _ in range(2):  # filling the specialization's memo, then reading it
        got = pair_factor_product(pt, kvec, side, spec)
        assert got == want
        # one diagonal factor per distinct diagram, whatever its slot
        diagrams = set(pt.entries)
        assert {key for key in spec.pair_memo if len(key) == 2} == {(p, side) for p in diagrams}
        assert len(spec.pair_memo) == pt.rank * (pt.rank - 1) // 2 + len(diagrams)
    block = plane_block(pt, kvec, side)
    assert_same(at(cleared_value(got), y0), reference_theta(block, spec, False, y0))


@settings(max_examples=100, deadline=None)
@given(plane_blocks(), st.sampled_from(["y", "z"]))
@example(  # limit mode: pair (2, 1) tends to y^1, so its theta_limit_factor carries (-1)^1
    (
        PartitionTuple((Partition((1,)), Partition())),
        LatticeVector((0, 0)),
        sample_specialization(2, 101),
    ),
    "y",
)
def test_limit_block_theta_is_its_diagonal_factors_shifted(block, side):
    # in the ordered limit each off-diagonal pair (a > b) gives y^(|Y_a| + |Y_b|)
    # and each (a < b) gives 1: y^((r - 1)|pt|) times the diagonal factors
    pt, kvec, spec = block
    try:
        want = theta_limit_factor(plane_block(pt, kvec, side), spec)
    except DegenerateSpecializationError:
        with pytest.raises(DegenerateSpecializationError):
            for p in pt.entries:
                characters._pair_factor(spec.pair_memo, p, p, 1, 1, 0, side, spec)
        return
    got = ([0] * ((pt.rank - 1) * pt.total_size) + [1], 1)
    for p in pt.entries:
        f = characters._pair_factor(spec.pair_memo, p, p, 1, 1, 0, side, spec)
        got = cleared_product(got, f)
    assert cleared_value(got) == cleared_value(want)


def test_block_theta_takes_the_factors_of_its_own_specialization():
    # two specializations meet the same block: each multiplies the pair
    # factors of its own memo, so neither can read the other's theta
    pt = PartitionTuple((Partition((2,)), Partition((1,))))
    kvec = LatticeVector((0, 1))
    specs = [sample_specialization(2, 7), sample_specialization(2, 101)]
    for spec in specs * 2:
        got = pair_factor_product(pt, kvec, "y", spec)
        assert got == theta_eval(plane_block(pt, kvec, "y"), spec)
    assert specs[0].pair_memo != specs[1].pair_memo
