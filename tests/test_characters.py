"""Tangent characters and theta evaluation at exact specializations."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

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
    coeff_to_str,
    sample_specialization,
)
from blowup_genera.partitions import (
    LatticeVector,
    Partition,
    PartitionTuple,
    arm_leg,
    enumerate_blowup_fixed_points,
    enumerate_tuples,
)


def spec23(y0=None):
    return Specialization(F(2), F(3), (F(5),), y0, seed=0)


def char_of(*weights):
    return Character((make_weight(*w), 1) for w in weights)


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
    assert tangent_p2(empty) == Character.empty()
    row2 = PartitionTuple((Partition((2,)),))
    assert tangent_p2(row2).rank == 4


def test_tangent_p2_rank_formula():
    for r in (1, 2, 3):
        for n in range(4):
            for fp in enumerate_tuples(r, n):
                assert tangent_p2(fp).rank == 2 * r * n


def test_tangent_blowup_examples():
    pts = enumerate_blowup_fixed_points(1, 0, 0)
    assert tangent_blowup(pts[0]) == Character.empty()

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
                    assert blocks[0] + blocks[1] + blocks[2] == tangent_blowup(fp)


# -- differential test against the block-by-block assembly ----------------------
# The tangent characters as they were built before the one-pass assembly: one
# Character per block, substitution and twist, added up as a running sum.

def reference_n_block(y_a, y_b, a, b):
    items = []
    for s in y_a.boxes():
        arm = arm_leg(y_a, s)[0]
        leg = arm_leg(y_b, s)[1]
        items.append((make_weight(-leg, arm + 1, b, a), 1))
    for s in y_b.boxes():
        leg = arm_leg(y_a, s)[1]
        arm = arm_leg(y_b, s)[0]
        items.append((make_weight(leg + 1, -arm, b, a), 1))
    return Character(items)


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
    """The plane tangent character as a running sum of n_blocks."""
    r = fp.rank
    total = Character.empty()
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            total = total + reference_n_block(fp.entries[a - 1], fp.entries[b - 1], a, b)
    return total


def reference_tangent_blowup(fp):
    """The blow-up tangent character as a running sum of substituted, twisted blocks."""
    r = fp.rank
    kv = fp.kvec
    total = Character.empty()
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = kv.entries[b - 1] - kv.entries[a - 1]
            total = total + reference_l_block(kv, a, b)
            ny = reference_n_block(fp.y_tuple.entries[a - 1], fp.y_tuple.entries[b - 1], a, b)
            total = total + reference_twist(reference_substitute(ny, "t2/t1"), dt1=d)
            nz = reference_n_block(fp.z_tuple.entries[a - 1], fp.z_tuple.entries[b - 1], a, b)
            total = total + reference_twist(reference_substitute(nz, "t1/t2"), dt2=d)
    return total


DIFFERENTIAL_RANGE = ((1, 6), (2, 4), (3, 2))  # (r, largest n)


def test_tangent_characters_match_block_sum_reference():
    for r, max_n in DIFFERENTIAL_RANGE:
        for n in range(max_n + 1):
            for fp in enumerate_tuples(r, n):
                assert tangent_p2.__wrapped__(fp) == reference_tangent_p2(fp)
            for k in range(r):
                for fp in enumerate_blowup_fixed_points(r, k, n):
                    assert tangent_blowup.__wrapped__(fp) == reference_tangent_blowup(fp)


# -- theta evaluation ----------------------------------------------------------

def test_theta_eval_symbolic_example():
    val = theta_eval(char_of((1, 0), (0, 1)), spec23())
    assert val == YRat(YPoly((2, -1)) * YPoly((3, -1)), YPoly((2,)))


def test_theta_eval_empty_product():
    assert theta_eval(Character.empty(), spec23()) == 1


def test_theta_eval_trivial_weight_error():
    with pytest.raises(TrivialWeightError):
        theta_eval(char_of((0, 0)), spec23())


def test_theta_eval_degenerate_error_identifies_weight():
    # t1 * t2^-1 evaluates to 1 when t1 == t2 is forced via e-part values;
    # here use t1^2 t2^-1 with t2 = t1^2
    bad_spec = Specialization(F(2), F(4), (F(5),), None, seed=11)
    with pytest.raises(DegenerateSpecializationError) as err:
        theta_eval(char_of((2, -1)), bad_spec)
    assert err.value.weight == make_weight(2, -1)
    assert err.value.seed == 11


def test_theta_eval_multiplicative():
    a = char_of((1, 0), (0, 1))
    b = char_of((1, -1), (0, 2))
    s = spec23()
    assert theta_eval(a + b, s) == theta_eval(a, s) * theta_eval(b, s)


def test_theta_eval_at_y_one_counts_fixed_points():
    s = spec23(F(1))
    for fp in enumerate_tuples(2, 2):
        spec = sample_specialization(2, 3, F(1))
        assert theta_eval(tangent_p2(fp), spec) == 1
    assert theta_eval(char_of((1, 0), (0, 1)), s) == 1


def test_theta_eval_numeric_matches_symbolic():
    c = char_of((1, 0), (0, 1), (1, -1))
    for y0 in (F(0), F(1), F(2, 5)):
        sym = theta_eval(c, spec23())
        num = theta_eval(c, spec23(y0))
        assert sym.evaluate(y0) == num


def test_theta_eval_negative_multiplicity():
    c = Character([(make_weight(1, 0), -1)])
    val = theta_eval(c, spec23())
    assert val == YRat(YPoly((1,)), YPoly((2, -1)))
    assert isinstance(val, YRat)


def test_theta_eval_of_tangent_characters_is_a_polynomial():
    # positive multiplicities leave only the constant denominator prod (p - q),
    # so no YRat is built
    spec = sample_specialization(2, 1)
    for fp in enumerate_blowup_fixed_points(2, 1, 2):
        assert type(theta_eval(tangent_blowup(fp), spec)) is YPoly
    for fp in enumerate_tuples(2, 2):
        assert type(theta_eval(tangent_p2(fp), spec)) is YPoly
        assert type(theta_limit_factor(tangent_p2(fp), spec)) is YPoly
    assert type(theta_eval(Character.empty(), spec)) is YPoly


def test_degenerate_weight_with_e_part_is_named():
    # e2/e1 * t1 = (6/5) * (5/6) = 1: p == q for that weight only
    s = Specialization(F(5, 6), F(3), (F(2), F(12, 5)), None, seed=7)
    bad = make_weight(1, 0, 2, 1)
    c = Character([(make_weight(0, 1), 2), (bad, 1), (make_weight(1, 1), -1)])
    with pytest.raises(DegenerateSpecializationError) as err:
        theta_eval(c, s)
    assert err.value.weight == bad
    assert "1 * e2/e1 * t1^1 * t2^0 evaluates to 1" in str(err.value)
    # the limit keeps theta of pure t-monomials: t1^2 t2^-1 = 4/4
    limit_spec = Specialization(F(2), F(4), (F(5), F(7)), None, seed=3)
    with pytest.raises(DegenerateSpecializationError) as err:
        theta_limit_factor(Character([(make_weight(2, -1), 1)]), limit_spec)
    assert err.value.weight == make_weight(2, -1)


# -- ordered limit --------------------------------------------------------------

def test_theta_limit_factor_case_table():
    s = Specialization(F(2), F(3), (F(5), F(7)), None, seed=0)
    # numerator slot above denominator slot: factor 1
    assert theta_limit_factor(Character([(make_weight(1, 0, 2, 1), 1)]), s) == 1
    # numerator slot below denominator slot: factor y
    assert theta_limit_factor(Character([(make_weight(1, 0, 1, 2), 1)]), s) == YRat(YPoly.y())
    # pure t-monomial keeps theta: theta(2/3) = (2/3 - y)/(2/3 - 1) = 3y - 2
    got = theta_limit_factor(Character([(make_weight(1, -1), 1)]), s)
    assert got == YRat(YPoly((-2, 3)))


def test_theta_limit_factor_trivial_weight():
    s = Specialization(F(2), F(3), (F(5),), None, seed=0)
    with pytest.raises(TrivialWeightError):
        theta_limit_factor(char_of((0, 0)), s)


def test_limit_bookkeeping_matches_hook_product():
    # for a plane fixed point the limit factor equals
    # prod_a y^((r-1)|Y_a|) * prod of the r = 1 hook thetas of each Y_a
    from blowup_genera.rank1 import hook_character

    r = 3
    spec = sample_specialization(r, 17)
    rank1_spec = Specialization(spec.t1, spec.t2, (spec.e[0],), None, seed=spec.seed)
    for fp in enumerate_tuples(r, 2):
        got = theta_limit_factor(tangent_p2(fp), spec)
        expected = YRat(YPoly.one())
        for part in fp.entries:
            expected = expected * YRat(YPoly.monomial((r - 1) * part.size))
            expected = expected * theta_eval(hook_character(part), rank1_spec)
        assert got == expected


def test_weight_value():
    s = Specialization(F(2), F(3), (F(5), F(7)), None, seed=0)
    assert weight_value(make_weight(1, 1), s) == 6
    assert weight_value(make_weight(0, 0, 2, 1), s) == F(7, 5)
    assert weight_value(make_weight(-1, 0, 1, 2), s) == F(5, 14)


def test_character_serialization():
    c = Character([(make_weight(0, 1, 2, 1), 2), (make_weight(1, 0), 1)])
    assert c.to_str() == "1 * t1^1 * t2^0 + 2 * e2/e1 * t1^0 * t2^1"
    assert Character.empty().to_str() == "0"


# -- differential test against the Fraction/YPoly kernel -------------------------

def reference_theta_product(factors, spec):
    """The theta kernel before integer clearing: one YPoly/Fraction multiply per factor."""
    if spec.symbolic:
        num = YPoly.one()
        den = YPoly.one()
        for _w, x, m in factors:
            lin_num = YPoly((x, -1))  # x - y
            lin_den = YPoly((x - 1,))
            if m >= 0:
                num = num * lin_num**m
                den = den * lin_den**m
            else:
                num = num * lin_den ** (-m)
                den = den * lin_num ** (-m)
        return YRat(num, den)
    result = F(1)
    for _w, x, m in factors:
        result = result * ((x - spec.y0) / (x - 1)) ** m
    return result


def reference_theta(c, spec, limit=False):
    y_exp = 0
    factors = []
    for w, m in c.sorted_items():
        if weight_is_trivial(w):
            raise TrivialWeightError(f"theta undefined on the trivial weight in {c!r}")
        if limit and w.num is not None:
            if w.den > w.num:
                y_exp += m
            continue
        x = weight_value(w, spec)
        if x == 1:
            raise DegenerateSpecializationError(w, spec.seed)
        factors.append((w, x, m))
    y_power = YRat(YPoly.y()) ** y_exp if spec.symbolic else spec.y0**y_exp
    return y_power * reference_theta_product(factors, spec)


def outcome(fn, *args):
    """Result of fn, or the exception type and message it raised."""
    try:
        return fn(*args)
    except (DegenerateSpecializationError, TrivialWeightError, ZeroDivisionError) as exc:
        return type(exc), str(exc) if not isinstance(exc, ZeroDivisionError) else ""


def assert_same(got, expected):
    assert got == expected
    if not isinstance(expected, tuple):
        assert coeff_to_str(got) == coeff_to_str(expected)


Y_MODES = (None, F(0), F(1), F(2, 3))

random_weights = st.tuples(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3))),
).map(lambda t: make_weight(t[0], t[1], *(t[2] or (None, None))))
random_characters = st.lists(
    st.tuples(random_weights, st.integers(-3, 3).filter(bool)), max_size=8
).map(Character)


@settings(max_examples=150, deadline=None)
@given(random_characters, st.integers(0, 2**16), st.sampled_from(Y_MODES))
def test_theta_kernel_matches_fraction_reference(c, seed, y0):
    spec = sample_specialization(3, seed, y0)
    assert_same(outcome(theta_eval, c, spec), outcome(reference_theta, c, spec))
    assert_same(
        outcome(theta_limit_factor, c, spec), outcome(reference_theta, c, spec, True)
    )


def test_theta_limit_factor_folds_y_exponent():
    up = make_weight(1, 0, 1, 2)  # contributes y
    for y0 in Y_MODES:
        s = Specialization(F(2), F(3), (F(5), F(7)), y0, seed=0)
        for mult in (3, -2):
            c = Character([(up, mult), (make_weight(1, -1), 1), (make_weight(0, 1), -1)])
            assert_same(
                outcome(theta_limit_factor, c, s), outcome(reference_theta, c, s, True)
            )


def test_theta_kernel_matches_reference_on_tangent_characters():
    for y0 in Y_MODES:
        spec = sample_specialization(2, 1, y0)
        for n in range(4):
            for fp in enumerate_blowup_fixed_points(2, 1, n):
                c = tangent_blowup(fp)
                assert_same(theta_eval(c, spec), reference_theta(c, spec))
                assert_same(theta_limit_factor(c, spec), reference_theta(c, spec, True))
