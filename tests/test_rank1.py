"""Rank-one hook series and the infinite-product quotient identity."""

from fractions import Fraction as F

import pytest

from blowup_genera.characters import SUBSTITUTIONS, Character, make_weight
from blowup_genera.coefficients import (
    Specialization,
    YPoly,
    YRat,
    sample_specialization,
)
from blowup_genera.partitions import Partition, arm_leg, enumerate_partitions
from blowup_genera.qseries import QSeries
from blowup_genera.rank1 import (
    hook_character,
    nekrasov_okounkov_rhs,
    verify_nekrasov_okounkov,
    w_series,
)


def spec23():
    return Specialization(F(2), F(3), (F(5),), seed=0)


def char_of(*weights):
    return Character((make_weight(*w), 1) for w in weights)


def test_w_series_base_and_first_coefficient():
    w = w_series(spec23(), 1)
    assert w.coefficient(0) == 1
    assert w.coefficient(1) == YRat(YPoly((2, -1)) * YPoly((3, -1)), YPoly((2,)))


def test_w_series_at_y_one_counts_partitions():
    w = w_series(sample_specialization(1, 44), 6).at_y(F(1))
    for n in range(7):
        assert w.coefficient(n) == len(enumerate_partitions(n))


def test_w_series_at_y_zero_is_finite():
    w = w_series(sample_specialization(1, 45), 6).at_y(F(0))
    for n in range(7):
        assert w.coefficient(n).degree <= 0  # exact finite rationals


def test_rhs_counts_partitions_in_yq():
    rhs = nekrasov_okounkov_rhs(5)
    for n in range(6):
        p_n = len(enumerate_partitions(n))
        assert rhs.coefficient(n) == YPoly.monomial(n, p_n)


def test_identity_order_zero():
    assert verify_nekrasov_okounkov(spec23(), 0)["pass"] is True


def test_identity_symbolic_three_seeds():
    for seed in (1, 2, 3):
        report = verify_nekrasov_okounkov(sample_specialization(1, seed), 6)
        assert report["pass"] is True
        assert report["first_failure"] is None


def test_identity_negative_control():
    # perturb the left side by hand and confirm the first failure is at q^1
    spec = spec23()
    w_plain = w_series(spec, 4)
    w_12 = w_series(spec, 4, "t2/t1")
    w_21 = w_series(spec, 4, "t1/t2")
    rhs = nekrasov_okounkov_rhs(4)
    bump = QSeries.monomial(1, 1, 5)
    left = (w_12 + bump) * w_21
    right = rhs * w_plain
    assert left.first_difference(right, 4) == 1


def test_quotient_independent_of_specialization():
    # stronger than the identity: the quotient series itself matches between
    # two unrelated specializations
    quotients = []
    for seed in (10, 20):
        spec = sample_specialization(1, seed)
        lhs = w_series(spec, 5, "t2/t1") * w_series(spec, 5, "t1/t2")
        quotients.append(lhs * w_series(spec, 5).invert())
    assert quotients[0].agrees_to(quotients[1], 5)


def test_substitution_validation():
    with pytest.raises(ValueError):
        w_series(spec23(), 3, "q/t")
    with pytest.raises(ValueError):
        hook_character(enumerate_partitions(2)[0], "q/t")


def test_hook_character_substitution_examples():
    assert hook_character(Partition((1,)), "t2/t1") == char_of((1, 0), (-1, 1))
    assert hook_character(Partition(), "t2/t1") == Character()
    # the row (2) has t1 t2^-1, which (t1/t2, t2) sends to t1 t2^-2
    assert hook_character(Partition((2,)), "t1/t2") == char_of((0, 2), (0, 1), (1, -2), (1, -1))
    with pytest.raises(ValueError):
        hook_character(Partition((1,)), "t2*t1")


def test_hook_character_refuses_an_unknown_substitution_every_time():
    p = Partition((3, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="unsupported substitution"):
            hook_character(p, "q/t")


def test_substitution_table_examples():
    # each entry is (exponent map, twist); the twist is t1^d in the chart
    # (t1, t2/t1), t2^d in (t1/t2, t2) and none in the identity chart
    (remap_12, twist_12), (remap_21, twist_21) = SUBSTITUTIONS["t2/t1"], SUBSTITUTIONS["t1/t2"]
    assert remap_12(2, 1) == (1, 1)
    assert remap_12(1, 0) == (1, 0)
    assert remap_21(1, -1) == (1, -2)
    assert (twist_12, twist_21, SUBSTITUTIONS["identity"][1]) == ((1, 0), (0, 1), (0, 0))


def test_hook_character_collisions_accumulate():
    # the two corner boxes of (2, 1) give t1 and t2 twice; the multiplicity
    # 2 survives the substitution
    got = hook_character(Partition((2, 1)), "t2/t1")
    assert got == Character(
        [(make_weight(-3, 2), 1), (make_weight(3, -1), 1),
         (make_weight(-1, 1), 2), (make_weight(1, 0), 2)]
    )
    assert got.rank == 6 and len(got) == 4


def reference_hook_character(p, substitution):
    # per-box hook formula: t1^(-leg) t2^(arm+1) and t1^(leg+1) t2^(-arm),
    # with the substitution applied to the exponent pair directly
    remap = {
        "identity": lambda i1, i2: (i1, i2),
        "t2/t1": lambda i1, i2: (i1 - i2, i2),
        "t1/t2": lambda i1, i2: (i1, i2 - i1),
    }[substitution]
    items = []
    for s in p.boxes():
        arm, leg = arm_leg(p, s)
        items.append((make_weight(*remap(-leg, arm + 1)), 1))
        items.append((make_weight(*remap(leg + 1, -arm)), 1))
    return Character(items)


@pytest.mark.parametrize("substitution", SUBSTITUTIONS)
def test_hook_character_matches_per_box_formula(substitution):
    for n in range(7):
        for p in enumerate_partitions(n):
            got = hook_character(p, substitution)
            expected = reference_hook_character(p, substitution)
            assert got == expected
            assert got.sorted_items() == expected.sorted_items()
            assert got.rank == 2 * n
