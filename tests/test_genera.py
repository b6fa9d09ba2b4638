"""Generating series assembly: gradings, modes, closed form, reports."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from test_characters import at, reference_theta

from blowup_genera.characters import (
    Character,
    DegenerateSpecializationError,
    RankCheckError,
    TrivialWeightError,
    cleared_convolution,
    cleared_product,
    cleared_value,
    hook_character,
    make_weight,
    pair_exponents,
    plane_block,
    plane_block_theta,
    simplex_block,
    tangent_blowup,
    tangent_p2,
    theta_eval,
    theta_sum,
)
from blowup_genera.coefficients import (
    Specialization,
    YPoly,
    YRat,
    coeff_to_str,
    sample_specialization,
)
from blowup_genera.genera import (
    EQUIVARIANT,
    LIMIT,
    SeriesRequest,
    _side_sum,
    series_report,
    z_series,
    z_series_limit_closed,
    zhat_series,
)
from blowup_genera.partitions import (
    LatticeVector,
    Partition,
    PartitionTuple,
    blowup_virtual_dim,
    enumerate_blowup_fixed_points,
    enumerate_tuples,
)
from blowup_genera.qseries import QSeries
from blowup_genera.rank1 import w_series


def spec23():
    return Specialization(F(2), F(3), (F(5),), seed=0)


def theta(x):
    return YRat(YPoly((x, -1)), YPoly((x - 1,)))


def test_z_series_rank1_base():
    z = z_series(SeriesRequest(rank=1, max_n=0, spec=spec23()))
    assert z.coefficient(0) == 1
    assert z.order == 1


def test_z_series_rank1_first_coefficient():
    z = z_series(SeriesRequest(rank=1, max_n=1, spec=spec23()))
    assert z.coefficient(0) == 1
    assert z.coefficient(1) == 0
    assert z.coefficient(2) == theta(F(2)) * theta(F(3))


def test_z_series_at_y_one_counts_tuples():
    for r in (1, 2):
        spec = sample_specialization(r, 21)
        z = z_series(SeriesRequest(rank=r, max_n=3, spec=spec)).at_y(F(1))
        for n in range(4):
            assert z.coefficient(2 * r * n) == len(enumerate_tuples(r, n))


def test_zhat_series_rank1_examples():
    zh = zhat_series(SeriesRequest(rank=1, max_n=1, spec=spec23(), k=0))
    assert zh.coefficient(0) == 1
    t1, t2 = F(2), F(3)
    expected = theta(t1) * theta(t2 / t1) + theta(t1 / t2) * theta(t2)
    assert zh.coefficient(2) == expected


def test_zhat_series_rank2_k1_counts_at_y_one():
    spec = sample_specialization(2, 9)
    zh = zhat_series(SeriesRequest(rank=2, max_n=0, spec=spec, k=1)).at_y(F(1))
    assert zh.offset == 1
    assert zh.coefficient(1) == 2


def test_zhat_support_congruence():
    for (r, k) in ((2, 0), (2, 1), (3, 2)):
        spec = sample_specialization(r, 31)
        zh = zhat_series(SeriesRequest(rank=r, max_n=1, spec=spec, k=k))
        for e, c in zh.items():
            assert (e - k * (r - k)) % (2 * r) == 0


def test_degenerate_specialization_propagates():
    # t2 = t1^2 collides with the hook weight t1^2/t2 of the row diagram (3)
    bad = Specialization(F(4), F(16), (F(5),), seed=77)
    with pytest.raises(DegenerateSpecializationError) as err:
        z_series(SeriesRequest(rank=1, max_n=3, spec=bad))
    assert err.value.seed == 77


def test_limit_closed_form_rank1_is_w_in_q_squared():
    spec = spec23()
    req = SeriesRequest(rank=1, max_n=3, spec=spec, mode=LIMIT)
    closed = z_series_limit_closed(req)
    w = w_series(spec, 3)
    for m in range(4):
        assert closed.coefficient(2 * m) == w.coefficient(m)


def test_limit_closed_form_first_blowup_coefficient():
    spec = sample_specialization(2, 4)
    req = SeriesRequest(rank=2, max_n=1, spec=spec, mode=LIMIT)
    closed = z_series_limit_closed(req)
    expected = 2 * YRat(YPoly.y()) * theta(spec.t1) * theta(spec.t2)
    assert closed.coefficient(4) == expected


def test_limit_mode_equals_closed_form():
    for r in (1, 2, 3):
        spec = sample_specialization(r, 13)
        req = SeriesRequest(rank=r, max_n=2, spec=spec, mode=LIMIT)
        assert z_series(req) == z_series_limit_closed(req)


def test_limit_mode_rank1_equals_equivariant():
    spec = sample_specialization(1, 8)
    a = z_series(SeriesRequest(rank=1, max_n=3, spec=spec))
    b = z_series(SeriesRequest(rank=1, max_n=3, spec=spec, mode=LIMIT))
    assert a == b


def test_closed_form_requires_limit_mode():
    with pytest.raises(ValueError):
        z_series_limit_closed(SeriesRequest(rank=1, max_n=1, spec=spec23()))


def test_plane_series_inverts_without_y_denominators():
    # Z starts at the constant 1, so its inverse stays a series over Q[y]
    z = z_series(SeriesRequest(rank=2, max_n=2, spec=sample_specialization(2, 5)))
    inv = z.invert()
    assert all(type(c) in (YPoly, F) for c in inv.coeffs if c)
    assert any(type(c) is YPoly for c in inv.coeffs)
    assert z * inv == QSeries.one(inv.order)


def test_symbolic_numeric_cross_mode():
    # a numeric report is the symbolic series evaluated once at y0
    spec = sample_specialization(2, 12)
    for kind, build in (("z", z_series), ("zhat", zhat_series)):
        req = SeriesRequest(rank=2, max_n=2, spec=spec, k=1 if kind == "zhat" else 0)
        sym = series_report(kind, req, include_timing=False)
        assert sym["params"]["y_mode"] == "symbolic"
        assert sym["series"] == build(req).to_json()
        for y0 in (F(1), F(2, 3)):
            num = series_report(kind, req, y0, include_timing=False)
            assert num["params"]["y_mode"] == f"numeric:{y0}"
            assert num["series"] == build(req).at_y(y0).to_json()
            assert num["fixed_point_counts"] == sym["fixed_point_counts"]


def test_series_report_schema():
    spec = sample_specialization(1, 5)
    req = SeriesRequest(rank=1, max_n=2, spec=spec)
    rep = series_report("z", req)
    assert rep["schema"] == "series-report/1"
    assert rep["kind"] == "z"
    assert rep["params"]["seed"] == 5
    assert rep["params"]["prng"] == "splitmix64"
    assert rep["fixed_point_counts"] == {"0": 1, "2": 1, "4": 2}
    assert "wall_clock_seconds" in rep
    assert set(rep["series"]) == {"offset", "order", "coeffs"}
    lean = series_report("zhat", req, include_timing=False)
    assert "wall_clock_seconds" not in lean


@pytest.mark.parametrize("kind", ["zhat", "z"])
@pytest.mark.parametrize("r, k, max_n", [(2, 1, 5), (3, 1, 3), (4, 2, 2), (1, 0, 6), (3, 0, 3)])
def test_series_report_counts_fixed_points_without_enumerating(kind, r, k, max_n):
    # fixed_point_counts is counted from colored-partition counts (and, on the
    # blow-up, lattice vectors); neither series enumerates blow-up fixed points
    spec = sample_specialization(r, 6)
    before = enumerate_blowup_fixed_points.cache_info()
    rep = series_report(kind, SeriesRequest(rank=r, max_n=max_n, spec=spec, k=k), F(1))
    assert enumerate_blowup_fixed_points.cache_info() == before
    if kind == "z":
        want = {str(2 * r * n): len(enumerate_tuples(r, n)) for n in range(max_n + 1)}
    else:
        want = {
            str(blowup_virtual_dim(r, k, n)): len(enumerate_blowup_fixed_points(r, k, n))
            for n in range(max_n + 1)
        }
    assert rep["fixed_point_counts"] == want
    assert "threads" not in rep["params"]


# -- differential test against the per-fixed-point sum --------------------------
# zhat_series as it was before the factored sum: theta of the full tangent
# character of every blow-up fixed point, summed degree by degree.

def reference_zhat_series(req, y0=None):
    r, k, limit = req.rank, req.k, req.mode == LIMIT
    terms = {}
    for n in range(req.max_n + 1):
        acc = 0
        for fp in enumerate_blowup_fixed_points(r, k, n):
            acc = acc + reference_theta(tangent_blowup.__wrapped__(fp), req.spec, limit, y0)
        terms[blowup_virtual_dim(r, k, n)] = acc
    return QSeries.from_terms(terms, blowup_virtual_dim(r, k, req.max_n) + 1)


ZHAT_DIFFERENTIAL_RANGE = ((1, 4), (2, 3), (3, 2))  # (r, largest n)


@pytest.mark.parametrize("mode", [EQUIVARIANT, LIMIT])
@pytest.mark.parametrize("y0", [None, F(0), F(1), F(2, 3)])
def test_zhat_series_matches_per_fixed_point_reference(mode, y0):
    for r, max_n in ZHAT_DIFFERENTIAL_RANGE:
        spec = sample_specialization(r, 1729)
        for k in range(r):
            for n in range(max_n + 1):
                req = SeriesRequest(rank=r, max_n=n, spec=spec, k=k, mode=mode)
                got = zhat_series(req)
                got, want = got if y0 is None else got.at_y(y0), reference_zhat_series(req, y0)
                assert got.to_json() == want.to_json()
                assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("seed", [53, 192])
@pytest.mark.parametrize("max_n", [4, 5])
def test_zhat_series_degeneracy_names_the_reference_weight(seed, max_n):
    # both sums evaluate each weight first at the same fixed point
    req = SeriesRequest(rank=2, max_n=max_n, spec=sample_specialization(2, seed), k=1)
    with pytest.raises(DegenerateSpecializationError) as got:
        zhat_series(req)
    with pytest.raises(DegenerateSpecializationError) as want:
        reference_zhat_series(req)
    assert str(got.value) == str(want.value)


def test_zhat_series_degeneracy_inside_an_off_diagonal_z_pair():
    # e1/e2 * t1 * t2^-1 = (15/2)/5 * 2/3 = 1.  Up to n = 2 it is a weight of
    # Z-block pairs (a, b) = (2, 1) with d = k_1 - k_2 = -1 only: no simplex,
    # no Y block and no diagonal pair holds it
    bad = make_weight(1, -1, 1, 2)
    fps = [fp for n in range(3) for fp in enumerate_blowup_fixed_points(2, 1, n)]
    z_blocks = [plane_block(fp.z_tuple, fp.kvec, "z") for fp in fps]
    others = [plane_block(fp.y_tuple, fp.kvec, "y") for fp in fps]
    others += [simplex_block(fp.kvec) for fp in fps]
    assert any(w == bad for c in z_blocks for w, _m in c.sorted_items())
    assert not any(w == bad for c in others for w, _m in c.sorted_items())
    spec = Specialization(F(2), F(3), (F(15, 2), F(5)), seed=11)
    req = SeriesRequest(rank=2, max_n=2, spec=spec, k=1)
    with pytest.raises(DegenerateSpecializationError) as got:
        zhat_series(req)
    with pytest.raises(DegenerateSpecializationError) as want:
        reference_zhat_series(req)
    assert got.value.weight == bad
    assert str(got.value) == str(want.value)
    # the limit evaluates no weight with an e-part, so nothing degenerates
    req = SeriesRequest(rank=2, max_n=2, spec=spec, k=1, mode=LIMIT)
    limit = zhat_series(req)
    for y0 in Y_MODES:
        got = limit if y0 is None else limit.at_y(y0)
        assert got.to_json() == reference_zhat_series(req, y0).to_json()


def test_degenerate_side_names_the_weight_of_the_sorted_block():
    # t2 = -1 and e2/e1 = -1: in the Z block of (empty, (2)) at kvec (0, 1)
    # the pair (1, 2) holds e2/e1 * t2 = 1, met first in pair order, and the
    # diagonal pair (2, 2) holds t2^2 = 1, met first in sorted order
    spec = Specialization(F(2), F(-1), (F(5), F(-5)), seed=5)
    req = SeriesRequest(rank=2, max_n=0, spec=spec, k=1)
    pt, kvec = PartitionTuple((Partition(), Partition((2,)))), LatticeVector((0, 1))
    with pytest.raises(DegenerateSpecializationError) as pairs:
        plane_block_theta(pt, kvec, "z", spec, False, {})
    with pytest.raises(DegenerateSpecializationError) as block:
        theta_eval(plane_block(pt, kvec, "z"), spec)
    assert pairs.value.weight == make_weight(0, 1, 2, 1)
    assert block.value.weight == make_weight(0, 2)
    with pytest.raises(DegenerateSpecializationError) as side:
        _side_sum(req, [pt], kvec, "z", {})
    assert str(side.value) == str(block.value)


def test_zhat_series_builds_no_plane_block(monkeypatch):
    # a nondegenerate series takes every Y and Z block from pair factors;
    # plane_block only names the weight of a degenerate one
    import blowup_genera.characters as characters
    import blowup_genera.genera as genera

    def refuse(*_args):
        raise AssertionError("plane_block built on the pair-factor path")

    monkeypatch.setattr(genera, "plane_block", refuse)
    monkeypatch.setattr(characters, "plane_block", refuse)
    spec = sample_specialization(2, 6)
    for mode in (EQUIVARIANT, LIMIT):
        zhat_series(SeriesRequest(rank=2, max_n=3, spec=spec, k=1, mode=mode))


def _no_pairs(*_args):
    return iter(())


def _trivial_pairs(y_a, y_b):
    # as many pairs as the hook formula, all (0, 0): trivial on the diagonal slots
    return iter([(0, 0)] * (y_a.size + y_b.size))


def _zhat_series():
    return zhat_series(SeriesRequest(rank=2, max_n=1, spec=sample_specialization(2, 4), k=1))


def _w_series():
    return w_series(sample_specialization(1, 4), 2)


def _hook_character():
    return hook_character(Partition((2, 1)))


def _tangent_p2():
    # uncached, so the broken character stays out of the cache
    return tangent_p2.__wrapped__(PartitionTuple((Partition((1,)), Partition())))


BUILDER_CASES = [
    (_zhat_series, "simplex_exponents", _no_pairs, RankCheckError),
    (_zhat_series, "hook_exponents", _no_pairs, RankCheckError),
    (_zhat_series, "hook_exponents", _trivial_pairs, TrivialWeightError),
    (_w_series, "hook_exponents", _no_pairs, RankCheckError),
    (_hook_character, "hook_exponents", _no_pairs, RankCheckError),
    (_hook_character, "hook_exponents", _trivial_pairs, TrivialWeightError),
    (_tangent_p2, "hook_exponents", _no_pairs, RankCheckError),
    (_tangent_p2, "hook_exponents", _trivial_pairs, TrivialWeightError),
]


@pytest.fixture
def patch_characters(monkeypatch):
    """Patch one name in characters, with its hook caches cleared before and after.

    pair_exponents and hook_character cache hook exponents and characters
    for the whole process: a warm entry would skip a patched hook_exponents,
    and an entry made from a patched one (an off-diagonal pair of
    _trivial_pairs passes its checks) would outlive the test.
    """
    import blowup_genera.characters as characters

    def clear():
        characters.pair_exponents.cache_clear()
        characters.hook_character.cache_clear()

    def patch(attr, replacement):
        monkeypatch.setattr(characters, attr, replacement)
        clear()

    yield patch
    clear()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("entry, attr, replacement, error", BUILDER_CASES)
def test_each_builder_checks_its_block(patch_characters, entry, attr, replacement, error, warm):
    # every character built from hooks comes from characters.hook_exponents
    # and passes the one rank-and-isolation check, also after a run that
    # cached the builder's pairs unpatched
    if warm:
        entry()
    patch_characters(attr, replacement)
    with pytest.raises(error):
        entry()


def test_pair_exponents_checks_an_entry_when_it_is_made(patch_characters):
    p = Partition((2, 1))
    patch_characters("hook_exponents", _no_pairs)
    with pytest.raises(RankCheckError):
        pair_exponents(p, Partition(), 1, "t1/t2")
    patch_characters("hook_exponents", _trivial_pairs)
    with pytest.raises(TrivialWeightError):
        pair_exponents(p, p, 0, "t2/t1")
    # off the diagonal (d != 0) these exponents carry an e-part, so they pass;
    # the twist t1^d comes before the chart map (i1, i2) -> (i1 - i2, i2)
    assert pair_exponents(p, p, 1, "t2/t1") == ((1, 0),) * 6


def test_zhat_series_builds_no_full_tangent_character():
    before = tangent_blowup.cache_info()
    zhat_series(SeriesRequest(rank=2, max_n=3, spec=sample_specialization(2, 6), k=1))
    assert tangent_blowup.cache_info() == before


# -- differential test of the cleared kernel against plain theta sums ---------
# The series code sums theta of tangent blocks as cleared pairs: per weight
# the Y- and Z-block sums A(i) and B(j), then theta(simplex) times the
# convolution sum_{i+j=w} A(i) * B(j).  The reference is the same formula
# over the YPoly / Fraction values of reference_theta, summed with +.

Y_MODES = (None, F(0), F(1), F(2, 3))

positive_characters = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3))),
        st.integers(1, 3),
    ),
    max_size=6,
).map(
    lambda items: Character(
        (make_weight(i1, i2, *(e or (None, None))), m) for i1, i2, e, m in items
    )
).filter(lambda c: not c.contains_trivial())
block_sums = st.lists(st.lists(positive_characters, max_size=3), min_size=1, max_size=3)


def _zero(y0):
    return YPoly() if y0 is None else F(0)


def accumulate(req, chars):
    return theta_sum(chars, req.spec, req.mode == LIMIT)


def cleared_share(req, y0, simplex, a_blocks, b_blocks):
    s = accumulate(req, [simplex])
    a = [accumulate(req, chars) for chars in a_blocks]
    b = [accumulate(req, chars) for chars in b_blocks]
    return at(cleared_value(cleared_product(s, cleared_convolution(a, b))), y0)


def plain_share(req, y0, simplex, a_blocks, b_blocks):
    def theta(c):
        return reference_theta(c, req.spec, req.mode == LIMIT, y0)

    zero = _zero(y0)
    s = theta(simplex)
    a = [sum((theta(c) for c in chars), zero) for chars in a_blocks]
    b = [sum((theta(c) for c in chars), zero) for chars in b_blocks]
    return s * sum((x * y for x, y in zip(a, reversed(b))), zero)


def share_outcome(share, *args):
    try:
        return share(*args)
    except DegenerateSpecializationError as exc:
        return str(exc)


def assert_same_coefficient(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):  # both named the same degenerate weight
        assert got == want
    else:
        assert coeff_to_str(got) == coeff_to_str(want)


@settings(max_examples=150, deadline=None)
@given(
    positive_characters,
    block_sums,
    block_sums,
    st.integers(0, 2**16),
    st.sampled_from(Y_MODES),
    st.sampled_from([EQUIVARIANT, LIMIT]),
)
def test_cleared_kernel_matches_plain_theta_sums(simplex, a_blocks, b_blocks, seed, y0, mode):
    n = min(len(a_blocks), len(b_blocks))
    req = SeriesRequest(rank=3, max_n=0, spec=sample_specialization(3, seed), mode=mode)
    args = (req, y0, simplex, a_blocks[:n], b_blocks[:n])
    assert_same_coefficient(share_outcome(cleared_share, *args), share_outcome(plain_share, *args))


def test_cleared_kernel_on_an_empty_sum_and_a_cancelling_sum():
    # at y = 0, theta(2) = 2 and theta(2/3) = -2: t1 and t2 cancel
    cancelling = [Character([(make_weight(1, 0), 1)]), Character([(make_weight(0, 1), 1)])]
    simplex = Character([(make_weight(1, 1), 1)])
    spec = Specialization(F(2), F(2, 3), (F(5), F(7)), seed=0)
    for mode in (EQUIVARIANT, LIMIT):
        req = SeriesRequest(rank=2, max_n=0, spec=spec, mode=mode)
        for y0 in Y_MODES:
            for blocks in ([[]], [[], cancelling], [cancelling, cancelling]):
                args = (req, y0, simplex, blocks, blocks)
                assert_same_coefficient(cleared_share(*args), plain_share(*args))
            empty = at(cleared_value(accumulate(req, [])), y0)
            assert_same_coefficient(empty, _zero(y0))
            if y0 == 0:
                total = at(cleared_value(accumulate(req, cancelling)), y0)
                assert_same_coefficient(total, F(0))


def test_cleared_kernel_names_the_same_degenerate_weight():
    # t1^2 * t2^-1 = 4/4 in the second Y block, after the simplex and the first blocks
    spec = Specialization(F(2), F(4), (F(5), F(7), F(11)), seed=3)
    ok, bad = Character([(make_weight(1, 0), 1)]), Character([(make_weight(2, -1), 1)])
    for mode in (EQUIVARIANT, LIMIT):
        req = SeriesRequest(rank=3, max_n=0, spec=spec, mode=mode)
        args = (req, None, ok, [[ok], [ok, bad]], [[ok], [ok]])
        got = share_outcome(cleared_share, *args)
        assert "t1^2 * t2^-1 evaluates to 1" in got
        assert_same_coefficient(got, share_outcome(plain_share, *args))
