"""Generating series assembly: gradings, modes, closed form, reports."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from test_characters import at, printed, reference_theta

from blowup_genera import characters, genera
from blowup_genera.characters import (
    BLOWUP_SIDES,
    Character,
    DegenerateSpecializationError,
    RankCheckError,
    TrivialWeightError,
    hook_character,
    make_weight,
    pair_exponents,
    plane_block,
    side_sum_theta,
    simplex_block,
    tangent_blowup,
    tangent_p2,
    theta_eval,
    theta_limit_factor,
    theta_sum,
)
from blowup_genera.coefficients import (
    Specialization,
    YPoly,
    YRat,
    cleared_convolution,
    cleared_product,
    cleared_sum,
    cleared_value,
    sample_specialization,
)
from blowup_genera.genera import (
    EQUIVARIANT,
    LIMIT,
    SeriesRequest,
    series_report,
    z_series,
    z_series_limit_closed,
    zhat_series,
)
from blowup_genera.partitions import (
    LatticeVector,
    Partition,
    PartitionTuple,
    blowup_max_n,
    blowup_virtual_dim,
    enumerate_blowup_fixed_points,
    enumerate_lattice_vectors,
    enumerate_partitions,
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
    assert z.coefficient(0) == 1 and any(c.degree > 0 for c in inv.coeffs)
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
    # limit builds at one spec share their side sums across k and n; r = 4 too
    shapes = ZHAT_DIFFERENTIAL_RANGE + (((4, 1),) if mode == LIMIT else ())
    for r, max_n in shapes:
        spec = sample_specialization(r, 1729)
        for k in range(r):
            for n in range(max_n + 1):
                req = SeriesRequest(rank=r, max_n=n, spec=spec, k=k, mode=mode)
                got = zhat_series(req)
                got, want = got if y0 is None else got.at_y(y0), reference_zhat_series(req, y0)
                assert got.to_json() == want.to_json()


def _degenerate_spec(rank, values):
    """The sampled specialization of a seed, or one built from small values (t1, t2, e...)."""
    if isinstance(values, int):
        return sample_specialization(rank, values)
    t1, t2, *e = (F(v) for v in values)
    return Specialization(t1, t2, tuple(e), seed=0)


@pytest.mark.parametrize(
    "rank, k, max_n, mode, values",
    [(2, 1, max_n, EQUIVARIANT, seed) for seed in (53, 192) for max_n in (4, 5)]
    + [
        (3, 0, 1, EQUIVARIANT, (-1, 2, -2, 4, 3)),  # e1/e2 * t1 * t2
        (3, 2, 2, EQUIVARIANT, (F(1, 2), -1, F(-1, 2), -2, 4)),  # e3/e2 * t1 * t2
        (3, 0, 2, LIMIT, (-1, -2, 3, -3, 2)),  # t1^2
        (3, 1, 2, LIMIT, (F(-1, 2), F(1, 4), -1, 4, -2)),  # t1^2 * t2^-1
        (2, 0, 2, LIMIT, (F(1, 4), F(1, 2), 3, 2)),  # t1 * t2^-2
        (2, 1, 2, LIMIT, (2, -2, 3, 4)),  # t1^-2 * t2^2
    ],
)
def test_zhat_series_degeneracy_names_the_reference_weight(rank, k, max_n, mode, values):
    # both sums evaluate each weight first at the same fixed point
    spec = _degenerate_spec(rank, values)
    req = SeriesRequest(rank=rank, max_n=max_n, spec=spec, k=k, mode=mode)
    with pytest.raises(DegenerateSpecializationError) as got:
        zhat_series(req)
    with pytest.raises(DegenerateSpecializationError) as want:
        reference_zhat_series(req)
    assert got.value.weight == want.value.weight
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


@pytest.mark.parametrize("rank, k, max_n", [(2, 1, 3), (3, 1, 2)])
def test_limit_degeneracy_on_the_z_side_past_weight_zero(rank, k, max_n):
    # t2 = -1: the diagonal weight t2^2 of the Z block of a one-row diagram
    # of size 2 is 1, while every Y weight and every Z weight of smaller
    # size differs from 1 at t1 = 2
    spec = Specialization(F(2), F(-1), tuple(F(v) for v in (3, 5, 7)[:rank]), seed=3)
    exp = blowup_virtual_dim(rank, k, 2)
    live = [v for v in enumerate_lattice_vectors(rank, k, exp) if v.pair_form <= exp]
    assert len(live) >= 2  # weight 2 is first reached among other vectors
    for w in range(3):
        for t in enumerate_tuples(rank, w):
            theta_limit_factor(plane_block(t, live[0], "y"), spec)
            if w < 2:
                theta_limit_factor(plane_block(t, live[0], "z"), spec)
    req = SeriesRequest(rank=rank, max_n=max_n, spec=spec, k=k, mode=LIMIT)
    with pytest.raises(DegenerateSpecializationError) as want:
        reference_zhat_series(req)
    for _ in range(2):  # nothing of weight 2 is stored, so it raises again
        with pytest.raises(DegenerateSpecializationError) as got:
            zhat_series(req)
        assert got.value.weight == want.value.weight == make_weight(0, 2)
        assert str(got.value) == str(want.value)
        memo = spec.pair_memo
        assert ("conv", 1) in memo and ("conv", 2) not in memo
        # the one-slot Z sum met the diagonal weight, and the Z blocks then named it
        assert got.value.__context__.weight == make_weight(0, 2)


def test_limit_side_sums_are_made_once_per_specialization(monkeypatch):
    calls = []
    real_side = genera.side_sum_theta

    def counted_side(w, kvec, side, spec):
        calls.append((side, w, kvec.rank))
        return real_side(w, kvec, side, spec)

    def refuse(*_args):
        raise AssertionError("blocks checked one by one on a nondegenerate build")

    monkeypatch.setattr(genera, "side_sum_theta", counted_side)
    monkeypatch.setattr(genera, "check_side_blocks", refuse)
    monkeypatch.setattr(characters, "check_side_blocks", refuse)
    r, max_n = 3, 3
    # every k at one specialization: the convolution of each weight <= max_n
    # once, made from the one-slot sums of weights up to it, Y before Z
    spec = sample_specialization(r, 101)
    for k in range(r):
        zhat_series(SeriesRequest(rank=r, max_n=max_n, spec=spec, k=k, mode=LIMIT))
    assert calls == [
        (side, s, 1) for w in range(max_n + 1) for side in ("y", "z") for s in range(w + 1)
    ]
    assert {key for key in spec.pair_memo if key[0] == "conv"} == {
        ("conv", w) for w in range(max_n + 1)
    }
    # an equivariant build makes both side sums of every live vector at every weight
    calls.clear()
    k, max_n = 1, 2
    top = blowup_virtual_dim(r, k, max_n)
    zhat_series(SeriesRequest(rank=r, max_n=max_n, spec=spec, k=k))
    reached = [(top - v.pair_form) // (2 * r) for v in enumerate_lattice_vectors(r, k, top)]
    assert sorted(calls) == sorted(
        (side, w, r) for top_w in reached for w in range(top_w + 1) for side in ("y", "z")
    )


def test_diagonal_pair_factors_are_made_once_per_diagram_and_side(monkeypatch):
    # a diagonal factor has no e-part, so the slots share it
    diagonal = []
    real = characters._pair_triples

    def recorded(exps, a, b, spec):
        if a == b:
            diagonal.append(exps)
        return real(exps, a, b, spec)

    monkeypatch.setattr(characters, "_pair_triples", recorded)
    r, k, max_n = 3, 1, 3
    spec = sample_specialization(r, 101)
    zhat_series(SeriesRequest(rank=r, max_n=max_n, spec=spec, k=k))
    met = [(p, side) for w in range(1, max_n + 1) for p in enumerate_partitions(w)
           for side in ("y", "z")]
    assert sorted(diagonal) == sorted(
        pair_exponents(p, p, 0, BLOWUP_SIDES[side]) for p, side in met
    )
    assert {key for key in spec.pair_memo if len(key) == 2} == set(met)


def test_limit_build_stores_only_diagonal_factors(monkeypatch):
    # no off-diagonal factor is made in limit mode, so no product is taken
    # with the unit that such a factor of slots a < b tends to
    products = []
    real = characters.cleared_product

    def recorded(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(characters, "cleared_product", recorded)
    spec = sample_specialization(3, 101)
    zhat_series(SeriesRequest(rank=3, max_n=3, spec=spec, k=1, mode=LIMIT))
    factors = [key for key in spec.pair_memo if key[0] != "conv"]
    assert factors and all(len(key) == 2 and isinstance(key[0], Partition) for key in factors)
    assert not products


def test_pair_memo_keeps_diagonal_factors_slot_pair_products_and_convolutions():
    # the memo holds what the builds read back, one entry per product
    r = 3
    spec = sample_specialization(r, 101)
    for mode in (EQUIVARIANT, LIMIT):
        zhat_series(SeriesRequest(rank=r, max_n=3, spec=spec, k=1, mode=mode))
    kinds = set()
    for key in spec.pair_memo:
        if key[0] == "conv":
            assert len(key) == 2 and isinstance(key[1], int)
            kinds.add("conv")
        elif len(key) == 2:
            assert isinstance(key[0], Partition) and key[1] in BLOWUP_SIDES
            kinds.add("diagonal")
        else:
            p_a, p_b, a, b, d, side = key
            assert isinstance(p_a, Partition) and isinstance(p_b, Partition)
            assert 1 <= a < b <= r and isinstance(d, int) and side in BLOWUP_SIDES
            kinds.add("slot pair")
    assert kinds == {"conv", "diagonal", "slot pair"}
    # a slot-pair product is the product of theta of its two pairing blocks,
    # integer for integer, whether the builds stored it or it is made here
    diagrams = [p for n in range(4) for p in enumerate_partitions(n)]
    slot_pairs = [(a, b) for a in range(1, r + 1) for b in range(a + 1, r + 1)]
    for side, chart in BLOWUP_SIDES.items():
        for p_a, p_b, d, (a, b) in product(diagrams, diagrams, range(-2, 3), slot_pairs):
            blocks = [
                Character((make_weight(i1, i2, num, den), 1) for i1, i2 in pair_exponents(*pair))
                for pair, num, den in (((p_a, p_b, d, chart), b, a), ((p_b, p_a, -d, chart), a, b))
            ]
            try:
                want = cleared_product(*(theta_eval(c, spec) for c in blocks))
            except DegenerateSpecializationError:
                with pytest.raises(DegenerateSpecializationError):
                    characters._pair_factor(spec.pair_memo, p_a, p_b, a, b, d, side, spec)
                continue
            got = characters._pair_factor(spec.pair_memo, p_a, p_b, a, b, d, side, spec)
            assert got == want, (p_a, p_b, a, b, d, side)


# -- differential tests of the side sums ------------------------------------------
# The side sum as theta of every block, summed tuple by tuple in enumeration
# order: the nested equivariant sum, and the limit convolution of the
# one-slot sums, must give its value, or name its degenerate weight.

def reference_side_sum(w, kvec, side, spec, limit):
    theta = theta_limit_factor if limit else theta_eval
    tuples = enumerate_tuples(kvec.rank, w)
    return cleared_sum(theta(plane_block(t, kvec, side), spec) for t in tuples)


def reference_convolution(w, kvec, spec):
    """sum_{i+j=w} A(i) * B(j) of the per-block limit side sums, Y before Z.

    A build reaches weight w only after every smaller weight returned, so
    the blocks of weight w are the first that can degenerate: on each side
    they are checked first.
    """
    sums = []
    for side in ("y", "z"):
        top = reference_side_sum(w, kvec, side, spec, True)
        sums.append([reference_side_sum(i, kvec, side, spec, True) for i in range(w)] + [top])
    return cleared_convolution(*sums)


def limit_convolution(w, kvec, spec):
    req = SeriesRequest(rank=kvec.rank, max_n=w, spec=spec, mode=LIMIT)
    return genera._limit_convolution(req, w)


def outcome(build, *args):
    """The value of a sum, or the weight and message of its degenerate weight."""
    try:
        return cleared_value(build(*args))
    except DegenerateSpecializationError as exc:
        return exc.weight, str(exc)


def assert_side_sums_agree(r, k, max_n, mode, spec_of):
    """Engine and per-block sums of each live vector of (r, k, max_n), on fresh specs.

    Equivariant mode compares each nested side sum, limit mode the
    convolution of each weight.
    """
    top = blowup_virtual_dim(r, k, max_n)
    outcomes = []
    for kvec in enumerate_lattice_vectors(r, k, top):
        for w in range((top - kvec.pair_form) // (2 * r) + 1):
            if mode == LIMIT:
                got = outcome(limit_convolution, w, kvec, spec_of())
                want = outcome(reference_convolution, w, kvec, spec_of())
                assert got == want, (kvec, w)
                outcomes.append(got)
                continue
            for side in ("y", "z"):
                got = outcome(side_sum_theta, w, kvec, side, spec_of())
                want = outcome(reference_side_sum, w, kvec, side, spec_of(), False)
                assert got == want, (kvec, w, side)
                outcomes.append(got)
    return outcomes


def grid_shapes():
    """(r, k, max_n, mode) of every blow-up series that verify_all builds."""
    from blowup_genera.verify import default_order

    shapes = set()
    for r in (1, 2, 3):
        for k in range(r):
            lim_order = blowup_virtual_dim(r, k, min(2, 8 // r))
            shapes.add((r, k, blowup_max_n(r, k, default_order(r, k)), EQUIVARIANT))
            for mode in (EQUIVARIANT, LIMIT):
                shapes.add((r, k, blowup_max_n(r, k, lim_order), mode))
    return sorted(shapes)


@pytest.mark.parametrize("r, k, max_n, mode", grid_shapes())
def test_nested_side_sums_equal_the_per_block_sums_on_the_grid(r, k, max_n, mode):
    assert_side_sums_agree(r, k, max_n, mode, lambda: sample_specialization(r, 101))


@pytest.mark.parametrize("mode", [EQUIVARIANT, LIMIT])
@pytest.mark.parametrize("r, k, max_n", [(4, 0, 2), (4, 2, 3), (5, 2, 2), (6, 3, 1), (6, 0, 2)])
def test_nested_side_sums_equal_the_per_block_sums_at_higher_rank(r, k, max_n, mode):
    assert_side_sums_agree(r, k, max_n, mode, lambda: sample_specialization(r, 7))


@pytest.mark.parametrize(
    "rank, k, max_n, mode, values",
    [(2, 1, 4, EQUIVARIANT, seed) for seed in (53, 192)]
    + [
        (3, 2, 2, EQUIVARIANT, (F(1, 2), -1, F(-1, 2), -2, 4)),
        (2, 1, 2, EQUIVARIANT, (2, 3, F(15, 2), 5)),
        (2, 1, 3, EQUIVARIANT, (2, -1, 5, -5)),
        (3, 0, 2, LIMIT, (-1, -2, 3, -3, 2)),
        (3, 1, 2, LIMIT, (F(-1, 2), F(1, 4), -1, 4, -2)),
        (2, 1, 3, LIMIT, (2, -1, 3, 5)),
        (2, 1, 3, LIMIT, 6989),
        (3, 1, 2, LIMIT, 6989),
        # a diagram of size 2 holds t1^-2 * t2^2, but the first degenerate
        # block of size 4 names t1^-4 * t2^4
        (2, 1, 4, LIMIT, (-2, 2, 5, 7)),
    ],
)
def test_nested_side_sums_name_the_per_block_weight_when_degenerate(rank, k, max_n, mode, values):
    outcomes = assert_side_sums_agree(rank, k, max_n, mode, lambda: _degenerate_spec(rank, values))
    assert any(isinstance(got, tuple) for got in outcomes)


def test_nested_side_sums_take_no_product_with_the_unit_factor(monkeypatch):
    # two empty diagrams give the pair factor ([1], 1); an equivariant factor
    # of any other pair has at least one linear factor in y
    products = []
    real = characters.cleared_product

    def recorded(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(characters, "cleared_product", recorded)
    spec = sample_specialization(3, 101)
    zhat_series(SeriesRequest(rank=3, max_n=2, spec=spec, k=1))
    assert products
    assert not any(([1], 1) in pair for pair in products)


def test_degenerate_side_names_the_weight_of_the_first_block():
    # t2 = -2 and e2/e1 = -2: the nested sum first meets e2/e1 * t2^-1 = 1, in
    # a pair factor of the tuple (empty, (1)), while the first tuple in
    # enumeration order, ((1), empty), holds e1/e2 * t2 = 1
    spec = Specialization(F(2), F(-2), (F(1, 2), F(-1)), seed=5)
    kvec = LatticeVector((1, 0))
    first = PartitionTuple((Partition((1,)), Partition()))
    with pytest.raises(DegenerateSpecializationError) as nested:
        side_sum_theta(1, kvec, "z", spec)
    with pytest.raises(DegenerateSpecializationError) as block:
        theta_eval(plane_block(first, kvec, "z"), spec)
    assert nested.value.__context__.weight == make_weight(0, -1, 2, 1)
    assert nested.value.weight == block.value.weight == make_weight(0, 1, 1, 2)
    assert str(nested.value) == str(block.value)


def test_zhat_series_builds_no_plane_block(monkeypatch):
    # a series takes every Y and Z block from pair factors, and a degenerate
    # one is named from the sorted weights, so no plane_block is built
    def refuse(*_args):
        raise AssertionError("plane_block built on the pair-factor path")

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
    """Patch one name in characters, with the pair_exponents cache cleared before and after.

    pair_exponents caches hook exponents for the whole process: a warm
    entry would skip a patched hook_exponents, and an entry made from a
    patched one (an off-diagonal pair of _trivial_pairs passes its checks)
    would outlive the test.
    """
    def patch(attr, replacement):
        monkeypatch.setattr(characters, attr, replacement)
        characters.pair_exponents.cache_clear()

    yield patch
    characters.pair_exponents.cache_clear()


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
        assert printed(got) == printed(want)


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
