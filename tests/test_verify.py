"""Verification drivers: pass/fail behaviour, determinism, negative controls."""

import errno
import functools
import gc
import hashlib
import itertools
import json
import os
import time
from fractions import Fraction as F

import pytest

from blowup_genera import genera, rank1, verify
from blowup_genera.characters import Character, make_weight, tangent_p2
from blowup_genera.coefficients import Specialization, YPoly, sample_specialization
from blowup_genera.qseries import QSeries
from blowup_genera.verify import (
    MAX_RESEEDS,
    ReseedLimitError,
    SeriesMemo,
    VerificationReport,
    _build_with_reseed,
    default_order,
    default_seeds,
    verify_all,
    verify_corollary,
    verify_limit_consistency,
    verify_main_theorem,
    verify_rank1_identity,
)
from blowup_genera.characters import DegenerateSpecializationError
from blowup_genera.genera import EQUIVARIANT, LIMIT, SeriesRequest
from blowup_genera.partitions import blowup_max_n, blowup_virtual_dim


SEEDS = default_seeds(2)


def test_default_sizing():
    assert default_order(1) == 16
    assert default_order(2, 1) == 17
    assert default_order(3, 2) == 14
    assert default_seeds(3) == (1729, 1730, 1731)


def high_rank_cases(shapes):
    # every k of rank r up to n <= max_n, at seed 101
    return [
        (r, k, blowup_virtual_dim(r, k, max_n), (101,)) for r, max_n in shapes for k in range(r)
    ]


@pytest.mark.parametrize(
    "r, k, order, seeds",
    [(1, 0, 8, SEEDS), (2, 0, 8, SEEDS), (2, 1, 9, SEEDS)]
    + high_rank_cases([(4, 3), (5, 2), (6, 2)]),
)
def test_main_theorem_small_ranks(r, k, order, seeds):
    assert verify_main_theorem(r, k, order, seeds).outcome


def test_main_theorem_records_sign_conventions():
    before = dict(verify.CONVENTIONS)
    rep = verify_main_theorem(2, 1, 9, SEEDS)
    assert rep.conventions["lattice_y_sign_match"] == {"plus": True, "minus": True}
    # the report writes into its own copy of the conventions
    assert verify.CONVENTIONS == before and "lattice_y_sign_match" not in verify.CONVENTIONS


def test_main_theorem_quotient_base_coefficient():
    # both series start at 1 for k = 0, so the quotient starts at 1; covered
    # by the yk match, spot-check the trivial case explicitly
    rep = verify_main_theorem(2, 0, 4, default_seeds(1))
    assert rep.outcome


@pytest.mark.parametrize(
    "r, k, order, seeds",
    [(2, 0, 8, SEEDS), (2, 1, 9, SEEDS)] + high_rank_cases([(4, 2), (5, 1)]),
)
def test_corollary_small(r, k, order, seeds):
    rep = verify_corollary(r, k, order, seeds)
    assert rep.outcome
    # yk_main at y = 0 is q^(k(r-k)), the stated table value 0
    discrepant = any("documented discrepancy" in line for line in rep.details)
    assert discrepant == (k > 0)


@pytest.mark.parametrize(
    "r, k, order, seeds",
    [(1, 0, 6, SEEDS), (2, 1, 7, SEEDS)] + high_rank_cases([(4, 2), (5, 1)]),
)
def test_limit_consistency_small(r, k, order, seeds):
    assert verify_limit_consistency(r, k, order, seeds).outcome


def test_limit_pair_returns_where_the_equivariant_pair_returned():
    # seeds 53 and 192 reseed at r = 2, k = 1, n <= 3 on weights with an
    # e-part, which limit mode sends to its case table and never evaluates
    order = blowup_virtual_dim(2, 1, 3)
    memo = SeriesMemo()
    for seed, weight in ((53, "e2/e1 * t1^2 * t2^2"), (192, "e1/e2 * t1^-1")):
        retries = []
        *_, used = verify._series_pair(2, 1, order, seed, EQUIVARIANT, retries, memo)
        assert used == seed + 1 and len(retries) == 1 and weight in retries[0]
        *_, used_lim = verify._series_pair(2, 1, order, used, LIMIT, retries, memo)
        assert used_lim == used and len(retries) == 1
        # the limit pair returns even at the seed that degenerated above
        assert verify._series_pair(2, 1, order, seed, LIMIT, retries, memo)[2] == seed
        assert len(retries) == 1
    report = verify_limit_consistency(2, 1, order, (53, 192))
    assert report.outcome and report.details == []
    assert [line.split(" degenerate")[0] for line in report.params["reseeds"]] == [
        "seed 53", "seed 192"]


def test_rank1_identity_driver():
    assert verify_rank1_identity(5, default_seeds(2)).outcome


def test_reports_byte_identical_across_runs():
    a = verify_main_theorem(2, 1, 7, SEEDS).to_json_str()
    b = verify_main_theorem(2, 1, 7, SEEDS).to_json_str()
    assert a == b
    # timing is available but kept out of the canonical payload
    assert "timing" not in a
    payload = json.loads(a)
    assert payload["schema"] == "verification-report/1"
    assert payload["outcome"] == "pass"


def shift_first_weight(char):
    """char with the t1-exponent of its first weight raised by one."""
    w, _m = char.sorted_items()[0]
    shifted = make_weight(w.i1 + 1, w.i2, w.num, w.den)
    return Character(char.sorted_items() + [(w, -1), (shifted, 1)])


def test_negative_control_single_weight_perturbation(monkeypatch):
    # shifting one weight of one plane tangent character must flip the check
    state = {"done": False}

    def perturbed(fp):
        char = tangent_p2(fp)
        if not state["done"] and char.rank > 0:
            state["done"] = True
            return shift_first_weight(char)
        return char

    monkeypatch.setattr(genera, "tangent_p2", perturbed)
    rep = verify_main_theorem(1, 0, 6, default_seeds(1))
    assert state["done"]
    assert not rep.outcome
    assert rep.details


FAILING_DRIVERS = {
    "main-equivariant": verify_main_theorem,
    "main-limit": functools.partial(verify_main_theorem, mode=LIMIT),
    "limit": verify_limit_consistency,
    "corollary": verify_corollary,
}

# sha256 of the sorted JSON of failing reports, which pin every failing
# branch of the main theorem, the limit check and the corollary
FAILING_DIGESTS = {
    ((2, 1, 9, (101, 102)), "main-equivariant"):
        "0730196ace167f89884dbbd06c5b05308ebf719ce26a6307630ca8eeb74c12d3",
    ((2, 1, 9, (101, 102)), "main-limit"):
        "3c13f8c466fd692e736dd7db0c929a9cb3a51ef23dca70ed43fffcab24545c23",
    ((2, 1, 9, (101, 102)), "limit"):
        "38bcf090d56c3d9992dcd13b0fb432e9bcee6faa1c696dbfa77a1c90dcd285a4",
    ((2, 1, 9, (101, 102)), "corollary"):
        "816fb3ed81d78a979646e072a23b70a5589e1cce68b6b97526b14455bcad1cd6",
    ((1, 0, 8, (5,)), "main-equivariant"):
        "c8bee304c3480491c36edc6172c8dbcdaf4f39358937ba4573649eaa5d38bd92",
    ((1, 0, 8, (5,)), "main-limit"):
        "cb9ef85e842cf7c695a5cabd369ccdf9f062cc6ebc96d4f8c553fdbf3a0b1665",
    ((1, 0, 8, (5,)), "limit"):
        "660f02083b5e60e148f90114e649c20bdcc5218d6cf6171176d0282f2a3bef57",
    ((1, 0, 8, (5,)), "corollary"):
        "b4bd0043ea8864c01469fe864d622c3972052fc3b3b685479a495c9a9de73acd",
}


def report_digest(rep):
    return hashlib.sha256(rep.to_json_str().encode()).hexdigest()


@pytest.mark.parametrize(
    "case, driver", list(FAILING_DIGESTS), ids=lambda v: str(v).replace(" ", "")
)
def test_failing_reports_are_unchanged(case, driver, monkeypatch):
    # one weight of every plane tangent character of size 2 is shifted,
    # the same shift at every call, so Z is wrong from q^(4r) on
    def perturbed(fp):
        char = tangent_p2(fp)
        return shift_first_weight(char) if fp.total_size == 2 else char

    monkeypatch.setattr(genera, "tangent_p2", perturbed)
    r, k, order, seeds = case
    rep = FAILING_DRIVERS[driver](r, k, order, seeds)
    assert not rep.outcome
    assert report_digest(rep) == FAILING_DIGESTS[case, driver]


def test_a_main_theorem_where_only_the_minus_sign_fails_passes(monkeypatch):
    # seed 192 reseeds at rank 3
    yk_main = verify.yk_main

    def off_by_y_q_order(r, k, order, y_sign=+1):
        factor = yk_main(r, k, order, y_sign)
        if y_sign == -1:
            return factor + QSeries.monomial(YPoly.y(), order, order + 1)
        return factor

    monkeypatch.setattr(verify, "yk_main", off_by_y_q_order)
    rep = verify_main_theorem(3, 2, 8, (53, 192))
    assert rep.outcome and len(rep.params["reseeds"]) == 1
    assert rep.conventions["lattice_y_sign_match"] == {"plus": True, "minus": False}
    assert rep.details == [
        f"seed {seed}: quotient disagrees with the - sign variant" for seed in (53, 193)]
    assert report_digest(rep) == (
        "337abc4a458cd665cb5fed0aab237963065fb499a7a80a9148894ad92b1708a2")


def test_reseed_on_degenerate_collision():
    calls = []

    def build(spec):
        calls.append(spec.seed)
        if len(calls) < 3:
            raise DegenerateSpecializationError(make_weight(1, 0), spec.seed)
        return "ok"

    retries = []
    result, used = _build_with_reseed(build, 1, 100, retries, SeriesMemo())
    assert result == "ok"
    assert used == 102
    assert calls == [100, 101, 102]
    assert len(retries) == 2 and "resampling" in retries[0]


def test_reseed_limit_raises_a_typed_error(monkeypatch):
    calls = []

    def build(spec):
        calls.append(spec.seed)
        raise DegenerateSpecializationError(make_weight(1, 0), spec.seed)

    retries = []
    message = "^no nondegenerate specialization found near seed 100$"
    with pytest.raises(ReseedLimitError, match=message) as raised:
        _build_with_reseed(build, 1, 100, retries, SeriesMemo())
    assert MAX_RESEEDS == 64 and issubclass(ReseedLimitError, RuntimeError)
    assert calls == list(range(100, 100 + MAX_RESEEDS))
    assert len(retries) == MAX_RESEEDS
    # raised from the last degenerate draw, which names its weight and seed
    cause = raised.value.__cause__
    assert isinstance(cause, DegenerateSpecializationError)
    assert str(cause).endswith(f"specialization seed {100 + MAX_RESEEDS - 1}")

    # a limit of 0 draws nothing and raises with no cause
    monkeypatch.setattr(verify, "MAX_RESEEDS", 0)
    calls.clear()
    with pytest.raises(ReseedLimitError, match=message) as raised:
        _build_with_reseed(build, 1, 100, [], SeriesMemo())
    assert calls == [] and raised.value.__cause__ is None


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_main_theorem(2, 1, seeds=()),
        lambda: verify_corollary(2, 1, seeds=()),
        lambda: verify_limit_consistency(2, 1, seeds=()),
        lambda: verify_rank1_identity(4, ()),
        lambda: verify_all(()),
    ],
)
def test_empty_seed_list_is_refused(run):
    # a run at no seed checks nothing, so it may not report a pass
    with pytest.raises(ValueError, match="at least one seed"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_main_theorem(2, 1, order=0, seeds=(1,)),
        lambda: verify_corollary(3, 2, order=1, seeds=(1,)),
        lambda: verify_limit_consistency(2, 1, order=0, seeds=(1,)),
    ],
)
def test_order_below_the_first_blowup_degree_is_refused(run):
    # below k(r-k) both sides of the blow-up identity are 0: nothing is compared
    with pytest.raises(ValueError, match="first blow-up degree"):
        run()


def test_order_at_the_first_blowup_degree_is_checked():
    # through q^(k(r-k)) the first coefficient of zhat and of yk * z is compared
    assert verify_main_theorem(2, 1, order=1, seeds=(1,)).outcome
    assert verify_corollary(3, 2, order=2, seeds=(1,)).outcome


def test_rank1_driver_defaults_to_the_default_seeds():
    assert verify_rank1_identity(2).params["seeds"] == list(default_seeds())


def rank1_reference(order, seeds, memo):
    """The rank-one identity's report as assembled from rank1.verify_nekrasov_okounkov.

    It builds the three W series of the identity at each seed, reseeding
    as the drivers do, from the specializations of memo.
    """
    retries, details = [], []
    for seed in seeds:
        sub, used = _build_with_reseed(
            lambda spec: rank1.verify_nekrasov_okounkov(spec, order), 1, seed, retries, memo
        )
        if not sub["pass"]:
            details.append(f"seed {used}: first failure at q^{sub['first_failure']}")
    params = {"order": order, "seeds": list(seeds), "reseeds": retries}
    return VerificationReport("rank1-product-identity", params, not details, details).to_json()


@pytest.mark.parametrize("order", range(9))
def test_rank1_identity_equals_the_w_series_route(order):
    # the identity reads the r = 1 main theorem's pair in q^2: the same report
    # as the product of the three W series
    seeds = (53, 192, 101) + default_seeds()
    report = verify_rank1_identity(order, seeds).to_json()
    assert report == rank1_reference(order, seeds, SeriesMemo())


def memo_at_powers(b, u, v):
    """A SeriesMemo whose rank-one specialization at seed 1000 is t1 = b^u, t2 = b^v."""
    memo = SeriesMemo()
    memo.specs[1, 1000] = Specialization(F(b) ** u, F(b) ** v, (F(5, 7),), 1000)
    return memo


def test_rank1_identity_names_the_weight_the_w_series_name():
    # at t1 = b^u and t2 = b^v a hook weight t1^i * t2^j with i*u + j*v = 0
    # is 1; both routes name the same weight and reseed alike
    degenerate = 0
    for b in (2, 3):
        for u, v in itertools.product(range(-4, 5), repeat=2):
            if 0 in (u, v) or u == v:
                continue
            report = verify_rank1_identity(8, (1000,), memo=memo_at_powers(b, u, v)).to_json()
            assert report == rank1_reference(8, (1000,), memo_at_powers(b, u, v))
            degenerate += bool(report["params"]["reseeds"])
    assert degenerate == 48


def test_rank1_identity_negative_control(monkeypatch):
    # one more at q^3 on the product side must fail there
    exact = rank1.nekrasov_okounkov_rhs

    def off_by_one(order):
        return exact(order) + QSeries.monomial(1, 3, order + 1)

    monkeypatch.setattr(rank1, "nekrasov_okounkov_rhs", off_by_one)
    report = verify_rank1_identity(8, (101,))
    assert not report.outcome
    assert report.details == ["seed 101: first failure at q^3"]


@pytest.mark.parametrize("seeds", [(101,), (53, 192)])  # 53 and 192 reseed
def test_verify_all_neither_inverts_nor_truncates(seeds, monkeypatch):
    # in one process, so the patches below reach every rank
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    expected = [rep.to_json_str() for rep in verify_all(seeds)]

    def refused(self, *args):
        raise AssertionError("a verify path inverted or truncated a series")

    monkeypatch.setattr(QSeries, "invert", refused)
    monkeypatch.setattr(QSeries, "truncate", refused)
    assert [rep.to_json_str() for rep in verify_all(seeds)] == expected


def test_rank1_identity_builds_nothing_under_verify_all(monkeypatch):
    seeds = (53, 192, 101)
    built, failed = count_series_builds(monkeypatch)
    # in one process, so the counts of every rank reach this one
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    verify.verify_all(seeds)
    in_grid = [b for b in built + failed if b[1].rank == 1]
    built.clear()
    failed.clear()
    # rank 1's own drivers, without the identity, on one memo
    memo = SeriesMemo()
    verify_main_theorem(1, 0, seeds=seeds, memo=memo)
    verify_corollary(1, 0, seeds=seeds, memo=memo)
    verify_limit_consistency(1, 0, blowup_virtual_dim(1, 0, 2), seeds, memo=memo)
    assert in_grid == built + failed
    # on its own, the identity builds its pair at every seed
    built.clear()
    failed.clear()
    verify_rank1_identity(8, seeds)
    assert len(built) == 2 * len(seeds) and not failed


def test_series_memo_keys_by_value():
    # one specialization per (r, seed), with weight memos of its own
    memo = SeriesMemo()
    spec = memo.specialization(2, 5)
    assert memo.specialization(2, 5) is spec and spec == sample_specialization(2, 5)
    other = memo.specialization(2, 6)
    assert other is not spec and other.weight_memo is not spec.weight_memo
    assert sample_specialization(2, 5).weight_memo is not spec.weight_memo
    assert list(memo.specs) == [(2, 5), (2, 6)]
    # a request over an equal specialization drawn apart is the same key
    req = genera.SeriesRequest(rank=2, max_n=1, spec=spec, k=1)
    same = genera.SeriesRequest(rank=2, max_n=1, spec=sample_specialization(2, 5), k=1)
    assert req == same and hash(req) == hash(same)
    assert memo.series("zhat", same) is memo.series("zhat", req)


def test_verify_all_fills_one_weight_memo_per_seed(monkeypatch):
    memos, draws = [], []

    class Recording(SeriesMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    def counted(r, seed):
        draws.append((r, seed))
        return sample_specialization(r, seed)

    monkeypatch.setattr(verify, "SeriesMemo", Recording)
    monkeypatch.setattr(verify, "sample_specialization", counted)
    # in one process, so the counts of every rank reach this one
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    verify.verify_all((101,))
    specs = [spec for memo in memos for spec in memo.specs.values()]
    # every specialization is still drawn through the module attribute
    assert len(draws) == len(specs) == 3
    weight_memos = {id(spec.weight_memo): spec.weight_memo for spec in specs}
    assert sum(len(m) for m in weight_memos.values()) == 462


def count_series_builds(monkeypatch):
    """Route verify's z_series and zhat_series through counters of returned and raised builds."""
    built, failed = [], []
    for kind in ("z", "zhat"):
        original = getattr(verify, f"{kind}_series")

        def counted(req, kind=kind, original=original):
            try:
                series = original(req)
            except DegenerateSpecializationError:
                failed.append((kind, req))
                raise
            built.append((kind, req))
            return series

        monkeypatch.setattr(verify, f"{kind}_series", counted)
    return built, failed


def test_verify_all_shares_series_within_a_rank(monkeypatch):
    # seeds 53 and 192 degenerate at ranks 2 and 3, so the drivers reseed
    seeds = (53, 192)
    built, failed = count_series_builds(monkeypatch)
    # in one process, so the counts of every rank reach this one
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    alone = [verify_rank1_identity(8, seeds[:3])]
    for r in (1, 2, 3):
        for k in range(r):
            lim_order = 2 * r * min(2, 8 // r) + k * (r - k)
            alone.append(verify_main_theorem(r, k, seeds=seeds))
            alone.append(verify_corollary(r, k, seeds=seeds))
            alone.append(verify_limit_consistency(r, k, lim_order, seeds))
    alone_builds = len(built)
    assert len(set(built)) < alone_builds
    built.clear()
    failed.clear()

    shared = verify.verify_all(seeds)
    assert [rep.to_json() for rep in shared] == [rep.to_json() for rep in alone]
    assert any(rep.params["reseeds"] for rep in shared)
    # every request that returned was built once; a degenerate one is not
    # stored, so each driver that meets it builds it again and reseeds
    assert len(set(built)) == len(built) < alone_builds
    assert len(set(failed)) < len(failed)

    built.clear()
    failed.clear()
    verify.verify_all((101,))
    # each rank runs its largest k first, so no shape is built twice
    shapes = {(kind, req.rank, req.spec, req.k, req.mode) for kind, req in built}
    assert len(built) == len(shapes) == 18 and not failed


def test_main_theorem_forms_one_product_per_seed(monkeypatch):
    # the two lattice y-sign factors agree, so only yk_main(+1) * z is formed
    seeds = (101, 102)
    memo = SeriesMemo()
    expected = verify_main_theorem(2, 1, seeds=seeds, memo=memo)
    products = []
    mul = QSeries.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    assert verify_main_theorem(2, 1, seeds=seeds, memo=memo).to_json() == expected.to_json()
    assert len(products) == len(seeds)


def run_grid(monkeypatch, cpus, seeds):
    """verify_all at seeds with the CPU probe set to cpus.

    Returns its reports as JSON (or the exception it raised) and the
    forks it made.
    """
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    try:
        outcome = [rep.to_json() for rep in verify.verify_all(seeds)]
    except Exception as exc:
        outcome = exc
    return outcome, len(forks)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_grid_equals_the_grid_in_one_process(monkeypatch):
    seeds = (53, 192, 101)
    forked, forks = run_grid(monkeypatch, 2, seeds)
    assert forks == 1
    assert_no_child_left()
    alone, forks = run_grid(monkeypatch, 1, seeds)
    assert forks == 0
    assert forked == alone and any(rep["params"]["reseeds"] for rep in alone)


def test_forked_grid_raises_as_the_grid_in_one_process(monkeypatch):
    # seeds 53 and 192 degenerate at ranks 2 and 3, and one draw is all a driver gets
    monkeypatch.setattr(verify, "MAX_RESEEDS", 1)
    forked, forks = run_grid(monkeypatch, 2, (53, 192, 101))
    assert forks == 1
    assert_no_child_left()
    alone, forks = run_grid(monkeypatch, 1, (53, 192, 101))
    assert forks == 0
    assert isinstance(forked, ReseedLimitError) and isinstance(alone, ReseedLimitError)
    assert str(forked) == str(alone) == "no nondegenerate specialization found near seed 53"


def test_a_degenerate_weight_error_survives_pickling():
    import pickle

    exc = DegenerateSpecializationError(make_weight(1, -1, 1, 2), 53)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is DegenerateSpecializationError
    assert (back.weight, back.seed, back.args) == (exc.weight, exc.seed, exc.args)


def test_an_error_from_the_child_keeps_its_cause(monkeypatch):
    # no seed degenerates at rank 1 or rank 3 alone, so the child's unit
    # raises as _build_with_reseed does, from the degenerate draw
    rank_reports = verify._rank_reports

    def degenerate(r, seeds):
        if r == 2:
            return rank_reports(r, seeds)
        try:
            raise DegenerateSpecializationError(make_weight(2, 2, 2, 1), 53)
        except DegenerateSpecializationError as exc:
            raise ReseedLimitError(f"rank {r}: no nondegenerate specialization") from exc

    monkeypatch.setattr(verify, "_rank_reports", degenerate)
    forked, forks = run_grid(monkeypatch, 2, (101,))
    assert forks == 1
    assert_no_child_left()
    alone, _ = run_grid(monkeypatch, 1, (101,))

    def chain(exc):
        links = []
        while exc is not None:
            links.append((type(exc), exc.args, getattr(exc, "weight", None),
                          getattr(exc, "seed", None), exc.__suppress_context__))
            exc = exc.__cause__
        return links

    assert chain(forked) == chain(alone)
    assert [link[0] for link in chain(forked)] == [ReseedLimitError, DegenerateSpecializationError]
    assert forked.__cause__.weight == make_weight(2, 2, 2, 1)


def test_the_first_unit_in_grid_order_that_raises_is_raised(monkeypatch):
    def failing(r, seeds):
        raise ValueError(f"rank {r} fails")

    # rank 2 raises in this process, and rank 1, before it in grid order, in the child
    monkeypatch.setattr(verify, "_rank_reports", failing)
    forked, forks = run_grid(monkeypatch, 2, (101,))
    assert forks == 1
    assert_no_child_left()
    alone, _ = run_grid(monkeypatch, 1, (101,))
    assert isinstance(forked, ValueError) and str(forked) == str(alone) == "rank 1 fails"


def test_a_child_that_ends_without_reports_leaves_the_grid_to_this_process(monkeypatch):
    alone, _ = run_grid(monkeypatch, 1, (101,))
    rank_reports = verify._rank_reports
    parent = os.getpid()

    def dying(r, seeds):
        if os.getpid() != parent:
            os._exit(3)
        return rank_reports(r, seeds)

    monkeypatch.setattr(verify, "_rank_reports", dying)
    forked, forks = run_grid(monkeypatch, 2, (101,))
    assert forks == 1
    assert_no_child_left()
    assert forked == alone


def test_an_unpicklable_error_from_the_child_is_raised_as_itself(monkeypatch):
    rank_reports = verify._rank_reports

    def failing(r, seeds):
        if r == 1:
            raise ValueError(lambda: None)  # pickle cannot send a lambda
        return rank_reports(r, seeds)

    monkeypatch.setattr(verify, "_rank_reports", failing)
    forked, forks = run_grid(monkeypatch, 2, (101,))
    assert forks == 1
    assert_no_child_left()
    assert type(forked) is ValueError and forked.args[0].__name__ == "<lambda>"


def test_an_error_here_kills_and_reaps_the_child_at_once(monkeypatch):
    parent = os.getpid()

    def failing_here(r, seeds):
        if os.getpid() != parent:
            time.sleep(10)  # each unit of the child, until it is killed
        if r == 2:
            raise ValueError("rank 2 fails")
        return []

    monkeypatch.setattr(verify, "_rank_reports", failing_here)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rank 2 fails"):
        verify.verify_all((101,))
    assert time.perf_counter() - start < 5
    assert_no_child_left()


def test_an_interrupt_here_kills_and_reaps_the_child(monkeypatch):
    def interrupted(r, seeds):
        if r == 2:
            raise KeyboardInterrupt
        time.sleep(30)  # the child, until it is killed

    monkeypatch.setattr(verify, "_rank_reports", interrupted)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.verify_all((101,))
    assert time.perf_counter() - start < 20
    assert_no_child_left()


def cannot_fork():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def cannot_pipe():
    raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))


@pytest.mark.parametrize("fails", ["fork", "pipe"])
def test_a_fork_or_pipe_that_cannot_be_made_runs_the_grid_here(fails, monkeypatch):
    alone, _ = run_grid(monkeypatch, 1, (101,))
    pipes = []
    real_pipe = os.pipe

    def recorded_pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    monkeypatch.setattr(os, "fork", cannot_fork)
    monkeypatch.setattr(os, "pipe", cannot_pipe if fails == "pipe" else recorded_pipe)
    here, forks = run_grid(monkeypatch, 2, (101,))
    assert forks == (fails == "fork")
    assert here == alone
    assert gc.get_freeze_count() == 0
    assert_no_child_left()
    # both ends of a pipe made before the fork failed are closed
    assert len(pipes) == (fails == "fork")
    for fd in (fd for pair in pipes for fd in pair):
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


def grid_requests():
    """(kind, r, k, max_n, mode) of every series that verify_all asks for."""
    shapes = set()
    for r in (1, 2, 3):
        for k in range(r):
            lim_order = blowup_virtual_dim(r, k, min(2, 8 // r))
            for order, modes in ((default_order(r, k), (EQUIVARIANT,)),
                                 (lim_order, (EQUIVARIANT, LIMIT))):
                for mode in modes:
                    shapes.add(("z", r, 0, blowup_max_n(r, 0, order), mode))
                    shapes.add(("zhat", r, k, blowup_max_n(r, k, order), mode))
    return sorted(shapes)


def same_series(a, b):
    """Equal offset, order and coefficients."""
    return (a.offset, a.order, a.coeffs) == (b.offset, b.order, b.coeffs)


def built_or_error(kind, r, k, max_n, mode, seed):
    """The series built from scratch, or the message of its degenerate weight."""
    build = genera.z_series if kind == "z" else genera.zhat_series
    spec = sample_specialization(r, seed)
    req = SeriesRequest(rank=r, max_n=max_n, spec=spec, k=k, mode=mode)
    try:
        return build(req)
    except DegenerateSpecializationError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", [101, 192])  # 192 degenerates at ranks 2 and 3
def test_shorter_series_follow_from_the_longer_build(seed):
    # on every verify_all shape a longer build agrees with a shorter one through
    # its order, which makes serving the longer build whole exact
    degenerate = 0
    for kind, r, k, max_n, mode in grid_requests():
        shorter = built_or_error(kind, r, k, max_n, mode, seed)
        longer = built_or_error(kind, r, k, max_n + 1, mode, seed)
        if isinstance(shorter, str):
            degenerate += 1
            # a longer build meets every weight of a shorter one
            assert isinstance(longer, str)
        elif not isinstance(longer, str):
            assert same_series(longer.truncate(shorter.order), shorter)
    assert (degenerate > 0) == (seed == 192)


def test_series_memo_serves_the_longer_build_whole(monkeypatch):
    memo = SeriesMemo()
    spec = memo.specialization(2, 101)
    longer = {kind: memo.series(kind, SeriesRequest(rank=2, max_n=3, spec=spec, k=k))
              for kind, k in (("z", 0), ("zhat", 1))}
    built, failed = count_series_builds(monkeypatch)
    for kind, k in (("z", 0), ("zhat", 1)):
        build = genera.z_series if kind == "z" else genera.zhat_series
        req = SeriesRequest(rank=2, max_n=2, spec=spec, k=k)
        served = memo.series(kind, req)
        assert served is longer[kind]
        # it agrees with the shorter build through that build's order
        fresh = build(req)
        assert served.order > fresh.order
        assert same_series(served.truncate(fresh.order), fresh)
    # a driver's pair is served too, y symbolic; a numeric-y check evaluates it itself
    z, zhat, used = verify._series_pair(2, 1, 9, 101, EQUIVARIANT, [], memo)
    assert used == 101 and z is longer["z"] and zhat is longer["zhat"]
    assert not built and not failed
    # another kind, k, mode or seed, or a larger max_n, is built
    others = [("z", 2, 0, LIMIT, 101), ("zhat", 2, 0, EQUIVARIANT, 101),
              ("zhat", 2, 1, LIMIT, 101), ("zhat", 2, 1, EQUIVARIANT, 102),
              ("zhat", 4, 1, EQUIVARIANT, 101)]
    for kind, max_n, k, mode, seed in others:
        req = SeriesRequest(rank=2, max_n=max_n, spec=memo.specialization(2, seed), k=k, mode=mode)
        memo.series(kind, req)
        assert built[-1] == (kind, req)
    assert len(built) == len(others)
    # a longer request after a shorter one is built, and its build replaces the entry
    req = SeriesRequest(rank=2, max_n=3, spec=spec, k=0)
    replacing = memo.series("zhat", req)
    assert built[-1] == ("zhat", req) and len(built) == len(others) + 1
    for max_n in (2, 3):
        assert memo.series("zhat", SeriesRequest(rank=2, max_n=max_n, spec=spec, k=0)) is replacing
    assert len(built) == len(others) + 1 and not failed


def test_pair_memo_belongs_to_one_specialization():
    # one memo for both modes: a diagonal factor has no e-part, so a limit
    # build stores the very factors an equivariant build makes
    limit, equivariant = SeriesMemo().specialization(2, 5), sample_specialization(2, 5)
    genera.zhat_series(SeriesRequest(rank=2, max_n=1, spec=limit, k=1, mode=LIMIT))
    genera.zhat_series(SeriesRequest(rank=2, max_n=1, spec=equivariant, k=1))
    diagonal = {key: f for key, f in limit.pair_memo.items() if key[0] != "conv"}
    assert diagonal and diagonal.items() <= equivariant.pair_memo.items()
    # an equivariant build at the same specialization reads them and adds its own
    genera.zhat_series(SeriesRequest(rank=2, max_n=1, spec=limit, k=1))
    assert limit.pair_memo == {**equivariant.pair_memo, **limit.pair_memo}
    # a later build at another k reuses the factors, and the memo stays out of the value
    equal = sample_specialization(2, 5)
    before = dict(limit.pair_memo)
    genera.zhat_series(SeriesRequest(rank=2, max_n=1, spec=limit, k=0))
    assert before.items() <= limit.pair_memo.items()
    assert limit == equal and hash(limit) == hash(equal) and not equal.pair_memo
    assert repr(limit) == repr(equal) and "pair_memo" not in repr(equal)


def test_degenerate_pair_factor_is_never_stored(monkeypatch):
    from blowup_genera import characters

    # memo entries take their triples from _pair_triples, and the check of
    # the blocks one by one from _theta_factors; both record what raised
    raised = []
    pair_triples, block_triples = characters._pair_triples, characters._theta_factors

    def recording_pair(exps, a, b, spec):
        try:
            yield from pair_triples(exps, a, b, spec)
        except DegenerateSpecializationError:
            raised.append(("pair", len(exps)))
            raise

    def recording_block(items, spec, limit):
        try:
            return block_triples(items, spec, limit)
        except DegenerateSpecializationError:
            raised.append(("block", len(items)))
            raise

    monkeypatch.setattr(characters, "_pair_triples", recording_pair)
    monkeypatch.setattr(characters, "_theta_factors", recording_block)
    # at seed 192 a rank-2 pair factor degenerates; the blocks of its side
    # are then checked one by one, weights in sorted order, which names the weight
    spec = sample_specialization(2, 192)
    req = SeriesRequest(rank=2, max_n=1, spec=spec, k=1)
    errors, sizes = [], []
    for _ in range(2):
        raised.clear()
        with pytest.raises(DegenerateSpecializationError) as err:
            genera.zhat_series(req)
        errors.append(str(err.value))
        sizes.append(len(spec.pair_memo))
        # the nested side sum meets the degenerate pairing block each time,
        # so it was not stored, and the check raises at the first bad block
        assert raised[0] == ("pair", 1)
        assert len(raised) == 2 and raised[1][0] == "block"
    assert errors[0] == errors[1] and sizes[0] == sizes[1]


def test_report_json_shape():
    rep = VerificationReport(
        name="demo", params={"r": 1}, outcome=False, details=["bad"]
    )
    payload = rep.to_json(include_timing=True)
    assert payload["outcome"] == "fail"
    assert payload["details"] == ["bad"]
    assert "timing_seconds" in payload
