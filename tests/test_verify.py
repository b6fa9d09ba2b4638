"""Verification drivers: pass/fail behaviour, determinism, negative controls."""

import json
from fractions import Fraction as F

import pytest

from blowup_genera import genera, verify
from blowup_genera.characters import Character, make_weight, tangent_p2
from blowup_genera.coefficients import sample_specialization
from blowup_genera.verify import (
    MAX_RESEEDS,
    ReseedLimitError,
    SeriesMemo,
    VerificationReport,
    _build_with_reseed,
    default_order,
    default_seeds,
    verify_corollary,
    verify_limit_consistency,
    verify_main_theorem,
    verify_rank1_identity,
)
from blowup_genera.characters import DegenerateSpecializationError
from blowup_genera.partitions import blowup_virtual_dim


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
    rep = verify_main_theorem(2, 1, 9, SEEDS)
    assert rep.conventions["lattice_y_sign_match"] == {"plus": True, "minus": True}


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


def test_negative_control_single_weight_perturbation(monkeypatch):
    # shifting one weight of one plane tangent character must flip the check
    state = {"done": False}

    def perturbed(fp):
        char = tangent_p2(fp)
        if not state["done"] and char.rank > 0:
            state["done"] = True
            w, _m = char.sorted_items()[0]
            shifted = make_weight(w.i1 + 1, w.i2, w.num, w.den)
            return Character(char.sorted_items() + [(w, -1), (shifted, 1)])
        return char

    monkeypatch.setattr(genera, "tangent_p2", perturbed)
    rep = verify_main_theorem(1, 0, 6, default_seeds(1))
    assert state["done"]
    assert not rep.outcome
    assert rep.details


def test_reseed_on_degenerate_collision():
    calls = []

    def build(spec):
        calls.append(spec.seed)
        if len(calls) < 3:
            raise DegenerateSpecializationError(make_weight(1, 0), spec.seed)
        return "ok"

    retries = []
    result, used = _build_with_reseed(build, 1, 100, None, retries)
    assert result == "ok"
    assert used == 102
    assert calls == [100, 101, 102]
    assert len(retries) == 2 and "resampling" in retries[0]


def test_reseed_limit_raises_a_typed_error():
    calls = []

    def build(spec):
        calls.append(spec.seed)
        raise DegenerateSpecializationError(make_weight(1, 0), spec.seed)

    retries = []
    message = "^no nondegenerate specialization found near seed 100$"
    with pytest.raises(ReseedLimitError, match=message):
        _build_with_reseed(build, 1, 100, None, retries)
    assert MAX_RESEEDS == 64 and issubclass(ReseedLimitError, RuntimeError)
    assert calls == list(range(100, 100 + MAX_RESEEDS))
    assert len(retries) == MAX_RESEEDS


def test_series_memo_keys_by_value():
    memo = SeriesMemo()
    spec = memo.specialization(2, 5, None)
    assert memo.specialization(2, 5, None) is spec and spec == sample_specialization(2, 5)
    assert memo.specialization(2, 5, F(1)) is not spec
    # a request over an equal specialization drawn apart is the same key
    req = genera.SeriesRequest(rank=2, max_n=1, spec=spec, k=1)
    same = genera.SeriesRequest(rank=2, max_n=1, spec=sample_specialization(2, 5), k=1)
    assert req == same and hash(req) == hash(same)
    assert memo.series("zhat", same) is memo.series("zhat", req)


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


def test_report_json_shape():
    rep = VerificationReport(
        name="demo", params={"r": 1}, outcome=False, details=["bad"]
    )
    payload = rep.to_json(include_timing=True)
    assert payload["outcome"] == "fail"
    assert payload["details"] == ["bad"]
    assert "timing_seconds" in payload
