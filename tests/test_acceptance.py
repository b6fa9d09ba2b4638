"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is tolerance zero (exact field arithmetic); the stated wall
clock budgets are asserted as generous upper bounds.  Each criterion
prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them live.
"""

import time
from fractions import Fraction as F

import pytest

from blowup_genera.blowup_factor import yk_euler, yk_gottsche, yk_hol, yk_main
from blowup_genera.characters import tangent_blowup, tangent_p2
from blowup_genera.coefficients import sample_specialization
from blowup_genera.genera import SeriesRequest, z_series, zhat_series
from blowup_genera.partitions import (
    enumerate_blowup_fixed_points,
    enumerate_tuples,
)
from blowup_genera.qseries import QSeries, euler_product
from blowup_genera.verify import (
    default_seeds,
    verify_limit_consistency,
    verify_main_theorem,
    verify_rank1_identity,
)

FIVE_SEEDS = default_seeds(5)


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_main_theorem_rank1():
    t0 = time.perf_counter()
    order = 16
    factor = euler_product(2, 1, -1, order + 1)  # prod (1 - (q^2 y)^n)^-1
    ok = yk_main(1, 0, order) == factor
    for seed in FIVE_SEEDS:
        spec = sample_specialization(1, seed)
        z = z_series(SeriesRequest(rank=1, max_n=8, spec=spec))
        zhat = zhat_series(SeriesRequest(rank=1, max_n=8, spec=spec, k=0))
        quotient = zhat * z.invert()
        ok = ok and quotient.agrees_to(factor, order)
    elapsed = time.perf_counter() - t0
    report(1, f"rank 1: zhat*z^-1 equals the Euler product to q^16 ({elapsed:.1f}s)", ok)
    assert elapsed < 10


def test_criterion_2_main_theorem_rank2():
    t0 = time.perf_counter()
    ok = True
    for k in (0, 1):
        rep = verify_main_theorem(2, k, 16 + k, FIVE_SEEDS)
        ok = ok and rep.outcome
    elapsed = time.perf_counter() - t0
    report(2, f"rank 2: zhat = yk*z to order 16+k for k in 0,1 ({elapsed:.1f}s)", ok)
    assert elapsed < 300


def test_criterion_3_main_theorem_rank3():
    t0 = time.perf_counter()
    ok = True
    for k in (0, 1, 2):
        order = 12 + k * (3 - k)
        rep = verify_main_theorem(3, k, order, FIVE_SEEDS)
        ok = ok and rep.outcome
    elapsed = time.perf_counter() - t0
    report(3, f"rank 3: zhat = yk*z covering n <= 2 for k in 0,1,2 ({elapsed:.1f}s)", ok)
    assert elapsed < 600


def test_criterion_4_rank1_product_identity():
    t0 = time.perf_counter()
    rep = verify_rank1_identity(8, default_seeds(3))
    elapsed = time.perf_counter() - t0
    report(4, f"rank-1 hook quotient equals prod (1-(yq)^n)^-1 to q^8 ({elapsed:.1f}s)", rep.outcome)
    assert elapsed < 30


def test_criterion_5_euler_branch():
    ok = True
    for r in (1, 2, 3):
        for k in range(r):
            order = 2 * r * 4
            at_one = yk_main(r, k, order).at_y(F(1))
            ok = ok and at_one == yk_euler(r, k, order)
    # localization Euler numbers count fixed points: rank 1 partition numbers
    spec = sample_specialization(1, FIVE_SEEDS[0])
    z = z_series(SeriesRequest(rank=1, max_n=8, spec=spec)).at_y(F(1))
    frozen = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    ok = ok and [z.coefficient(2 * n) for n in range(9)] == frozen
    report(5, "Euler branch: yk at y=1 matches and rank-1 counts are p(n)", ok)


def test_criterion_6_gottsche_form_equivalence():
    t0 = time.perf_counter()
    ok = True
    for r in (1, 2, 3):
        for k in range(r):
            order = 8 * r
            ok = ok and yk_gottsche(r, k, order) == yk_main(r, k, order)
    elapsed = time.perf_counter() - t0
    report(6, f"lattice form equals main form to order 8r for r <= 3 ({elapsed:.1f}s)", ok)
    assert elapsed < 60


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    ok = True
    for r in (1, 2, 3):
        for n in range(5):
            for fp in enumerate_tuples(r, n):
                char = tangent_p2(fp)
                ok = ok and char.rank == 2 * r * n and not char.contains_trivial()
        for k in range(r):
            for n in range(5):
                for fp in enumerate_blowup_fixed_points(r, k, n):
                    char = tangent_blowup(fp)
                    ok = ok and char.rank == 2 * r * n + k * (r - k)
                    ok = ok and not char.contains_trivial()
    # the integrality traps in the closed forms never fire on the verified grid
    for r in (1, 2, 3):
        for k in range(r):
            yk_main(r, k, 2 * r * 4)
            yk_gottsche(r, k, 2 * r * 4)
    # equivariant and limit mode quotients agree
    for r in (1, 2, 3):
        for k in range(r):
            order = 4 * r + k * (r - k)
            rep = verify_limit_consistency(r, k, order, default_seeds(3))
            ok = ok and rep.outcome
    elapsed = time.perf_counter() - t0
    report(7, f"ranks, isolation, integrality and limit agreement ({elapsed:.1f}s)", ok)


def test_criterion_8_holomorphic_branch():
    ok = True
    details = []
    for r in (1, 2, 3):
        rep = yk_hol(r, 0, 8)
        ok = ok and rep.main_at_y0 == QSeries.monomial(F(1), 0, 9) and not rep.discrepant
        for k in range(1, r):
            rep = yk_hol(r, k, 8)
            # computed value is the single monomial q^(k(r-k)); the stated
            # table value is 0: recorded as a documented discrepancy
            ok = ok and rep.stated == 0
            ok = ok and rep.main_at_y0 == QSeries.monomial(F(1), k * (r - k), 9)
            ok = ok and rep.discrepant
            details.append(f"r={r} k={k}: stated 0, computed q^{k * (r - k)}")
    line = "; ".join(details)
    report(8, f"y=0 branch: yk_0 is 1; discrepancies documented ({line})", ok)
