"""End-to-end verification drivers with structured, reproducible reports.

Each driver computes both sides of one identity at several seeded
specializations and compares exactly, coefficient by coefficient.  The
primary check direction is multiplicative (zhat == yk * z), which never
inverts a series; the quotient route zhat * z^-1 is kept as a secondary
check since the plane series always starts at 1.

Specializations that collide with a weight (some theta factor would
degenerate) are resampled at seed + 1, and every reseed is logged and
recorded in the report.  Reports are deterministic functions of
(parameters, seeds); wall-clock time is kept out of the canonical JSON
so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import rank1
from .blowup_factor import yk_euler, yk_hol, yk_main
from .characters import DegenerateSpecializationError
from .coefficients import (
    DEFAULT_SEED_BASE,
    DEFAULT_SEED_COUNT,
    PRNG_NAME,
    coeff_evaluate,
    sample_specialization,
)
from .genera import EQUIVARIANT, LIMIT, SeriesRequest, z_series, zhat_series
from .partitions import blowup_max_n, check_k

logger = logging.getLogger("blowup_genera")

MAX_RESEEDS = 64

CONVENTIONS = {
    "grading": "blow-up degree = 2*r*(|Y|+|Z|) + sum_{i<j}(k_i-k_j)^2 = 2*r*n + k*(r-k)",
    "theta": "theta(x) = (x - y)/(x - 1)",
    "prng": PRNG_NAME,
    "lattice_y_sign": "y^((Q+L)/2) with L = sum_{i<j}(k_i - k_j); both signs match",
}


def default_seeds(count: int = DEFAULT_SEED_COUNT, base: int = DEFAULT_SEED_BASE):
    return tuple(base + i for i in range(count))


def default_order(r: int, k: int = 0) -> int:
    """Suite-sized default orders: n <= 8 at rank 1, 4 at rank 2, 2 at rank 3."""
    per_rank = {1: 8, 2: 4, 3: 2}
    return 2 * r * per_rank.get(r, 1) + k * (r - k)


@dataclass
class VerificationReport:
    name: str
    params: dict
    outcome: bool
    details: list[str] = field(default_factory=list)
    conventions: dict = field(default_factory=lambda: dict(CONVENTIONS))
    timing_seconds: float = 0.0

    def to_json(self, include_timing: bool = False) -> dict:
        payload = {
            "schema": "verification-report/1",
            "check": self.name,
            "params": self.params,
            "outcome": "pass" if self.outcome else "fail",
            "details": self.details,
            "conventions": self.conventions,
        }
        if include_timing:
            payload["timing_seconds"] = self.timing_seconds
        return payload

    def to_json_str(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json(include_timing), indent=2, sort_keys=True)


def _build_with_reseed(build, r: int, seed: int, y0, retries: list[str]):
    """Run ``build(spec)``, resampling at seed+1 on degenerate collisions."""
    current = seed
    for _ in range(MAX_RESEEDS):
        spec = sample_specialization(r, current, y0)
        try:
            return build(spec), current
        except DegenerateSpecializationError as exc:
            nxt = current + 1
            msg = f"seed {current} degenerate ({exc}); resampling with seed {nxt}"
            logger.warning(msg)
            retries.append(msg)
            current = nxt
    raise RuntimeError(f"no nondegenerate specialization found near seed {seed}")


def _series_pair(r, k, order, seed, y0, mode, retries):
    """Plane and blow-up series at one (possibly reseeded) specialization."""
    z_max_n = blowup_max_n(r, 0, order)
    zhat_max_n = blowup_max_n(r, k, order)

    def build(spec):
        z_req = SeriesRequest(rank=r, max_n=z_max_n, spec=spec, k=0, mode=mode)
        zhat_req = SeriesRequest(rank=r, max_n=zhat_max_n, spec=spec, k=k, mode=mode)
        return z_series(z_req), zhat_series(zhat_req)

    (z, zhat), used_seed = _build_with_reseed(build, r, seed, y0, retries)
    return z, zhat, used_seed


def _start(r: int, k: int, order: int | None, seeds, seed_count: int = DEFAULT_SEED_COUNT):
    """Check k; return the order and seeds of one driver run (defaults for None) and its start."""
    check_k(r, k)
    return (
        default_order(r, k) if order is None else order,
        tuple(seeds) if seeds is not None else default_seeds(seed_count),
        time.perf_counter(),
    )


def _finish(
    name: str, params: dict, ok: bool, details: list[str], seeds, retries: list[str], t0: float
) -> VerificationReport:
    """The report of one driver run, with its seeds, reseeds and wall time, logged."""
    report = VerificationReport(
        name=name,
        params={**params, "seeds": list(seeds), "reseeds": retries},
        outcome=ok,
        details=details,
    )
    report.timing_seconds = time.perf_counter() - t0
    logger.info("%s: %s (%.2fs)", name, "pass" if ok else "FAIL", report.timing_seconds)
    for line in details:
        logger.info("  %s", line)
    return report


def verify_main_theorem(
    r: int,
    k: int,
    order: int | None = None,
    seeds=None,
    mode: str = EQUIVARIANT,
) -> VerificationReport:
    """Check zhat == yk_main * z through q^order at every seeded specialization.

    The blow-up factor coefficients are universal polynomials in y, so the
    same series must appear at every specialization.  Also runs the
    inversion route zhat * z^-1 and records which lattice y-sign
    convention the quotient matches (both, by the reversal symmetry).
    """
    order, seeds, t0 = _start(r, k, order, seeds)
    details: list[str] = []
    retries: list[str] = []
    ok = True
    yk_plus = yk_main(r, k, order, y_sign=+1)
    yk_minus = yk_main(r, k, order, y_sign=-1)
    sign_matches = {"plus": True, "minus": True}
    for seed in seeds:
        z, zhat, used_seed = _series_pair(r, k, order, seed, None, mode, retries)
        product = yk_plus * z
        bad = zhat.first_difference(product, order)
        if bad is not None:
            ok = False
            details.append(
                f"seed {used_seed}: zhat != yk*z first at q^{bad}: "
                f"{zhat.coefficient(bad)!r} vs {product.coefficient(bad)!r}"
            )
        quotient = zhat * z.invert()
        if quotient.first_difference(yk_plus, order) is not None:
            sign_matches["plus"] = False
            ok = False
            details.append(f"seed {used_seed}: quotient route disagrees with yk (+ sign)")
        if quotient.first_difference(yk_minus, order) is not None:
            sign_matches["minus"] = False
            details.append(f"seed {used_seed}: quotient disagrees with the - sign variant")
    report = _finish(
        "main-theorem-blowup-factor",
        {"r": r, "k": k, "order": order, "mode": mode, "y_mode": "symbolic"},
        ok, details, seeds, retries, t0,
    )
    report.conventions["lattice_y_sign_match"] = sign_matches
    return report


def verify_corollary(r: int, k: int, order: int | None = None, seeds=None) -> VerificationReport:
    """Euler and holomorphic branches of the blow-up identity.

    At y = 1 every theta factor is 1, so coefficients count fixed points
    and the factor must equal yk_euler; yk_main evaluated at y = 1 must
    agree as well.  At y = 0 the quotient must equal yk_main at y = 0,
    and the report records the known gap between that value, q^(k(r-k)),
    and the stated table value 0 for 0 < k < r as a documented
    discrepancy rather than a failure.
    """
    order, seeds, t0 = _start(r, k, order, seeds)
    details: list[str] = []
    retries: list[str] = []
    ok = True

    euler = yk_euler(r, k, order)
    main_at_one = yk_main(r, k, order).map_coefficients(
        lambda c: coeff_evaluate(c, Fraction(1))
    )
    if main_at_one.first_difference(euler, order) is not None:
        ok = False
        details.append("yk_main at y=1 disagrees with yk_euler")

    hol = yk_hol(r, k, order)
    details.append(
        f"holomorphic branch: stated {hol.stated}, computed {hol.main_at_y0.to_json()['coeffs']} "
        f"at offset {hol.main_at_y0.offset}"
        + (" (documented discrepancy)" if hol.discrepant else "")
    )

    for seed in seeds:
        for y0, factor in ((Fraction(1), euler), (Fraction(0), hol.main_at_y0)):
            z, zhat, used_seed = _series_pair(r, k, order, seed, y0, EQUIVARIANT, retries)
            product = factor * z
            bad = zhat.first_difference(product, order)
            if bad is not None:
                ok = False
                details.append(
                    f"seed {used_seed}, y={y0}: zhat != yk*z first at q^{bad}"
                )
    return _finish(
        "corollary-euler-and-holomorphic",
        {"r": r, "k": k, "order": order, "y_modes": ["numeric:1", "numeric:0"]},
        ok, details, seeds, retries, t0,
    )


def verify_limit_consistency(
    r: int, k: int, order: int | None = None, seeds=None
) -> VerificationReport:
    """Equivariant-mode and limit-mode quotients agree (cross-multiplied).

    Checks zhat_eq * z_lim == zhat_lim * z_eq through q^order and that the
    limit-mode pair reproduces the same yk_main factor.
    """
    order, seeds, t0 = _start(r, k, order, seeds)
    details: list[str] = []
    retries: list[str] = []
    ok = True
    yk = yk_main(r, k, order)
    for seed in seeds:
        z_eq, zhat_eq, used = _series_pair(r, k, order, seed, None, EQUIVARIANT, retries)
        z_lim, zhat_lim, used_lim = _series_pair(r, k, order, used, None, LIMIT, retries)
        if used_lim != used:
            details.append(f"limit mode reseeded separately at {used_lim}")
        lhs = zhat_eq * z_lim
        rhs = zhat_lim * z_eq
        bad = lhs.first_difference(rhs, order)
        if bad is not None:
            ok = False
            details.append(f"seed {used}: mode quotients differ first at q^{bad}")
        bad_lim = zhat_lim.first_difference(yk * z_lim, order)
        if bad_lim is not None:
            ok = False
            details.append(f"seed {used}: limit-mode factor differs first at q^{bad_lim}")
    return _finish(
        "limit-mode-consistency",
        {"r": r, "k": k, "order": order},
        ok, details, seeds, retries, t0,
    )


def verify_rank1_identity(order: int, seeds=None) -> VerificationReport:
    """Run the rank-one product identity at each seed and collect a report."""
    order, seeds, t0 = _start(1, 0, order, seeds, seed_count=3)
    details: list[str] = []
    retries: list[str] = []
    ok = True
    for seed in seeds:
        sub_report, used = _build_with_reseed(
            lambda spec: rank1.verify_nekrasov_okounkov(spec, order),
            1,
            seed,
            None,
            retries,
        )
        if not sub_report["pass"]:
            ok = False
            details.append(
                f"seed {used}: first failure at q^{sub_report['first_failure']}"
            )
    return _finish(
        "rank1-product-identity", {"order": order}, ok, details, seeds, retries, t0
    )
