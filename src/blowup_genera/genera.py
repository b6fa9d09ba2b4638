"""Localization generating series for the plane and blow-up moduli.

z_series sums theta contributions of diagram tuples into degrees q^(2rn);
zhat_series sums blow-up fixed points into degrees
q^(2r(|Y|+|Z|) + pair_form).  Both run in equivariant mode (full theta
evaluation) or limit mode (exact ordered e -> 0 case table), and limit
mode has the independent closed form z_series_limit_closed built from the
rank-one series raised to the r-th power.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .characters import Character, tangent_blowup, tangent_p2, theta_eval, theta_limit_factor
from .coefficients import PRNG_NAME, Specialization
from .partitions import blowup_virtual_dim, enumerate_blowup_fixed_points, enumerate_tuples
from .qseries import QSeries
from .rank1 import w_series

EQUIVARIANT = "equivariant"
LIMIT = "limit"


@dataclass(frozen=True)
class SeriesRequest:
    """Parameters of one generating-series computation."""

    rank: int
    max_n: int
    spec: Specialization
    k: int = 0
    mode: str = EQUIVARIANT

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.max_n < 0:
            raise ValueError("max_n must be nonnegative")
        if self.mode not in (EQUIVARIANT, LIMIT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.spec.rank != self.rank:
            raise ValueError("specialization rank does not match the request")


def _contribution(req: SeriesRequest, char: Character):
    if req.mode == LIMIT:
        return theta_limit_factor(char, req.spec)
    return theta_eval(char, req.spec)


def _accumulate(req: SeriesRequest, chars):
    """Sum contributions in enumeration order."""
    acc = 0
    for c in chars:
        acc = acc + _contribution(req, c)
    return acc


def z_series(req: SeriesRequest) -> QSeries:
    """Plane series: sum over tuples of weight n <= max_n, graded by q^(2rn).

    Valid below q^(2r*max_n + 1); all exponents off the 2r grid are exactly 0.
    """
    r = req.rank
    terms = {}
    for n in range(req.max_n + 1):
        terms[2 * r * n] = _accumulate(
            req, [tangent_p2(fp) for fp in enumerate_tuples(r, n)]
        )
    return QSeries.from_terms(terms, 2 * r * req.max_n + 1)


def zhat_series(req: SeriesRequest) -> QSeries:
    """Blow-up series over fixed points with instanton number n <= max_n.

    Support lies on exponents congruent to k(r-k) mod 2r, starting at
    k(r-k); valid below q^(k(r-k) + 2r*max_n + 1).
    """
    r, k = req.rank, req.k
    if not 0 <= k < r:
        raise ValueError(f"k must satisfy 0 <= k < r, got k={k}, r={r}")
    terms = {}
    for n in range(req.max_n + 1):
        exp = blowup_virtual_dim(r, k, n)
        terms[exp] = _accumulate(
            req, [tangent_blowup(fp) for fp in enumerate_blowup_fixed_points(r, k, n)]
        )
    return QSeries.from_terms(terms, blowup_virtual_dim(r, k, req.max_n) + 1)


def z_series_limit_closed(req: SeriesRequest) -> QSeries:
    """Closed form of the limit-mode plane series.

    Equals the rank-one series W(t1, t2, y, x) at x = y^(r-1) * q^(2r),
    raised to the r-th power: each weight-m coefficient of W lands at
    q^(2rm) carrying an extra y^((r-1)m).
    """
    if req.mode != LIMIT:
        raise ValueError("closed form is defined for limit mode only")
    r = req.rank
    w = w_series(req.spec, req.max_n)
    order = 2 * r * req.max_n + 1
    terms = {}
    for m, c in w.items():
        terms[2 * r * m] = req.spec.y_power((r - 1) * m) * c
    mapped = QSeries.from_terms(terms, order)
    return mapped**r


def series_report(kind: str, req: SeriesRequest, include_timing: bool = True) -> dict:
    """Compute one series and wrap it in the JSON report schema."""
    t0 = time.perf_counter()
    if kind == "z":
        series = z_series(req)
        counts = {
            str(2 * req.rank * n): len(enumerate_tuples(req.rank, n))
            for n in range(req.max_n + 1)
        }
    elif kind == "zhat":
        series = zhat_series(req)
        counts = {
            str(blowup_virtual_dim(req.rank, req.k, n)): len(
                enumerate_blowup_fixed_points(req.rank, req.k, n)
            )
            for n in range(req.max_n + 1)
        }
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    elapsed = time.perf_counter() - t0
    report = {
        "schema": "series-report/1",
        "kind": kind,
        "params": {
            "rank": req.rank,
            "k": req.k,
            "max_n": req.max_n,
            "mode": req.mode,
            "seed": req.spec.seed,
            "y_mode": "symbolic" if req.spec.symbolic else f"numeric:{req.spec.y0}",
            "prng": PRNG_NAME,
        },
        "series": series.to_json(),
        "fixed_point_counts": counts,
    }
    if include_timing:
        report["wall_clock_seconds"] = elapsed
    return report
