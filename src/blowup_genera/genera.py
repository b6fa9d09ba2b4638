"""Localization generating series for the plane and blow-up moduli.

z_series sums theta contributions of diagram tuples into degrees q^(2rn);
zhat_series sums blow-up fixed points into degrees
q^(2r(|Y|+|Z|) + pair_form), factored over lattice vectors: theta of the
exceptional simplex times the convolution of the Y-block and Z-block theta
sums, so no full blow-up tangent character is built.  Nor is a Y or Z
block built: theta of each is the product of its Nekrasov pair factors
(characters.plane_block_theta), which the specialization memoizes per
mode (Specialization.pair_memo), so the blocks that share a pair of
diagrams, slots and shift share its factor, within one zhat_series call
and across every call at that specialization, whatever its k or max_n.

Both sum in integers: theta of every character or block arrives as a
cleared pair (an integer coefficient list in y over one integer
denominator, see characters.theta_eval), the blocks of one degree are
summed over a running common denominator (characters.theta_sum, or
cleared_sum over the block products), and the pair helpers of coefficients
multiply integer lists for the convolution and the simplex factor; each
q-coefficient becomes one YPoly at the end.  y is always symbolic here:
series_report evaluates the finished series once at a numeric y0
(QSeries.at_y), so there is one coefficient path.

Both run in equivariant mode (full theta evaluation) or limit mode (exact
ordered e -> 0 case table), and limit mode has the independent closed
form z_series_limit_closed built from the rank-one series raised to the
r-th power.
"""

from __future__ import annotations

import time
from itertools import count

from .characters import (
    DegenerateSpecializationError,
    plane_block,
    plane_block_theta,
    simplex_block,
    tangent_p2,
    theta_sum,
)
from .coefficients import (
    PRNG_NAME,
    Specialization,
    YPoly,
    cleared_convolution,
    cleared_product,
    cleared_sum,
    cleared_value,
)
from .partitions import (
    LatticeVector,
    blowup_virtual_dim,
    check_k,
    enumerate_lattice_vectors,
    enumerate_tuples,
)
from .qseries import QSeries, colored_partition_counts
from .rank1 import w_series
from .records import Record

EQUIVARIANT = "equivariant"
LIMIT = "limit"


class SeriesRequest(Record):
    """Parameters of one generating-series computation."""

    __slots__ = _fields = ("rank", "max_n", "spec", "k", "mode")

    def __init__(self, rank: int, max_n: int, spec: Specialization, k: int = 0,
                 mode: str = EQUIVARIANT):
        if rank < 1:
            raise ValueError("rank must be positive")
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        if mode not in (EQUIVARIANT, LIMIT):
            raise ValueError(f"unknown mode {mode!r}")
        if spec.rank != rank:
            raise ValueError("specialization rank does not match the request")
        self._set(rank, max_n, spec, k, mode)


def z_series(req: SeriesRequest) -> QSeries:
    """Plane series: sum over tuples of weight n <= max_n, graded by q^(2rn).

    Valid below q^(2r*max_n + 1); all exponents off the 2r grid are exactly 0.
    """
    r, spec, limit = req.rank, req.spec, req.mode == LIMIT
    terms = {}
    for n in range(req.max_n + 1):
        pair = theta_sum([tangent_p2(fp) for fp in enumerate_tuples(r, n)], spec, limit)
        terms[2 * r * n] = cleared_value(pair)
    return QSeries.from_terms(terms, 2 * r * req.max_n + 1)


def _side_sum(req: SeriesRequest, tuples, kvec: LatticeVector, side: str, factors: dict):
    """Theta summed over the side's blocks of the tuples at kvec, from pair factors.

    A product of pair factors meets the weights of a block out of sorted
    order, so on a degenerate weight the side is summed again from its
    sorted blocks, whose first degenerate weight the error then names.
    """
    spec, limit = req.spec, req.mode == LIMIT
    try:
        return cleared_sum(plane_block_theta(t, kvec, side, spec, limit, factors) for t in tuples)
    except DegenerateSpecializationError:
        theta_sum([plane_block(t, kvec, side) for t in tuples], spec, limit)
        raise


def _lattice_vector_shares(req: SeriesRequest, kvec: LatticeVector, factors: dict):
    """Yield the share of kvec in the blow-up coefficient of weight w = 0, 1, 2, ...

    A fixed point (Y, Z, kvec) has the tangent character simplex + Y block
    + Z block, and theta is multiplicative, so the share at weight w is
    theta(simplex) * sum_{i+j=w} A(i) * B(j), where A(i) sums theta of the
    Y blocks of all tuples of size i and B(j) that of the Z blocks of size j.
    Each block's theta is a product of pair factors, memoized in factors.
    """
    simplex = theta_sum([simplex_block(kvec)], req.spec, req.mode == LIMIT)
    a, b = [], []
    for w in count():
        tuples = enumerate_tuples(req.rank, w)
        a.append(_side_sum(req, tuples, kvec, "y", factors))
        b.append(_side_sum(req, tuples, kvec, "z", factors))
        yield cleared_product(simplex, cleared_convolution(a, b))


def zhat_series(req: SeriesRequest) -> QSeries:
    """Blow-up series over fixed points with instanton number n <= max_n.

    Support lies on exponents congruent to k(r-k) mod 2r, starting at
    k(r-k); valid below q^(k(r-k) + 2r*max_n + 1).

    The sum is factored over lattice vectors (Nakajima-Yoshioka): each
    vector's theta(simplex) times the convolution of its Y- and Z-block
    sums, see _lattice_vector_shares.  Since pair_form = k(r-k) mod 2r, a
    vector first counts at weight 0 in the degree where pair_form equals
    the q-exponent and then at weights 1, 2, ... in the following degrees.
    Degrees are filled in ascending order, within a degree the vectors in
    enumeration order, and for each vector the Y blocks of its new weight
    before the Z blocks.  The per-fixed-point sum over
    enumerate_blowup_fixed_points first meets every block in that same
    order, at (Y, empty, kvec) and then (empty, Z, kvec), and within a
    block both take theta weight by weight in sorted order, so a
    degenerate specialization names the same weight.  A product of pair
    factors meets a block's weights slot pair by slot pair instead; so
    when a factor degenerates, that degree's side is summed again from its
    sorted blocks (plane_block and theta_sum), which raise the error the
    per-fixed-point sum raises.
    """
    r, k = req.rank, req.k
    check_k(r, k)
    top = blowup_virtual_dim(r, k, req.max_n)
    kvecs = enumerate_lattice_vectors(r, k, top)
    factors = req.spec.pair_memo.setdefault(req.mode, {})  # see plane_block_theta
    shares = [_lattice_vector_shares(req, kvec, factors) for kvec in kvecs]
    terms = {}
    for n in range(req.max_n + 1):
        exp = blowup_virtual_dim(r, k, n)
        pair = cleared_sum(
            next(share) for kvec, share in zip(kvecs, shares) if kvec.pair_form <= exp
        )
        terms[exp] = cleared_value(pair)
    return QSeries.from_terms(terms, top + 1)


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
        terms[2 * r * m] = YPoly.monomial((r - 1) * m) * c
    mapped = QSeries.from_terms(terms, order)
    return mapped**r


def _blowup_fixed_point_counts(r: int, k: int, max_n: int) -> dict[str, int]:
    """Number of blow-up fixed points per degree, counted without enumerating them.

    A fixed point (Y, Z, kvec) in degree exp pairs a lattice vector with
    pair_form <= exp with a 2r-tuple of diagrams of total size
    (exp - pair_form) / 2r, and c_2r(w) such tuples have size w.
    """
    kvecs = enumerate_lattice_vectors(r, k, blowup_virtual_dim(r, k, max_n))
    tuples = colored_partition_counts(2 * r, max_n)
    counts = {}
    for n in range(max_n + 1):
        exp = blowup_virtual_dim(r, k, n)
        counts[str(exp)] = sum(
            tuples[(exp - kvec.pair_form) // (2 * r)] for kvec in kvecs if kvec.pair_form <= exp
        )
    return counts


def series_report(kind: str, req: SeriesRequest, y0=None, include_timing: bool = True) -> dict:
    """Compute one series and wrap it in the JSON report schema.

    The series is built with y symbolic; a rational y0 evaluates it once
    (QSeries.at_y), and params.y_mode names which of the two was reported.
    """
    t0 = time.perf_counter()
    if kind == "z":
        series = z_series(req)
        counts = {
            str(2 * req.rank * n): c
            for n, c in enumerate(colored_partition_counts(req.rank, req.max_n))
        }
    elif kind == "zhat":
        series = zhat_series(req)
        counts = _blowup_fixed_point_counts(req.rank, req.k, req.max_n)
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    if y0 is not None:
        series = series.at_y(y0)
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
            "y_mode": "symbolic" if y0 is None else f"numeric:{y0}",
            "prng": PRNG_NAME,
        },
        "series": series.to_json(),
        "fixed_point_counts": counts,
    }
    if include_timing:
        report["wall_clock_seconds"] = elapsed
    return report
