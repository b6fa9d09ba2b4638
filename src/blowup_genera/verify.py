"""End-to-end verification drivers with structured, reproducible reports.

Each driver computes both sides of one identity at several seeded
specializations and compares exactly, coefficient by coefficient, and
every check is multiplicative (zhat == yk * z): no series is inverted.
The quotient route zhat * z^-1 and its lattice y-signs are read from the
products.  The plane series starts at 1, so multiplying by it is
invertible through q^order: zhat * z^-1 agrees with a factor F through
q^order exactly when zhat agrees with F * z.

Specializations that collide with a weight (some theta factor would
degenerate) are resampled at seed + 1, and every reseed is recorded in
the report's params["reseeds"]; after MAX_RESEEDS degenerate draws in a
row a driver raises ReseedLimitError from the last degenerate one.  The
report is the one record of a run: nothing is logged, and the CLI prints
its stderr from the reports.  Reports are deterministic functions of
(parameters, seeds); wall-clock time is kept out of the canonical JSON
so repeated runs are byte-identical.

The rank-r drivers draw their specializations and take their series
through a SeriesMemo, which keeps each specialization and each finished
series by value and serves a request whole from the longest series of
its shape built so far, when that one reaches far enough (see SeriesMemo
for why that is exact).  Every series is built with y symbolic; a driver
that checks at a numeric y0 evaluates the finished pair once
(QSeries.at_y), so the corollary's y = 1 and y = 0 checks at one seed
share one build.  verify_all, the documented grid, makes one memo per
rank and hands it to every driver of that rank, so the corollary's
series come from the main theorem's builds, the limit check's shorter
equivariant series from the main theorem's longer ones, and the blow-up
series at one seed share the pair factors of its specialization; the
memo is dropped when the next rank starts.  The rank-one identity is the
blow-up formula at r = 1, k = 0 read in q^2, so it takes its series from
the same memo: in the grid it runs first at rank 1, and the r = 1 main
theorem finds every series it asks for already built.  A driver called
on its own gets a memo of its own from _start and builds what it meets,
so its report is the same either way.

The grid's three units, ranks 1, 2 and 3, share no memo, so verify_all
runs them on two CPUs where it can: this process forks one child for
ranks 1 and 3, which sends its reports back through a pipe as marshal
data (each report's field tuple), and runs rank 2 itself.  The reports
are joined in grid order, as one process would return them.  The grid
stays in this process when it may use only one CPU, when os.fork is
missing, when another thread runs or when the pipe or the fork cannot
be made.  A grid whose forked run fails, because a unit raised in
either process or the child was killed, runs again whole in this
process, so it raises exactly what the grid in one process raises.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import marshal
import os
import threading
import time
from fractions import Fraction

from . import rank1
from .blowup_factor import yk_euler, yk_hol, yk_main
from .characters import DegenerateSpecializationError
from .coefficients import (
    DEFAULT_SEED_BASE,
    DEFAULT_SEED_COUNT,
    PRNG_NAME,
    sample_specialization,
)
from .genera import EQUIVARIANT, LIMIT, SeriesRequest, z_series, zhat_series
from .partitions import blowup_max_n, blowup_virtual_dim, check_k, check_verify_order
from .qseries import QSeries
from .records import Record

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
    return blowup_virtual_dim(r, k, per_rank.get(r, 1))


class VerificationReport(Record):
    """One driver run: its check, parameters, outcome, details and conventions.

    An immutable record, built whole by _finish; some of its fields are
    dicts, so hashing it raises TypeError.  details defaults to a new
    empty list and conventions to a new copy of CONVENTIONS, so no two
    reports share either.
    """

    __slots__ = _fields = ("name", "params", "outcome", "details", "conventions", "timing_seconds")

    def __init__(self, name: str, params: dict, outcome: bool, details: list[str] | None = None,
                 conventions: dict | None = None, timing_seconds: float = 0.0):
        self._set(
            name, params, outcome, [] if details is None else details,
            dict(CONVENTIONS) if conventions is None else conventions, timing_seconds,
        )

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


class ReseedLimitError(RuntimeError):
    """MAX_RESEEDS specializations in a row were degenerate."""


class SeriesMemo:
    """Specializations and finished series that the drivers of one run share.

    Specializations are keyed by (r, seed), so every build at one seed
    meets the same object, with its weight and pair-factor memos.

    Series are kept one per shape (kind, rank, spec, k, mode), spec by
    value: the longest build that returned, with its max_n.  series()
    serves a request with max_n up to that one the stored series whole,
    and builds any other, whose build replaces the entry.

    So a served series may run past the request's order, and no report
    changes: every driver compares through its own order, a product's
    coefficient below the lower of its two orders depends only on known
    coefficients, and a coefficient depends only on the fixed points of
    its degree, so a longer build agrees with a shorter one through the
    shorter one's order.  A longer build meets a superset of the weights
    of a shorter one, and degeneracy depends only on the values p/q of
    the weights met, so a request served here would have returned if
    built.  A degenerate build raises and is never stored, so every
    driver reseeds and records it as it would on its own.
    """

    def __init__(self):
        self.specs = {}
        self.built = {}

    def specialization(self, r: int, seed: int):
        spec = self.specs.get((r, seed))
        if spec is None:
            # looked up at call time, so a wrapper installed on it sees every draw
            spec = self.specs[r, seed] = sample_specialization(r, seed)
        return spec

    def series(self, kind: str, req: SeriesRequest):
        shape = (kind, req.rank, req.spec, req.k, req.mode)
        max_n, series = self.built.get(shape, (-1, None))
        if req.max_n > max_n:
            # looked up as module attributes at call time, so a wrapper
            # installed on them (perfbench/spans.py) sees every build
            build = z_series if kind == "z" else zhat_series
            series = build(req)
            self.built[shape] = req.max_n, series
        return series


def _build_with_reseed(build, r: int, seed: int, retries: list[str], memo: SeriesMemo):
    """Run ``build(spec)``, resampling at seed+1 on degenerate collisions.

    The specializations come from memo, the driver's memo from _start.
    After MAX_RESEEDS degenerate draws in a row it raises ReseedLimitError
    from the last DegenerateSpecializationError, which names its weight.
    """
    current = seed
    last = None
    for _ in range(MAX_RESEEDS):
        spec = memo.specialization(r, current)
        try:
            return build(spec), current
        except DegenerateSpecializationError as exc:
            nxt = current + 1
            retries.append(f"seed {current} degenerate ({exc}); resampling with seed {nxt}")
            current, last = nxt, exc
    raise ReseedLimitError(f"no nondegenerate specialization found near seed {seed}") from last


def _series_pair(r, k, order, seed, y0, mode, retries, memo):
    """Plane and blow-up series at one (possibly reseeded) specialization, through memo.

    The series are built with y symbolic; a rational y0 evaluates both at y0.
    """
    z_max_n = blowup_max_n(r, 0, order)
    zhat_max_n = blowup_max_n(r, k, order)

    def build(spec):
        z_req = SeriesRequest(rank=r, max_n=z_max_n, spec=spec, k=0, mode=mode)
        zhat_req = SeriesRequest(rank=r, max_n=zhat_max_n, spec=spec, k=k, mode=mode)
        return memo.series("z", z_req), memo.series("zhat", zhat_req)

    (z, zhat), used_seed = _build_with_reseed(build, r, seed, retries, memo)
    if y0 is not None:
        z, zhat = z.at_y(y0), zhat.at_y(y0)
    return z, zhat, used_seed


def _start(r: int, k: int, order: int | None, seeds, memo: SeriesMemo | None):
    """Check k; the order, seeds and memo of one driver run, and its start time.

    None takes default_order(r, k), default_seeds() or a fresh SeriesMemo.
    An empty seed list or an order below the first blow-up degree k(r-k)
    (check_verify_order), either of which would check nothing, raises
    ValueError.
    """
    check_k(r, k)
    seeds = default_seeds() if seeds is None else tuple(seeds)
    if not seeds:
        raise ValueError("a verification run needs at least one seed")
    order = default_order(r, k) if order is None else order
    check_verify_order(r, k, order)
    return order, seeds, SeriesMemo() if memo is None else memo, time.perf_counter()


def _finish(
    name: str, params: dict, ok: bool, details: list[str], seeds, retries: list[str], t0: float,
    **conventions,
) -> VerificationReport:
    """The whole report of one driver run.

    params gains the seeds and reseeds, CONVENTIONS the keyword
    arguments, and timing_seconds is the wall time since t0.
    """
    return VerificationReport(
        name=name,
        params={**params, "seeds": list(seeds), "reseeds": retries},
        outcome=ok,
        details=details,
        conventions={**CONVENTIONS, **conventions},
        timing_seconds=time.perf_counter() - t0,
    )


def verify_main_theorem(
    r: int,
    k: int,
    order: int | None = None,
    seeds=None,
    mode: str = EQUIVARIANT,
    *,
    memo: SeriesMemo | None = None,
) -> VerificationReport:
    """Check zhat == yk_main * z through q^order at every seeded specialization.

    The blow-up factor coefficients are universal polynomials in y, so the
    same series must appear at every specialization.  Also records which
    lattice y-sign convention the quotient zhat * z^-1 matches (both, by
    the reversal symmetry), read from zhat against yk_main * z for either
    sign.  The series come through memo, a fresh SeriesMemo for None.
    """
    order, seeds, memo, t0 = _start(r, k, order, seeds, memo)
    details: list[str] = []
    retries: list[str] = []
    ok = True
    yk_plus = yk_main(r, k, order, y_sign=+1)
    yk_minus = yk_main(r, k, order, y_sign=-1)
    sign_matches = {"plus": True, "minus": True}
    for seed in seeds:
        z, zhat, used_seed = _series_pair(r, k, order, seed, None, mode, retries, memo)
        product = yk_plus * z
        bad = zhat.first_difference(product, order)
        if bad is not None:
            ok = sign_matches["plus"] = False
            details.append(
                f"seed {used_seed}: zhat != yk*z first at q^{bad}: "
                f"{zhat.coefficient(bad)!r} vs {product.coefficient(bad)!r}"
            )
            details.append(f"seed {used_seed}: quotient route disagrees with yk (+ sign)")
        if zhat.first_difference(yk_minus * z, order) is not None:
            sign_matches["minus"] = False
            details.append(f"seed {used_seed}: quotient disagrees with the - sign variant")
    return _finish(
        "main-theorem-blowup-factor",
        {"r": r, "k": k, "order": order, "mode": mode, "y_mode": "symbolic"},
        ok, details, seeds, retries, t0, lattice_y_sign_match=sign_matches,
    )


def verify_corollary(
    r: int, k: int, order: int | None = None, seeds=None, *, memo: SeriesMemo | None = None
) -> VerificationReport:
    """Euler and holomorphic branches of the blow-up identity.

    At y = 1 every theta factor is 1, so coefficients count fixed points
    and the factor must equal yk_euler; yk_main evaluated at y = 1 must
    agree as well.  At y = 0 the quotient must equal yk_main at y = 0,
    and the report records the known gap between that value, q^(k(r-k)),
    and the stated table value 0 for 0 < k < r as a documented
    discrepancy rather than a failure.  The series come through memo, a
    fresh SeriesMemo for None.
    """
    order, seeds, memo, t0 = _start(r, k, order, seeds, memo)
    details: list[str] = []
    retries: list[str] = []
    ok = True

    euler = yk_euler(r, k, order)
    main_at_one = yk_main(r, k, order).at_y(Fraction(1))
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
            z, zhat, used_seed = _series_pair(
                r, k, order, seed, y0, EQUIVARIANT, retries, memo
            )
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
    r: int, k: int, order: int | None = None, seeds=None, *, memo: SeriesMemo | None = None
) -> VerificationReport:
    """Equivariant-mode and limit-mode quotients agree (cross-multiplied).

    Checks zhat_eq * z_lim == zhat_lim * z_eq through q^order and that the
    limit-mode pair reproduces the same yk_main factor.  The series come
    through memo, a fresh SeriesMemo for None.

    Only the equivariant pair can reseed.  A limit build meets the same
    characters as the equivariant build of its shape, but checks only
    their pure t-monomials; a weight with an e-part goes to the limit case
    table and is never evaluated.  So once the equivariant pair returns at
    a seed, the limit pair at that seed returns too.
    """
    order, seeds, memo, t0 = _start(r, k, order, seeds, memo)
    details: list[str] = []
    retries: list[str] = []
    ok = True
    yk = yk_main(r, k, order)
    for seed in seeds:
        z_eq, zhat_eq, used = _series_pair(r, k, order, seed, None, EQUIVARIANT, retries, memo)
        z_lim, zhat_lim, _ = _series_pair(r, k, order, used, None, LIMIT, retries, memo)
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


def _halve_grading(series: QSeries) -> QSeries:
    """A series supported on even exponents, read in q^2: q^(2m) becomes q^m."""
    terms = {e // 2: c for e, c in series.items()}
    return QSeries.from_terms(terms, (series.order + 1) // 2)


def verify_rank1_identity(
    order: int, seeds=None, *, memo: SeriesMemo | None = None
) -> VerificationReport:
    """Check W(t1, t2/t1) * W(t1/t2, t2) == prod (1 - (yq)^n)^-1 * W(t1, t2) through q^order.

    Read in q^2, the r = 1, k = 0 blow-up series is W(t1, t2/t1) *
    W(t1/t2, t2) and the plane series is W(t1, t2) (see rank1).  So at
    each seed (default_seeds() for None) this takes the main theorem's
    pair at order 2 * order through memo (a fresh SeriesMemo for None),
    reseeding as the main theorem does, halves its grading and compares
    multiplicatively.
    """
    order, seeds, memo, t0 = _start(1, 0, order, seeds, memo)
    details: list[str] = []
    retries: list[str] = []
    ok = True
    rhs = rank1.nekrasov_okounkov_rhs(order)
    for seed in seeds:
        z, zhat, used = _series_pair(1, 0, 2 * order, seed, None, EQUIVARIANT, retries, memo)
        bad = _halve_grading(zhat).first_difference(rhs * _halve_grading(z), order)
        if bad is not None:
            ok = False
            details.append(f"seed {used}: first failure at q^{bad}")
    return _finish(
        "rank1-product-identity", {"order": order}, ok, details, seeds, retries, t0
    )


def _rank_reports(r: int, seeds) -> list[VerificationReport]:
    """The drivers of rank r, on one SeriesMemo.

    At rank 1 the rank-one identity at the first three seeds comes first;
    at order 8 it asks for exactly the series the main theorem then
    finds in the memo.  Then for each k the main theorem, the corollary
    and the limit check.
    """
    memo = SeriesMemo()
    reports = [verify_rank1_identity(8, seeds[:3], memo=memo)] if r == 1 else []
    for k in range(r):
        lim_order = blowup_virtual_dim(r, k, min(2, 8 // r))
        reports.append(verify_main_theorem(r, k, seeds=seeds, memo=memo))
        reports.append(verify_corollary(r, k, seeds=seeds, memo=memo))
        reports.append(verify_limit_consistency(r, k, lim_order, seeds, memo=memo))
    return reports


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_forked(here, there) -> tuple[list[list], list[list]] | None:
    """The reports of each unit of here, run in this process, and of there, in one forked child.

    The child sends its reports through a pipe as one marshal message: the
    field tuple (Record._key) of each report, unit by unit.  A unit that
    raises there sends nothing and ends the child with exit status 1; the
    child always ends with os._exit, so it never returns into its
    caller's frames.  Here each report is rebuilt through its constructor.
    A unit that raises here kills and reaps the child at once; an
    interrupt does so too and propagates.  gc.freeze keeps the collector
    off the objects both processes start with.

    Returns None, with nothing left open and no child left, when the pipe
    or the fork cannot be made (a file or process limit, say), when a
    unit here raised or when the child's exit status is nonzero.  The
    caller then runs every unit in one process, which raises what it
    raises there.
    """
    gc.freeze()
    try:
        try:
            read_fd, write_fd = os.pipe()
        except OSError:
            return None
        with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
            try:
                pid = os.fork()
            except OSError:
                return None
            if pid == 0:
                code = 1
                try:
                    reader.close()
                    # encoded whole first, so a unit that raises sends nothing
                    writer.write(marshal.dumps([[rep._key() for rep in unit()] for unit in there]))
                    writer.close()
                    code = 0
                finally:
                    os._exit(code)
            writer.close()
            try:
                reports = [unit() for unit in here]
                data = reader.read()
            except BaseException as exc:
                import signal

                os.kill(pid, signal.SIGKILL)
                if not isinstance(exc, Exception):
                    raise
                return None
            finally:
                _, status = os.waitpid(pid, 0)
    finally:
        gc.unfreeze()
    if status:  # the child's unit raised, or the child was killed
        return None
    return reports, [[VerificationReport(*key) for key in unit] for unit in marshal.loads(data)]


def verify_all(seeds) -> list[VerificationReport]:
    """The documented default grid, one report per driver run, in a fixed order.

    For r = 1, 2, 3 the drivers of _rank_reports: at rank 1 the rank-one
    identity at the first three seeds, then for each k the main theorem,
    the corollary and the limit consistency at its grid order.  The
    drivers of one rank share one SeriesMemo, which is dropped when the
    next rank starts, so the rank-one identity builds no series of its
    own.  An empty seed list raises ValueError, as it does in every
    driver.

    The three units, one per rank, share nothing, so where this process
    may use two CPUs, os.fork exists and no other thread runs, ranks 1
    and 3 run in a forked child and rank 2 here, and the reports are
    joined in grid order.  Otherwise, and whenever that attempt returns
    None (a unit in either process raised, the child was killed, or the
    pipe or the fork could not be made), all three units run here, one
    after the other: so a failing grid raises what the grid in one
    process raises, traceback and chain of causes included.
    """
    seeds = tuple(seeds)
    units = [functools.partial(_rank_reports, r, seeds) for r in (1, 2, 3)]
    forked = None
    if _usable_cpus() >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        forked = _run_forked(units[1::2], units[0::2])
    if forked is None:
        return [rep for unit in units for rep in unit()]
    here, there = forked
    pairs = itertools.zip_longest(there, here, fillvalue=[])
    return [rep for pair in pairs for unit in pair for rep in unit]
