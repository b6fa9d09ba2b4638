"""End-to-end verification drivers with structured, reproducible reports.

Each driver computes both sides of one identity at several seeded
specializations and compares exactly, coefficient by coefficient.  The
primary check direction is multiplicative (zhat == yk * z), which never
inverts a series; the quotient route zhat * z^-1 is kept as a secondary
check since the plane series always starts at 1.

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
series by value and serves a request from what it holds when it can: the
request itself or a truncation of a longer series of the same shape (see
SeriesMemo for the three rules and why each is exact).  Every series is
built with y symbolic; a driver that checks at a numeric y0 evaluates
the finished pair once (QSeries.at_y), so the corollary's y = 1 and
y = 0 checks at one seed share one build.  verify_all, the documented
grid, makes one memo per rank and hands it to every driver of that rank,
so the corollary's series come from the main theorem's builds, the limit
check's shorter equivariant series from the main theorem's longer ones,
and the blow-up series at one seed share the pair factors of its
specialization; the memo is dropped when the next rank starts.  The
rank-one identity is the blow-up formula at r = 1, k = 0 read in q^2, so
it takes its series from the same memo: in the grid it runs first at
rank 1, and the r = 1 main theorem finds every series it asks for
already built.  A driver called on its own gets a memo of its own from
_start and builds what it meets, so its report is the same either way.

The grid's three units, ranks 1, 2 and 3, share no memo, so verify_all
runs them on two CPUs where it can: this process forks one child for
ranks 1 and 3, which sends its reports back through a pipe as marshal
data (each report's field tuple, and a unit's exception pickled only
when one raised), and runs rank 2 itself.  The reports are joined in
grid order, as one process would return them.  The grid stays in this
process when it may use only one CPU, when os.fork is missing, when
another thread runs or when the pipe or the fork cannot be made.
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

    Series are keyed by (kind, SeriesRequest), which hashes by value, and
    series() serves a request from the first of these that holds:

    1. the request itself was served before;
    2. a returned series of the same kind, rank, spec, k and mode has a
       larger max_n: it is cut with QSeries.truncate;
    3. otherwise the series is built.

    Both reuse rules are exact.  The coefficient of one degree depends
    only on the fixed points of that degree, and a longer build meets a
    superset of the weights of a shorter one, so a truncation equals the
    shorter build.  Whether a build is degenerate depends only on the
    values p/q of the weights it meets, so a request served by rule 2
    would have returned if built.  Only a series that returns is stored:
    a degenerate build raises again each time it is met, so every driver
    reseeds and records it as it would on its own.
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
        series = self.built.get((kind, req))
        if series is None:
            for (other_kind, other), longer in self.built.items():
                if (other_kind == kind and other.max_n > req.max_n
                        and (other.rank, other.spec, other.k, other.mode)
                        == (req.rank, req.spec, req.k, req.mode)):
                    k = 0 if kind == "z" else req.k
                    order = blowup_virtual_dim(req.rank, k, req.max_n) + 1
                    series = longer.truncate(order)
                    break
            else:
                # looked up as module attributes at call time, so a wrapper
                # installed on them (perfbench/spans.py) sees every build
                build = z_series if kind == "z" else zhat_series
                series = build(req)
            self.built[kind, req] = series
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
    same series must appear at every specialization.  Also runs the
    inversion route zhat * z^-1 and records which lattice y-sign
    convention the quotient matches (both, by the reversal symmetry).
    The series come through memo, a fresh SeriesMemo for None.
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


def _run_units(units) -> list[tuple]:
    """(reports, exception or None) of each unit, up to the first that raises."""
    outcomes = []
    for unit in units:
        try:
            outcomes.append((unit(), None))
        except Exception as exc:
            outcomes.append(([], exc))
            break
    return outcomes


def _causes(exc) -> list[BaseException]:
    """The chain of causes of exc (or None), outermost first, which pickle does not keep."""
    chain = []
    while exc is not None and exc.__cause__ is not None:
        exc = exc.__cause__
        chain.append(exc)
    return chain


def _run_forked(here, there) -> tuple[list[tuple], list[tuple]] | None:
    """_run_units of here in this process and of there in one forked child.

    The child sends its outcomes through a pipe as one marshal message:
    the field tuple (Record._key) of each report, unit by unit, and, when
    a unit raised, its exception pickled with its chain of causes (see
    _causes); pickle is imported only then.  The child always ends with
    os._exit, so it never returns into its caller's frames.  Here each
    report is rebuilt through its constructor and each chain is linked
    back, so an error from the child names its cause as it would here.
    Any exception here kills and reaps the child first.  gc.freeze keeps
    the collector off the objects both processes start with.  Returns
    None, with no unit run and nothing left open, when the pipe or the
    fork cannot be made (a file or process limit, say).
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
                    outcomes = _run_units(there)
                    error = outcomes[-1][1] if outcomes else None
                    if error is not None:
                        import pickle

                        error = pickle.dumps((error, _causes(error)), pickle.HIGHEST_PROTOCOL)
                    # encoded whole first, so a failure sends nothing
                    keys = [[rep._key() for rep in reports] for reports, _ in outcomes]
                    writer.write(marshal.dumps((keys, error)))
                    writer.close()
                    code = 0
                finally:
                    os._exit(code)
            writer.close()
            try:
                outcomes = _run_units(here)
                data = reader.read()
            except BaseException:
                import signal

                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                _, status = os.waitpid(pid, 0)
    finally:
        gc.unfreeze()
    if not data:
        raise RuntimeError(
            f"verify_all's child process ended with exit status "
            f"{os.waitstatus_to_exitcode(status)} before sending its reports"
        )
    keys, error = marshal.loads(data)
    there = [([VerificationReport(*key) for key in unit], None) for unit in keys]
    if error is not None:
        import pickle

        exc, chain = pickle.loads(error)
        there[-1] = ([], exc)
        for cause in chain:
            exc.__cause__ = cause
            exc = cause
    return outcomes, there


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
    and 3 run in a forked child and rank 2 here.  The reports are then
    joined in grid order, and the first unit in grid order that raised
    re-raises here.  When the pipe or the fork cannot be made, all three
    units run here.
    """
    seeds = tuple(seeds)
    units = [functools.partial(_rank_reports, r, seeds) for r in (1, 2, 3)]
    forked = None
    if _usable_cpus() >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        forked = _run_forked(units[1::2], units[0::2])
    if forked is None:
        return [rep for unit in units for rep in unit()]
    here, there = forked
    reports = []
    for outcome in itertools.chain.from_iterable(itertools.zip_longest(there, here)):
        if outcome is None:
            # a unit its process never had (the child has one more), or one
            # it never reached after a unit that raised, which re-raised above
            continue
        unit_reports, error = outcome
        if error is not None:
            raise error
        reports += unit_reports
    return reports
