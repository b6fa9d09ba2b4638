"""Traced run of one blowup-genera CLI call, and the per-layer table.

Run as a script, it imports the package, wraps the public functions of
every module where the calling modules look them up, runs the CLI's
``main`` with the remaining arguments, and writes the recorded spans as
JSON when the call ends:

    python3 perfbench/spans.py SPANS.json -- compute-zhat --rank 2 ...

Imported, ``layer_metrics`` turns the files of one or more such calls
into the per-layer metrics the benchmark reports.

A span is ``[name, start_ns, end_ns, parent, child_ns, work_a, work_b,
raised]``: ``parent`` is the index of the enclosing span (-1 at the
root) and ``child_ns`` the time its direct children took, so a span's
self time is ``end - start - child_ns``.  Spans stay in memory until the
call ends.  Two hot leaf methods are not recorded call by call:
``YPoly.__mul__`` is only counted, and ``YRat.__init__`` is counted and
timed in aggregate, its time still charged to the enclosing span's
children.  The run is single-threaded, so children never overlap and no
layer waits on another.

The tracer fails loudly rather than report a 0 that reads as a gain: if
a module or a function it wraps is missing, a cached function has lost
its cache, or a span's work count cannot be taken from the arguments,
it names the cause on stderr and the script exits with ``TRACER_FAULT``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "blowup_genera"
LAYERS = ("partitions", "coefficients", "qseries", "characters", "genera",
          "rank1", "blowup_factor", "verify", "cli")

# Public functions that form each layer's boundary, by defining module.
SPANNED = {
    "partitions": [
        "enumerate_partitions",
        "enumerate_tuples",
        "enumerate_lattice_vectors",
        "enumerate_blowup_fixed_points",
    ],
    "coefficients": ["sample_specialization"],
    "qseries": ["QSeries.__mul__", "QSeries.__pow__", "QSeries.invert", "euler_product"],
    "characters": ["tangent_p2", "tangent_blowup", "theta_eval", "theta_limit_factor"],
    "genera": ["z_series", "zhat_series", "z_series_limit_closed", "series_report"],
    "rank1": ["hook_character", "w_series", "nekrasov_okounkov_rhs", "verify_nekrasov_okounkov"],
    "blowup_factor": ["lattice_theta_series", "yk_main", "yk_gottsche", "yk_euler", "yk_hol"],
    "verify": [
        "verify_main_theorem",
        "verify_corollary",
        "verify_limit_consistency",
        "verify_rank1_identity",
    ],
}
COUNTED = {"coefficients": ["YPoly.__mul__"]}
TIMED = {"coefficients": ["YRat.__init__"]}
CACHED = ("characters.tangent_p2", "characters.tangent_blowup")

_clock = time.perf_counter_ns
TRACER_FAULT = 70  # exit code of a traced call whose tracing could not be done


class TracerFault(RuntimeError):
    """The program no longer has the shape the tracer wraps."""


def _enumeration_work(args, result):
    return len(result), 0


def _theta_work(args, result):
    items = args[0].sorted_items()
    return len(items), sum(abs(m) for _w, m in items)


WORK = {
    "partitions.enumerate_partitions": _enumeration_work,
    "partitions.enumerate_tuples": _enumeration_work,
    "partitions.enumerate_lattice_vectors": _enumeration_work,
    "partitions.enumerate_blowup_fixed_points": _enumeration_work,
    "characters.theta_eval": _theta_work,
    "characters.theta_limit_factor": _theta_work,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.timers: dict[str, list[int]] = {}
        self.originals: dict[str, object] = {}

    def _charge_parent(self, ns: int) -> None:
        if self.stack:
            self.spans[self.stack[-1]][4] += ns

    def span(self, name, fn):
        spans, stack, work = self.spans, self.stack, WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[7] = 1
                raise
            finally:
                rec[2] = end = _clock()
                stack.pop()
                self._charge_parent(end - start)
            if work is not None:
                try:
                    rec[5], rec[6] = work(args, result)
                except Exception as exc:
                    raise TracerFault(f"cannot count the work of {name}: {exc!r}") from exc
                # the counting is the tracer's cost, not the caller's
                self._charge_parent(_clock() - end)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timer(self, name, fn):
        cell = self.timers[name] = [0, 0]
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                depth[0] = 0
                cell[1] += elapsed
                self._charge_parent(elapsed)

        return wrapper

    def install(self) -> None:
        """Replace every wrapped function in each module that refers to it."""
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ModuleNotFoundError as exc:
                raise TracerFault(f"module {PACKAGE}.{name} not found") from exc
        for table, make in ((SPANNED, self.span), (COUNTED, self.counter), (TIMED, self.timer)):
            for mod_name, attrs in table.items():
                for attr in attrs:
                    self._wrap(modules, mod_name, attr, make)
        for name in CACHED:
            if not hasattr(self.originals[name], "cache_info"):
                raise TracerFault(f"{PACKAGE}.{name} has no cache_info")

    def _wrap(self, modules, mod_name, attr, make) -> None:
        full = f"{mod_name}.{attr}"
        *cls_path, fn_name = attr.split(".")
        owner = modules[mod_name]
        try:
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
        except AttributeError as exc:
            raise TracerFault(f"{PACKAGE}.{full} not found") from exc
        wrapped = make(full, original)
        self.originals[full] = original
        if cls_path:
            # aliases such as ``__rmul__ = __mul__`` share the wrapper
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
            return
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def cache_stats(self) -> dict[str, list[int]]:
        out = {}
        for name in CACHED:
            stats = self.originals[name].cache_info()
            out[name] = [stats.hits, stats.misses]
        return out

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "timers": self.timers,
            "caches": self.cache_stats(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    start = _clock()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer.spans.append(["cli.import", start, _clock(), -1, 0, 0, 0, 0])
    try:
        tracer.install()
        run = tracer.span("cli.main", cli.main)
        try:
            return run(cli_args)
        finally:
            tracer.dump(spans_path)
    except TracerFault as fault:
        print(f"spans.py: {fault}", file=sys.stderr)
        return TRACER_FAULT


# -- the per-layer table ------------------------------------------------------

SECOND = 1e-9
WORK_A, WORK_B = 5, 6  # span fields holding the two work counts


def _merge(traces: list[dict]) -> dict:
    spans, counts, timers, caches = [], {}, {}, {}
    for trace in traces:
        base = len(spans)
        for rec in trace["spans"]:
            rec = list(rec)
            if rec[3] >= 0:
                rec[3] += base
            spans.append(rec)
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, (calls, ns) in trace["timers"].items():
            cell = timers.setdefault(name, [0, 0])
            cell[0] += calls
            cell[1] += ns
        for name, (hits, misses) in trace["caches"].items():
            cell = caches.setdefault(name, [0, 0])
            cell[0] += hits
            cell[1] += misses
    return {"spans": spans, "counts": counts, "timers": timers, "caches": caches}


class _Table:
    def __init__(self, merged: dict):
        self.spans = merged["spans"]
        self.counts = merged["counts"]
        self.timers = merged["timers"]
        self.caches = merged["caches"]

    def _select(self, names):
        names = set(names)
        return [rec for rec in self.spans if rec[0] in names]

    def _has_ancestor(self, rec, names) -> bool:
        parent = rec[3]
        while parent >= 0:
            up = self.spans[parent]
            if up[0] in names:
                return True
            parent = up[3]
        return False

    def inclusive_s(self, *names) -> float:
        """Time inside the outermost span of the group, nested calls counted once."""
        names = set(names)
        return SECOND * sum(
            rec[2] - rec[1] for rec in self._select(names) if not self._has_ancestor(rec, names)
        )

    def self_s(self, *names) -> float:
        return SECOND * sum(rec[2] - rec[1] - rec[4] for rec in self._select(names))

    def calls(self, *names) -> int:
        return len(self._select(names))

    def work(self, field: int, *names, parents=None) -> int:
        return sum(
            rec[field]
            for rec in self._select(names)
            if parents is None or (rec[3] >= 0 and self.spans[rec[3]][0] in parents)
        )

    def under(self, names, ancestors) -> int:
        """Spans of ``names`` that returned normally inside one of ``ancestors``."""
        ancestors = set(ancestors)
        return sum(
            1 for rec in self._select(names) if not rec[7] and self._has_ancestor(rec, ancestors)
        )


TANGENT = ("characters.tangent_p2", "characters.tangent_blowup")
SERIES = ("genera.z_series", "genera.zhat_series")
ENUMERATE = (
    "partitions.enumerate_partitions",
    "partitions.enumerate_tuples",
    "partitions.enumerate_blowup_fixed_points",
)
DRIVERS = tuple(f"verify.{name}" for name in SPANNED["verify"])

# metric name -> span group whose inclusive and self time it reports
TIMED_GROUPS = {
    "partitions.enumerate": ENUMERATE,
    "partitions.lattice": ("partitions.enumerate_lattice_vectors",),
    "characters.tangent": TANGENT,
    "characters.theta": ("characters.theta_eval",),
    "characters.theta_limit": ("characters.theta_limit_factor",),
    "genera.z_series": ("genera.z_series",),
    "genera.zhat_series": ("genera.zhat_series",),
    "qseries.mul": ("qseries.QSeries.__mul__",),
    "qseries.invert": ("qseries.QSeries.invert",),
    "qseries.euler_product": ("qseries.euler_product",),
    "rank1.w_series": ("rank1.w_series",),
    "blowup_factor.yk_main": ("blowup_factor.yk_main",),
    "blowup_factor.yk_gottsche": ("blowup_factor.yk_gottsche",),
    "blowup_factor.yk_euler": ("blowup_factor.yk_euler",),
    "blowup_factor.yk_hol": ("blowup_factor.yk_hol",),
}


def layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), over the given traced calls."""
    t = _Table(_merge(traces))
    out: dict[str, tuple[float, str]] = {}
    for name, group in TIMED_GROUPS.items():
        out[f"{name}_s"] = (t.inclusive_s(*group), "s")
        out[f"{name}_self_s"] = (t.self_s(*group), "s")

    fixed_points = t.work(WORK_A, "partitions.enumerate_tuples",
                          "partitions.enumerate_blowup_fixed_points", parents=SERIES)
    series_s = out["genera.z_series_s"][0] + out["genera.zhat_series_s"][0]
    hits = sum(h for h, _m in t.caches.values())
    lookups = sum(h + m for h, m in t.caches.values())
    yrat_calls, yrat_ns = t.timers.get("coefficients.YRat.__init__", [0, 0])

    out.update({
        "partitions.fixed_points": (fixed_points, "count"),
        "partitions.lattice_vectors": (
            t.work(WORK_A, "partitions.enumerate_lattice_vectors"), "count"
        ),
        "characters.tangent_calls": (t.calls(*TANGENT), "count"),
        "characters.tangent_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "characters.weights": (t.work(WORK_A, "characters.theta_eval"), "count"),
        "characters.theta_calls": (t.calls("characters.theta_eval"), "count"),
        "characters.theta_factors": (t.work(WORK_B, "characters.theta_eval"), "count"),
        "coefficients.ypoly_mul_calls": (t.counts.get("coefficients.YPoly.__mul__", 0), "count"),
        "coefficients.yrat_calls": (yrat_calls, "count"),
        "coefficients.yrat_s": (SECOND * yrat_ns, "s"),
        "genera.accumulate_s": (t.self_s(*SERIES), "s"),
        "genera.fixed_points_per_s": (fixed_points / series_s if series_s else 0.0, "1/s"),
        "qseries.mul_calls": (t.calls("qseries.QSeries.__mul__"), "count"),
        "verify.driver_self_s": (t.self_s(*DRIVERS), "s"),
        "verify.seed_checks": (
            t.under(("genera.zhat_series", "rank1.verify_nekrasov_okounkov"), DRIVERS), "count"
        ),
        "cli.self_s": (t.self_s("cli.import", "cli.main"), "s"),
    })
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
