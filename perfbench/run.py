"""Benchmark of the blowup-genera command line, timed from outside the program.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is the package under
``src/`` and runs as ``python3 -m blowup_genera.cli``.  Each workload is a
closed loop of one CLI process at a time.  A run measures set-up time,
then repeats whole rounds of the workload's calls for about ``--seconds``
seconds, each call in a fresh process (the program's ``lru_cache``s are
process-wide), checks every output against independent computations,
and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``cpu_s``, ``peak_rss_mb``, ``setup_s``, medians over rounds).  With
``--trace 1`` every round runs each call untraced and then traced by
``spans.py``, and the metrics are the per-layer table plus the tracing
overhead.  Progress and any failed check go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"
SPANS_SCRIPT = Path(__file__).resolve().parent / "spans.py"

CALL_TIMEOUT_S = 150
MAX_REDRAWS = 5  # degenerate seeds dropped in a row before the round counts as failed
SETUP_SAMPLES_PER_ROUND = 10
SETUP_PROBE = "import time, blowup_genera.cli; print(time.monotonic_ns())"
DEGENERATE = b"blowup_genera.characters.DegenerateSpecializationError:"
Y0 = Fraction(2, 3)  # the rational y of the numeric cross-checks, neither 0 nor 1


@dataclass
class Call:
    args: list[str]
    ops: int  # operations this call performs


@dataclass
class Result:
    call: Call
    wall_s: float
    cpu_s: float
    rss_kib: int
    code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None


@dataclass
class Tally:
    """Operations attempted and failed, and what any check found wrong."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    wrong_outputs: list[str] = field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.failures.append(why)

    def wrong(self, why: str) -> None:
        self.wrong_outputs.append(why)


def clean_env() -> dict[str, str]:
    """The caller's environment without the program's cache setting or Python tuning."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "BLOWUP_GENERA_CACHE" and not key.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def run_call(call: Call, env, scratch: Path, traced: bool) -> Result:
    """Run one CLI call in a fresh process: wall time from launch to exit, and its rusage."""
    trace_path = scratch / "spans.json"
    if traced:
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(SPANS_SCRIPT), str(trace_path), "--", *call.args]
    else:
        cmd = [sys.executable, "-m", "blowup_genera.cli", *call.args]
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if traced and proc.returncode == spans.TRACER_FAULT:
        raise SystemExit(f"tracing {' '.join(call.args)} failed: "
                         f"{err_path.read_bytes().decode(errors='replace').strip()}")
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return Result(call, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                  out_path.read_bytes(), err_path.read_bytes(), trace)


def setup_samples(env, count: int) -> list[float]:
    """Times from interpreter launch until blowup_genera.cli is imported."""
    samples = []
    for _ in range(count):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env, cwd=ROOT, capture_output=True, check=True, timeout=60,
        )
        samples.append((int(done.stdout) - start) * 1e-9)
    return samples


def series_of(result: Result) -> dict:
    return json.loads(result.stdout)["series"]


def is_degenerate(result: Result) -> bool:
    """The call died of a specialization that made a theta factor 0/0."""
    last_line = result.stderr.rstrip().rpartition(b"\n")[2]
    return result.code == 1 and last_line.startswith(DEGENERATE)


# -- workloads --------------------------------------------------------------


class Workload:
    """Rounds of CLI calls; a seeded workload draws a new CLI seed each round."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seeds: dict[int, int] = {}
        self.dropped: list[int] = []

    def seed_for(self, round_index: int) -> int:
        if round_index not in self.seeds:
            self.seeds[round_index] = self.rng.randrange(1, 2**31)
        return self.seeds[round_index]

    def calls(self, round_index: int) -> list[Call]:
        raise NotImplementedError

    def admissible(self, results: list[Result]) -> bool:
        """Whether the round's seed is inside the domain of its operations."""
        return True

    def redraw(self, round_index: int) -> None:
        seed = self.seeds.pop(round_index)
        self.dropped.append(seed)
        print(f"{self.name}: seed {seed} degenerates, drawing another", file=sys.stderr)

    def check(self, rounds: list[list[Result]], tally: Tally, env, scratch) -> None:
        raise NotImplementedError

    def extra_layers(self, results: list[Result]) -> dict[str, tuple[float, str]]:
        return {"verify.reseeds": (0, "count")}


class VerifyGrid(Workload):
    """``verify-all`` at one generated seed per round: the documented grid."""

    name = "verify-grid"
    # verify-all runs the rank-one identity and, for r = 1, 2, 3 and every
    # 0 <= k < r, the main theorem, the corollary and the limit check
    reports = 1 + 3 * sum(range(1, 4))

    def calls(self, round_index: int) -> list[Call]:
        return [Call(["verify-all", "--seed-list", str(self.seed_for(round_index))], self.reports)]

    def check(self, rounds: list[list[Result]], tally: Tally, env, scratch) -> None:
        by_args: dict[tuple, bytes] = {}
        repeated = False
        for results in rounds:
            (res,) = results
            seed = int(res.call.args[-1])
            try:
                reports = json.loads(res.stdout)["reports"]
            except (ValueError, KeyError):
                tally.fail(self.reports, f"verify-all exited {res.code}: {res.stderr[-300:]!r}")
                continue
            if len(reports) != self.reports:
                tally.wrong(f"{len(reports)} reports instead of {self.reports}")
            for rep in reports:
                if rep.get("outcome") != "pass":
                    tally.wrong(f"report {rep.get('check')} {rep.get('params')} did not pass")
                if rep["params"].get("seeds", [seed])[:1] != [seed]:
                    tally.wrong(f"report {rep.get('check')} ran at seeds "
                                f"{rep['params'].get('seeds')}")
            key = tuple(res.call.args)
            if key in by_args:
                repeated = True
                if by_args[key] != res.stdout:
                    tally.wrong(f"two repetitions of verify-all at seed {seed} gave different JSON")
            by_args[key] = res.stdout
        if not repeated and by_args:
            # every call ran once: repeat one, outside the timed loop
            res = next(r for rs in rounds for r in rs if tuple(r.call.args) in by_args)
            again = run_call(res.call, env, scratch, traced=False)
            if again.stdout != res.stdout:
                tally.wrong(f"two repetitions of {' '.join(res.call.args)} gave different JSON")

    def extra_layers(self, results: list[Result]) -> dict[str, tuple[float, str]]:
        reseeds = 0
        for res in results:
            try:
                reports = json.loads(res.stdout)["reports"]
            except (ValueError, KeyError):
                continue
            reseeds += sum(len(rep["params"].get("reseeds", [])) for rep in reports)
        return {"verify.reseeds": (reseeds, "count")}


class ZhatFrontier(Workload):
    """One large symbolic-y blow-up series per round."""

    name = "zhat-frontier"
    rank, k, max_n = 2, 1, 5

    def calls(self, round_index: int) -> list[Call]:
        return [Call(["compute-zhat", "--rank", str(self.rank), "--k", str(self.k),
                      "--max-n", str(self.max_n), "--seed", str(self.seed_for(round_index))], 1)]

    def admissible(self, results: list[Result]) -> bool:
        # compute-zhat does not reseed a degenerate specialization as the
        # verify drivers do: it dies of it, so such a seed is left out
        return not any(is_degenerate(res) for res in results)

    def check(self, rounds: list[list[Result]], tally: Tally, env, scratch) -> None:
        r, k = self.rank, self.k
        counts = ref.blowup_fixed_point_counts(r, k, self.max_n)
        base, step = k * (r - k), 2 * r
        checked_y0 = succeeded = False
        for results in rounds:
            (res,) = results
            if res.code != 0:
                tally.fail(1, f"compute-zhat exited {res.code}: {res.stderr[-300:]!r}")
                continue
            succeeded = True
            payload = json.loads(res.stdout)
            got_counts = {int(d): n for d, n in payload["fixed_point_counts"].items()}
            if got_counts != counts:
                tally.wrong(f"fixed_point_counts {got_counts} != independent {counts}")
            series = payload["series"]
            at_one = ref.dense(series, lambda c: ref.evaluate_coefficient(c, 1))
            for degree, value in enumerate(at_one):
                if value and (degree - base) % step:
                    tally.wrong(f"nonzero coefficient at q^{degree}, off the k(r-k) mod 2r grid")
                if value != counts.get(degree, 0):
                    tally.wrong(f"coefficient of q^{degree} at y=1 is {value}, "
                                f"expected {counts.get(degree, 0)} fixed points")
            if not checked_y0:
                checked_y0 = self.check_at_y0(res, series, tally, env, scratch)
        if succeeded and not checked_y0:
            tally.wrong("no seed admitted the Zhat(y0) = Y_k(y0) Z(y0) check")

    def check_at_y0(self, res: Result, series: dict, tally: Tally, env, scratch) -> bool:
        """Zhat(y0) = Y_k(y0) * Z(y0) through the series order, outside the timed loop."""
        seed = res.call.args[res.call.args.index("--seed") + 1]
        order = series["order"]
        z_res = run_call(
            Call(["compute-z", "--rank", str(self.rank), "--order", str(order - 1),
                  "--seed", seed, "--y-mode", "numeric", "--y0", str(Y0)], 0),
            env, scratch, traced=False,
        )
        if is_degenerate(z_res):
            return False
        if z_res.code != 0:
            tally.wrong(f"compute-z exited {z_res.code}: {z_res.stderr[-300:]!r}")
            return True
        z = ref.dense(series_of(z_res), Fraction)[:order]
        expected = ref.multiply(ref.blowup_factor_at(self.rank, self.k, order - 1, Y0), z)
        zhat = ref.dense(series, lambda c: ref.evaluate_coefficient(c, Y0))
        for degree, (got, want) in enumerate(zip(zhat, expected)):
            if got != want:
                tally.wrong(f"seed {seed}: Zhat != Y_k Z at y={Y0}, first at q^{degree}")
                break
        return True


class YkClosedForms(Workload):
    """The three closed forms of Y_k at a high-rank and a high-order shape.

    compute-yk draws nothing at random, so the seed changes no input here.
    """

    name = "yk-closed-forms"
    forms = ("main", "gottsche", "euler")
    # (rank, k, order): the lattice box scan grows exponentially with rank,
    # the Euler product over y-polynomials with the cube of the order
    shapes = ((6, 3, 35), (3, 1, 200))

    def calls(self, round_index: int) -> list[Call]:
        return [
            Call(["compute-yk", "--rank", str(r), "--k", str(k), "--order", str(order),
                  "--form", form], 1)
            for r, k, order in self.shapes
            for form in self.forms
        ]

    def check(self, rounds: list[list[Result]], tally: Tally, env, scratch) -> None:
        first = None
        for results in rounds:
            outputs = []
            for res in results:
                if res.code != 0:
                    tally.fail(1, f"{' '.join(res.call.args)} exited {res.code}: "
                                  f"{res.stderr[-300:]!r}")
                outputs.append(res.stdout if res.code == 0 else None)
            if first is None:
                first = outputs
                self.check_forms(results, tally)
            elif outputs != first:
                tally.wrong("compute-yk gave different output on a repetition")
    def check_forms(self, results: list[Result], tally: Tally) -> None:
        by_call = {tuple(res.call.args): res for res in results if res.code == 0}
        for r, k, order in self.shapes:
            got = {}
            for form in self.forms:
                key = ("compute-yk", "--rank", str(r), "--k", str(k), "--order", str(order),
                       "--form", form)
                if key in by_call:
                    got[form] = series_of(by_call[key])
            if len(got) != len(self.forms):
                continue
            label = f"r={r} k={k} order={order}"
            main = ref.dense(got["main"], ref.parse_coefficient)
            if main != ref.dense(got["gottsche"], ref.parse_coefficient):
                tally.wrong(f"{label}: main and gottsche forms differ")
            main_at_one = ref.dense(got["main"], lambda c: ref.evaluate_coefficient(c, 1))
            if main_at_one != ref.dense(got["euler"], Fraction):
                tally.wrong(f"{label}: main at y=1 differs from the euler form")
            if main_at_one != ref.blowup_factor_at(r, k, order, 1):
                tally.wrong(f"{label}: main at y=1 differs from the independent y=1 factor")
            main_at_y0 = ref.dense(got["main"], lambda c: ref.evaluate_coefficient(c, Y0))
            if main_at_y0 != ref.blowup_factor_at(r, k, order, Y0):
                tally.wrong(f"{label}: main at y={Y0} differs from the independent product")


WORKLOADS = {
    "verify-grid": VerifyGrid,
    "zhat-frontier": ZhatFrontier,
    "yk-closed-forms": YkClosedForms,
}


# -- the measured loop ------------------------------------------------------


def run_round(workload, index: int, env, scratch: Path, traced: bool, tally: Tally):
    """One round of calls, redrawn until the workload admits its inputs.

    After MAX_REDRAWS seeds dropped in a row the round is kept as it is,
    and the check counts its calls as failed.
    """
    for redraws in range(MAX_REDRAWS + 1):
        results = [run_call(call, env, scratch, traced=False) for call in workload.calls(index)]
        if workload.admissible(results) or redraws == MAX_REDRAWS:
            break
        workload.redraw(index)
    tally.attempted += sum(res.call.ops for res in results)
    traced_results = None
    if traced:
        traced_results = [run_call(res.call, env, scratch, traced=True) for res in results]
        tally.attempted += sum(res.call.ops for res in traced_results)
    return results, traced_results


def end_to_end(rounds: list[list[Result]], setup_s: float) -> dict:
    median = statistics.median
    return {
        "wall_s": {"value": median([sum(r.wall_s for r in rs) for rs in rounds]), "unit": "s"},
        "cpu_s": {"value": median([sum(r.cpu_s for r in rs) for rs in rounds]), "unit": "s"},
        "peak_rss_mb": {
            "value": median([max(r.rss_kib for r in rs) / 1024 for rs in rounds]), "unit": "MiB"
        },
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(workload, plain: list[list[Result]], traced: list[list[Result]]) -> dict:
    tables = []
    for results in traced:
        table = spans.layer_metrics([r.trace for r in results if r.trace is not None])
        table.update(workload.extra_layers(results))
        tables.append(table)
    overhead = [
        sum(r.wall_s for r in t) / sum(r.wall_s for r in p) - 1 for p, t in zip(plain, traced)
    ]
    median = statistics.median
    out = {
        name: {"value": median([table[name][0] for table in tables]), "unit": unit}
        for name, (_value, unit) in tables[0].items()
    }
    out["trace.overhead"] = {"value": median(overhead), "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blowup_genera" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'blowup_genera'} is missing", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the running call is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = clean_env()
    workload = WORKLOADS[args.workload](args.seed)
    traced = bool(args.trace)
    tally = Tally()
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_DIR))
    try:
        # the first launch may write the bytecode cache; it is not counted
        setup_samples(env, 1)
        setup = []
        plain, traced_rounds = [], []
        start = time.perf_counter()
        # whole rounds only, and none that would end past the budget at
        # the mean round time so far; set-up is sampled between rounds so
        # that a slow spell of the machine hits both
        while True:
            results, traced_results = run_round(workload, len(plain), env, scratch, traced, tally)
            print(f"round {len(plain) + 1}: " + " ".join(
                f"{r.wall_s:.3f}s" for r in results + (traced_results or [])), file=sys.stderr)
            plain.append(results)
            if traced:
                traced_rounds.append(traced_results)
            else:
                setup += setup_samples(env, SETUP_SAMPLES_PER_ROUND)
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
        workload.check(plain + traced_rounds, tally, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in tally.failures + [f"wrong output: {w}" for w in tally.wrong_outputs]:
        print(problem, file=sys.stderr)
    if traced:
        metrics = per_layer(workload, plain, traced_rounds)
    else:
        metrics = end_to_end(plain, statistics.median(setup))
    print(f"{args.workload}: {len(plain)} rounds, {tally.attempted} operations, "
          f"{tally.failed} failed, {len(workload.dropped)} degenerate seeds dropped "
          f"{workload.dropped}", file=sys.stderr)
    result = {
        "correct": not tally.wrong_outputs,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
