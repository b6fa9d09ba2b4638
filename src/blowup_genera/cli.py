"""Command-line interface.

Machine-readable JSON goes to stdout (or --output); the verification
commands log progress to stderr with --verbose.  All randomness flows from
explicit seeds (default base 1729, seeds base..base+count-1), so identical
invocations produce identical outputs; wall-clock timing is only included
when --timing is passed.  Each subcommand accepts only the flags it
honours.  Exit codes: 0 success or pass, 1 verification failure, 2 usage
error, including an unknown, conflicting or unused flag, an out-of-range
number, an --output path that is a directory or lies in a missing one
(refused before any computation) and a request whose lattice, or its
lowest layer alone, holds more than partitions.MAX_LATTICE_LAYER vectors.
compute-z and compute-zhat do not reseed: a degenerate seed ends them
with exit 1 and a DegenerateSpecializationError traceback; a verify-*
driver that meets verify.MAX_RESEEDS degenerate seeds in a row ends with
exit 1 and a ReseedLimitError traceback.  Each subcommand imports only
the layers it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .coefficients import (
    DEFAULT_SEED_BASE,
    DEFAULT_SEED_COUNT,
    PRNG_NAME,
    sample_specialization,
)
from .partitions import LatticeTooLargeError, blowup_max_n, check_k


def _output_flags(p: argparse.ArgumentParser, timing: bool = True) -> None:
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    if timing:
        p.add_argument(
            "--timing", action="store_true", help="include wall-clock time in the JSON output"
        )


def _seed_list(text: str) -> tuple[int, ...]:
    """Comma-separated seeds; two that draw one specialization are a usage error."""
    seeds = tuple(int(s) for s in text.split(","))
    first = {}
    for i, seed in enumerate(seeds):
        # splitmix64 keeps only the low 64 bits of a seed
        j = first.setdefault(seed % 2**64, i)
        if j != i:
            twin = seeds[j]
            same = "is given twice" if twin == seed else f"draws the specialization of seed {twin}"
            raise argparse.ArgumentTypeError(f"seed {seed} {same}")
    return seeds


_seed_list.__name__ = "seed list"  # argparse names the type in "invalid seed list value"


# The lattice and composition recursions go about rank deep: keep far below the
# recursion limit (1000), far above the largest rank in use (6).
MAX_RANK = 100


def _bounded_int(lowest: int, highest: int | None = None):
    """An argparse type for integers in [lowest, highest]; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        if highest is not None and value > highest:
            raise argparse.ArgumentTypeError(f"must be at most {highest}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive = _bounded_int(1)
_nonnegative = _bounded_int(0)
_rank = _bounded_int(1, MAX_RANK)


def _rational(text: str) -> Fraction:
    """An argparse type for a rational such as 2/3; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seeds", type=_positive, help=f"number of specializations (default {DEFAULT_SEED_COUNT})"
    )
    p.add_argument("--seed-base", type=int, help=f"first seed (default {DEFAULT_SEED_BASE})")
    p.add_argument(
        "--seed-list",
        type=_seed_list,
        help="comma-separated explicit seeds, instead of --seeds/--seed-base",
    )
    p.add_argument("--verbose", action="store_true", help="log progress and reseeds to stderr")
    _output_flags(p)


def _series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED_BASE)
    cutoff = p.add_mutually_exclusive_group(required=True)
    cutoff.add_argument("--max-n", type=_nonnegative, help="diagram-weight cutoff")
    cutoff.add_argument("--order", type=_nonnegative, help="target q-order")
    p.add_argument("--mode", choices=("equivariant", "limit"), default="equivariant")
    p.add_argument("--y-mode", choices=("symbolic", "numeric"), default="symbolic")
    p.add_argument(
        "--y0",
        type=_rational,
        help="rational y value, e.g. 2/3; numeric y mode only (default 1); "
        "give a negative value with an equals sign, as in --y0=-3/7",
    )
    _output_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowup-genera",
        description="Exact localization series and blow-up factor verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute-z", help="plane moduli generating series")
    p.add_argument("--rank", type=_rank, required=True)
    _series_flags(p)

    p = sub.add_parser("compute-zhat", help="blow-up moduli generating series")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--k", type=int, default=0)
    _series_flags(p)

    p = sub.add_parser("compute-yk", help="universal blow-up factor")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--order", type=_nonnegative, required=True)
    p.add_argument("--form", choices=("main", "gottsche", "euler", "hol"), default="main")
    _output_flags(p, timing=False)

    p = sub.add_parser("compute-w", help="rank-one hook series")
    p.add_argument("--order", type=_nonnegative, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED_BASE)
    p.add_argument(
        "--substitution", choices=("identity", "t2/t1", "t1/t2"), default="identity"
    )
    _output_flags(p, timing=False)

    # the rank-r verify subcommands, each driver called as (rank, k, order, seeds)
    # plus --mode for verify-blowup; a driver is named here and looked up on the
    # verify module at call time, so a wrapper installed on that attribute sees the call
    for name, help_text, driver in (
        ("verify-blowup", "main blow-up identity zhat = yk * z", "verify_main_theorem"),
        ("verify-corollary", "Euler and holomorphic branches", "verify_corollary"),
        ("verify-limits", "equivariant vs limit mode quotients", "verify_limit_consistency"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--rank", type=_rank, required=True)
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--order", type=_nonnegative)
        if name == "verify-blowup":
            p.add_argument("--mode", choices=("equivariant", "limit"), default="equivariant")
        _verify_flags(p)
        p.set_defaults(driver=driver)

    p = sub.add_parser("verify-rank1", help="rank-one infinite-product identity")
    p.add_argument("--order", type=_nonnegative, default=8)
    _verify_flags(p)

    p = sub.add_parser("verify-all", help="the documented default verification grid")
    _verify_flags(p)

    return parser


def _write_atomic(path: str, text: str) -> None:
    # write beside the target and rename over it, so the path never holds
    # a partial report and a failed write leaves the old file in place
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _series_report(kind: str, params: dict, value: dict, key: str = "series") -> dict:
    """The series-report/1 envelope of compute-yk and compute-w."""
    return {"schema": "series-report/1", "kind": kind, "params": params, key: value}


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        _write_atomic(args.output, text + "\n")
    else:
        print(text)


def _seeds_from(parser, args) -> tuple[int, ...]:
    if args.seed_list is None:
        from . import verify

        return verify.default_seeds(
            DEFAULT_SEED_COUNT if args.seeds is None else args.seeds,
            DEFAULT_SEED_BASE if args.seed_base is None else args.seed_base,
        )
    if args.seeds is not None or args.seed_base is not None:
        parser.error("--seed-list cannot be combined with --seeds or --seed-base")
    return args.seed_list


def _max_n_from(args, r: int, k: int = 0) -> int:
    if args.max_n is not None:
        return args.max_n
    return blowup_max_n(r, k, args.order)


def _y0(parser, args):
    """The y value to report the series at: None for symbolic y, else --y0 (default 1)."""
    if args.y_mode == "symbolic":
        if args.y0 is not None:
            parser.error("--y0 requires --y-mode numeric")
        return None
    return Fraction(1) if args.y0 is None else args.y0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "k" in args:
        try:
            check_k(args.rank, args.k)
        except ValueError as exc:
            parser.error(f"--k: {exc}")
    if args.output and os.path.isdir(args.output):
        parser.error(f"--output: {args.output!r} is a directory")
    if args.output and not os.path.isdir(os.path.dirname(args.output) or "."):
        parser.error(f"--output: no directory to write {args.output!r} in")
    if "verbose" in args:
        # only the verify-* commands log: their drivers report reseeds and progress
        import logging

        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(message)s",
        )
    try:
        return _run(parser, args)
    except LatticeTooLargeError as exc:
        parser.error(str(exc))


def _run(parser, args) -> int:
    # each command imports only the layers it runs, and looks its functions up
    # as module attributes at call time, so a wrapper installed on the defining
    # module sees the call
    if args.command in ("compute-z", "compute-zhat"):
        from . import genera

        k = args.k if args.command == "compute-zhat" else 0
        y0 = _y0(parser, args)
        req = genera.SeriesRequest(
            rank=args.rank, max_n=_max_n_from(args, args.rank, k),
            spec=sample_specialization(args.rank, args.seed), k=k, mode=args.mode,
        )
        kind = "z" if args.command == "compute-z" else "zhat"
        _emit(genera.series_report(kind, req, y0, include_timing=args.timing), args)
        return 0

    if args.command == "compute-yk":
        from . import blowup_factor

        form = getattr(blowup_factor, f"yk_{args.form}")
        params = {"rank": args.rank, "k": args.k, "order": args.order}
        value = form(args.rank, args.k, args.order).to_json()
        key = "holomorphic" if args.form == "hol" else "series"
        _emit(_series_report(f"yk-{args.form}", params, value, key), args)
        return 0

    if args.command == "compute-w":
        from . import rank1

        spec = sample_specialization(1, args.seed)
        series = rank1.w_series(spec, args.order, args.substitution)
        params = {
            "order": args.order, "seed": args.seed, "substitution": args.substitution,
            "prng": PRNG_NAME,
        }
        _emit(_series_report("w", params, series.to_json()), args)
        return 0

    # every other command is a verify-* command, and every report ends alike
    from . import verify

    seeds = _seeds_from(parser, args)
    if "driver" in args:
        options = {"mode": args.mode} if "mode" in args else {}
        report = getattr(verify, args.driver)(args.rank, args.k, args.order, seeds, **options)
        payload = report.to_json(include_timing=args.timing)
    elif args.command == "verify-rank1":
        report = verify.verify_rank1_identity(args.order, seeds)
        payload = report.to_json(include_timing=args.timing)
    else:
        reports = verify.verify_all(seeds)
        payload = {
            "schema": "verification-report/1",
            "check": "verify-all",
            "outcome": "pass" if all(rep.outcome for rep in reports) else "fail",
            "reports": [rep.to_json(include_timing=args.timing) for rep in reports],
        }
    _emit(payload, args)
    return 0 if payload["outcome"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
