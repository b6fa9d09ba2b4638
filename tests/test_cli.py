"""Command-line interface: subcommands, exit codes, deterministic output."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from blowup_genera import verify
from blowup_genera.cli import MAX_RANK, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_yk_main_lowest_term(capsys):
    code, out = run_cli(
        capsys, "compute-yk", "--rank", "2", "--k", "1", "--order", "9", "--form", "main"
    )
    assert code == 0
    data = json.loads(out)
    assert data["series"]["offset"] == 1
    assert data["series"]["coeffs"][0] == "1 + y"


def test_compute_yk_forms_agree(capsys):
    _, main_out = run_cli(
        capsys, "compute-yk", "--rank", "2", "--k", "0", "--order", "8", "--form", "main"
    )
    _, goe_out = run_cli(
        capsys, "compute-yk", "--rank", "2", "--k", "0", "--order", "8", "--form", "gottsche"
    )
    assert json.loads(main_out)["series"] == json.loads(goe_out)["series"]


def test_compute_yk_hol_branch(capsys):
    code, out = run_cli(
        capsys, "compute-yk", "--rank", "2", "--k", "1", "--order", "4", "--form", "hol"
    )
    assert code == 0
    data = json.loads(out)
    assert data["holomorphic"]["stated"] == 0
    assert data["holomorphic"]["discrepant"] is True


def test_verify_rank1_exits_zero(capsys):
    code, out = run_cli(capsys, "verify-rank1", "--order", "5", "--seeds", "2")
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"


def test_verify_blowup_k_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-blowup", "--rank", "5", "--k", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-blowup", "--rank", "2", "--k", "1", "--order", "0", "--seeds", "1"],
        ["verify-limits", "--rank", "2", "--k", "1", "--order", "0"],
        ["verify-corollary", "--rank", "3", "--k", "2", "--order", "0"],
    ],
)
def test_verify_order_below_the_first_blowup_degree_is_usage_error(capsys, argv):
    # such a run would compare no coefficient, so it may not report a pass
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("blowup-genera: error: --order: order must reach the first blow-up")


def test_missing_cutoff_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute-z", "--rank", "1", "--seed", "1"])
    assert exc.value.code == 2


def test_verify_blowup_small(capsys):
    code, out = run_cli(
        capsys,
        "verify-blowup", "--rank", "1", "--k", "0", "--order", "6", "--seeds", "2",
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "pass"


def test_identical_invocations_identical_output(capsys):
    argv = ["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "1", "--seed", "9"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_compute_z_order_flag_and_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "compute-z", "--rank", "1", "--order", "4", "--seed", "2",
        "--output", str(out_file),
    )
    assert code == 0 and out == ""
    data = json.loads(out_file.read_text())
    assert data["params"]["max_n"] == 2
    assert data["series"]["offset"] == 0


def test_output_file_replaced_whole_and_no_temporary_left(tmp_path, capsys):
    argv = ("compute-yk", "--rank", "3", "--k", "1", "--order", "12", "--form", "main")
    _, expected = run_cli(capsys, *argv)
    out_file = tmp_path / "yk.json"
    out_file.write_text("stale\n")
    code, out = run_cli(capsys, *argv, "--output", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["yk.json"]


def test_failed_output_write_keeps_previous_file(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "yk.json"
    out_file.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        main(["compute-yk", "--rank", "2", "--k", "1", "--order", "4", "--output", str(out_file)])
    assert out_file.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["yk.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "2"],
        ["compute-yk", "--rank", "2", "--k", "1", "--order", "4"],
        ["verify-all", "--seed-list", "101"],
        ["verify-blowup", "--rank", "1", "--order", "2", "--seeds", "1"],
    ],
)
@pytest.mark.parametrize(
    "target, message",
    [
        (("missing", "x.json"), "no directory to write {!r} in"),
        (("out",), "{!r} is a directory"),
    ],
)
def test_unusable_output_path_is_refused_before_computing(
    argv, target, message, tmp_path, capsys, monkeypatch
):
    from blowup_genera import cli

    def refuse(*_args):
        raise AssertionError("computed before the --output path was checked")

    monkeypatch.setattr(cli, "_run", refuse)
    (tmp_path / "out").mkdir()
    target = tmp_path.joinpath(*target)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "--output:" in line] == [
        "blowup-genera: error: --output: " + message.format(str(target))
    ]
    assert list(tmp_path.rglob("*")) == [tmp_path / "out"]


def test_compute_w_numeric(capsys):
    code, out = run_cli(capsys, "compute-w", "--order", "3", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    assert data["series"]["coeffs"][0] == "1"


def test_numeric_y_mode(capsys):
    code, out = run_cli(
        capsys,
        "compute-z", "--rank", "1", "--max-n", "2", "--seed", "3",
        "--y-mode", "numeric", "--y0", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["series"]["coeffs"][0] == "1"
    # at y = 1 the q^2 coefficient counts the single size-1 diagram
    assert data["series"]["coeffs"][2] == "1"


def test_numeric_y_mode_defaults_to_y_one(capsys):
    argv = ["compute-z", "--rank", "1", "--max-n", "2", "--seed", "3", "--y-mode", "numeric"]
    _, default = run_cli(capsys, *argv)
    _, explicit = run_cli(capsys, *argv, "--y0", "1")
    assert default == explicit
    _, other = run_cli(capsys, *argv, "--y0", "2/3")
    assert json.loads(other)["params"]["y_mode"] == "numeric:2/3"


def test_a_negative_y0_takes_an_equals_sign(capsys, monkeypatch):
    # argparse reads a separate "-3/7" as a flag, so "--y0 -3/7" is a usage
    # error; "--y0=-3/7" is one argument, and the help text says so
    argv = ["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "2", "--y-mode", "numeric"]
    code, out = run_cli(capsys, *argv, "--y0=-3/7")
    assert code == 0
    assert json.loads(out)["params"]["y_mode"] == "numeric:-3/7"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--y0", "-3/7"])
    assert exc.value.code == 2
    assert "argument --y0: expected one argument" in capsys.readouterr().err
    monkeypatch.setenv("COLUMNS", "300")  # one help line per flag
    with pytest.raises(SystemExit):
        main(["compute-zhat", "--help"])
    assert "as in --y0=-3/7" in capsys.readouterr().out


# A valid invocation of every subcommand; the usage-error cases below add
# one flag the subcommand does not honour, or a conflicting combination.
VALID = {
    "compute-z": ["compute-z", "--rank", "1", "--max-n", "1"],
    "compute-zhat": ["compute-zhat", "--rank", "1", "--max-n", "1"],
    "compute-yk": ["compute-yk", "--rank", "1", "--order", "2"],
    "compute-w": ["compute-w", "--order", "2"],
    "verify-blowup": ["verify-blowup", "--rank", "1", "--order", "2", "--seeds", "1"],
    "verify-rank1": ["verify-rank1", "--order", "2", "--seeds", "1"],
    "verify-corollary": ["verify-corollary", "--rank", "1", "--order", "2", "--seeds", "1"],
    "verify-limits": ["verify-limits", "--rank", "1", "--order", "2", "--seeds", "1"],
    "verify-all": ["verify-all", "--seed-list", "53"],
}

USAGE_ERRORS = (
    [VALID[c] + ["--threads", "2"] for c in VALID]
    + [VALID[c] + ["--cache-dir", "fixed-points"] for c in VALID]
    + [VALID[c] + ["--timing"] for c in ("compute-yk", "compute-w")]
    + [VALID[c] + ["--verbose"] for c in VALID if c.startswith("compute-")]
    + [
        VALID["compute-z"] + ["--order", "4"],
        VALID["compute-zhat"] + ["--order", "4"],
        VALID["compute-z"] + ["--y0", "5/7"],
        VALID["compute-zhat"] + ["--y-mode", "symbolic", "--y0", "1"],
        VALID["compute-z"] + ["--y-mode", "numeric", "--y0", "half"],
        ["verify-rank1", "--seeds", "2", "--seed-list", "5"],
        ["verify-rank1", "--seed-list", "1,x"],
        ["verify-all", "--seed-base", "3", "--seed-list", "5"],
    ]
)


@pytest.mark.parametrize("argv", VALID.values(), ids=list(VALID))
def test_valid_invocations_parse(argv):
    build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_unhonoured_or_conflicting_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


OUT_OF_RANGE = [
    ["compute-z", "--rank", "0", "--max-n", "1"],
    ["compute-zhat", "--rank", "0", "--max-n", "1"],
    ["compute-yk", "--rank", "0", "--order", "2"],
    ["verify-blowup", "--rank", "0", "--order", "2", "--seeds", "1"],
    ["verify-corollary", "--rank", "-1", "--order", "2", "--seeds", "1"],
    ["verify-limits", "--rank", "0", "--order", "2", "--seeds", "1"],
    ["compute-z", "--rank", "1", "--max-n", "-1"],
    ["compute-z", "--rank", "1", "--order", "-1"],
    ["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "-1"],
    ["compute-zhat", "--rank", "2", "--k", "1", "--order", "-5"],
    ["compute-yk", "--rank", "2", "--order", "-3"],
    ["compute-w", "--order", "-1"],
    ["verify-rank1", "--order", "-1", "--seeds", "1"],
    ["verify-blowup", "--rank", "1", "--order", "-1", "--seeds", "1"],
    ["verify-corollary", "--rank", "1", "--order", "-1", "--seeds", "1"],
    ["verify-limits", "--rank", "1", "--order", "-1", "--seeds", "1"],
    ["verify-rank1", "--order", "2", "--seeds", "0"],
    ["verify-all", "--seeds", "-2"],
    ["compute-z", "--rank", "1", "--max-n", "0", "--y-mode", "numeric", "--y0", "1/0"],
    # above cli.MAX_RANK, where the lattice recursions would hit the recursion limit
    ["compute-yk", "--rank", "1200", "--k", "0", "--order", "0"],
    ["compute-z", "--rank", "1200", "--max-n", "0"],
    ["compute-zhat", "--rank", "1200", "--k", "0", "--max-n", "0"],
    ["verify-blowup", "--rank", "1200", "--order", "0", "--seeds", "1"],
    ["verify-corollary", "--rank", "1200", "--order", "0", "--seeds", "1"],
    ["verify-limits", "--rank", "1200", "--order", "0", "--seeds", "1"],
    ["compute-z", "--rank", str(MAX_RANK + 1), "--max-n", "0"],
    # a lowest lattice layer of C(100, 50), about 10**29 vectors
    ["compute-yk", "--rank", "100", "--k", "50", "--order", "2500"],
    ["verify-blowup", "--rank", "100", "--k", "50", "--seeds", "1"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_bad_seed_list_names_its_type(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--seed-list", "1,x"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == (
        "blowup-genera verify-all: error: argument --seed-list: invalid seed list value: '1,x'"
    )


@pytest.mark.parametrize(
    "seed_list, message",
    [
        ("5,5", "seed 5 is given twice"),
        ("7,5,8,5", "seed 5 is given twice"),
        # splitmix64 keeps only the low 64 bits of a seed
        ("-3,18446744073709551613",
         "seed 18446744073709551613 draws the specialization of seed -3"),
    ],
)
def test_seed_list_naming_one_specialization_twice_is_refused(seed_list, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", f"--seed-list={seed_list}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"blowup-genera verify-all: error: argument --seed-list: {message}"
    )


def test_zero_cutoffs_are_valid(capsys):
    code, out = run_cli(capsys, "compute-z", "--rank", "1", "--max-n", "0")
    assert code == 0 and json.loads(out)["series"]["coeffs"] == ["1"]
    code, _ = run_cli(capsys, "compute-yk", "--rank", "2", "--order", "0")
    assert code == 0


def test_rank_cap_is_valid(capsys):
    code, out = run_cli(capsys, "compute-yk", "--rank", str(MAX_RANK), "--k", "0", "--order", "0")
    assert code == 0 and json.loads(out)["series"]["coeffs"] == ["1"]
    code, out = run_cli(capsys, "compute-z", "--rank", str(MAX_RANK), "--max-n", "0")
    assert code == 0 and json.loads(out)["series"]["coeffs"] == ["1"]
    code, out = run_cli(capsys, "compute-zhat", "--rank", str(MAX_RANK), "--order", "0")
    assert code == 0 and json.loads(out)["series"]["coeffs"] == ["1"]
    # the lowest layer of k = 99 holds C(100, 99) = 100 vectors, within the cap
    code, out = run_cli(
        capsys, "compute-yk", "--rank", str(MAX_RANK), "--k", "99", "--order", "99"
    )
    assert code == 0 and json.loads(out)["series"]["offset"] == 99


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*args, timeout=120):
    """Run python with these arguments and the package on its path, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_oversized_lattice_exits_two_within_seconds():
    # the lowest layer alone is refused before any vector is enumerated; a
    # small lowest layer under a large bound is stopped once the enumeration
    # has found MAX_LATTICE_LAYER vectors
    for argv in (
        ["compute-zhat", "--rank", "100", "--k", "50", "--order", "0"],
        ["compute-yk", "--rank", "100", "--k", "2", "--order", "400"],
    ):
        proc = run_process("-m", "blowup_genera.cli", *argv, timeout=30)
        assert proc.returncode == 2, argv
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert "MAX_LATTICE_LAYER" in proc.stderr


def test_degenerate_seed_exits_one_with_typed_error():
    # compute-* does not reseed: a specialization sending a tangent weight to
    # 1 ends the call with the typed error as the traceback's last line
    argv = ["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "4", "--seed", "53"]
    proc = run_process("-m", "blowup_genera.cli", *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("blowup_genera.characters.DegenerateSpecializationError:")


@pytest.mark.parametrize("rank, max_n", [(2, 3), (3, 2)])
def test_degenerate_limit_seed_names_its_diagonal_weight(rank, max_n):
    # a sampled seed whose limit build degenerates on a diagonal weight; the
    # last line is the one the per-block limit sum printed
    argv = ["compute-zhat", "--rank", str(rank), "--k", "1", "--max-n", str(max_n),
            "--mode", "limit", "--seed", "6989"]
    proc = run_process("-m", "blowup_genera.cli", *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines()[-1] == (
        "blowup_genera.characters.DegenerateSpecializationError: theta factor degenerated: "
        "weight 1 * t1^2 * t2^-1 evaluates to 1 under specialization seed 6989"
    )


RESEED_LIMIT = """
from blowup_genera import cli, verify
verify.MAX_RESEEDS = 1
cli.run(["verify-blowup", "--rank", "2", "--k", "1", "--seed-list", "53"])
"""


def test_reseed_limit_exits_one_naming_the_degenerate_weight():
    # nothing is printed before the traceback, so its chained cause names the weight
    proc = run_process("-c", RESEED_LIMIT)
    assert proc.returncode == 1
    assert proc.stdout == ""
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("blowup_genera.verify.ReseedLimitError:")
    cause, chained, _ = proc.stderr.partition("direct cause of the following exception")
    assert chained and "DegenerateSpecializationError: theta factor degenerated" in cause
    assert "e2/e1 * t1^2 * t2^2" in cause


def test_verbose_verify_logs_progress_to_stderr():
    argv = ["verify-rank1", "--order", "4", "--seed-list", "1", "--verbose"]
    proc = run_process("-m", "blowup_genera.cli", *argv)
    assert proc.returncode == 0
    assert re.fullmatch(r"INFO rank1-product-identity: pass \(\d+\.\d\ds\)\n", proc.stderr)


def test_verify_logs_reseeds_without_verbose():
    argv = ["verify-blowup", "--rank", "2", "--k", "1", "--seed-list", "53,192"]
    proc = run_process("-m", "blowup_genera.cli", *argv)
    assert proc.returncode == 0
    assert proc.stderr == (
        "WARNING seed 53 degenerate (theta factor degenerated: weight 1 * e2/e1 * t1^2 * t2^2 "
        "evaluates to 1 under specialization seed 53); resampling with seed 54\n"
        "WARNING seed 192 degenerate (theta factor degenerated: weight 1 * e1/e2 * t1^-1 * t2^0 "
        "evaluates to 1 under specialization seed 192); resampling with seed 193\n"
    )


RESEED_WARNING = {
    53: "WARNING seed 53 degenerate (theta factor degenerated: weight 1 * e2/e1 * t1^2 * t2^2 "
        "evaluates to 1 under specialization seed 53); resampling with seed 54\n",
    192: "WARNING seed 192 degenerate (theta factor degenerated: weight 1 * e1/e2 * t1^-1 * t2^0 "
         "evaluates to 1 under specialization seed 192); resampling with seed 193\n",
}


def test_verify_all_logs_every_driver_reseed():
    # each driver that meets a degenerate seed reseeds and logs it, in grid order
    proc = run_process("-m", "blowup_genera.cli", "verify-all", "--seed-list", "53,192,101")
    assert proc.returncode == 0
    order = [53, 192, 53, 53, 192, 192, 192, 53, 192, 53, 53] + [192] * 15
    assert proc.stderr == "".join(RESEED_WARNING[seed] for seed in order)


# sha256 of the 51 lines `verify-all --seed-list 53,192,101 --verbose` wrote to
# stderr when the drivers logged through the logging module, timings masked
VERBOSE_GRID_STDERR = "47c762188b617ef6bf4ce8b03e02ade02af3fbd90d364614c2396f671527d9c1"


def test_verbose_grid_stderr_is_the_same_in_one_process_and_two(monkeypatch, capsys):
    printed = []
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        assert main(["verify-all", "--seed-list", "53,192,101", "--verbose"]) == 0
        err = capsys.readouterr().err
        printed.append(re.sub(r"\(\d+\.\d\ds\)$", "(T)", err, flags=re.M))
    assert printed[0] == printed[1]
    assert len(printed[0].splitlines()) == 51
    assert hashlib.sha256(printed[0].encode()).hexdigest() == VERBOSE_GRID_STDERR


@pytest.mark.parametrize(
    "argv",
    [
        ["compute-yk", "--rank", "2", "--k", "1", "--order", "5"],
        ["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "2"],
    ],
)
def test_compute_commands_write_nothing_to_stderr(argv):
    proc = run_process("-m", "blowup_genera.cli", *argv)
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == ""


# A fresh process runs cli.main on the arguments and prints the modules it loaded.
FOOTPRINT = """
import contextlib, io, json, sys
from blowup_genera import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""
SERIES_LAYERS = {"characters", "genera", "rank1"}
VERIFY_ARGS = ["--seed-list", "101"]


@pytest.mark.parametrize(
    "argv, absent",
    [
        ([], SERIES_LAYERS | {"verify", "blowup_factor"}),
        (["compute-yk", "--rank", "2", "--k", "1", "--order", "5"], SERIES_LAYERS | {"verify"}),
        (["compute-yk", "--rank", "3", "--order", "6", "--form", "hol"],
         SERIES_LAYERS | {"verify"}),
        (["compute-z", "--rank", "2", "--max-n", "2"], {"verify", "blowup_factor"}),
        (["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "2"], {"verify", "blowup_factor"}),
        (["compute-w", "--order", "3"], {"verify", "blowup_factor", "genera"}),
        (["verify-blowup", "--rank", "2", "--k", "1", "--order", "3", *VERIFY_ARGS], set()),
        (["verify-corollary", "--rank", "2", "--k", "1", "--order", "3", *VERIFY_ARGS], set()),
        (["verify-limits", "--rank", "2", "--k", "1", "--order", "3", *VERIFY_ARGS], set()),
        (["verify-rank1", "--order", "3", *VERIFY_ARGS], set()),
        (["verify-all", *VERIFY_ARGS], set()),
    ],
    ids=["import", "compute-yk", "compute-yk-hol", "compute-z", "compute-zhat", "compute-w",
         "verify-blowup", "verify-corollary", "verify-limits", "verify-rank1", "verify-all"],
)
def test_subcommand_imports_only_the_layers_it_runs(argv, absent):
    proc = run_process("-c", FOOTPRINT, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {f"blowup_genera.{name}" for name in absent}
    # the verify-* commands print their stderr from the reports
    assert "logging" not in loaded
    # dataclasses would pull in inspect, ast and dis, which nothing else needs
    assert not loaded & {"dataclasses", "inspect"}
    # verify-all's forked child sends its reports as marshal data, and
    # pickle only an exception, which a passing run never raises
    assert "pickle" not in loaded


# A fresh process calls cli.run on the arguments and prints what run ended
# with ("return" and its value, or "raise" and the exception's type and
# code) and whether the heap was frozen before and after.
RUN = """
import contextlib, gc, io, json, sys
from blowup_genera import cli
before = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        ended = ["return", cli.run(sys.argv[1:])]
    except BaseException as exc:
        ended = ["raise", type(exc).__name__, getattr(exc, "code", None)]
print(json.dumps([ended, before > 0, gc.get_freeze_count() > 0]))
"""


@pytest.mark.parametrize(
    "argv, ended",
    [
        (["compute-yk", "--rank", "2", "--k", "1", "--order", "5"], ["return", 0]),
        (["compute-yk", "--rank", "2"], ["raise", "SystemExit", 2]),
        (["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "4", "--seed", "53"],
         ["raise", "DegenerateSpecializationError", None]),
    ],
    ids=["pass", "usage-error", "degenerate-seed"],
)
def test_run_returns_or_raises_as_main_and_freezes_the_heap(argv, ended):
    proc = run_process("-c", RUN, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [ended, False, True]


def test_main_leaves_the_heap_as_it_found_it(monkeypatch, capsys):
    frozen = gc.get_freeze_count()
    code, _ = run_cli(capsys, "compute-yk", "--rank", "2", "--k", "1", "--order", "5")
    assert code == 0 and gc.get_freeze_count() == frozen

    # verify-all on the fork path, which freezes and unfreezes around the fork
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    code, _ = run_cli(capsys, "verify-all", "--seed-list", "101")
    assert code == 0 and forks and gc.get_freeze_count() == frozen


def test_output_file_holds_the_bytes_of_stdout(tmp_path):
    # a file left open in a frozen cycle would never be flushed, so the
    # process entry point must write the whole report before it exits
    argv = ["compute-yk", "--rank", "3", "--k", "1", "--order", "12"]
    target = tmp_path / "yk.json"
    shown = run_process("-m", "blowup_genera.cli", *argv)
    written = run_process("-m", "blowup_genera.cli", *argv, "--output", str(target))
    assert shown.returncode == written.returncode == 0
    assert written.stdout == "" and shown.stdout
    assert target.read_bytes() == shown.stdout.encode("ascii")


def test_console_script_enters_through_run():
    # read as text: Python 3.10 has no tomllib
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'blowup-genera = "blowup_genera.cli:run"'


# A fresh process runs cli.run on the arguments after argv[1] with the CPU probe
# set to two, so verify-all takes the fork path; it writes the number of forks
# to the file argv[1] and exits with what run returned.
FORKED_RUN = """
import os, sys
from blowup_genera import cli, verify
forks = []
real_fork = os.fork
def counted_fork():
    forks.append(os.getpid())
    return real_fork()
os.fork = counted_fork
verify._usable_cpus = lambda: 2
code = cli.run(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(str(len(forks)))
sys.exit(code)
"""


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["compute-yk", "--rank", "1", "--order", "2"], ["verify-all", "--seed-list", "101"]],
    ids=["compute-yk", "verify-all"],
)
def test_a_closed_stdout_ends_quietly_with_141(argv, buffered, tmp_path):
    # the read end is closed before the process starts, so its first write to
    # stdout meets a pipe with no reader; a reader such as `| head` would race
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    forks = tmp_path / "forks"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", FORKED_RUN, str(forks), *argv],
            stdout=write_fd, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_fd)
    assert proc.returncode == 141 and proc.stderr == ""
    assert forks.read_text() == ("1" if argv[0] == "verify-all" else "0")
