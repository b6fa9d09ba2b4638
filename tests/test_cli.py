"""Command-line interface: subcommands, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


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


def test_degenerate_seed_exits_one_with_typed_error():
    # compute-* does not reseed: a specialization sending a tangent weight to
    # 1 ends the call with the typed error as the traceback's last line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["compute-zhat", "--rank", "2", "--k", "1", "--max-n", "4", "--seed", "53"]
    proc = subprocess.run(
        [sys.executable, "-m", "blowup_genera.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("blowup_genera.characters.DegenerateSpecializationError:")
