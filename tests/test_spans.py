"""The span tracer of the benchmark still finds every function it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SERIES = {"genera.z_series", "genera.zhat_series"}


def traced(tmp_path, *argv):
    """Run one CLI call under perfbench/spans.py and return its recorded spans."""
    # spans.py exits with a "spans.py: ..." line on stderr when a module,
    # function or cache it wraps is gone or renamed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), str(out), "--", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not [line for line in proc.stderr.splitlines() if line.startswith("spans.py:")]
    return json.loads(out.read_text())["spans"]


def spans_under_series(spans, name):
    return [rec for rec in spans if rec[0] == name and spans[rec[3]][0] in SERIES]


def test_traced_call_finds_every_wrapped_name(tmp_path):
    spans = traced(tmp_path, "verify-blowup", "--rank", "1", "--order", "2", "--seeds", "1")
    # the series code reaches theta through the wrapped name: a call through a
    # reference taken before the tracer is installed would record no span
    assert spans_under_series(spans, "characters.theta_eval")
    assert {spans[rec[3]][0] for rec in spans if rec[0] == "characters.theta_eval"} >= SERIES


@pytest.mark.parametrize("kind", ["compute-zhat", "compute-z"])
def test_traced_limit_call_records_theta_limit_factor(tmp_path, kind):
    argv = [kind, "--rank", "2", "--max-n", "2", "--mode", "limit"]
    spans = traced(tmp_path, *argv, *(["--k", "1"] if kind == "compute-zhat" else []))
    assert spans_under_series(spans, "characters.theta_limit_factor")
    assert not [rec for rec in spans if rec[0] == "characters.theta_eval"]


def test_traced_rank1_call_records_theta_under_w_series(tmp_path):
    # w_series, too, reaches theta through the wrapped name
    spans = traced(tmp_path, "compute-w", "--order", "2")
    assert [rec for rec in spans
            if rec[0] == "characters.theta_eval" and spans[rec[3]][0] == "rank1.w_series"]


@pytest.mark.parametrize(
    "argv, builder, series",
    [
        (["compute-z", "--rank", "2", "--max-n", "2"], "characters.tangent_p2", "genera.z_series"),
        (["compute-w", "--order", "2"], "rank1.hook_character", "rank1.w_series"),
    ],
)
def test_traced_builders_run_under_their_series(tmp_path, argv, builder, series):
    # the series reach the character builders through the wrapped names too:
    # a builder bound before the tracer is installed would record no span
    spans = traced(tmp_path, *argv)
    parents = {spans[rec[3]][0] for rec in spans if rec[0] == builder}
    assert parents == {series}
