"""The span tracer of the benchmark still finds every function it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_call_finds_every_wrapped_name(tmp_path):
    # perfbench/spans.py exits with a "spans.py: ..." line on stderr when a
    # module, function or cache it wraps is gone or renamed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["verify-blowup", "--rank", "1", "--order", "2", "--seeds", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), str(tmp_path / "spans.json"),
         "--", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not [line for line in proc.stderr.splitlines() if line.startswith("spans.py:")]
