"""Golden canonical output: the JSON reports stay byte-identical.

Each digest is the sha256 of a CLI call's JSON report, re-serialized the
way the CLI writes it with every wall_clock_seconds key left out.  A
kernel change that moves any coefficient, count or field of these reports
changes its digest.
"""

import hashlib
import json

import pytest

from blowup_genera.cli import main

GOLDEN = {
    ("verify-all", "--seed-list", "101"):
        "fc0aa60b76a987b1139c4eaa4bf1d261182b4c9cd9b42191ff54fe2a8d60d395",
    ("compute-zhat", "--rank", "2", "--k", "1", "--max-n", "4", "--seed", "101"):
        "abeed62af8948b1965938e7f954fbc76fbe9d1268db626433a0b72b0f83f2645",
    ("compute-zhat", "--rank", "2", "--k", "1", "--max-n", "4", "--seed", "101",
     "--mode", "limit"):
        "8c6b1715322992cc4517bb16f4e98dfdc89d6c71df1f1d2804bbff8ea6374afc",
    ("compute-zhat", "--rank", "2", "--k", "1", "--max-n", "4", "--seed", "101",
     "--y-mode", "numeric", "--y0", "2/3"):
        "89109941443c3d11031b0c510fa674223add42b26873a60d8747c99f05385a1e",
    ("compute-z", "--rank", "2", "--max-n", "3", "--seed", "1729"):
        "b8fc256a1706921c61d8f5889a695698afa95e4b143f427d8e6efe79cd1b65c4",
}


def _without_timing(node):
    if isinstance(node, dict):
        return {k: _without_timing(v) for k, v in node.items() if k != "wall_clock_seconds"}
    if isinstance(node, list):
        return [_without_timing(v) for v in node]
    return node


def canonical_digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    payload = _without_timing(json.loads(capsys.readouterr().out))
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_canonical_output_is_unchanged(capsys, argv):
    assert canonical_digest(capsys, argv) == GOLDEN[argv]
