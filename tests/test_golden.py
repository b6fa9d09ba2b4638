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
    ("compute-yk", "--rank", "6", "--k", "3", "--order", "35", "--form", "main"):
        "e5a319dc3db096564b59bcf14f13f5410189bffb38dc722f79fae500aef17d4e",
    ("compute-yk", "--rank", "6", "--k", "3", "--order", "35", "--form", "gottsche"):
        "a7e6a030b2987ab7838ebf437ba045f138c5768c4d6ea15eee1f991c9696fec8",
    ("compute-yk", "--rank", "6", "--k", "3", "--order", "35", "--form", "euler"):
        "a2f7845369d5a5091586221a710579b6b9e795731346746bc71d9cfa4c700ccb",
    ("compute-yk", "--rank", "3", "--k", "1", "--order", "200", "--form", "main"):
        "4a954c8784c580992c4512ba82c2af86ee90102971fd19cda74ed5412bdd0564",
    ("compute-yk", "--rank", "3", "--k", "1", "--order", "200", "--form", "gottsche"):
        "e61c096805bfdad1f812e638c93fd112f14e242f67b1d448a86542ddceb9d4dd",
    ("compute-yk", "--rank", "3", "--k", "1", "--order", "200", "--form", "euler"):
        "a5ad28e17e7d96df8ead0dbb77d54f738b1643342c3dbe8e0a62ada2e6f5c5bb",
    ("compute-w", "--order", "8", "--seed", "4"):
        "4431829d3584e80237e257d88fe61f288be2ae2aca9adccb7100bfc275fba929",
    ("compute-w", "--order", "8", "--seed", "4", "--substitution", "t2/t1"):
        "5e6db1e26e57f13c2e37946d55e94a137147f15dfc86caf27e941bffe9856df4",
    ("compute-w", "--order", "8", "--seed", "4", "--substitution", "t1/t2"):
        "4d9022313909bbc4927df10415ae917e4ab648fdba266273d2d7dcd24b77047b",
    ("verify-rank1", "--order", "10", "--seed-list", "53,192,101"):
        "3061ff0d2cee2867abf8d128099ba6d6f969ca1f622f5d8f956214bdcaa543fc",
    ("verify-all", "--seed-list", "53,192,101"):
        "9bfc5b93d452826fb48338c77a4612bb150d46be101fa5bfbbf929519f824a96",
    ("compute-z", "--rank", "2", "--order", "21", "--seed", "101", "--y-mode", "numeric",
     "--y0", "2/3"):
        "385489c5e31dbc2931d496c2d2887a4caba1fa31f83e5ca95ad53d10f628c2c1",
    ("compute-zhat", "--rank", "2", "--k", "1", "--max-n", "3", "--seed", "7",
     "--y-mode", "numeric", "--mode", "limit"):
        "7cd2ee1deaf397f9ab50d5a6c38578d22b16adff58ac811d0c4b1934fe1e6f83",
    ("verify-corollary", "--rank", "2", "--k", "1", "--seed-list", "53,192"):
        "2c33529b8a1c91b79fdbe86d222895ea3f1e24c320d54f62866c5dc58b6ce376",
    ("compute-zhat", "--rank", "2", "--k", "1", "--max-n", "5", "--seed", "101"):
        "3d3d9229e112466a0fe3b47266e3d0612201e8b805fac53ab51564ae9e68a81d",
    ("compute-zhat", "--rank", "2", "--k", "1", "--max-n", "5", "--seed", "101",
     "--y-mode", "numeric", "--y0", "2/3"):
        "0df24d51f382d1d922977c30d765bd37e62cec8a75ceef942553e23a12c852c3",
    ("verify-all",):
        "f4889ee713a1731b1c86408f020333c074266955f8f83ada5fabd7df8c864baa",
    ("verify-rank1", "--order", "8"):
        "e817776bd6cf29eee055ba169772a675471e24c5b96928d57a11543fdb834513",
    # limit shapes where many lattice vectors share one specialization's side sums
    ("compute-zhat", "--rank", "3", "--k", "1", "--max-n", "4", "--mode", "limit",
     "--seed", "101"):
        "c377941de822b08076e702bce73d563f30b4195b8bbf79b38f2273b38b200e3b",
    ("compute-zhat", "--rank", "4", "--k", "2", "--max-n", "3", "--mode", "limit",
     "--seed", "101"):
        "e9c3a575c6437c2faa23469d4d84cc9283d76afab5b028e6ba631e401c39ebb6",
    # limit ranks beyond the verify grid, where a side sum is a convolution power
    ("compute-zhat", "--rank", "5", "--k", "2", "--max-n", "4", "--mode", "limit",
     "--seed", "101"):
        "14f915f0c2e4734a7f21893ff501e00e4dacb914e94a5fd39af27ddb645c6746",
    ("compute-zhat", "--rank", "6", "--k", "3", "--max-n", "2", "--mode", "limit",
     "--seed", "101"):
        "c96234f95de7eb66232c4756569dea95742fc84da38d02f9db9b394d2ce1bca2",
    ("verify-blowup", "--rank", "2", "--k", "1", "--mode", "limit", "--seed-list", "53,192,101"):
        "bd1652a762404fe11e9555df59beb619ee3ce8d9d79d1644b05eae0c9be802b5",
    ("verify-limits", "--rank", "3", "--k", "1", "--seed-list", "53,192,101"):  # reseeds once
        "b83ed2af22710012988f76d0643fa684bf5e7a2e0434f33595409c11d6aa7497",
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
