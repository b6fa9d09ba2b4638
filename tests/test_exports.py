"""The package's lazily loaded exports: the same names and objects as its submodules."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import blowup_genera

SRC = Path(__file__).resolve().parents[1] / "src"

# every exported name, by defining submodule, in the package's order
EXPORTS = [
    ("blowup_factor", ["IntegralityViolationError", "YkHolReport", "yk_euler", "yk_gottsche",
                       "yk_hol", "yk_main"]),
    ("characters", ["Character", "DegenerateSpecializationError", "RankCheckError",
                    "TrivialWeightError", "Weight", "hook_character", "make_weight",
                    "tangent_blowup", "tangent_p2", "theta_eval", "theta_limit_factor",
                    "weight_value"]),
    ("coefficients", ["Specialization", "SplitMix64", "YPoly", "YRat", "cleared_value",
                      "sample_specialization"]),
    ("genera", ["EQUIVARIANT", "LIMIT", "SeriesRequest", "series_report", "z_series",
                "z_series_limit_closed", "zhat_series"]),
    ("partitions", ["BlowupFixedPoint", "Box", "LatticeTooLargeError", "LatticeVector",
                    "Partition", "PartitionTuple", "arm_leg", "blowup_virtual_dim",
                    "enumerate_blowup_fixed_points", "enumerate_lattice_vectors",
                    "enumerate_partitions", "enumerate_tuples"]),
    ("qseries", ["InvertNonUnitError", "QSeries", "TruncationError", "euler_product"]),
    ("rank1", ["nekrasov_okounkov_rhs", "verify_nekrasov_okounkov", "w_series"]),
    ("verify", ["VerificationReport", "default_order", "default_seeds", "verify_corollary",
                "verify_limit_consistency", "verify_main_theorem", "verify_rank1_identity"]),
]


def test_all_lists_every_exported_name():
    assert blowup_genera.__all__ == [name for _module, names in EXPORTS for name in names]
    assert set(blowup_genera.__all__) <= set(dir(blowup_genera))


@pytest.mark.parametrize("module, names", EXPORTS)
def test_each_export_is_the_submodule_object(module, names):
    sub = importlib.import_module(f"blowup_genera.{module}")
    assert getattr(blowup_genera, module) is sub
    for name in names:
        assert getattr(blowup_genera, name) is getattr(sub, name), name


def test_only_coefficients_binds_yrat():
    # Q[y] is the one coefficient ring of the engine: YRat stays in
    # coefficients as the tests' rational-function reference, and no other
    # module takes it back in
    for info in pkgutil.iter_modules(blowup_genera.__path__):
        if info.name != "coefficients":
            sub = importlib.import_module(f"blowup_genera.{info.name}")
            assert "YRat" not in vars(sub), info.name
    assert blowup_genera.YRat is importlib.import_module("blowup_genera.coefficients").YRat


# A fresh process: a submodule resolves as a package attribute without a prior
# import, a star import binds every exported name, and an unknown name fails.
FRESH = """
import sys
import blowup_genera
assert "blowup_genera.characters" not in sys.modules
assert blowup_genera.characters is sys.modules["blowup_genera.characters"]
namespace = {}
exec("from blowup_genera import *", namespace)
assert all(namespace[name] is getattr(blowup_genera, name) for name in blowup_genera.__all__)
try:
    blowup_genera.no_such_name
except AttributeError as exc:
    assert "no attribute 'no_such_name'" in str(exc)
    print("ok")
"""


def test_fresh_process_resolves_submodules_and_star_import():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
