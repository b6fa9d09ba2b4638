"""Exact localization engine for chi_y-genus series of framed-sheaf moduli.

Fixed points of the torus action are indexed by Young-diagram data; their
tangent characters are assembled from closed hook formulas, evaluated
through the multiplicative theta class at exact rational specializations,
and summed into truncated q-series.  The universal blow-up factor relating
the plane and blow-up series is built in closed form and every identity is
machine-checked coefficient by coefficient.

The names below are exported lazily (PEP 562): a submodule is imported the
first time one of its names, or the submodule itself, is looked up, so
``python -m blowup_genera.cli`` loads only the layers its subcommand runs.
"""

import importlib

# each submodule and the names the package exports from it
_EXPORTS = {
    "blowup_factor": (
        "IntegralityViolationError",
        "YkHolReport",
        "yk_euler",
        "yk_gottsche",
        "yk_hol",
        "yk_main",
    ),
    "characters": (
        "Character",
        "DegenerateSpecializationError",
        "RankCheckError",
        "TrivialWeightError",
        "Weight",
        "hook_character",
        "make_weight",
        "tangent_blowup",
        "tangent_p2",
        "theta_eval",
        "theta_limit_factor",
        "weight_value",
    ),
    "coefficients": (
        "Specialization",
        "SplitMix64",
        "YPoly",
        "YRat",
        "cleared_value",
        "sample_specialization",
    ),
    "genera": (
        "EQUIVARIANT",
        "LIMIT",
        "SeriesRequest",
        "series_report",
        "z_series",
        "z_series_limit_closed",
        "zhat_series",
    ),
    "partitions": (
        "BlowupFixedPoint",
        "Box",
        "LatticeTooLargeError",
        "LatticeVector",
        "Partition",
        "PartitionTuple",
        "arm_leg",
        "blowup_virtual_dim",
        "enumerate_blowup_fixed_points",
        "enumerate_lattice_vectors",
        "enumerate_partitions",
        "enumerate_tuples",
    ),
    "qseries": ("InvertNonUnitError", "QSeries", "TruncationError", "euler_product"),
    "rank1": ("nekrasov_okounkov_rhs", "verify_nekrasov_okounkov", "w_series"),
    "verify": (
        "VerificationReport",
        "default_order",
        "default_seeds",
        "verify_corollary",
        "verify_limit_consistency",
        "verify_main_theorem",
        "verify_rank1_identity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
