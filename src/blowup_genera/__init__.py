"""Exact localization engine for chi_y-genus series of framed-sheaf moduli.

Fixed points of the torus action are indexed by Young-diagram data; their
tangent characters are assembled from closed hook formulas, evaluated
through the multiplicative theta class at exact rational specializations,
and summed into truncated q-series.  The universal blow-up factor relating
the plane and blow-up series is built in closed form and every identity is
machine-checked coefficient by coefficient.
"""

from .blowup_factor import (
    IntegralityViolationError,
    YkHolReport,
    yk_euler,
    yk_gottsche,
    yk_hol,
    yk_main,
)
from .characters import (
    Character,
    DegenerateSpecializationError,
    RankCheckError,
    TrivialWeightError,
    Weight,
    cleared_value,
    make_weight,
    tangent_blowup,
    tangent_p2,
    theta_eval,
    theta_limit_factor,
    weight_value,
)
from .coefficients import (
    Specialization,
    SplitMix64,
    YPoly,
    YRat,
    coeff_evaluate,
    coeff_to_str,
    sample_specialization,
)
from .genera import (
    EQUIVARIANT,
    LIMIT,
    SeriesRequest,
    series_report,
    z_series,
    z_series_limit_closed,
    zhat_series,
)
from .partitions import (
    BlowupFixedPoint,
    Box,
    LatticeTooLargeError,
    LatticeVector,
    Partition,
    PartitionTuple,
    arm_leg,
    blowup_virtual_dim,
    enumerate_blowup_fixed_points,
    enumerate_lattice_vectors,
    enumerate_partitions,
    enumerate_tuples,
)
from .qseries import InvertNonUnitError, QSeries, TruncationError, euler_product
from .rank1 import hook_character, nekrasov_okounkov_rhs, verify_nekrasov_okounkov, w_series
from .verify import (
    VerificationReport,
    default_order,
    default_seeds,
    verify_corollary,
    verify_limit_consistency,
    verify_main_theorem,
    verify_rank1_identity,
)

__version__ = "0.1.0"
