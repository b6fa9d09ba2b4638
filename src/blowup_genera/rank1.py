"""The rank-one hook series W and its infinite-product quotient identity.

W(t1, t2, y, q) sums over single Young diagrams: each box contributes the
two theta factors of its hook monomials t1^(-leg) * t2^(arm+1) and
t1^(leg+1) * t2^(-arm), and the diagram is graded by plain q^|Y|.  The
identity checked here is

    W(t1, t2/t1) * W(t1/t2, t2) / W(t1, t2) = prod_{n>=1} (1 - (y q)^n)^-1,

verified coefficient-by-coefficient at exact rational specializations.
"""

from __future__ import annotations

from .characters import (
    SUBSTITUTIONS,
    Character,
    cleared_sum,
    cleared_value,
    hook_exponents,
    make_weight,
    theta_eval,
)
from .coefficients import Specialization
from .partitions import enumerate_partitions
from .qseries import QSeries, euler_product


def hook_character(p, substitution: str = "identity") -> Character:
    """Both hook monomials of every box of one diagram, as a character.

    This is the single-slot pairing block of p with itself, whose e-parts
    cancel, under the given variable substitution.
    """
    if substitution not in SUBSTITUTIONS:
        raise ValueError(f"unsupported substitution {substitution!r}")
    remap = SUBSTITUTIONS[substitution]
    return Character((make_weight(*remap(i1, i2)), 1) for i1, i2 in hook_exponents(p, p))


def w_series(spec: Specialization, order: int, substitution: str = "identity") -> QSeries:
    """Rank-one series with the given variable substitution, valid through q^order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    terms = {}
    for m in range(order + 1):
        pair = cleared_sum(
            theta_eval(hook_character(p, substitution), spec) for p in enumerate_partitions(m)
        )
        terms[m] = cleared_value(pair, spec)
    return QSeries.from_terms(terms, order + 1)


def nekrasov_okounkov_rhs(order: int, y0=None) -> QSeries:
    """prod_{n>=1} (1 - (y q)^n)^-1 through q^order."""
    return euler_product(1, 1, -1, order + 1, y0=y0)


def verify_nekrasov_okounkov(spec: Specialization, order: int) -> dict:
    """Check the quotient identity at one specialization, multiplicatively.

    Confirms W(t1,t2/t1) * W(t1/t2,t2) == rhs * W(t1,t2) for every
    exponent <= order, which avoids inverting W.  Returns a small report
    with the first failing exponent, if any.
    """
    w_plain = w_series(spec, order, "identity")
    w_12 = w_series(spec, order, "t2/t1")
    w_21 = w_series(spec, order, "t1/t2")
    rhs = nekrasov_okounkov_rhs(order, y0=spec.y0)
    left = w_12 * w_21
    right = rhs * w_plain
    first_bad = left.first_difference(right, order)
    return {
        "check": "rank1-product-identity",
        "order": order,
        "seed": spec.seed,
        "y_mode": spec.y_mode,
        "pass": first_bad is None,
        "first_failure": first_bad,
    }
