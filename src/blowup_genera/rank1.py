"""The rank-one hook series W and its infinite-product quotient identity.

W(t1, t2, y, q) sums over single Young diagrams: each box contributes the
two theta factors of its hook monomials t1^(-leg) * t2^(arm+1) and
t1^(leg+1) * t2^(-arm), and the diagram is graded by plain q^|Y|.  The
identity checked here is

    W(t1, t2/t1) * W(t1/t2, t2) / W(t1, t2) = prod_{n>=1} (1 - (y q)^n)^-1,

verified coefficient-by-coefficient at exact rational specializations,
with y symbolic on both sides.

Read in q^2, the rank-one plane series z_series is W(t1, t2) and the
k = 0 blow-up series zhat_series is W(t1, t2/t1) * W(t1/t2, t2), so the
identity is the blow-up formula at r = 1, k = 0.  The verification
drivers check it that way (verify.verify_rank1_identity), on the series
the r = 1 main theorem builds, and no longer call
verify_nekrasov_okounkov, which stays as the library's reference: it
builds the three W series from hook characters.  compute-w and the
limit-mode closed form of genera use w_series.
"""

from __future__ import annotations

from .characters import hook_character, theta_sum
from .coefficients import Specialization, cleared_value
from .partitions import enumerate_partitions
from .qseries import QSeries, euler_product


def w_series(spec: Specialization, order: int, substitution: str = "identity") -> QSeries:
    """Rank-one series with the given variable substitution, valid through q^order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    terms = {}
    for m in range(order + 1):
        pair = theta_sum((hook_character(p, substitution) for p in enumerate_partitions(m)), spec)
        terms[m] = cleared_value(pair)
    return QSeries.from_terms(terms, order + 1)


def nekrasov_okounkov_rhs(order: int) -> QSeries:
    """prod_{n>=1} (1 - (y q)^n)^-1 through q^order."""
    return euler_product(1, 1, -1, order + 1)


def verify_nekrasov_okounkov(spec: Specialization, order: int) -> dict:
    """Check the quotient identity at one specialization, multiplicatively.

    Confirms W(t1,t2/t1) * W(t1/t2,t2) == rhs * W(t1,t2) for every
    exponent <= order, which avoids inverting W.  Returns a small report
    with the first failing exponent, if any.
    """
    w_plain = w_series(spec, order, "identity")
    w_12 = w_series(spec, order, "t2/t1")
    w_21 = w_series(spec, order, "t1/t2")
    rhs = nekrasov_okounkov_rhs(order)
    left = w_12 * w_21
    right = rhs * w_plain
    first_bad = left.first_difference(right, order)
    return {
        "check": "rank1-product-identity",
        "order": order,
        "seed": spec.seed,
        "pass": first_bad is None,
        "first_failure": first_bad,
    }
