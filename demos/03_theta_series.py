"""Localization sums with exact arithmetic.

The genus of a tangent character is a product of theta factors
theta(x) = (x - y)/(x - 1) over its weights, evaluated at exact rational
parameter values.  Summing over fixed points, graded by q-degree, gives
the generating series for the plane and the blow-up.  Everything is a
Fraction or a polynomial in y; nothing is ever rounded.
"""

from blowup_genera import (
    SeriesRequest,
    cleared_value,
    sample_specialization,
    theta_eval,
    tangent_p2,
    z_series,
    zhat_series,
)
from blowup_genera.partitions import enumerate_tuples

# A reproducible specialization: every parameter is a small exact rational
# drawn from a fixed splitmix64 stream.  y stays symbolic: a numeric y is
# one evaluation of a finished series.
spec = sample_specialization(2, seed=1729)
print("specialization:", spec)

# One contribution: the tangent character of one fixed point, evaluated.
fp = enumerate_tuples(2, 1)[0]
print("\ncontribution of", fp)
print("  ", cleared_value(theta_eval(tangent_p2(fp), spec)))

# The plane series in degrees q^(2rn) and the blow-up series, whose
# support starts at k(r-k) and moves in steps of 2r.
req = SeriesRequest(rank=2, max_n=2, spec=spec)
z = z_series(req)
print("\nZ:", z)
print("Z at y = 1 counts the fixed points:", z.at_y(1))

zhat = zhat_series(SeriesRequest(rank=2, max_n=2, spec=spec, k=1))
print("\nZhat:", zhat)

# The punchline: their quotient no longer depends on the specialization.
quotient = zhat * z.invert()
print("\nZhat * Z^-1:", quotient.truncate(min(z.order, zhat.order)))

other = sample_specialization(2, seed=9001)
z2 = z_series(SeriesRequest(rank=2, max_n=2, spec=other))
zhat2 = zhat_series(SeriesRequest(rank=2, max_n=2, spec=other, k=1))
quotient2 = zhat2 * z2.invert()
through = min(quotient.order, quotient2.order) - 1
print("\nsame quotient at an unrelated specialization:",
      quotient.agrees_to(quotient2, through))
