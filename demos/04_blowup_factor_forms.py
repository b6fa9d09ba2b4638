"""The universal blow-up factor in three closed forms.

yk_main is an Euler product times a sum over integer vectors with a fixed
sum; yk_gottsche rewrites the same series as a shifted-lattice theta sum
with an upper-triangular Gram matrix; yk_euler is the y = 1 shadow.  The
forms are computed independently, so their agreement is a real check.
"""

from fractions import Fraction

from blowup_genera import yk_euler, yk_gottsche, yk_hol, yk_main

for (r, k) in ((1, 0), (2, 0), (2, 1), (3, 1)):
    main = yk_main(r, k, 2 * r * 3)
    print(f"yk(r={r}, k={k}):", main)
    assert yk_gottsche(r, k, 2 * r * 3) == main

print("\nlattice form and main form agree on the grid above")

# y = 1: coefficients become fixed-point counts.
print("\nEuler branch r=2, k=1:", yk_euler(2, 1, 9))
at_one = yk_main(2, 1, 9).at_y(Fraction(1))
assert at_one == yk_euler(2, 1, 9)

# y = 0: the stated table value is 1 or 0, but direct evaluation of the
# main form leaves a single monomial q^(k(r-k)) for 0 < k < r.  The report
# carries both values side by side.
rep = yk_hol(2, 1, 6)
print("\nholomorphic branch r=2, k=1:")
print("  stated value:", rep.stated)
print("  main form at y=0:", rep.main_at_y0)
print("  documented discrepancy:", rep.discrepant)
