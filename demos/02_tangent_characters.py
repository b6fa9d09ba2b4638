"""From diagrams to equivariant tangent spaces.

Each fixed point carries a torus representation on its tangent space,
written as an integer combination of monomial weights in t1, t2 and the
framing characters e_a.  The closed formulas below make three promises
that double as bug traps: the rank equals the moduli dimension, no weight
is trivial (fixed points are isolated), and the blow-up blocks are the
plane blocks after a variable substitution and a twist.
"""

from blowup_genera import (
    LatticeVector,
    Partition,
    PartitionTuple,
    enumerate_blowup_fixed_points,
    hook_character,
    tangent_blowup,
    tangent_p2,
)
from blowup_genera.characters import hook_exponents, plane_block, simplex_block

# The pairing block of Y_a with Y_b has one t-exponent pair (i1, i2) per box
# of either diagram; two single boxes give t1 + t2.
print("hook exponents (1),(1):", sorted(hook_exponents(Partition((1,)), Partition((1,)))))
print("hook exponents (2),(2):", sorted(hook_exponents(Partition((2,)), Partition((2,)))))

# One diagram against itself is the rank-one hook character; a variable
# substitution such as (t1, t2) -> (t1, t2/t1) acts on the exponents.
for substitution in ("identity", "t2/t1", "t1/t2"):
    print(f"hook character of (1) under {substitution}:",
          hook_character(Partition((1,)), substitution))

# The exceptional block of a lattice vector is a simplex of weights fixed by
# the degree differences; its rank is the vector's pair form.
for entries in ((1, 0), (0, 2), (3, 0)):
    kvec = LatticeVector(entries)
    blk = simplex_block(kvec)
    print(f"simplex block of kvec {entries}: rank {blk.rank} (= pair form {kvec.pair_form}): {blk}")

# Tangent spaces assemble the blocks; rank checks run on construction.
fp = PartitionTuple((Partition((2, 1)), Partition((1,))))
char = tangent_p2(fp)
print("\nplane tangent at", fp, "rank", char.rank, "(= 2*r*n =", 2 * 2 * 4, ")")

# On the blow-up a fixed point (Y, Z, kvec) is the simplex of kvec plus the
# Y block and the Z block, each a plane tangent character substituted and
# twisted by kvec.
for fp in enumerate_blowup_fixed_points(2, 1, 1)[:3]:
    char = tangent_blowup(fp)
    blocks = (simplex_block(fp.kvec), plane_block(fp.y_tuple, fp.kvec, "y"),
              plane_block(fp.z_tuple, fp.kvec, "z"))
    print("blow-up tangent rank", char.rank, "at kvec", fp.kvec.entries,
          "weight", fp.weight, "= block ranks", [b.rank for b in blocks])
