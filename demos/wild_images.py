"""The two wild 2-adic image families: sign-cycle groups and the
order-168 normalizer of a Jordan subgroup.

Run as: python3 demos/wild_images.py
"""

from ggt import (build_g2_jordan, build_so_wild, g2_jordan_report,
                 mackey_decompose, so_wild_report)

# For odd m the image inside SO(m) is generated by the cyclic coordinate
# shift and sign flips on adjacent pairs.  Nothing closes the group: the
# report reads every clause off the sign vectors as a module V over
# F_2[x]/(x^m - 1), with exact integer arithmetic: order 2^dim(V) * m
# (dim V by an F_2 rank, checked against the cyclic-code gcd),
# abelianization, commutator (1 + x)V, irreducibility via the character
# norm.
for m in (3, 5, 7):
    rep = so_wild_report(build_so_wild(m))
    print(f"m = {m}: order {rep['order']} "
          f"(expected 2^{m - 1} * {m}: {rep['order_expected']}), "
          f"abelianization {rep['abelianization']}, "
          f"commutator order {rep['commutator']['order']}")

# At m = 7 one might hope the group fits inside the exceptional subgroup
# of SO(7).  It cannot: each sign generator has eigenvalues (1^5, (-1)^2),
# and no arrangement into inverse-closed pairs with product one exists.
rep = so_wild_report(build_so_wild(7))
print("\nm = 7 obstruction (eigenvalue arrangement fails):",
      rep["g2_obstruction"])

# The second family lives over F_8: triples (v, a, phi) of a translation,
# a unit scalar and a field automorphism, 8 * 7 * 3 = 168 in total.  Its
# 21-dimensional induced monomial model splits under Mackey into three
# degree-7 pieces.
g2j = build_g2_jordan()
rep = g2_jordan_report(g2j)
print("\nJordan normalizer: order", rep["order"],
      "normal subgroup orders", rep["normal_subgroup_orders"])
print("translation subgroup order:", rep["jordan_order"],
      " character stabilizer:", rep["character_stabilizer_order"])
for c in mackey_decompose(g2j):
    print(f"  constituent {c.k}: degree {c.degree}, "
          f"selfdual {c.selfdual}, faithful {c.faithful}")
print("exactly one self-dual constituent is what singles out the"
      " orthogonal embedding")
