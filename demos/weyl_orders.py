"""Element orders in Weyl groups, rank 8 and below.

Classical types come from partition combinatorics, exceptional types,
E8 included, from exact coset tallies of the Weyl group.  Expect about
6 s on one core of a 2-vCPU Xeon, nearly all of it the E8 tally.

Run as: python3 demos/weyl_orders.py
"""

from ggt import (almost_minuscule_data, cyclic_weight_permutation_check,
                 even_dimension_controls, order_table, uniqueness_scan,
                 weyl_element_orders)

oset = weyl_element_orders("A4+G2")
print("A4+G2 element orders:", sorted(oset.orders))
print("maximal under divisibility:", sorted(oset.maximal))

# The reference table of maximal order sets, all 29 rows.  The B4 row is
# printed with a redundant 4 next to 8; the computed antichain drops it,
# and the agreement check accounts for exactly that.
print("\nreference table:")
for row in order_table():
    star = "" if row["maximal"] == row["reference"] else "  <- antichain"
    print(f"  {row['root_system']:>8}: {row['reference']}{star}")

# Certain order sets pin down a unique root system of the given rank.
for rank, orders in [(2, {6}), (4, {8, 12}), (6, {9}),
                     (7, {18, 30}), (8, {18, 20, 30})]:
    hits = uniqueness_scan(rank, orders)
    print(f"rank {rank}, orders {sorted(orders)}: "
          f"{[rs.label for rs in hits]}")

# Almost-minuscule representations: dimension and zero-weight count
# straight from the root data.
print()
for label in ("B3", "C3", "G2", "F4"):
    dim, zero = almost_minuscule_data(label)
    print(f"{label}: dimension {dim}, zero weight multiplicity {zero}")

# In the odd-dimensional cases a single Weyl element cycles all nonzero
# weights; the even-dimensional lookalikes all fail.
print("\nB3 standard (dim 7) has a full weight cycle:",
      cyclic_weight_permutation_check("B3", 7))
for name, ok in even_dimension_controls().items():
    print(f"  {name}: {ok}")
