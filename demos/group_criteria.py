"""Finite group criteria: depth cores and type (n, p) detection.

Run as: python3 demos/group_criteria.py
"""

from ggt import (cyclic, direct_product, is_type_np, is_type_npl,
                 metacyclic)

# The metacyclic group Z/7 semidirect Z/6 with faithful action is the
# reference example: its conjugation action on the normal Z/7 has order
# exactly 6, making it type (6, 7).
g = metacyclic(6, 7)
print("metacyclic(6,7): order", g.order,
      " abelianization", g.abelianization())
print("normal subgroup orders:", sorted(len(n)
                                        for n in g.normal_subgroups()))

# The depth-6 core (intersection of normal subgroups of index <= 6)
# is exactly the normal Z/7.
print("depth-6 core order:", len(g.index_core(6)))

w = is_type_np(g, 6, 7)
print("type (6,7) witness:", w)
print("type (3,7)?", is_type_np(g, 3, 7), " (the order must be exact)")
print("cyclic(12) type (6,7)?", is_type_np(cyclic(12), 6, 7))

# Allowing an extension by an ell-group: the direct product with Z/4
# keeps the witness, and the (n, p, ell) check certifies that the
# verdict is stable under killing any normal 2-subgroup.
h = direct_product(cyclic(4), metacyclic(6, 7))
print("\nC4 x metacyclic(6,7): order", h.order)
print("type (6,7) directly?", is_type_np(h, 6, 7) is not None)
print("type (6,7) under every 2-quotient?", is_type_npl(h, 6, 7, 2))

# Depth cores commute with quotients; spot-check one instance.
# Subgroups are sets of element indices, and proj maps an index of h to
# an index of quo.
quo, proj = h.quotient(h.ell_core(2))
lhs = set(map(proj, h.index_core(6)))
rhs = set(quo.index_core(6))
print("core image under the 2-core quotient matches:", lhs == rhs)
