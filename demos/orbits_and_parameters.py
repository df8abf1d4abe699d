"""Walk from a root of unity to a full tame parameter.

Run as: python3 demos/orbits_and_parameters.py
"""

from ggt import (RootOfUnity, build_tame_parameter, frobenius_orbit,
                 is_g2_parameter, palindrome_split, parameter_image,
                 selfdual_root)

# The orbit of tau = e^{2 pi i / 43} under exponent multiplication by 7
# closes after six steps, and the inverse shows up exactly half-way.
tau = RootOfUnity(1, 43)
orbit = frobenius_orbit(tau, 7)
print("orbit of", tau, "under q = 7:")
print("  exponents", list(orbit.exponents))
print("  size", orbit.size, "selfdual", orbit.selfdual)

# 43 was no accident: it is the largest prime factor of 7^3 + 1 whose
# order condition comes out right, which is how one finds such taus.
print("selfdual_root(7, 3) =", selfdual_root(7, 3))

# The parameter packs the orbit into a diagonal inertia generator and a
# monomial Frobenius, acting on 2n + 1 = 7 coordinates.
param = build_tame_parameter(7, [tau], 3)
print("\ninertia exponents:", [str(r) for r in param.inertia.diag])
print("frobenius permutation:", param.frobenius.perm)
print("self-checks:", {k: v for k, v in param.checks().items() if k != "g2"})

# The two matrices generate a metacyclic group of order 2 * 3 * 43.
image = parameter_image(param)
print("image order:", image.order)

# Eigenvalue shape: (x - 1) times a palindromic degree-6 factor.
ok, coeffs = palindrome_split(param.eigenvalues())
print("palindromic split:", ok)

# Landing in the exceptional subgroup is a single divisibility:
# p | q^2 - q + 1.  Here 43 = 7^2 - 7 + 1 itself.
print("\nG2 verdict:", is_g2_parameter(param).reason)

# Three orbits of size two can also assemble a 7-dimensional parameter;
# then the criterion asks for a sign combination with integral sum.
pos = build_tame_parameter(
    11, [RootOfUnity(1, 3), RootOfUnity(1, 12), RootOfUnity(7, 12)], 3)
neg = build_tame_parameter(
    11, [RootOfUnity(1, 3), RootOfUnity(1, 4), RootOfUnity(1, 6)], 3)
print("1/3, 1/12, 7/12 ->", is_g2_parameter(pos).reason)
print("1/3, 1/4, 1/6  ->", is_g2_parameter(neg).reason)
