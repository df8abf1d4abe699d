"""Tame orthogonal parameters as explicit monomial matrix pairs.

A tame parameter on 2n+1 coordinates is determined by self-dual Frobenius
orbits of roots of unity with sizes summing to 2n.  The inertia generator
is diagonal with those orbits as eigenvalues plus a single eigenvalue 1;
Frobenius is a block cycle shifting each orbit, with a sign on the last
coordinate chosen so the total determinant is 1.  Both matrices preserve
the symmetric form that pairs each eigenvalue slot with its inverse slot,
and conjugation by Frobenius raises inertia to the q-th power.

The dimension-7 case carries the extra eigenvalue-arrangement tests for
landing in G2: three inverse pairs multiplying to 1 around a fixed vector.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import lcm

from .cyclotomic import Cyc
from .errors import ResourceBoundExceeded
from .fingroup import FinGroup, _split_metacyclic, is_type_np
from .monomial import MonomialMatrix, _make
from .numth import is_prime
from .record import Record
from .roots import ONE, FrobeniusOrbit, RootOfUnity, frobenius_orbit

__all__ = [
    "TameParameter",
    "build_tame_parameter",
    "parameter_image",
    "G2Check",
    "is_g2_parameter",
    "g2_admissible_eigenvalues",
    "satake_lift_g2",
    "CharPolyShape",
    "char_poly_shape",
    "palindrome_split",
    "RealParameter",
    "real_parameter",
    "is_g2_real",
]

# The largest least common order of eigenvalues that palindrome_split
# takes.  Its ring Z[x]/(x^n - 1) has vectors of length n, and a composite
# n sets up an n-row power table: 840 takes 0.3 s and 990 0.9 s.
_MODULUS_BOUND = 1000


class TameParameter(Record):
    """Inertia and Frobenius images for a tame orthogonal parameter."""

    q: int
    taus: tuple[RootOfUnity, ...]
    orbits: tuple[FrobeniusOrbit, ...]
    n: int
    inertia: MonomialMatrix
    frobenius: MonomialMatrix
    pairing: tuple[int, ...]

    def __init__(self, q: int, taus: tuple[RootOfUnity, ...],
                 orbits: tuple[FrobeniusOrbit, ...], n: int,
                 inertia: MonomialMatrix, frobenius: MonomialMatrix,
                 pairing: tuple[int, ...]) -> None:
        vars(self).update(q=q, taus=taus, orbits=orbits, n=n,
                          inertia=inertia, frobenius=frobenius,
                          pairing=pairing)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def s(self) -> int:
        return len(self.orbits)

    def eigenvalues(self) -> tuple[RootOfUnity, ...]:
        return self.inertia.diag

    @cached_property
    def _checks(self) -> dict:
        t, f = self.inertia, self.frobenius
        tq = _make(t.perm, tuple([e * self.q % t.n for e in t.exps]), t.n)
        out = {
            "det": t.det().is_one and f.det().is_one,
            "form": t.preserves_form(self.pairing)
            and f.preserves_form(self.pairing),
            "conj_relation": f * t * f.inverse() == tq,
        }
        if self.n == 3:
            g2 = is_g2_parameter(self)
            out["g2"] = {"is_g2": g2.is_g2, "reason": g2.reason}
        else:
            out["g2"] = None
        return out

    def checks(self) -> dict:
        """The self-checks, computed once per parameter; each call hands
        out a fresh copy, so no caller can change the cached result."""
        out = dict(self._checks)
        if out["g2"] is not None:
            out["g2"] = dict(out["g2"])
        return out

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "q": self.q,
            "monodromy": 0,
            "orbits": [{"den": o.elements[0].den,
                        "exponents": list(o.exponents)}
                       for o in self.orbits],
            "taus": [str(t) for t in self.taus],
            "inertia": self.inertia.to_json(),
            "frobenius": self.frobenius.to_json(),
            "pairing": list(self.pairing),
            "checks": self.checks(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TameParameter":
        taus = tuple(RootOfUnity.parse(s) for s in data["taus"])
        return build_tame_parameter(data["q"], taus, (data["dim"] - 1) // 2)


def build_tame_parameter(q: int, taus, n: int) -> TameParameter:
    """Assemble the parameter for the given orbit representatives.

    Each tau must have a self-dual Frobenius orbit of even size >= 2, the
    orbits must be pairwise distinct, and the sizes must sum to 2n.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    taus = tuple(taus)
    orbits: list[FrobeniusOrbit] = []
    for tau in taus:
        orb = frobenius_orbit(tau, q)
        if not orb.selfdual or orb.size % 2 != 0 or orb.size < 2:
            raise ValueError(
                f"orbit of {tau} is not self-dual of even size: "
                f"size {orb.size}, selfdual {orb.selfdual}")
        if orb in orbits:  # an orbit's listing is canonical
            raise ValueError(f"orbit of {tau} repeats an earlier orbit")
        orbits.append(orb)
    total = sum(orb.size for orb in orbits)
    if total != 2 * n:
        raise ValueError(f"orbit sizes sum to {total}, need {2*n}")

    # the blocks as exponents over mu_N, N the lcm of the taus' orders:
    # tau^(q^j) for j < size/2, then their inverses
    dim, big = 2 * n + 1, lcm(*(tau.den for tau in taus))
    exps: list[int] = []
    perm = list(range(dim))
    pairing = list(range(dim))
    offset = 0
    for tau, orb in zip(taus, orbits):
        size, den = orb.size, tau.den
        ni = size // 2
        half = [tau.num * pow(q, j, den) % den * (big // den)
                for j in range(ni)]
        exps += half + [-e % big for e in half]
        for j in range(size):
            perm[offset + j] = offset + (j - 1) % size
            pairing[offset + j] = offset + (j + ni) % size
        offset += size
    inertia = _make(tuple(range(dim)), tuple(exps) + (0,), big)
    # Frobenius carries -1 on the last coordinate when s is odd, so det = 1
    frob = _make(tuple(perm), (0,) * (dim - 1) + (len(taus) % 2,), 2)
    param = TameParameter(q=q, taus=taus, orbits=tuple(orbits), n=n,
                          inertia=inertia, frobenius=frob,
                          pairing=tuple(pairing))
    checks = param.checks()
    if not (checks["det"] and checks["form"] and checks["conj_relation"]):
        raise AssertionError(f"parameter self-checks failed: {checks}")
    return param


def parameter_image(param: TameParameter) -> FinGroup:
    """The monomial matrix group generated by inertia and Frobenius.

    Only for a single orbit whose root has prime order p; the group is
    then metacyclic of order 2n*p: a normal Z/p with a cyclic group of
    order 2n acting faithfully on it.

    It is built from its presentation (fingroup._split_metacyclic),
    which proves from the two matrices that the group is <inertia> of
    order p, normalised by Frobenius, times <Frobenius> of order ord(F),
    meeting only in 1, and numbers t^a F^b (t the inertia) as a + p*b.
    So its order p * ord(F) must be 2n*p; then the type (2n, p)
    criterion, run on the index tables, must find the normal Z/p with
    conjugation image of order 2n.
    """
    if param.s != 1:
        raise ValueError("image analysis wants a single orbit")
    p = param.taus[0].den
    if not is_prime(p):
        raise ValueError(f"root order {p} is not prime")
    grp = _split_metacyclic(param.inertia, param.frobenius)
    expected = 2 * param.n * p
    if grp.order != expected:
        raise AssertionError(
            f"image has order {grp.order}, expected {expected}")
    if is_type_np(grp, 2 * param.n, p) is None:
        raise AssertionError("image is not metacyclic of the expected type")
    return grp


class G2Check(Record):
    is_g2: bool
    reason: str

    def __init__(self, is_g2: bool, reason: str) -> None:
        vars(self).update(is_g2=is_g2, reason=reason)

    def __bool__(self) -> bool:
        return self.is_g2


def is_g2_parameter(param: TameParameter) -> G2Check:
    """Eigenvalue criterion for the image to land in G2 (dimension 7 only).

    One orbit of size six: tau^(q^2 - q + 1) must vanish.  Three orbits of
    size two: some choice of signs makes tau1 tau2 tau3 = 1.  Any other
    orbit pattern cannot be rearranged into the G2 shape.
    """
    if param.n != 3:
        raise ValueError("G2 test wants a 7-dimensional parameter")
    if param.s == 1:
        tau = param.taus[0]
        e = tau ** (param.q**2 - param.q + 1)
        if e.is_one:
            return G2Check(True, "single orbit: tau^(q^2-q+1) = 1")
        return G2Check(False,
                       f"single orbit: tau^(q^2-q+1) = {e}, not 1")
    if param.s == 3:
        big = lcm(*(t.den for t in param.taus))
        exps = [t.num * (big // t.den) for t in param.taus]
        for signs in itertools.product((1, -1), repeat=3):
            if sum(s * e for s, e in zip(signs, exps)) % big == 0:
                return G2Check(
                    True, f"three orbits: signs {signs} multiply to 1")
        return G2Check(False, "three orbits: no sign choice multiplies to 1")
    return G2Check(False,
                   f"{param.s} orbits cannot match the G2 arrangement")


def g2_admissible_eigenvalues(eigs) -> bool:
    """Whether 7 roots of unity can be arranged as the G2 eigenvalue shape:
    {l1, 1/l1, l2, 1/l2, l3, 1/l3, 1} with l1 l2 l3 = 1 (exhaustive search
    over pairings and sign choices, on the exponents over the lcm of the
    orders)."""
    eigs = list(eigs)
    if len(eigs) != 7:
        raise ValueError("need exactly 7 eigenvalues")
    n = lcm(*(e.den for e in eigs))
    rest = [e.num * (n // e.den) for e in eigs]
    if 0 not in rest:
        return False
    rest.remove(0)
    return _pairing_search(rest, 0, n)


def _pairing_search(rest: list[int], product: int, n: int) -> bool:
    """Whether the exponents mod n in rest split into pairs {x, -x} whose
    chosen members sum with product to 0 mod n.  x pairs with the first
    copy of -x, as any other copy leaves the same multiset, and x = -x
    has one sign to choose."""
    if not rest:
        return product % n == 0
    x, inv = rest[0], -rest[0] % n
    try:
        i = rest.index(inv, 1)
    except ValueError:
        return False
    remaining = rest[1:i] + rest[i + 1:]
    # the pair contributes x or -x to the product
    return (_pairing_search(remaining, product + x, n)
            or (x != inv and _pairing_search(remaining, product - x, n)))


def satake_lift_g2(lams) -> tuple[RootOfUnity, ...]:
    """Lift a G2 Satake triple (product must be 1) to the 7 eigenvalues."""
    lams = tuple(lams)
    if len(lams) != 3:
        raise ValueError("need exactly 3 values")
    prod = lams[0] * lams[1] * lams[2]
    if not prod.is_one:
        raise ValueError(f"product is {prod}, not 1")
    out = [ONE]
    for x in lams:
        out.append(x)
        out.append(x.inverse())
    return tuple(sorted(out, key=lambda r: r.sort_key()))


class CharPolyShape(Record):
    """(x-1) * palindromic split of a characteristic polynomial."""

    passes: bool
    coeffs: tuple[Cyc, ...]

    def __init__(self, passes: bool, coeffs: tuple[Cyc, ...]) -> None:
        vars(self).update(passes=passes, coeffs=coeffs)

    @property
    def abc(self) -> tuple[Cyc, Cyc, Cyc]:
        # x^6 + a x^5 + b x^4 + c x^3 + b x^2 + a x + 1
        return (self.coeffs[5], self.coeffs[4], self.coeffs[3])

    def rational_abc(self) -> tuple[int, int, int] | None:
        vals = tuple(c.rational_value() for c in self.abc)
        if any(v is None for v in vals):
            return None
        return vals  # type: ignore[return-value]


def palindrome_split(eigs) -> tuple[bool, tuple[Cyc, ...]]:
    """Divide prod (x - eig) by (x - 1) and test the quotient for symmetry.

    The eigenvalue multiset must contain 1 and be closed under inversion.
    Returns (palindromic?, quotient coefficients low to high), exact in
    the cyclotomic ring of the least common order, which must not exceed
    _MODULUS_BOUND.
    """
    eigs = list(eigs)
    if ONE not in eigs:
        raise ValueError("eigenvalue 1 is required")
    counts: dict[RootOfUnity, int] = {}
    for e in eigs:
        counts[e] = counts.get(e, 0) + 1
    for e, c in counts.items():
        if counts.get(e.inverse(), 0) != c:
            raise ValueError("eigenvalues are not closed under inversion")
    n = lcm(*[e.den for e in eigs], 1)
    if n > _MODULUS_BOUND:
        raise ResourceBoundExceeded(
            f"cyclotomic modulus {n} exceeds the bound {_MODULUS_BOUND}")
    one = Cyc.integer(n, 1)
    # char poly, low degree first
    poly = [one]
    for e in eigs:
        root = Cyc.from_root_of_unity(e, n)
        poly = [(poly[k - 1] if k else Cyc.zero(n)) -
                (poly[k] * root if k < len(poly) else Cyc.zero(n))
                for k in range(len(poly) + 1)]
    # synthetic division by (x - 1)
    g = [Cyc.zero(n)] * (len(poly) - 1)
    g[-1] = poly[-1]
    for k in range(len(g) - 1, 0, -1):
        g[k - 1] = poly[k] + g[k]
    rem = poly[0] + g[0]
    if not rem.is_zero():
        raise AssertionError("division by (x - 1) left a remainder")
    deg = len(g) - 1
    ok = all(g[k] == g[deg - k] for k in range(deg + 1))
    return ok, tuple(g)


def char_poly_shape(eigs) -> CharPolyShape:
    """Shape test for 7 eigenvalues: f = (x-1) g with g palindromic of
    degree 6; exposes the three free coefficients."""
    eigs = list(eigs)
    if len(eigs) != 7:
        raise ValueError("need exactly 7 eigenvalues")
    ok, g = palindrome_split(eigs)
    return CharPolyShape(passes=ok, coeffs=g)


class RealParameter(Record):
    """Archimedean analogue: nonzero half-integer-free weights a_i, the
    infinitesimal character being (a_1..a_n, -a_1..-a_n, 0)."""

    a: tuple[Fraction, ...]

    def __init__(self, a: tuple[Fraction, ...]) -> None:
        vars(self).update(a=a)

    def infinitesimal_character(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return self.a + tuple(-x for x in self.a) + (Fraction(0),)

    def to_json(self) -> dict:
        return {"a": [str(x) for x in self.a],
                "infinitesimal_character":
                    [str(x) for x in self.infinitesimal_character()]}

    @classmethod
    def from_json(cls, data: dict) -> "RealParameter":
        return real_parameter(data["a"])


def real_parameter(a) -> RealParameter:
    from fractions import Fraction
    vals = tuple(Fraction(x) for x in a)
    if any(v == 0 for v in vals):
        raise ValueError("weights must be nonzero")
    if len({abs(v) for v in vals}) != len(vals):
        raise ValueError("absolute values must be pairwise distinct")
    return RealParameter(vals)


def is_g2_real(param: RealParameter) -> bool:
    """For three weights: some signs make them sum to zero."""
    if len(param.a) != 3:
        raise ValueError("G2 test wants three weights")
    a1, a2, a3 = param.a
    return any(s1 * a1 + s2 * a2 + s3 * a3 == 0
               for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
