"""Depth-one wild parameter images at the prime 2.

Two constructions live here.  For odd orthogonal groups, the image is a
group of m x m sign-monomial matrices: m diagonal involutions, each with
exactly two -1 entries in cyclically shifted positions, together with the
m-cycle permuting them.  For G2, the image is the order-168 extension of
F_8 by its multiplicative group and its field automorphisms, realized
through the 21-dimensional monomial representation induced from the
nontrivial additive character of F_8.

All character arithmetic is exact: traces are integers, constituent
values are integer vectors in the cyclotomic ring of order 21, and inner
products must come out as exact nonnegative integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import Cyc
from .errors import ResourceBoundExceeded
from .fingroup import DEFAULT_CLOSURE_BOUND, FinGroup
from .monomial import MonomialMatrix
from .roots import MINUS_ONE, ONE
from .weilparams import g2_admissible_eigenvalues

__all__ = [
    "WildImageSO",
    "build_so_wild",
    "so_wild_report",
    "G2JordanGroup",
    "build_g2_jordan",
    "Constituent",
    "mackey_decompose",
    "g2_jordan_report",
]


@dataclass(frozen=True)
class WildImageSO:
    """Sign-monomial image for the odd orthogonal group of size m."""

    m: int
    sign_gens: tuple[MonomialMatrix, ...]
    cycle: MonomialMatrix
    group: FinGroup

    def eigenvalue_multiset(self) -> dict[int, int]:
        # every sign generator has the same spectrum: two -1, rest +1
        return {1: self.m - 2, -1: 2}


def _sign_generator(m: int, j: int) -> MonomialMatrix:
    diag = tuple(MINUS_ONE if (i + j) % m in (0, 1) else ONE
                 for i in range(m))
    return MonomialMatrix.diagonal(diag)


def build_so_wild(m: int, bound: int = DEFAULT_CLOSURE_BOUND) -> WildImageSO:
    """The monomial image for odd m between 3 and 15.

    Generated by one sign involution and the m-cycle; the other sign
    involutions are its cycle conjugates.  Order 2^(m-1) * m.
    """
    if m % 2 == 0 or not 3 <= m <= 15:
        raise ValueError(f"m must be odd in [3, 15], got {m}")
    expected = 2 ** (m - 1) * m
    if expected > bound:
        raise ResourceBoundExceeded(
            f"group of order {expected} exceeds bound {bound}")
    signs = tuple(_sign_generator(m, j) for j in range(m))
    cycle = MonomialMatrix.permutation(tuple((k - 1) % m for k in range(m)))
    cyc_inv = cycle.inverse()
    for j in range(m):
        if cycle * signs[j] * cyc_inv != signs[(j + 1) % m]:
            raise AssertionError("cycle does not shift the sign generators")
    grp = FinGroup.generate([signs[0], cycle], bound=bound)
    if grp.order != expected:
        raise AssertionError(
            f"closure has order {grp.order}, expected {expected}")
    return WildImageSO(m=m, sign_gens=signs, cycle=cycle, group=grp)


def _character_tuples(m: int) -> list[tuple[int, ...]]:
    # sign tuple of the i-th cyclic shift of the base character
    return [tuple(-1 if (i + j) % m in (0, 1) else 1 for j in range(m))
            for i in range(m)]


def so_wild_report(w: WildImageSO) -> dict:
    """All structure clauses for the odd orthogonal wild image, exactly.

    Abelianization cyclic of order m, commutator elementary abelian of
    order 2^(m-1), determinant identically 1, irreducibility by character
    norm, self-duality because every element's trace is an integer, and
    for m = 7 the negative eigenvalue arrangement result.
    """
    m, grp = w.m, w.group
    comm = grp.commutator_subgroup()
    elementary = all(x * x == grp.identity for x in comm
                     if x != grp.identity)

    det_trivial = all(g.det().is_one for g in grp.elements)

    # trace_int admits only +-1 on the diagonal, so the character is
    # integer-valued: chi(g^-1) = chi(g), and it is self-dual
    norm = sum(g.trace_int() ** 2 for g in grp.elements)
    if norm % grp.order != 0:
        raise AssertionError("character norm is not an integer")

    tuples = _character_tuples(m)
    # joint kernel of the shifted characters inside the full sign group
    kernel = [v for v in range(2 ** m)
              if all(sum((v >> j) & 1 for j in range(m)
                         if t[j] == -1) % 2 == 0 for t in tuples)]

    g2_obstruction = None
    if m == 7:
        from .roots import RootOfUnity
        eigs = [ONE] * 5 + [RootOfUnity(1, 2)] * 2
        g2_obstruction = not g2_admissible_eigenvalues(eigs)

    abelian = grp.abelianization()
    return {
        "m": m,
        "order": grp.order,
        "order_expected": grp.order == 2 ** (m - 1) * m,
        "abelianization": abelian,
        "abelianization_cyclic_m": abelian == [m],
        "commutator": {"order": len(comm), "elementary_abelian": elementary},
        "commutator_expected": len(comm) == 2 ** (m - 1) and elementary,
        "det_trivial": det_trivial,
        "irreducible": norm == grp.order,
        "selfdual": True,
        "conjugates_distinct": len(set(tuples)) == m,
        "joint_kernel_is_diagonal": kernel == [0, 2 ** m - 1],
        "g2_obstruction": g2_obstruction,
    }


# ---------------------------------------------------------------------------
# The G2 side: F_8 = F_2[x]/(x^3 + x + 1) as bitmasks 0..7 with basis
# 1, x, x^2; the primitive element e is x itself.

_F8_POLY = 0b1011


def _f8_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0b1000:
            a ^= _F8_POLY
        b >>= 1
    return acc


def _f8_pow2(a: int, k: int) -> int:
    for _ in range(k % 3):
        a = _f8_mul(a, a)
    return a


_F8_INV = {a: next(b for b in range(1, 8) if _f8_mul(a, b) == 1)
           for a in range(1, 8)}

_F8_TRACE = {a: (a ^ _f8_pow2(a, 1) ^ _f8_pow2(a, 2)) & 1 for a in range(8)}


def _triple_mul(g1: tuple[int, int, int],
                g2: tuple[int, int, int]) -> tuple[int, int, int]:
    v1, a1, f1 = g1
    v2, a2, f2 = g2
    return (v1 ^ _f8_mul(a1, _f8_pow2(v2, f1)),
            _f8_mul(a1, _f8_pow2(a2, f1)),
            (f1 + f2) % 3)


def _triple_inv(g: tuple[int, int, int]) -> tuple[int, int, int]:
    v, a, f = g
    ai = _F8_INV[a]
    fi = (3 - f) % 3
    return (_f8_pow2(_f8_mul(ai, v), fi), _f8_pow2(ai, fi), fi)


@dataclass(frozen=True)
class G2JordanGroup:
    """Order-168 group with its 21-dimensional induced monomial model.

    triples lists the abstract elements (v, a, phi); matrix maps each to
    its monomial matrix; jordan is the translation subgroup of order 8.
    """

    triples: tuple[tuple[int, int, int], ...]
    matrix: dict
    group: FinGroup
    jordan: frozenset

    def trace(self, g: tuple[int, int, int]) -> int:
        return self.matrix[g].trace_int()


def _coset_index(a: int, f: int) -> int:
    return (a - 1) * 3 + f


def _induced_matrix(g: tuple[int, int, int]) -> MonomialMatrix:
    v0, a0, f0 = g
    perm = [0] * 21
    diag = [ONE] * 21
    for a in range(1, 8):
        for f in range(3):
            a2 = _f8_mul(a0, _f8_pow2(a, f0))
            f2 = (f0 + f) % 3
            u = _f8_pow2(_f8_mul(v0, _F8_INV[a2]), (3 - f2) % 3)
            j = _coset_index(a, f)
            perm[j] = _coset_index(a2, f2)
            diag[j] = MINUS_ONE if _F8_TRACE[u] else ONE
    return MonomialMatrix(tuple(perm), tuple(diag))


def build_g2_jordan() -> G2JordanGroup:
    """The full order-168 group and its induced 21-dimensional model.

    Checks on the way out: the map to matrices is an injective
    homomorphism, the translation subgroup is the unique minimal normal
    subgroup, and the normal subgroup orders are 1, 8, 56, 168.
    """
    triples = tuple((v, a, f)
                    for v in range(8) for a in range(1, 8) for f in range(3))
    matrix = {g: _induced_matrix(g) for g in triples}
    if len(set(matrix.values())) != 168:
        raise AssertionError("induced model is not faithful")
    gens = [(1, 1, 0), (0, 2, 0), (0, 1, 1)]
    for g1 in gens:
        for g2 in triples:
            if matrix[g1] * matrix[g2] != matrix[_triple_mul(g1, g2)]:
                raise AssertionError("induced model is not a homomorphism")
    grp = FinGroup([matrix[g] for g in gens],
                   matrix.values(), matrix[(0, 1, 0)])
    if grp.order != 168:
        raise AssertionError(f"expected order 168, got {grp.order}")

    jordan = frozenset(matrix[(v, 1, 0)] for v in range(8))
    orders = [len(n) for n in grp.normal_subgroups()]
    if orders != [1, 8, 56, 168]:
        raise AssertionError(f"normal subgroup orders {orders}")
    if not grp.is_normal(jordan):
        raise AssertionError("translation subgroup is not normal")
    if any(x * x != grp.identity for x in jordan):
        raise AssertionError("translation subgroup is not elementary abelian")
    return G2JordanGroup(triples=triples, matrix=matrix, group=grp,
                         jordan=jordan)


def character_stabilizer_order(g2j: G2JordanGroup) -> int:
    """Order of the stabilizer, inside the 21 cosets of the translations,
    of the trace character; the field automorphisms and nothing else."""
    # character c: v -> (-1)^Tr(cv); conjugation by (0,a,f) sends the
    # character at c = 1 to the one at c', found by matching all values
    stab = 0
    orbit = set()
    for a in range(1, 8):
        for f in range(3):
            vals = tuple(_F8_TRACE[_f8_mul(a, _f8_pow2(v, f))]
                         for v in range(8))
            base = tuple(_F8_TRACE[v] for v in range(8))
            if vals == base:
                stab += 1
            c = next(c for c in range(1, 8)
                     if tuple(_F8_TRACE[_f8_mul(c, v)]
                              for v in range(8)) == vals)
            orbit.add(c)
    if len(orbit) != 7:
        raise AssertionError("character orbit is not full")
    return stab


_OMEGA_EXP = 7  # cube root of unity inside the order-21 cyclotomic ring


@dataclass(frozen=True)
class Constituent:
    k: int
    degree: int
    selfdual: bool
    faithful: bool

    def to_json(self) -> dict:
        return {"degree": self.degree, "selfdual": self.selfdual,
                "faithful": self.faithful}


def _induced_from_extension(g2j: G2JordanGroup, k: int) -> dict:
    """Character induced from the degree-24 subgroup of pairs (v, 1, f),
    where the extension multiplies the trace sign by the k-th power of a
    cube root of unity raised to f."""
    reps = [(0, a, 0) for a in range(1, 8)]
    rep_invs = [_triple_inv(r) for r in reps]
    vals: dict = {}
    for g in g2j.triples:
        total = Cyc.zero(21)
        for r, ri in zip(reps, rep_invs):
            v, a, f = _triple_mul(ri, _triple_mul(g, r))
            if a != 1:
                continue
            sign = -1 if _F8_TRACE[v] else 1
            term = Cyc.root(21, (_OMEGA_EXP * k * f) % 21)
            total = total + (term if sign == 1 else -term)
        vals[g] = total
    return vals


def _inner_product(g2j: G2JordanGroup, avals: dict, bvals: dict) -> int:
    total = Cyc.zero(21)
    for g in g2j.triples:
        total = total + avals[g] * bvals[g].conj()
    r = total.rational_value()
    if r is None or r % 168 != 0:
        raise AssertionError(f"inner product {r} is not an integer multiple")
    return r // 168


def mackey_decompose(g2j: G2JordanGroup) -> list[Constituent]:
    """Split the 21-dimensional induced character into irreducibles.

    The three candidate constituents are induced from the three
    extensions of the trace character to the translations-plus-Galois
    subgroup.  Verifies, with exact integer inner products: each is
    irreducible, they are pairwise distinct, and their pointwise sum is
    the 21-dimensional character.  Anything but three degree-7 faithful
    constituents with exactly one self-dual is a hard failure.
    """
    big = {g: Cyc.integer(21, g2j.trace(g)) for g in g2j.triples}
    out = []
    parts = []
    for k in range(3):
        vals = _induced_from_extension(g2j, k)
        if _inner_product(g2j, vals, vals) != 1:
            raise AssertionError(f"constituent {k} is not irreducible")
        if _inner_product(g2j, big, vals) != 1:
            raise AssertionError(f"constituent {k} missing from induction")
        deg = vals[(0, 1, 0)].rational_value()
        kernel = [g for g in g2j.triples
                  if vals[g] == Cyc.integer(21, deg)]
        selfdual = all(vals[g] == vals[_triple_inv(g)]
                       for g in g2j.triples)
        parts.append(vals)
        out.append(Constituent(k=k, degree=deg, selfdual=selfdual,
                               faithful=kernel == [(0, 1, 0)]))
    for i in range(3):
        for j in range(i + 1, 3):
            if _inner_product(g2j, parts[i], parts[j]) != 0:
                raise AssertionError("constituents are not distinct")
    for g in g2j.triples:
        if parts[0][g] + parts[1][g] + parts[2][g] != big[g]:
            raise AssertionError("constituents do not sum to the induction")
    if [c.degree for c in out] != [7, 7, 7]:
        raise AssertionError("constituent degrees are off")
    if sum(1 for c in out if c.selfdual) != 1:
        raise AssertionError("self-dual count is off")
    if not all(c.faithful for c in out):
        raise AssertionError("a constituent is not faithful")
    return out


def g2_jordan_report(g2j: G2JordanGroup) -> dict:
    cons = mackey_decompose(g2j)
    return {
        "order": g2j.group.order,
        "normal_subgroup_orders": [len(n)
                                   for n in g2j.group.normal_subgroups()],
        "jordan_order": len(g2j.jordan),
        "character_stabilizer_order": character_stabilizer_order(g2j),
        "constituents": [c.to_json() for c in cons],
    }
