"""Depth-one wild parameter images at the prime 2.

Two constructions live here.  For odd orthogonal groups, the image is a
group of m x m sign-monomial matrices: m diagonal involutions, each with
exactly two -1 entries in cyclically shifted positions, together with the
m-cycle permuting them.  Nothing closes it: the report reads every
clause off the F_2[C_m]-module.  A sign vector is an int bitmask, V is
the F_2 span of the shifted sign vectors (for the wild image the
even-weight code), the cycle acts on V as x does on F_2[x]/(x^m - 1),
and the group is V x| C_m of order 2^dim(V) * m.  dim V is the F_2
rank of the shifts and, as a cyclic code, m - deg gcd(x^m - 1, s_i(x));
the two must agree.  Its commutator subgroup is (1 + x)V, its
abelianization V/(1 + x)V x C_m, and since no nontrivial power of an
m-cycle fixes a point, the character norm is a sum over V alone, read
off the classes of coordinates that agree on V.  For G2, the image is
the order-168 extension of F_8 by its multiplicative group and its
field automorphisms, realized through the 21-dimensional monomial
representation induced from the nontrivial additive character of F_8.
The G2 side runs on tables: F_8 multiplication and Frobenius powers are
looked up, the group is closed by FinGroup.generate, and the model is
checked to be a homomorphism on the group's left multiplication tables.

All character arithmetic is exact: traces are integers, constituent
values are integer coordinates (x, y) of x + y omega in Z[omega], omega a
cube root of unity, and inner products must come out as exact
nonnegative integers.  Characters are class functions, so the G2 sums run
over the 8 conjugacy classes of the order-168 group, each weighted by its
size, not over its 168 elements; one check at all 168 elements confirms
that each constituent is constant on every class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import ResourceBoundExceeded
from .fingroup import DEFAULT_CLOSURE_BOUND, FinGroup
from .monomial import MonomialMatrix, _make
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
    """Sign-monomial image for the odd orthogonal group of size m.

    generators are what the report reads: +-1 diagonal matrices and one
    m-cycle.  group closes them under bound on first access, and raises
    ResourceBoundExceeded if the order 2^(m-1) * m exceeds it; no report
    needs it, so only callers that ask for elements pay for the closure.
    """

    m: int
    sign_gens: tuple[MonomialMatrix, ...]
    cycle: MonomialMatrix
    generators: tuple[MonomialMatrix, ...]
    bound: int = DEFAULT_CLOSURE_BOUND

    @cached_property
    def group(self) -> FinGroup:
        expected = 2 ** (self.m - 1) * self.m
        if expected > self.bound:
            raise ResourceBoundExceeded(
                f"group of order {expected} exceeds bound {self.bound}")
        return FinGroup.generate(list(self.generators), bound=self.bound)


def _sign_generator(m: int, j: int) -> MonomialMatrix:
    diag = tuple(MINUS_ONE if (i + j) % m in (0, 1) else ONE
                 for i in range(m))
    return MonomialMatrix.diagonal(diag)


def build_so_wild(m: int, bound: int = DEFAULT_CLOSURE_BOUND) -> WildImageSO:
    """The monomial image for odd m between 3 and 15.

    Generated by one sign involution and the m-cycle; the other sign
    involutions are its cycle conjugates, which is checked here.  Order
    2^(m-1) * m; so_wild_report computes it from the sign vectors, and
    nothing is closed here, so bound only caps the lazy group.
    """
    if m % 2 == 0 or not 3 <= m <= 15:
        raise ValueError(f"m must be odd in [3, 15], got {m}")
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    signs = tuple(_sign_generator(m, j) for j in range(m))
    cycle = MonomialMatrix.permutation(tuple((k - 1) % m for k in range(m)))
    cyc_inv = cycle.inverse()
    for j in range(m):
        if cycle * signs[j] * cyc_inv != signs[(j + 1) % m]:
            raise AssertionError("cycle does not shift the sign generators")
    return WildImageSO(m=m, sign_gens=signs, cycle=cycle,
                       generators=(signs[0], cycle), bound=bound)


def _character_tuples(m: int) -> list[tuple[int, ...]]:
    # sign tuple of the i-th cyclic shift of the base character
    return [tuple(-1 if (i + j) % m in (0, 1) else 1 for j in range(m))
            for i in range(m)]


def _xor_basis(vectors: Iterable[int]) -> list[int]:
    """A basis of the F_2 span of the bitmasks, one per leading bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return list(basis.values())


def _sign_module(gens: Sequence[MonomialMatrix], m: int
                 ) -> tuple[list[int], tuple[int, ...]]:
    """The sign vectors of the diagonal generators, and the m-cycle.

    The generators must be +-1 diagonal matrices and one permutation
    matrix that is an m-cycle c.  Bit j of a sign vector is set when
    entry j is -1; c D c^-1 moves entry j to c's image of j."""
    signs, cycles = [], []
    for g in gens:
        perm, exps, n = g
        if len(perm) != m or n > 2:
            raise ValueError(f"{g} is not an m x m sign-monomial matrix")
        if all(i == j for j, i in enumerate(perm)):
            signs.append(sum(e << j for j, e in enumerate(exps)))
            continue
        j, length = perm[0], 1
        while j != 0:
            j, length = perm[j], length + 1
        if n != 1 or length != m:
            raise ValueError(f"{g} is neither a sign matrix nor an m-cycle")
        cycles.append(perm)
    if len(cycles) != 1:
        raise ValueError(f"need exactly one m-cycle, got {len(cycles)}")
    return signs, cycles[0]


def _span_of_shifts(signs: Sequence[int], cycle: Sequence[int]
                    ) -> tuple[list[int], Callable[[int], int]]:
    """An xor basis of V, the span of every shift of the sign vectors,
    and the shift itself."""
    def shift(v: int) -> int:
        return sum(1 << c for j, c in enumerate(cycle) if v >> j & 1)

    orbit = []
    for v in signs:
        for _ in range(len(cycle)):
            orbit.append(v)
            v = shift(v)
    return _xor_basis(orbit), shift


def _poly_gcd(a: int, b: int) -> int:
    """gcd over F_2 of polynomials as bitmasks, bit i the coefficient of
    x^i, by Euclid."""
    while b:
        n = b.bit_length()
        while a.bit_length() >= n:
            a ^= b << (a.bit_length() - n)
        a, b = b, a
    return a


def _cyclic_code_dim(signs: Sequence[int], cycle: Sequence[int]) -> int:
    """dim V as a cyclic code in F_2[x]/(x^m - 1): m - deg g, g the gcd of
    x^m - 1 and the sign vectors read along the cycle, the point c^t(0)
    giving x^t, so that the shift is multiplication by x."""
    m = len(cycle)
    path = [0]
    for _ in range(m - 1):
        path.append(cycle[path[-1]])
    g = 1 << m | 1
    for v in signs:
        g = _poly_gcd(g, sum(1 << t for t, j in enumerate(path)
                             if v >> j & 1))
    return m - (g.bit_length() - 1)


def _trace_square_sum(m: int, basis: Sequence[int]) -> int:
    """The sum of tr(v)^2 = (m - 2 wt v)^2 over V, the span of basis.

    tr(v)^2 sums (-1)^(v_j + v_k) over pairs of coordinates, and over V
    a pair sums to |V| when j and k agree on every basis vector, else to
    0; so the total is |V| times the squared sizes of those classes."""
    classes = Counter(sum((b >> j & 1) << i for i, b in enumerate(basis))
                      for j in range(m))
    return 2 ** len(basis) * sum(n * n for n in classes.values())


def _invariant_factors(orders: Iterable[int]) -> list[int]:
    """Invariant factors d1 | d2 | ... of a product of cyclic groups:
    C_a x C_b = C_gcd(a, b) x C_lcm(a, b)."""
    ds = list(orders)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return [d for d in ds if d > 1]


def so_wild_report(w: WildImageSO) -> dict:
    """All structure clauses for the odd orthogonal wild image, exactly.

    Abelianization cyclic of order m, commutator elementary abelian of
    order 2^(m-1), determinant identically 1, irreducibility by character
    norm, self-duality because every element's trace is an integer, and
    for m = 7 the negative eigenvalue arrangement result.

    Each clause comes from the F_2[C_m]-module V of sign vectors that the
    generators span, which must be +-1 diagonal matrices and one m-cycle
    (else ValueError).  V is normal and meets <c> trivially, so the group
    is V x| <c> and its order 2^dim(V) * m; dim V is computed twice, as
    the F_2 rank of the shifted sign vectors and as m - deg gcd(x^m - 1,
    s_i(x)), and the two must agree.  No group is closed, and no element
    is multiplied or decoded.

    Three clauses are facts for every odd m, by construction, rather than
    checks that could fail: `selfdual` (every entry is +-1, so every trace
    is an integer), `commutator.elementary_abelian` (G' = (1 + x)V lies
    in V) and `joint_kernel_is_diagonal` (the character rows are the
    circulant of 1 + x, whose kernel is always the all-ones line).  They
    are reported for the record; the JSON keeps them.
    """
    m = w.m
    signs, cycle = _sign_module(w.generators, m)
    basis, shift = _span_of_shifts(signs, cycle)
    dim = _cyclic_code_dim(signs, cycle)
    if dim != len(basis):
        raise AssertionError(f"the shifts have rank {len(basis)}, the "
                             f"cyclic code dimension {dim}")
    order = 2 ** dim * m
    # G' is the image of 1 + x on V, a subgroup of the elementary abelian V
    comm = _xor_basis(v ^ shift(v) for v in basis)
    abelian = _invariant_factors([2] * (len(basis) - len(comm)) + [m])

    # det is a homomorphism, so the generators decide it
    det_trivial = all(g.det().is_one for g in w.generators)

    # every entry is +-1, so the character is integer-valued: chi(g^-1) =
    # chi(g), and it is self-dual; tr(v c^k) = 0 for k != 0, so the norm
    # sums over V
    norm = _trace_square_sum(m, basis)
    if norm % order != 0:
        raise AssertionError("character norm is not an integer")

    tuples = _character_tuples(m)
    # the joint kernel of the shifted characters inside the full sign
    # group is {0, 1...1} when their rows have rank m - 1 and even weight
    rows = [sum(1 << j for j, s in enumerate(t) if s == -1) for t in tuples]
    joint_kernel = (len(_xor_basis(rows)) == m - 1
                    and all(r.bit_count() % 2 == 0 for r in rows))

    g2_obstruction = None
    if m == 7:
        from .roots import RootOfUnity
        eigs = [ONE] * 5 + [RootOfUnity(1, 2)] * 2
        g2_obstruction = not g2_admissible_eigenvalues(eigs)

    return {
        "m": m,
        "order": order,
        "order_expected": order == 2 ** (m - 1) * m,
        "abelianization": abelian,
        "abelianization_cyclic_m": abelian == [m],
        "commutator": {"order": 2 ** len(comm), "elementary_abelian": True},
        "commutator_expected": len(comm) == m - 1,
        "det_trivial": det_trivial,
        "irreducible": norm == order,
        "selfdual": True,
        "conjugates_distinct": len(set(tuples)) == m,
        "joint_kernel_is_diagonal": joint_kernel,
        "g2_obstruction": g2_obstruction,
    }


# ---------------------------------------------------------------------------
# The G2 side: F_8 = F_2[x]/(x^3 + x + 1) as bitmasks 0..7 with basis
# 1, x, x^2; the primitive element e is x itself.  _f8_mul and _f8_pow2
# define the field; the code below reads the tables made from them.

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


# _F8_MUL[a][b] = ab and _F8_FROB[k][a] = a^(2^k)
_F8_MUL = tuple(tuple(_f8_mul(a, b) for b in range(8)) for a in range(8))
_F8_FROB = tuple(tuple(_f8_pow2(a, k) for a in range(8)) for k in range(3))

_F8_INV = {a: _F8_MUL[a].index(1) for a in range(1, 8)}

_F8_TRACE = tuple((a ^ _F8_FROB[1][a] ^ _F8_FROB[2][a]) & 1
                  for a in range(8))


def _triple_mul(g1: tuple[int, int, int],
                g2: tuple[int, int, int]) -> tuple[int, int, int]:
    v1, a1, f1 = g1
    v2, a2, f2 = g2
    scale, frob = _F8_MUL[a1], _F8_FROB[f1]
    return (v1 ^ scale[frob[v2]], scale[frob[a2]], (f1 + f2) % 3)


def _triple_inv(g: tuple[int, int, int]) -> tuple[int, int, int]:
    v, a, f = g
    ai, fi = _F8_INV[a], -f % 3
    frob = _F8_FROB[fi]
    return (frob[_F8_MUL[ai][v]], frob[ai], fi)


@dataclass(frozen=True)
class G2JordanGroup:
    """Order-168 group with its 21-dimensional induced monomial model.

    triples lists the abstract elements (v, a, phi); matrix maps each to
    its sign-monomial matrix; group is the FinGroup that the matrices of
    the three generators generate, which holds every matrix; jordan is
    the translation subgroup of order 8.
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
    # g sends the coset (a, f) to (a2, f0 + f), a2 = a0 a^(2^f0), with
    # the sign (-1)^Tr(v0 / a2): the Frobenius power that the induction
    # puts on v0 / a2 does not change its trace
    v0, a0, f0 = g
    scale, frob = _F8_MUL[a0], _F8_FROB[f0]
    perm, exps = [], []
    for a in range(1, 8):
        a2 = scale[frob[a]]
        sign = _F8_TRACE[_F8_MUL[v0][_F8_INV[a2]]]
        for f in range(3):
            perm.append(_coset_index(a2, (f0 + f) % 3))
            exps.append(sign)
    return _make(tuple(perm), tuple(exps), 2)


def build_g2_jordan() -> G2JordanGroup:
    """The full order-168 group and its induced 21-dimensional model.

    Checks on the way out: the map to matrices is injective, the three
    generator matrices generate a group of order 168 holding every
    matrix, and on the group's left tables M(g) M(t) = M(g t) for each
    generator g and each triple t, so the map is a homomorphism; the
    translation subgroup is normal and elementary abelian, and the
    normal subgroup orders are 1, 8, 56, 168.
    """
    triples = tuple((v, a, f)
                    for v in range(8) for a in range(1, 8) for f in range(3))
    matrix = {g: _induced_matrix(g) for g in triples}
    if len(set(matrix.values())) != 168:
        raise AssertionError("induced model is not faithful")
    gens = [(1, 1, 0), (0, 2, 0), (0, 1, 1)]
    try:
        grp = FinGroup.generate([matrix[g] for g in gens], bound=168)
    except ResourceBoundExceeded:
        raise AssertionError("generators close past order 168") from None
    if grp.order != 168:
        raise AssertionError(f"expected order 168, got {grp.order}")
    pos = {g: grp.index.get(x) for g, x in matrix.items()}
    if None in pos.values():
        raise AssertionError("an induced matrix lies outside the group")
    # table[i] = index(M(g) x_i): the generators generate, so these
    # checks make M a homomorphism
    for g, table in zip(gens, grp.tables):
        for t in triples:
            if table[pos[t]] != pos[_triple_mul(g, t)]:
                raise AssertionError("induced model is not a homomorphism")

    jordan = frozenset(matrix[(v, 1, 0)] for v in range(8))
    orders = [len(n) for n in grp.normal_subgroups()]
    if orders != [1, 8, 56, 168]:
        raise AssertionError(f"normal subgroup orders {orders}")
    if not grp.is_normal({grp.index[x] for x in jordan}):
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
    chars = {tuple(_F8_TRACE[x] for x in _F8_MUL[c]): c for c in range(1, 8)}
    stab = 0
    orbit = set()
    for a in range(1, 8):
        scale = _F8_MUL[a]
        for frob in _F8_FROB:
            vals = tuple(_F8_TRACE[scale[frob[v]]] for v in range(8))
            if vals == _F8_TRACE:
                stab += 1
            orbit.add(chars.get(vals))
    if orbit != set(range(1, 8)):
        raise AssertionError("character orbit is not full")
    return stab


@dataclass(frozen=True)
class Constituent:
    k: int
    degree: int
    selfdual: bool
    faithful: bool

    def to_json(self) -> dict:
        return {"degree": self.degree, "selfdual": self.selfdual,
                "faithful": self.faithful}


def _conjugation_terms(g2j: G2JordanGroup) -> dict:
    """For each g, one (sign, f) per coset representative r = (0, a, 0)
    with r^-1 g r = (v, 1, f) in the subgroup of pairs (v, 1, f), the
    sign being (-1)^Tr(v).  In closed form: for g = (w, b, f),
    r^-1 g r = (w / a, b a^(2^f) / a, f), so r counts when
    b a^(2^f) = a, with v = w / a."""
    terms = {}
    for g in g2j.triples:
        w, b, f = g
        scale, frob = _F8_MUL[b], _F8_FROB[f]
        terms[g] = [(-1 if _F8_TRACE[_F8_MUL[_F8_INV[a]][w]] else 1, f)
                    for a in range(1, 8) if scale[frob[a]] == a]
    return terms


def _induced_from_extension(terms: dict, k: int) -> dict:
    """Character induced from the degree-24 subgroup of pairs (v, 1, f),
    where the extension multiplies the trace sign by omega^(k f), omega a
    cube root of unity: the value at g as the coordinates (x, y) of
    x + y omega in Z[omega]."""
    vals = {}
    for g, ts in terms.items():
        vec = [0, 0, 0]
        for sign, f in ts:
            vec[k * f % 3] += sign
        # omega^2 = -1 - omega
        vals[g] = (vec[0] - vec[2], vec[1] - vec[2])
    return vals


def _inner_product(sizes: Sequence[int], avals: Sequence[tuple[int, int]],
                   bvals: Sequence[tuple[int, int]]) -> int:
    """sum |C| a(C) conj(b(C)) / 168 over the classes C, which must be an
    exact integer; conj(x + y omega) = (x - y) - y omega."""
    re = im = 0
    for n, (a0, a1), (b0, b1) in zip(sizes, avals, bvals):
        c0, c1 = b0 - b1, -b1
        re += n * (a0 * c0 - a1 * c1)
        im += n * (a0 * c1 + a1 * c0 - a1 * c1)
    if im or re % 168:
        r = None if im else re
        raise AssertionError(f"inner product {r} is not an integer multiple")
    return re // 168


def mackey_decompose(g2j: G2JordanGroup) -> list[Constituent]:
    """Split the 21-dimensional induced character into irreducibles.

    The three candidate constituents are induced from the three
    extensions of the trace character to the translations-plus-Galois
    subgroup; the conjugation data they share is computed once, at all
    168 elements.  Each constituent must be a class function: its values
    are constant on every conjugacy class of g2j.group.  Everything else
    reads the 8 class representatives: exact integer inner products
    sum |C| a(C) conj(b(C)) / 168 show each constituent irreducible,
    occurring once in the 21-dimensional character and orthogonal to the
    others, and the three sum to that character on every class.  Anything
    but three degree-7 faithful constituents with exactly one self-dual
    is a hard failure.
    """
    grp = g2j.group
    pos = {t: grp.index[x] for t, x in g2j.matrix.items()}
    classes = grp.conjugacy_classes()
    class_of = {i: c for c, members in enumerate(classes) for i in members}
    if sum(map(len, classes)) != len(class_of) or len(class_of) != 168:
        raise AssertionError("conjugacy classes do not partition the group")
    triple_at = {i: t for t, i in pos.items()}
    # classes are numbered by least index, so reps[0] = 0, the identity
    reps = [triple_at[min(c)] for c in classes]
    inverse_class = [class_of[pos[_triple_inv(t)]] for t in reps]
    sizes = [len(c) for c in classes]
    big = [(g2j.trace(t), 0) for t in reps]

    terms = _conjugation_terms(g2j)
    out = []
    parts = []
    for k in range(3):
        vals = _induced_from_extension(terms, k)
        at = [vals[t] for t in reps]
        if any(at[class_of[pos[g]]] != v for g, v in vals.items()):
            raise AssertionError(f"constituent {k} is not a class function")
        if _inner_product(sizes, at, at) != 1:
            raise AssertionError(f"constituent {k} is not irreducible")
        if _inner_product(sizes, big, at) != 1:
            raise AssertionError(f"constituent {k} missing from induction")
        deg = at[0][0] if at[0][1] == 0 else None
        kernel = [c for c, v in enumerate(at) if v == (deg, 0)]
        selfdual = all(at[inverse_class[c]] == v for c, v in enumerate(at))
        parts.append(at)
        out.append(Constituent(k=k, degree=deg, selfdual=selfdual,
                               faithful=kernel == [0]))
    for i in range(3):
        for j in range(i + 1, 3):
            if _inner_product(sizes, parts[i], parts[j]) != 0:
                raise AssertionError("constituents are not distinct")
    for c, value in enumerate(big):
        if tuple(map(sum, zip(*(p[c] for p in parts)))) != value:
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
