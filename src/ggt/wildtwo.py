"""Depth-one wild parameter images at the prime 2.

Two constructions live here.  For odd orthogonal groups, the image is a
group of m x m sign-monomial matrices, held as its two generators: the
diagonal involution D with -1 at two adjacent coordinates, and the
m-cycle c, whose conjugates of D are its other m - 1 cyclic shifts.
Nothing closes it: the report reads every clause off the
F_2[C_m]-module.  A sign vector is an int bitmask read along the cycle's
path 0, c(0), c^2(0), ..., so that the cycle shifts it by rotating the m
bits one place, as x does on F_2[x]/(x^m - 1).  V is the F_2 span of the
shifted sign vectors (for the wild image the even-weight code), and the
group is V x| C_m of order 2^dim(V) * m.  dim V is the F_2 rank of the
shifts and, as a cyclic code, m - deg gcd(x^m - 1, s_i(x)); the two must
agree.  The group's commutator subgroup is (1 + x)V, its abelianization
V/(1 + x)V x C_m, and its determinant (-1)^wt(v) on a sign vector v and
(-1)^(m-1) on the cycle.  Since no nontrivial power of an m-cycle fixes
a point, the character norm is a sum over V alone: V is closed under
rotation, so coordinates j and k agree on V exactly when V's period
delta divides k - j, and the norm is |V| m^2 / delta.  delta is read
twice, as the least rotation that fixes the shifts' basis and as the
order of x modulo the check polynomial (x^m - 1)/g, g that gcd; the two
must agree.  At m = 7 the G2 clause reads the weights that occur in V.
The clauses that hold for every m by construction (self-duality,
distinct conjugates, the diagonal joint kernel) are constants.

For G2, the image is the order-168 extension of F_8 by its
multiplicative group and its field automorphisms, realized through
the 21-dimensional monomial representation induced from the nontrivial
additive character of F_8.  The G2 side runs on tables: F_8
multiplication and Frobenius powers are looked up, the group is closed
by FinGroup.generate, and the model is checked to be a homomorphism on
the group's left multiplication tables.

All character arithmetic is exact: traces are integers, constituent
values are integer coordinates (x, y) of x + y omega in Z[omega], omega a
cube root of unity, and inner products must come out as exact
nonnegative integers.  Characters are class functions, so the G2 sums run
over the 8 conjugacy classes of the order-168 group, each weighted by its
size, not over its 168 elements; one check at all 168 elements confirms
that each constituent is constant on every class.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ResourceBoundExceeded
from .fingroup import FinGroup
from .monomial import MonomialMatrix, _make
from .record import Record
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


class WildImageSO(Record):
    """Sign-monomial image for the odd orthogonal group of size m.

    generators are what the report reads: +-1 diagonal matrices and one
    m-cycle; build_so_wild gives the sign involution D and the m-cycle c.
    Nothing closes them; FinGroup.generate does for a caller that wants
    the elements.
    """

    m: int
    generators: tuple[MonomialMatrix, ...]

    def __init__(self, m: int, generators: tuple[MonomialMatrix, ...]) -> None:
        vars(self).update(m=m, generators=generators)


# The largest m that build_so_wild takes.  The build is two matrices of
# size m; the report's time is set by the F_2 spans of the m shifts (xor
# bases of m-bit ints) and the cyclic code's gcd, each quadratic in m in
# bit operations, while its memory stays linear: on one CPU of a 2-core
# x86-64 box, a fresh process builds and reports in 3-5 ms with 16.2 MB
# peak RSS at m = 1001 (16.0 MB of it the interpreter and the imports),
# in 6-11 ms with 17.7 MB at m = 2001; traced peaks 0.5 and 1.5 MB.
_SO_M_BOUND = 1001


def build_so_wild(m: int) -> WildImageSO:
    """The monomial image for any odd m from 3 to _SO_M_BOUND.

    Generated by the sign involution D, -1 at coordinates 0 and 1, and
    the m-cycle c: j -> j - 1; the other sign involutions are D's
    conjugates and are never built.  One check ties the report's
    rotation to the matrix product: c D c^-1 must be D with its sign
    vector, read along c's path 0, c(0), c^2(0), ..., rotated one place.
    Order 2^(m-1) * m; so_wild_report computes it from the sign vectors,
    and nothing is closed here.  An m past _SO_M_BOUND is refused before
    any matrix is built.
    """
    if m % 2 == 0 or m < 3:
        raise ValueError(f"m must be odd and at least 3, got {m}")
    if m > _SO_M_BOUND:
        raise ResourceBoundExceeded(f"m = {m} exceeds the bound {_SO_M_BOUND}")
    ident = tuple(range(m))
    # c^t(0) = -t, so coordinate j of a sign vector is bit -j mod m
    sign = 1 | 1 << (m - 1)
    flip, shifted = (_make(ident, tuple(v >> (-j % m) & 1 for j in ident), 2)
                     for v in (sign, _rotate(sign, m)))
    cycle = _make(tuple((k - 1) % m for k in ident), (0,) * m, 1)
    # c D c^-1 = D' exactly when c D = D' c
    if cycle * flip != shifted * cycle:
        raise AssertionError("cycle does not shift the sign generators")
    return WildImageSO(m=m, generators=(flip, cycle))


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


def _sign_module(gens: Sequence[MonomialMatrix], m: int) -> list[int]:
    """The sign vectors of the diagonal generators, read along the cycle.

    The generators must be +-1 diagonal matrices and one permutation
    matrix that is an m-cycle c.  Bit t of a sign vector is set when
    entry c^t(0) is -1.  c D c^-1 moves entry j to c(j), so along this
    path the shift is a rotation of the m-bit int by one place: the
    multiplication by x in F_2[x]/(x^m - 1)."""
    ident = tuple(range(m))
    diags, paths = [], []
    for g in gens:
        perm, exps, n = g
        if len(perm) != m or n > 2:
            raise ValueError(f"{g} is not an m x m sign-monomial matrix")
        if perm == ident:
            diags.append(exps)
            continue
        path, j = [0], perm[0]
        while j != 0:
            path.append(j)
            j = perm[j]
        if n != 1 or len(path) != m:
            raise ValueError(f"{g} is neither a sign matrix nor an m-cycle")
        paths.append(path)
    if len(paths) != 1:
        raise ValueError(f"need exactly one m-cycle, got {len(paths)}")
    path, = paths
    return [sum(exps[j] << t for t, j in enumerate(path)) for exps in diags]


def _rotate(v: int, m: int, t: int = 1) -> int:
    """x^t v in F_2[x]/(x^m - 1), 0 <= t < m: the m-bit int v rotated by
    t places."""
    return (v << t | v >> (m - t)) & ((1 << m) - 1)


def _rotations(v: int, m: int) -> list[int]:
    """x^t v for t = 0..m-1."""
    return [_rotate(v, m, t) for t in range(m)]


def _span_of_shifts(signs: Sequence[int], m: int) -> list[int]:
    """An xor basis of V, the span of every shift of the sign vectors."""
    return _xor_basis(u for v in signs for u in _rotations(v, m))


def _poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder over F_2 of polynomials as bitmasks, bit i
    the coefficient of x^i; b must be nonzero."""
    q, n = 0, b.bit_length()
    while a.bit_length() >= n:
        s = a.bit_length() - n
        q |= 1 << s
        a ^= b << s
    return q, a


def _poly_gcd(a: int, b: int) -> int:
    """gcd over F_2 of polynomials as bitmasks, by Euclid."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def _check_polynomial(signs: Sequence[int], m: int) -> int:
    """h = (x^m - 1)/g for V as a cyclic code in F_2[x]/(x^m - 1), g the
    gcd of x^m - 1 and the sign vectors, which _sign_module reads so that
    the shift is multiplication by x.  V is the ideal (g), so dim V =
    m - deg g = deg h, and x^d fixes V exactly when h divides x^d - 1."""
    g = 1 << m | 1
    for v in signs:
        g = _poly_gcd(g, v)
    return _poly_divmod(1 << m | 1, g)[0]


def _least_divisor(m: int, holds: Callable[[int], bool]) -> int:
    """The least divisor d of m for which holds(d), else m, where a period
    always holds: x^m = 1 in F_2[x]/(x^m - 1)."""
    return next((d for d in range(1, m) if m % d == 0 and holds(d)), m)


def _period(basis: Sequence[int], m: int) -> int:
    """V's least period: the least d with x^d v = v for each basis vector.
    The d that fix V form a subgroup of Z/mZ, so it divides m."""
    return _least_divisor(m, lambda d: all(_rotate(b, m, d) == b
                                           for b in basis))


def _code_period(h: int, m: int) -> int:
    """V's least period on the cyclic-code side: the least d with h
    dividing x^d - 1, h the check polynomial."""
    return _least_divisor(m, lambda d: not _poly_divmod(1 << d | 1, h)[1])


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
    for m = 7 the G2 obstruction: some element's eigenvalues admit no G2
    arrangement.

    Each clause comes from the F_2[C_m]-module V of sign vectors that the
    generators span, which must be +-1 diagonal matrices and one m-cycle
    (else ValueError).  V is normal and meets <c> trivially, so the group
    is V x| <c> and its order 2^dim(V) * m; dim V is computed twice, as
    the F_2 rank of the shifted sign vectors and as m - deg gcd(x^m - 1,
    s_i(x)), and the two must agree.  The determinant is read off the
    sign weights, (-1)^wt(v), and the cycle's sign (-1)^(m-1).  The
    character norm is |V| m^2 / delta, delta V's least period, which is
    read twice, as the least rotation fixing the xor basis of V and as
    the least d with the check polynomial (x^m - 1)/g dividing x^d - 1,
    and the two must agree.  No group is closed, and no element is
    multiplied or decoded.

    Four clauses are facts for every m >= 3, by construction, rather than
    checks that could fail, and are reported as the constant True:
    `selfdual` (every entry is +-1, so every trace is an integer),
    `commutator.elementary_abelian` (G' = (1 + x)V lies in V), and
    `conjugates_distinct` and `joint_kernel_is_diagonal`, which read only
    the shifted characters' rows: bit j of row i is set where the i-th
    shift of the base character is -1, at j = -i and 1 - i mod m, so the
    rows are the m rotations of 0b11.  They are distinct, and they span
    the even-weight code, whose kernel in the full sign group is
    {0, 1...1}.  The JSON keeps all four.  An m below 3 is refused
    (ValueError): at m = 2 the two rows coincide.
    """
    m = w.m
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    signs = _sign_module(w.generators, m)
    basis = _span_of_shifts(signs, m)
    h = _check_polynomial(signs, m)
    dim = h.bit_length() - 1
    if dim != len(basis):
        raise AssertionError(f"the shifts have rank {len(basis)}, the "
                             f"cyclic code dimension {dim}")
    order = 2 ** dim * m
    # G' is the image of 1 + x on V, a subgroup of the elementary abelian V
    comm = _xor_basis(v ^ _rotate(v, m) for v in basis)
    abelian = _invariant_factors([2] * (len(basis) - len(comm)) + [m])

    # det is a homomorphism, so the generators decide it: (-1)^wt(v) on a
    # sign vector v and the sign (-1)^(m-1) of the m-cycle
    det_trivial = m % 2 == 1 and all(v.bit_count() % 2 == 0 for v in signs)

    # every entry is +-1, so the character is integer-valued: chi(g^-1) =
    # chi(g), and it is self-dual; tr(v c^k) = 0 for k != 0, so the norm
    # sums tr(v)^2 = sum over pairs j, k of (-1)^(v_j + v_k) over V, and a
    # pair sums to |V| when j and k agree on V, else to 0: the classes are
    # the delta cosets of delta Z/mZ, m/delta points each
    delta = _period(basis, m)
    code_delta = _code_period(h, m)
    if delta != code_delta:
        raise AssertionError(f"the shifts have period {delta}, the cyclic "
                             f"code period {code_delta}")
    norm = 2 ** dim * m * m // delta

    # an element v c^k, k != 0, is a signed 7-cycle: for even weight v its
    # eigenvalues are the 7th roots of unity, admissible, and for odd
    # weight v itself is not; so the weights that occur in V decide
    g2_obstruction = None
    if m == 7:
        span = {0}
        for b in basis:
            span |= {v ^ b for v in span}
        g2_obstruction = not all(
            g2_admissible_eigenvalues([ONE] * (m - w) + [MINUS_ONE] * w)
            for w in {v.bit_count() for v in span})

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
        "conjugates_distinct": True,
        "joint_kernel_is_diagonal": True,
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


class G2JordanGroup(Record):
    """Order-168 group with its 21-dimensional induced monomial model.

    triples lists the abstract elements (v, a, phi); matrix, a read-only
    mapping, sends each to its sign-monomial matrix, the group's own
    element; group is the FinGroup that the matrices of the three
    generators generate; jordan is the translation subgroup of order 8.
    Its constituents are decomposed, with every check of
    mackey_decompose, once per group, on first use.
    """

    triples: tuple[tuple[int, int, int], ...]
    matrix: Mapping
    group: FinGroup
    jordan: frozenset

    def __init__(self, triples: tuple[tuple[int, int, int], ...],
                 matrix: Mapping, group: FinGroup,
                 jordan: frozenset) -> None:
        vars(self).update(triples=triples, matrix=matrix, group=group,
                          jordan=jordan)

    def trace(self, g: tuple[int, int, int]) -> int:
        return self.matrix[g].trace_int()

    @cached_property
    def constituents(self) -> tuple[Constituent, ...]:
        """mackey_decompose's answer, a tuple of records: no caller can
        change it."""
        return tuple(mackey_decompose(self))

    def __reduce__(self):
        # copies and unpickled records are the group the process shares
        return (build_g2_jordan, ())


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


@cache
def build_g2_jordan() -> G2JordanGroup:
    """The full order-168 group and its induced 21-dimensional model.

    Built once per process: every call returns the same group, which
    callers share and must not change; its matrix mapping is read-only.
    Checks on the way out, all run on the first call: the map to
    matrices is injective, the three generator matrices generate a group
    of order 168 holding every matrix, and on the group's left tables
    M(g) M(t) = M(g t) for each generator g and each triple t, so the
    map is a homomorphism; the translation subgroup is normal and
    elementary abelian, and the normal subgroup orders are 1, 8, 56,
    168.  Each triple is mapped to the group's own decoded element, so
    one copy of each matrix is kept.
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
    # keep one copy of each matrix, the group's own element
    els = grp.elements
    matrix = MappingProxyType({g: els[i] for g, i in pos.items()})
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


class Constituent(Record):
    k: int
    degree: int
    selfdual: bool
    faithful: bool

    def __init__(self, k: int, degree: int, selfdual: bool,
                 faithful: bool) -> None:
        vars(self).update(k=k, degree=degree, selfdual=selfdual,
                          faithful=faithful)

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
    cons = g2j.constituents
    return {
        "order": g2j.group.order,
        "normal_subgroup_orders": [len(n)
                                   for n in g2j.group.normal_subgroups()],
        "jordan_order": len(g2j.jordan),
        "character_stabilizer_order": character_stabilizer_order(g2j),
        "constituents": [c.to_json() for c in cons],
    }
