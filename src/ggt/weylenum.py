"""The integer matrix engine: root closures, weight orbits and exact
element-order tallies of finite reflection groups.

This is the one module of ggt that imports numpy.  rootsystems imports
it inside the functions that compute a matrix, so a process that never
builds a Weyl element never loads numpy.  Every entry point takes its
Cartan matrix (or simple roots) as any integer array-like, nested tuples
included.

One engine serves every Cartan matrix, including the block Cartan matrix
of a reducible system: a tower of parabolic subgroups (Humphreys,
*Reflection Groups and Coxeter Groups*, 1.10-1.12; Geck-Pfeiffer,
*Characters of Finite Coxeter Groups*, ch. 2).

Elements are integer matrices acting on row vectors of fundamental-weight
coordinates.  There s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i,
and alpha_i has coordinates C[i, :], so s_i is I - e_i C[i, :] and the
matrix of a product uv is M(v) M(u).

Within W_k = <s_1, ..., s_k> the stabilizer of omega_k is W_{k-1}, the
parabolic generated by the simple reflections fixing it (Humphreys 1.12),
so W_k = X_k W_{k-1}, where the transversal X_k holds one element per
point of the orbit W_k omega_k (that point is row k of its matrix).  A
breadth-first walk of the orbit yields X_k, and the group is the product
of the transversals, with no group element hashed or deduplicated.

W_{n-1} permutes the cosets x W_{n-1} by conjugation, and conjugate
elements have equal orders, so

    tally(W_n) = sum over W_{n-1}-orbits O on W_n omega_n of
                 |O| * tally(x_O W_{n-1}).

E8 needs 5 cosets of W(E7), 2,903,040 matrices each; E7 needs 4 cosets
of W(E6) and E6 needs 3 cosets of W(D5).  Each coset is processed in
chunks x_O t W_{n-2}, one per t in X_{n-1}, so only W_{n-2} is kept in
memory.

Orders come from the power traces tr(w), ..., tr(w^n): see _trace_keys.
Products run in float64 so batched BLAS is used; every entry is an
integer far below 2^53 (entries of group elements are bounded by the
highest-coroot coefficients, at most 6), so the arithmetic is exact.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce

import numpy as np

from .errors import ResourceBoundExceeded

__all__ = [
    "reflection_matrices",
    "root_closure",
    "weight_orbit_cycles",
    "weyl_group_elements",
    "enumerate_orders",
]

_MAX_ELEMENT_ORDER = 64  # far above any reflection group of rank <= 8
# cap on the matrices whose order enumerate_orders computes (E8 needs
# 5 * 2,903,040)
_TALLY_BOUND = 20_000_000


def _tuples(mat: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, mat.tolist()))


def reflection_matrices(cartan) -> np.ndarray:
    """Simple reflections on row vectors of fundamental-weight
    coordinates, stacked (n, n, n): the i-th is I - e_i C[i, :]."""
    cartan = np.asarray(cartan, dtype=np.int64)
    n = len(cartan)
    out = np.broadcast_to(np.eye(n, dtype=np.int64), (n, n, n)).copy()
    for i in range(n):
        out[i, i, :] -= cartan[i]
    return out


def _orbit(start: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Every row reached from the rows of start under the row-vector
    action of the stacked matrices, in breadth-first order."""
    width = start.shape[1]
    seen = dict.fromkeys(map(tuple, start.tolist()))
    frontier = start
    while len(frontier):
        images = (frontier @ mats).reshape(-1, width).tolist()
        new = [p for p in dict.fromkeys(map(tuple, images)) if p not in seen]
        seen.update(dict.fromkeys(new))
        frontier = np.array(new, dtype=np.int64).reshape(-1, width)
    return np.array(list(seen), dtype=np.int64)


def root_closure(simple) -> tuple[tuple, tuple, tuple]:
    """(Cartan matrix, roots in simple-root coordinates, the same roots
    in standard coordinates) of integer simple roots, given as the rows
    of simple in standard coordinates; the roots are in ascending order
    of their standard-coordinate tuples, all as nested int tuples.

    The roots are the closure of the unit vectors under the simple
    reflections on simple-root coordinates, s_j(b) = b - (b . C[:, j])
    e_j: the transposed simple reflections of the dual root system.
    """
    simple = np.asarray(simple, dtype=np.int64)
    gram = simple @ simple.T
    cartan = 2 * gram // np.diag(gram)  # C[i, j] = <alpha_i, alpha_j^vee>
    refl = reflection_matrices(cartan.T).transpose(0, 2, 1)
    base = _orbit(np.eye(len(simple), dtype=np.int64), refl)
    roots = base @ simple
    order = np.lexsort(roots.T[::-1])  # ascending as tuples
    return _tuples(cartan), _tuples(base[order]), _tuples(roots[order])


def _cycles_orbit(omega: np.ndarray, size: int, elems: np.ndarray) -> bool:
    """Whether some matrix of the stack moves omega through all `size`
    points of its W-orbit before returning, that is, permutes the orbit
    in one full cycle: w^k omega != omega for k = 1..size-1."""
    point = np.broadcast_to(omega, (len(elems), len(omega)))
    cycling = np.ones(len(elems), dtype=bool)
    for _ in range(size - 1):
        point = np.einsum("ki,kij->kj", point, elems)
        cycling &= (point != omega).any(axis=1)
    return bool(cycling.any())


def weight_orbit_cycles(cartan, k: int, size: int, order: int,
                        coxeter: bool) -> bool:
    """Whether some element of the reflection group of the Cartan matrix,
    of the given order, permutes the W-orbit of omega_k, which must have
    `size` points, in one full cycle.

    With coxeter the one element tried is the Coxeter element
    s_1 ... s_n, and it must cycle; otherwise the whole group is scanned.
    """
    refl = reflection_matrices(cartan)
    omega = np.eye(len(refl), dtype=np.int64)[k - 1]
    found = len(_orbit(omega[None], refl))
    if found != size:
        raise AssertionError(f"omega_{k} has {found} conjugates, "
                             f"expected {size}")
    if coxeter:
        if not _cycles_orbit(omega, size, reduce(np.matmul, refl)[None]):
            raise AssertionError("the Coxeter element witness failed")
        return True
    return _cycles_orbit(omega, size, weyl_group_elements(cartan, order))


def _transversal(refl: np.ndarray, k: int, limit: int) -> np.ndarray:
    """X_k: one element of W_k per point of the orbit W_k omega_k, each
    reached as s_i x from the point it was first found from."""
    eye = np.eye(len(refl), dtype=np.int64)
    reps = {tuple(eye[k - 1]): eye}
    frontier = [eye]
    while frontier:
        new = []
        for x in frontier:
            for r in refl[:k]:
                y = x @ r
                point = tuple(y[k - 1])
                if point not in reps:
                    reps[point] = y
                    new.append(y)
        if len(reps) > limit:
            raise AssertionError(
                f"orbit of omega_{k} passed {limit} points")
        frontier = new
    return np.array(list(reps.values()))


def _products(transversals, n: int) -> np.ndarray:
    """Every element of X_k ... X_1 as an int8 stack, one GEMM per x,
    each written straight into its block of the stack."""
    elems = np.eye(n, dtype=np.int8)[None]
    for xs in transversals:
        flat = elems.reshape(-1, n).astype(np.float64)
        elems = np.empty((len(xs), len(flat), n), dtype=np.int8)
        for x, block in zip(xs, elems):
            block[...] = flat @ x
        elems = elems.reshape(-1, n, n)
    return elems


def _tower(cartan, expected_order: int) -> list[np.ndarray]:
    """The transversals X_1..X_n; their sizes must multiply to the
    expected group order."""
    refl = reflection_matrices(cartan)
    transversals, size = [], 1
    for k in range(1, len(cartan) + 1):
        transversals.append(_transversal(refl, k, expected_order // size))
        size *= len(transversals[-1])
    if size != expected_order:
        raise AssertionError(
            f"tower has {size} elements, expected {expected_order}")
    return transversals


def weyl_group_elements(cartan, expected_order: int) -> np.ndarray:
    """The whole group as an int8 stack of matrices on fundamental-weight
    row vectors; only sane for small groups."""
    return _products(_tower(cartan, expected_order), len(cartan))


def _suborbits(points: np.ndarray, refl: np.ndarray) -> list[tuple[int, int]]:
    """(first index, size) of each orbit of the given reflections on the
    rows of points, which must be permuted by them."""
    index = {p: i for i, p in enumerate(map(tuple, points.tolist()))}
    seen, out = set(), []
    for start in range(len(points)):
        if start not in seen:
            orbit = _orbit(points[start:start + 1], refl).tolist()
            seen.update(index[p] for p in map(tuple, orbit))
            out.append((start, len(orbit)))
    return out


def _trace_keys(w: np.ndarray) -> np.ndarray:
    """One int64 per matrix that fixes its characteristic polynomial.

    A matrix of finite order has roots of unity as eigenvalues, so
    |tr(w^j)| <= n and tr(w^j) + n is a digit in base 2n + 1; the key
    packs the digits for j = 1..n.  Newton's identities recover the
    characteristic polynomial from these n power sums, and a matrix of
    finite order is diagonalizable, so its order is the lcm of its
    eigenvalues' orders: equal keys mean equal orders.  tr(w^j) is taken
    as the sum of w^a * (w^b)^T with a + b = j, so only the powers up to
    ceil(n/2) are multiplied out (three batched products for n = 8).
    """
    n = w.shape[1]
    half = (n + 1) // 2
    powers = [w]
    for _ in range(half - 1):
        powers.append(powers[-1] @ w)
    key = np.zeros(len(w), dtype=np.int64)
    for j in range(n, 0, -1):
        a = min(j, half)
        if a == j:
            t = np.einsum("kii->k", powers[a - 1])
        else:
            t = np.einsum("kij,kji->k", powers[a - 1], powers[j - a - 1])
        key = key * (2 * n + 1) + (np.rint(t).astype(np.int64) + n)
    return key


def _order(mat: np.ndarray) -> int:
    mat = np.rint(mat).astype(np.int64)
    eye = np.eye(len(mat), dtype=np.int64)
    power = mat
    for k in range(1, _MAX_ELEMENT_ORDER + 1):
        if (power == eye).all():
            return k
        power = power @ mat
    raise AssertionError("element order out of expected range")


def enumerate_orders(cartan, expected_order: int) -> Counter:
    """Order tally {order: element count} of the reflection group of the
    Cartan matrix, whose order must come out as expected_order.

    A tower with more than _TALLY_BOUND matrices to compute orders of
    raises ResourceBoundExceeded before that work.
    """
    n = len(cartan)
    transversals = _tower(cartan, expected_order)
    top = transversals[-1]
    orbits = _suborbits(top[:, n - 1, :], reflection_matrices(cartan)[:n - 1])
    if sum(size for _, size in orbits) != len(top):
        raise AssertionError("suborbits do not partition the top orbit")
    work = len(orbits) * expected_order // len(top)
    if work > _TALLY_BOUND:
        raise ResourceBoundExceeded(
            f"{work} matrices to tally exceed the bound {_TALLY_BOUND}")

    prefix = transversals[-2] if n >= 2 else np.eye(n)[None]
    tail = _products(transversals[:-2], n).reshape(-1, n).astype(np.float64)
    cache: dict[int, int] = {}
    tally: Counter = Counter()
    for start, size in orbits:
        for x in prefix:
            chunk = (tail @ (x @ top[start])).reshape(-1, n, n)
            keys, first, counts = np.unique(
                _trace_keys(chunk), return_index=True, return_counts=True)
            for key, i, count in zip(keys.tolist(), first.tolist(),
                                     counts.tolist()):
                if key not in cache:
                    cache[key] = _order(chunk[i])
                tally[cache[key]] += size * count
    return tally
