"""Exact element-order tallies of finite reflection groups.

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

import numpy as np

from .errors import ResourceBoundExceeded

__all__ = [
    "reflection_matrices",
    "weyl_group_elements",
    "enumerate_orders",
]

_MAX_ELEMENT_ORDER = 64  # far above any reflection group of rank <= 8


def reflection_matrices(cartan: np.ndarray) -> np.ndarray:
    """Simple reflections on row vectors of fundamental-weight
    coordinates, stacked (n, n, n): the i-th is I - e_i C[i, :]."""
    n = len(cartan)
    out = np.broadcast_to(np.eye(n, dtype=np.int64), (n, n, n)).copy()
    for i in range(n):
        out[i, i, :] -= cartan[i]
    return out


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


def _tower(cartan: np.ndarray, expected_order: int) -> list[np.ndarray]:
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


def weyl_group_elements(cartan: np.ndarray, expected_order: int) -> np.ndarray:
    """The whole group as an int8 stack of matrices on fundamental-weight
    row vectors; only sane for small groups."""
    return _products(_tower(cartan, expected_order), len(cartan))


def _suborbits(points: np.ndarray, refl: np.ndarray) -> list[tuple[int, int]]:
    """(first index, size) of each orbit of the given reflections on the
    rows of points, which must be permuted by them."""
    index = {tuple(p): i for i, p in enumerate(points)}
    seen = [False] * len(points)
    out = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = True
        frontier, size = [start], 1
        while frontier:
            new = []
            for i in frontier:
                for r in refl:
                    j = index[tuple(points[i] @ r)]
                    if not seen[j]:
                        seen[j] = True
                        new.append(j)
            size += len(new)
            frontier = new
        out.append((start, size))
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


def enumerate_orders(cartan: np.ndarray, expected_order: int,
                     bound: int = 20_000_000) -> Counter:
    """Order tally {order: element count} of the reflection group of the
    Cartan matrix, whose order must come out as expected_order.

    bound caps the matrices whose order is computed (5 * 2,903,040 for
    E8); a larger tower raises ResourceBoundExceeded before that work.
    """
    n = len(cartan)
    transversals = _tower(cartan, expected_order)
    top = transversals[-1]
    orbits = _suborbits(top[:, n - 1, :], reflection_matrices(cartan)[:n - 1])
    if sum(size for _, size in orbits) != len(top):
        raise AssertionError("suborbits do not partition the top orbit")
    work = len(orbits) * expected_order // len(top)
    if work > bound:
        raise ResourceBoundExceeded(
            f"{work} matrices to tally exceed the bound {bound}")

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
