"""The Weyl group engine: root closures, weight orbits, full-cycle
witnesses and exact element-order tallies of finite reflection groups.

Everything is int tuples except the matrix kernel of the largest
tallies, the one place that imports numpy, inside its functions.  Every
entry point takes its Cartan matrix (or simple roots) as any integer
array-like, nested tuples included.

One engine serves every Cartan matrix, including the block Cartan matrix
of a reducible system: a tower of parabolic subgroups (Humphreys,
*Reflection Groups and Coxeter Groups*, 1.10-1.12; Geck-Pfeiffer,
*Characters of Finite Coxeter Groups*, ch. 2).

Weights are row vectors of fundamental-weight coordinates.  There
s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i, and alpha_i has
coordinates C[i, :], so s_i(lambda) = lambda - lambda[i] C[i, :].  An
element w is stored as its matrix on these row vectors: the tuple of
the images w(omega_1), ..., w(omega_n), so s_i w reflects every row.

Within W_k = <s_1, ..., s_k> the stabilizer of omega_k is W_{k-1}, the
parabolic generated by the simple reflections fixing it (Humphreys 1.12),
so W_k = X_k W_{k-1}, where the transversal X_k holds one element per
point of the orbit W_k omega_k (that point is row k of the element).  A
breadth-first walk of the orbit yields X_k, and the group is the product
of the transversals, with no group element hashed or deduplicated.

W_{n-1} permutes the cosets x W_{n-1} by conjugation, and conjugate
elements have equal orders, so

    tally(W_n) = sum over W_{n-1}-orbits O on W_n omega_n of
                 |O| * tally(x_O W_{n-1}).

E8 needs 5 cosets of W(E7), 2,903,040 elements each; E7 needs 4 cosets
of W(E6) and E6 needs 3 cosets of W(D5).  Each coset is walked as
x_O t W_{n-2}, one block per t in X_{n-1}, so only W_{n-2} is kept in
memory.

Two kernels tally a coset.  The permutation kernel acts on a set of
weights that spans Q^n: the orbits of the fundamental weights, smallest
first, until an exact rank test passes.  An element fixing a spanning
set is the identity, so W acts faithfully there, and the order of an
element is the lcm of its cycle lengths.  The matrix kernel multiplies
float64 matrices in batches and reads orders off power traces
(_trace_keys); it runs once the work passes _MATRIX_WORK, where its
per-element speed repays numpy's import.  Every entry is an integer far
below 2^53 (entries of group elements are bounded by the highest-coroot
coefficients, at most 6), so the float arithmetic is exact.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import ResourceBoundExceeded

__all__ = [
    "root_closure",
    "weight_orbit_cycles",
    "enumerate_orders",
]

_MAX_ELEMENT_ORDER = 64  # far above any reflection group of rank <= 8
# cap on the elements whose order enumerate_orders computes (E8 needs
# 5 * 2,903,040)
_TALLY_BOUND = 20_000_000
# tallies with more work than this run the matrix kernel.  On one CPU
# of a 2-vCPU Xeon the permutation kernel took 2.3 us per element for E6
# (5,760 elements, 13 ms) and 3.0 us for E7 (207,360, 0.63 s), the
# matrix kernel 0.6-0.7 us (4 ms and 0.13 s) plus 33 ms for numpy's
# import: they break even at 14,000-20,000 elements
_MATRIX_WORK = 20_000


def _ints(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(a) for a in row) for row in matrix)


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(a == b) for b in range(n)) for a in range(n))


def _reflect(point: tuple, i: int, root: tuple) -> tuple:
    """s_i on a weight: point - point[i] * root, root being C[i, :]."""
    c = point[i]
    return tuple(a - c * b for a, b in zip(point, root)) if c else point


def _reflections(cartan, k: int) -> list:
    """s_1, ..., s_k as maps on weights."""
    return [lambda p, i=i, root=cartan[i]: _reflect(p, i, root)
            for i in range(k)]


def _orbit(starts, moves, limit: int | None = None) -> list | None:
    """Every point reached from starts under the maps in moves, in
    breadth-first order; None once a walk reaches limit points."""
    seen = dict.fromkeys(starts)
    frontier = list(seen)
    while frontier:
        new = []
        for p in frontier:
            for move in moves:
                q = move(p)
                if q not in seen:
                    seen[q] = None
                    new.append(q)
        if limit is not None and len(seen) >= limit:
            return None
        frontier = new
    return list(seen)


def root_closure(simple) -> tuple[tuple, tuple, tuple]:
    """(Cartan matrix, roots in simple-root coordinates, the same roots
    in standard coordinates) of integer simple roots, given as the rows
    of simple in standard coordinates; the roots are in ascending order
    of their standard-coordinate tuples, all as nested int tuples.

    The roots are the closure of the unit vectors under the simple
    reflections on simple-root coordinates, s_j(b) = b - (b . C[:, j])
    e_j: the transposed simple reflections of the dual root system.
    """
    simple = _ints(simple)
    n = len(simple)
    gram = [[sum(map(mul, a, b)) for b in simple] for a in simple]
    # C[i, j] = <alpha_i, alpha_j^vee>
    cartan = tuple(tuple(2 * gram[i][j] // gram[j][j] for j in range(n))
                   for i in range(n))

    def coreflection(j):
        column = [row[j] for row in cartan]

        def move(b):
            c = sum(map(mul, b, column))
            return b[:j] + (b[j] - c,) + b[j + 1:] if c else b
        return move

    base = _orbit(_identity(n), [coreflection(j) for j in range(n)])
    pairs = sorted(
        (tuple(sum(map(mul, b, col)) for col in zip(*simple)), b)
        for b in base)
    return (cartan, tuple(b for _, b in pairs),
            tuple(root for root, _ in pairs))


def _transversal(cartan, k: int, limit: int) -> list:
    """X_k: one element of W_k per point of the orbit W_k omega_k, each
    reached as s_i x from the point it was first found from."""
    eye = _identity(len(cartan))
    reps = {eye[k - 1]: eye}
    frontier = [eye]
    while frontier:
        new = []
        for x in frontier:
            for i in range(k):
                point = _reflect(x[k - 1], i, cartan[i])
                if point not in reps:
                    y = tuple(_reflect(row, i, cartan[i]) for row in x)
                    reps[point] = y
                    new.append(y)
        if len(reps) > limit:
            raise AssertionError(
                f"orbit of omega_{k} passed {limit} points")
        frontier = new
    return list(reps.values())


def _tower(cartan, expected_order: int) -> list[list]:
    """The transversals X_1..X_n; their sizes must multiply to the
    expected group order."""
    transversals, size = [], 1
    for k in range(1, len(cartan) + 1):
        transversals.append(_transversal(cartan, k, expected_order // size))
        size *= len(transversals[-1])
    if size != expected_order:
        raise AssertionError(
            f"tower has {size} elements, expected {expected_order}")
    return transversals


def _rank(vectors) -> int:
    """Rank over Q of integer vectors, by fraction-free elimination."""
    basis = []  # (pivot, row): each row is zero at the earlier pivots
    for v in vectors:
        for pivot, row in basis:
            if v[pivot]:
                a, b = row[pivot], v[pivot]
                v = [a * x - b * y for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            g = gcd(*v)
            basis.append((pivot, [x // g for x in v]))
    return len(basis)


def _spanning_points(cartan) -> list:
    """Orbits of fundamental weights under W, smallest first (then by
    index), until they span Q^n.  A walk stops once it is no smaller
    than the least orbit of the round."""
    n = len(cartan)
    moves = _reflections(cartan, n)
    left, points = list(_identity(n)), []
    while _rank(points) < n:
        least = None
        for omega in left:
            least = _orbit([omega], moves,
                           least and len(least)) or least
        left.remove(least[0])
        points += least
    return points


def _perm_levels(transversals, points):
    """The map from an element to its permutation of points, X_{n-1} as
    permutations, and a getter per element u of W_{n-2} = X_{n-2} ...
    X_1: getter(h) is h u."""
    index = {p: i for i, p in enumerate(points)}

    def permutation(rows):  # the image of p is p @ rows
        columns = list(zip(*rows))
        return tuple(index[tuple(sum(map(mul, p, col)) for col in columns)]
                     for p in points)

    identity = tuple(range(len(points)))
    elems = [identity]
    for xs in transversals[:-2]:
        getters = [itemgetter(*e) for e in elems]
        elems = [g(x) for x in map(permutation, xs) for g in getters]
    prefix = list(map(permutation, transversals[-2])) \
        if len(transversals) >= 2 else [identity]
    return permutation, prefix, [itemgetter(*e) for e in elems]


def _coset(heads, prefix, tail):
    """Every h t u, for h in heads, t in prefix and u in W_{n-2} (given
    by its getters), one at a time as a permutation tuple."""
    for h in heads:
        for t in prefix:
            ht = itemgetter(*t)(h)
            for getter in tail:
                yield getter(ht)


def _perm_order(perm) -> int:
    """lcm of the cycle lengths."""
    seen = [False] * len(perm)
    lengths = set()
    for start in range(len(perm)):
        if not seen[start]:
            j, length = perm[start], 1
            while j != start:
                seen[j] = True
                j = perm[j]
                length += 1
            lengths.add(length)
    return lcm(*lengths)


def weight_orbit_cycles(cartan, k: int, size: int, order: int,
                        coxeter: bool) -> bool:
    """Whether some element of the reflection group of the Cartan matrix,
    of the given order, permutes the W-orbit of omega_k, which must have
    `size` points, in one full cycle.

    With coxeter the one element tried is the Coxeter element
    s_1 ... s_n, and it must cycle; otherwise the whole group is
    scanned, one element at a time.
    """
    cartan = _ints(cartan)
    moves = _reflections(cartan, len(cartan))
    omega = _identity(len(cartan))[k - 1]
    points = _orbit([omega], moves)
    if len(points) != size:
        raise AssertionError(f"omega_{k} has {len(points)} conjugates, "
                             f"expected {size}")
    if coxeter:
        point = omega
        for _ in range(size - 1):
            for move in moves:
                point = move(point)
            if point == omega:
                raise AssertionError("the Coxeter element witness failed")
        return True
    transversals = _tower(cartan, order)
    permutation, prefix, tail = _perm_levels(transversals, points)
    for w in _coset(map(permutation, transversals[-1]), prefix, tail):
        j, length = w[0], 1  # points[0] is omega
        while j:
            j = w[j]
            length += 1
        if length == size:
            return True
    return False


def _suborbits(points, cartan) -> list[tuple[int, int]]:
    """(first index, size) of each orbit of s_1, ..., s_{n-1} on points,
    which they must permute."""
    index = {p: i for i, p in enumerate(points)}
    moves = _reflections(cartan, len(cartan) - 1)
    seen, out = set(), []
    for start, p in enumerate(points):
        if start not in seen:
            orbit = _orbit([p], moves)
            seen.update(index[q] for q in orbit)
            out.append((start, len(orbit)))
    return out


def _perm_tally(cartan, transversals, orbits) -> Counter:
    """The tally of the cosets x_O W_{n-1}, each element acting on
    weights that span Q^n."""
    permutation, prefix, tail = _perm_levels(transversals,
                                             _spanning_points(cartan))
    tally: Counter = Counter()
    for start, size in orbits:
        head = permutation(transversals[-1][start])
        for order, count in Counter(map(_perm_order, _coset(
                [head], prefix, tail))).items():
            tally[order] += size * count
    return tally


def _products(transversals, n: int):
    """Every element of X_k ... X_1 as an int8 stack, one GEMM per x,
    each written straight into its block of the stack."""
    import numpy as np
    elems = np.eye(n, dtype=np.int8)[None]
    for xs in transversals:
        flat = elems.reshape(-1, n).astype(np.float64)
        elems = np.empty((len(xs), len(flat), n), dtype=np.int8)
        for x, block in zip(xs, elems):
            block[...] = flat @ x
        elems = elems.reshape(-1, n, n)
    return elems


def _trace_keys(w):
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
    import numpy as np
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


def _order(mat) -> int:
    import numpy as np
    mat = np.rint(mat).astype(np.int64)
    eye = np.eye(len(mat), dtype=np.int64)
    power = mat
    for k in range(1, _MAX_ELEMENT_ORDER + 1):
        if (power == eye).all():
            return k
        power = power @ mat
    raise AssertionError("element order out of expected range")


def _matrix_tally(transversals, orbits) -> Counter:
    """The tally of the cosets x_O W_{n-1}, in float64 chunks
    x_O t W_{n-2} keyed by their power traces."""
    import numpy as np
    n = len(transversals)
    mats = [np.array(xs, dtype=np.int64) for xs in transversals]
    top = mats[-1]
    prefix = mats[-2] if n >= 2 else np.eye(n)[None]
    tail = _products(mats[:-2], n).reshape(-1, n).astype(np.float64)
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


def enumerate_orders(cartan, expected_order: int) -> Counter:
    """Order tally {order: element count} of the reflection group of the
    Cartan matrix, whose order must come out as expected_order.

    A tower with more than _TALLY_BOUND elements to compute orders of
    raises ResourceBoundExceeded before that work; one with more than
    _MATRIX_WORK runs the matrix kernel, any other the permutation
    kernel.
    """
    cartan = _ints(cartan)
    n = len(cartan)
    transversals = _tower(cartan, expected_order)
    top = transversals[-1]
    orbits = _suborbits([x[n - 1] for x in top], cartan)
    if sum(size for _, size in orbits) != len(top):
        raise AssertionError("suborbits do not partition the top orbit")
    work = len(orbits) * expected_order // len(top)
    if work > _TALLY_BOUND:
        raise ResourceBoundExceeded(
            f"{work} matrices to tally exceed the bound {_TALLY_BOUND}")
    if work > _MATRIX_WORK:
        return _matrix_tally(transversals, orbits)
    return _perm_tally(cartan, transversals, orbits)
