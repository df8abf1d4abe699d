"""The Weyl group engine: root closures, weight orbits, full-cycle
witnesses and exact element-order tallies of finite reflection groups.

Weights and matrices are int tuples and permutations are bytes; numpy
is imported only by the matrix kernel of the largest tallies, inside its
functions.  Every entry point takes its Cartan matrix (or simple roots)
as any integer array-like, nested tuples included.

One engine serves every Cartan matrix, including the block Cartan matrix
of a reducible system: a tower of parabolic subgroups (Humphreys,
*Reflection Groups and Coxeter Groups*, 1.10-1.12; Geck-Pfeiffer,
*Characters of Finite Coxeter Groups*, ch. 2).

Weights are row vectors of fundamental-weight coordinates.  There
s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i, and alpha_i has
coordinates C[i, :], so s_i(lambda) = lambda - lambda[i] C[i, :].  As a
matrix, an element w is the tuple of the images w(omega_1), ...,
w(omega_n), so s_i w reflects every row.

Within W_k = <s_1, ..., s_k> the stabilizer of omega_k is W_{k-1}, the
parabolic generated by the simple reflections fixing it (Humphreys 1.12),
so W_k = X_k W_{k-1}, where the transversal X_k holds one element per
point of the orbit W_k omega_k.  A breadth-first walk of the orbit
records, for each new point, the point it was reached from and the
reflection s_i that reached it; the same steps applied to the identity
build X_k as matrices or as permutations, and the group is the product
of the transversals, with no group element hashed or deduplicated.

W_{n-1} permutes the cosets x W_{n-1} by conjugation, and conjugate
elements have equal orders, so

    tally(W_n) = sum over W_{n-1}-orbits O on W_n omega_n of
                 |O| * tally(x_O W_{n-1}).

The orbit {omega_n}, with x = 1, gives the coset W_{n-1} itself, whose
tally is that of the leading (n-1)x(n-1) block of the Cartan matrix, by
recursion; only the other cosets are walked.  E8 walks 4 of its 5 cosets
of W(E7), 2,903,040 elements each, E7 3 of its 4 cosets of W(E6), and
E6 2 of its 3 cosets of W(D5).  Each coset is walked as x_O t W_{n-2},
one block per t in X_{n-1}, so only W_{n-2} is kept in memory.  Every
level checks that its tally sums to its group order.

Two kernels tally the walked cosets of a level.  The permutation kernel
acts on a set of weights that spans Q^n: the orbits of the fundamental
weights, smallest first, until an exact rank test passes.  An element
fixing a spanning set is the identity, so W acts faithfully there.  A
permutation of m <= 256 points is 256 bytes, fixing m..255, so
bytes.translate composes two of them, and the order of w is the number
of compositions with w that bring the identity back; E8's 240 roots
would be the largest spanning set.  The matrix kernel multiplies
float64 matrices in batches and reads orders off power traces
(_trace_keys); it runs once the work passes _MATRIX_WORK, where its
per-element speed repays numpy's import.  Every entry is an integer far
below 2^53 (entries of group elements are bounded by the highest-coroot
coefficients, at most 6), so the float arithmetic is exact.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from math import gcd
from operator import mul

from .errors import ResourceBoundExceeded

__all__ = [
    "root_closure",
    "weight_orbit_cycles",
    "enumerate_orders",
]

_MAX_ELEMENT_ORDER = 64  # far above any reflection group of rank <= 8
# cap on the elements whose order one level of enumerate_orders computes
# (E8 walks 4 * 2,903,040)
_TALLY_BOUND = 20_000_000
# a level that walks more than this runs the matrix kernel.  On one CPU
# of a 2-vCPU Xeon, E7's walk (155,520 elements) took 0.13 s as
# permutations and 0.09 s as matrices, plus 35-40 ms for numpy's import:
# they break even near 140,000 elements, so any bound from E6's 3,840 up
# to there gives E6 and every smaller level permutations, E7 and E8
# matrices
_MATRIX_WORK = 20_000
_IDENTITY = bytes(range(256))  # the identity permutation


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


def _transversal(cartan, k: int, limit: int) -> tuple[list, list]:
    """The orbit W_k omega_k in breadth-first order, and the walk that
    found it: steps[j - 1] = (a, i) when point j is first reached as s_i
    of point a.  Along the walk x_0 = 1 and x_j = s_i x_a, so x_j omega_k
    is point j: these x_j are X_k."""
    start = _identity(len(cartan))[k - 1]
    points, steps, index = [start], [], {start: 0}
    for a, p in enumerate(points):  # points grows while the loop runs
        for i in range(k):
            q = _reflect(p, i, cartan[i])
            if q not in index:
                index[q] = len(points)
                points.append(q)
                steps.append((a, i))
        if len(points) > limit:
            raise AssertionError(
                f"orbit of omega_{k} passed {limit} points")
    return points, steps


def _walk(steps, start, act) -> list:
    """X_k in any representation: x_0 = start, and x_j = act(x_a, i)
    applies s_i to x_a, for (a, i) = steps[j - 1]."""
    out = [start]
    for a, i in steps:
        out.append(act(out[a], i))
    return out


def _tower(cartan, expected_order: int) -> list[tuple[list, list]]:
    """The orbits and walks of X_1..X_n; the orbit sizes must multiply to
    the expected group order."""
    tower, size = [], 1
    for k in range(1, len(cartan) + 1):
        tower.append(_transversal(cartan, k, expected_order // size))
        size *= len(tower[-1][0])
    if size != expected_order:
        raise AssertionError(
            f"tower has {size} elements, expected {expected_order}")
    return tower


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


def _perm_levels(cartan, tower, points) -> tuple[list, list, list]:
    """X_n and X_{n-1} as permutations of points, and the elements of
    W_{n-2} = X_{n-2} ... X_1, each composed from the simple reflections'
    permutations along the walks."""
    if len(points) > 256:
        raise AssertionError(f"a bytes permutation moves at most 256 "
                             f"points, not {len(points)}")
    index = {p: j for j, p in enumerate(points)}
    pad = _IDENTITY[len(points):]
    moves = [bytes(index[_reflect(p, i, root)] for p in points) + pad
             for i, root in enumerate(cartan)]
    levels = [_walk(steps, _IDENTITY, lambda x, i: x.translate(moves[i]))
              for _, steps in tower]
    tail = [_IDENTITY]
    for xs in levels[:-2]:
        tail = [u.translate(x) for x in xs for u in tail]  # x u
    prefix = levels[-2] if len(levels) >= 2 else [_IDENTITY]
    return levels[-1], prefix, tail


def _coset(heads, prefix, tail):
    """Every h t u, for h in heads, t in prefix and u in tail, one at a
    time as a permutation."""
    for h in heads:
        for t in prefix:
            yield from map(bytes.translate, tail, repeat(t.translate(h)))


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
    for w in _coset(*_perm_levels(cartan, _tower(cartan, order), points)):
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


def _perm_tally(cartan, tower, orbits) -> Counter:
    """The tally of the cosets x_O W_{n-1}, each element acting on
    weights that span Q^n; its order is the count of compositions with
    itself that reach the identity, taken on the m points alone."""
    points = _spanning_points(cartan)
    heads, prefix, tail = _perm_levels(cartan, tower, points)
    one = _IDENTITY[:len(points)]
    tally: Counter = Counter()
    for start, size in orbits:
        orders = []
        for w in _coset([heads[start]], prefix, tail):
            power, order = one.translate(w), 1
            while power != one:
                power = power.translate(w)
                order += 1
            orders.append(order)
        for order, count in Counter(orders).items():
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


def _matrix_tally(cartan, tower, orbits) -> Counter:
    """The tally of the cosets x_O W_{n-1}, in float64 chunks
    x_O t W_{n-2} keyed by their power traces."""
    import numpy as np
    n = len(cartan)
    eye = _identity(n)
    mats = [np.array(_walk(steps, eye, lambda x, i: tuple(
        _reflect(row, i, cartan[i]) for row in x)), dtype=np.int64)
        for _, steps in tower]
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
    Cartan matrix, whose order must come out as expected_order, and which
    the tally must sum to.

    The base coset W_{n-1} is tallied by recursion on the leading
    (n-1)x(n-1) block, and only the other cosets are walked.  A level
    that would walk more than _TALLY_BOUND elements raises
    ResourceBoundExceeded before any work; one that walks more than
    _MATRIX_WORK runs the matrix kernel, any other the permutation
    kernel.
    """
    cartan = _ints(cartan)
    n = len(cartan)
    tower = _tower(cartan, expected_order)
    points = tower[-1][0]
    orbits = _suborbits(points, cartan)
    if sum(size for _, size in orbits) != len(points):
        raise AssertionError("suborbits do not partition the top orbit")
    # orbits[0] is {omega_n}, fixed by W_{n-1}, with x = 1: the coset
    # W_{n-1} itself
    parabolic = expected_order // len(points)
    work = (len(orbits) - 1) * parabolic
    if work > _TALLY_BOUND:
        raise ResourceBoundExceeded(
            f"{work} elements to tally exceed the bound {_TALLY_BOUND}")
    tally = enumerate_orders([row[:-1] for row in cartan[:-1]],
                             parabolic) if n > 1 else Counter({1: 1})
    kernel = _matrix_tally if work > _MATRIX_WORK else _perm_tally
    tally.update(kernel(cartan, tower, orbits[1:]))
    if sum(tally.values()) != expected_order:
        raise AssertionError(f"rank {n} tally sums to "
                             f"{sum(tally.values())}, expected "
                             f"{expected_order}")
    return tally
