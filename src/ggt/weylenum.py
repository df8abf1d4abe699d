"""The Weyl group engine: root closures, weight orbits, full-cycle
witnesses and exact element-order tallies of finite reflection groups.

Weights and roots are int tuples and permutations are bytes; numpy is
imported only by the matrix kernel of the largest tallies, inside its
functions.  Every entry point takes its Cartan matrix (or simple roots)
as any integer array-like, nested tuples included.

One engine serves every Cartan matrix, including the block Cartan matrix
of a reducible system: a tower of parabolic subgroups (Humphreys,
*Reflection Groups and Coxeter Groups*, 1.10-1.12; Geck-Pfeiffer,
*Characters of Finite Coxeter Groups*, ch. 2).

Weights are row vectors of fundamental-weight coordinates.  There
s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i, and alpha_i has
coordinates C[i, :], so s_i(lambda) = lambda - lambda[i] C[i, :].
Roots are row vectors of simple-root coordinates, where
<alpha_i, alpha_j^vee> = C[i, j] gives s_j(b) = b - (b . C[:, j]) e_j;
the roots are the closure of the simple roots, the unit vectors, under
these maps (_roots).

Every orbit is found by one breadth-first walk, _orbit, which keeps
each map's table on the points it finds: tables[i][a] is the index of
the image of point a under map i (the Schreier-vector walk; Seress,
*Permutation Group Algorithms*, ch. 4).  The roots, the weight orbits,
the tower and its suborbits are all read off such tables, so no map is
applied to a point twice.

Within W_k = <s_1, ..., s_k> the stabilizer of omega_k is W_{k-1}, the
parabolic generated by the simple reflections fixing it (Humphreys 1.12),
so W_k = X_k W_{k-1}, where the transversal X_k holds one element per
point of the orbit W_k omega_k.  The walk first reaches point j as s_i
of an earlier point a, and x_0 = 1, x_j = s_i x_a sends omega_k to
point j: these steps, applied to the identity as permutations, build
X_k, and the group is the product of the transversals, with no group
element hashed or deduplicated.

W_{k-1} permutes the cosets x W_{k-1} by conjugation, and conjugate
elements have equal orders, so

    tally(W_k) = sum over W_{k-1}-orbits O on W_k omega_k of
                 |O| * tally(x_O W_{k-1}),

where the orbits O are those of the tables of s_1, ..., s_{k-1}
(_suborbits).  The orbit {omega_k}, with x = 1, gives the coset W_{k-1}
itself, whose tally is the one level k - 1 left; only the other cosets
are walked.  One tower X_1..X_n serves every level, and every level
acts on all the roots of W, so one set of root permutations serves
them all: the levels k = 1..n run in one loop, each adding its walked
cosets to one running tally and checking that it sums to |W_k|.  E8
walks 4 of its 5 cosets of W(E7), 2,903,040 elements each, E7 3 of its
4 cosets of W(E6), and E6 2 of its 3 cosets of W(D5).  Each coset is
walked as x_O t W_{k-2}, one block per t in X_{k-1}, so only W_{k-2} is
kept in memory.

The roots span Q^n; an element fixing a spanning set is the identity,
so W, and each W_k in it, acts faithfully on them (Humphreys 1.2).  A
permutation of m <= 256 points is 256 bytes, fixing m..255, so
bytes.translate composes two of them (E8 has 240 roots), and the order
of w is the number of compositions with w that bring the identity back
(_perm_order).  The permutation kernel takes each walked element's
order so.  Past _MATRIX_WORK elements, where its per-element speed
repays numpy's import, the matrix kernel reads row i of w's n x n
matrix in the simple-root basis, the root w(alpha_i), off w[i]; it
multiplies float64 matrices in batches, keys them by power traces
(_trace_keys) and takes one _perm_order per new key.  Each entry of an
element's matrix is a root coefficient, at most 6 (E8's highest root is
2, 3, 4, 6, 5, 4, 3, 2), so every product and trace is an integer far
below 2^53, exact in float64.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import mul

from .errors import ResourceBoundExceeded

__all__ = [
    "root_closure",
    "weight_orbit_cycles",
    "enumerate_orders",
]

# cap on the elements whose order one level of enumerate_orders computes
# (E8 walks 4 * 2,903,040)
_TALLY_BOUND = 20_000_000
# a level that walks more than this runs the matrix kernel.  On one CPU
# of a 2-vCPU Xeon, E7's top level (155,520 elements) took 0.17 s as
# permutations of its 126 roots and 0.085 s as matrices, plus 36-46 ms
# for numpy's import: they break even near 65,000 elements.  Any bound
# from D7's top level (15,120) up to B7's (35,280) gives E6 and every
# level below rank 7 permutations, E7, E8 and the classical rank 7 and
# 8 top levels past it matrices
_MATRIX_WORK = 20_000
_IDENTITY = bytes(range(256))  # the identity permutation


def _ints(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(a) for a in row) for row in matrix)


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(a == b) for b in range(n)) for a in range(n))


def _reflections(cartan) -> list:
    """s_1, ..., s_n as maps on weights: p - p[i] C[i, :]."""
    def reflect(p, i, root):
        c = p[i]
        return tuple(a - c * b for a, b in zip(p, root)) if c else p
    return [lambda p, i=i, root=root: reflect(p, i, root)
            for i, root in enumerate(cartan)]


def _coreflections(cartan) -> list:
    """s_1, ..., s_n as maps on roots: b - (b . C[:, j]) e_j."""
    def coreflect(b, j, column):
        c = sum(map(mul, b, column))
        return b[:j] + (b[j] - c,) + b[j + 1:] if c else b
    return [lambda b, j=j, column=column: coreflect(b, j, column)
            for j, column in enumerate(zip(*cartan))]


def _orbit(starts, moves, limit=None) -> tuple[list, list[list[int]]]:
    """Every point reached from starts under the maps in moves, in
    breadth-first order, and each map's table on them: tables[i][a] is
    the index of moves[i](points[a]).  More than limit points raise
    AssertionError."""
    points = list(dict.fromkeys(starts))
    index = {p: a for a, p in enumerate(points)}
    tables = [[] for _ in moves]
    for p in points:  # points grows while the loop runs
        for move, table in zip(moves, tables):
            q = move(p)
            if q not in index:
                index[q] = len(points)
                points.append(q)
            table.append(index[q])
        if limit is not None and len(points) > limit:
            raise AssertionError(f"orbit passed {limit} points")
    return points, tables


def root_closure(simple) -> tuple[tuple, tuple, tuple]:
    """(Cartan matrix, roots in simple-root coordinates, the same roots
    in standard coordinates) of integer simple roots, given as the rows
    of simple in standard coordinates; the roots are in ascending order
    of their standard-coordinate tuples, all as nested int tuples.

    The roots are the closure of the unit vectors under the simple
    reflections on simple-root coordinates (_roots).
    """
    simple = _ints(simple)
    n = len(simple)
    gram = [[sum(map(mul, a, b)) for b in simple] for a in simple]
    # C[i, j] = <alpha_i, alpha_j^vee>
    cartan = tuple(tuple(2 * gram[i][j] // gram[j][j] for j in range(n))
                   for i in range(n))
    pairs = sorted(
        (tuple(sum(map(mul, b, col)) for col in zip(*simple)), b)
        for b in _roots(cartan)[0])
    return (cartan, tuple(b for _, b in pairs),
            tuple(root for root, _ in pairs))


def _tower(cartan, expected_order: int) -> list[list[list[int]]]:
    """For k = 1..n, the tables of s_1, ..., s_k on W_k omega_k; the
    orbit sizes must multiply to the expected group order."""
    moves, tower, size = _reflections(cartan), [], 1
    for k, omega in enumerate(_identity(len(cartan)), 1):
        tower.append(_orbit([omega], moves[:k], expected_order // size)[1])
        size *= len(tower[-1][0])
    if size != expected_order:
        raise AssertionError(
            f"tower has {size} elements, expected {expected_order}")
    return tower


def _roots(cartan) -> tuple[list, list[list[int]]]:
    """The roots in simple-root coordinates, the simple roots (the unit
    vectors) first: their orbit under s_1, ..., s_n, with the tables of
    s_1, ..., s_n on them."""
    return _orbit(_identity(len(cartan)), _coreflections(cartan))


def _perm_levels(moves, tower) -> list[list[bytes]]:
    """[{1}, X_1, ..., X_n] as permutations of the points that moves, the
    tables of s_1, ..., s_n, act on.  Point j of W_k omega_k is first
    reached from the first (a, i), in order, with tables[i][a] == j, and
    x_0 = 1, x_j = s_i x_a."""
    if len(moves[0]) > 256:
        raise AssertionError(f"a bytes permutation moves at most 256 "
                             f"points, not {len(moves[0])}")
    pad = _IDENTITY[len(moves[0]):]
    moves = [bytes(table) + pad for table in moves]
    levels = [[_IDENTITY]]
    for tables in tower:
        xs = [_IDENTITY]
        for a, x in enumerate(xs):  # xs grows while the loop runs
            for table, move in zip(tables, moves):
                if table[a] == len(xs):
                    xs.append(x.translate(move))
        levels.append(xs)
    return levels


def _product(levels) -> list[bytes]:
    """Every element x_m ... x_1 of the product of the levels X_1..X_m,
    as permutations."""
    out = [_IDENTITY]
    for xs in levels:
        out = [u.translate(x) for x in xs for u in out]  # x u
    return out


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
    omega = _identity(len(cartan))[k - 1]
    points, moves = _orbit([omega], _reflections(cartan))
    if len(points) != size:
        raise AssertionError(f"omega_{k} has {len(points)} conjugates, "
                             f"expected {size}")
    if coxeter:
        j = 0  # points[0] is omega
        for _ in range(size - 1):
            for table in moves:
                j = table[j]
            if not j:
                raise AssertionError("the Coxeter element witness failed")
        return True
    levels = _perm_levels(moves, _tower(cartan, order))
    for w in _coset(levels[-1], levels[-2], _product(levels[:-2])):
        j, length = w[0], 1
        while j:
            j = w[j]
            length += 1
        if length == size:
            return True
    return False


def _suborbits(tables) -> list[tuple[int, int]]:
    """(first index, size) of each orbit of s_1, ..., s_{k-1} on the
    points of tables, the tables of s_1, ..., s_k."""
    moves = [table.__getitem__ for table in tables[:-1]]
    seen, out = set(), []
    for start in range(len(tables[-1])):
        if start not in seen:
            orbit = _orbit([start], moves)[0]
            seen.update(orbit)
            out.append((start, len(orbit)))
    return out


def _perm_order(w: bytes, one: bytes) -> int:
    """The order of the root permutation w: the count of compositions
    with itself that bring back one, the n simple roots' indices.  They
    span Q^n, so w^k is the identity exactly when it fixes them, and the
    loop composes n bytes, not one per root."""
    power, order = one.translate(w), 1
    while power != one:
        power = power.translate(w)
        order += 1
    return order


def _perm_tally(roots, heads, prefix, tail, orbits) -> Counter:
    """The tally of the cosets x_O W_{k-1} = x_O X_{k-1} W_{k-2}, x_O in
    heads, prefix being X_{k-1} and tail W_{k-2}, each element a
    permutation of the roots."""
    one = _IDENTITY[:len(roots[0])]
    tally: Counter = Counter()
    for start, size in orbits:
        coset = _coset([heads[start]], prefix, tail)
        for order, count in Counter(
                map(_perm_order, coset, repeat(one))).items():
            tally[order] += size * count
    return tally


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


def _matrix_tally(roots, heads, prefix, tail, orbits) -> Counter:
    """The tally of the cosets x_O W_{k-1}, as _perm_tally takes them, in
    float64 chunks x_O t W_{k-2} of n x n matrices keyed by their power
    traces; the order of a new key is taken on its first element's root
    permutation."""
    import numpy as np
    n = len(roots[0])
    index = {p: j for j, p in enumerate(roots)}
    pad, one = _IDENTITY[len(roots):], _IDENTITY[:n]
    basis = np.array(roots, dtype=np.float64)
    # row i of w's matrix is the root w(alpha_i), and roots[i] is alpha_i
    top, prefix, tail = [basis[np.frombuffer(
        b"".join(w[:n] for w in ws), dtype=np.uint8).reshape(-1, n)]
        for ws in (heads, prefix, tail)]
    tail = tail.reshape(-1, n)
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
                    images = np.rint(basis @ chunk[i]).astype(np.int64)
                    w = bytes(index[b] for b in map(tuple, images.tolist()))
                    cache[key] = _perm_order(w + pad, one)
                tally[cache[key]] += size * count
    return tally


def enumerate_orders(cartan, expected_order: int) -> Counter:
    """Order tally {order: element count} of the reflection group of the
    Cartan matrix, whose order must come out as expected_order, and which
    the tally must sum to.

    One tower and one set of root permutations serve every level
    k = 1..n: level k adds the cosets x_O W_{k-1} other than W_{k-1}
    itself to the tally of W_{k-1} that the level below left, then checks
    that the tally sums to |W_k|.  If any level would walk more than
    _TALLY_BOUND elements, ResourceBoundExceeded is raised before any
    level is walked; a level that walks more than _MATRIX_WORK runs the
    matrix kernel, any other the permutation kernel.
    """
    cartan = _ints(cartan)
    tower = _tower(cartan, expected_order)
    plan, size = [], 1
    for tables in tower:
        # orbits[0] is {omega_k}, fixed by W_{k-1}, with x = 1: the coset
        # W_{k-1} itself, tallied by the level below
        orbits = _suborbits(tables)
        work = (len(orbits) - 1) * size
        if work > _TALLY_BOUND:
            raise ResourceBoundExceeded(
                f"{work} elements to tally exceed the bound {_TALLY_BOUND}")
        size *= len(tables[0])
        plan.append((orbits[1:], work, size))
    roots, moves = _roots(cartan)
    levels = _perm_levels(moves, tower)
    tally = Counter({1: 1})
    for k, (orbits, work, size) in enumerate(plan, 1):
        kernel = _matrix_tally if work > _MATRIX_WORK else _perm_tally
        tally.update(kernel(roots, levels[k], levels[k - 1],
                            _product(levels[:k - 1]), orbits))
        if sum(tally.values()) != size:
            raise AssertionError(f"rank {k} tally sums to "
                                 f"{sum(tally.values())}, expected {size}")
    return tally
