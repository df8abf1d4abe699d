"""The Weyl group engine: root closures, weight orbits and exact tallies
of class functions on finite reflection groups: orders, weight cycles.

Weights and roots are int tuples and permutations are bytes; no
floating point and no numpy.  Every entry point takes its Cartan matrix
(or simple roots) as any integer array-like, nested tuples included.

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

Every orbit is a walk of ggt.walk, which keeps each map's table on the
points it finds: tables[i][a] is the index of the image of point a
under map i.  The roots, the weight orbits, the tower and its suborbits
are all read off such walks, so no map is applied to a point twice.

Within W_k = <s_1, ..., s_k> the stabilizer of omega_k is W_{k-1}, the
parabolic generated by the simple reflections fixing it (Humphreys 1.12),
so W_k = X_k W_{k-1}, where the transversal X_k holds one element per
point of the orbit W_k omega_k.  The walk first reaches point j as s_i
of an earlier point a, its edge (i, a), and x_0 = 1, x_j = s_i x_a sends
omega_k to point j: these edges, applied to the identity as
permutations, build X_k, and the group is the product of the
transversals, with no group element hashed or deduplicated.

W_{k-1} permutes the cosets x W_{k-1} by conjugation, and a class
function, such as the order, is constant on conjugates, so

    tally(W_k) = sum over W_{k-1}-orbits O on W_k omega_k of
                 |O| * tally(x_O W_{k-1}),

where the orbits O are those of the tables of s_1, ..., s_{k-1}
(ggt.walk's orbits).  The orbit {omega_k}, with x = 1, gives the coset
W_{k-1} itself, whose tally is the one level k - 1 left; only the other
cosets are walked.  One tower X_1..X_n and one set of permutations, of
the roots or of a weight orbit, serve every level: the levels k = 1..n
run in one loop (_tally), each adding its walked cosets to one running
tally and checking that it sums to |W_k|.  Each coset is walked as
x_O t W_{k-2}, one block per t in X_{k-1}, so only W_{k-2} is kept in
memory.

The roots span Q^n; an element fixing a spanning set is the identity,
so W, and each W_k in it, acts faithfully on them (Humphreys 1.2).  A
permutation of m <= 256 points is 256 bytes, fixing m..255, so
bytes.translate composes two of them (E8 has 240 roots), and the order
of w is the number of compositions with w that bring the identity back;
each element is tallied by that order and whether one of its powers is
-1 (_perm_key).

When -1 is in W (_minus_one; Humphreys 1.8, 3.19), it is central, and
the bijection w -> -w of W maps the coset of the point p = x omega_n to
that of -p, so the orbit O to -O.  The top level walks one orbit of
each pair {O, -O} and adds the other's tally through the order of -w
(_negated), and the orbit {-omega_n}, the coset -W_{n-1}, is the flip
of the level below.  So E8 walks 2 of its 5 cosets of W(E7), 2,903,040
elements each, E7 1 of its 4 cosets of W(E6), and E6, without -1, 2 of
its 3 cosets of W(D5).  The finished tally must be the same under
w -> -w, a second check on the flip.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import repeat
from operator import mul

from .errors import ResourceBoundExceeded
from .numth import euler_phi, factorize
from .walk import orbits, walk

__all__ = [
    "root_closure",
    "weight_orbit_cycles",
    "enumerate_orders",
]

# cap on the elements one level of a tally keys, by order or by weight
# cycle (E8 walks 2 * 2,903,040)
_TALLY_BOUND = 20_000_000
_IDENTITY = bytes(range(256))  # the identity permutation


def _ints(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(a) for a in row) for row in matrix)


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(a == b) for b in range(n)) for a in range(n))


def _reflections(rows):
    """The walk step p -> s_1(p), ..., s_k(p) on weights, s_i(p) =
    p - p[i] C[i, :], for the rows C[1, :], ..., C[k, :] given."""
    def step(p):
        for i, root in enumerate(rows):
            c = p[i]
            yield tuple(a - c * b for a, b in zip(p, root)) if c else p
    return step


def _coreflections(cartan):
    """The walk step b -> s_1(b), ..., s_n(b) on roots, s_j(b) =
    b - (b . C[:, j]) e_j."""
    columns = list(enumerate(zip(*cartan)))

    def step(b):
        for j, column in columns:
            c = sum(map(mul, b, column))
            yield b[:j] + (b[j] - c,) + b[j + 1:] if c else b
    return step


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


def _tower(cartan, expected_order: int) -> tuple[list, list]:
    """The points of W omega_n and, for k = 1..n, the walk of s_1, ...,
    s_k from omega_k as [tables, via, parents] on W_k omega_k; the orbit
    sizes must multiply to the expected group order."""
    tower, size = [], 1
    for k, omega in enumerate(_identity(len(cartan)), 1):
        try:
            points, *level = walk(
                [omega], _reflections(cartan[:k]), expected_order // size)
        except ResourceBoundExceeded as err:
            raise AssertionError(str(err)) from None
        tower.append(level)
        size *= len(points)
    if size != expected_order:
        raise AssertionError(
            f"tower has {size} elements, expected {expected_order}")
    return points, tower


def _roots(cartan) -> tuple[list, list[list[int]]]:
    """The roots in simple-root coordinates, the simple roots (the unit
    vectors) first: their orbit under s_1, ..., s_n, with the tables of
    s_1, ..., s_n on them."""
    return walk(_identity(len(cartan)), _coreflections(cartan))[:2]


def _perm_levels(moves, tower) -> list[list[bytes]]:
    """[{1}, X_1, ..., X_n] as permutations of the points that moves, the
    tables of s_1, ..., s_n, act on: x_0 = 1 and x_j = s_i x_a, where
    the walk of W_k omega_k first reaches point j as s_i of point a."""
    if len(moves[0]) > 256:
        raise AssertionError(f"a bytes permutation moves at most 256 "
                             f"points, not {len(moves[0])}")
    pad = _IDENTITY[len(moves[0]):]
    moves = [bytes(table) + pad for table in moves]
    levels = [[_IDENTITY]]
    for _, via, parents in tower:
        xs = [_IDENTITY]
        for i, a in zip(via, parents):
            xs.append(xs[a].translate(moves[i]))
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


def _cycle_count(cartan, moves, order: int) -> int:
    """The number of elements of the reflection group of the Cartan
    matrix, of the given order, that permute the points that moves, the
    tables of s_1, ..., s_n, act on in one cycle (_tally); the action need
    not be faithful, as the tower lists each element once."""
    size = len(moves[0])

    def full_cycle(w):  # the walk from point 0 returns after size steps
        j, steps = w[0], 1
        while j:
            j, steps = w[j], steps + 1
        return steps == size
    return _tally(cartan, order, moves, full_cycle, False)[True]


def weight_orbit_cycles(cartan, k: int, size: int, order: int,
                        coxeter: bool) -> bool:
    """Whether some element of the reflection group of the Cartan matrix,
    of the given order, permutes the W-orbit of omega_k, which must have
    `size` points, in one full cycle.

    With coxeter the one element tried is the Coxeter element
    s_1 ... s_n, and it must cycle; otherwise the cycling elements are
    counted as enumerate_orders counts orders (_cycle_count).
    """
    cartan = _ints(cartan)
    omega = _identity(len(cartan))[k - 1]
    points, moves = walk([omega], _reflections(cartan))[:2]
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
    return _cycle_count(cartan, moves, order) > 0


def _pairs(points, suborbits) -> list[tuple[int, int, bool]]:
    """The (start, size, paired) orbits to walk of W_{n-1} on points,
    W omega_n, when -1 is in W: one of each pair {O, -O}, paired, and
    each O = -O; {omega_n} and {-omega_n} are not walked."""
    index = {p: a for a, p in enumerate(points)}
    owner = {a: o for o, orbit in enumerate(suborbits) for a in orbit}
    cosets = []
    for o, orbit in enumerate(suborbits[1:], 1):
        partner = owner[index[tuple(-c for c in points[orbit[0]])]]
        if partner >= o:
            cosets.append((orbit[0], len(orbit), partner > o))
    return cosets


def _minus_one(roots, moves) -> bool:
    """Whether -1 is in W, acting on the roots by the tables moves.  Right
    multiplication by s_i adds one to the length of w when w(alpha_i) > 0,
    so this descent from 1 ends at w0, which sends every simple root to a
    negative one (Humphreys 1.6-1.8); -1 is in W if and only if w0 sends
    every alpha_i to -alpha_i, which is s_i(alpha_i)."""
    n = len(roots[0])
    negative = [sum(b) < 0 for b in roots]
    w, i = list(range(len(roots))), 0
    while i < n:
        if negative[w[i]]:
            i += 1
        else:
            w, i = [w[a] for a in moves[i]], 0
    return all(w[i] == moves[i][i] for i in range(n))


def _perm_key(one: bytes, neg: bytes, w: bytes) -> int:
    """2m + f for the root permutation w: m counts its compositions with
    itself until one, the simple roots' indices, comes back, and f is 1
    if neg, their negatives' indices, comes up, as -1 is then a power of
    w.  They span Q^n, so the loop composes n bytes a step, not 256."""
    power, key = one.translate(w), 2
    while power != one:
        if power == neg:
            key += 1
        power = power.translate(w)
        key += 2
    return key


def _negated(key: int) -> int:
    """The key of -w, with -1 central, from the key 2m + f of w: -w has
    order m/2 if f and m/2 is odd, 2m if m is odd, and m otherwise, and
    -1 is a power of -w when m is odd, or f and m/2 is even."""
    m, f = divmod(key, 2)
    if m % 2:
        return 4 * m + 1
    if f and m // 2 % 2:
        return m
    return key


def _mapped(tally: Counter, f) -> Counter:
    """The tally of f(key) over the keys of tally."""
    out: Counter = Counter()
    for key, count in tally.items():
        out[f(key)] += count
    return out


def _perm_tally(heads, prefix, tail, cosets, key) -> Counter:
    """The key tally of the cosets x_O W_{k-1} = x_O X_{k-1} W_{k-2}, size
    times each, for (start, size, paired) in cosets, x_O being heads[start],
    prefix X_{k-1} and tail W_{k-2}, each element a permutation; a paired
    one adds its flip, the coset of -O."""
    tally: Counter = Counter()
    for start, size, paired in cosets:
        coset = Counter(map(key, _coset([heads[start]], prefix, tail)))
        if paired:
            coset.update(_mapped(coset, _negated))
        tally.update({value: size * c for value, c in coset.items()})
    return tally


def _tally(cartan, order: int, moves, key, flip: bool) -> Counter:
    """The tally {key(w): count} of the class function key over the
    reflection group of the Cartan matrix, of the given order, each w a
    permutation of the points that moves, the tables of s_1, ..., s_n,
    act on.  With flip (root keys, -1 in W) the top level walks one orbit
    of each pair {O, -O}.  A level that would walk more than _TALLY_BOUND
    elements raises ResourceBoundExceeded before any level is walked."""
    points, tower = _tower(cartan, order)
    n = len(tower)
    plan, size = [], 1
    for k, (tables, _, _) in enumerate(tower, 1):
        # suborbits[0] is {omega_k}, fixed by W_{k-1}, with x = 1: the
        # coset W_{k-1} itself, tallied by the level below
        suborbits = orbits(tables[:-1], len(tables[0]))
        cosets = (_pairs(points, suborbits) if flip and k == n else
                  [(orbit[0], len(orbit), False) for orbit in suborbits[1:]])
        work = len(cosets) * size
        if work > _TALLY_BOUND:
            raise ResourceBoundExceeded(
                f"{work} elements to tally exceed the bound {_TALLY_BOUND}")
        size *= len(tables[0])
        plan.append((cosets, size))
    levels = _perm_levels(moves, tower)
    tally = Counter({key(_IDENTITY): 1})
    for k, (cosets, size) in enumerate(plan, 1):
        if flip and k == n:
            tally.update(_mapped(tally, _negated))  # the coset -W_{n-1}
        tally.update(_perm_tally(levels[k], levels[k - 1],
                                 _product(levels[:k - 1]), cosets, key))
        if sum(tally.values()) != size:
            raise AssertionError(f"rank {k} tally sums to "
                                 f"{sum(tally.values())}, expected {size}")
    if flip and _mapped(tally, _negated) != tally:
        raise AssertionError("the tally of -w differs from that of w")
    return tally


def enumerate_orders(cartan, expected_order: int) -> Counter:
    """Order tally {order: element count} of the reflection group of the
    Cartan matrix, whose order must come out as expected_order, and which
    the tally must sum to: the _tally of each root permutation's order
    and whether -1 is a power of it (_perm_key), flipped when -1 is in W.

    The finished tally must hold exactly one element of order 1, which a
    flip that maps the identity to itself would double.  It must pass
    Frobenius's theorem (1895): for every m dividing |W|, the number of w
    with w^m = 1 is a multiple of m.  And it must count each order d in
    whole sets of phi(d), the generators of one cyclic subgroup.
    """
    cartan = _ints(cartan)
    n = len(cartan)
    roots, moves = _roots(cartan)
    neg = bytes(moves[i][i] for i in range(n))  # s_i(alpha_i) = -alpha_i
    tally = _tally(cartan, expected_order, moves,
                   partial(_perm_key, _IDENTITY[:n], neg),
                   _minus_one(roots, moves))
    orders = _mapped(tally, lambda key: key // 2)
    if orders[1] != 1:
        raise AssertionError(f"the tally holds {orders[1]} elements of "
                             f"order 1")
    divisors = [1]
    for p, e in factorize(expected_order).items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    frobenius = sorted(m for m in divisors if sum(
        count for d, count in orders.items() if m % d == 0) % m)
    phi = sorted(d for d, count in orders.items() if count % euler_phi(d))
    if frobenius or phi:
        raise AssertionError(f"Frobenius fails at m in {frobenius}, "
                             f"phi(d) | N_d at d in {phi}")
    return orders
