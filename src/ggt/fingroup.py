"""A small engine for concrete finite groups.

Elements are immutable objects with *, .inverse(), equality, hashing, a
total sort_key() and a point_action hook.  Permutations live here as
image tuples, monomial matrices in ggt.monomial as a permutation plus
integer exponents; both multiply by one itemgetter gather.  A FinGroup
is its element list, sorted once by sort_key, so an element is also its
index in that list.

For each generator g a group keeps the table i -> index(g * x_i).
FinGroup.generate records it in a breadth-first search on base images
(Seress, Permutation Group Algorithms, 2003, ch. 4).  The element type's
point_action hook lets the group act on a finite set of points: every
point of a permutation, the vectors zeta^e e_j of a monomial matrix.  An
element is the tuple of its images of a base, points whose images
determine it, so left multiplication by g is one gather of g's point
table through that tuple, with no product; each element is decoded once
at the end.  A group given by its elements makes the tables by products
on first use.  Work that moves elements by generators then runs on
indices, with no products.  Conjugation reads x g off a spanning tree of
the Cayley graph (x = g_a y gives x g = g_a (y g)), so the conjugacy
classes, normality tests and normal closures are orbits of index tables;
and g (x N) = g x N, so pushing the normal subgroup N through the tables
labels every coset of a quotient.  Subgroup closures multiply, by
Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
Groups, 1991): a new generator outside the group H generated so far adds
whole right cosets H t at |H| - 1 products each, the size bound checked
before each coset is made.

Closures are not repeated.  x and x^k with gcd(k, ord x) = 1 have the
same normal closure (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005, ch. 4), so normal_subgroups closes one conjugacy
class per rational class.  The quotient by {1} is G itself: the
ell-core criterion and the abelianization of an abelian group use G and
never build its regular representation.  A type (n, p) witness
builds the cyclic group <y> once, as the map y^k -> k that both tests
normality and reads off the conjugation exponents.  The intended scale
is a few tens of thousands of elements (the wild image at m = 13 has
53,248).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import ResourceBoundExceeded
from .numth import is_prime, mult_order

__all__ = [
    "Perm",
    "FinGroup",
    "TypeNPWitness",
    "closure",
    "is_type_np",
    "is_type_npl",
    "metacyclic",
    "cyclic",
    "direct_product",
]

DEFAULT_CLOSURE_BOUND = 100_000


def gatherer(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map seq -> tuple(seq[i] for i in idx), one itemgetter if it can."""
    if len(idx) < 2:
        # itemgetter with one index returns a bare item, not a tuple
        return lambda seq: tuple(seq[i] for i in idx)
    return itemgetter(*idx)


@dataclass(frozen=True)
class Perm:
    """Permutation of {0..n-1} as a tuple of images."""

    img: tuple[int, ...]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.img) != len(other.img):
            raise ValueError("degree mismatch")
        return Perm(gatherer(other.img)(self.img))

    @staticmethod
    def point_action(gens: Sequence["Perm"], bound: int
                     ) -> tuple[tuple[int, ...], list, Callable]:
        """The hook of FinGroup.generate: the base is every point, so a
        permutation is its own tuple of base images."""
        n = len(gens[0].img)
        if any(len(g.img) != n for g in gens):
            raise ValueError("degree mismatch")
        return tuple(range(n)), [g.img for g in gens], Perm

    def inverse(self) -> "Perm":
        inv = [0] * len(self.img)
        for i, j in enumerate(self.img):
            inv[j] = i
        return Perm(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.img))

    def sort_key(self):
        return self.img

    def __repr__(self) -> str:
        return f"Perm{self.img}"


def closure(generators: Sequence, bound: int = DEFAULT_CLOSURE_BOUND) -> list:
    """All products of the generators, identity first.  Errors past the
    bound."""
    if not generators:
        raise ValueError("need at least one generator")
    return _dimino(generators, generators[0] * generators[0].inverse(), bound)


def _dimino(gens: Iterable, identity, bound: int) -> list:
    """The group generated by gens, identity first: one Dimino step per
    generator not yet inside."""
    els, members, used = [identity], {identity}, []

    def add_coset(t) -> None:
        if len(els) + len(sub) >= bound:
            raise ResourceBoundExceeded(
                f"group closure exceeded {bound} elements")
        coset = [t] + [h * t for h in sub]
        els.extend(coset)
        members.update(coset)
        reps.append(t)

    for x in gens:
        if x in members:
            continue
        used.append(x)
        # right cosets of H = <used[:-1]> (sub is H minus the identity)
        # until every coset rep times every generator lands inside
        sub, reps = els[1:], []
        add_coset(x)
        for r in reps:  # reps grows while the loop runs
            for s in used:
                y = r * s
                if y not in members:
                    add_coset(y)
    return els


class FinGroup:
    """A finite group given by its full element list."""

    def __init__(self, generators: Sequence, elements: Iterable,
                 identity, tables: Sequence | None = None) -> None:
        """tables, if given, holds for each generator g the list
        i -> position of g * x_i, positions in elements as passed."""
        self.generators = list(generators)
        els = list(elements)
        keys = [x.sort_key() for x in els]
        order = sorted(range(len(els)), key=keys.__getitem__)
        self.elements = [els[i] for i in order]
        self.identity = identity
        self.index = {x: i for i, x in enumerate(self.elements)}
        if tables is not None:
            rank = [0] * len(order)
            for r, i in enumerate(order):
                rank[i] = r
            tables = [[rank[t[i]] for i in order] for t in tables]
        self._tables: list[list[int]] | None = tables
        self._conj: list[list[int]] | None = None
        self._orbits: list[set[int]] | None = None
        self._classes: list[frozenset] | None = None
        self._normals: list[frozenset] | None = None
        self._commutator: frozenset | None = None
        self._type_np: dict[tuple[int, int], TypeNPWitness | None] = {}

    @classmethod
    def generate(cls, generators: Sequence,
                 bound: int = DEFAULT_CLOSURE_BOUND) -> "FinGroup":
        """Breadth-first closure by left multiplication, recording each
        generator's table.  Errors past the bound.

        The search runs on base images: the element type's point_action
        hook gives the identity's base images, each generator as a
        table of point images and the map back to elements, so g * x is
        one gather of g's table through x and no element is multiplied.
        """
        if not generators:
            raise ValueError("need at least one generator")
        start, phis, decode = generators[0].point_action(generators, bound)
        imgs, pos = [start], {start: 0}
        tables = [[] for _ in phis]
        for x in imgs:  # imgs grows while the loop runs
            gx = gatherer(x)
            for phi, table in zip(phis, tables):
                y = gx(phi)
                j = pos.setdefault(y, len(imgs))
                if j == len(imgs):
                    if j >= bound:
                        raise ResourceBoundExceeded(
                            f"group closure exceeded {bound} elements")
                    imgs.append(y)
                table.append(j)
        els = [decode(x) for x in imgs]
        return cls(generators, els, els[0], tables)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.index

    def element_order(self, x) -> int:
        k, y = 1, x
        while y != self.identity:
            y = y * x
            k += 1
        return k

    def _left_tables(self) -> list[list[int]]:
        """For each generator g, the table i -> index(g * x_i)."""
        if self._tables is None:
            self._tables = [[self.index[g * x] for x in self.elements]
                            for g in self.generators]
        return self._tables

    def _conj_tables(self) -> list[list[int]]:
        """For each generator g, the table i -> index(g^-1 x_i g)."""
        if self._conj is None:
            tables = self._left_tables()
            n, e = self.order, self.index[self.identity]
            # rights[a][i] = index(x_i g_a), filled along a spanning tree
            # of the Cayley graph: x = g_b y gives x g_a = g_b (y g_a)
            rights = [[t[e]] * n for t in tables]
            queue, seen = [e], {e}
            for p in queue:  # queue grows while the loop runs
                for t in tables:
                    j = t[p]
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
                        for r in rights:
                            r[j] = t[r[p]]
            # g^-1 (g x) g = x g
            self._conj = []
            for t, r in zip(tables, rights):
                c = [0] * n
                for i, j in zip(t, r):
                    c[i] = j
                self._conj.append(c)
        return self._conj

    def _conj_orbit(self, idx: set[int]) -> set[int]:
        """Close a set of indices under conjugation, in place."""
        conj = self._conj_tables()
        stack = list(idx)
        while stack:
            i = stack.pop()
            for c in conj:
                j = c[i]
                if j not in idx:
                    idx.add(j)
                    stack.append(j)
        return idx

    def _class_orbits(self) -> list[set[int]]:
        """The conjugacy classes as index sets, numbered by least index."""
        if self._orbits is None:
            unseen = set(range(self.order))
            self._orbits = []
            for i in range(self.order):
                if i in unseen:
                    orbit = self._conj_orbit({i})
                    unseen -= orbit
                    self._orbits.append(orbit)
        return self._orbits

    def conjugacy_classes(self) -> list[frozenset]:
        if self._classes is None:
            els = self.elements
            self._classes = [frozenset(els[j] for j in orbit)
                             for orbit in self._class_orbits()]
        return self._classes

    def subgroup_closure(self, seed: Iterable) -> frozenset:
        """Subgroup generated by the seed elements (all must lie in self).

        The seed is taken in sorted order, so few of its elements become
        generators."""
        gens = sorted(seed, key=self.index.__getitem__)
        return frozenset(_dimino(gens, self.identity, self.order))

    def normal_closure(self, seed: Iterable) -> frozenset:
        """Smallest normal subgroup containing the seed."""
        idx = self._conj_orbit({self.index[x] for x in seed})
        return self.subgroup_closure(self.elements[i] for i in idx)

    def normal_subgroups(self) -> list[frozenset]:
        """Every normal subgroup, via joins of conjugacy class closures.

        One class is closed per rational class: x is the least-index
        element of a class not yet covered, and the classes of the
        generators x^k (gcd(k, ord x) = 1) of <x>, which have the same
        normal closure, are marked covered."""
        if self._normals is not None:
            return self._normals
        orbits = self._class_orbits()
        label = [0] * self.order
        for c, orbit in enumerate(orbits):
            for i in orbit:
                label[i] = c
        covered = [False] * len(orbits)
        found = {frozenset([self.identity])}
        for c, orbit in enumerate(orbits):
            if covered[c]:
                continue
            powers = _powers(self.elements[min(orbit)], self.identity)
            for k, y in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1:
                    covered[label[self.index[y]]] = True
            found.add(self.subgroup_closure(self.elements[i] for i in orbit))
        # Close the set under joins; every normal subgroup is a join of
        # class closures, so this reaches all of them.
        work = list(found)
        while work:
            a = work.pop()
            for b in list(found):
                if a <= b or b <= a:
                    continue
                # the join is AB, of order |A||B|/|A n B|: a known
                # subgroup of that order containing A u B is the join
                union, size = a | b, len(a) * len(b) // len(a & b)
                if any(len(n) == size and union <= n for n in found):
                    continue
                j = self.subgroup_closure(union)
                if j not in found:
                    found.add(j)
                    work.append(j)
        self._normals = sorted(
            found, key=lambda n: (len(n), sorted(self.index[x] for x in n)))
        return self._normals

    def is_normal(self, sub: frozenset) -> bool:
        idx = {self.index[x] for x in sub}
        return all(c[i] in idx for c in self._conj_tables() for i in idx)

    def index_core(self, d: int) -> frozenset:
        """Intersection of all normal subgroups of index at most d."""
        if d < 1:
            raise ValueError("index bound must be positive")
        core = frozenset(self.elements)
        for n in self.normal_subgroups():
            if self.order // len(n) <= d:
                core &= n
        return core

    def commutator_subgroup(self) -> frozenset:
        if self._commutator is None:
            gens = self.generators
            comms = []
            for a in gens:
                for b in gens:
                    comms.append(a.inverse() * b.inverse() * a * b)
            self._commutator = self.normal_closure(comms)
        return self._commutator

    def quotient(self, sub: frozenset) -> tuple["FinGroup", Callable]:
        """Quotient by a normal subgroup, as permutations of the cosets.

        Returns the quotient group and the projection map element -> Perm.
        """
        if not self.is_normal(sub):
            raise ValueError("subgroup is not normal")
        tables = self._left_tables()
        label = [-1] * self.order  # -1 until the coset is found
        cosets = [[self.index[x] for x in sub]]
        for i in cosets[0]:
            label[i] = 0
        for coset in cosets:  # cosets grows while the loop runs
            for t in tables:
                if label[t[coset[0]]] < 0:
                    image = [t[i] for i in coset]  # g x N, a whole coset
                    for i in image:
                        label[i] = 0
                    cosets.append(image)
        # number the cosets by least index, which the reps are
        cosets.sort(key=min)
        for c, coset in enumerate(cosets):
            for i in coset:
                label[i] = c
        reps = [min(c) for c in cosets]
        gen_perms = [Perm(tuple(label[t[r]] for r in reps)) for t in tables]
        q = FinGroup.generate(gen_perms, bound=max(2 * len(reps), 16))
        if q.order != self.order // len(sub):
            raise AssertionError("quotient order mismatch")
        # G/N acts regularly on the cosets, so an element of q is fixed by
        # where it sends N
        by_image = {x.img[label[self.index[self.identity]]]: x
                    for x in q.elements}

        def project(g) -> Perm:
            return by_image[label[self.index[g]]]

        return q, project

    def abelianization(self) -> list[int]:
        """Invariant factors d1 | d2 | ... of G made abelian."""
        comm = self.commutator_subgroup()
        q = self if len(comm) == 1 else self.quotient(comm)[0]
        factors = []
        while q.order > 1:
            x = max(q.elements,
                    key=lambda z: (q.element_order(z), z.sort_key()))
            factors.append(q.element_order(x))
            q, _ = q.quotient(q.subgroup_closure([x]))
        factors.reverse()
        return factors

    def ell_core(self, ell: int) -> frozenset:
        """The largest normal ell-subgroup."""
        if not is_prime(ell):
            raise ValueError("ell must be prime")
        cores = [n for n in self.normal_subgroups()
                 if _is_prime_power(len(n), ell)]
        big = max(cores, key=len)
        for n in cores:
            if not n <= big:
                raise AssertionError("normal ell-subgroups not nested")
        return big

    def to_json(self, d: int | None = None,
                type_np: tuple[int, int] | None = None,
                ell: int | None = None) -> dict:
        out = {
            "order": self.order,
            "normal_subgroup_orders": [len(n) for n in
                                       self.normal_subgroups()],
            "abelianization": self.abelianization(),
        }
        if d is not None:
            out["gamma_d"] = {"d": d, "order": len(self.index_core(d))}
        if type_np is not None:
            n, p = type_np
            w = is_type_np(self, n, p)
            out["type_np"] = {
                "n": n, "p": p, "found": w is not None,
                "image_order": w.image_order if w else None,
            }
            if ell is not None:
                out["type_np"]["ell"] = ell
                out["type_np"]["up_to_ell_core"] = is_type_npl(self, n, p, ell)
        return out


def _is_prime_power(m: int, p: int) -> bool:
    while m % p == 0:
        m //= p
    return m == 1


@dataclass(frozen=True)
class TypeNPWitness:
    """A normal subgroup of order p on which conjugation acts with order n."""

    p: int
    image_order: int
    exponents: tuple[int, ...]


def _element_of_order_p(g: FinGroup, p: int):
    t = g.order
    m = t
    while m % p == 0:
        m //= p
    for x in g.elements:
        y = _power(x, m, g.identity)
        while y != g.identity:
            z = _power(y, p, g.identity)
            if z == g.identity:
                return y
            y = z
    return None


def _powers(x, e) -> list:
    """[x, x^2, ..., x^ord(x) = e], one product each."""
    out = [x]
    while out[-1] != e:
        out.append(out[-1] * x)
    return out


def _power(x, k: int, e):
    acc = e
    base = x
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


def is_type_np(g: FinGroup, n: int, p: int) -> TypeNPWitness | None:
    """Witness that g has a normal Z/p with conjugation image of order n.

    The conjugation image (inner automorphisms restricted to the normal
    subgroup) sits inside the cyclic group (Z/p)*, and the criterion asks
    for its order to be exactly n.  Requires n >= 2.  The answer is
    cached on g per (n, p).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not is_prime(p):
        raise ValueError("p must be prime")
    if (n, p) not in g._type_np:
        g._type_np[n, p] = _find_type_np(g, n, p)
    return g._type_np[n, p]


def _find_type_np(g: FinGroup, n: int, p: int) -> TypeNPWitness | None:
    if g.order % p != 0:
        return None
    for powers in _order_p_normal_subgroups(g, p):
        y = next(iter(powers))
        exps = [powers.get(gen * y * gen.inverse()) for gen in g.generators]
        if None in exps:
            continue
        # (Z/p)* is cyclic: the units generate a subgroup of order the lcm
        # of their orders
        image = lcm(*(mult_order(a, p) for a in exps))
        if image == n:
            return TypeNPWitness(p=p, image_order=image, exponents=tuple(exps))
    return None


def _order_p_normal_subgroups(g: FinGroup, p: int) -> list[dict]:
    """The normal subgroups of order p, one power map {y^k: k} (k = 1..p,
    the generator y first) per subgroup."""
    t = g.order
    pp = 1
    while t % p == 0:
        t //= p
        pp *= p
    if pp == p:
        # Order-p subgroups are Sylow, hence all conjugate: a normal one
        # must be the unique one, so a single probe settles it.
        y = _element_of_order_p(g, p)
        if y is None:
            return []
        powers = _power_map(y, g.identity)
        return [powers] if g.is_normal(frozenset(powers)) else []
    out = []
    for nsub in g.normal_subgroups():
        if len(nsub) == p:
            y = next(x for x in sorted(nsub, key=lambda z: z.sort_key())
                     if x != g.identity)
            out.append(_power_map(y, g.identity))
    return out


def _power_map(y, e) -> dict:
    return {z: k for k, z in enumerate(_powers(y, e), 1)}


def is_type_npl(g: FinGroup, n: int, p: int, ell: int) -> bool:
    """True iff some quotient by a normal ell-subgroup has a type (n, p)
    witness.  Checked against the ell-core quotient, which must agree.

    Each quotient of the family is built once; the one by {1} is g
    itself, whose (cached) witness is asked for directly."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if ell == p:
        raise ValueError("p and ell must be distinct")
    answers = {}
    for s in g.normal_subgroups():
        if _is_prime_power(len(s), ell):
            q = g if len(s) == 1 else g.quotient(s)[0]
            answers[s] = is_type_np(q, n, p) is not None
    core_answer = answers[g.ell_core(ell)]
    if any(answers.values()) != core_answer:
        raise AssertionError("ell-core quotient disagrees with the family")
    return core_answer


def cyclic(n: int) -> FinGroup:
    """Z/n as the rotation group of n points."""
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    if n == 1:
        return FinGroup([Perm((0,))], [Perm((0,))], Perm((0,)))
    gen = Perm(tuple((i + 1) % n for i in range(n)))
    return FinGroup.generate([gen])


def metacyclic(m: int, p: int) -> FinGroup:
    """Z/p semidirect Z/m, the action faithful of order exactly m.

    Realized inside the affine group of the line over F_p: translations
    plus multiplication by an element of order m.  Requires m | p - 1.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if m < 1 or (p - 1) % m != 0:
        raise ValueError(f"m = {m} must divide p - 1 = {p - 1}")
    g = _primitive_root(p)
    a = pow(g, (p - 1) // m, p)
    trans = Perm(tuple((i + 1) % p for i in range(p)))
    mult = Perm(tuple(a * i % p for i in range(p)))
    grp = FinGroup.generate([trans, mult])
    if grp.order != m * p:
        raise AssertionError("metacyclic construction has wrong order")
    return grp


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        if mult_order(g, p) == p - 1:
            return g
    raise AssertionError(f"no primitive root modulo {p}")


def direct_product(a: FinGroup, b: FinGroup) -> FinGroup:
    """Direct product of two permutation groups, acting side by side."""
    if not isinstance(a.identity, Perm) or not isinstance(b.identity, Perm):
        raise TypeError("direct_product expects permutation groups")
    da, db = len(a.identity.img), len(b.identity.img)
    idb = tuple(range(da, da + db))
    ida = tuple(range(da))
    gens = [Perm(g.img + idb) for g in a.generators]
    gens += [Perm(ida + tuple(i + da for i in h.img)) for h in b.generators]
    els = [Perm(x.img + tuple(i + da for i in y.img))
           for x in a.elements for y in b.elements]
    return FinGroup(gens, els, Perm.identity(da + db))
