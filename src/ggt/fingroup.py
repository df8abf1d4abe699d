"""A small engine for concrete finite groups.

Elements are immutable objects with *, .inverse(), equality, hashing and
a point_action hook.  Permutations live here as image tuples, monomial
matrices in ggt.monomial as a permutation plus integer exponents; both
multiply by one itemgetter gather.

FinGroup.generate closes the generators by a breadth-first search on
base images (Seress, Permutation Group Algorithms, 2003, ch. 4).  The
element type's point_action hook lets the group act on a finite set of
points: every point of a permutation, the vectors zeta^e e_j of a
monomial matrix.  An element is the tuple of its images of a base,
points whose images determine it, so left multiplication by g is one
gather of g's point table through that tuple, with no product.  An
element's index is the position where the search first finds it, so
the identity is 0, and for each generator g the group keeps the table
i -> index(g * x_i).  Elements are decoded from their base images only
when first asked for.  Every group is made this way.

The rest runs on indices and multiplies no element.  The search's
spanning tree of the Cayley graph gives, for any element s, the table
i -> index(x_i s) in one pass: x = g_a y gives x s = g_a (y s).
Conjugation by a generator g is the table x g -> g x, so the conjugacy
classes, normality tests and normal closures are orbits of index
tables, and the commutator subgroup is the normal closure of the
h^-1 (g h g^-1) for generators g and h.  g (x N) = g x N, so pushing the
normal subgroup N through the tables labels every coset of a quotient.
The powers of x are the cycle of the identity under right
multiplication by x, which gives element orders.  Subgroup closures run
Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
Groups, 1991) on indices: a seed element s outside the group H generated
so far adds whole right cosets, and H r s is the coset H r pushed
through the table of s.  Every reported number is an invariant of the
group, so none depends on how the elements are numbered.

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
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence

from .errors import ResourceBoundExceeded
from .numth import is_prime, mult_order

__all__ = [
    "Perm",
    "FinGroup",
    "TypeNPWitness",
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

    def __repr__(self) -> str:
        return f"Perm{self.img}"


class FinGroup:
    """A finite group given by its Cayley tables, numbered in search
    order; the elements are decoded on first use."""

    def __init__(self, generators: Sequence, tables: Sequence,
                 images: list, decode: Callable) -> None:
        """tables holds for each generator g the list i -> index(g x_i),
        where x_i = decode(images[i]) and x_0 is the identity."""
        self.generators = list(generators)
        self.tables = list(tables)
        self._images, self._decode = images, decode
        self._tree: list[tuple[list[int], int]] | None = None
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
        generator's table.  Errors past the bound, which must be
        positive.

        The search runs on base images: the element type's point_action
        hook gives the identity's base images, each generator as a
        table of point images and the map back to elements, so g * x is
        one gather of g's table through x and no element is multiplied.
        """
        if not generators:
            raise ValueError("need at least one generator")
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
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
        return cls(generators, tables, imgs, decode)

    @cached_property
    def elements(self) -> list:
        """The elements in index order."""
        els = list(map(self._decode, self._images))
        self._images = None  # the base images are not needed again
        return els

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    @property
    def identity(self):
        return self.elements[0]

    @property
    def order(self) -> int:
        return len(self.tables[0])

    def __contains__(self, x) -> bool:
        return x in self.index

    def _right(self, s: int) -> list[int]:
        """The table i -> index(x_i x_s), filled along the spanning tree
        of generate's search: x = g y gives x x_s = g (y x_s)."""
        if self._tree is None:
            # replay generate's search, which numbered each element as it
            # found it: x_j = g x_i, t the table of g, at the first step
            # with t[i] = j; the queue holds the tables' own ints
            self._tree, queue = [], [0]
            for i in queue:  # queue grows while the loop runs
                for t in self.tables:
                    if t[i] == len(queue):
                        queue.append(t[i])
                        self._tree.append((t, i))
        r = [s] * self.order
        for j, (t, i) in enumerate(self._tree, 1):
            r[j] = t[r[i]]
        return r

    def _powers(self, i: int) -> list[int]:
        """[x, x^2, ..., x^ord(x) = 1] as indices, x = x_i: the cycle of
        the identity under right multiplication by x."""
        r, out = self._right(i), [i]
        while out[-1]:
            out.append(r[out[-1]])
        return out

    def element_order(self, x) -> int:
        return len(self._powers(self.index[x]))

    def _conj_tables(self) -> list[list[int]]:
        """For each generator g, the table i -> index(g x_i g^-1)."""
        if self._conj is None:
            self._conj = []
            for t in self.tables:
                # g (x g) g^-1 = g x
                c = [0] * self.order
                for i, j in zip(self._right(t[0]), t):
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
        """Subgroup generated by the seed elements (all must lie in self),
        by Dimino's algorithm on indices.

        The seed is taken in index order, so few of its elements become
        generators."""
        member = [False] * self.order
        member[0] = True
        els, rights = [0], []
        for s in sorted({self.index[x] for x in seed}):
            if member[s]:
                continue
            rights.append(self._right(s))
            # right cosets H r of H = <the seed so far>, H itself first,
            # until every coset times every seed generator lands inside;
            # H r s is the coset H r pushed through the table of s
            cosets = [els[:]]
            for c in cosets:  # cosets grows while the loop runs
                for r in rights:
                    if not member[r[c[0]]]:
                        coset = [r[i] for i in c]
                        for i in coset:
                            member[i] = True
                        els.extend(coset)
                        cosets.append(coset)
        return frozenset(self.elements[i] for i in els)

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
            powers = self._powers(min(orbit))
            for k, y in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1:
                    covered[label[y]] = True
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
        return self._is_normal({self.index[x] for x in sub})

    def _is_normal(self, idx: Collection[int]) -> bool:
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
        """The normal closure N of the h^-1 (g h g^-1) over generators g
        and h: modulo N the generators commute, so N is G'."""
        if self._commutator is None:
            seeds = {t.index(c[t[0]])
                     for t in self.tables for c in self._conj_tables()}
            self._commutator = self.normal_closure(
                self.elements[i] for i in seeds)
        return self._commutator

    def quotient(self, sub: frozenset) -> tuple["FinGroup", Callable]:
        """Quotient by a normal subgroup, as permutations of the cosets.

        Returns the quotient group and the projection map element -> Perm.
        """
        if not self.is_normal(sub):
            raise ValueError("subgroup is not normal")
        tables = self.tables
        label = [-1] * self.order  # -1 until the coset is found
        cosets = [[self.index[x] for x in sub]]  # N is coset 0
        for i in cosets[0]:
            label[i] = 0
        for coset in cosets:  # cosets grows while the loop runs
            for t in tables:
                if label[t[coset[0]]] < 0:
                    image = [t[i] for i in coset]  # g x N, a whole coset
                    for i in image:
                        label[i] = len(cosets)
                    cosets.append(image)
        gen_perms = [Perm(tuple(label[t[c[0]]] for c in cosets))
                     for t in tables]
        q = FinGroup.generate(gen_perms, bound=max(2 * len(cosets), 16))
        if q.order != self.order // len(sub):
            raise AssertionError("quotient order mismatch")
        # G/N acts regularly on the cosets, so an element of q is fixed by
        # where it sends N
        by_image = {x.img[0]: x for x in q.elements}

        def project(g) -> Perm:
            return by_image[label[self.index[g]]]

        return q, project

    def abelianization(self) -> list[int]:
        """Invariant factors d1 | d2 | ... of G made abelian."""
        comm = self.commutator_subgroup()
        q = self if len(comm) == 1 else self.quotient(comm)[0]
        factors = []
        while q.order > 1:
            # the last element of largest order, in index order
            orders = [len(q._powers(i)) for i in range(q.order)]
            i = max(range(q.order), key=lambda j: (orders[j], j))
            factors.append(orders[i])
            q, _ = q.quotient(q.subgroup_closure([q.elements[i]]))
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


def _element_of_order_p(g: FinGroup, p: int) -> int | None:
    """The index of x^(ord x / p) for the first x, in index order, whose
    order p divides."""
    for i in range(g.order):
        powers = g._powers(i)
        if len(powers) % p == 0:
            return powers[len(powers) // p - 1]
    return None


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
        # the exponents k with gen y gen^-1 = y^k, y the generator
        y = next(iter(powers))
        exps = [powers.get(c[y]) for c in g._conj_tables()]
        if None in exps:
            continue
        # (Z/p)* is cyclic: the units generate a subgroup of order the lcm
        # of their orders
        image = lcm(*(mult_order(a, p) for a in exps))
        if image == n:
            return TypeNPWitness(p=p, image_order=image, exponents=tuple(exps))
    return None


def _order_p_normal_subgroups(g: FinGroup, p: int) -> list[dict]:
    """The normal subgroups of order p, one power map {index(y^k): k}
    (k = 1..p, the generator y first) per subgroup."""
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
        powers = _power_map(g, y)
        return [powers] if g._is_normal(powers) else []
    out = []
    for nsub in g.normal_subgroups():
        if len(nsub) == p:
            y = min(g.index[x] for x in nsub if x != g.identity)
            out.append(_power_map(g, y))
    return out


def _power_map(g: FinGroup, y: int) -> dict[int, int]:
    return {z: k for k, z in enumerate(g._powers(y), 1)}


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
    if not all(isinstance(x.generators[0], Perm) for x in (a, b)):
        raise TypeError("direct_product expects permutation groups")
    da, db = len(a.generators[0].img), len(b.generators[0].img)
    idb = tuple(range(da, da + db))
    ida = tuple(range(da))
    gens = [Perm(g.img + idb) for g in a.generators]
    gens += [Perm(ida + tuple(i + da for i in h.img)) for h in b.generators]
    return FinGroup.generate(gens, bound=a.order * b.order)
