"""A small engine for concrete finite groups.

Every element is a MonomialMatrix (ggt.monomial), a permutation matrix
when its modulus is 1.  cyclic(n) is the 1x1 matrix diag(zeta_n), and
metacyclic(m, p) the m x m group over mu_p induced from a character of
Z/p (Serre, Linear Representations of Finite Groups, ch. 7).

FinGroup.generate closes the generators by the breadth-first walk of
ggt.walk (Seress, Permutation Group Algorithms, 2003, ch. 4) on base
images: an element is the tuple of its images of the base vectors e_j
among the points zeta^e e_j (monomial.point_action), so left
multiplication by g is one gather of g's point table through that tuple,
with no product.  An element's index is where the walk first reaches it,
so the identity is 0, and the walk's tables i -> index(g * x_i) are the
group's; the base images are dropped when the walk ends.
metacyclic(m, p) and the tame images of ggt.weilparams are built from
their presentation instead: the generators t, f are checked, on their
exponents, to present Z/p semidirect Z/m, and x_(a + p b) is the normal
form t^a f^b (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, ch. 8), so their tables are closed forms, with no walk,
no point orbit and no base image.

Every constructor hands the group its generators, their tables and a
spanning tree of its Cayley graph (Seress's Schreier tree), the edge
x_j = g x_i with i < j for each j > 0, held as a Schreier vector: two
flat tuples, one of the tables of the g (references, not copies) and
one of the parents i, with no object per edge.  The walk records the
edge that first reached x_j, and the normal form t^a f^b is
t (t^(a-1) f^b) or, for a = 0, f f^(b-1).  The tree is the one decoder:
x_0 = 1 and x_j = g x_i, made when first asked for, each x_j one call of
the product kernel of ggt.monomial.  The rest runs on
indices and multiplies no element: a subgroup is a frozenset of
indices, and a quotient's projection maps an index of G to an index of
G/N, so reporting a group decodes no element.  The spanning tree
gives, for any element s, the table i -> index(x_i s) in one pass:
x = g_a y gives x s = g_a (y s).  Conjugation by a generator g is the
table x g -> g x, so the conjugacy classes, normality tests and normal
closures are orbits of index tables, and the commutator subgroup is the
normal closure of the h^-1 (g h g^-1) for generators g and h.  A query
that reads only a few entries of a right table (the powers of one
element that is not a generator, one conjugate g y g^-1 = g (y g^-1)
per generator g) fills them on demand, each by walking its tree path up
to an entry already known, so it pays for what it reads and not for
|G|.
g (x N) = g x N, so pushing the normal subgroup N through the tables
labels the cosets in the order a search on G/N finds them: the labels
are the quotient's tables, the step that found each coset is its tree
edge, and its generators are the permutation matrices of their own
tables, its left regular action.  The powers of x are the cycle of the
identity under right multiplication by x, which gives element orders;
a generator's are read off its own table, x^(k+1) = x x^k.
In the abelian G/G', x -> x^p is a homomorphism, filled in along the
spanning tree, and the numbers of elements its iterates kill give the
invariant factors.  Subgroup closures run Dimino's algorithm (Butler,
Fundamental Algorithms for Permutation Groups, 1991) on indices: a seed
element s outside the group H generated so far adds whole right cosets,
and H r s is the coset H r pushed through the table of s.  Every
reported number is an invariant of the group, so none depends on how the
elements are numbered.

Closures are not repeated.  x and x^k with gcd(k, ord x) = 1 have the
same normal closure (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005, ch. 4), so normal_subgroups closes one conjugacy
class per rational class.  The quotient by {1} is G itself: the
ell-core criterion and the abelianization of an abelian group use G and
build no quotient.  A type (n, p) witness builds the cyclic group <y>
once, as the list of its powers, and finds one conjugate of y per
generator in it: <y> is normal exactly when every generator conjugates
y into <y>, and the positions of the same conjugates are the exponents,
so on a fresh tame image no whole table is built.  The intended scale
is a few tens of thousands of elements (the wild image at m = 13 has
53,248).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .errors import ResourceBoundExceeded
from .monomial import (MonomialMatrix, _make, _product, gatherer,
                       point_action)
from .numth import _order_dividing, factorize, is_prime
from .record import Record
from .walk import closure, orbits, walk

__all__ = [
    "FinGroup",
    "TypeNPWitness",
    "is_type_np",
    "is_type_npl",
    "metacyclic",
    "cyclic",
    "direct_product",
]

DEFAULT_CLOSURE_BOUND = 100_000


class FinGroup:
    """A finite group given by its Cayley tables, a spanning tree of its
    Cayley graph and its generators; the elements are decoded along the
    tree on first use."""

    def __init__(self, tables: tuple, tree: tuple,
                 generators: tuple) -> None:
        """tables holds for each g of generators, in order, the tuple
        i -> index(g x_i), x_0 the identity.  tree is the pair (via,
        parents) of flat tuples of length order - 1: for j = 1, ...,
        order - 1, x_j = g x_i with i = parents[j - 1] < j and via[j - 1]
        the table of g (one of tables, not a copy).  All of it is
        tuples."""
        self.tables, self._tree, self.generators = tables, tree, generators
        # cached results are tuples: a caller cannot change them
        self._conj: tuple[tuple[int, ...], ...] | None = None
        self._classes: tuple[frozenset[int], ...] | None = None
        self._normals: tuple[frozenset[int], ...] | None = None
        self._commutator: frozenset[int] | None = None
        self._type_np: dict[tuple[int, int], TypeNPWitness | None] = {}

    @classmethod
    def generate(cls, generators: Sequence,
                 bound: int | None = None) -> "FinGroup":
        """Breadth-first closure by left multiplication, one walk
        (ggt.walk) whose tables are the generators' and whose edges are
        the tree.  Errors past the bound, which must be positive; without
        one, past DEFAULT_CLOSURE_BOUND as it reads at the call.

        The walk runs on base images: monomial.point_action gives the
        identity's base images and each generator as a table of point
        images, so g * x is one gather of g's table through x and no
        element is multiplied.
        """
        if not generators:
            raise ValueError("need at least one generator")
        if bound is None:
            bound = DEFAULT_CLOSURE_BOUND
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        try:
            start, phis = point_action(generators, bound)
            # one gatherer per element serves every generator's table; the
            # base images are dropped before the tuples are made
            rows, via, parents = walk(
                [start], lambda x: map(gatherer(x), phis), bound)[1:]
        except ResourceBoundExceeded:
            raise ResourceBoundExceeded(
                f"group closure exceeded {bound} elements") from None
        tables = tuple(map(tuple, rows))
        return cls(tables, (tuple(map(tables.__getitem__, via)),
                            tuple(parents)), tuple(generators))

    @cached_property
    def elements(self) -> tuple:
        """The elements in index order, decoded along the spanning tree:
        x_0 = 1 and x_j = g x_i, i x_j's parent and g the generator of
        the table that reached it.  Each x_j is one call of monomial's
        product kernel, made directly, not through
        MonomialMatrix.__mul__, so a wrapper of __mul__ sees no decode."""
        gen = {id(t): x for t, x in zip(self.tables, self.generators)}
        els = [MonomialMatrix.identity(self.generators[0].dim)]
        append = els.append
        for t, i in zip(*self._tree):
            append(_product(gen[id(t)], els[i]))
        return tuple(els)

    @cached_property
    def index(self) -> Mapping:
        """{element: index}, read-only."""
        return MappingProxyType({x: i for i, x in enumerate(self.elements)})

    @property
    def identity(self):
        return self.elements[0]

    @property
    def order(self) -> int:
        return len(self.tables[0])

    def __contains__(self, x) -> bool:
        return x in self.index

    def __repr__(self) -> str:
        return f"FinGroup(order={self.order}, generators={len(self.tables)})"

    def _right(self, s: int) -> list[int]:
        """The table i -> index(x_i x_s), filled along the spanning tree:
        x = g y gives x x_s = g (y x_s)."""
        r = [s]
        append = r.append
        for t, i in zip(*self._tree):  # x_j = g x_i, j = 1, 2, ...
            append(t[r[i]])
        return r

    def _right_at(self, s: int) -> Callable[[int], int]:
        """A getter for i -> index(x_i x_s) that fills each entry on
        first use: it walks the spanning-tree path of x_i up to an entry
        already known, then back down, keeping every entry on the way."""
        r: list[int | None] = [None] * self.order
        r[0] = s
        via, parents = self._tree

        def at(i: int) -> int:
            x = r[i]
            if x is None:
                j = parents[i - 1]  # x_i = g x_j: x_i x_s = g (x_j x_s)
                x = r[j]
                if x is None:  # up the tree to a known entry, then down
                    path = []
                    while x is None:
                        path.append(j)
                        j = parents[j - 1]
                        x = r[j]
                    for k in reversed(path):
                        x = r[k] = via[k - 1][x]
                x = r[i] = via[i - 1][x]
            return x
        return at

    def _powers(self, i: int) -> list[int]:
        """[x, x^2, ..., x^ord(x) = 1] as indices, x = x_i: the cycle of
        the identity under right multiplication by x.  When x is a
        generator, x^(k+1) = x x^k is read off its own table."""
        own = next((t for t in self.tables if t[0] == i), None)
        at = self._right_at(i) if own is None else own.__getitem__
        out = [at(0)]  # x = 1 x
        while out[-1]:
            out.append(at(out[-1]))
        return out

    def element_order(self, x) -> int:
        return len(self._powers(self.index[x]))

    def _conj_tables(self) -> tuple[tuple[int, ...], ...]:
        """For each generator g, the table i -> index(g x_i g^-1)."""
        if self._conj is None:
            conj = []
            for t in self.tables:
                # g (x g) g^-1 = g x
                c = [0] * self.order
                for i, j in zip(self._right(t[0]), t):
                    c[i] = j
                conj.append(tuple(c))
            self._conj = tuple(conj)
        return self._conj

    def _conjugates(self, y: int) -> list[int]:
        """[index(g y g^-1) for each generator g], read as t[y g^-1], t
        g's table: g^-1 is the element just before the identity on the
        cycle of 0 under t, and y g^-1 one entry of its lazy right
        table, so no whole table is built."""
        out = []
        for t in self.tables:
            inv, j = 0, t[0]
            while j:
                inv, j = j, t[j]
            out.append(t[self._right_at(inv)(y)])
        return out

    def conjugacy_classes(self) -> tuple[frozenset[int], ...]:
        """The conjugacy classes as index sets, numbered by least index."""
        if self._classes is None:
            self._classes = tuple(map(frozenset, orbits(
                self._conj_tables(), self.order)))
        return self._classes

    def subgroup_closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the seed indices, by Dimino's algorithm.

        The seed is taken in index order, so few of its elements become
        generators."""
        member = [False] * self.order
        member[0] = True
        els, rights = [0], []
        for s in sorted(seed):
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
        return frozenset(els)

    def normal_closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Smallest normal subgroup containing the seed indices."""
        return self.subgroup_closure(closure(seed, self._conj_tables()))

    def normal_subgroups(self) -> tuple[frozenset[int], ...]:
        """Every normal subgroup, via joins of conjugacy class closures.

        One class is closed per rational class: x is the least-index
        element of a class not yet covered, and the classes of the
        generators x^k (gcd(k, ord x) = 1) of <x>, which have the same
        normal closure, are marked covered."""
        if self._normals is not None:
            return self._normals
        classes = self.conjugacy_classes()
        label = [0] * self.order
        for c, orbit in enumerate(classes):
            for i in orbit:
                label[i] = c
        covered = [False] * len(classes)
        found = {frozenset([0])}
        for c, orbit in enumerate(classes):
            if covered[c]:
                continue
            powers = self._powers(min(orbit))
            for k, y in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1:
                    covered[label[y]] = True
            found.add(self.subgroup_closure(orbit))
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
        self._normals = tuple(sorted(found,
                                     key=lambda n: (len(n), sorted(n))))
        return self._normals

    def is_normal(self, sub: Collection[int]) -> bool:
        return all(c[i] in sub for c in self._conj_tables() for i in sub)

    def index_core(self, d: int) -> frozenset[int]:
        """Intersection of all normal subgroups of index at most d."""
        if d < 1:
            raise ValueError("index bound must be positive")
        core = frozenset(range(self.order))
        for n in self.normal_subgroups():
            if self.order // len(n) <= d:
                core &= n
        return core

    def commutator_subgroup(self) -> frozenset[int]:
        """The normal closure N of the h^-1 (g h g^-1) over generators g
        and h: modulo N the generators commute, so N is G'."""
        if self._commutator is None:
            seeds = {t.index(c[t[0]])
                     for t in self.tables for c in self._conj_tables()}
            self._commutator = self.normal_closure(seeds)
        return self._commutator

    def quotient(self, sub: frozenset[int]) -> tuple["FinGroup", Callable]:
        """Quotient by a normal subgroup, and the projection map from an
        index of self to an index of the quotient.

        Pushing N through the generators' tables labels the cosets in the
        order a search on G/N finds them, so the labels of g x N are the
        quotient's tables, the step g x N that found a coset is its tree
        edge, and nothing is generated.  Its generators are the
        permutation matrices e_i -> e_t[i] of their tables t, so x_j is
        e_i -> e_index(x_j x_i), the left regular action.
        """
        if not self.is_normal(sub):
            raise ValueError("subgroup is not normal")
        label = [-1] * self.order  # -1 until the coset is found
        cosets, gens, parents = [list(sub)], [], []  # N is coset 0
        for i in cosets[0]:
            label[i] = 0
        for c, coset in enumerate(cosets):  # cosets grows in the loop
            for k, t in enumerate(self.tables):
                if label[t[coset[0]]] < 0:
                    image = [t[i] for i in coset]  # g x N, a whole coset
                    for i in image:
                        label[i] = len(cosets)
                    cosets.append(image)
                    gens.append(k)
                    parents.append(c)
        if len(cosets) * len(sub) != self.order:
            raise AssertionError("quotient order mismatch")
        tables = tuple(tuple(label[t[c[0]]] for c in cosets)
                       for t in self.tables)
        q = FinGroup(tables, (tuple(map(tables.__getitem__, gens)),
                              tuple(parents)),
                     tuple(map(MonomialMatrix.permutation, tables)))
        return q, label.__getitem__

    def _power_table(self, e: int) -> list[int]:
        """i -> index(x_i^e) in an abelian group, filled along the
        spanning tree: x_j = g x_i gives x_j^e = g^e x_i^e."""
        times = {}  # id of g's table -> the table of x -> g^e x = x g^e
        for t in self.tables:
            y = 0
            for _ in range(e):
                y = t[y]
            times[id(t)] = self._right(y)
        via, parents = self._tree
        out = [0]
        for r, i in zip(map(times.__getitem__, map(id, via)), parents):
            out.append(r[out[i]])  # x_j = g x_i, j = 1, 2, ...
        return out

    def abelianization(self) -> list[int]:
        """Invariant factors d1 | d2 | ... of G made abelian.

        In A = G/G', x -> x^p is a homomorphism, and #{x : x^(p^k) = 1}
        is p^(r_1 + ... + r_k), where r_k counts the invariant factors
        that p^k divides."""
        comm = self.commutator_subgroup()
        a = self if len(comm) == 1 else self.quotient(comm)[0]
        factors: list[int] = []  # the largest first
        for p, top in factorize(a.order).items():
            step, x = a._power_table(p), list(range(a.order))
            killed, ranks = 1, []
            while killed < p ** top:
                x = [step[i] for i in x]
                now, r = x.count(0), 0
                while killed * p ** r < now:
                    r += 1
                if r == 0 or killed * p ** r != now:
                    raise AssertionError("power counts of no abelian group")
                killed = now
                ranks.append(r)
            factors += [1] * (ranks[0] - len(factors))
            for i in range(ranks[0]):
                factors[i] *= p ** sum(r > i for r in ranks)
        return factors[::-1]

    def ell_core(self, ell: int) -> frozenset[int]:
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


class TypeNPWitness(Record):
    """A normal subgroup of order p on which conjugation acts with order n."""

    p: int
    image_order: int
    exponents: tuple[int, ...]

    def __init__(self, p: int, image_order: int,
                 exponents: tuple[int, ...]) -> None:
        vars(self).update(p=p, image_order=image_order, exponents=exponents)


def _element_of_order_p(g: FinGroup, p: int) -> list[int] | None:
    """The powers [y, y^2, ..., y^p = 1], as indices, of y = x^(ord x / p)
    for the first x, in index order, whose order p divides; y^k is
    x^(k ord x / p), read off the powers of x.  The search starts past
    the identity, whose order 1 no prime divides."""
    for i in range(1, g.order):
        powers = g._powers(i)
        if len(powers) % p == 0:
            step = len(powers) // p
            return powers[step - 1::step]
    return None


def is_type_np(g: FinGroup, n: int, p: int) -> TypeNPWitness | None:
    """Witness that g has a normal Z/p with conjugation image of order n.

    The conjugation image (inner automorphisms restricted to the normal
    subgroup) sits inside the cyclic group (Z/p)*, and the criterion asks
    for its order to be exactly n.  Requires n >= 2.  The answer is
    cached on g per (n, p).

    Each candidate <y> is tested on one conjugate g y g^-1 per generator
    g, lazy right-table entries (FinGroup._conjugates): they give the
    exponents k with g y g^-1 = y^k, and when p^2 does not divide |G|
    they are also the normality test of the one candidate.
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
        # the exponents k with gen y gen^-1 = y^k, y = powers[0]
        exps = _exponents(powers, g._conjugates(powers[0]))
        if exps is None:  # some generator moves y out of <y>: not normal
            continue
        # (Z/p)* is cyclic: the units generate a subgroup of order the lcm
        # of their orders (is_type_np has checked that p is prime)
        image = lcm(*(_order_dividing(a, p, p - 1) for a in exps))
        if image == n:
            return TypeNPWitness(p=p, image_order=image, exponents=tuple(exps))
    return None


def _order_p_normal_subgroups(g: FinGroup, p: int) -> list[list[int]]:
    """The candidate normal subgroups of order p, as the powers
    [y, y^2, ..., y^p = 1] of a generator y of each.

    When p^2 does not divide |G| the one candidate <y> is returned
    without a normality test: <y> is normal exactly when every generator
    conjugates y into <y>, which _find_type_np reads off the same
    conjugates it needs for the exponents (no exponents means not
    normal), so the test runs once, on one conjugate per generator."""
    t = g.order
    pp = 1
    while t % p == 0:
        t //= p
        pp *= p
    if pp == p:
        # Order-p subgroups are Sylow, hence all conjugate: a normal one
        # must be the unique one, so a single probe settles it.
        ys = _element_of_order_p(g, p)
        return [] if ys is None else [ys]
    return [g._powers(min(nsub - {0}))
            for nsub in g.normal_subgroups() if len(nsub) == p]


def _exponents(powers: list[int], xs: list[int]) -> list[int] | None:
    """The k with x = y^k for each x of xs, read off the powers
    [y, y^2, ..., y^p = 1]; None when some x lies outside <y>."""
    try:
        return [powers.index(x) + 1 for x in xs]
    except ValueError:
        return None


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
    """Z/n as the 1x1 matrix diag(zeta_n)."""
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    return FinGroup.generate([_make((0,), (1 % n,), n)])


def _split_metacyclic(t: MonomialMatrix, f: MonomialMatrix) -> FinGroup:
    """<t, f> as Z/p semidirect Z/m, numbered by the normal form: x_k is
    t^a f^b for k = a + p*b.  Errors unless t and f present such a
    group, or past DEFAULT_CLOSURE_BOUND elements.

    The proof reads only (perm, exps, n) and multiplies no element.  t is
    diagonal of prime modulus p, so it has order p.  Conjugating a
    diagonal matrix by a monomial one permutes its diagonal: f t f^-1
    has entry exps[j] of t at perm[j], f's permutation, so f t f^-1 =
    t^alpha is a check on exponents, and <t> is normal.  On a cycle c of
    perm, f^|c| is the product of c's entries times the identity, so
    with L the order of perm, f^L = 1 when each such product raised to
    L / |c| is 1; and f^b moves a coordinate for 0 < b < L, so it is not
    diagonal and not in <t>.  Hence <t> n <f> = 1, f has order m = L,
    and G = <t><f> has the p*m elements t^a f^b.

    The tables are closed forms on the keys a + p*b: t (t^a f^b) =
    t^(a+1) f^b and f (t^a f^b) = t^(alpha a) f^(b+1), exponents mod p
    and m.  The tree edge to t^a f^b is t from t^(a-1) f^b when a > 0,
    else f from f^(b-1).  All of it is sliced from one list of the keys,
    so the tables and the tree share one int per key: t's table is the
    keys shifted by one with each block p b, ..., p b + p - 1 closed
    into a cycle, f's is each next block read at alpha a mod p, the
    parents are the keys shifted by one with p (b - 1) at the key p b,
    and the edge tables are t's but f's at those keys.  The numbering
    differs from generate's, but the Cayley graph is the same, so every
    reported number, a group invariant, is too; the key a + p*b decodes
    to t^a f^b.
    """
    tperm, texps, p = t
    fperm, fexps, fn = f
    if len(tperm) != len(fperm):
        raise ValueError("dimension mismatch")
    if any(i != j for j, i in enumerate(tperm)) or not is_prime(p):
        raise ValueError("t is not diagonal of prime modulus")
    nz = next(j for j, e in enumerate(texps) if e)  # p > 1, so t != 1
    alpha = texps[fperm.index(nz)] * pow(texps[nz], -1, p) % p
    if any(texps[j] != alpha * texps[i] % p for j, i in enumerate(fperm)):
        raise ValueError("f t f^-1 is not a power of t")
    cycles, seen = [], [False] * len(fperm)  # (length, exponent sum)
    for j in range(len(fperm)):
        length = total = 0
        while not seen[j]:
            seen[j] = True
            length, total, j = length + 1, total + fexps[j], fperm[j]
        if length:
            cycles.append((length, total))
    m = lcm(*(length for length, _ in cycles))
    if any(total * (m // length) % fn for length, total in cycles):
        raise ValueError("f^m is not 1, m the order of f's permutation")
    if p * m > DEFAULT_CLOSURE_BOUND:
        raise ResourceBoundExceeded(
            f"group closure exceeded {DEFAULT_CLOSURE_BOUND} elements")
    # x_(a + p b) = t^a f^b: t x = t^(a+1) f^b, f x = t^(alpha a) f^(b+1).
    # Block b holds the keys p b, ..., p b + p - 1; everything below is
    # sliced from ks, so it shares the ints of ks
    n = p * m
    ks = list(range(n))
    ttab = ks[1:] + ks[:1]
    ttab[p - 1::p] = ks[::p]  # t^(p-1) f^b -> f^b
    scale = itemgetter(*(alpha * a % p for a in range(p)))
    nxt, ftab = ks[p:] + ks[:p], []  # block b + 1 at block b
    for base in range(0, n, p):
        ftab += scale(nxt[base:base + p])
    ttab, ftab = tuple(ttab), tuple(ftab)  # the tree's edges point at these
    parents, via = ks[:-1], [ttab] * (n - 1)
    parents[p - 1::p] = ks[:n - p:p]  # f^b from f^(b-1)
    via[p - 1::p] = [ftab] * (m - 1)
    return FinGroup((ttab, ftab), (tuple(via), tuple(parents)), (t, f))


def metacyclic(m: int, p: int) -> FinGroup:
    """Z/p semidirect Z/m, the action faithful of order exactly m.

    Induced from a faithful character of Z/p: the translation is
    diag(zeta_p^(a^i)), a of order m mod p, and the m-cycle e_i -> e_(i-1)
    conjugates it to its a-th power, as x -> a x does x -> x + 1 on F_p.
    Requires m | p - 1.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if m < 1 or (p - 1) % m != 0:
        raise ValueError(f"m = {m} must divide p - 1 = {p - 1}")
    root = next(g for g in range(1, p)
                if _order_dividing(g, p, p - 1) == p - 1)
    a = pow(root, (p - 1) // m, p)
    trans = _make(tuple(range(m)), tuple(pow(a, i, p) for i in range(m)), p)
    mult = _make(tuple((i - 1) % m for i in range(m)), (0,) * m, 1)
    grp = _split_metacyclic(trans, mult)
    if grp.order != m * p:
        raise AssertionError("metacyclic construction has wrong order")
    return grp


def direct_product(a: FinGroup, b: FinGroup) -> FinGroup:
    """Direct product of any two groups, as block-diagonal matrices."""
    da, db = a.generators[0].dim, b.generators[0].dim
    gens = [_make(g.perm + tuple(range(da, da + db)), g.exps + (0,) * db,
                  g.n) for g in a.generators]
    gens += [_make(tuple(range(da)) + tuple(da + j for j in h.perm),
                   (0,) * da + h.exps, h.n) for h in b.generators]
    return FinGroup.generate(gens, bound=a.order * b.order)
