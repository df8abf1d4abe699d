"""A small engine for concrete finite groups.

Elements are immutable objects with *, .inverse(), equality, hashing and a
total sort_key().  Permutations live here as image tuples, monomial
matrices in ggt.monomial as a permutation plus integer exponents; both
multiply by one itemgetter gather.  Groups are materialized element
lists, sorted once by sort_key when the FinGroup is made, so everything
downstream (normal subgroups, quotients, abelianizations) is plain set
combinatorics; the conjugacy classes, normal subgroups and commutator
subgroup are computed once per group.  The intended scale is a few tens
of thousands of elements (the wild image at m = 13 has 53,248), guarded
by an explicit closure bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import ResourceBoundExceeded
from .numth import is_prime

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
        return Perm(gatherer(other.img)(self.img))

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
    """All products of the generators (BFS), unsorted.  Errors past the
    bound."""
    if not generators:
        raise ValueError("need at least one generator")
    e = generators[0] * generators[0].inverse()
    seen = {e}
    frontier = [e]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = x * g
                if y not in seen:
                    if len(seen) >= bound:
                        raise ResourceBoundExceeded(
                            f"group closure exceeded {bound} elements")
                    seen.add(y)
                    new.append(y)
        frontier = new
    return list(seen)


class FinGroup:
    """A finite group given by its full element list."""

    def __init__(self, generators: Sequence, elements: Iterable,
                 identity) -> None:
        self.generators = list(generators)
        self.elements = sorted(elements, key=lambda z: z.sort_key())
        self.identity = identity
        self.index = {x: i for i, x in enumerate(self.elements)}
        self._classes: list[frozenset] | None = None
        self._normals: list[frozenset] | None = None
        self._commutator: frozenset | None = None

    @classmethod
    def generate(cls, generators: Sequence,
                 bound: int = DEFAULT_CLOSURE_BOUND) -> "FinGroup":
        els = closure(generators, bound)
        e = generators[0] * generators[0].inverse()
        return cls(generators, els, e)

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

    def conjugacy_classes(self) -> list[frozenset]:
        if self._classes is None:
            gens = self.generators
            gen_invs = [g.inverse() for g in gens]
            unseen = set(self.elements)
            classes = []
            for x0 in self.elements:
                if x0 not in unseen:
                    continue
                orbit = {x0}
                stack = [x0]
                while stack:
                    x = stack.pop()
                    for g, gi in zip(gens, gen_invs):
                        y = gi * x * g
                        if y not in orbit:
                            orbit.add(y)
                            stack.append(y)
                unseen -= orbit
                classes.append(frozenset(orbit))
            self._classes = classes
        return self._classes

    def subgroup_closure(self, seed: Iterable) -> frozenset:
        """Subgroup generated by the seed elements (all must lie in self)."""
        gens = [x for x in seed if x != self.identity]
        sub = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = x * g
                    if y not in sub:
                        sub.add(y)
                        new.append(y)
            frontier = new
        return frozenset(sub)

    def _closure_containing(self, target: frozenset) -> frozenset:
        # Grow a small generating set until the closure swallows the target.
        gens = []
        sub = frozenset([self.identity])
        for x in sorted(target, key=lambda z: z.sort_key()):
            if x not in sub:
                gens.append(x)
                sub = self.subgroup_closure(gens)
        return sub

    def normal_closure(self, seed: Iterable) -> frozenset:
        """Smallest normal subgroup containing the seed."""
        gens = self.generators
        gen_invs = [g.inverse() for g in gens]
        conj = set()
        stack = list(seed)
        while stack:
            x = stack.pop()
            if x in conj:
                continue
            conj.add(x)
            for g, gi in zip(gens, gen_invs):
                stack.append(gi * x * g)
        return self._closure_containing(frozenset(conj))

    def normal_subgroups(self) -> list[frozenset]:
        """Every normal subgroup, via joins of conjugacy class closures."""
        if self._normals is not None:
            return self._normals
        one = frozenset([self.identity])
        found = {one}
        atoms = []
        for c in self.conjugacy_classes():
            n = self._closure_containing(frozenset(c))
            if n not in found:
                found.add(n)
                atoms.append(n)
        # Close the set under joins; every normal subgroup is a join of
        # class closures, so this reaches all of them.
        work = list(found)
        while work:
            a = work.pop()
            for b in list(found):
                if a <= b or b <= a:
                    continue
                j = self._closure_containing(a | b)
                if j not in found:
                    found.add(j)
                    work.append(j)
        self._normals = sorted(
            found, key=lambda n: (len(n), sorted(self.index[x] for x in n)))
        return self._normals

    def is_normal(self, sub: frozenset) -> bool:
        for g in self.generators:
            gi = g.inverse()
            if any(gi * x * g not in sub for x in sub):
                return False
        return True

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
        coset_of: dict = {}
        reps: list = []
        for x in self.elements:
            if x in coset_of:
                continue
            cid = len(reps)
            reps.append(x)
            for n in sub:
                coset_of[x * n] = cid
        k = len(reps)

        def project(g) -> Perm:
            return Perm(tuple(coset_of[g * reps[c]] for c in range(k)))

        gen_perms = [project(g) for g in self.generators]
        els = {project(x) for x in reps} if k <= 64 else None
        if els is None:
            q = FinGroup.generate(gen_perms, bound=max(2 * k, 16))
        else:
            q = FinGroup(gen_perms, els, Perm.identity(k))
        if q.order != self.order // len(sub):
            raise AssertionError("quotient order mismatch")
        return q, project

    def abelianization(self) -> list[int]:
        """Invariant factors d1 | d2 | ... of G made abelian."""
        q, _ = self.quotient(self.commutator_subgroup())
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
    for its order to be exactly n.  Requires n >= 2.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not is_prime(p):
        raise ValueError("p must be prime")
    if g.order % p != 0:
        return None
    deltas = _order_p_normal_subgroups(g, p)
    for y in deltas:
        powers = {}
        z = y
        for k in range(1, p):
            powers[z] = k
            z = z * y
        exps = []
        ok = True
        for gen in g.generators:
            c = gen * y * gen.inverse()
            if c not in powers:
                ok = False
                break
            exps.append(powers[c])
        if not ok:
            continue
        image = _unit_subgroup_order(exps, p)
        if image == n:
            return TypeNPWitness(p=p, image_order=image, exponents=tuple(exps))
    return None


def _order_p_normal_subgroups(g: FinGroup, p: int) -> list:
    """Generators of the normal subgroups of order p, one per subgroup."""
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
        sub = g.subgroup_closure([y])
        return [y] if g.is_normal(sub) else []
    out = []
    for nsub in g.normal_subgroups():
        if len(nsub) == p:
            y = next(x for x in sorted(nsub, key=lambda z: z.sort_key())
                     if x != g.identity)
            out.append(y)
    return out


def _unit_subgroup_order(exps: Sequence[int], p: int) -> int:
    seen = {1}
    frontier = [1]
    while frontier:
        new = []
        for u in frontier:
            for a in exps:
                v = u * a % p
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        frontier = new
    return len(seen)


def is_type_npl(g: FinGroup, n: int, p: int, ell: int) -> bool:
    """True iff some quotient by a normal ell-subgroup has a type (n, p)
    witness.  Checked against the ell-core quotient, which must agree."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if ell == p:
        raise ValueError("p and ell must be distinct")
    ell_subs = [s for s in g.normal_subgroups()
                if _is_prime_power(len(s), ell)]
    answers = []
    for s in ell_subs:
        q, _ = g.quotient(s)
        answers.append(is_type_np(q, n, p) is not None)
    core = g.ell_core(ell)
    core_q, _ = g.quotient(core)
    core_answer = is_type_np(core_q, n, p) is not None
    if any(answers) != core_answer:
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
    from .numth import mult_order
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
