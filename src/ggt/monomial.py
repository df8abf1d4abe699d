"""Monomial matrices over roots of unity.

A monomial matrix has one nonzero entry per row and column, and entry
(perm[j], j) is a root of unity.  Over mu_N such matrices form the wreath
product mu_N wr S_dim, so a matrix is stored as plain integers: the
column permutation perm, an exponent vector exps and a modulus n, entry j
being exp(2*pi*i * exps[j]/n).  The modulus is canonical, the lcm of the
entry orders (n = 1 for a permutation matrix), so equal matrices have
equal (perm, exps, n) and equality, hashing and ordering are those of
that tuple.  RootOfUnity objects appear only at the boundary: the
constructor, .diag, det() and the JSON form.

Products, inverses, determinants and bilinear-form checks are all exact.
A symmetric form is described by a pairing involution iota, the form
sum_j x_j * x_{iota(j)}; the antidiagonal iota(j) = dim-1-j is the
default.

point_action is the action on the points zeta^e e_j that
FinGroup.generate closes; no matrix is read back from points.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import add, itemgetter, mod, mul
from typing import Callable, Iterable, Sequence

from .roots import ONE, RootOfUnity
from .walk import walk

__all__ = ["MonomialMatrix", "antidiagonal_pairing"]


def gatherer(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map seq -> tuple(seq[i] for i in idx), one itemgetter if it can."""
    if len(idx) == 1:
        # itemgetter with one index returns a bare item, not a tuple
        i, = idx
        return lambda seq: (seq[i],)
    return itemgetter(*idx) if idx else lambda seq: ()


def antidiagonal_pairing(dim: int) -> tuple[int, ...]:
    return tuple(dim - 1 - j for j in range(dim))


def _make(perm: tuple[int, ...], exps: tuple[int, ...],
          n: int) -> "MonomialMatrix":
    # reduce n to the lcm of the entry orders, n / gcd(n, *exps)
    g = gcd(n, *exps)
    if g > 1:
        n //= g
        exps = tuple(e // g for e in exps)
    return tuple.__new__(MonomialMatrix, (perm, exps, n))


def _lifted(m: "MonomialMatrix", n: int) -> tuple[int, ...]:
    # m's exponents over mu_n, n a multiple of m.n
    _, exps, k = m
    return exps if k == n else tuple(map(mul, exps, repeat(n // k)))


def _times(p1: tuple[int, ...], e1: tuple[int, ...], p2: tuple[int, ...],
           e2: tuple[int, ...], n: int) -> tuple[tuple, tuple]:
    # (A B)'s permutation and exponents over mu_n, A = (p1, e1) and
    # B = (p2, e2) both over mu_n: (A B) e_k = B_k A_{p2[k]} e_{p1[p2[k]]},
    # so A is gathered along p2; over mu_1 every exponent is 0
    g = gatherer(p2)
    if n == 1:
        return g(p1), e2
    return g(p1), tuple(map(mod, map(add, g(e1), e2), repeat(n)))


def tree_products(gens: Sequence["MonomialMatrix"],
                  edges: Iterable[tuple[int, int]]) -> tuple:
    """x_0 = 1 and x_j = gens[k] x_i for the j-th edge (k, i), i < j.

    Each generator is lifted once to N, the lcm of their moduli, and
    each x_i's exponents are kept over mu_N while the products run, so
    an edge is one _times and one _make, with no per-product lift."""
    n = lcm(*(g.n for g in gens))
    lifted = [(g.perm, _lifted(g, n)) for g in gens]
    dim = gens[0].dim
    els, raw = [MonomialMatrix.identity(dim)], [(0,) * dim]
    for k, i in edges:
        perm, exps = _times(*lifted[k], els[i][0], raw[i], n)
        raw.append(exps)
        els.append(_make(perm, exps, n))
    return tuple(els)


class MonomialMatrix(tuple):
    """The tuple (perm, exps, n); build one from (perm, diag)."""

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...],
                diag: tuple[RootOfUnity, ...]) -> "MonomialMatrix":
        perm, diag = tuple(perm), tuple(diag)
        if len(perm) != len(diag):
            raise ValueError("permutation and diagonal sizes differ")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        n = lcm(*(r.den for r in diag))
        return tuple.__new__(cls, (perm, tuple(r.num * (n // r.den)
                                               for r in diag), n))

    def __getnewargs__(self):
        return self.perm, self.diag

    # a matrix, not a sequence: no len(), + or repetition by an integer
    def __len__(self):
        raise TypeError("a MonomialMatrix has no len(); use .dim")

    def __bool__(self) -> bool:  # else truth testing would call __len__
        return True

    def __add__(self, other):
        return NotImplemented

    def __rmul__(self, other):
        return NotImplemented

    @property
    def perm(self) -> tuple[int, ...]:
        return self[0]

    @property
    def exps(self) -> tuple[int, ...]:
        return self[1]

    @property
    def n(self) -> int:
        return self[2]

    @property
    def diag(self) -> tuple[RootOfUnity, ...]:
        _, exps, n = self
        return tuple(RootOfUnity(e, n) for e in exps)

    @property
    def dim(self) -> int:
        return len(self[0])

    @classmethod
    def identity(cls, dim: int) -> "MonomialMatrix":
        return cls(tuple(range(dim)), (ONE,) * dim)

    @classmethod
    def diagonal(cls, entries: tuple[RootOfUnity, ...]) -> "MonomialMatrix":
        return cls(tuple(range(len(entries))), tuple(entries))

    @classmethod
    def permutation(cls, perm: tuple[int, ...]) -> "MonomialMatrix":
        return cls(perm, (ONE,) * len(perm))

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        # (A B) e_k = B_k A_{p2[k]} e_{p1[p2[k]]}: gather A along p2
        p1, e1, n1 = self
        p2, e2, n2 = other
        if len(p1) != len(p2):
            raise ValueError("dimension mismatch")
        n = n1
        if n1 != n2:
            n = lcm(n1, n2)
            e1, e2 = _lifted(self, n), _lifted(other, n)
        return _make(*_times(p1, e1, p2, e2, n), n)

    def inverse(self) -> "MonomialMatrix":
        perm, exps, n = self
        pinv = [0] * len(perm)
        for j, i in enumerate(perm):
            pinv[i] = j
        return tuple.__new__(MonomialMatrix, (
            tuple(pinv), tuple(-exps[j] % n for j in pinv), n))

    def det(self) -> RootOfUnity:
        _, exps, n = self
        d = RootOfUnity(sum(exps), n)
        if _perm_sign(self[0]) < 0:
            d = d * RootOfUnity(1, 2)
        return d

    def preserves_form(self, pairing: tuple[int, ...] | None = None) -> bool:
        """Whether M^T J M = J for the symmetric form given by the pairing."""
        perm, exps, n = self
        iota = pairing if pairing is not None else antidiagonal_pairing(
            len(perm))
        if any(iota[iota[j]] != j for j in range(len(perm))):
            raise ValueError("pairing must be an involution")
        for j in range(len(perm)):
            if perm[iota[j]] != iota[perm[j]]:
                return False
            if (exps[j] + exps[iota[j]]) % n:
                return False
        return True

    def trace_int(self) -> int:
        """Trace, when every fixed-point entry is +-1."""
        perm, exps, n = self
        t = 0
        for j, i in enumerate(perm):
            if i == j:
                e = exps[j]
                if e == 0:
                    t += 1
                elif 2 * e == n:
                    t -= 1
                else:
                    raise ValueError(f"{RootOfUnity(e, n)} is not rational")
        return t

    @property
    def is_identity(self) -> bool:
        return self[2] == 1 and all(i == j for j, i in enumerate(self[0]))

    def to_json(self) -> dict:
        return {"perm": list(self.perm),
                "diag": [str(x) for x in self.diag]}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialMatrix":
        return cls(tuple(data["perm"]),
                   tuple(RootOfUnity.parse(s) for s in data["diag"]))

    def __repr__(self) -> str:
        return f"MonomialMatrix(perm={self.perm}, diag={self.diag})"


def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def point_action(gens: Sequence[MonomialMatrix], bound: int
                 ) -> tuple[tuple[int, ...], list]:
    """The identity's base images and each generator's point-image table.

    Over mu_N, N the lcm of the generators' moduli, a point (j, e)
    is the vector zeta^e e_j, and M sends it to (perm[j], exps[j] + e),
    as M * X does to the columns of X.  The points are the orbits of
    the base points (j, 0), numbered 0, ..., dim - 1, in one walk that
    stops past dim * bound points: dim orbits of at most |G| points."""
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("dimension mismatch")
    n = lcm(*(g.n for g in gens))
    acts = [(g.perm, tuple(e * (n // g.n) for e in g.exps))
            for g in gens]

    def step(point):
        j, e = point
        return [(perm[j], (exps[j] + e) % n) for perm, exps in acts]
    phis = walk([(j, 0) for j in range(dim)], step, dim * bound)[1]
    return tuple(range(dim)), phis
