"""Exact arithmetic in Z[zeta_N], the ring of integers of a cyclotomic field.

Elements live in the group ring Z[x]/(x^N - 1) as integer vectors of
length N, which makes multiplication a cyclic convolution and conjugation
an index flip.  Equality, rationality and hashing go through the canonical
form modulo the N-th cyclotomic polynomial, so coincidences like
1 + zeta + ... + zeta^{p-1} = 0 are recognized exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .numth import cyclotomic_poly, is_prime
from .record import Record
from .roots import RootOfUnity

__all__ = ["Cyc"]


class _CtxData:
    """Per-modulus data: the cyclotomic polynomial and power-reduction table."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n = n
        poly = cyclotomic_poly(n)
        self.deg = len(poly) - 1
        self.prime = is_prime(n)
        if not self.prime:
            # x^k mod Phi_n for k < n, each a vector of length deg: past
            # x^(deg-1), x times the row before, with the top coefficient
            # c folded down as c * (x^deg - Phi_n)
            deg = self.deg
            table = [tuple(int(i == k) for i in range(deg))
                     for k in range(min(n, deg))]
            for _ in range(deg, n):
                c = table[-1][-1]
                table.append(tuple(a - c * b for a, b in
                                   zip((0,) + table[-1][:-1], poly)))
            self.powtable = tuple(table)

    def reduce(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if self.prime:
            # Phi_p = 1 + x + ... + x^{p-1}: fold the top coefficient down.
            top = vec[-1]
            return tuple(c - top for c in vec[:-1])
        out = [0] * self.deg
        for k, c in enumerate(vec):
            if c:
                row = self.powtable[k]
                for i, r in enumerate(row):
                    out[i] += c * r
        return tuple(out)


@lru_cache(maxsize=None)
def _Ctx(n: int) -> _CtxData:
    return _CtxData(n)


class Cyc(Record):
    """An element of Z[zeta_N]; vec[k] is the coefficient of zeta^k."""

    n: int
    vec: tuple[int, ...]

    def __init__(self, n: int, vec: tuple[int, ...]) -> None:
        vars(self).update(n=n, vec=vec)
        if len(vec) != n:
            raise ValueError("vector length must equal the modulus")

    @classmethod
    def zero(cls, n: int) -> "Cyc":
        return cls(n, (0,) * n)

    @classmethod
    def integer(cls, n: int, value: int) -> "Cyc":
        return cls(n, (value,) + (0,) * (n - 1))

    @classmethod
    def root(cls, n: int, k: int) -> "Cyc":
        vec = [0] * n
        vec[k % n] = 1
        return cls(n, tuple(vec))

    @classmethod
    def from_root_of_unity(cls, r: RootOfUnity, n: int) -> "Cyc":
        if n % r.den != 0:
            raise ValueError(f"order {r.den} does not divide modulus {n}")
        return cls.root(n, r.num * (n // r.den))

    def __add__(self, other: "Cyc") -> "Cyc":
        self._match(other)
        return Cyc(self.n, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._match(other)
        return Cyc(self.n, tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, tuple(-a for a in self.vec))

    def __mul__(self, other: "Cyc | int") -> "Cyc":
        if isinstance(other, int):
            return Cyc(self.n, tuple(a * other for a in self.vec))
        self._match(other)
        n = self.n
        out = [0] * n
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(other.vec):
                    if b:
                        k = i + j
                        out[k - n if k >= n else k] += a * b
        return Cyc(n, tuple(out))

    __rmul__ = __mul__

    def conj(self) -> "Cyc":
        """Complex conjugation zeta -> zeta^{-1}."""
        return Cyc(self.n, (self.vec[0],) + self.vec[1:][::-1])

    def reduced(self) -> tuple[int, ...]:
        """Canonical coordinates modulo the N-th cyclotomic polynomial."""
        return _Ctx(self.n).reduce(self.vec)

    def is_zero(self) -> bool:
        return not any(self.reduced())

    def rational_value(self) -> int | None:
        """The integer this element equals, or None if irrational."""
        red = self.reduced()
        if any(red[1:]):
            return None
        return red[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.reduced() == other.reduced()

    def __hash__(self) -> int:
        return hash((self.n, self.reduced()))

    def _match(self, other: "Cyc") -> None:
        if self.n != other.n:
            raise ValueError("mixed cyclotomic moduli")

    def __repr__(self) -> str:
        terms = [f"{c}*z^{k}" for k, c in enumerate(self.vec) if c]
        return f"Cyc({self.n}: {' + '.join(terms) or '0'})"
