"""Roots of unity in exact exponent form, and their Frobenius orbits.

A root of unity is stored as a reduced fraction num/den meaning
exp(2*pi*i*num/den); all arithmetic is addition of exponents mod 1, so
nothing is ever floated.  The Frobenius orbit of tau under q is
{tau, tau^q, tau^{q^2}, ...}; an orbit is self-dual when it contains
tau^{-1}, and a self-dual orbit of a root other than +-1 always has even
size 2n with the inverse sitting exactly n steps along.

RootOfUnity is an immutable value with two slots, num and den.  The
constructor reduces its input.  Equality and hashing go by (num, den),
as for a tuple of the two, but a root never equals a tuple.  An orbit
is held as ints, its exponents over one den, and makes roots only when
a caller reads its elements: each exponent is a unit times a unit, so
it writes the reduced pair straight into the slots through their
descriptors, skipping both the reduction and the constructor call.
"""

from __future__ import annotations

import math

from .errors import ResourceBoundExceeded
from .numth import factorize, is_prime, mult_order
from .record import Record

__all__ = [
    "RootOfUnity",
    "FrobeniusOrbit",
    "frobenius_orbit",
    "check_selfdual_orbit",
    "selfdual_root",
]

# Far above any orbit the toolkit builds (tame orbits have at most eight
# elements); an orbit of 99,970 roots takes about 20 MB.
DEFAULT_ORBIT_BOUND = 100_000


class RootOfUnity:
    """exp(2*pi*i * num/den) with 0 <= num < den and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        _set_num(self, num // g)
        _set_den(self, den // g)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not RootOfUnity:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __reduce__(self):
        return (RootOfUnity, (self.num, self.den))

    @classmethod
    def parse(cls, text: str) -> "RootOfUnity":
        """Parse 'num/den' (or a bare integer exponent, meaning 1)."""
        frac = _fraction(text)
        return cls(frac.numerator, frac.denominator)

    @property
    def order(self) -> int:
        return self.den

    @property
    def is_one(self) -> bool:
        return self.den == 1

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.num * k, self.den)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.num, self.den)

    def exponent(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.num, self.den)

    def sort_key(self) -> tuple[int, int]:
        return (self.den, self.num)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"RootOfUnity({self.num}, {self.den})"


def _fraction(x):
    """Fraction(x), with a ValueError naming x for a zero denominator."""
    from fractions import Fraction
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


# the slot writers, bound once: __setattr__ refuses every assignment
_set_num = RootOfUnity.num.__set__
_set_den = RootOfUnity.den.__set__


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


class FrobeniusOrbit(Record):
    """Orbit of a root of unity under exponent multiplication by q.

    The orbit is held by its exponents over den: exponents[i+1] =
    q * exponents[i] mod den cyclically, each a unit mod den, and the
    listing starts at the least exponent so equal orbits compare equal.
    selfdual, whether the inverse of the first member is among them, is
    read when the orbit is made and kept outside the fields.
    """

    q: int
    den: int
    exponents: tuple[int, ...]

    def __init__(self, q: int, den: int, exponents: tuple[int, ...]) -> None:
        vars(self).update(q=q, den=den, exponents=exponents,
                          selfdual=-exponents[0] % den in exponents)

    @property
    def size(self) -> int:
        return len(self.exponents)

    @property
    def elements(self) -> tuple[RootOfUnity, ...]:
        """The members as roots, made on each read from the units."""
        new, den, elements = object.__new__, self.den, []
        for e in self.exponents:
            r = new(RootOfUnity)
            _set_num(r, e)
            _set_den(r, den)
            elements.append(r)
        return tuple(elements)

    def to_json(self) -> dict:
        return {"q": self.q, "den": self.den,
                "exponents": list(self.exponents), "size": self.size,
                "selfdual": self.selfdual}

    @classmethod
    def from_json(cls, data: dict) -> "FrobeniusOrbit":
        den, exps = data["den"], tuple(data["exponents"])
        if not all(0 <= e < den and math.gcd(e, den) == 1 for e in exps):
            raise ValueError(f"orbit exponents {exps} are not units mod {den}")
        return cls(data["q"], den, exps)


def frobenius_orbit(tau: RootOfUnity, q: int) -> FrobeniusOrbit:
    """Orbit {tau, tau^q, tau^{q^2}, ...}; q must be coprime to the order.

    Errors once the orbit would exceed DEFAULT_ORBIT_BOUND elements.
    """
    a, n = tau.num, tau.den
    if math.gcd(q, n) != 1:
        raise ValueError(f"q = {q} shares a factor with the order {n}")
    exps, e = [a], a * q % n
    for _ in range(DEFAULT_ORBIT_BOUND - 1):
        if e == a:
            break
        exps.append(e)
        e = e * q % n
    else:
        if e != a:
            raise ResourceBoundExceeded(
                f"Frobenius orbit exceeded {DEFAULT_ORBIT_BOUND} elements")
    # rotated so the least leads; each e = tau.num q^k is a unit mod n
    i = exps.index(min(exps))
    return FrobeniusOrbit(q, n, tuple(exps[i:] + exps[:i]))


def check_selfdual_orbit(orbit: FrobeniusOrbit) -> bool:
    """True iff self-duality forces even size with the inverse at half.

    For any root tau other than +-1 this always holds: if tau^{-1} lies in
    the orbit then the size is even, say 2n, and tau^{-1} = tau^{q^n}.
    Returns True as well for orbits that are not self-dual.
    """
    den, exps = orbit.den, orbit.exponents
    if den <= 2:
        raise ValueError("orbit of +-1 is excluded")
    if not orbit.selfdual:
        return True
    m = len(exps)
    return m % 2 == 0 and exps[m // 2] == -exps[0] % den


def selfdual_root(q: int, n: int, p: int | str = "maximal") -> RootOfUnity:
    """A root tau = 1/p whose Frobenius orbit under q is self-dual of size 2n.

    p may be an explicit odd prime with mult_order(q, p) = 2n, or the
    string "maximal" to take the largest prime factor of q^n + 1 with that
    exact order.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if p == "maximal":
        candidates = [r for r in factorize(q**n + 1)
                      if r > 2 and mult_order(q, r) == 2 * n]
        if not candidates:
            raise ValueError(
                f"no prime factor of {q}^{n}+1 has order exactly {2*n}")
        p = max(candidates)
    if not isinstance(p, int) or not is_prime(p) or p == 2:
        raise ValueError(f"p = {p} is not an odd prime")
    if p == q:
        raise ValueError("p must differ from q")
    if mult_order(q, p) != 2 * n:
        raise ValueError(
            f"order of {q} mod {p} is {mult_order(q, p)}, not {2*n}")
    return RootOfUnity(1, p)
