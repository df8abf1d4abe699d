"""Roots of unity in exact exponent form, and their Frobenius orbits.

A root of unity is stored as a reduced fraction num/den meaning
exp(2*pi*i*num/den); all arithmetic is addition of exponents mod 1, so
nothing is ever floated.  The Frobenius orbit of tau under q is
{tau, tau^q, tau^{q^2}, ...}; an orbit is self-dual when it contains
tau^{-1}, and a self-dual orbit of a root other than +-1 always has even
size 2n with the inverse sitting exactly n steps along.

RootOfUnity is an immutable value with two slots, num and den.  The
constructor reduces its input; code that already holds a reduced pair
(an orbit, whose exponents are units times a unit) writes the slots
directly through their descriptors, skipping both the reduction and
the constructor call.  Equality and hashing go by (num, den), as for a
tuple of the two, but a root never equals a tuple.
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
        from fractions import Fraction
        frac = Fraction(text.strip())
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


# the slot writers, bound once: __setattr__ refuses every assignment
_set_num = RootOfUnity.num.__set__
_set_den = RootOfUnity.den.__set__


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


class FrobeniusOrbit(Record):
    """Orbit of a root of unity under exponent multiplication by q.

    elements[i+1] = elements[i]^q cyclically; the listing starts at the
    orbit member with the smallest exponent so equal orbits compare equal.
    The elements' numerators (over their common den) and selfdual, whether
    the inverse of the first is among them, are read once, when the orbit
    is made, and kept outside the fields.
    """

    q: int
    elements: tuple[RootOfUnity, ...]

    def __init__(self, q: int, elements: tuple[RootOfUnity, ...]) -> None:
        self._fill(q, elements, tuple([r.num for r in elements]))

    def _fill(self, q: int, elements: tuple[RootOfUnity, ...],
              exponents: tuple[int, ...]) -> None:
        selfdual = -exponents[0] % elements[0].den in exponents
        vars(self).update(q=q, elements=elements, exponents=exponents,
                          selfdual=selfdual)

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        den = self.elements[0].den
        return {
            "q": self.q,
            "den": den,
            "exponents": list(self.exponents),
            "size": self.size,
            "selfdual": self.selfdual,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FrobeniusOrbit":
        den = data["den"]
        els = tuple(RootOfUnity(e, den) for e in data["exponents"])
        return cls(q=data["q"], elements=els)


def frobenius_orbit(tau: RootOfUnity, q: int) -> FrobeniusOrbit:
    """Orbit {tau, tau^q, tau^{q^2}, ...}; q must be coprime to the order.

    Errors once the orbit would exceed DEFAULT_ORBIT_BOUND elements.
    """
    a, n = tau.num, tau.den
    if math.gcd(q, n) != 1:
        raise ValueError(f"q = {q} shares a factor with the order {n}")
    exps = [a]
    e = a * q % n
    for _ in range(DEFAULT_ORBIT_BOUND - 1):
        if e == a:
            break
        exps.append(e)
        e = e * q % n
    else:
        if e != a:
            raise ResourceBoundExceeded(
                f"Frobenius orbit exceeded {DEFAULT_ORBIT_BOUND} elements")
    # Rotate so the smallest exponent leads; q-steps are preserved.
    i = exps.index(min(exps))
    exps = exps[i:] + exps[:i]
    # every e is tau.num times a power of q: a unit mod n when tau is one,
    # and tau is reduced, so the slots take e and n as they are
    elements = []
    new, set_num, set_den = object.__new__, _set_num, _set_den
    for e in exps:
        r = new(RootOfUnity)
        set_num(r, e)
        set_den(r, n)
        elements.append(r)
    # the exponents are at hand, so the orbit need not read them back
    orbit = new(FrobeniusOrbit)
    orbit._fill(q, tuple(elements), tuple(exps))
    return orbit


def check_selfdual_orbit(orbit: FrobeniusOrbit) -> bool:
    """True iff self-duality forces even size with the inverse at half.

    For any root tau other than +-1 this always holds: if tau^{-1} lies in
    the orbit then the size is even, say 2n, and tau^{-1} = tau^{q^n}.
    Returns True as well for orbits that are not self-dual.
    """
    den, exps = orbit.elements[0].den, orbit.exponents
    if den <= 2:
        raise ValueError("orbit of +-1 is excluded")
    if not orbit.selfdual:
        return True
    m = len(exps)
    if m % 2 != 0:
        return False
    return exps[m // 2] == -exps[0] % den


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
