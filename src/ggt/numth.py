"""Integer number theory: primality, multiplicative orders, cyclotomic values.

Everything here is exact integer arithmetic.  No floats, no probabilistic
answers: is_prime divides by the primes up to 47, then runs Miller-Rabin
with the smallest proven witness set for the size of n.  Each tier below
ends at the least strong pseudoprime to all of its witnesses, so every n
under that limit is decided (Pomerance-Selfridge-Wagstaff 1980, Jaeschke
1993, Sorenson-Webster 2015); below 53^2 the divisions alone decide, as
a composite that small has a prime factor of at most 47:

    n < 2,809            trial division by the primes 2 to 47
    n < 1,373,653        bases 2, 3
    n < 25,326,001       bases 2, 3, 5
    n < 3,215,031,751    bases 2, 3, 5, 7
    n < psi_12 ~ 3.2e23  the first 12 primes, 2 to 37

The last tier covers every 64-bit integer; is_prime refuses larger inputs
rather than give an unproven answer.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .errors import ResourceBoundExceeded
from .record import Record

__all__ = [
    "is_prime",
    "mult_order",
    "cyclotomic_value",
    "cyclotomic_poly",
    "min_k_order_appears",
    "factorize",
    "euler_phi",
    "PrimePair",
]

# (limit, witnesses): the witnesses decide every n < limit, and the limit
# itself is the least strong pseudoprime to all of them
_MR_LIMIT = 318665857834031151167461  # psi_12 = 399165290221 * 798330580441
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (_MR_LIMIT, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# the square of the next prime: below it, no factor in _SMALL_PRIMES
# means prime
_TRIAL_BOUND = 53 * 53

# factorize tries no divisor past this: it settles every n below 10^12,
# in at most 166,667 steps of its loop
TRIAL_DIVISION_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test; ValueError for n >= psi_12."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(
            f"{n} is past the proven range of the primality test")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = next(w for limit, w in _MR_TIERS if n < limit)
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; {prime: exponent}.

    Trial divisors stop at TRIAL_DIVISION_LIMIT: ResourceBoundExceeded if
    what is left of n could still have a prime factor past it.
    """
    if n <= 0:
        raise ValueError("factorize wants a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    for f in range(5, TRIAL_DIVISION_LIMIT + 1, 6):
        if f * f > n:
            break
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    else:
        # every prime below f + 6 is tried
        if (f + 6) ** 2 <= n:
            raise ResourceBoundExceeded(
                f"factorize: {n} has no prime factor up to the trial "
                f"division limit {TRIAL_DIVISION_LIMIT}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n.  Requires gcd(a, n) = 1."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    return _order_dividing(a, n, euler_phi(n))


def _order_dividing(a: int, n: int, e: int) -> int:
    """Order of the unit a modulo n, given a multiple e of it (so
    a^e = 1 mod n): p - 1 for a prime modulus p, which then needs no
    factoring.  Strips prime factors of e while the power stays 1."""
    for p in factorize(e):
        while e % p == 0 and pow(a, e // p, n) == 1:
            e //= p
    return e


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first."""
    if d < 1:
        raise ValueError("index must be positive")
    # x^d - 1 divided by the product of all lower cyclotomic factors.
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num, rem = _polydiv(num, cyclotomic_poly(e))
            if any(rem):
                raise AssertionError(f"Phi_{e} does not divide x^{d} - 1")
    return tuple(num)


def _polydiv(num: Sequence, den: Sequence[int]) -> tuple[list, list]:
    """Long division by the monic integer polynomial den, coefficients
    low to high: (quotient, remainder), num = quotient * den + remainder
    with at most len(den) - 1 remainder coefficients.  The coefficients
    of num may lie in any ring that takes - and * by an int (Cyc, say);
    the zero coefficients of den are skipped."""
    if den[-1] != 1:
        raise AssertionError("the divisor must be monic")
    top = len(den) - 1
    terms = [(j, dj) for j, dj in enumerate(den[:top]) if dj]
    num = list(num)
    q = [0] * (len(num) - top)
    for i in range(len(q) - 1, -1, -1):
        # the leading term c x^(i + top) is cancelled by c x^i den
        c = q[i] = num[i + top]
        if c:
            for j, dj in terms:
                num[i + j] -= c * dj
    return q, num[:top]


def cyclotomic_value(d: int, q: int) -> int:
    """Value of the d-th cyclotomic polynomial at the integer q."""
    acc = 0
    for c in reversed(cyclotomic_poly(d)):
        acc = acc * q + c
    return acc


def min_k_order_appears(ell: int, n: int, p: int) -> int:
    """Least k such that p divides prod_{i<=n} (ell^{2ki} - 1).

    That product is, up to the ell-part, the number of points of a split
    odd orthogonal group of rank n over the field with ell^k elements, so
    this is the first field power whose group order picks up the prime p.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if p == ell:
        raise ValueError("p and ell must be distinct")
    # p is prime, and ell a prime other than p
    f = _order_dividing(ell, p, p - 1)
    # p | ell^{2ki} - 1  iff  f | 2ki  iff  (f / gcd(f, 2i)) | k.
    return min(f // math.gcd(f, 2 * i) for i in range(1, n + 1))


class PrimePair(Record):
    """Pair of odd primes p, q with q of multiplicative order m modulo p."""

    p: int
    q: int
    m: int

    def __init__(self, p: int, q: int, m: int) -> None:
        vars(self).update(p=p, q=q, m=m)
        if not (is_prime(p) and p > 2):
            raise ValueError(f"p = {p} is not an odd prime")
        if not (is_prime(q) and q > 2):
            raise ValueError(f"q = {q} is not an odd prime")
        if p == q:
            raise ValueError("p and q must be distinct")
        # p is prime, and q a prime other than p
        if _order_dividing(q, p, p - 1) != m:
            raise ValueError(
                f"order of {q} mod {p} is not {m}"
            )
