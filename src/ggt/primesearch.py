"""Search for prime pairs (p, q) feeding the tame parameter construction.

Given a rank n, an auxiliary prime ell, a forcing level t and a degree
bound d, the search wants the lexicographically least pair of odd primes
(p, q), all three distinct, with

  * p > d,
  * every finite odd orthogonal group over an extension of F_ell whose
    order p divides has extension degree divisible by t,
  * q congruent to 1 modulo every modulus of the form 2^a * ell^b up to
    the conductor bound whose unit group is no larger than d (a checkable
    stand-in for splitting completely in the degree-<= d extensions
    ramified only at 2 and ell),
  * q of multiplicative order exactly 2n modulo p.

The order condition forces p = 1 mod 2n, so p runs through that
progression.  For each admissible p the q scan visits only candidates
that already meet the last two conditions: the residues of exact order
2n modulo p are h^k for one h of that order and every k prime to 2n, and
the Chinese remainder theorem lifts each of them, with q = 1 mod step
(step is the lcm of the surrogate moduli, made even, so prime to p), to
one offset modulo step * p.  Walking the sorted offsets period by period
meets the candidates in increasing order, so the first prime among them
is the least q, and primality is tested only on those.

The order f of ell modulo p is computed once for each candidate p that
is prime: the forcing test reads it, and so does the certificate, whose
k_min is the least f / gcd(f, 2i) over i = 1..n.

Every certificate can be re-checked by validate_certificate, which
recomputes all five conditions along deliberately separate code paths
(trial division, naive order loops, direct group-order divisibility by
a walk of products).
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ResourceBoundExceeded, SearchExhausted
from .numth import PrimePair, _order_dividing, factorize, is_prime
from .record import Record

__all__ = [
    "SearchRequest",
    "SearchCertificate",
    "check_degree_forcing",
    "splits_in_small_cyclotomics",
    "surrogate_moduli",
    "find_prime_pair",
    "validate_certificate",
]

DEFAULT_CEILING = 1_000_000


class SearchRequest(Record):
    n: int
    ell: int
    t: int
    d: int
    conductor_bound: int

    def __init__(self, n: int, ell: int, t: int, d: int,
                 conductor_bound: int = 100) -> None:
        vars(self).update(n=n, ell=ell, t=t, d=d,
                          conductor_bound=conductor_bound)
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        if not is_prime(ell):
            raise ValueError(f"ell = {ell} is not prime")
        if t < 1 or d < 1 or conductor_bound < 1:
            raise ValueError("t, d and conductor_bound must be positive")

    def to_json(self) -> dict:
        return {"n": self.n, "ell": self.ell, "t": self.t, "d": self.d,
                "conductor_bound": self.conductor_bound}

    @classmethod
    def from_json(cls, data: dict) -> "SearchRequest":
        return cls(n=data["n"], ell=data["ell"], t=data["t"], d=data["d"],
                   conductor_bound=data["conductor_bound"])


class SearchCertificate(Record):
    request: SearchRequest
    pair: PrimePair
    k_min: int
    checks: dict
    flags: tuple[str, ...]

    def __init__(self, request: SearchRequest, pair: PrimePair, k_min: int,
                 checks: dict, flags: tuple[str, ...] = ()) -> None:
        vars(self).update(request=request, pair=pair, k_min=k_min,
                          checks=checks, flags=flags)

    def to_json(self) -> dict:
        return {"request": self.request.to_json(),
                "p": self.pair.p, "q": self.pair.q, "order": self.pair.m,
                "k_min": self.k_min, "checks": self.checks,
                "flags": list(self.flags)}

    @classmethod
    def from_json(cls, data: dict) -> "SearchCertificate":
        return cls(request=SearchRequest.from_json(data["request"]),
                   pair=PrimePair(data["p"], data["q"], data["order"]),
                   k_min=data["k_min"], checks=data["checks"],
                   flags=tuple(data["flags"]))


def check_degree_forcing(p: int, ell: int, t: int, n: int) -> bool:
    """Whether p can only divide the order of an odd orthogonal group of
    rank n over F_{ell^k} when t divides k.

    Equivalent divisibility form: with f the order of ell mod p, t must
    divide f / gcd(f, 2i) for every i in 1..n.
    """
    if p == ell:
        raise ValueError("p and ell must differ")
    if not is_prime(p) or not is_prime(ell):
        raise ValueError("p and ell must be prime")
    return _forces_degree(_order_dividing(ell, p, p - 1), t, n)


def _forces_degree(f: int, t: int, n: int) -> bool:
    # check_degree_forcing given f, the order of ell mod p
    return all(f // gcd(f, 2 * i) % t == 0 for i in range(1, n + 1))


def surrogate_moduli(ell: int, d: int, conductor_bound: int) -> list[int]:
    """All N = 2^a * ell^b <= conductor_bound with phi(N) <= d, sorted."""
    out = set()
    two = 1
    while two <= conductor_bound:
        pw = two
        while pw <= conductor_bound:
            # phi(N) = N * prod (1 - 1/r) over the primes r in {2, ell}
            phi = pw // 2 if pw % 2 == 0 else pw
            if ell != 2 and pw % ell == 0:
                phi = phi // ell * (ell - 1)
            if phi <= d:
                out.add(pw)
            pw *= ell
        two *= 2
    return sorted(out)


def splits_in_small_cyclotomics(q: int, ell: int, d: int,
                                conductor_bound: int) -> bool:
    """q = 1 mod N for every surrogate modulus N.

    Forces q to split completely in each cyclotomic field of degree <= d
    ramified only at 2 and ell with conductor below the bound.
    """
    if q == 2 or q == ell:
        raise ValueError("q must avoid 2 and ell")
    # N = 1 is vacuous: q % 1 == 1 % 1 == 0
    return all(q % N == 1 % N
               for N in surrogate_moduli(ell, d, conductor_bound))


def find_prime_pair(req: SearchRequest,
                    ceiling: int = DEFAULT_CEILING) -> SearchCertificate:
    """Lexicographically least (p, q) meeting all five conditions.

    Scans p ascending through the progression 1 mod 2n (forced by the
    order condition), and for each admissible p scans q ascending through
    the CRT progressions of the splitting congruences and the residues of
    order 2n modulo p (see the module docstring).  Raises
    SearchExhausted when no pair exists with p, q below the ceiling, and
    ValueError for a ceiling below 2, under which no prime lies.
    """
    if ceiling < 2:
        raise ValueError(f"ceiling must be at least 2, got {ceiling}")
    two_n = 2 * req.n
    moduli = surrogate_moduli(req.ell, req.d, req.conductor_bound)
    step_q = lcm(*moduli) if moduli else 1
    if step_q % 2 == 1:
        step_q *= 2  # keep candidates odd
    cofactors = [two_n // r for r in factorize(two_n)]
    exponents = [k for k in range(1, two_n) if gcd(k, two_n) == 1]
    p = 1
    while True:
        p += two_n
        if p >= ceiling:
            raise SearchExhausted(
                f"no (p, q) with p, q < {ceiling} for {req}")
        if p <= req.d or p == req.ell or not is_prime(p):
            continue
        f = _order_dividing(req.ell, p, p - 1)  # p prime, ell not p
        if not _forces_degree(f, req.t, req.n):
            continue
        offsets = _order_offsets(p, step_q, two_n, cofactors, exponents)
        q = _scan_q(req, p, step_q * p, offsets, ceiling)
        if q is not None:
            return _certify(req, p, q, f, moduli)


def _order_offsets(p: int, step: int, two_n: int, cofactors: list[int],
                   exponents: list[int]) -> list[int]:
    """Sorted offsets o in [0, step * p) with o = 1 mod step and o of
    multiplicative order exactly two_n modulo the prime p.

    two_n divides p - 1 and gcd(step, p) = 1; cofactors holds two_n // r
    for each prime r dividing two_n, and exponents every k in [1, two_n)
    prime to two_n.
    """
    # x^((p-1)/two_n) has order dividing two_n, and exactly two_n when x
    # generates the cyclic unit group; then its powers h^k, k prime to
    # two_n, are all the residues of that order
    e = (p - 1) // two_n
    x = 2
    h = pow(x, e, p)
    while any(pow(h, c, p) == 1 for c in cofactors):
        x += 1
        h = pow(x, e, p)
    inv = pow(step, -1, p)
    # o = 1 + step * t with step * t = h^k - 1 mod p
    return sorted(1 + step * ((pow(h, k, p) - 1) * inv % p)
                  for k in exponents)


def _scan_q(req: SearchRequest, p: int, period: int, offsets: list[int],
            ceiling: int) -> int | None:
    # Smallest prime q = base + o, distinct from p and ell, over the
    # periods base = 0, period, 2 * period, ... and the sorted offsets o;
    # None once a candidate reaches the ceiling.
    base = 0
    while True:
        for o in offsets:
            q = base + o
            if q >= ceiling:
                return None
            if q != p and q != req.ell and is_prime(q):
                return q
        base += period


def _certify(req: SearchRequest, p: int, q: int, f: int,
             moduli: list[int]) -> SearchCertificate:
    # f is the order of ell mod p; p divides ell^(2ik) - 1 iff f | 2ik iff
    # f / gcd(f, 2i) divides k, so the least such k is the least quotient
    quotients = {i: f // gcd(f, 2 * i) for i in range(1, req.n + 1)}
    checks = {
        "distinct_odd": {
            "ok": True,
            "witness": {"p": p, "q": q, "ell": req.ell},
        },
        "p_exceeds_d": {"ok": True, "witness": {"p": p, "d": req.d}},
        "degree_forcing": {
            "ok": True,
            "witness": {
                "f": f,
                "t": req.t,
                "quotients": quotients,
            },
        },
        "splitting_surrogate": {
            "ok": True,
            "surrogate": True,
            "witness": {"moduli": list(moduli),
                        "residues": {N: q % N for N in moduli}},
        },
        "order_exact": {
            "ok": True,
            "witness": {"order": 2 * req.n,
                        "powers": [pow(q, k, p)
                                   for k in range(1, 2 * req.n + 1)]},
        },
    }
    flags = ()
    if req.ell == 2:
        flags = ("ell=2: ramification set collapses to {2}; "
                 "literal congruence reading applied",)
    return SearchCertificate(
        request=req,
        pair=PrimePair(p=p, q=q, m=2 * req.n),
        k_min=min(quotients.values()),
        checks=checks,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Independent validation.  Nothing below may call the search-side helpers;
# primality is trial division, orders are naive multiplication loops, and
# the forcing condition is checked against actual group-order divisibility.

def _slow_is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


_ORDER_LOOP_BOUND = 10_000_000  # the steps one _slow_order loop may take


def _slow_order(a: int, p: int) -> int:
    x = a % p
    if x == 0:
        raise ValueError("a divisible by p")
    k = 1
    while x != 1:
        x = x * a % p
        k += 1
        if k > _ORDER_LOOP_BOUND:
            raise ResourceBoundExceeded("order loop exceeded bound")
    return k


def _slow_phi(n: int) -> int:
    """Euler's phi by trial division: phi(n) = n prod (1 - 1/r) over the
    primes r dividing n."""
    out, k = n, 2
    while k * k <= n:
        if n % k == 0:
            while n % k == 0:
                n //= k
            out -= out // k
        k += 1
    if n > 1:
        out -= out // n
    return out


def _forcing_walk(ell: int, p: int, n: int,
                  t: int) -> tuple[bool, int | None]:
    """Whether every k <= f at which p divides |SO_{2n+1}(F_{ell^k})| is
    a multiple of t, and the least such k; f is the order of ell mod p.

    p divides ell^{k n^2} prod_{i <= n} (ell^{2ik} - 1) iff some
    ell^{2ik} = 1 mod p; k > f repeats the pattern, everything having
    period f.  ell^(2k) is one product past ell^(2k-2), and its powers
    up to the n-th are walked by products, stopping at 1.
    """
    f = _slow_order(ell, p)
    ell_sq = ell * ell % p
    forcing_ok = True
    first = None
    ell_2k = 1
    for k in range(1, f + 1):
        ell_2k = ell_2k * ell_sq % p
        x = 1
        for _ in range(n):
            x = x * ell_2k % p  # ell^(2ik)
            if x == 1:
                if first is None:
                    first = k
                if k % t != 0:
                    forcing_ok = False
                break
    return forcing_ok, first


def validate_certificate(cert: SearchCertificate) -> dict:
    """Recompute all five conditions from scratch; returns per-condition
    verdicts plus "all_ok".

    The forcing condition is read off the group orders by a walk of
    products (_forcing_walk): about f * n multiplications mod p at most,
    f = ord_p(ell), and no modular powers.
    """
    req = cert.request
    p, q, ell = cert.pair.p, cert.pair.q, req.ell
    out: dict = {}

    out["distinct_odd"] = (_slow_is_prime(p) and _slow_is_prime(q)
                           and p % 2 == 1 and q % 2 == 1
                           and len({p, q, ell}) == 3)
    out["p_exceeds_d"] = p > req.d

    forcing_ok, first_divisible = _forcing_walk(ell, p, req.n, req.t)
    out["degree_forcing"] = forcing_ok
    out["k_min_agrees"] = first_divisible == cert.k_min

    shapes = set()  # every 2^a * ell^b up to the bound, once (ell = 2 repeats)
    N = 1
    while N <= req.conductor_bound:
        M = N
        while M <= req.conductor_bound:
            shapes.add(M)
            M *= ell
        N *= 2
    mods = [M for M in sorted(shapes) if _slow_phi(M) <= req.d]
    out["splitting_surrogate"] = all(q % M == 1 % M for M in mods)

    out["order_exact"] = _slow_order(q, p) == 2 * req.n

    out["all_ok"] = all(bool(v) for k, v in out.items())
    return out
