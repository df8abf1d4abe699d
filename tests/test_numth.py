import math
import random
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ggt import numth
from ggt.errors import ResourceBoundExceeded
from ggt.numth import (TRIAL_DIVISION_LIMIT, PrimePair, cyclotomic_poly,
                       cyclotomic_value, euler_phi, factorize, is_prime,
                       min_k_order_appears, mult_order)


def _trial_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_small_range():
    for n in range(-3, 2000):
        assert is_prime(n) == _trial_prime(n), n


def test_is_prime_matches_trial_division_below_ten_thousand():
    # below 53^2 = 2,809 the divisions by the primes up to 47 settle n;
    # from there on Miller-Rabin does
    for n in range(10_000):
        assert is_prime(n) == _trial_prime(n), n
    assert numth._TRIAL_BOUND == 2809
    # composites with no prime factor up to 47, on either side of it:
    # 47 * 53 and 47 * 59 below, 53^2 at it; and the primes around it
    for n in (2491, 2773, 2809):
        assert not is_prime(n), n
    for n in (2801, 2803, 2819):
        assert is_prime(n), n


def test_is_prime_pseudoprime_traps():
    # Carmichael numbers and strong-pseudoprime classics
    for n in (561, 1105, 1729, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    for n in (2**31 - 1, 999999937, 67280421310721):
        assert is_prime(n), n
    assert is_prime(2**64 - 59)  # the largest 64-bit prime


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


def test_is_prime_witness_tiers():
    # each tier limit is the least strong pseudoprime to the bases of the
    # tiers below it, so a limit handled by the lower tier reads as prime
    tiers = [(2047, (2,)), (1_373_653, (2, 3)), (25_326_001, (2, 3, 5)),
             (3_215_031_751, (2, 3, 5, 7))]
    below = {2047: 2039, 1_373_653: 1_373_639, 25_326_001: 25_325_981,
             3_215_031_751: 3_215_031_749}
    for limit, bases in tiers:
        assert all(_strong_probable_prime(limit, a) for a in bases), limit
        assert not _trial_prime(limit) and not is_prime(limit), limit
        p = below[limit]
        assert _trial_prime(p) and is_prime(p), p
        assert not any(_trial_prime(n) for n in range(p + 1, limit)), limit
    # strong pseudoprimes to 2 with no factor up to 47, inside the first
    # tier, and to 2 and 3, inside the second
    for bases, spsp in (((2,), (8321, 42799, 49141, 65281, 80581)),
                        ((2, 3), (1530787, 1987021, 2284453, 3116107,
                                  5173601, 6787327, 11541307, 13694761,
                                  15978007, 16070429, 16879501))):
        for n in spsp:
            assert all(_strong_probable_prime(n, a) for a in bases), n
            assert not _trial_prime(n) and not is_prime(n), n
    # windows just past the first two limits, and a seeded sample from
    # the third tier
    rng = random.Random(13)
    sample = [*range(1_373_653, 1_375_653), *range(25_326_001, 25_327_001),
              *(rng.randrange(25_326_001, 3_215_031_751) for _ in range(300))]
    for n in sample:
        assert is_prime(n) == _trial_prime(n), n


def test_is_prime_refuses_past_proven_range():
    # psi_12: the least strong pseudoprime to every base 2..37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    with pytest.raises(ValueError):
        is_prime(psi12)
    assert not is_prime(psi12 - 1)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert _trial_prime(p)
        prod *= p**e
    assert prod == n


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_trial_division_limit():
    # 999983 and 1000003 are the primes on either side of the limit
    assert TRIAL_DIVISION_LIMIT == 10**6
    assert factorize(999983**2) == {999983: 2}
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    # a prime cofactor is settled once the divisors pass its square root
    assert factorize(2 * (10**12 + 39)) == {2: 1, 10**12 + 39: 1}
    for n in (1000003**2, 1000003 * 1000033, 10**18 + 3):
        with pytest.raises(ResourceBoundExceeded):
            factorize(n)
    with pytest.raises(ResourceBoundExceeded):
        mult_order(7, 10**18 + 3)


def test_euler_phi_counting_oracle():
    for n in range(1, 300):
        count = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == count, n


def _naive_order(a, n):
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


@given(st.integers(min_value=2, max_value=500),
       st.integers(min_value=2, max_value=10**6))
def test_mult_order_matches_naive(n, a):
    if math.gcd(a, n) != 1:
        with pytest.raises(ValueError):
            mult_order(a, n)
    else:
        assert mult_order(a, n) == _naive_order(a, n)


def test_order_from_a_known_multiple():
    # the order modulo a prime from the multiple p - 1, no factoring of p
    for p in filter(is_prime, range(2, 200)):
        for a in range(1, p):
            assert numth._order_dividing(a, p, p - 1) == \
                _naive_order(a, p), (a, p)


def test_mult_order_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        mult_order(3, 1)


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_polydiv_quotient_and_remainder():
    # x^4 + 2x^3 + 3x + 5 = (x^2 + x)(x^2 + x - 1) + 4x + 5
    assert numth._polydiv([5, 3, 0, 2, 1], (-1, 1, 1)) == ([0, 1, 1], [5, 4])
    # a dividend of lower degree is its own remainder
    assert numth._polydiv([7], (1, 0, 1)) == ([], [7])
    with pytest.raises(AssertionError, match="monic"):
        numth._polydiv([1, 2, 3], (1, 2))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12),
       st.lists(st.integers(-3, 3), max_size=5))
def test_polydiv_reconstructs_the_dividend(num, low):
    # low terms with zeros among them, which the division skips
    den = low + [1]
    q, r = numth._polydiv(num, den)
    assert len(r) == min(len(num), len(den) - 1)
    back = _polymul(q, den) if q else [0] * len(num)
    assert [a + b for a, b in zip_longest(back, r, fillvalue=0)] == num


def test_cyclotomic_product_identity():
    # prod over d | n of Phi_d(x) = x^n - 1
    for n in range(1, 121):
        acc = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                acc = _polymul(acc, list(cyclotomic_poly(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert acc == expected, n


def test_cyclotomic_prime_shape():
    for p in (2, 3, 5, 7, 11, 13):
        assert cyclotomic_poly(p) == (1,) * p


def test_cyclotomic_degree_is_phi():
    for d in range(1, 200):
        assert len(cyclotomic_poly(d)) - 1 == euler_phi(d)


def test_cyclotomic_value_examples():
    assert cyclotomic_value(6, 7) == 43
    assert cyclotomic_value(1, 2) == 1
    assert cyclotomic_value(2, 2) == 3
    for n in range(1, 40):
        prod = 1
        for d in range(1, n + 1):
            if n % d == 0:
                prod *= cyclotomic_value(d, 3)
        assert prod == 3**n - 1


def _naive_min_k(ell, n, p):
    k = 1
    while True:
        prod = 1
        for i in range(1, n + 1):
            prod *= ell ** (2 * k * i) - 1
        if prod % p == 0:
            return k
        k += 1


def test_min_k_order_appears_against_product_scan():
    for ell in (2, 3, 5):
        for p in (5, 7, 11, 13, 17, 19, 23):
            if p == ell:
                continue
            for n in (1, 2, 3, 4):
                assert min_k_order_appears(ell, n, p) == \
                    _naive_min_k(ell, n, p), (ell, n, p)


def test_min_k_rejects_bad_inputs():
    with pytest.raises(ValueError):
        min_k_order_appears(3, 2, 2)
    with pytest.raises(ValueError):
        min_k_order_appears(4, 2, 7)
    with pytest.raises(ValueError):
        min_k_order_appears(7, 2, 7)


def test_prime_pair_validates():
    pp = PrimePair(7, 3, 6)
    assert (pp.p, pp.q, pp.m) == (7, 3, 6)
    with pytest.raises(ValueError):
        PrimePair(7, 3, 3)
    with pytest.raises(ValueError):
        PrimePair(9, 3, 2)
    with pytest.raises(ValueError):
        PrimePair(7, 7, 1)
    with pytest.raises(ValueError):
        PrimePair(7, 2, 3)
