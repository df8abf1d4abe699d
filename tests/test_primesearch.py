import itertools
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ggt import numth, primesearch
from ggt.errors import SearchExhausted
from ggt.numth import PrimePair, factorize
from ggt.primesearch import (SearchCertificate, SearchRequest,
                             check_degree_forcing, find_prime_pair,
                             splits_in_small_cyclotomics, surrogate_moduli,
                             validate_certificate)


def test_request_validation():
    SearchRequest(1, 2, 1, 1)
    with pytest.raises(ValueError):
        SearchRequest(0, 2, 1, 1)
    with pytest.raises(ValueError):
        SearchRequest(1, 4, 1, 1)  # ell must be prime
    with pytest.raises(ValueError):
        SearchRequest(1, 2, 0, 1)
    with pytest.raises(ValueError):
        SearchRequest(1, 2, 1, 0)
    with pytest.raises(ValueError):
        SearchRequest(1, 2, 1, 1, conductor_bound=0)


def _moduli_oracle(ell, d, bound):
    # every N <= bound of the shape 2^a ell^b, phi counted by gcd
    out = []
    for n in range(1, bound + 1):
        m = n
        while m % 2 == 0:
            m //= 2
        while m % ell == 0:
            m //= ell
        if m != 1:
            continue
        if sum(1 for x in range(1, n + 1) if gcd(x, n) == 1) <= d:
            out.append(n)
    return out


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 12), st.integers(1, 60))
@settings(max_examples=40)
def test_surrogate_moduli_against_oracle(ell, d, bound):
    assert surrogate_moduli(ell, d, bound) == _moduli_oracle(ell, d, bound)


def test_surrogate_moduli_example():
    assert surrogate_moduli(3, 9, 100) == \
        [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24]
    assert surrogate_moduli(2, 1, 100) == [1, 2]


def test_splitting_congruences():
    # moduli for ell = 3, d = 4: 1, 2, 3, 4, 6, 8, 12 -> q = 1 mod 24
    assert splits_in_small_cyclotomics(73, 3, 4, 100)
    assert not splits_in_small_cyclotomics(37, 3, 4, 100)  # 37 = 5 mod 8
    # d = 1 keeps only 1 and 2: any odd q passes
    assert splits_in_small_cyclotomics(5, 3, 1, 100)
    with pytest.raises(ValueError):
        splits_in_small_cyclotomics(2, 3, 4, 100)
    with pytest.raises(ValueError):
        splits_in_small_cyclotomics(3, 3, 4, 100)


def test_degree_forcing():
    # ord_3(7) = 6: quotients 6/gcd(6,2i) for i = 1..n
    assert check_degree_forcing(7, 3, 3, 1)
    assert not check_degree_forcing(7, 3, 2, 1)
    assert not check_degree_forcing(7, 3, 3, 3)  # i = 3 gives quotient 1
    assert check_degree_forcing(7, 3, 1, 3)
    with pytest.raises(ValueError):
        check_degree_forcing(7, 7, 1, 1)
    with pytest.raises(ValueError):
        check_degree_forcing(9, 3, 1, 1)


def test_corner_cells():
    for args, expected in [
        ((1, 2, 1, 1), (3, 5)),
        ((3, 3, 3, 5), (19, 601)),
        ((4, 7, 4, 10), (97, 3137)),
        # no surrogate modulus up to the conductor bound 1: the q step
        # is doubled from 1 to stay on odd candidates
        ((1, 3, 1, 1, 1), (5, 19)),
    ]:
        req = SearchRequest(*args)
        cert = find_prime_pair(req)
        assert (cert.pair.p, cert.pair.q) == expected, args
        assert cert.pair.q % 2 == 1
        verdict = validate_certificate(cert)
        assert verdict["all_ok"], (args, verdict)
        assert cert.pair.m == 2 * req.n


def test_ell_two_flag():
    cert = find_prime_pair(SearchRequest(1, 2, 1, 1))
    assert cert.flags and "ell=2" in cert.flags[0]
    cert = find_prime_pair(SearchRequest(1, 3, 1, 1))
    assert cert.flags == ()


def test_search_exhausted():
    with pytest.raises(SearchExhausted):
        find_prime_pair(SearchRequest(1, 2, 1, 1), ceiling=3)
    # no prime lies below 2, so such a ceiling is bad input
    for ceiling in (1, 0, -1):
        with pytest.raises(ValueError):
            find_prime_pair(SearchRequest(1, 2, 1, 1), ceiling=ceiling)


def test_minimal_p_monotone_in_d():
    # growing d only shrinks the candidate set for p and tightens the
    # congruences on q, so the minimal p cannot drop
    for n in (1, 2):
        for ell in (2, 3):
            for t in (1, 2):
                last = 0
                for d in (1, 2, 3, 5):
                    cert = find_prime_pair(SearchRequest(n, ell, t, d))
                    assert cert.pair.p >= last, (n, ell, t, d)
                    last = cert.pair.p


def test_minimal_p_monotone_along_divisible_t():
    # t | t' means the forcing condition for t' implies the one for t
    for n in (1, 2):
        for ell in (2, 3, 5):
            for t, tt in ((1, 2), (2, 4), (1, 3), (3, 6)):
                small = find_prime_pair(SearchRequest(n, ell, t, 3))
                large = find_prime_pair(SearchRequest(n, ell, tt, 3))
                assert large.pair.p >= small.pair.p, (n, ell, t, tt)


def test_p_not_monotone_in_t_itself():
    # larger t is not a stronger condition when the values are not
    # ordered by divisibility: t = 2 forces p = 17 here, t = 3 allows 7
    p2 = find_prime_pair(SearchRequest(1, 3, 2, 5)).pair.p
    p3 = find_prime_pair(SearchRequest(1, 3, 3, 5)).pair.p
    assert (p2, p3) == (17, 7)


def test_validator_catches_tampering():
    cert = find_prime_pair(SearchRequest(3, 3, 3, 5))
    # a q of the wrong order cannot even be deserialized
    data = cert.to_json()
    data["q"] = 7
    with pytest.raises(ValueError):
        SearchCertificate.from_json(data)

    # 103 has order 6 mod 19 but fails the splitting congruences
    bad = SearchCertificate(request=cert.request,
                            pair=PrimePair(19, 103, 6),
                            k_min=cert.k_min, checks={})
    verdict = validate_certificate(bad)
    assert not verdict["splitting_surrogate"]
    assert not verdict["all_ok"]

    # 13 has order 2 mod 7 and is 1 mod 12, but 5 mod 8, and phi(8) = 4 = d
    bad = SearchCertificate(request=SearchRequest(1, 3, 1, 4),
                            pair=PrimePair(7, 13, 2), k_min=3, checks={})
    verdict = validate_certificate(bad)
    assert not verdict["splitting_surrogate"] and verdict["order_exact"]

    data = cert.to_json()
    data["k_min"] = cert.k_min + 1
    verdict = validate_certificate(SearchCertificate.from_json(data))
    assert not verdict["k_min_agrees"] and not verdict["all_ok"]


def test_certificate_json_round_trip():
    cert = find_prime_pair(SearchRequest(3, 3, 3, 5))
    again = SearchCertificate.from_json(cert.to_json())
    assert again == cert
    assert again.request == cert.request
    v = validate_certificate(again)
    assert v["all_ok"] and v["k_min_agrees"]


def test_validator_uses_no_search_helper(monkeypatch):
    certs = [find_prime_pair(SearchRequest(*args))
             for args in ((1, 2, 1, 1), (3, 3, 3, 5), (4, 7, 4, 10))]

    def refuse(*args, **kwargs):
        raise AssertionError("validator called a search-side helper")

    for name in ("is_prime", "factorize", "_order_dividing",
                 "_order_offsets", "_scan_q", "surrogate_moduli",
                 "check_degree_forcing", "_forces_degree",
                 "splits_in_small_cyclotomics"):
        monkeypatch.setattr(primesearch, name, refuse)
    # these as well, in case the module binds them
    for name in ("mult_order", "euler_phi", "min_k_order_appears"):
        monkeypatch.setattr(primesearch, name, refuse, raising=False)
    for cert in certs:
        assert validate_certificate(cert)["all_ok"], cert.request


def test_validator_phi_matches_the_gcd_count():
    # the validator's trial-division phi against its definition
    for n in range(1, 3000):
        assert primesearch._slow_phi(n) == sum(
            1 for x in range(1, n + 1) if gcd(x, n) == 1), n


def _naive_order_is(a, p, m):
    x = 1
    for k in range(1, m + 1):
        x = x * a % p
        if x == 1:
            return k == m
    return False


def test_order_offsets_against_filter():
    # every o < step * p with o = 1 mod step and order exactly 2n mod p
    # at p = 43 and 109 the least non-residue is a cube, so its power
    # (p - 1) / 6 has order 2, not 6
    for p, step, n in ((3, 2, 1), (7, 2, 3), (13, 24, 2), (17, 8, 4),
                       (41, 30, 4), (73, 4, 3), (43, 2, 3), (109, 12, 3)):
        two_n = 2 * n
        cofactors = [two_n // r for r in factorize(two_n)]
        exponents = [k for k in range(1, two_n) if gcd(k, two_n) == 1]
        want = [o for o in range(step * p)
                if o % step == 1 and _naive_order_is(o, p, two_n)]
        assert primesearch._order_offsets(p, step, two_n, cofactors,
                                          exponents) == want, (p, step, n)


def _least_pair_oracle(n, ell, t, d, ceiling, bound=100):
    # lexicographic scan of all (p, q) below the ceiling: trial division,
    # phi by gcd counts, orders by repeated multiplication
    primes = [x for x in range(3, ceiling) if _trial_prime(x)]
    moduli = _moduli_oracle(ell, d, bound)
    for p in primes:
        if p <= d or p == ell:
            continue
        f = next(k for k in range(1, p) if pow(ell, k, p) == 1)
        if any(f // gcd(f, 2 * i) % t for i in range(1, n + 1)):
            continue
        for q in primes:
            if (q not in (p, ell) and all(q % N == 1 % N for N in moduli)
                    and _naive_order_is(q, p, 2 * n)):
                return p, q
    return None


def _trial_prime(x):
    return x > 1 and all(x % f for f in range(2, int(x**0.5) + 1))


def test_least_pair_against_brute_force():
    for n, ell, t, d in itertools.product((1, 2), (2, 3), (1, 2), (1, 5)):
        req = SearchRequest(n, ell, t, d)
        cert = find_prime_pair(req)
        p, q = cert.pair.p, cert.pair.q
        # q may lie below p, as in (5, 3) for n = 2, ell = 2
        top = max(p, q) + 1
        assert _least_pair_oracle(n, ell, t, d, top) == (p, q), req
        for ceiling in (p + 1, q, q + 1, (p + q) // 2):
            want = _least_pair_oracle(n, ell, t, d, ceiling)
            if want is None:
                with pytest.raises(SearchExhausted):
                    find_prime_pair(req, ceiling=ceiling)
            else:
                got = find_prime_pair(req, ceiling=ceiling)
                assert (got.pair.p, got.pair.q) == want, (req, ceiling)


PRIME_GRID = tuple(itertools.product((1, 2, 3, 4), (2, 3, 5, 7),
                                     (1, 2, 3, 4), (1, 5, 10)))


def test_one_order_per_candidate_prime(monkeypatch):
    # ord_p(ell) is computed once for each p of the progression 1 mod 2n
    # that passes the cheap filters and is prime, from the multiple p - 1,
    # and never again by the certificate
    calls = []
    search_order = primesearch._order_dividing
    certify = primesearch._certify
    in_certify = []

    def counted(a, n, e):
        assert e == n - 1
        calls.append((a, n))
        return search_order(a, n, e)

    def watched(*args):
        before = len(calls)
        cert = certify(*args)
        in_certify.append(len(calls) - before)
        return cert

    monkeypatch.setattr(primesearch, "_order_dividing", counted)
    monkeypatch.setattr(primesearch, "_certify", watched)
    for n, ell, t, d in PRIME_GRID:
        start = len(calls)
        cert = find_prime_pair(SearchRequest(n, ell, t, d))
        candidates = [(ell, p) for p in range(2 * n + 1, cert.pair.p + 1,
                                              2 * n)
                      if p > d and p != ell and _trial_prime(p)]
        assert calls[start:] == candidates, (n, ell, t, d)
    assert in_certify == [0] * len(PRIME_GRID)
    assert len(calls) == 767


def test_orders_modulo_a_found_prime_factor_only_p_minus_1(monkeypatch):
    # every order modulo a prime p the search has proved prime is found
    # from the multiple p - 1, so p itself is never factored: one
    # factorization of 2n per cell, one of p - 1 per candidate prime (767)
    # and one per certified pair (192); mult_order would add a
    # factorization of p to each of the last two
    calls = []
    factorize = numth.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(numth, "factorize", counted)
    monkeypatch.setattr(primesearch, "factorize", counted)
    for args in PRIME_GRID:
        cert = find_prime_pair(SearchRequest(*args))
        assert cert.pair.p - 1 in calls and cert.pair.p not in calls
    assert len(calls) == 192 + 767 + 192


def _pow_forcing(ell, p, n, t):
    # the validator's former formulation, kept as the oracle of the walk:
    # about f * n modular powers ell^(2ik) mod p
    f = next(k for k in range(1, p) if pow(ell, k, p) == 1)
    forcing_ok, first = True, None
    for k in range(1, f + 1):
        if any(pow(ell, 2 * i * k, p) == 1 for i in range(1, n + 1)):
            if first is None:
                first = k
            if k % t != 0:
                forcing_ok = False
    return forcing_ok, first


def test_forcing_walk_matches_modular_powers_on_the_grid():
    for n, ell, t, d in PRIME_GRID:
        req = SearchRequest(n, ell, t, d)
        cert = find_prime_pair(req)
        p = cert.pair.p
        want = _pow_forcing(ell, p, n, t)
        assert primesearch._forcing_walk(ell, p, n, t) == want, req
        assert want == (True, cert.k_min), req


PRIMES_BELOW_400 = [x for x in range(2, 400) if _trial_prime(x)]


@given(st.sampled_from(PRIMES_BELOW_400), st.sampled_from(PRIMES_BELOW_400),
       st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=200)
def test_forcing_walk_matches_modular_powers(ell, p, n, t):
    assume(ell != p)
    assert primesearch._forcing_walk(ell, p, n, t) == \
        _pow_forcing(ell, p, n, t)


def test_k_min_off_by_one_fails():
    for args in PRIME_GRID:
        cert = find_prime_pair(SearchRequest(*args))
        assert validate_certificate(cert)["k_min_agrees"], args
        for k_min in (cert.k_min - 1, cert.k_min + 1):
            verdict = validate_certificate(
                SearchCertificate(cert.request, cert.pair, k_min,
                                  cert.checks, cert.flags))
            assert not verdict["k_min_agrees"], (args, k_min)
            assert not verdict["all_ok"], (args, k_min)
