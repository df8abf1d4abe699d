import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ggt.errors import ResourceBoundExceeded
from ggt.numth import mult_order
from ggt.roots import (FrobeniusOrbit, RootOfUnity, check_selfdual_orbit,
                       frobenius_orbit, selfdual_root)

roots = st.builds(RootOfUnity,
                  st.integers(min_value=-40, max_value=40),
                  st.integers(min_value=1, max_value=40))


def test_normalization():
    assert RootOfUnity(5, 10) == RootOfUnity(1, 2)
    assert RootOfUnity(-1, 3) == RootOfUnity(2, 3)
    assert RootOfUnity(7, -3) == RootOfUnity(-7, 3)
    assert RootOfUnity(12, 4).is_one
    with pytest.raises(ValueError):
        RootOfUnity(1, 0)


def test_parse_str_round_trip():
    for text in ("1/3", "0/1", "5/7", "1/2"):
        r = RootOfUnity.parse(text)
        assert str(r) == text
    assert RootOfUnity.parse("2") == RootOfUnity(0, 1)
    assert RootOfUnity.parse("-1/4") == RootOfUnity(3, 4)


@given(roots, roots)
def test_mul_is_exponent_addition(a, b):
    got = a * b
    want = (Fraction(a.num, a.den) + Fraction(b.num, b.den)) % 1
    assert Fraction(got.num, got.den) == want


@given(roots, st.integers(min_value=-20, max_value=20))
def test_pow_is_exponent_scaling(r, k):
    assert Fraction(r.num, r.den) * k % 1 == (r**k).exponent()


@given(roots)
def test_inverse_cancels(r):
    assert (r * r.inverse()).is_one


def test_orbit_structure():
    orb = frobenius_orbit(RootOfUnity(1, 7), 3)
    assert [r.num for r in orb.elements] == [1, 3, 2, 6, 4, 5]
    assert orb.selfdual
    # consecutive elements differ by the power q, cyclically
    for i, r in enumerate(orb.elements):
        assert r**3 == orb.elements[(i + 1) % orb.size]
    # canonical rotation: smallest exponent first
    assert orb.elements[0].num == min(r.num for r in orb.elements)


def test_orbit_size_is_multiplicative_order():
    for q in (3, 5, 7, 11):
        for den in range(3, 60):
            if math.gcd(q, den) != 1:
                continue
            orb = frobenius_orbit(RootOfUnity(1, den), q)
            assert orb.size == mult_order(q, den)


def test_orbit_rejects_shared_factor():
    with pytest.raises(ValueError):
        frobenius_orbit(RootOfUnity(1, 6), 3)


def test_orbit_bound():
    # 7 has order 500000003 mod 10^9 + 7: stopped at the bound
    with pytest.raises(ResourceBoundExceeded):
        frobenius_orbit(RootOfUnity(1, 1_000_000_007), 7, bound=1000)
    # an orbit exactly at the bound is still built
    assert frobenius_orbit(RootOfUnity(1, 7), 3, bound=6).size == 6
    with pytest.raises(ResourceBoundExceeded):
        frobenius_orbit(RootOfUnity(1, 7), 3, bound=5)


def test_orbit_of_one_is_trivial():
    orb = frobenius_orbit(RootOfUnity(0, 1), 5)
    assert orb.size == 1 and not orb.elements[0].den > 1


def test_selfdual_orbit_lemma_small():
    # every self-dual orbit of a root other than +-1 has even size with
    # the inverse exactly half way along
    for q in (3, 5, 7):
        for den in range(3, 61):
            if math.gcd(q, den) != 1:
                continue
            seen = set()
            for a in range(1, den):
                if math.gcd(a, den) != 1 or a in seen:
                    continue
                orb = frobenius_orbit(RootOfUnity(a, den), q)
                seen.update(r.num for r in orb.elements)
                assert check_selfdual_orbit(orb), (q, a, den)


def test_check_selfdual_rejects_unit_orbits():
    with pytest.raises(ValueError):
        check_selfdual_orbit(frobenius_orbit(RootOfUnity(0, 1), 3))
    with pytest.raises(ValueError):
        check_selfdual_orbit(frobenius_orbit(RootOfUnity(1, 2), 3))


def test_selfdual_root_explicit_and_maximal():
    assert selfdual_root(7, 3, 43) == RootOfUnity(1, 43)
    # 7^3 + 1 = 8 * 43 and 43 is the largest factor of order exactly 6
    assert selfdual_root(7, 3) == RootOfUnity(1, 43)
    tau = selfdual_root(5, 2)
    orb = frobenius_orbit(tau, 5)
    assert orb.size == 4 and orb.selfdual


def test_selfdual_root_rejects():
    with pytest.raises(ValueError):
        selfdual_root(6, 2)
    with pytest.raises(ValueError):
        selfdual_root(7, 3, 7)
    with pytest.raises(ValueError):
        selfdual_root(7, 3, 11)  # order of 7 mod 11 is 10, not 6


def test_orbit_json_round_trip():
    orb = frobenius_orbit(RootOfUnity(2, 9), 5)
    again = FrobeniusOrbit.from_json(orb.to_json())
    assert again == orb


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=2, max_value=60), st.data())
def test_orbit_elements_are_reduced_roots(den, q, data):
    # the elements skip the reduction in RootOfUnity.__init__, and still
    # compare, hash and serialize as reduced roots; selfdual read off the
    # exponent set agrees with looking the inverse up among the elements
    assume(math.gcd(q, den) == 1)
    a = data.draw(st.sampled_from(
        [a for a in range(den) if math.gcd(a, den) == 1]))
    orbit = frobenius_orbit(RootOfUnity(a, den), q)
    built = tuple(RootOfUnity(r.num, r.den) for r in orbit.elements)
    assert orbit.elements == built
    assert [(r.num, r.den) for r in orbit.elements] == [
        (r.num, r.den) for r in built]
    assert hash(orbit.elements) == hash(built)
    assert orbit.selfdual == (orbit.elements[0].inverse() in built)
    again = FrobeniusOrbit(q=q, elements=built)
    assert again == orbit and hash(again) == hash(orbit)
    assert again.to_json() == orbit.to_json()
    assert FrobeniusOrbit.from_json(orbit.to_json()) == orbit
