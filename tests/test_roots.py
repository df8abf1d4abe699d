import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ggt.roots
from ggt.errors import ResourceBoundExceeded
from ggt.numth import mult_order
from ggt.roots import (FrobeniusOrbit, RootOfUnity, check_selfdual_orbit,
                       frobenius_orbit, selfdual_root)
from ggt.weilparams import build_tame_parameter

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


def test_orbit_bound(monkeypatch):
    # 7 has order 500000003 mod 10^9 + 7: stopped at the bound
    monkeypatch.setattr("ggt.roots.DEFAULT_ORBIT_BOUND", 1000)
    with pytest.raises(ResourceBoundExceeded,
                       match="^Frobenius orbit exceeded 1000 elements$"):
        frobenius_orbit(RootOfUnity(1, 1_000_000_007), 7)
    # an orbit exactly at the bound is still built
    monkeypatch.setattr("ggt.roots.DEFAULT_ORBIT_BOUND", 6)
    assert frobenius_orbit(RootOfUnity(1, 7), 3).size == 6
    monkeypatch.setattr("ggt.roots.DEFAULT_ORBIT_BOUND", 5)
    with pytest.raises(ResourceBoundExceeded):
        frobenius_orbit(RootOfUnity(1, 7), 3)


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
    # elements writes the exponents into roots as they are, so JSON from
    # outside must hold units mod den
    for exps in ([2], [4], [-1], [1, 2]):
        with pytest.raises(ValueError, match="not units mod 4"):
            FrobeniusOrbit.from_json({"q": 7, "den": 4, "exponents": exps})


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
    again = FrobeniusOrbit(q=q, den=den,
                           exponents=tuple(r.num for r in built))
    assert again == orbit and hash(again) == hash(orbit)
    assert again.to_json() == orbit.to_json()
    assert FrobeniusOrbit.from_json(orbit.to_json()) == orbit


def test_an_orbit_makes_no_root_beyond_its_input(monkeypatch):
    # every root, from the constructor or from an orbit's elements, has
    # its num slot written once by ggt.roots._set_num
    made = []
    set_num = ggt.roots._set_num
    monkeypatch.setattr(ggt.roots, "_set_num",
                        lambda r, num: (made.append(num), set_num(r, num)))
    tau = RootOfUnity(1, 43)
    assert made == [1]
    orbit = frobenius_orbit(tau, 7)
    assert orbit.size == 6 and orbit.selfdual
    again = FrobeniusOrbit.from_json(orbit.to_json())
    assert again == orbit and hash(again) == hash(orbit)
    assert again.to_json() == orbit.to_json()
    assert check_selfdual_orbit(orbit)
    build_tame_parameter(7, (tau,), 3)
    assert made == [1]
    # a caller that asks for the roots gets them, made afresh
    assert orbit.elements == orbit.elements
    assert made == [1] + list(orbit.exponents) * 2


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=2, max_value=60), st.data())
def test_elements_are_the_reduced_roots_of_the_exponents(den, q, data):
    # elements is read-only and equals, as a tuple of roots, what the
    # constructor makes of each exponent over den, for an orbit from
    # frobenius_orbit and for one rebuilt from its fields or its JSON
    assume(math.gcd(q, den) == 1)
    a = data.draw(st.sampled_from(
        [a for a in range(den) if math.gcd(a, den) == 1]))
    orbit = frobenius_orbit(RootOfUnity(a, den), q)
    want = tuple(RootOfUnity(e, den) for e in orbit.exponents)
    for o in (orbit, FrobeniusOrbit(q, den, orbit.exponents),
              FrobeniusOrbit.from_json(orbit.to_json())):
        assert o.elements == want and hash(o.elements) == hash(want)
        assert [(r.num, r.den) for r in o.elements] == [
            (r.num, r.den) for r in want]
    with pytest.raises(AttributeError):
        orbit.elements = want


def test_orbit_exponents_and_selfdual_match_their_definitions():
    # every prime q < 50 and every den <= 100 prime to it, every orbit of
    # the units mod den: the exponents and selfdual read when the orbit is
    # made agree with the elements, and survive a JSON round trip
    primes = [q for q in range(2, 50) if all(q % k for k in range(2, q))]
    for q in primes:
        for den in range(1, 101):
            if math.gcd(q, den) != 1:
                continue
            seen = set()
            for a in range(den):
                if math.gcd(a, den) != 1 or a in seen:
                    continue
                orbit = frobenius_orbit(RootOfUnity(a, den), q)
                exps = [r.num for r in orbit.elements]
                seen.update(exps)
                assert orbit.exponents == tuple(exps)
                assert orbit.to_json()["exponents"] == exps
                assert orbit.selfdual == (
                    RootOfUnity(-a, den) in orbit.elements), (q, a, den)
                again = FrobeniusOrbit.from_json(orbit.to_json())
                assert again == orbit and again.selfdual == orbit.selfdual
                assert again.exponents == orbit.exponents
                if den > 2:
                    assert check_selfdual_orbit(orbit), (q, a, den)
            assert len(seen) == sum(math.gcd(a, den) == 1
                                    for a in range(den))


def test_root_is_an_immutable_value():
    # the constructor and the orbit's slot writes give one value
    slow = RootOfUnity(6, 14)
    orbit = frobenius_orbit(RootOfUnity(1, 7), 3)
    fast = orbit.elements[1]
    assert slow == fast and hash(slow) == hash(fast) == hash((3, 7))
    assert (slow.num, slow.den) == (fast.num, fast.den) == (3, 7)
    # no assignment, deletion or new attribute
    for attr in ("num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(slow, attr, 1)
    with pytest.raises(AttributeError):
        del slow.den
    assert (slow.num, slow.den) == (3, 7)
    # a root is not a tuple: it neither equals nor unpacks like one
    assert slow != (3, 7) and (3, 7) != slow
    assert not hasattr(slow, "__len__") and not hasattr(slow, "__iter__")
    # pickling and copying rebuild an equal root
    for back in (pickle.loads(pickle.dumps(slow)), copy.copy(slow),
                 copy.deepcopy(fast)):
        assert type(back) is RootOfUnity
        assert back == slow and hash(back) == hash(slow)
    assert pickle.loads(pickle.dumps(orbit)) == orbit
    assert FrobeniusOrbit.from_json(orbit.to_json()).elements == \
        orbit.elements
