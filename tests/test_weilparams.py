import hashlib
import itertools
import json
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggt import fingroup, weilparams
from ggt.cyclotomic import Cyc
from ggt.errors import ResourceBoundExceeded
from ggt.fingroup import is_type_np
from ggt.roots import MINUS_ONE, ONE, RootOfUnity
from ggt.weilparams import (RealParameter, TameParameter,
                            build_tame_parameter, char_poly_shape,
                            g2_admissible_eigenvalues, is_g2_parameter,
                            is_g2_real, palindrome_split, parameter_image,
                            real_parameter, satake_lift_g2)


def test_small_tame_parameter():
    # q = 5, tau of order 3: single orbit of size 2, dimension 3
    param = build_tame_parameter(5, [RootOfUnity(1, 3)], 1)
    assert param.dim == 3
    exps = [r.exponent() for r in param.inertia.diag]
    assert exps == [Fraction(1, 3), Fraction(2, 3), Fraction(0)]
    assert param.frobenius.perm == (1, 0, 2)
    assert [r.exponent() for r in param.frobenius.diag] == \
        [0, 0, Fraction(1, 2)]
    checks = param.checks()
    assert checks["det"] and checks["form"] and checks["conj_relation"]


def test_degree_six_tame_parameter():
    # q = 7 has order 6 mod 43, giving a 7-dimensional parameter
    tau = RootOfUnity(1, 43)
    param = build_tame_parameter(7, [tau], 3)
    assert param.dim == 7
    exps = [r.exponent() * 43 for r in param.inertia.diag]
    assert exps == [1, 7, 6, 42, 36, 37, 0]
    checks = param.checks()
    assert checks["det"] and checks["form"] and checks["conj_relation"]


def test_tame_checks_run_once(monkeypatch):
    from ggt import weilparams
    calls = []

    def counting(param):
        calls.append(param)
        return is_g2_parameter(param)

    monkeypatch.setattr(weilparams, "is_g2_parameter", counting)
    param = build_tame_parameter(7, [RootOfUnity(1, 43)], 3)
    checks = param.checks()
    data = param.to_json()
    assert len(calls) == 1
    assert data["checks"] == checks
    # every caller gets its own copy of the cached result
    checks["det"] = False
    checks["g2"]["is_g2"] = None
    assert param.checks() == data["checks"] != checks
    assert param.checks() is not param.checks()


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tame_parameter(6, [RootOfUnity(1, 3)], 1)  # q not prime
    with pytest.raises(ValueError):
        build_tame_parameter(5, [ONE], 1)  # trivial tau
    with pytest.raises(ValueError):
        # orbit of 1/11 under q = 5 has odd size 5, not self-dual
        build_tame_parameter(5, [RootOfUnity(1, 11)], 3)
    with pytest.raises(ValueError):
        # same orbit twice
        build_tame_parameter(5, [RootOfUnity(1, 3), RootOfUnity(2, 3)], 2)
    with pytest.raises(ValueError):
        # orbit sizes sum to 2, but n = 2 was requested
        build_tame_parameter(5, [RootOfUnity(1, 3)], 2)


def test_build_error_messages():
    with pytest.raises(ValueError, match=r"^orbit of 1/11 is not self-dual "
                       r"of even size: size 5, selfdual False$"):
        build_tame_parameter(5, [RootOfUnity(1, 11)], 3)
    with pytest.raises(ValueError,
                       match="^orbit of 2/3 repeats an earlier orbit$"):
        build_tame_parameter(5, [RootOfUnity(1, 3), RootOfUnity(2, 3)], 2)
    with pytest.raises(ValueError,
                       match="^orbit sizes sum to 6, need 8$"):
        build_tame_parameter(3, [RootOfUnity(1, 5), RootOfUnity(1, 4)], 4)


def _order(a, n):
    k, x = 1, a % n
    while x != 1:
        x, k = x * a % n, k + 1
    return k


# SHA-256 of the JSON of every parameter of _tame_cases, as the builder
# that held each entry as a RootOfUnity wrote them
TAME_DIGEST = \
    "00f955a907ed4e4938da11a8fa408614f0c5621b24bef4cc4d31cd06b88b61c3"


def _tame_cases():
    # the 65 cells (q, p) of the benchmark's tame grid: q < 50 and p < 500
    # primes with ord_p(q) even and at most 8, tau = 1/p; then two orbits,
    # and three orbits at n = 3
    primes = [p for p in range(2, 500) if all(p % k for k in range(2, p))]
    cells = [(q, p) for q in primes if q < 50 for p in primes
             if p > 2 and p != q and _order(q, p) % 2 == 0
             and _order(q, p) <= 8]
    assert len(cells) == 65
    cases = [(q, [RootOfUnity(1, p)], _order(q, p) // 2) for q, p in cells]
    return cases + [
        (3, [RootOfUnity(1, 5), RootOfUnity(1, 4)], 3),
        (11, [RootOfUnity(1, 3), RootOfUnity(1, 12), RootOfUnity(7, 12)], 3)]


def test_tame_parameters_match_the_pinned_digest():
    data = [build_tame_parameter(q, taus, n).to_json()
            for q, taus, n in _tame_cases()]
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert digest == TAME_DIGEST


def test_parameter_image_order():
    param = build_tame_parameter(5, [RootOfUnity(1, 3)], 1)
    image = parameter_image(param)
    assert image.order == 6  # 2 * 1 * 3
    assert is_type_np(image, 2, 3) is not None

    param = build_tame_parameter(7, [RootOfUnity(1, 43)], 3)
    image = parameter_image(param)
    assert image.order == 258  # 2 * 3 * 43
    w = is_type_np(image, 6, 43)
    assert w is not None and w.image_order == 6


def test_parameter_image_bound(monkeypatch):
    # the image of order 258 is refused from its presentation, one
    # element past the closure bound
    param = build_tame_parameter(7, [RootOfUnity(1, 43)], 3)
    monkeypatch.setattr(fingroup, "DEFAULT_CLOSURE_BOUND", 258)
    assert parameter_image(param).order == 258
    monkeypatch.setattr(fingroup, "DEFAULT_CLOSURE_BOUND", 257)
    with pytest.raises(ResourceBoundExceeded,
                       match="^group closure exceeded 257 elements$"):
        parameter_image(param)


def test_g2_condition_single_orbit():
    # 43 divides 7^2 - 7 + 1, so the parameter lands in the small subgroup
    param = build_tame_parameter(7, [RootOfUnity(1, 43)], 3)
    verdict = is_g2_parameter(param)
    assert verdict.is_g2 and bool(verdict)
    assert "tau^(q^2-q+1)" in verdict.reason

    # for tau of composite order 9 under q = 2 the power tau^3 survives;
    # prime-order taus cannot produce this failure, their order-6 orbit
    # forces p | q^2 - q + 1
    param = build_tame_parameter(2, [RootOfUnity(1, 9)], 3)
    assert not is_g2_parameter(param).is_g2


def test_g2_condition_three_orbits():
    # three order-2 orbits; q = 11 inverts each tau
    pos = build_tame_parameter(
        11, [RootOfUnity(1, 3), RootOfUnity(1, 12), RootOfUnity(7, 12)], 3)
    assert is_g2_parameter(pos).is_g2  # 1/3 + 1/12 + 7/12 = 1

    neg = build_tame_parameter(
        11, [RootOfUnity(1, 3), RootOfUnity(1, 4), RootOfUnity(1, 6)], 3)
    assert not is_g2_parameter(neg).is_g2  # no sign choice sums to 0


def test_g2_condition_two_orbits_never():
    # q = 3: orbits of 1/5 (size 4) and 1/4 (size 2)
    param = build_tame_parameter(
        3, [RootOfUnity(1, 5), RootOfUnity(1, 4)], 3)
    verdict = is_g2_parameter(param)
    assert not verdict.is_g2
    assert "2 orbits" in verdict.reason


def test_g2_requires_seven_dimensions():
    param = build_tame_parameter(5, [RootOfUnity(1, 3)], 1)
    with pytest.raises(ValueError):
        is_g2_parameter(param)


def test_g2_matches_eigenvalue_criterion():
    # structural verdict vs exhaustive pairing search on the eigenvalues
    for q, den in [(7, 43), (3, 7), (5, 7), (11, 37), (2, 9), (5, 9)]:
        param = build_tame_parameter(q, [RootOfUnity(1, den)], 3)
        by_structure = is_g2_parameter(param).is_g2
        by_eigs = g2_admissible_eigenvalues(param.eigenvalues())
        assert by_structure == by_eigs, (q, den)


def test_satake_lift():
    a, b = RootOfUnity(1, 7), RootOfUnity(2, 7)
    c = (a * b).inverse()
    eigs = satake_lift_g2((a, b, c))
    assert len(eigs) == 7
    assert eigs.count(ONE) == 1
    assert g2_admissible_eigenvalues(eigs)
    shape = char_poly_shape(eigs)
    assert shape.passes
    assert shape.rational_abc() is not None
    with pytest.raises(ValueError):
        satake_lift_g2((a, b, b))  # product not 1
    with pytest.raises(ValueError):
        satake_lift_g2((a, a.inverse()))


def test_g2_admissible_negative():
    bad = (ONE,) * 5 + (MINUS_ONE, MINUS_ONE)
    assert not g2_admissible_eigenvalues(bad)
    i = RootOfUnity(1, 4)
    z3 = RootOfUnity(1, 3)
    z5 = RootOfUnity(1, 5)
    scattered = (ONE, i, i.inverse(), z3, z3.inverse(), z5, z5.inverse())
    assert not g2_admissible_eigenvalues(scattered)
    assert not g2_admissible_eigenvalues((z3,) * 7)  # no eigenvalue 1
    with pytest.raises(ValueError):
        g2_admissible_eigenvalues((ONE,) * 6)


def _matchings(items):
    """Every split of items into unordered pairs."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for pairs in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + pairs


def _brute_g2_admissible(eigs):
    # every choice of the eigenvalue 1, every pairing of the other six
    # into mutually inverse pairs and every choice of one member a pair
    for k, one in enumerate(eigs):
        if not one.is_one:
            continue
        for pairs in _matchings(eigs[:k] + eigs[k + 1:]):
            if not all((a * b).is_one for a, b in pairs):
                continue
            for chosen in itertools.product(*pairs):
                if (chosen[0] * chosen[1] * chosen[2]).is_one:
                    return True
    return False


_ROOTS = st.one_of(
    st.sampled_from([ONE, MINUS_ONE]),
    st.builds(RootOfUnity, st.integers(0, 11), st.integers(1, 12)))


@st.composite
def _seven_roots(draw):
    # either any 7 roots, or 1 with three inverse pairs, whose product
    # is 1 only sometimes
    if draw(st.booleans()):
        return draw(st.lists(_ROOTS, min_size=7, max_size=7))
    l1, l2, l3 = draw(_ROOTS), draw(_ROOTS), draw(_ROOTS)
    if draw(st.booleans()):
        l3 = (l1 * l2).inverse()
    eigs = [ONE, l1, l1.inverse(), l2, l2.inverse(), l3, l3.inverse()]
    return draw(st.permutations(eigs))


@given(_seven_roots())
def test_pairing_search_matches_brute_force(eigs):
    # multisets of roots of order <= 12, repeated entries and +-1 among
    # them, against every pairing and every sign choice
    expected = _brute_g2_admissible(list(eigs))
    assert g2_admissible_eigenvalues(eigs) == expected
    n = lcm(*(e.den for e in eigs))
    rest = [e.num * (n // e.den) for e in eigs]
    if 0 in rest:
        rest.remove(0)
        assert weilparams._pairing_search(rest, 0, n) == expected


def test_palindrome_split_positive():
    z = RootOfUnity(1, 5)
    eigs = (ONE, z, z.inverse(), z * z, (z * z).inverse())
    ok, coeffs = palindrome_split(eigs)
    assert ok
    assert coeffs[0] == Cyc.integer(5, 1)
    assert coeffs == tuple(reversed(coeffs))


def test_palindrome_split_negative_determinant():
    eigs = (ONE,) * 6 + (MINUS_ONE,)
    ok, coeffs = palindrome_split(eigs)
    assert not ok
    assert coeffs != tuple(reversed(coeffs))


def test_palindrome_split_requires_self_dual_multiset():
    z = RootOfUnity(1, 5)
    with pytest.raises(ValueError):
        palindrome_split((z, z.inverse()))  # no eigenvalue 1
    with pytest.raises(ValueError):
        palindrome_split((ONE, z, z))  # not closed under inversion


def test_palindrome_split_modulus_bound(monkeypatch):
    # the least common order of the eigenvalues is refused past the bound
    assert weilparams._MODULUS_BOUND == 1000
    z = RootOfUnity(1, 5)
    eigs = (ONE, z, z.inverse())
    monkeypatch.setattr(weilparams, "_MODULUS_BOUND", 5)
    assert palindrome_split(eigs)[0]
    monkeypatch.setattr(weilparams, "_MODULUS_BOUND", 4)
    with pytest.raises(ResourceBoundExceeded,
                       match="^cyclotomic modulus 5 exceeds the bound 4$"):
        palindrome_split(eigs)


def _float_palindrome(eigs) -> bool:
    vals = [np.exp(2j * np.pi * float(e.exponent())) for e in eigs]
    coeffs = np.poly(vals)
    quot, rem = np.polydiv(coeffs, np.array([1.0, -1.0]))
    assert abs(rem[-1]) < 1e-7
    return bool(np.allclose(quot, quot[::-1], atol=1e-7))


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 11),
                          st.sampled_from([2, 3, 4, 6])),
                min_size=0, max_size=3),
       st.booleans())
def test_palindrome_split_matches_float_oracle(pairs, extra_minus_one):
    eigs = [ONE]
    for num, den in pairs:
        r = RootOfUnity(num, den)
        eigs.append(r)
        if r != r.inverse():
            eigs.append(r.inverse())
    if extra_minus_one:
        eigs.append(MINUS_ONE)
    ok, _ = palindrome_split(tuple(eigs))
    assert ok == _float_palindrome(eigs)


def test_char_poly_shape():
    with pytest.raises(ValueError):
        char_poly_shape((ONE,) * 6)
    z = RootOfUnity(1, 9)
    eigs = satake_lift_g2((z, z * z, (z ** 3).inverse()))
    shape = char_poly_shape(eigs)
    assert shape.passes
    # coefficients run low to high; abc reads off the upper half
    assert shape.abc == (shape.coeffs[1], shape.coeffs[2], shape.coeffs[3])
    assert shape.coeffs[0] == shape.coeffs[6]


def test_real_parameter():
    par = real_parameter([Fraction(1, 2), 1, Fraction(3, 2)])
    assert par.a == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    chi = par.infinitesimal_character()
    assert len(chi) == 7 and chi.count(Fraction(0)) == 1
    assert is_g2_real(par)  # 1/2 + 1 - 3/2 = 0
    assert not is_g2_real(real_parameter(["1/2", "1", "2"]))
    with pytest.raises(ValueError):
        real_parameter([0, 1, 2])
    with pytest.raises(ValueError):
        real_parameter([1, -1, 2])
    with pytest.raises(ValueError):
        is_g2_real(real_parameter([1, 2]))


def test_parameter_json_round_trip():
    param = build_tame_parameter(7, [RootOfUnity(1, 43)], 3)
    data = param.to_json()
    assert data["dim"] == 7 and data["monodromy"] == 0
    assert TameParameter.from_json(data) == param

    par = real_parameter(["1/2", "1", "3/2"])
    assert RealParameter.from_json(par.to_json()) == par
