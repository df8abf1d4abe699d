import pytest
from hypothesis import given
from hypothesis import strategies as st

from ggt.cyclotomic import Cyc, _Ctx
from ggt.numth import cyclotomic_poly
from ggt.roots import RootOfUnity


def _rand_cyc(n):
    return st.lists(st.integers(min_value=-5, max_value=5),
                    min_size=n, max_size=n).map(lambda v: Cyc(n, tuple(v)))


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(_rand_cyc(n), _rand_cyc(n), _rand_cyc(n))))
def test_ring_axioms(abc):
    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Cyc.zero(a.n)


def test_prime_root_sum_vanishes():
    for p in (2, 3, 5, 7, 11):
        total = Cyc.zero(p)
        for k in range(p):
            total = total + Cyc.root(p, k)
        assert total.is_zero()


def test_power_wraps():
    z = Cyc.root(12, 1)
    acc = Cyc.integer(12, 1)
    for _ in range(12):
        acc = acc * z
    assert acc == Cyc.integer(12, 1)


def test_rational_recognition():
    assert Cyc.root(4, 2) == Cyc.integer(4, -1)
    assert Cyc.root(6, 3).rational_value() == -1
    assert Cyc.root(8, 1).rational_value() is None
    # zeta_6 + zeta_6^5 = 1
    assert (Cyc.root(6, 1) + Cyc.root(6, 5)).rational_value() == 1


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=40))
def test_conj_inverts_roots(n, k):
    assert Cyc.root(n, k).conj() == Cyc.root(n, -k)


def test_from_root_of_unity():
    r = RootOfUnity(1, 3)
    assert Cyc.from_root_of_unity(r, 6) == Cyc.root(6, 2)
    with pytest.raises(ValueError):
        Cyc.from_root_of_unity(r, 4)


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Cyc.integer(3, 1) + Cyc.integer(4, 1)


def test_vector_length_checked():
    with pytest.raises(ValueError):
        Cyc(3, (1, 0))


def _reduce_by(vec: list[int], poly: tuple[int, ...]) -> list[int]:
    # remainder of vec modulo the monic integer polynomial poly, by long
    # division from the top coefficient down
    deg = len(poly) - 1
    vec = list(vec) + [0] * max(0, deg - len(vec))
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for j in range(deg + 1):
                vec[i - deg + j] -= c * poly[j]
    return vec[:deg]


@pytest.mark.parametrize("n", [4, 12, 30, 60, 210, 990])
def test_power_table_rows_are_the_reduced_powers(n):
    # each row x^k mod Phi_n, built from the row before, against the
    # division of x^k itself
    poly = cyclotomic_poly(n)
    want = [tuple(_reduce_by([0] * k + [1], poly)) for k in range(n)]
    assert _Ctx(n).powtable == want
