import pickle
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ggt.cyclotomic import Cyc
from ggt.monomial import MonomialMatrix, antidiagonal_pairing
from ggt.roots import ONE, RootOfUnity


@st.composite
def monomials(draw, dim=None):
    # denominators divide 12 so oracle products stay in Cyc(12)
    d = dim if dim is not None else draw(st.integers(2, 5))
    perm = tuple(draw(st.permutations(range(d))))
    diag = tuple(RootOfUnity(draw(st.integers(0, 11)),
                             draw(st.sampled_from((1, 2, 3, 4, 6, 12))))
                 for _ in range(d))
    return MonomialMatrix(perm, diag)


def _entries(m, n):
    """Dense Cyc-matrix of a monomial matrix, for the oracle product."""
    out = [[Cyc.zero(n) for _ in range(m.dim)] for _ in range(m.dim)]
    for j in range(m.dim):
        out[m.perm[j]][j] = Cyc.from_root_of_unity(m.diag[j], n)
    return out


def _matmul(a, b, n):
    d = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(d)), Cyc.zero(n))
             for j in range(d)] for i in range(d)]


@given(monomials(dim=4), monomials(dim=4))
def test_product_matches_dense_oracle(a, b):
    n = lcm(*(r.den for r in a.diag + b.diag))
    got = _entries(a * b, n)
    want = _matmul(_entries(a, n), _entries(b, n), n)
    assert got == want


@given(monomials())
def test_inverse(m):
    assert (m * m.inverse()).is_identity
    assert (m.inverse() * m).is_identity


@given(monomials())
def test_det_multiplicative(m):
    assert (m.det() * m.inverse().det()).is_one


@given(monomials())
def test_det_is_one_reads_det_off_the_exponents(m):
    # m and m times diag(det(m)^-1, 1, ..., 1), whose det is 1
    fix = MonomialMatrix.diagonal(
        (m.det().inverse(),) + (ONE,) * (m.dim - 1))
    for x in (m, m * fix):
        assert x.det_is_one() == x.det().is_one
    assert (m * fix).det_is_one()


def test_det_sign_of_permutation():
    swap = MonomialMatrix.permutation((1, 0, 2))
    assert swap.det() == RootOfUnity(1, 2)
    cyc3 = MonomialMatrix.permutation((1, 2, 0))
    assert cyc3.det().is_one


@given(monomials(dim=4))
def test_preserves_form_matches_basis_pair_oracle(m):
    # B(e_i, e_j) = [iota(i) == j]; M e_j = diag[j] e_{perm[j]}, so
    # B(M e_i, M e_j) = diag[i] diag[j] [iota(perm[i]) == perm[j]]
    iota = antidiagonal_pairing(4)
    expected = all(
        (iota[m.perm[i]] == m.perm[j]) == (iota[i] == j)
        and (iota[i] != j or (m.diag[i] * m.diag[j]).is_one)
        for i in range(4) for j in range(4))
    assert m.preserves_form() == expected


def test_preserves_form_custom_pairing():
    # block swap pairing on 2 coordinates plus a fixed last coordinate
    iota = (1, 0, 2)
    t = MonomialMatrix.diagonal(
        (RootOfUnity(1, 3), RootOfUnity(2, 3), ONE))
    assert t.preserves_form(iota)
    assert not t.preserves_form()  # antidiagonal pairs t with itself
    with pytest.raises(ValueError):
        t.preserves_form((1, 2, 0))


def test_trace():
    m = MonomialMatrix((0, 2, 1), (RootOfUnity(1, 2), ONE, ONE))
    assert m.trace_int() == m.inverse().trace_int() == -1
    bad = MonomialMatrix.diagonal((RootOfUnity(1, 3),))
    with pytest.raises(ValueError):
        bad.trace_int()


def test_validation():
    with pytest.raises(ValueError):
        MonomialMatrix((0, 0), (ONE, ONE))
    with pytest.raises(ValueError):
        MonomialMatrix((0, 1), (ONE,))
    with pytest.raises(ValueError):
        MonomialMatrix.identity(2) * MonomialMatrix.identity(3)


@given(monomials())
def test_json_round_trip(m):
    back = MonomialMatrix.from_json(m.to_json())
    assert back == m and hash(back) == hash(m)
    assert back.to_json() == m.to_json()
    assert pickle.loads(pickle.dumps(m)) == m


@st.composite
def mixed_pairs(draw):
    # each factor takes its denominators from its own pool of divisors of
    # 60, so the two moduli usually differ and the product lifts both
    d = draw(st.integers(1, 4))
    pools = ((1, 2, 3, 4), (5, 6, 10, 12), (15, 20, 30, 60))
    pair = []
    for _ in range(2):
        pool = draw(st.sampled_from(pools))
        perm = tuple(draw(st.permutations(range(d))))
        diag = tuple(RootOfUnity(draw(st.integers(0, 59)),
                                 draw(st.sampled_from(pool)))
                     for _ in range(d))
        pair.append(MonomialMatrix(perm, diag))
    return tuple(pair)


@given(mixed_pairs())
def test_mixed_moduli_product_matches_dense_oracle(pair):
    a, b = pair
    ab = a * b
    assert _entries(ab, 60) == _matmul(_entries(a, 60), _entries(b, 60), 60)
    # the modulus is the lcm of the entry orders, so rebuilding the product
    # from its entries gives the same tuple and hash
    assert ab.n == lcm(*(r.den for r in ab.diag))
    rebuilt = MonomialMatrix(ab.perm, ab.diag)
    assert tuple(rebuilt) == tuple(ab) and hash(rebuilt) == hash(ab)


def test_canonical_modulus():
    assert MonomialMatrix.diagonal((RootOfUnity(2, 4), ONE)) == \
        MonomialMatrix.diagonal((RootOfUnity(1, 2), ONE))
    quarter = MonomialMatrix.diagonal((RootOfUnity(1, 4), RootOfUnity(2, 4)))
    half = MonomialMatrix.diagonal((RootOfUnity(1, 2), ONE))
    square = quarter * quarter
    assert square == half and hash(square) == hash(half)
    assert square.n == 2 and len({square, half}) == 1
    # entries that cancel leave modulus 1, the identity itself
    t = MonomialMatrix((1, 0), (RootOfUnity(1, 3), RootOfUnity(2, 3)))
    assert t * t == MonomialMatrix.identity(2)
    assert hash(t * t) == hash(MonomialMatrix.identity(2))
    assert (t * t).n == 1 and (t * t).is_identity
    sign = MonomialMatrix.diagonal((RootOfUnity(1, 2), ONE))
    assert (sign * t).n == 6 and (t * sign).n == 6


def test_dimension_one():
    a = MonomialMatrix.diagonal((RootOfUnity(1, 4),))
    b = MonomialMatrix.diagonal((RootOfUnity(1, 6),))
    assert (a * b).diag == (RootOfUnity(5, 12),)
    assert a * a == MonomialMatrix.diagonal((RootOfUnity(1, 2),))
    assert (a * a * a * a).is_identity
    assert a.inverse() == MonomialMatrix.diagonal((RootOfUnity(3, 4),))
    assert a.det() == RootOfUnity(1, 4)
    one = MonomialMatrix.identity(1)
    assert one * one == one and one.perm == (0,) and one.dim == 1


def test_permutation_matrices_keep_modulus_one():
    c = MonomialMatrix.permutation((1, 2, 0))
    assert c * c == MonomialMatrix.permutation((2, 0, 1))
    assert (c * c).n == 1 and (c * c * c).is_identity


def test_not_a_sequence():
    # stored as a tuple, but len, + and integer repetition still fail
    m = MonomialMatrix.diagonal((RootOfUnity(1, 2), ONE))
    assert m and m.dim == 2
    with pytest.raises(TypeError):
        len(m)
    with pytest.raises(TypeError):
        m + m
    with pytest.raises(TypeError):
        2 * m
    with pytest.raises(TypeError):
        m * 2
