import pytest
from test_fingroup import _counting_mul

from ggt import wildtwo
from ggt.errors import ResourceBoundExceeded
from ggt.fingroup import FinGroup
from ggt.monomial import MonomialMatrix
from ggt.roots import MINUS_ONE, ONE
from ggt.wildtwo import (WildImageSO, build_g2_jordan, build_so_wild,
                         g2_jordan_report, mackey_decompose, so_wild_report)


def test_so_wild_smallest(so_wild):
    w = so_wild(3)
    assert w.group.order == 12
    rep = so_wild_report(w)
    assert rep["order_expected"]
    assert rep["abelianization"] == [3]
    assert rep["commutator"] == {"order": 4, "elementary_abelian": True}
    assert rep["commutator_expected"]
    assert rep["det_trivial"] and rep["irreducible"] and rep["selfdual"]
    assert rep["conjugates_distinct"]
    assert rep["joint_kernel_is_diagonal"]
    assert rep["g2_obstruction"] is None


def test_so_wild_det_decided_on_generators():
    # a single -1 has det -1; with the 3-cycle it generates all 24
    # sign-monomial matrices of size 3, and the report must see it
    flip = MonomialMatrix.diagonal((MINUS_ONE, ONE, ONE))
    cycle = MonomialMatrix.permutation((2, 0, 1))
    grp = FinGroup.generate([flip, cycle])
    assert grp.order == 24
    w = WildImageSO(m=3, sign_gens=(flip,), cycle=cycle, group=grp)
    assert so_wild_report(w)["det_trivial"] is False


def test_so_wild_five(so_wild):
    rep = so_wild_report(so_wild(5))
    assert rep["order"] == 80 and rep["order_expected"]
    assert rep["abelianization_cyclic_m"]
    assert rep["commutator"]["order"] == 16
    assert rep["irreducible"] and rep["selfdual"]


def test_so_wild_seven_g2_obstruction(so_wild):
    w = so_wild(7)
    rep = so_wild_report(w)
    assert rep["order"] == 448
    assert rep["g2_obstruction"] is True
    # the obstruction is visible on any single sign generator: eigenvalue
    # pattern (1^5, (-1)^2) admits no inverse-closed triple arrangement
    assert w.eigenvalue_multiset() == {1: 5, -1: 2}


def test_so_wild_rejects_bad_m():
    with pytest.raises(ValueError):
        build_so_wild(4)
    with pytest.raises(ValueError):
        build_so_wild(1)
    with pytest.raises(ValueError):
        build_so_wild(17)
    with pytest.raises(ResourceBoundExceeded):
        build_so_wild(11, bound=500)


def test_so_wild_report_deterministic(so_wild):
    w = so_wild(5)
    assert so_wild_report(w) == so_wild_report(w)


def test_jordan_group_shape(g2_jordan):
    assert g2_jordan.group.order == 168
    assert len(g2_jordan.jordan) == 8
    assert len(g2_jordan.triples) == 168
    assert g2_jordan.trace((0, 1, 0)) == 21


def test_jordan_report(g2_jordan):
    rep = g2_jordan_report(g2_jordan)
    assert rep["order"] == 168
    assert rep["normal_subgroup_orders"] == [1, 8, 56, 168]
    assert rep["jordan_order"] == 8
    assert rep["character_stabilizer_order"] == 3
    cons = rep["constituents"]
    assert [c["degree"] for c in cons] == [7, 7, 7]
    assert all(c["faithful"] for c in cons)
    assert sum(c["selfdual"] for c in cons) == 1


def test_mackey_constituent_identity(g2_jordan):
    cons = mackey_decompose(g2_jordan)
    assert [c.k for c in cons] == [0, 1, 2]
    selfdual = [c for c in cons if c.selfdual]
    assert len(selfdual) == 1 and selfdual[0].k == 0


def test_jordan_determinism():
    a = g2_jordan_report(build_g2_jordan())
    b = g2_jordan_report(build_g2_jordan())
    assert a == b


def test_f8_tables_match_definitions():
    for a in range(8):
        assert wildtwo._F8_MUL[a] == tuple(wildtwo._f8_mul(a, b)
                                           for b in range(8))
        for k in range(3):
            assert wildtwo._F8_FROB[k][a] == wildtwo._f8_pow2(a, k)
    # the units are cyclic of order 7, generated by x
    powers = [1]
    for _ in range(7):
        powers.append(wildtwo._F8_MUL[powers[-1]][0b10])
    assert powers[7] == 1 and sorted(powers[:7]) == list(range(1, 8))
    assert all(wildtwo._F8_MUL[a][wildtwo._F8_INV[a]] == 1
               for a in range(1, 8))


@pytest.mark.parametrize("changes, message", [
    ({(0, 1, 1): "flip"}, "past order 168"),
    ({(5, 3, 2): "flip"}, "outside the group"),
    ({(5, 3, 2): (6, 3, 2), (6, 3, 2): (5, 3, 2)}, "not a homomorphism"),
])
def test_g2_jordan_rejects_a_corrupted_model(monkeypatch, changes, message):
    # a generator with one sign flipped generates past order 168; another
    # matrix flipped lies outside the group; two matrices swapped stay
    # inside it but break the group law
    induced = wildtwo._induced_matrix

    def corrupted(g):
        c = changes.get(g, g)
        if c != "flip":
            return induced(c)
        m = induced(g)
        return MonomialMatrix(m.perm, (m.diag[0] * MINUS_ONE,) + m.diag[1:])

    monkeypatch.setattr(wildtwo, "_induced_matrix", corrupted)
    with pytest.raises(AssertionError, match=message):
        build_g2_jordan()


def test_mackey_rejects_a_corrupted_term(monkeypatch, g2_jordan):
    terms = wildtwo._conjugation_terms

    def corrupted(g2j):
        out = terms(g2j)
        sign, f = out[(3, 1, 0)][0]
        out[(3, 1, 0)][0] = (-sign, f)
        return out

    monkeypatch.setattr(wildtwo, "_conjugation_terms", corrupted)
    with pytest.raises(AssertionError):
        mackey_decompose(g2_jordan)


def test_g2_jordan_product_count(monkeypatch):
    # generate, the homomorphism check and normal_subgroups run on index
    # tables; what is left is build_g2_jordan squaring the 8 translations
    made = _counting_mul(monkeypatch, MonomialMatrix)
    g2_jordan_report(build_g2_jordan())
    assert len(made) == 8
