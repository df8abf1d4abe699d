import pytest

from ggt.errors import ResourceBoundExceeded
from ggt.fingroup import (FinGroup, Perm, closure, cyclic, direct_product,
                          is_type_np, is_type_npl, metacyclic)


def _sym(n):
    swap = Perm((1, 0) + tuple(range(2, n)))
    cyc = Perm(tuple(range(1, n)) + (0,))
    return FinGroup.generate([swap, cyc])


def _alt4():
    return FinGroup.generate([Perm((1, 2, 0, 3)), Perm((1, 0, 3, 2))])


def test_symmetric_group_basics():
    s3 = _sym(3)
    assert s3.order == 6
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]
    assert sorted(len(n) for n in s3.normal_subgroups()) == [1, 3, 6]
    assert s3.abelianization() == [2]
    assert sorted(s3.element_order(x) for x in s3.elements) == \
        [1, 2, 2, 2, 3, 3]


def test_alternating_group():
    a4 = _alt4()
    assert a4.order == 12
    assert a4.abelianization() == [3]
    assert sorted(len(n) for n in a4.normal_subgroups()) == [1, 4, 12]
    assert len(a4.commutator_subgroup()) == 4
    # normal subgroups of index <= 3: A4 and the Klein four group
    assert len(a4.index_core(3)) == 4
    assert len(a4.index_core(2)) == 12
    assert len(a4.index_core(12)) == 1


def test_closure_bound():
    with pytest.raises(ResourceBoundExceeded):
        closure([Perm((1, 2, 3, 4, 0))], bound=3)


def test_cyclic_group():
    c12 = cyclic(12)
    assert c12.order == 12
    assert c12.abelianization() == [12]
    orders = {c12.element_order(x) for x in c12.elements}
    assert orders == {1, 2, 3, 4, 6, 12}
    assert cyclic(1).order == 1
    for n in (0, -3):
        with pytest.raises(ValueError):
            cyclic(n)


def test_metacyclic_structure():
    g = metacyclic(6, 7)
    assert g.order == 42
    assert g.abelianization() == [6]
    assert len(g.commutator_subgroup()) == 7
    # normal subgroups: 1, C7, C14, C21, C42
    assert sorted(len(n) for n in g.normal_subgroups()) == [1, 7, 14, 21, 42]
    assert len(g.index_core(6)) == 7
    s3 = metacyclic(2, 3)
    assert s3.order == 6 and s3.abelianization() == [2]


def test_metacyclic_rejects_non_divisor():
    with pytest.raises(ValueError):
        metacyclic(4, 7)


def test_direct_product_and_quotient():
    g = direct_product(cyclic(3), metacyclic(2, 3))
    assert g.order == 18
    q, proj = g.quotient(g.commutator_subgroup())
    assert q.order == 6
    assert proj(g.identity).is_identity
    with pytest.raises(ValueError):
        s3 = _sym(3)
        sub = s3.subgroup_closure(
            [next(x for x in s3.elements if s3.element_order(x) == 2)])
        s3.quotient(sub)  # order-2 subgroups of S3 are not normal


def test_ell_core():
    s3 = metacyclic(2, 3)
    assert len(s3.ell_core(3)) == 3
    assert len(s3.ell_core(2)) == 1
    g = direct_product(cyclic(4), metacyclic(6, 7))
    assert len(g.ell_core(2)) == 4
    with pytest.raises(ValueError):
        s3.ell_core(6)


def test_type_np_detection():
    w = is_type_np(metacyclic(6, 7), 6, 7)
    assert w is not None and w.image_order == 6 and w.p == 7
    # the action has order exactly 6, so other orders must fail
    assert is_type_np(metacyclic(6, 7), 3, 7) is None
    assert is_type_np(metacyclic(6, 7), 2, 7) is None
    assert is_type_np(cyclic(12), 6, 7) is None
    assert is_type_np(_sym(3), 2, 3) is not None
    # abelian groups act trivially on everything
    assert is_type_np(cyclic(21), 2, 7) is None
    with pytest.raises(ValueError):
        is_type_np(metacyclic(6, 7), 1, 7)
    with pytest.raises(ValueError):
        is_type_np(metacyclic(6, 7), 6, 6)


def test_type_np_survives_products():
    g = direct_product(metacyclic(6, 7), cyclic(5))
    assert is_type_np(g, 6, 7) is not None
    assert is_type_np(g, 6, 5) is None


def test_type_npl():
    g = direct_product(cyclic(4), metacyclic(6, 7))
    assert is_type_npl(g, 6, 7, 2)
    assert not is_type_npl(g, 3, 7, 2)
    assert not is_type_npl(cyclic(12), 6, 7, 2)
    # no ell-part at all: reduces to the plain type check
    assert is_type_npl(metacyclic(6, 7), 6, 7, 5)
    with pytest.raises(ValueError):
        is_type_npl(g, 6, 7, 7)


def _battery():
    return [
        _sym(3),
        _alt4(),
        cyclic(12),
        metacyclic(6, 7),
        metacyclic(4, 5),
        direct_product(cyclic(3), metacyclic(2, 3)),
    ]


def test_index_core_commutes_with_quotients():
    # the image of the depth-d core under any quotient map is the
    # depth-d core of the quotient
    for g in _battery():
        for nsub in g.normal_subgroups():
            q, proj = g.quotient(nsub)
            for d in range(1, 9):
                image = {proj(x) for x in g.index_core(d)}
                assert image == set(q.index_core(d)), (g.order, len(nsub), d)


def test_quotient_by_ell_group_preserves_type():
    # killing a normal ell-subgroup (ell != p) keeps the type witness
    g = direct_product(cyclic(4), metacyclic(6, 7))
    for sub in g.normal_subgroups():
        if len(sub) not in (1, 2, 4):
            continue
        q, _ = g.quotient(sub)
        assert is_type_np(q, 6, 7) is not None, len(sub)


def test_fin_group_json():
    data = metacyclic(6, 7).to_json(d=6, type_np=(6, 7), ell=5)
    assert data["order"] == 42
    assert data["gamma_d"] == {"d": 6, "order": 7}
    assert data["type_np"]["found"] is True
    assert data["type_np"]["up_to_ell_core"] is True


def test_perm_basics():
    a = Perm((1, 2, 0))
    assert (a * a.inverse()).is_identity
    assert Perm.identity(3).is_identity
    assert a.sort_key() == (1, 2, 0)
