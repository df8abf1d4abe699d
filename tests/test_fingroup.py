from collections import Counter
from math import lcm
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggt import fingroup, monomial, walk
from ggt.errors import ResourceBoundExceeded
from ggt.fingroup import (FinGroup, cyclic, direct_product, is_type_np,
                          is_type_npl, metacyclic)
from ggt.fingroup import _split_metacyclic
from ggt.monomial import MonomialMatrix
from ggt.numth import is_prime, mult_order
from ggt.roots import ONE, RootOfUnity
from ggt.weilparams import build_tame_parameter, parameter_image
from ggt.wildtwo import build_g2_jordan, build_so_wild, so_wild_report

# permutations as permutation matrices, modulus 1: e_j -> e_img[j]
_pm = MonomialMatrix.permutation


def _so_wild_group(m):
    return FinGroup.generate(list(build_so_wild(m).generators))


def _sym(n):
    swap = _pm((1, 0) + tuple(range(2, n)))
    cyc = _pm(tuple(range(1, n)) + (0,))
    return FinGroup.generate([swap, cyc])


def _alt4():
    return FinGroup.generate([_pm((1, 2, 0, 3)), _pm((1, 0, 3, 2))])


def test_symmetric_group_basics():
    s3 = _sym(3)
    assert s3.order == 6
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]
    assert sorted(len(n) for n in s3.normal_subgroups()) == [1, 3, 6]
    assert s3.abelianization() == [2]
    assert sorted(s3.element_order(x) for x in s3.elements) == \
        [1, 2, 2, 2, 3, 3]
    # <a><b> has 6 elements and is no group: Dimino must close the
    # cosets under a as well as b
    s4 = _sym(4)
    a, b = s4.index[_pm((1, 0, 2, 3))], s4.index[_pm((0, 2, 3, 1))]
    assert s4.subgroup_closure([a, b]) == frozenset(range(24))


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


def _counting_mul(monkeypatch, cls) -> list:
    made = []
    mul = cls.__mul__

    def counting(self, other):
        made.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return made


def test_closure_bound_stops_before_the_next_coset():
    a, b = _pm((1, 2, 3, 0)), _pm((0, 3, 2, 1))  # dihedral, order 8
    with pytest.raises(ResourceBoundExceeded):
        FinGroup.generate([a, b], bound=7)
    assert FinGroup.generate([a, b], bound=8).order == 8
    # no group fits under a bound below 1, so it is bad input
    for bound in (0, -5):
        with pytest.raises(ValueError):
            FinGroup.generate([a, b], bound=bound)


def test_wild_sweep_product_count(monkeypatch):
    # deterministic work of the m = 3..11 sweep: build_so_wild closes
    # nothing and so_wild_report works on sign-vector bitmasks, so what
    # multiplies is build_so_wild's shift check, whose closed form is
    # tied to the product at j = 0 (c D c^-1, 2 products)
    made = _counting_mul(monkeypatch, MonomialMatrix)
    for m in (3, 5, 7, 9, 11):
        so_wild_report(build_so_wild(m))
    assert len(made) == 10


def test_generate_makes_no_products(monkeypatch):
    perm_gens = [_pm((1, 2, 3, 4, 0)), _pm((1, 0, 2, 3, 4))]
    mono_gens = list(build_so_wild(5).generators)
    made = _counting_mul(monkeypatch, MonomialMatrix)
    s5 = FinGroup.generate(perm_gens)
    wild = FinGroup.generate(mono_gens)
    assert (s5.order, wild.order) == (120, 80)
    assert made == []


def test_generate_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        FinGroup.generate([_pm((0, 2, 1)), _pm((1, 0))])
    with pytest.raises(ValueError):
        _pm((0, 2, 1)) * _pm((1, 0))
    with pytest.raises(ValueError):
        FinGroup.generate([MonomialMatrix.permutation((1, 0)),
                           MonomialMatrix.permutation((0, 2, 1))])


def test_generate_point_bound():
    # the points are the orbit of the base, not all of dim x mu_N: an
    # involution over a huge modulus touches four points
    big = 10 ** 9 + 7
    zeta = RootOfUnity(1, big)
    swap = MonomialMatrix((1, 0), (zeta, zeta.inverse()))
    assert FinGroup.generate([swap]).order == 2
    # a cyclic group of order 10^6 has 10^6 points; the walk stops once
    # the points pass dim * bound, and the message names generate's bound
    rot = MonomialMatrix.diagonal((RootOfUnity(1, 10 ** 6),))
    with pytest.raises(ResourceBoundExceeded):
        FinGroup.generate([rot], bound=1000)
    rot = MonomialMatrix.diagonal((RootOfUnity(1, 10 ** 7), ONE, ONE))
    with pytest.raises(ResourceBoundExceeded,
                       match="^group closure exceeded 1000 elements$"):
        FinGroup.generate([rot], bound=1000)
    # three orbits of 50 points, dim * bound of them, close at bound 50;
    # at bound 49 the points pass 147 first, reported as the bound 49
    z50 = RootOfUnity(1, 50)
    scalar = MonomialMatrix.diagonal((z50,) * 3)
    assert FinGroup.generate([scalar], bound=50).order == 50
    with pytest.raises(ResourceBoundExceeded,
                       match="^group closure exceeded 49 elements$"):
        FinGroup.generate([scalar], bound=49)
    # -swap has order 2, one orbit of coordinates and two orbits of
    # points, {e_0, -e_1} and {e_1, -e_0}: each orbit is at most |G|
    neg_swap = MonomialMatrix((1, 0), (RootOfUnity(1, 2),) * 2)
    assert FinGroup.generate([neg_swap], bound=2).order == 2
    with pytest.raises(ResourceBoundExceeded):
        FinGroup.generate([neg_swap], bound=1)


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


def test_normal_subgroups_skip_known_joins(monkeypatch):
    # normal_subgroups over every metacyclic group Z/p x| Z/m with
    # p < 20: one class is closed per rational class, a join already
    # found is not closed again, and the closures and powers run on
    # index tables with no product
    groups = {(m, p): metacyclic(m, p) for p in (3, 5, 7, 11, 13, 17, 19)
              for m in range(2, p) if (p - 1) % m == 0}
    made = _counting_mul(monkeypatch, MonomialMatrix)
    for (m, p), g in groups.items():
        # normal subgroups: 1 and Z/p x| Z/k for each k dividing m
        assert [len(n) for n in g.normal_subgroups()] == \
            [1] + [p * k for k in range(1, m + 1) if m % k == 0], (m, p)
    assert len(groups) == 23 and made == []
    # only a known subgroup of the join's order may stand in for it: in
    # C4 x C4 the whole group contains every pair, and 7 of its 15
    # subgroups have order 4 (the Klein group is a join of two C2s)
    c44 = direct_product(cyclic(4), cyclic(4))
    assert sorted(len(n) for n in c44.normal_subgroups()) == \
        [1, 2, 2, 2] + [4] * 7 + [8, 8, 8, 16]


def test_normal_subgroups_close_one_class_per_rational_class(monkeypatch):
    # the 60 classes of Z/60 fall into 12 rational classes, the generators
    # of its 12 subgroups; every join is one of them, so nothing else is
    # closed
    g = cyclic(60)
    closed = []
    closure_of = FinGroup.subgroup_closure

    def counting(self, seed):
        closed.append(closure_of(self, seed))
        return closed[-1]

    monkeypatch.setattr(FinGroup, "subgroup_closure", counting)
    assert [len(n) for n in g.normal_subgroups()] == \
        [k for k in range(1, 61) if 60 % k == 0]
    assert sorted(map(len, closed)) == [len(n) for n in g.normal_subgroups()]


def test_cyclic_group_of_order_6000():
    g = cyclic(6000)
    assert [len(n) for n in g.normal_subgroups()] == \
        [k for k in range(1, 6001) if 6000 % k == 0]
    assert g.abelianization() == [6000]


def test_metacyclic_rejects_non_divisor():
    with pytest.raises(ValueError):
        metacyclic(4, 7)


def test_direct_product_and_quotient():
    g = direct_product(cyclic(3), metacyclic(2, 3))
    assert g.order == 18
    q, proj = g.quotient(g.commutator_subgroup())
    assert q.order == 6
    # the projection maps indices, the identity 0 to the identity 0
    assert proj(0) == 0 and q.elements[proj(0)].is_identity
    # the quotient's elements are its left regular action: x_j sends e_i
    # to e_index(x_j x_i), entry j of x_i's right table
    rights = [q._right(i) for i in range(q.order)]
    assert all(x.perm == tuple(r[j] for r in rights)
               for j, x in enumerate(q.elements))
    with pytest.raises(ValueError):
        s3 = _sym(3)
        sub = s3.subgroup_closure(
            [next(i for i, x in enumerate(s3.elements)
                  if s3.element_order(x) == 2)])
        s3.quotient(sub)  # order-2 subgroups of S3 are not normal


def test_direct_product_of_a_wild_image():
    # a factor of 3x3 matrices over mu_2 next to 1x1 ones over mu_2 or
    # mu_6: A4 x C2 makes Z/3 and Z/2 one factor Z/6
    w = _so_wild_group(3)
    assert (w.order, w.abelianization()) == (12, [3])
    g = direct_product(w, cyclic(2))
    assert g.order == 24 and g.generators[0].dim == 4
    assert g.abelianization() == [6]
    assert direct_product(w, cyclic(6)).abelianization() == [3, 6]


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


def _explicit_type_npl(g, n, p, ell) -> bool:
    # the definition, the regular quotient by {1} included
    return any(is_type_np(g.quotient(s)[0], n, p) is not None
               for s in g.normal_subgroups() if len(s) in
               {ell ** k for k in range(g.order.bit_length())})


def test_type_npl_matches_its_definition():
    groups = _battery() + [direct_product(cyclic(4), metacyclic(6, 7))]
    cases = [(n, p, ell) for n in (2, 3, 4, 6) for p in (3, 5, 7)
             for ell in (2, 3) if ell != p]
    hits = 0
    for g in groups:
        for n, p, ell in cases:
            got = is_type_npl(g, n, p, ell)
            assert got == _explicit_type_npl(g, n, p, ell), \
                (g.order, n, p, ell)
            hits += got
    assert hits > 0


def test_trivial_subgroup_is_never_a_quotient(monkeypatch):
    quotient = FinGroup.quotient

    def checked(self, sub):
        assert len(sub) > 1, "quotient by {1}"
        return quotient(self, sub)

    monkeypatch.setattr(FinGroup, "quotient", checked)
    g = direct_product(cyclic(4), metacyclic(6, 7))
    assert is_type_npl(g, 6, 7, 2) and not is_type_npl(g, 3, 7, 2)
    assert is_type_npl(metacyclic(6, 7), 6, 7, 5)
    assert g.abelianization() == [2, 12]
    assert cyclic(12).abelianization() == [12]
    assert direct_product(cyclic(2), cyclic(6)).abelianization() == [2, 6]


def _battery():
    return [
        _sym(3),
        _alt4(),
        cyclic(12),
        metacyclic(6, 7),
        metacyclic(4, 5),
        direct_product(cyclic(3), metacyclic(2, 3)),
    ]


def _abelianization_by_quotients(g: FinGroup) -> list[int]:
    # the reference: split off the cyclic group of an element of largest
    # order, quotient by it and repeat, finding the factors largest first
    comm = g.commutator_subgroup()
    q = g if len(comm) == 1 else g.quotient(comm)[0]
    factors = []
    while q.order > 1:
        orders = [len(q._powers(i)) for i in range(q.order)]
        i = max(range(q.order), key=lambda j: (orders[j], j))
        factors.append(orders[i])
        q, _ = q.quotient(q.subgroup_closure([i]))
    return factors[::-1]


def test_abelianization_matches_quotient_loop():
    groups = _battery() + [
        direct_product(cyclic(2), cyclic(6)),
        direct_product(cyclic(4), cyclic(4)),
        direct_product(direct_product(cyclic(2), cyclic(4)), cyclic(8)),
        direct_product(cyclic(4), metacyclic(6, 7)),
        _so_wild_group(5),
    ]
    for g in groups:
        assert g.abelianization() == _abelianization_by_quotients(g), g.order


def test_abelianization_right_tables_follow_the_primes(monkeypatch):
    # one table for the conjugation by the generator, then one power map
    # per prime divisor of n: no per-element table, no quotient
    made = []
    right = FinGroup._right

    def counting(self, s):
        made.append(s)
        return right(self, s)

    monkeypatch.setattr(FinGroup, "_right", counting)
    for n, primes in ((12, 2), (1024, 1), (1000, 2), (1001, 3), (6000, 3)):
        g = cyclic(n)
        made.clear()
        assert g.abelianization() == [n]
        assert len(made) == 1 + primes, n


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


def test_fin_group_json(monkeypatch):
    g = metacyclic(6, 7)
    made = _counting_mul(monkeypatch, MonomialMatrix)
    data = g.to_json(d=6, type_np=(6, 7), ell=5)
    # the commutator seeds and the witness conjugates g y g^-1 are read
    # off the conjugation tables: past generate nothing multiplies
    assert made == []
    assert data["order"] == 42
    assert data["gamma_d"] == {"d": 6, "order": 7}
    assert data["type_np"]["found"] is True
    assert data["type_np"]["up_to_ell_core"] is True


def test_perm_basics():
    a = _pm((1, 2, 0))
    assert (a * a.inverse()).is_identity
    assert MonomialMatrix.identity(3).is_identity
    assert a * _pm((0, 2, 1)) == _pm((1, 0, 2))
    # degree one, where a single-index gather returns a bare item
    one = _pm((0,))
    assert one * one == one and (one * one).perm == (0,)
    assert a.n == 1 and (a * a).n == 1
    c1 = cyclic(1)
    assert c1.order == 1 and c1.abelianization() == []
    assert [len(n) for n in c1.normal_subgroups()] == [1]


def _as_permutation(m: MonomialMatrix, big_n: int) -> MonomialMatrix:
    # the embedding of mu_N wr S_dim into Sym(N * dim): point (j, a) goes
    # to (perm[j], a + e_j), with e_j the entry exponent over N
    scale = big_n // m.n
    return _pm(tuple(m.perm[j] * big_n + (a + e * scale) % big_n
                      for j, e in enumerate(m.exps) for a in range(big_n)))


def _invariants(grp: FinGroup) -> tuple:
    return (grp.order,
            Counter(grp.element_order(x) for x in grp.elements),
            sorted(len(c) for c in grp.conjugacy_classes()),
            len(grp.commutator_subgroup()),
            grp.abelianization())


def _compare_with_embedding(gens: list[MonomialMatrix]) -> None:
    big_n = lcm(*(g.n for g in gens))
    mono = FinGroup.generate(gens)
    perm = FinGroup.generate([_as_permutation(g, big_n) for g in gens])
    assert _invariants(mono) == _invariants(perm)
    assert {_as_permutation(x, big_n) for x in mono.elements} == \
        set(perm.elements)


@st.composite
def small_monomial_gens(draw):
    d = draw(st.integers(1, 3))
    return [MonomialMatrix(tuple(draw(st.permutations(range(d)))),
                           tuple(RootOfUnity(draw(st.integers(0, 5)),
                                             draw(st.sampled_from((1, 2, 3))))
                                 for _ in range(d)))
            for _ in range(draw(st.integers(1, 2)))]


@settings(max_examples=25)
@given(small_monomial_gens())
def test_monomial_group_matches_permutation_embedding(gens):
    _compare_with_embedding(gens)


def test_wild_group_matches_permutation_embedding():
    _compare_with_embedding(list(build_so_wild(5).generators))


# -- the index-space engine against definitions made of products ----------

def _generated(seed, e) -> frozenset:
    """Close a set under products."""
    h = {e} | set(seed)
    while True:
        new = {a * b for a in h for b in h} - h
        if not new:
            return frozenset(h)
        h |= new


def _naive_normal_subgroups(classes, e) -> set:
    # every normal subgroup is generated by the classes inside it
    found = {frozenset([e])}
    work = list(found)
    while work:
        n = work.pop()
        for c in classes:
            j = _generated(n | c, e)
            if j not in found:
                found.add(j)
                work.append(j)
    return found


@st.composite
def small_group_gens(draw):
    k = draw(st.integers(1, 2))
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        return [_pm(tuple(draw(st.permutations(range(d)))))
                for _ in range(k)]
    d = draw(st.integers(1, 3))
    dens = (1, 2) if d == 3 else (1, 2, 3)
    return [MonomialMatrix(tuple(draw(st.permutations(range(d)))),
                           tuple(RootOfUnity(draw(st.integers(0, 5)),
                                             draw(st.sampled_from(dens)))
                                 for _ in range(d)))
            for _ in range(k)]


@settings(max_examples=30)
@given(small_group_gens(), st.data())
def test_index_engine_matches_naive_definitions(gens, data):
    e = gens[0] * gens[0].inverse()
    grp = FinGroup.generate(gens)
    els, idx = grp.elements, grp.index

    def decoded(sub):
        # subgroups are index sets; the oracle speaks in elements
        return frozenset(els[i] for i in sub)

    inv = {x: x.inverse() for x in els}
    classes = {frozenset(inv[h] * x * h for h in els) for x in els}
    normals = _naive_normal_subgroups(classes, e)
    commutator = _generated({inv[a] * inv[b] * a * b
                             for a in els for b in els}, e)
    seeds = [data.draw(st.lists(st.sampled_from(els), max_size=2))
             for _ in range(3)]
    subs = [_generated(seed, e) for seed in seeds]
    # the tables gathered on base images equal those made by products
    assert grp.tables == tuple(tuple(els.index(g * x) for x in els)
                               for g in gens)
    for seed, sub in zip(seeds, subs):
        assert decoded(grp.subgroup_closure(idx[x] for x in seed)) == sub
    for x in els:
        k, y = 1, x
        while y != e:
            k, y = k + 1, y * x
        assert grp.element_order(x) == k
    assert set(map(decoded, grp.conjugacy_classes())) == classes
    assert sum(map(len, grp.conjugacy_classes())) == len(els)
    for sub in subs:
        assert grp.is_normal({idx[x] for x in sub}) == all(
            inv[h] * s * h in sub for h in els for s in sub)
    assert set(map(decoded, grp.normal_subgroups())) == normals
    assert decoded(grp.commutator_subgroup()) == commutator
    assert grp.abelianization() == _abelianization_by_quotients(grp)
    for n in normals:
        q, proj = grp.quotient(frozenset(idx[x] for x in n))
        image = {x: q.elements[proj(idx[x])] for x in els}
        assert q.order == len(els) // len(n)
        assert set(image.values()) == set(q.elements)
        assert frozenset(x for x in els if image[x].is_identity) == n
        for x in els:
            for y in els:
                assert image[x * y] == image[x] * image[y]


def test_is_type_np_is_cached(monkeypatch):
    # param tame asks a group for the same witness three times
    param = build_tame_parameter(7, (RootOfUnity(1, 43),), 3)
    image = FinGroup.generate([param.inertia, param.frobenius])
    searched = []
    find = fingroup._find_type_np

    def counting(g, n, p):
        searched.append((n, p))
        return find(g, n, p)

    monkeypatch.setattr(fingroup, "_find_type_np", counting)
    first = is_type_np(image, 6, 43)
    assert first is not None
    assert is_type_np(image, 3, 43) is None
    assert is_type_np(image, 6, 43) is first
    assert is_type_np(image, 3, 43) is None
    assert searched == [(6, 43), (3, 43)]
    with pytest.raises(ValueError):
        is_type_np(image, 6, 42)


def test_is_type_np_right_tables(monkeypatch):
    # on a fresh tame image no whole right table is built: the powers of
    # the first element whose order 43 divides (the identity is skipped),
    # x_1 = t, are read off t's own table, and the one conjugate per
    # generator that the exponents and the normality test read is a
    # single lazy entry
    made = []
    right = FinGroup._right

    def counting(self, s):
        made.append(s)
        return right(self, s)

    monkeypatch.setattr(FinGroup, "_right", counting)
    param = build_tame_parameter(7, (RootOfUnity(1, 43),), 3)
    image = parameter_image(param)
    assert made == []
    made.clear()
    assert is_type_np(image, 6, 43).exponents == (1, 7)
    assert made == []


def _lazy_oracle_groups():
    # the last product has p^2 | |G| for p = 7 and two normal Z/7, so the
    # witness reads them off normal_subgroups, not off one Sylow probe
    return _battery() + [
        metacyclic(18, 19),
        direct_product(cyclic(4), metacyclic(6, 7)),
        build_g2_jordan().group,
        direct_product(metacyclic(6, 7), cyclic(7)),
    ]


def test_lazy_right_entries_and_conjugates_match_the_whole_tables():
    # a fresh getter read from the last index down walks the longest
    # tree paths first; the conjugates are the columns of _conj_tables
    for g in _lazy_oracle_groups():
        conj = g._conj_tables()
        for s in range(g.order):
            at = g._right_at(s)
            assert [at(i) for i in reversed(range(g.order))] == \
                g._right(s)[::-1]
            assert g._conjugates(s) == [c[s] for c in conj]


def test_one_probe_normality_agrees_with_is_normal():
    # <y> is normal exactly when each generator conjugates y into <y>:
    # checked for every y of prime order p, the probe of the Sylow case
    # included; S3 at 2 and A4 at 3 have a Sylow subgroup of order p
    # that is not normal
    seen = set()
    for g in _lazy_oracle_groups():
        for p in (2, 3, 5, 7):
            for y in range(1, g.order):
                powers = g._powers(y)
                if len(powers) != p:
                    continue
                exps = fingroup._exponents(powers, g._conjugates(y))
                probe = exps is not None
                assert probe == g.is_normal(set(powers))
                seen.add((g.order, p, probe))
    assert {(6, 2, False), (12, 3, False), (6, 3, True)} <= seen
    assert is_type_np(_sym(3), 2, 2) is None
    assert is_type_np(_alt4(), 2, 3) is None
    assert is_type_np(_sym(3), 2, 3) is not None


def test_generator_powers_follow_its_own_table(monkeypatch):
    # x^(k+1) = x x^k: a generator's powers read off its own table are
    # the cycle of the identity under its lazy right table
    for g in _lazy_oracle_groups():
        for t in g.tables:
            at, cycle = g._right_at(t[0]), [t[0]]
            while cycle[-1]:
                cycle.append(at(cycle[-1]))
            assert g._powers(t[0]) == cycle
    # and they build no right table, lazy or whole
    def refuse(self, s):
        raise AssertionError("a right table was built")

    g = metacyclic(18, 19)
    monkeypatch.setattr(FinGroup, "_right_at", refuse)
    monkeypatch.setattr(FinGroup, "_right", refuse)
    assert [len(g._powers(t[0])) for t in g.tables] == [19, 18]


def test_exponents_read_off_the_powers_match_the_power_map():
    # the exponents list.index reads equal those of the map
    # {index(y^k): k}, and a conjugate outside <y> gives none
    for g in _lazy_oracle_groups():
        for y in range(g.order):
            powers = g._powers(y)
            pmap = {z: k for k, z in enumerate(powers, 1)}
            want = [pmap.get(c) for c in g._conjugates(y)]
            assert fingroup._exponents(powers, g._conjugates(y)) == (
                None if None in want else want)
            assert fingroup._exponents(powers, powers) == \
                [pmap[z] for z in powers]


def _conjugation_images(g: FinGroup, p: int) -> set[int]:
    """The order of the conjugation action on each normal subgroup of
    order p, from the whole conjugation and right tables."""
    images = set()
    for nsub in g.normal_subgroups():
        if len(nsub) != p:
            continue
        y = min(nsub - {0})
        r, powers = g._right(y), [y]
        while powers[-1]:
            powers.append(r[powers[-1]])
        exps = [powers.index(c[y]) + 1 for c in g._conj_tables()]
        images.add(lcm(*(mult_order(e, p) for e in exps)))
    return images


def test_type_np_witness_matches_its_definition():
    # a witness of order n exists exactly when some normal Z/p is acted
    # on with order n; p^2 divides the order of the last oracle group
    found = set()
    for g in _lazy_oracle_groups():
        for p in (2, 3, 5, 7, 19):
            images = _conjugation_images(g, p)
            for n in range(2, p):
                w = is_type_np(g, n, p)
                assert (w is not None) == (n in images), (g.order, n, p)
                if w is not None:
                    assert w.image_order == n
                    found.add((g.order, n, p))
    assert (294, 6, 7) in found and (342, 18, 19) in found


def _comprehension_tables(p, m, alpha):
    """_split_metacyclic's tables and tree as comprehensions over the
    keys k = a + p b, the way it once built them."""
    ks = list(range(p * m))
    ttab = tuple(ks[k + 1 if (k + 1) % p else k + 1 - p] for k in ks)
    ftab = tuple(ks[alpha * (k % p) % p + (k - k % p + p) % len(ks)]
                 for k in ks)
    via = [ttab if k % p else ftab for k in ks[1:]]
    parents = [ks[k - 1] if k % p else ks[k - p] for k in ks[1:]]
    return ttab, ftab, via, parents


def _edge_tables(via, ttab, ftab):
    """For each tree edge, 0 if it uses ttab, 1 if ftab, else None."""
    return [0 if t is ttab else 1 if t is ftab else None for t in via]


def test_sliced_tables_match_the_comprehensions(monkeypatch):
    # metacyclic's pair t, f, split past the default bound for p = 409;
    # f t f^-1 = t^a, a = root^((p - 1) / m)
    monkeypatch.setattr(fingroup, "DEFAULT_CLOSURE_BOUND", 409 * 408)
    for p in (3, 7, 19, 43, 409):
        root = next(r for r in range(1, p) if mult_order(r, p) == p - 1)
        for m in (m for m in range(1, p) if (p - 1) % m == 0):
            a = pow(root, (p - 1) // m, p)
            t = MonomialMatrix.diagonal(
                tuple(RootOfUnity(pow(a, i, p), p) for i in range(m)))
            f = MonomialMatrix.permutation(
                tuple((i - 1) % m for i in range(m)))
            grp = _split_metacyclic(t, f)
            ttab, ftab = grp.tables
            via, parents = grp._tree
            old_t, old_f, old_via, old_parents = _comprehension_tables(
                p, m, a)
            assert (ttab, ftab) == (old_t, old_f), (p, m)
            assert list(parents) == old_parents, (p, m)
            assert _edge_tables(via, ttab, ftab) == \
                _edge_tables(old_via, old_t, old_f), (p, m)
            # one int object per element, shared by tables and tree
            own = {k: k for k in ttab}
            assert len(own) == p * m
            assert all(map(is_, map(own.__getitem__, ftab), ftab))
            assert all(map(is_, map(own.__getitem__, parents), parents))


def _assert_decoded_tables_hold(g: FinGroup) -> None:
    # the elements decoded along the tree are distinct, and every table
    # entry, not only the tree's edges, is the product it stands for
    els = g.elements
    assert len(set(els)) == g.order
    for x, t in zip(g.generators, g.tables, strict=True):
        assert all(x * y == els[j] for y, j in zip(els, t))


def test_every_constructor_hands_over_its_spanning_tree():
    # tree edge j: x_j = g x_i with i = parents[j - 1] < j, t = via[j - 1]
    # g's own table and t[i] = j, for generate, the presented groups and
    # every quotient of two groups; all of it is tuples, and the tree
    # decodes the elements
    image = parameter_image(build_tame_parameter(7, (RootOfUnity(1, 43),), 3))
    meta = metacyclic(6, 7)
    quotients = [g.quotient(n)[0] for g in (_alt4(), _battery()[-1])
                 for n in g.normal_subgroups()]
    presented = [metacyclic(m, p) for p in (2, 3, 5, 7, 11, 13, 17, 19)
                 for m in range(1, p) if (p - 1) % m == 0]
    groups = _battery() + quotients + presented + [
        image,
        meta.quotient(meta.commutator_subgroup())[0],
        direct_product(cyclic(4), metacyclic(6, 7)),
    ]
    assert len(quotients) == 3 + 6 and len(presented) == 31
    for g in groups:
        via, parents = g._tree
        assert len(via) == len(parents) == g.order - 1
        assert all(type(x) is tuple for x in (g.tables, g._tree, via,
                                               parents, g.generators,
                                               *g.tables))
        for j, (t, i) in enumerate(zip(via, parents), 1):
            assert i < j and t[i] == j
            assert any(t is table for table in g.tables)
        _assert_decoded_tables_hold(g)
    # an edge pointed at the other generator's table decodes x_j wrongly,
    # which the table entry t[i] = j then contradicts
    ttab, ftab = meta.tables
    via, parents = meta._tree
    j = next(j for j, t in enumerate(via) if t is ftab)
    via = list(via)
    via[j] = ttab
    with pytest.raises(AssertionError):
        _assert_decoded_tables_hold(
            FinGroup(meta.tables, (tuple(via), parents), meta.generators))


def test_presented_trees_are_two_flat_tuples_over_shared_ints():
    # a presented group's tree is two tuples of order - 1 entries, its
    # edge tables the group's own tables and its parents the very int
    # objects of those tables, so no object is made per edge (the
    # orders are past 256, beyond CPython's small-int cache)
    image = parameter_image(build_tame_parameter(7, (RootOfUnity(1, 43),), 3))
    for g in (metacyclic(18, 19), image):
        via, parents = g._tree
        assert len(via) == len(parents) == g.order - 1 > 256
        assert {id(t) for t in via} == {id(t) for t in g.tables}
        own = {k: k for k in g.tables[0]}
        assert all(map(is_, map(own.__getitem__, parents), parents))


def test_element_of_order_p_reads_powers_off_the_walk():
    # y = x^(ord x / p) and its powers as the walk of y itself gives them
    for g in _battery():
        for p in (2, 3, 5, 7, 11):
            ys = fingroup._element_of_order_p(g, p)
            if g.order % p:
                assert ys is None
                continue
            assert len(ys) == p and ys == g._powers(ys[0])


def _counting_decodes(monkeypatch) -> list:
    made = []
    make = monomial._make

    def counting(perm, exps, n):
        made.append(perm)
        return make(perm, exps, n)

    monkeypatch.setattr(monomial, "_make", counting)
    return made


def _mul_decode(g: FinGroup) -> tuple:
    # the tree decode by MonomialMatrix products: x_0 = 1, x_j = g x_i
    gen = {id(t): x for t, x in zip(g.tables, g.generators)}
    els = [MonomialMatrix.identity(g.generators[0].dim)]
    for t, i in zip(*g._tree):
        els.append(gen[id(t)] * els[i])
    return tuple(els)


def test_tree_decode_matches_the_product_decode(g2_jordan):
    # the gathers over the common modulus give the same (perm, exps, n)
    # as the products, moduli reduced alike: mixed moduli (the G2 group's
    # signs and permutations, Z/4 x Z/7 : Z/6 over mu_28) and modulus 1
    groups = [cyclic(5), metacyclic(6, 7), g2_jordan.group,
              direct_product(cyclic(4), metacyclic(6, 7)),
              FinGroup.generate([_pm((1, 2, 3, 4, 0)), _pm((1, 0, 2, 3, 4))])]
    for g in groups:
        want = _mul_decode(g)
        assert g.elements == want
        assert all(type(x) is MonomialMatrix for x in g.elements)


def test_elements_are_decoded_on_demand(monkeypatch):
    # the type (n, p) criterion reads indices only, so building the tame
    # image and finding its witness decodes no element
    param = build_tame_parameter(7, (RootOfUnity(1, 43),), 3)
    made = _counting_decodes(monkeypatch)
    image = parameter_image(param)
    assert is_type_np(image, 6, 43) is not None
    assert image.order == 258 and made == []
    # the elements are decoded once, on first use, along the spanning
    # tree: the identity is built directly, then one product per edge
    first = image.elements
    assert image.elements is first and len(made) == 257
    assert len(set(first)) == 258 and first[0].is_identity
    # subgroups are index sets and projections map indices, so the full
    # report, quotients included, decodes nothing either
    groups = [metacyclic(6, 7), direct_product(cyclic(4), metacyclic(6, 7))]
    made.clear()
    assert groups[0].to_json(d=6, type_np=(6, 7), ell=5)["type_np"][
        "up_to_ell_core"]
    assert groups[1].to_json(d=6, type_np=(6, 7), ell=2)["type_np"][
        "up_to_ell_core"]
    assert made == []


def test_results_do_not_depend_on_generator_order():
    # indices follow the generator list; every reported number is a
    # group invariant, so reversing the list changes none of them
    cases = [
        (metacyclic(6, 7), (6, 7), 5),
        (direct_product(cyclic(4), metacyclic(6, 7)), (6, 7), 2),
        (_sym(4), (2, 3), 2),
        (_so_wild_group(5), (5, 2), 5),
    ]
    for grp, type_np, ell in cases:
        other = FinGroup.generate(grp.generators[::-1])
        assert other.elements != grp.elements
        for d in (2, 6):
            assert other.to_json(d, type_np, ell) == \
                grp.to_json(d, type_np, ell), grp.order
        assert other.abelianization() == grp.abelianization()


# -- groups built from their presentation, against the closure ------------

def _tame_params():
    # the 65 cells (q, p): q < 50 and 2 < p < 500 primes, ord_p(q) even
    # and at most 8
    return [build_tame_parameter(q, (RootOfUnity(1, p),),
                                 mult_order(q, p) // 2)
            for q in range(2, 50) if is_prime(q)
            for p in range(3, 500) if is_prime(p) and p != q
            and mult_order(q, p) % 2 == 0 and mult_order(q, p) <= 8]


def _assert_same_as_closure(grp: FinGroup, gens) -> None:
    # the same Cayley graph under pi(i) = closed.index[x_i]: the numbering
    # differs (normal form against search order), the group does not
    closed = FinGroup.generate(gens)
    pi = [closed.index[x] for x in grp.elements]
    assert sorted(pi) == list(range(closed.order))
    for ct, gt in zip(closed.tables, grp.tables, strict=True):
        assert all(ct[pi[i]] == pi[j] for i, j in enumerate(gt))


def test_presented_groups_match_the_closure():
    params = _tame_params()
    assert len(params) == 65
    for param in params:
        _assert_same_as_closure(parameter_image(param),
                                [param.inertia, param.frobenius])
    cases = [(m, p) for p in range(2, 20) if is_prime(p)
             for m in range(1, p) if (p - 1) % m == 0]
    assert len(cases) == 31
    for m, p in cases:
        g = metacyclic(m, p)
        _assert_same_as_closure(g, g.generators)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([p for p in range(3, 200) if is_prime(p)])
       .flatmap(lambda p: st.tuples(
           st.sampled_from([m for m in range(1, p) if (p - 1) % m == 0]),
           st.just(p))))
def test_random_metacyclic_matches_the_closure(case):
    m, p = case
    g = metacyclic(m, p)
    _assert_same_as_closure(g, g.generators)


def test_split_metacyclic_refuses_other_pairs():
    z7, z6 = RootOfUnity(1, 7), RootOfUnity(1, 6)
    minus = RootOfUnity(1, 2)
    swap = _pm((1, 0))
    cases = [
        # t is not diagonal
        (MonomialMatrix((1, 0), (z7, z7)), swap),
        # t's modulus 6 is not prime
        (MonomialMatrix.diagonal((z6, z6.inverse())), swap),
        # f t f^-1 = diag(z^2, z) is no power of t = diag(z, z^2)
        (MonomialMatrix.diagonal((z7, z7 ** 2)), swap),
        # f t f^-1 = t^-1, but f^2 = -1: the cycle's entries multiply
        # to -1
        (MonomialMatrix.diagonal((z7, z7.inverse())),
         MonomialMatrix((1, 0), (minus, RootOfUnity(0, 1)))),
        # dimensions differ
        (MonomialMatrix.diagonal((z7,)), swap),
    ]
    for t, f in cases:
        with pytest.raises(ValueError):
            _split_metacyclic(t, f)
    # the same pair with f^2 = 1 is the dihedral group of order 14
    t = MonomialMatrix.diagonal((z7, z7.inverse()))
    assert _split_metacyclic(t, swap).order == 14


def test_split_metacyclic_bound(monkeypatch):
    # Z/7 x| Z/3 is refused from its order p * m, with generate's
    # message, one element past the bound
    t = MonomialMatrix.diagonal(tuple(RootOfUnity(pow(2, i, 7), 7)
                                      for i in range(3)))
    f = _pm((2, 0, 1))
    monkeypatch.setattr(fingroup, "DEFAULT_CLOSURE_BOUND", 21)
    assert _split_metacyclic(t, f).order == 21
    monkeypatch.setattr(fingroup, "DEFAULT_CLOSURE_BOUND", 20)
    with pytest.raises(ResourceBoundExceeded,
                       match="group closure exceeded 20 elements"):
        _split_metacyclic(t, f)


def test_default_closure_bound_is_read_at_the_call(monkeypatch):
    # the one constant caps the searched and the presented groups alike
    monkeypatch.setattr(fingroup, "DEFAULT_CLOSURE_BOUND", 5)
    for build in (lambda: cyclic(12), lambda: metacyclic(2, 7)):
        with pytest.raises(ResourceBoundExceeded,
                           match="group closure exceeded 5 elements"):
            build()


def test_presented_groups_run_no_closure(monkeypatch):
    params = _tame_params()
    calls = []
    generate, real_walk = FinGroup.generate.__func__, walk.walk

    def counting_generate(cls, *args, **kwargs):
        calls.append("generate")
        return generate(cls, *args, **kwargs)

    def counting_walk(*args):
        calls.append("walk")
        return real_walk(*args)

    monkeypatch.setattr(FinGroup, "generate", classmethod(counting_generate))
    monkeypatch.setattr(fingroup, "walk", counting_walk)
    monkeypatch.setattr(monomial, "walk", counting_walk)
    for param in params:
        parameter_image(param)
    metacyclic(6, 7)
    assert calls == []
    cyclic(6)  # the counters do see a closure: the points, then the group
    assert calls == ["generate", "walk", "walk"]


def test_generators_decode_only_the_base_images(monkeypatch):
    made = _counting_decodes(monkeypatch)
    g = metacyclic(6, 1009)
    # every group stores its generators, so direct_product reads the
    # three generators of its factors and closes the product with no
    # decode, and the product's generators are its own stored tuple
    prod = direct_product(cyclic(4), g)
    assert prod.order == 4 * 6 * 1009
    gens = prod.generators
    assert made == [] and [x.dim for x in gens] == [7, 7, 7]
