import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_fingroup import _counting_mul

from ggt import monomial, wildtwo
from ggt.cyclotomic import Cyc
from ggt.errors import ResourceBoundExceeded
from ggt.fingroup import FinGroup
from ggt.monomial import MonomialMatrix
from ggt.roots import MINUS_ONE, ONE, RootOfUnity
from ggt.wildtwo import (WildImageSO, build_g2_jordan, build_so_wild,
                         g2_jordan_report, mackey_decompose, so_wild_report)


def _closed(w):
    # the whole group, as the report never builds it; a single -1 and an
    # m-cycle generate all 2^m m signed cyclic permutation matrices
    return FinGroup.generate(list(w.generators), bound=2 ** w.m * w.m)


def test_so_wild_smallest(so_wild):
    w = so_wild(3)
    assert _closed(w).order == 12
    rep = so_wild_report(w)
    assert rep["order_expected"]
    assert rep["abelianization"] == [3]
    assert rep["commutator"] == {"order": 4, "elementary_abelian": True}
    assert rep["commutator_expected"]
    assert rep["det_trivial"] and rep["irreducible"] and rep["selfdual"]
    assert rep["conjugates_distinct"]
    assert rep["joint_kernel_is_diagonal"]
    assert rep["g2_obstruction"] is None


def _signed_cycle_group(m, minus=(0,), cycle=None):
    # -1 at the positions in minus, and an m-cycle, by default the one
    # build_so_wild uses
    flip = MonomialMatrix.diagonal(tuple(MINUS_ONE if j in minus else ONE
                                         for j in range(m)))
    cycle = MonomialMatrix.permutation(
        cycle or tuple((k - 1) % m for k in range(m)))
    return WildImageSO(m=m, generators=(flip, cycle))


def test_so_wild_det_decided_on_generators():
    # a single -1 has det -1, and the report must see it
    w = _signed_cycle_group(3)
    assert _closed(w).order == 24
    assert so_wild_report(w)["det_trivial"] is False


@pytest.mark.parametrize("m, minus, cycle", [
    (3, (0,), None),
    (5, (0, 1), None),
    (5, (), None),
    # an m-cycle of even length is an odd permutation, so det is -1 even
    # when every sign vector has even weight
    (4, (0,), None),
    (4, (0, 1), None),
    (6, (), None),
    (7, (0, 1, 3), None),
    (7, (0, 1, 3), (3, 6, 5, 1, 0, 4, 2)),
    (9, (0, 3, 6), None),
    (7, (0, 2, 3, 4), None),
])
def test_so_wild_det_read_off_the_sign_weights(m, minus, cycle):
    # the report reads det from the weights and the cycle's length; the
    # matrices' own determinants must agree
    w = _signed_cycle_group(m, minus, cycle)
    assert (so_wild_report(w)["det_trivial"]
            is all(g.det().is_one for g in w.generators)
            is (m % 2 == 1 and len(minus) % 2 == 0))


def _gray_code_square_sum(m, basis):
    """The sum of (m - 2 wt v)^2 over the span of basis, by a Gray-code
    walk: step k flips the basis vector at k's lowest set bit."""
    v, total = 0, m * m
    for k in range(1, 1 << len(basis)):
        v ^= basis[(k & -k).bit_length() - 1]
        total += (m - 2 * v.bit_count()) ** 2
    return total


def _module_basis(w):
    signs = wildtwo._sign_module(w.generators, w.m)
    basis = wildtwo._span_of_shifts(signs, w.m)
    h = wildtwo._check_polynomial(signs, w.m)
    assert h.bit_length() - 1 == len(basis)
    assert wildtwo._code_period(h, w.m) == wildtwo._period(basis, w.m)
    return basis


def _period_norm(m, basis):
    # the report's closed form: |V| m^2 / delta
    return 2 ** len(basis) * m * m // wildtwo._period(basis, m)


def _eigenvalues(g):
    # a cycle of length L whose entries multiply to zeta_n^s contributes
    # the L-th roots of zeta_n^s
    perm, exps, n = g
    seen, eigs = set(), []
    for j in range(len(perm)):
        s, length = 0, 0
        while j not in seen:
            seen.add(j)
            s, length, j = s + exps[j], length + 1, perm[j]
        eigs += [RootOfUnity(s + n * k, n * length) for k in range(length)]
    return eigs


def _character_tuples(m):
    # sign tuple of the i-th cyclic shift of the base character
    return [tuple(-1 if (i + j) % m in (0, 1) else 1 for j in range(m))
            for i in range(m)]


def _exhaustive_so_wild_report(w):
    """The report computed from the closed group, element by element."""
    m, grp = w.m, _closed(w)
    comm = [grp.elements[i] for i in grp.commutator_subgroup()]
    elementary = all(x * x == grp.identity for x in comm
                     if x != grp.identity)
    det_trivial = all(g.det().is_one for g in grp.generators)
    norm = sum(g.trace_int() ** 2 for g in grp.elements)
    assert norm % grp.order == 0
    tuples = _character_tuples(m)
    kernel = [v for v in range(2 ** m)
              if all(sum((v >> j) & 1 for j in range(m)
                         if t[j] == -1) % 2 == 0 for t in tuples)]
    g2_obstruction = None
    if m == 7:
        g2_obstruction = not all(
            wildtwo.g2_admissible_eigenvalues(_eigenvalues(g))
            for g in grp.elements)
    abelian = grp.abelianization()
    return {
        "m": m,
        "order": grp.order,
        "order_expected": grp.order == 2 ** (m - 1) * m,
        "abelianization": abelian,
        "abelianization_cyclic_m": abelian == [m],
        "commutator": {"order": len(comm), "elementary_abelian": elementary},
        "commutator_expected": len(comm) == 2 ** (m - 1) and elementary,
        "det_trivial": det_trivial,
        "irreducible": norm == grp.order,
        "selfdual": True,
        "conjugates_distinct": len(set(tuples)) == m,
        "joint_kernel_is_diagonal": kernel == [0, 2 ** m - 1],
        "g2_obstruction": g2_obstruction,
    }


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
def test_so_wild_report_matches_the_closed_group(so_wild, m):
    w = so_wild(m)
    assert so_wild_report(w) == _exhaustive_so_wild_report(w)


@pytest.mark.parametrize("m, minus, cycle, order, abelian", [
    # V is all of F_2^m and (1 + x)V the even-weight code, so the
    # abelianization is C_2 x C_m
    (3, (0,), None, 24, [6]),
    (4, (0,), None, 64, [2, 4]),
    # 1 + x + x^3 divides x^7 - 1, so the shifts span a 4-dimensional V;
    # along the cycle 0 3 1 6 2 5 4 the same signs read 1 + x + x^2,
    # prime to x^7 - 1, and span F_2^7
    (7, (0, 1, 3), None, 112, [14]),
    (7, (0, 1, 3), (3, 6, 5, 1, 0, 4, 2), 896, [14]),
    # 1 + x^3 + x^6 divides x^9 - 1, so V has dimension 3; coordinates
    # agree on V in the three classes mod 3, the norm is 8 (3^2 + 3^2 +
    # 3^2) = 216 = 3 |G|, and the character is reducible
    (9, (0, 3, 6), None, 72, [18]),
    # -1 at 0, 2, 3 and 4: V is the [7, 3] simplex code, every nonzero
    # word of weight 4, so no element of 2^3:7 has eigenvalues outside the
    # G2 shape and g2_obstruction is false
    (7, (0, 2, 3, 4), None, 56, [7]),
])
def test_other_sign_groups_match_the_closed_group(m, minus, cycle, order,
                                                  abelian):
    w = _signed_cycle_group(m, minus, cycle)
    rep = so_wild_report(w)
    assert rep == _exhaustive_so_wild_report(w)
    assert (rep["order"], rep["abelianization"]) == (order, abelian)
    assert rep["g2_obstruction"] is (order != 56 if m == 7 else None)
    basis = _module_basis(w)
    norm = _period_norm(m, basis)
    assert norm == _gray_code_square_sum(m, basis)
    assert rep["irreducible"] == (norm == order) == (m != 9)


@given(st.data())
def test_random_sign_groups_match_the_closed_group(data):
    # any nonempty set of -1 positions and any m-cycle; the closure is
    # bounded by 2^m m, at most 896 elements
    m = data.draw(st.sampled_from([3, 5, 7]))
    minus = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
    path = data.draw(st.permutations(range(m)))
    cycle = [0] * m
    for a, b in zip(path, path[1:] + path[:1]):
        cycle[a] = b
    w = _signed_cycle_group(m, tuple(minus), tuple(cycle))
    rep = so_wild_report(w)
    assert rep == _exhaustive_so_wild_report(w)
    assert 2 ** len(_module_basis(w)) * m == rep["order"]


def test_so_wild_report_does_no_group_work(monkeypatch):
    def refuse(self):
        raise AssertionError("commutator_subgroup called")

    closures = []
    generate = FinGroup.generate.__func__

    def counting(cls, *args, **kwargs):
        closures.append(args)
        return generate(cls, *args, **kwargs)

    made = _counting_mul(monkeypatch, MonomialMatrix)
    monkeypatch.setattr(FinGroup, "commutator_subgroup", refuse)
    monkeypatch.setattr(FinGroup, "generate", classmethod(counting))
    for m in range(3, 14, 2):
        w = build_so_wild(m)
        del made[:]
        rep = so_wild_report(w)
        assert rep["commutator"]["order"] == 2 ** (m - 1)
        # the report multiplies no element, and nothing closes the group
        assert made == []
    assert closures == []


@pytest.mark.parametrize("gens", [
    # a diagonal entry that is not +-1
    [MonomialMatrix.diagonal((RootOfUnity(1, 4), ONE, ONE)),
     MonomialMatrix.permutation((2, 0, 1))],
    # a transposition, not a 3-cycle
    [MonomialMatrix.diagonal((MINUS_ONE, ONE, ONE)),
     MonomialMatrix.permutation((1, 0, 2))],
    # a signed cycle
    [MonomialMatrix((2, 0, 1), (MINUS_ONE, ONE, ONE))],
    # two cycles
    [MonomialMatrix.permutation((2, 0, 1)),
     MonomialMatrix.permutation((1, 2, 0))],
])
def test_so_wild_report_rejects_other_generators(gens):
    w = WildImageSO(m=3, generators=tuple(gens))
    with pytest.raises(ValueError):
        so_wild_report(w)


def test_so_wild_report_checks_the_two_dim_paths(so_wild, monkeypatch):
    # the order is 2^dim(V) * m, and a cyclic-code dimension one off the
    # xor rank fails the report: x h has degree one more than h
    w = so_wild(5)
    check = wildtwo._check_polynomial
    monkeypatch.setattr(wildtwo, "_check_polynomial",
                        lambda signs, m: check(signs, m) << 1)
    with pytest.raises(AssertionError, match="rank 4, the cyclic code "
                                             "dimension 5"):
        so_wild_report(w)


def test_so_wild_report_checks_the_dim_on_the_basis_side(so_wild,
                                                         monkeypatch):
    # an xor basis one vector short fails the report too
    w = so_wild(5)
    span = wildtwo._span_of_shifts
    monkeypatch.setattr(wildtwo, "_span_of_shifts",
                        lambda signs, m: span(signs, m)[1:])
    with pytest.raises(AssertionError, match="rank 3, the cyclic code "
                                             "dimension 4"):
        so_wild_report(w)


def _least_period(signs, m):
    # x^d fixes V exactly when it fixes each sign vector, since the
    # rotations commute: the least such d, scanned over 1..m
    return next(d for d in range(1, m + 1)
                if all(wildtwo._rotate(v, m, d % m) == v for v in signs))


def test_the_two_periods_agree():
    # random sign sets for every odd m up to 63: vectors with all m bits
    # random, vectors repeating a random pattern of each divisor's length,
    # and V = 0, which has period 1 whichever side reads it
    rng = random.Random(0)
    for m in range(1, 64, 2):
        sets = [[], [0], [0, 0]]
        for _ in range(4):
            sets.append([rng.getrandbits(m) for _ in range(rng.randint(1, 3))])
        for d in range(1, m + 1):
            if m % d == 0:
                block = rng.getrandbits(d)
                sets.append([sum(block << k for k in range(0, m, d))])
        for signs in sets:
            basis = wildtwo._span_of_shifts(signs, m)
            h = wildtwo._check_polynomial(signs, m)
            delta = wildtwo._period(basis, m)
            assert h.bit_length() - 1 == len(basis), (m, signs)
            assert wildtwo._code_period(h, m) == delta, (m, signs)
            assert delta == _least_period(signs, m), (m, signs)
            assert m % delta == 0
            if not any(signs):
                assert (delta, h) == (1, 1)


@pytest.mark.parametrize("side", ["_period", "_code_period"])
def test_so_wild_report_checks_the_two_periods(so_wild, monkeypatch, side):
    # the norm is |V| m^2 / delta, and a period that one side reads wrong
    # fails the report
    w = so_wild(5)
    monkeypatch.setattr(wildtwo, side, lambda v, m: 1)
    with pytest.raises(AssertionError, match="period"):
        so_wild_report(w)


def test_trace_square_sum_closed_form():
    # the weight enumerator of the even-weight code gives the norm
    # sum over even w of C(m, w) (m - 2w)^2 = m 2^(m-1) = |G|, and both
    # V's period (m, so |V| m^2 / m) and the Gray-code walk over V reach it
    for m in range(1, 200, 2):
        assert sum(comb(m, w) * (m - 2 * w) ** 2
                   for w in range(0, m + 1, 2)) == m * 2 ** (m - 1)
    for m in range(3, 16, 2):
        basis = _module_basis(build_so_wild(m))
        assert len(basis) == m - 1
        assert (_period_norm(m, basis)
                == _gray_code_square_sum(m, basis) == m * 2 ** (m - 1))


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
    # the obstruction is visible on the sign generator D and on each of
    # its conjugates, the rotations of its sign vector: eigenvalue pattern
    # (1^5, (-1)^2) admits no inverse-closed triple arrangement
    flip = w.generators[0]
    assert sorted(flip.exps) == [0] * 5 + [1] * 2 and flip.n == 2
    d, = wildtwo._sign_module(w.generators, 7)
    assert all(v.bit_count() == 2 for v in wildtwo._rotations(d, 7))
    assert not wildtwo.g2_admissible_eigenvalues([ONE] * 5 + [MINUS_ONE] * 2)


def test_so_wild_rejects_bad_m():
    with pytest.raises(ValueError):
        build_so_wild(4)
    with pytest.raises(ValueError):
        build_so_wild(1)
    with pytest.raises(ValueError):
        build_so_wild(16)


def test_so_wild_m_bound_refuses_before_building(monkeypatch):
    assert wildtwo._SO_M_BOUND == 1001
    monkeypatch.setattr(wildtwo, "_SO_M_BOUND", 5)
    assert so_wild_report(build_so_wild(5))["order"] == 80

    # an m past the bound builds no matrix; an even one is still bad input
    def refuse(*args):
        raise AssertionError("built a matrix")

    monkeypatch.setattr(wildtwo, "_make", refuse)
    monkeypatch.setattr(MonomialMatrix, "permutation", refuse)
    with pytest.raises(ResourceBoundExceeded,
                       match="^m = 7 exceeds the bound 5$"):
        build_so_wild(7)
    with pytest.raises(ValueError):
        build_so_wild(20000)


def test_so_wild_shift_check_fails_on_a_wrong_rotation(monkeypatch):
    # c D c^-1 is D's sign vector rotated up one place; rotating it down
    # gives c^-1 D c, which the check refuses
    monkeypatch.setattr(wildtwo, "_rotate",
                        lambda v, m: (v >> 1 | v << (m - 1)) & ((1 << m) - 1))
    with pytest.raises(AssertionError,
                       match="^cycle does not shift the sign generators$"):
        build_so_wild(7)


def test_so_wild_shift_check_is_tied_to_the_product(monkeypatch):
    # the rotation agrees whatever __mul__ does; a wrong product fails the
    # check
    assert build_so_wild(5).generators[0].exps == (1, 1, 0, 0, 0)
    monkeypatch.setattr(MonomialMatrix, "__mul__", lambda a, b: a)
    with pytest.raises(AssertionError,
                       match="^cycle does not shift the sign generators$"):
        build_so_wild(5)


@pytest.mark.parametrize("m", [3, 7, 101])
def test_so_wild_report_spans_twice(so_wild, monkeypatch, m):
    # one span for V and one for its commutator (1 + x)V; the rows of the
    # shifted characters, the rotations of 0b11, are not spanned
    calls = []
    xor_basis = wildtwo._xor_basis

    def counting(vectors):
        calls.append(m)
        return xor_basis(vectors)

    monkeypatch.setattr(wildtwo, "_xor_basis", counting)
    rep = so_wild_report(so_wild(m))
    assert len(calls) == 2
    assert rep["conjugates_distinct"] and rep["joint_kernel_is_diagonal"]


def test_so_wild_report_refuses_m_below_three():
    # at m = 2 the shifted characters' two rows coincide, so the clauses
    # reported as constants would not hold
    with pytest.raises(ValueError, match="^m must be at least 3, got 2$"):
        so_wild_report(_signed_cycle_group(2, (0, 1)))


def test_so_wild_cycle_is_the_permutation_matrix():
    for m in (3, 7, 101):
        flip, cycle = build_so_wild(m).generators
        want = MonomialMatrix.permutation(tuple((k - 1) % m for k in range(m)))
        assert type(cycle) is MonomialMatrix and cycle == want
        assert cycle.n == 1 and cycle.det().is_one


def test_so_wild_build_holds_two_matrices():
    tracemalloc.start()
    try:
        w = build_so_wild(1001)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(w.generators) == 2 and held < 1 << 20


def test_so_wild_report_peaks_below_a_megabyte():
    # the norm reads V's period, not an m x m table of coordinate classes
    tracemalloc.start()
    try:
        rep = so_wild_report(build_so_wild(1001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["irreducible"] and peak < 1 << 20


def test_so_wild_builds_past_fifteen():
    # any odd m >= 3 builds; the report needs no closure
    for m in (17, 21):
        rep = so_wild_report(build_so_wild(m))
        assert rep["order"] == 2 ** (m - 1) * m and rep["order_expected"]
        assert rep["abelianization"] == [m] and rep["irreducible"]


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


@pytest.fixture
def uncached_g2():
    """Clear the G2 group cache before and after, so the test builds it
    afresh and leaves no group of its own behind."""
    build_g2_jordan.cache_clear()
    yield
    build_g2_jordan.cache_clear()


def test_jordan_determinism():
    # the shared group and a fresh, uncached build give the same report
    a = g2_jordan_report(build_g2_jordan())
    b = g2_jordan_report(build_g2_jordan.__wrapped__())
    assert a == b


def test_g2_jordan_is_built_once():
    assert build_g2_jordan() is build_g2_jordan()


def test_g2_jordan_is_read_only_with_one_copy_of_each_matrix(g2_jordan):
    with pytest.raises(TypeError):
        g2_jordan.matrix[(0, 1, 0)] = g2_jordan.matrix[(1, 1, 0)]
    assert len(g2_jordan.matrix) == 168
    els = g2_jordan.group.elements
    assert all(x is els[g2_jordan.group.index[x]]
               for x in g2_jordan.matrix.values())
    assert all(x is els[g2_jordan.group.index[x]] for x in g2_jordan.jordan)


def test_cached_results_of_the_shared_group_cannot_be_changed(g2_jordan):
    # every report in the process reads the one shared group; a caller
    # that tries to change its tables, tree, generators, elements, index,
    # constituents or what it has cached changes no later report
    grp = g2_jordan.group
    before = g2_jordan_report(g2_jordan)
    conj = grp._conj_tables()
    cons = g2_jordan.constituents
    for cached in (grp.tables, grp.tables[0], grp._tree, *grp._tree,
                   grp.generators, grp.conjugacy_classes(),
                   grp.normal_subgroups(), conj, conj[0], grp.elements,
                   cons):
        assert isinstance(cached, tuple)
        with pytest.raises(TypeError):
            cached[0] = cached[-1]
        with pytest.raises(AttributeError):
            cached.append(cached[-1])
    with pytest.raises(TypeError):
        grp.index[grp.elements[1]] = 0
    with pytest.raises(AttributeError):
        g2_jordan.constituents = cons[:1]
    with pytest.raises(AttributeError):
        cons[0].selfdual = not cons[0].selfdual
    assert g2_jordan_report(build_g2_jordan()) == before
    assert g2_jordan.constituents is cons


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
def test_g2_jordan_rejects_a_corrupted_model(monkeypatch, uncached_g2,
                                            changes, message):
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


def _elementwise_terms(g2j):
    """The conjugation terms by multiplying out r^-1 g r for each of the
    168 elements g and the 7 coset representatives r = (0, a, 0)."""
    reps = [((0, a, 0), wildtwo._triple_inv((0, a, 0))) for a in range(1, 8)]
    terms = {}
    for g in g2j.triples:
        terms[g] = []
        for r, ri in reps:
            v, a, f = wildtwo._triple_mul(ri, wildtwo._triple_mul(g, r))
            if a == 1:
                terms[g].append((-1 if wildtwo._F8_TRACE[v] else 1, f))
    return terms


def _elementwise_characters(g2j):
    """The 21-dimensional character and the three constituents at all 168
    elements, as Cyc values."""
    terms = _elementwise_terms(g2j)
    chars = [{g: Cyc.integer(3, g2j.trace(g)) for g in g2j.triples}]
    for k in range(3):
        vals = {}
        for g, ts in terms.items():
            vec = [0, 0, 0]
            for sign, f in ts:
                vec[k * f % 3] += sign
            vals[g] = Cyc(3, tuple(vec))
        chars.append(vals)
    return chars


def _elementwise_inner_product(avals, bvals):
    total = sum((a * bvals[g].conj() for g, a in avals.items()),
                Cyc.zero(3)).rational_value()
    assert total is not None and total % 168 == 0
    return total // 168


def _elementwise_constituents(g2j):
    """mackey_decompose's answer from sums over all 168 elements."""
    big, *parts = _elementwise_characters(g2j)
    out = []
    for k, vals in enumerate(parts):
        deg = vals[(0, 1, 0)].rational_value()
        kernel = [g for g in g2j.triples if vals[g] == Cyc.integer(3, deg)]
        selfdual = all(vals[g] == vals[wildtwo._triple_inv(g)]
                       for g in g2j.triples)
        out.append(wildtwo.Constituent(k=k, degree=deg, selfdual=selfdual,
                                       faithful=kernel == [(0, 1, 0)]))
    return out


def test_class_sums_match_the_elementwise_sums(g2_jordan):
    # the closed-form terms are the multiplied-out ones, and the class
    # version gives the constituents and every inner product of the
    # 168-element sums
    terms = wildtwo._conjugation_terms(g2_jordan)
    assert terms == _elementwise_terms(g2_jordan)
    assert mackey_decompose(g2_jordan) == _elementwise_constituents(g2_jordan)

    grp = g2_jordan.group
    classes = grp.conjugacy_classes()
    at = {grp.index[x]: t for t, x in g2_jordan.matrix.items()}
    reps = [at[min(c)] for c in classes]
    sizes = [len(c) for c in classes]
    big, *parts = _elementwise_characters(g2_jordan)
    by_class = [[(g2_jordan.trace(t), 0) for t in reps]]
    for k in range(3):
        vals = wildtwo._induced_from_extension(terms, k)
        by_class.append([vals[t] for t in reps])
        for t in reps:
            x, y = vals[t]
            assert Cyc(3, (x, y, 0)) == parts[k][t]
    products = {}
    for i, a in enumerate([big] + parts):
        for j, b in enumerate(parts):
            products[i, j] = _elementwise_inner_product(a, b)
            assert products[i, j] == wildtwo._inner_product(
                sizes, by_class[i], by_class[j + 1])
    assert len(products) == 12
    assert [products[0, j] for j in range(3)] == [1, 1, 1]
    assert all(products[i + 1, j] == (i == j)
               for i in range(3) for j in range(3))


def test_mackey_rejects_merged_classes(monkeypatch, g2_jordan):
    # the 7 nontrivial translations and the 24 elements of order 7 merged
    # into one class: the constituents take -1 on one and 0 on the other,
    # so they are no longer constant on the classes
    classes = g2_jordan.group.conjugacy_classes()
    merged = (classes[0], classes[1] | classes[2]) + classes[3:]
    monkeypatch.setattr(g2_jordan.group, "conjugacy_classes",
                        lambda: merged)
    with pytest.raises(AssertionError, match="not a class function"):
        mackey_decompose(g2_jordan)


def test_g2_jordan_report_reads_traces_at_class_representatives(
        monkeypatch):
    # a group of its own, whose constituents no earlier report has read
    g2j = build_g2_jordan.__wrapped__()
    read = []
    trace_int = MonomialMatrix.trace_int

    def counting(self):
        read.append(self)
        return trace_int(self)

    monkeypatch.setattr(MonomialMatrix, "trace_int", counting)
    g2_jordan_report(g2j)
    assert len(read) == 8
    assert ({g2j.group.index[x] for x in read}
            == {min(c) for c in g2j.group.conjugacy_classes()})
    # a second report reads the kept constituents
    g2_jordan_report(g2j)
    assert len(read) == 8


def test_g2_jordan_reports_decompose_once(monkeypatch, uncached_g2):
    # the shared group keeps its constituents, so the second report runs
    # no Mackey decomposition and repeats none of its checks
    calls = []
    decompose = wildtwo.mackey_decompose

    def counting(g2j):
        calls.append(g2j)
        return decompose(g2j)

    monkeypatch.setattr(wildtwo, "mackey_decompose", counting)
    first = g2_jordan_report(build_g2_jordan())
    assert g2_jordan_report(build_g2_jordan()) == first
    assert calls == [build_g2_jordan()]


def test_g2_jordan_product_count(monkeypatch, uncached_g2):
    # generate, the homomorphism check and normal_subgroups run on index
    # tables; what is left is decoding the group along its spanning tree,
    # one gathered matrix per non-identity element and no product, and
    # build_g2_jordan squaring the 8 translations; each of the 167 + 8
    # makes one matrix
    made = _counting_mul(monkeypatch, MonomialMatrix)
    decoded = []
    make = monomial._make

    def counting(*args):
        decoded.append(args)
        return make(*args)

    monkeypatch.setattr(monomial, "_make", counting)
    g2_jordan_report(build_g2_jordan())
    assert len(made) == 8 and len(decoded) == 167 + 8
