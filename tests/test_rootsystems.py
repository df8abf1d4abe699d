import hashlib
import itertools
import tracemalloc
from collections import Counter
from math import factorial, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggt import rootsystems, weylenum
from ggt.errors import ResourceBoundExceeded
from ggt.rootsystems import (IRREDUCIBLE_LABELS, OrderSet, RootData,
                             RootSystem, _exceptional_tally, _system_table,
                             almost_minuscule_data,
                             audit_omission_policy,
                             cyclic_weight_permutation_check,
                             even_dimension_controls, order_table, root_data,
                             uniqueness_scan, weyl_element_orders, weyl_order)
from ggt.walk import orbits, walk
from ggt.weylenum import (_coset, _cycle_count, _identity, _perm_levels,
                          _product, _reflections, _tower, enumerate_orders,
                          weight_orbit_cycles)


def test_cartan_matrices_well_formed():
    for label in IRREDUCIBLE_LABELS:
        data = root_data(label)
        cartan = np.array(data.cartan)
        assert (np.diag(cartan) == 2).all(), label
        off = cartan - np.diag(np.diag(cartan))
        assert (off <= 0).all(), label
        # base coordinates reproduce the ambient roots exactly
        base = np.array(data.roots_in_base, dtype=np.int64)
        simple = np.array(data.simple, dtype=np.int64)
        roots = np.array(data.roots, dtype=np.int64)
        assert (base @ simple == roots).all(), label
        assert len(data.roots) % 2 == 0
        assert data.short_simple_count <= data.rank


# sha256 prefixes, per RootData field, of repr([field of root_data(label)
# for label in IRREDUCIBLE_LABELS]) as the Euclidean reflection closure
# and the Fraction solve into simple-root coordinates produced them
ROOT_DATA_GOLDEN = {
    "label": "9442748ced3f7970",
    "rank": "22b31ac921d02f43",
    "simple": "7df6164783877beb",
    "roots": "6b04e1c498daf748",
    "cartan": "bf34026673c3d739",
    "roots_in_base": "a1353d2df9605fb3",
    "short_root_count": "e28af236040c67df",
    "short_simple_count": "b5e14fd6ee66e0be",
}


def test_root_data_matches_golden_digests():
    assert len(IRREDUCIBLE_LABELS) == 31
    assert RootData._fields == tuple(ROOT_DATA_GOLDEN)
    for name in RootData._fields:
        values = [getattr(root_data(label), name)
                  for label in IRREDUCIBLE_LABELS]
        digest = hashlib.sha256(repr(values).encode()).hexdigest()[:16]
        assert digest == ROOT_DATA_GOLDEN[name], name


def test_simple_reflections_are_reflections():
    # s_i as the matrix of images s_i(omega_1), ..., s_i(omega_n)
    for label in ("A3", "B3", "C3", "D4", "G2", "F4"):
        data = root_data(label)
        images = [list(_reflections(data.cartan)(omega))
                  for omega in _identity(data.rank)]
        for column in zip(*images):
            mat = np.array(column)
            assert round(np.linalg.det(mat)) == -1
            assert (mat @ mat == np.eye(data.rank, dtype=np.int64)).all()


# fresh oracles: order statistics straight from the permutation models

def _perm_orders(n):
    out = set()
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        order = 1
        for i in range(n):
            if seen[i]:
                continue
            size, j = 0, i
            while not seen[j]:
                seen[j] = True
                size += 1
                j = perm[j]
            order = lcm(order, size)
        out.add(order)
    return out


def _signed_perm_orders(n, even_only):
    out = set()
    for perm in itertools.permutations(range(n)):
        for signbits in range(2 ** n):
            signs = [(signbits >> i) & 1 for i in range(n)]
            if even_only and sum(signs) % 2 == 1:
                continue
            seen = [False] * n
            order = 1
            for i in range(n):
                if seen[i]:
                    continue
                size, j, flip = 0, i, 0
                while not seen[j]:
                    seen[j] = True
                    size += 1
                    flip ^= signs[j]
                    j = perm[j]
                order = lcm(order, size * (2 if flip else 1))
            out.add(order)
    return out


def test_type_a_orders_match_symmetric_group():
    for n in range(1, 6):
        got = weyl_element_orders(f"A{n}").orders
        assert got == _perm_orders(n + 1), n


def test_type_bc_orders_match_signed_permutations():
    for n in range(2, 6):
        want = _signed_perm_orders(n, even_only=False)
        assert weyl_element_orders(f"B{n}").orders == want, n
        if n >= 3:
            assert weyl_element_orders(f"C{n}").orders == want, n


def test_type_d_orders_match_even_signed_permutations():
    want = _signed_perm_orders(4, even_only=True)
    assert weyl_element_orders("D4").orders == want


def test_enumeration_agrees_with_partition_formulas():
    # the coset tower and the combinatorial route are independent
    labels = [lab for lab in IRREDUCIBLE_LABELS
              if lab[0] in "ABCD" and root_data(lab).rank <= 6]
    assert len(labels) == 6 + 5 + 4 + 3
    for label in labels:
        data = root_data(label)
        enumerated = enumerate_orders(data.cartan, data.weyl_order)
        assert sum(enumerated.values()) == data.weyl_order
        assert frozenset(enumerated) == weyl_element_orders(label).orders, \
            label


# element-order tallies of the hash-keyed breadth-first enumeration that
# the coset tower replaced: an independent reference for each type
BFS_TALLIES = {
    "G2": {1: 1, 2: 7, 3: 2, 6: 2},
    "F4": {1: 1, 2: 139, 3: 80, 4: 228, 6: 464, 8: 144, 12: 96},
    "E6": {1: 1, 2: 891, 3: 800, 4: 5940, 5: 5184, 6: 12960, 8: 6480,
           9: 5760, 10: 5184, 12: 8640},
    "E7": {1: 1, 2: 10207, 3: 16352, 4: 151200, 5: 48384, 6: 560672,
           7: 207360, 8: 362880, 9: 161280, 10: 338688, 12: 483840,
           14: 207360, 15: 96768, 18: 161280, 30: 96768},
}

E8_TALLY = {1: 1, 2: 199951, 3: 365120, 4: 12806640, 5: 1741824,
            6: 48843200, 7: 24883200, 8: 83462400, 9: 19353600,
            10: 30772224, 12: 120960000, 14: 74649600, 15: 34836480,
            18: 58060800, 20: 69672960, 24: 58060800, 30: 58060800}


def test_exceptional_tallies_match_bfs():
    for label, want in BFS_TALLIES.items():
        assert dict(_exceptional_tally(label)) == want, label


@pytest.mark.slow
def test_e8_tally_is_exact():
    # cached for the process: criterion 1 of the acceptance suite pays
    # for it when the whole suite runs
    tally = dict(_exceptional_tally("E8"))
    assert sum(tally.values()) == 696_729_600 == weyl_order("E8")
    assert tally == E8_TALLY


def _record_levels(monkeypatch):
    """Route the kernel through a wrapper.  Returns the tallies the
    kernel calls return, in call order, which is level order, and a stack
    whose top is the call number (the level) of the running kernel
    call."""
    tallies, stack = [], []

    def recording(*args, real=weylenum._perm_tally):
        stack.append(len(tallies) + 1)
        try:
            tallies.append(real(*args))
            return tallies[-1]
        finally:
            stack.pop()
    monkeypatch.setattr(weylenum, "_perm_tally", recording)
    return tallies, stack


def _count_calls(monkeypatch, *names):
    """The number of calls of each named weylenum function."""
    calls = Counter()
    for name in names:
        def counting(*args, name=name, real=getattr(weylenum, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(weylenum, name, counting)
    return calls


_ONE_WALK = ("_tower", "_roots", "_perm_levels")


def test_tower_work_counter(monkeypatch):
    # E8 walks 2 cosets of W(E7), the orbits of 56 and 126 points, flips
    # the first into the other 56 and takes -W(E7) and W(E7) itself from
    # level 7's tally; the bound trips after the one tower walk and the
    # root closure that decides -1 in W, before any level runs a kernel
    data = root_data("E8")
    calls = _count_calls(monkeypatch, *_ONE_WALK)
    monkeypatch.setattr(weylenum, "_perm_tally",
                        lambda *args: pytest.fail("a coset was walked"))
    monkeypatch.setattr(weylenum, "_TALLY_BOUND", 2 * 2_903_040 - 1)
    with pytest.raises(ResourceBoundExceeded, match="5806080 elements"):
        weylenum.enumerate_orders(data.cartan, data.weyl_order)
    assert calls == Counter(_tower=1, _roots=1)


@pytest.mark.parametrize("label", ["F4", "E6", "E7"])
def test_tower_is_walked_once(monkeypatch, label):
    # one tower walk, one root closure and one set of root permutations
    # per tally, not one per level
    data = root_data(label)
    calls = _count_calls(monkeypatch, *_ONE_WALK)
    assert dict(enumerate_orders(data.cartan, data.weyl_order)) \
        == BFS_TALLIES[label]
    assert calls == Counter(dict.fromkeys(_ONE_WALK, 1))


def test_each_level_walks_only_its_other_cosets(monkeypatch):
    # E7 walks 1 coset of W(E6), 51,840 elements, and flips it into a
    # second; -W(E6) and W(E6) itself come from level 6 (4 cosets when
    # every coset was walked); E6, without -1, walks 2 cosets of W(D5)
    # (3 cosets, 5,760 elements, when the base coset was walked too)
    tallies, stack = _record_levels(monkeypatch)
    walked = Counter()
    real_coset = weylenum._coset

    def coset(*levels):
        for w in real_coset(*levels):
            walked[stack[-1]] += 1
            yield w
    monkeypatch.setattr(weylenum, "_coset", coset)
    data = root_data("E7")
    assert dict(weylenum.enumerate_orders(data.cartan, data.weyl_order)) \
        == BFS_TALLIES["E7"]
    # the leading blocks A1, 2A1, A2+A1, A4, D5, E6 and E7, in order;
    # the kernel leaves E7's coset -W(E6) to the flip of level 6's tally
    assert list(itertools.accumulate(
        (sum(t.values()) for t in tallies), initial=1))[1:] \
        == [2, 4, 12, 120, 1920, 51_840, 2_903_040 - 51_840]
    assert walked[7] == 51_840 and walked[6] == 3_840


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_mass_formula_at_every_level(monkeypatch, rank):
    # F4's levels are A1, A2, B3 and F4; one extra element of order 2 in
    # the walked cosets of any level fails that level's mass formula,
    # which the tower-size check cannot see (key 4: order 2, no power -1)
    real, calls = weylenum._perm_tally, []

    def corrupt(*args):
        tally = real(*args)
        calls.append(tally)
        if len(calls) == rank:
            tally[4] += 1
        return tally
    monkeypatch.setattr(weylenum, "_perm_tally", corrupt)
    data = root_data("F4")
    size = (2, 6, 48, 1152)[rank - 1]
    with pytest.raises(AssertionError, match=f"rank {rank} tally sums to "
                       f"{size + 1}, expected {size}"):
        enumerate_orders(data.cartan, data.weyl_order)


@pytest.mark.parametrize("moved,frobenius,phi", [
    # 1 element from order 4 (key 8) to order 2 (key 4): 893 involutions
    ((8, 4, 1), r"\[2, ", r"\[4\]"),
    # 4 elements from order 10 (key 20) to order 5 (key 10)
    ((20, 10, 4), r"\[5, ", r"\[\]"),
], ids=["order_4_to_2", "order_10_to_5"])
def test_certificates_catch_a_moved_count(monkeypatch, moved, frobenius,
                                          phi):
    # E6 has no -1, so no flip check; the moved counts keep every mass
    # formula, and Frobenius's theorem or phi(d) | N_d catches them
    data = root_data("E6")
    real, calls = weylenum._perm_tally, []
    source, target, count = moved

    def corrupt(*args):
        tally = real(*args)
        calls.append(tally)
        if len(calls) == 6:
            tally[source] -= count
            tally[target] += count
        return tally
    monkeypatch.setattr(weylenum, "_perm_tally", corrupt)
    with pytest.raises(AssertionError, match=f"^Frobenius fails at m in "
                       f"{frobenius}.*, phi\\(d\\) \\| N_d at d in {phi}$"):
        enumerate_orders(data.cartan, data.weyl_order)


def _weight_moves(label, k):
    """The tables of s_1, ..., s_n on the W-orbit of omega_k."""
    data = root_data(label)
    return walk([_identity(data.rank)[k - 1]], _reflections(data.cartan))[1]


def _scanned_cycles(label, k):
    """The elements of W that permute W omega_k in one cycle, counted one
    at a time over the whole group, as the tower lists it."""
    data, moves = root_data(label), _weight_moves(label, k)
    levels = _perm_levels(moves, _tower(data.cartan, data.weyl_order)[1])
    count = 0
    for w in _coset(levels[-1], levels[-2], _product(levels[:-2])):
        cycle, j = [0], w[0]
        while j:
            cycle.append(j)
            j = w[j]
        count += len(cycle) == len(moves[0])
    return count


# (label, k) of every supported weight system with |W| <= 46,080
SCANNED_WEIGHTS = [("G2", 1), ("A3", 2),
                   *((f"B{n}", k) for n in range(2, 7) for k in (1, n)),
                   *((f"D{n}", 1) for n in range(4, 7))]


@pytest.mark.parametrize("label,k", SCANNED_WEIGHTS)
def test_cycle_count_matches_the_whole_group_scan(label, k):
    data = root_data(label)
    assert _cycle_count(data.cartan, _weight_moves(label, k),
                        data.weyl_order) == _scanned_cycles(label, k)


def test_cycle_count_is_the_coxeter_class():
    # on B_n standard the 2n short roots are cycled by the Coxeter
    # elements alone, |W| / h = 2^(n-1) (n-1)! of them, h = 2n; on G2,
    # h = 6, by the 2 of the 12 elements that have order 6
    for n in range(2, 9):
        data = root_data(f"B{n}")
        assert _cycle_count(data.cartan, _weight_moves(f"B{n}", 1),
                            data.weyl_order) \
            == data.weyl_order // (2 * n) == 2 ** (n - 1) * factorial(n - 1)
    assert _cycle_count(root_data("G2").cartan, _weight_moves("G2", 1),
                        12) == 2


def test_weight_cycle_scan_peak_memory(monkeypatch):
    # the largest weight orbit a bytes permutation holds, the 256 spin
    # weights of B8: the tally walks x t W_{k-2} one element at a time, so
    # the peak stays far below the 10,321,920 permutations of W(B8), and
    # the tower is walked once, with no root closure
    data = root_data("B8")
    calls = _count_calls(monkeypatch, *_ONE_WALK)
    tracemalloc.start()
    try:
        found = weight_orbit_cycles(data.cartan, 8, 256, data.weyl_order,
                                    False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not found
    assert peak <= 4_000_000
    assert calls == Counter(_tower=1, _perm_levels=1)
    # the tower lists each element once, so the action it tallies need
    # not be faithful: on the 64 spin weights of B6, which are, its walk
    # meets 46,080 distinct permutations
    data = root_data("B6")
    tower = _tower(data.cartan, data.weyl_order)[1]
    # points 64..255 of a bytes permutation are fixed
    levels = _perm_levels(tower[-1][0], tower)
    scanned = [w[:64] for w in _coset(levels[-1], levels[-2],
                                      _product(levels[:-2]))]
    assert len(scanned) == len(set(scanned)) == 46_080


def test_permutations_hold_at_most_256_points():
    # E8's 240 roots are the largest spanning set; one point more fails
    # before any permutation is built
    a1 = ((2,),)
    tower = _tower(a1, 2)[1]
    with pytest.raises(AssertionError, match="at most 256 points, not 257"):
        _perm_levels([list(range(257))], tower)
    assert len(weylenum._roots(root_data("E8").cartan)[0]) == 240


def test_roots_are_the_root_closure():
    # the roots in simple-root coordinates against the orbit of the
    # simple roots alpha_i = C[i, :] as weights under s_1, ..., s_n, the
    # closure the permutation kernel once ran: root b is b . C as a weight
    for label in IRREDUCIBLE_LABELS:
        data = root_data(label)
        fam, n = rootsystems._parse_label(label)
        roots = weylenum._roots(data.cartan)[0]
        assert len(roots) == len(set(roots)) \
            == rootsystems._ROOT_COUNT[fam](n), label
        weights = walk(data.cartan, _reflections(data.cartan))[0]
        assert set(weights) == {
            tuple(int(x) for x in np.array(b) @ np.array(data.cartan))
            for b in roots}, label


def test_roots_list_the_simple_roots_first():
    # the kernel reads alpha_i as point i: the order loop composes only
    # these n points, which span Q^n, and -1 is the map sending each to
    # -alpha_i
    for label in IRREDUCIBLE_LABELS:
        cartan = root_data(label).cartan
        assert tuple(weylenum._roots(cartan)[0][:len(cartan)]) \
            == _identity(len(cartan)), label


def _block_cartan(*labels):
    blocks = [root_data(label).cartan for label in labels]
    n = sum(map(len, blocks))
    cartan = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            cartan[start + i][start:start + len(row)] = row
        start += len(block)
    return cartan


def _flipped_and_walked(monkeypatch, cartan, order):
    """The tally as enumerate_orders takes it, flipping the top level's
    cosets when -1 is in W, then with the -1 decision forced off, so that
    every coset is walked."""
    flipped = weylenum.enumerate_orders(cartan, order)
    with monkeypatch.context() as patch:
        patch.setattr(weylenum, "_minus_one", lambda roots, moves: False)
        return flipped, weylenum.enumerate_orders(cartan, order)


# D4 with its branch node numbered last
D4_LAST = [[2, 0, 0, -1], [0, 2, 0, -1], [0, 0, 2, -1], [-1, -1, -1, 2]]


def test_flip_matches_walking_every_coset(monkeypatch):
    # the walk of every coset is the flip's reference, on every
    # irreducible type of rank <= 7, B7 among them, and on a reducible
    # system; E7 has a test of its own below
    cases = [(label, root_data(label).cartan, root_data(label).weyl_order)
             for label in IRREDUCIBLE_LABELS
             if root_data(label).rank <= 7 and label != "E7"]
    cases.append(("B2+G2", _block_cartan("B2", "G2"), 8 * 12))
    for label, cartan, order in cases:
        flipped, walked = _flipped_and_walked(monkeypatch, cartan, order)
        assert flipped == walked, label
        assert sum(flipped.values()) == order
        if label in BFS_TALLIES:
            assert dict(flipped) == BFS_TALLIES[label]


def test_permutation_kernel_reproduces_the_e7_tally(monkeypatch):
    # E7 holds -1: the flipped tally, the walk of every coset and the
    # breadth-first tally agree
    data = root_data("E7")
    flipped, walked = _flipped_and_walked(monkeypatch, data.cartan,
                                          data.weyl_order)
    assert flipped == walked
    assert dict(flipped) == BFS_TALLIES["E7"]


@pytest.mark.parametrize("label", ["G2", "F4"])
def test_a_flip_that_fixes_the_identity_fails(monkeypatch, label):
    # with _negated the identity, -W_{n-1} is tallied as W_{n-1} and the
    # tally is still invariant under the flip, but it holds 2 elements
    # of order 1
    data = root_data(label)
    monkeypatch.setattr(weylenum, "_negated", lambda key: key)
    with pytest.raises(AssertionError,
                       match="^the tally holds 2 elements of order 1$"):
        weylenum.enumerate_orders(data.cartan, data.weyl_order)


def test_levels_through_reducible_leading_blocks(monkeypatch):
    # D4 with its branch node numbered last leads with A1+A1+A1, B2+G2
    # with B2+A1 and G2+B2 with G2+A1: the level below the top
    cases = [
        (D4_LAST, 192, "D4", "A1+A1+A1"),
        (_block_cartan("B2", "G2"), 96, "B2+G2", "A1+B2"),
        (_block_cartan("G2", "B2"), 96, "B2+G2", "A1+G2"),
    ]
    tallies, _ = _record_levels(monkeypatch)
    for cartan, order, label, lead in cases:
        tallies.clear()
        flipped, walked = _flipped_and_walked(monkeypatch, cartan, order)
        # both runs' level 3, calls 3 and 7, is W(lead)
        assert len(tallies) == 8
        for run in (tallies[:3], tallies[4:7]):
            assert 1 + sum(sum(t.values()) for t in run) \
                == weyl_order(lead), label
        assert flipped == walked, label
        assert sum(flipped.values()) == order
        assert frozenset(flipped) == weyl_element_orders(label).orders


def _projected_suborbits(points, cartan, k):
    """(first index, size) of each orbit of s_1, ..., s_{k-1} on the
    weights W_k omega_k cut to their first k coordinates, walked with the
    reflections of the leading k x k block, which must permute them."""
    cut = [p[:k] for p in points]
    index = {p: i for i, p in enumerate(cut)}
    assert len(index) == len(cut)
    block = [row[:k] for row in cartan[:k]]
    seen, out = set(), []
    for start, p in enumerate(cut):
        if start not in seen:
            orbit = {index[q] for q in
                     walk([p], _reflections(block[:k - 1]))[0]}
            assert start == min(orbit)
            seen |= orbit
            out.append((start, len(orbit)))
    assert len(seen) == len(cut)
    return out


def test_suborbits_match_the_projected_walk():
    # the suborbits read off the tables against the walk they replaced,
    # on every level of every irreducible type and of D4_LAST; each table
    # walk returns, on roots and on weights, permutes its points
    cases = [(root_data(label).cartan, root_data(label).weyl_order)
             for label in IRREDUCIBLE_LABELS] + [(D4_LAST, 192)]
    for cartan, order in cases:
        roots, tables = weylenum._roots(cartan)
        assert all(sorted(t) == list(range(len(roots))) for t in tables)
        tower = _tower(cartan, order)[1]
        for k, omega in enumerate(_identity(len(cartan)), 1):
            points, tables, _ = walk([omega], _reflections(cartan[:k]))
            assert tables == tower[k - 1][0], (cartan, k)
            assert all(sorted(t) == list(range(len(points))) for t in tables)
            suborbits = orbits(tables[:-1], len(tables[0]))
            assert [(orbit[0], len(orbit)) for orbit in suborbits] \
                == _projected_suborbits(points, cartan, k), (cartan, k)


# the degrees of the basic invariants (Humphreys 3.7): -1 is in W exactly
# when every degree is even (Humphreys 3.19)
DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: [*range(2, 2 * n - 1, 2), n],
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
                    8: (2, 8, 12, 14, 18, 20, 24, 30)}[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def test_minus_one_decision_matches_the_degrees():
    # the descent to w0 on the root permutations against the degrees, on
    # every irreducible type and on three sums; the degree table is
    # checked against |W| first
    labels = [*IRREDUCIBLE_LABELS, "A2+B2", "B2+G2", "A1+E7"]
    for label in labels:
        components = RootSystem.parse(label).components
        degrees = [d for lab in components
                   for d in DEGREES[lab[0]](int(lab[1:]))]
        assert len(degrees) == RootSystem.parse(label).rank, label
        assert prod(degrees) == weyl_order(label), label
        roots, moves = weylenum._roots(_block_cartan(*components))
        assert weylenum._minus_one(roots, moves) \
            == all(d % 2 == 0 for d in degrees), label


def test_a_wrong_negation_fails_the_flip_check(monkeypatch):
    # a key map for -w that forgets whether -1 is a power of w gets -w
    # wrong on E7's walked coset, where some w have -1 as a power; every
    # mass formula still holds, but the tally is no longer the same under
    # the map
    real = weylenum._negated
    monkeypatch.setattr(weylenum, "_negated", lambda key: real(key - key % 2))
    data = root_data("E7")
    with pytest.raises(AssertionError, match="tally of -w"):
        enumerate_orders(data.cartan, data.weyl_order)


def test_composite_orders_via_block_cartan():
    # direct enumeration of the A2+B2 Weyl group, order 6 * 8 = 48
    direct = enumerate_orders(_block_cartan("A2", "B2"), 48)
    assert sum(direct.values()) == 48
    assert frozenset(direct) == weyl_element_orders("A2+B2").orders
    assert weyl_order("A2+B2") == 48


def test_root_system_parsing():
    rs = RootSystem.parse("G2+A4")
    assert rs.label == "A4+G2"  # canonical component order
    assert rs.rank == 6
    assert str(rs) == "A4+G2"
    assert RootSystem.parse("B3+B3").rank == 6
    with pytest.raises(ValueError):
        RootSystem.parse("A5+F4")  # rank 9
    with pytest.raises(ValueError):
        RootSystem.parse("H4")
    with pytest.raises(ValueError):
        RootSystem.parse("D3")  # rank range starts at 4
    # spaces around + are fine; anything but the canonical
    # <family><rank> and an empty component are not
    assert RootSystem.parse("A1 + B2").label == "A1+B2"
    for text in ("", "A01", "G02", "B0_3", "A 1", "A+1", "a1", "A-1",
                 "A\u0661", "A1+", "+A1", "A1++B2", "A1+ +B2",
                 "A1+A01"):
        with pytest.raises(ValueError):
            RootSystem.parse(text)


@given(st.frozensets(st.integers(1, 60), min_size=1, max_size=12))
def test_order_set_maximal_is_divisibility_antichain(orders):
    oset = OrderSet(orders=orders, mode="exact")
    maximal = oset.maximal
    for a in maximal:
        for b in maximal:
            assert a == b or b % a != 0
    # every order divides some maximal element
    assert all(any(m % o == 0 for m in maximal) for o in orders)


@pytest.mark.slow
def test_weyl_element_orders_modes():
    exact = weyl_element_orders("G2")
    assert exact.orders == {1, 2, 3, 6}
    assert exact.maximal == {6}
    assert exact.mode == "exact"
    assert weyl_element_orders("B3").mode == "exact"
    e8 = weyl_element_orders("E8")
    assert e8.mode == "exact"
    assert e8.maximal == {14, 18, 20, 24, 30}


def test_enumerate_orders_rejects_wrong_group_order():
    data = root_data("G2")
    with pytest.raises(AssertionError):
        enumerate_orders(data.cartan, 13)
    with pytest.raises(AssertionError):
        enumerate_orders(data.cartan, 24)
    # the tower's walk passes expected_order // 2 = 2 points at level 2:
    # a wrong order, AssertionError, not a hit resource bound
    with pytest.raises(AssertionError, match="walk passed 2 points"):
        enumerate_orders(data.cartan, 5)


@pytest.mark.slow
def test_order_table_rows():
    rows = {r["root_system"]: r for r in order_table()}
    assert rows["G2"]["maximal"] == [6]
    assert rows["B3"]["reference"] == [4, 6]
    assert all(r["agrees"] for r in rows.values())
    # the one printed row carrying a redundant entry: 4 divides 8
    assert rows["B4"]["reference"] == [4, 6, 8]
    assert rows["B4"]["maximal"] == [6, 8]
    for name, row in rows.items():
        if name != "B4":
            assert row["maximal"] == row["reference"], name
    assert all(r["mode"] == "exact" for r in rows.values())


def test_uniqueness_scan_rank_four():
    hits = uniqueness_scan(4, {8, 12})
    assert [rs.label for rs in hits] == ["F4"]
    # a subset filter: an order past every table entry is no work
    assert uniqueness_scan(4, {10 ** 18}) == []
    with pytest.raises(ValueError):
        uniqueness_scan(4, {0, 8})


def _multisets_up_to_rank(bound: int) -> list[tuple[str, ...]]:
    # independent of the table's walk: every multiset by size, kept when
    # its total rank fits, then in lexicographic order, which is the
    # walk's order because the labels are sorted
    ranks = {lab: int(lab[1:]) for lab in IRREDUCIBLE_LABELS}
    small = [lab for lab in IRREDUCIBLE_LABELS if ranks[lab] <= bound]
    return sorted(
        combo for size in range(1, bound + 1)
        for combo in itertools.combinations_with_replacement(small, size)
        if sum(ranks[lab] for lab in combo) <= bound)


def test_uniqueness_scan_matches_its_definition():
    # the cached walk against an enumeration of the multisets and a
    # weyl_element_orders call per system
    oracle = _multisets_up_to_rank(6)
    for rank in range(1, 7):
        combos = [c for c in oracle if sum(int(x[1:]) for x in c) <= rank]
        table = _system_table(rank)
        assert [rs.components for rs, _ in table] == combos, rank
        systems = [RootSystem(c) for c in combos]
        for rs, orders in table:
            assert orders == weyl_element_orders(rs).orders, rs.label
        for required in ({1}, {2}, {6}, {4, 6}, {8, 12}, {9}, {10, 12},
                         {7}, {12, 30}):
            expected = [rs for rs in systems
                        if required <= weyl_element_orders(rs).orders]
            assert uniqueness_scan(rank, required) == expected, \
                (rank, required)


def test_uniqueness_scan_reads_the_cached_table(monkeypatch):
    assert [rs.label for rs in uniqueness_scan(6, {9})] == ["E6"]
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(rootsystems, "lcm", counting(lcm))
    monkeypatch.setattr(rootsystems, "weyl_element_orders",
                        counting(weyl_element_orders))
    assert [rs.label for rs in uniqueness_scan(6, {9})] == ["E6"]
    assert calls == []
    # a cold table does call both, so the counters are live
    _system_table.cache_clear()
    assert [rs.label for rs in uniqueness_scan(6, {9})] == ["E6"]
    assert {"lcm", "weyl_element_orders"} <= set(calls)


def test_omission_policy_small_rank():
    audit = audit_omission_policy(4)
    assert audit["agrees"]
    assert audit["missing_from_reference"] == []
    assert audit["unexpected_in_reference"] == []
    assert "A1" in audit["derived_rows"]


def test_almost_minuscule_dimensions():
    assert almost_minuscule_data("B3") == (7, 1)
    assert almost_minuscule_data("C3") == (14, 2)
    assert almost_minuscule_data("G2") == (7, 1)
    assert almost_minuscule_data("F4") == (26, 2)
    with pytest.raises(ValueError):
        almost_minuscule_data("A2+B2")


def test_weight_cycle_positives():
    for n in range(2, 9):
        assert cyclic_weight_permutation_check(f"B{n}", 2 * n + 1), n
    assert cyclic_weight_permutation_check("G2", 7)


def test_weight_cycle_negatives():
    controls = even_dimension_controls()
    assert controls == {
        "D4 standard (dim 8)": False,
        "B3 spin (dim 8)": False,
        "B4 spin (dim 16)": False,
        "A3 orthogonal (dim 6)": False,
    }
    with pytest.raises(ValueError):
        cyclic_weight_permutation_check("F4", 26)
    with pytest.raises(ValueError):
        cyclic_weight_permutation_check("B3", 9)
    # W(D7) has 322,560 elements, which the tally takes
    assert cyclic_weight_permutation_check("D7", 14) is False


@pytest.mark.parametrize("label,dim,cycles", [
    *((f"D{n}", 2 * n, False) for n in range(4, 9)),
    *((f"B{n}", 2 ** n, False) for n in range(3, 9)),
    # the 4-point orbit of C2's standard representation
    ("B2", 4, True),
])
def test_weight_cycles_through_rank_eight(label, dim, cycles):
    assert cyclic_weight_permutation_check(label, dim) is cycles
