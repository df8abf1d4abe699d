import dataclasses
import hashlib
import itertools
import tracemalloc
from collections import Counter
from math import lcm

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
from ggt.weylenum import (_coset, _identity, _perm_levels, _reflections,
                          _tower, enumerate_orders, weight_orbit_cycles)


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
    for field in dataclasses.fields(RootData):
        values = [getattr(root_data(label), field.name)
                  for label in IRREDUCIBLE_LABELS]
        digest = hashlib.sha256(repr(values).encode()).hexdigest()[:16]
        assert digest == ROOT_DATA_GOLDEN[field.name], field.name


def test_simple_reflections_are_reflections():
    # s_i as the matrix of images s_i(omega_1), ..., s_i(omega_n)
    for label in ("A3", "B3", "C3", "D4", "G2", "F4"):
        data = root_data(label)
        for move in _reflections(data.cartan, data.rank):
            mat = np.array([move(omega) for omega in _identity(data.rank)])
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
    # the matrix engine and the combinatorial route are independent
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


def _record_calls(monkeypatch):
    """Route every enumerate_orders call, the recursive ones included,
    through a wrapper.  Returns the Cartan matrices of the calls in
    order, as lists, and a stack whose top is the rank of the running
    call."""
    real, calls, stack = weylenum.enumerate_orders, [], []

    def recording(cartan, order):
        calls.append([list(row) for row in cartan])
        stack.append(len(cartan))
        try:
            return real(cartan, order)
        finally:
            stack.pop()
    monkeypatch.setattr(weylenum, "enumerate_orders", recording)
    return calls, stack


def test_tower_work_counter(monkeypatch):
    # E8 walks 4 cosets of W(E7) and takes the fifth, W(E7) itself, from
    # E7's tally; the bound trips before any recursion or walk
    data = root_data("E8")
    calls, _ = _record_calls(monkeypatch)
    for name in ("_perm_tally", "_matrix_tally"):
        monkeypatch.setattr(weylenum, name,
                            lambda *args: pytest.fail("a coset was walked"))
    monkeypatch.setattr(weylenum, "_TALLY_BOUND", 4 * 2_903_040 - 1)
    with pytest.raises(ResourceBoundExceeded, match="11612160 elements"):
        weylenum.enumerate_orders(data.cartan, data.weyl_order)
    assert len(calls) == 1


def test_each_level_walks_only_its_other_cosets(monkeypatch):
    # E7 keys 3 cosets of W(E6) in 27 chunks each (4 cosets, 108 chunks,
    # before the base coset came from E6's tally); E6 walks 2 cosets of
    # W(D5) as permutations (3 cosets, 5,760 elements, before)
    calls, stack = _record_calls(monkeypatch)
    chunks, walked = Counter(), Counter()
    real_keys, real_coset = weylenum._trace_keys, weylenum._coset

    def keys(w):
        chunks[stack[-1]] += 1
        return real_keys(w)

    def coset(*levels):
        for w in real_coset(*levels):
            walked[stack[-1]] += 1
            yield w
    monkeypatch.setattr(weylenum, "_trace_keys", keys)
    monkeypatch.setattr(weylenum, "_coset", coset)
    data = root_data("E7")
    assert dict(weylenum.enumerate_orders(data.cartan, data.weyl_order)) \
        == BFS_TALLIES["E7"]
    assert [len(cartan) for cartan in calls] == [7, 6, 5, 4, 3, 2, 1]
    assert dict(chunks) == {7: 81}
    assert walked[7] == 0 and walked[6] == 3_840


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_mass_formula_at_every_level(monkeypatch, rank):
    # F4 recurses through B3, A2 and A1; one extra element of order 2 in
    # the walked cosets of any level fails that level's mass formula,
    # which the tower-size check cannot see
    real = weylenum._perm_tally

    def corrupt(cartan, tower, orbits):
        tally = real(cartan, tower, orbits)
        if len(cartan) == rank:
            tally[2] += 1
        return tally
    monkeypatch.setattr(weylenum, "_perm_tally", corrupt)
    data = root_data("F4")
    size = (2, 6, 48, 1152)[rank - 1]
    with pytest.raises(AssertionError, match=f"rank {rank} tally sums to "
                       f"{size + 1}, expected {size}"):
        enumerate_orders(data.cartan, data.weyl_order)


def test_weight_cycle_scan_peak_memory():
    # the largest scanned group, W(B6) on its 64 spin weights: the scan
    # walks x t W(A4) one element at a time, so the peak stays far below
    # the whole group's 46,080 permutations (about 13 MB as bytes)
    data = root_data("B6")
    tracemalloc.start()
    try:
        found = weight_orbit_cycles(data.cartan, 6, 64, data.weyl_order,
                                    False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not found
    assert peak <= 1_000_000
    # the walk meets every element once, each a distinct permutation
    tower = _tower(data.cartan, data.weyl_order)
    points = tower[-1][0]  # the spin weights
    # points 64..255 of a bytes permutation are fixed
    walk = [w[:64] for w in _coset(*_perm_levels(data.cartan, tower,
                                                 points))]
    assert len(walk) == len(set(walk)) == 46_080


def test_permutations_hold_at_most_256_points():
    # E8's 240 roots are the largest spanning set; one point more fails
    # before any permutation is built
    a1 = ((2,),)
    tower = _tower(a1, 2)
    with pytest.raises(AssertionError, match="at most 256 points, not 257"):
        _perm_levels(a1, tower, [(j,) for j in range(257)])
    assert len(weylenum._spanning_points(root_data("E8").cartan)) == 240


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


def _both_kernels(monkeypatch, cartan, order):
    """The tallies with every level on the matrix kernel, then with every
    level on the permutation kernel."""
    monkeypatch.setattr(weylenum, "_MATRIX_WORK", 0)
    by_matrix = weylenum.enumerate_orders(cartan, order)
    monkeypatch.setattr(weylenum, "_MATRIX_WORK", weylenum._TALLY_BOUND)
    return by_matrix, weylenum.enumerate_orders(cartan, order)


def test_permutation_and_matrix_kernels_agree(monkeypatch):
    # each kernel is the other's reference, on every irreducible type of
    # rank <= 6 and on a reducible system
    cases = [(root_data(label).cartan, root_data(label).weyl_order)
             for label in IRREDUCIBLE_LABELS if root_data(label).rank <= 6]
    cases.append((_block_cartan("B2", "G2"), 8 * 12))
    for cartan, order in cases:
        by_matrix, by_permutation = _both_kernels(monkeypatch, cartan, order)
        assert by_permutation == by_matrix, cartan
        assert sum(by_permutation.values()) == order


def test_recursion_through_reducible_leading_blocks(monkeypatch):
    # D4 with its branch node numbered last leads with A1+A1+A1, B2+G2
    # with B2+A1 and G2+B2 with G2+A1
    d4_last = [[2, 0, 0, -1], [0, 2, 0, -1], [0, 0, 2, -1],
               [-1, -1, -1, 2]]
    cases = [
        (d4_last, 192, "D4", _block_cartan("A1", "A1", "A1")),
        (_block_cartan("B2", "G2"), 96, "B2+G2", _block_cartan("B2", "A1")),
        (_block_cartan("G2", "B2"), 96, "B2+G2", _block_cartan("G2", "A1")),
    ]
    calls, _ = _record_calls(monkeypatch)
    for cartan, order, label, lead in cases:
        calls.clear()
        by_matrix, by_permutation = _both_kernels(monkeypatch, cartan, order)
        assert calls[1] == lead, label
        assert by_permutation == by_matrix, label
        assert sum(by_matrix.values()) == order
        assert frozenset(by_matrix) == weyl_element_orders(label).orders


def test_permutation_kernel_reproduces_the_e7_tally(monkeypatch):
    data = root_data("E7")
    monkeypatch.setattr(weylenum, "_MATRIX_WORK", weylenum._TALLY_BOUND)
    assert dict(enumerate_orders(data.cartan, data.weyl_order)) == \
        BFS_TALLIES["E7"]


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
    # W(D7) has 322,560 elements: past the scan bound, before any is built
    with pytest.raises(ResourceBoundExceeded, match="322560 elements"):
        cyclic_weight_permutation_check("D7", 14)
