"""Acceptance gate: one test per headline capability, named so that the
verbose pytest report reads as a per-criterion pass/fail record.

Criterion 1 runs first on purpose: it pays for the exact E7 and E8 coset
tallies once, and the later scans reuse those cached order sets.
"""

import hashlib
import json
from math import gcd

from ggt import primesearch
from ggt.cli import main
from ggt.fingroup import (FinGroup, cyclic, direct_product, is_type_np,
                          is_type_npl, metacyclic)
from ggt.monomial import MonomialMatrix
from ggt.numth import is_prime, mult_order
from ggt.primesearch import (SearchRequest, find_prime_pair,
                             validate_certificate)
from ggt.roots import RootOfUnity, check_selfdual_orbit, frobenius_orbit
from ggt.rootsystems import (almost_minuscule_data, check_order_table,
                             order_table, uniqueness_scan)
from ggt.weilparams import (build_tame_parameter, g2_admissible_eigenvalues,
                            is_g2_parameter, palindrome_split,
                            parameter_image)
from ggt.wildtwo import g2_jordan_report, so_wild_report

PRIMES_Q = tuple(q for q in range(2, 50) if is_prime(q))
PRIMES_P = tuple(p for p in range(3, 500) if is_prime(p))


def test_criterion_1_order_table(capsys):
    check_order_table()  # hard-fails naming the first bad row

    rows = {r["root_system"]: r for r in order_table()}
    assert len(rows) == 29
    assert all(r["agrees"] for r in rows.values())

    # the lone printed row whose reference is not an antichain: 4 | 8
    assert rows["B4"]["reference"] == [4, 6, 8]
    assert rows["B4"]["maximal"] == [6, 8]
    assert all(row["maximal"] == row["reference"]
               for name, row in rows.items() if name != "B4")

    # E8 is exact like every other row
    assert all(row["mode"] == "exact" for row in rows.values())
    e8 = rows["E8"]
    assert e8["maximal"] == [14, 18, 20, 24, 30]
    orders = json.loads(main_json(capsys,
                                  ["weyl", "orders", "--type", "E8"])
                        )["results"]["orders"]
    assert orders == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20,
                      24, 30]

    # and the command-line table reproduces every row
    report = json.loads(main_json(capsys, ["weyl", "table"]))
    assert len(report["results"]["rows"]) == 29
    assert all(c["pass"] for c in report["checks"])
    print("criterion 1: order table reproduced, 29/29 rows")


def main_json(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_criterion_2_uniqueness_scans():
    for rank, required, expected in [
        (2, {6}, ["G2"]),
        (4, {8, 12}, ["F4"]),
        (6, {9}, ["E6"]),
        (7, {18, 30}, ["E7"]),
        (8, {18, 20, 30}, ["E8"]),
    ]:
        hits = uniqueness_scan(rank, required)
        assert [rs.label for rs in hits] == expected, (rank, required)
    print("criterion 2: five uniqueness scans pin the exceptional types")


def test_criterion_3_so_wild_suite(so_wild):
    for m in (3, 5, 7, 9, 11, 13):
        rep = so_wild_report(so_wild(m))
        assert rep["order"] == 2 ** (m - 1) * m and rep["order_expected"]
        assert rep["abelianization"] == [m]
        assert rep["commutator_expected"]
        assert rep["commutator"] == {"order": 2 ** (m - 1),
                                     "elementary_abelian": True}
        assert rep["det_trivial"], m
        assert rep["irreducible"], m
        assert rep["g2_obstruction"] is (True if m == 7 else None), m
    print("criterion 3: sign-cycle groups verified for m in 3..13")


def test_criterion_4_jordan_suite(g2_jordan):
    rep = g2_jordan_report(g2_jordan)
    assert rep["order"] == 168
    assert rep["jordan_order"] == 8
    cons = rep["constituents"]
    assert [c["degree"] for c in cons] == [7, 7, 7]
    assert all(c["faithful"] for c in cons)
    assert sum(c["selfdual"] for c in cons) == 1
    print("criterion 4: order-168 group splits as three degree-7 faithful "
          "constituents, one self-dual")


def test_criterion_5_tame_parameter_grid():
    count = 0
    for q in PRIMES_Q:
        for p in PRIMES_P:
            if p == q:
                continue
            m = mult_order(q, p)
            if m % 2 or m > 8:
                continue
            n = m // 2
            param = build_tame_parameter(q, (RootOfUnity(1, p),), n)
            checks = param.checks()
            assert checks["det"] and checks["form"], (q, p)
            assert checks["conj_relation"], (q, p)
            image = parameter_image(param)
            assert image.order == 2 * n * p, (q, p)
            assert is_type_np(image, 2 * n, p) is not None, (q, p)
            palindromic, _ = palindrome_split(param.eigenvalues())
            assert palindromic, (q, p)
            if n == 3:
                want = (q * q - q + 1) % p == 0
                assert is_g2_parameter(param).is_g2 == want, (q, p)
                assert g2_admissible_eigenvalues(
                    param.eigenvalues()) == want, (q, p)
            count += 1
    assert count == 65
    print(f"criterion 5: {count} tame parameters verified end to end")


def test_criterion_6_orbit_lemma_exhaustive():
    checked = selfdual = 0
    for q in PRIMES_Q:
        for den in range(3, 201):
            if gcd(den, q) != 1:
                continue
            seen: set[int] = set()
            for num in range(1, den):
                if gcd(num, den) != 1 or num in seen:
                    continue
                orbit = frobenius_orbit(RootOfUnity(num, den), q)
                seen.update(r.num for r in orbit.elements)
                checked += 1
                if orbit.selfdual:
                    selfdual += 1
                    assert orbit.size % 2 == 0, (q, num, den)
                    assert check_selfdual_orbit(orbit), (q, num, den)
    assert checked > 12000 and selfdual > 2900
    print(f"criterion 6: {selfdual} self-dual orbits out of {checked}, "
          "inverse at half-way in every one")


def test_criterion_7_prime_search_grid(monkeypatch):
    calls = 0
    search_is_prime = primesearch.is_prime

    def counted(n):
        nonlocal calls
        calls += 1
        return search_is_prime(n)

    monkeypatch.setattr(primesearch, "is_prime", counted)
    pairs = []
    for n in (1, 2, 3, 4):
        for ell in (2, 3, 5, 7):
            for t in (1, 2, 3, 4):
                for d in (1, 5, 10):
                    cert = find_prime_pair(SearchRequest(n, ell, t, d))
                    verdict = validate_certificate(cert)
                    assert verdict["all_ok"], (n, ell, t, d, verdict)
                    assert mult_order(cert.pair.q, cert.pair.p) == 2 * n
                    pairs.append([cert.pair.p, cert.pair.q])
    cells = len(pairs)
    assert cells == 192
    # the least pairs, equal to those a plain scan of every q = 1 mod step
    # finds
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == \
        "40df301072cc7ef974685d864b9de84d8f473785ae8b796e0a09a8def6b65929"
    # deterministic work: the primality tests the search makes (testing
    # every q = 1 mod step would take 9,911)
    assert calls == 3615
    print(f"criterion 7: {cells} search cells validated independently")


def test_criterion_8_almost_minuscule_table():
    for n in range(2, 9):
        assert almost_minuscule_data(f"B{n}") == (2 * n + 1, 1), n
    for n in range(3, 9):
        assert almost_minuscule_data(f"C{n}") == (2 * n * n - n - 1,
                                                  n - 1), n
    assert almost_minuscule_data("G2") == (7, 1)
    assert almost_minuscule_data("F4") == (26, 2)
    print("criterion 8: almost-minuscule dimensions from root data")


def _sym3():
    return FinGroup.generate([MonomialMatrix.permutation((1, 0, 2)),
                              MonomialMatrix.permutation((1, 2, 0))])


def _alt4():
    return FinGroup.generate([MonomialMatrix.permutation((1, 2, 0, 3)),
                              MonomialMatrix.permutation((1, 0, 3, 2))])


def test_criterion_9_group_criteria():
    battery = [
        _sym3(),
        _alt4(),
        cyclic(12),
        metacyclic(6, 7),
        metacyclic(4, 5),
        direct_product(cyclic(4), metacyclic(6, 7)),
        direct_product(cyclic(3), metacyclic(2, 3)),
    ]

    # depth-d cores commute with every quotient map
    for g in battery:
        for nsub in g.normal_subgroups():
            quo, proj = g.quotient(nsub)
            for d in range(1, 9):
                image = {proj(x) for x in g.index_core(d)}
                assert image == set(quo.index_core(d)), (g.order, len(nsub))

    # killing a normal ell-subgroup preserves the type witness
    g = direct_product(cyclic(4), metacyclic(6, 7))
    for nsub in g.normal_subgroups():
        if len(nsub) in (1, 2, 4):
            quo, _ = g.quotient(nsub)
            assert is_type_np(quo, 6, 7) is not None, len(nsub)
    assert is_type_npl(g, 6, 7, 2)

    assert len(metacyclic(6, 7).index_core(6)) == 7

    assert is_type_np(metacyclic(6, 7), 6, 7) is not None
    assert is_type_np(metacyclic(4, 5), 4, 5) is not None
    assert is_type_np(metacyclic(6, 7), 3, 7) is None
    assert is_type_np(cyclic(12), 6, 7) is None
    assert is_type_np(cyclic(21), 2, 7) is None
    assert not is_type_npl(cyclic(12), 6, 7, 2)
    print("criterion 9: depth cores, quotient stability and type "
          "detection verified over the battery")
