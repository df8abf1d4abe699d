import argparse
import hashlib
import json
import time

from ggt import cli, primesearch, rootsystems
from ggt.cli import main
from ggt.fingroup import FinGroup
from ggt.primesearch import SearchCertificate, validate_certificate
from ggt.rootsystems import IRREDUCIBLE_LABELS, RootData
from ggt.roots import FrobeniusOrbit, RootOfUnity, frobenius_orbit
from ggt.weilparams import (RealParameter, TameParameter,
                            build_tame_parameter)
from ggt.wildtwo import build_g2_jordan


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _report(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def test_orbit_report(capsys):
    code, report = _report(capsys, ["orbit", "--tau", "1/43", "--q", "7"])
    assert code == 0
    assert report["command"] == "orbit"
    assert all(c["pass"] for c in report["checks"])
    orbit = FrobeniusOrbit.from_json(report["results"])
    assert orbit == frobenius_orbit(RootOfUnity(1, 43), 7)
    assert orbit.size == 6 and orbit.selfdual


def test_orbit_rejects_composite_q(capsys):
    code, _ = _run(capsys, ["orbit", "--tau", "1/43", "--q", "6"])
    assert code == 2


def test_orbit_past_bound_exits_3(capsys):
    # the orbit has 500000003 elements; the default bound stops it early
    code = main(["orbit", "--tau", "1/1000000007", "--q", "7"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("ggt: resource bound") and "Traceback" not in err


def test_failing_check_still_reports(capsys):
    # five 1s and two -1s: palindromic but inadmissible, exit 1 with a
    # full report either way
    code, report = _report(
        capsys,
        ["eigs", "g2check", "--eigs", "0,0,0,0,0,1/2,1/2"])
    assert code == 1
    byname = {c["name"]: c["pass"] for c in report["checks"]}
    assert byname == {"admissible": False, "palindromic_shape": True}

    # six 1s and one -1: negative determinant kills the palindrome too
    code, report = _report(
        capsys,
        ["eigs", "g2check", "--eigs", "0,0,0,0,0,0,1/2"])
    assert code == 1
    byname = {c["name"]: c["pass"] for c in report["checks"]}
    assert byname == {"admissible": False, "palindromic_shape": False}
    assert report["results"]["rational_abc"] is None


def test_eigs_positive(capsys):
    code, report = _report(
        capsys,
        ["eigs", "g2check", "--eigs", "0,1/7,-1/7,2/7,-2/7,3/7,-3/7"])
    assert code == 0
    assert report["results"]["admissible"] is True
    assert report["results"]["rational_abc"] is not None


def test_param_tame_round_trip(capsys):
    code, report = _report(
        capsys, ["param", "tame", "--q", "7", "--p", "43", "--n", "3"])
    assert code == 0
    param = TameParameter.from_json(report["results"])
    assert param == build_tame_parameter(7, (RootOfUnity(1, 43),), 3)
    assert report["results"]["image"]["order"] == 258
    assert report["results"]["g2"]["is_g2"] is True
    assert {c["name"] for c in report["checks"]} == \
        {"det", "form", "conj_relation", "image_order", "type_np"}


def test_param_tame_wrong_order_is_usage_error(capsys):
    # 5 has order 5 mod 11, not 2
    code, _ = _run(capsys, ["param", "tame",
                            "--q", "5", "--p", "11", "--n", "1"])
    assert code == 2


def test_param_real(capsys):
    code, report = _report(capsys, ["param", "real", "--a", "1/2,1,3/2"])
    assert code == 0
    assert report["results"]["g2_signs"] is True


def _checks(report):
    return {c["name"]: c["pass"] for c in report["checks"]}


def test_orbit_closed_fails_on_a_short_orbit(capsys, monkeypatch):
    # drop the last element: q^5 does not fix 1/43, and 5 != ord_43(7)
    def short(tau, q):
        orbit = frobenius_orbit(tau, q)
        return FrobeniusOrbit(q=q, elements=orbit.elements[:-1])

    monkeypatch.setattr(cli, "frobenius_orbit", short)
    code, report = _report(capsys, ["orbit", "--tau", "1/43", "--q", "7"])
    assert code == 1
    closed, = (c for c in report["checks"] if c["name"] == "orbit_closed")
    assert closed == {"name": "orbit_closed", "pass": False,
                      "witness": "size 5"}


def test_orbit_closed_fails_on_a_doubled_orbit(capsys, monkeypatch):
    # twice round the orbit: q^12 fixes 1/43, but so does q^6
    def doubled(tau, q):
        orbit = frobenius_orbit(tau, q)
        return FrobeniusOrbit(q=q, elements=orbit.elements * 2)

    monkeypatch.setattr(cli, "frobenius_orbit", doubled)
    code, report = _report(capsys, ["orbit", "--tau", "1/43", "--q", "7"])
    assert code == 1 and not _checks(report)["orbit_closed"]


def test_orbit_closed_on_roots_of_order_at_most_two(capsys):
    for tau in ("0/1", "1/2"):
        code, report = _report(capsys, ["orbit", "--tau", tau, "--q", "7"])
        assert code == 0 and _checks(report) == {"orbit_closed": True}


def test_orbit_closed_never_factors_the_order(capsys):
    # 7^19 - 1 = 2 * 3 * 419 * 4534166740403, the last a prime past what
    # trial division settles, so ord_den(7) by factoring den would hit
    # the bound; the orbit has 19 elements and is checked through 19
    den = 7**19 - 1
    code, report = _report(capsys, ["orbit", "--tau", f"1/{den}",
                                    "--q", "7"])
    assert code == 0 and all(c["pass"] for c in report["checks"])
    assert report["results"]["size"] == 19


def test_nonzero_distinct_reads_the_returned_weights(capsys, monkeypatch):
    monkeypatch.setattr(cli, "real_parameter",
                        lambda vals: RealParameter((vals[0], vals[0])))
    code, report = _report(capsys, ["param", "real", "--a", "1/2,1"])
    assert code == 1
    assert _checks(report) == {"nonzero_distinct": False}


def test_internal_check_failure_exits_1_without_traceback(capsys,
                                                          monkeypatch):
    def broken(param):
        raise AssertionError("image has order 1,\nnot 258")

    monkeypatch.setattr(cli, "parameter_image", broken)
    code = main(["param", "tame", "--q", "7", "--p", "43", "--n", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "ggt: internal check failed: image has order 1, not 258\n"
    assert "Traceback" not in err


def test_primes_round_trip(capsys):
    code, report = _report(
        capsys, ["primes", "--n", "3", "--ell", "3", "--t", "3", "--d", "5"])
    assert code == 0
    cert = SearchCertificate.from_json(report["results"])
    assert (cert.pair.p, cert.pair.q) == (19, 601)
    assert validate_certificate(cert)["all_ok"]


def test_wild_so_exit_codes(capsys):
    code, report = _report(capsys, ["wild", "so", "--m", "3"])
    assert code == 0
    assert report["results"]["order"] == 12
    code, report = _report(capsys, ["wild", "so", "--m", "15"])
    assert code == 0 and report["results"]["order"] == 245760
    code, _ = _run(capsys, ["wild", "so", "--m", "4"])
    assert code == 2


def test_wild_so_fifteen_without_a_closure(capsys):
    # the order comes from the module of sign vectors, so 245,760
    # elements cost nothing, though the lazy closure's default bound is
    # 100,000
    start = time.perf_counter()
    code, report = _report(capsys, ["wild", "so", "--m", "15"])
    assert time.perf_counter() - start < 1
    assert code == 0 and all(c["pass"] for c in report["checks"])
    res = report["results"]
    assert res["order"] == 245760 and res["abelianization"] == [15]
    assert res["commutator"]["order"] == 2 ** 14


def test_wild_so_hundred_and_one(capsys):
    start = time.perf_counter()
    code, report = _report(capsys, ["wild", "so", "--m", "101"])
    assert time.perf_counter() - start < 1
    assert code == 0 and all(c["pass"] for c in report["checks"])
    assert report["results"]["abelianization"] == [101]


def _resource_bound(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1, argv
    assert code == 3, argv
    assert capsys.readouterr() == ("", f"ggt: resource bound: {message}\n")


def test_wild_so_past_the_m_bound_exits_3(capsys):
    # build plus report grow as m^2; m = 20001 would need about 20 GB
    _resource_bound(capsys, ["wild", "so", "--m", "20001"],
                    "m = 20001 exceeds the bound 1001")


def test_eigs_past_the_modulus_bound_exits_3(capsys):
    # the least common order is 1000003 * 1000033, and a ring element
    # would be a vector of that length
    _resource_bound(
        capsys, ["eigs", "g2check", "--eigs", "0,1/1000003,-1/1000003,"
                 "1/1000033,-1/1000033,2/1000003,-2/1000003"],
        "cyclotomic modulus 1000036000099 exceeds the bound 1000")


def test_primes_past_the_ceiling_exits_3(capsys):
    # the least pair for this request is (19, 601)
    _resource_bound(
        capsys, ["primes", "--n", "3", "--ell", "3", "--t", "3", "--d", "5",
                 "--ceiling", "50"],
        "no (p, q) with p, q < 50 for SearchRequest(n=3, ell=3, t=3, d=5, "
        "conductor_bound=100)")


def test_primes_ceiling_defaults_to_the_search_constant(monkeypatch):
    monkeypatch.setattr(primesearch, "DEFAULT_CEILING", 50)
    args = cli.build_parser().parse_args(
        ["primes", "--n", "3", "--ell", "3", "--t", "3", "--d", "5"])
    assert args.ceiling == 50


def _usage_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == "", argv
    assert err.startswith("ggt: ") and err.count("\n") == 1, argv
    assert "Traceback" not in err and "resource bound" not in err, argv


def test_non_positive_bounds_exit_2(capsys):
    # a ceiling no prime lies below is bad input, not a resource bound
    # that was hit
    for ceiling in ("1", "-1"):
        _usage_error(capsys, ["primes", "--n", "3", "--ell", "3", "--t", "3",
                              "--d", "5", "--ceiling", ceiling])


def test_wild_g2(capsys):
    code, report = _report(capsys, ["wild", "g2"])
    assert code == 0
    assert report["results"]["order"] == 168
    assert len(report["results"]["constituents"]) == 3


def test_wild_g2_cold_and_warm_print_the_same(capsys):
    # the first call in a process builds the G2 group, the second reuses
    # it; the two reports are byte-identical
    build_g2_jordan.cache_clear()
    try:
        cold = _run(capsys, ["wild", "g2"])
        warm = _run(capsys, ["wild", "g2"])
    finally:
        build_g2_jordan.cache_clear()
    assert cold[0] == 0 and cold == warm


def test_weyl_orders_deterministic_output(capsys):
    code, first = _run(capsys, ["weyl", "orders", "--type", "B3"])
    assert code == 0
    code, second = _run(capsys, ["weyl", "orders", "--type", "B3"])
    assert first == second
    report = json.loads(first)
    assert report["results"]["orders"] == [1, 2, 3, 4, 6]
    assert report["results"]["maximal"] == [4, 6]
    assert report["results"]["weyl_order"] == 48


def test_weyl_unique(capsys):
    code, report = _report(
        capsys, ["weyl", "unique", "--rank", "4", "--orders", "8,12"])
    assert code == 0
    assert report["results"]["root_systems"] == ["F4"]
    code, _ = _run(capsys, ["weyl", "unique", "--rank", "4",
                            "--orders", "0"])
    assert code == 2
    # no Weyl group of rank <= 8 has an element of prime order > 19
    code = main(["weyl", "unique", "--rank", "4", "--orders", "1000000007"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 1 and err == ""
    assert report["results"]["root_systems"] == []
    assert report["checks"] == [{"name": "realized", "pass": False,
                                 "witness": []}]


def test_weyl_removed_sampling_flags():
    # E8 is exact; the old sampling knobs are usage errors now
    assert main(["weyl", "orders", "--type", "E8", "--samples", "0"]) == 2
    assert main(["weyl", "table", "--seed", "7"]) == 2
    assert main(["weyl", "orders", "--type", "G2", "--mode", "exact"]) == 2


def test_wild_so_removed_bound_flag():
    # the report closes no group, so --bound capped nothing; it is a
    # usage error now
    assert main(["wild", "so", "--m", "15", "--bound", "500"]) == 2


def test_minuscule(capsys):
    code, report = _report(capsys, ["minuscule", "--type", "B3"])
    assert code == 0
    assert report["results"] == {"root_system": "B3", "dim": 7,
                                 "zero_mult": 1}
    assert {c["name"] for c in report["checks"]} == \
        {"dim_consistent", "full_cycle_witness"}


def test_minuscule_dim_checked_against_the_closed_form(capsys,
                                                      monkeypatch):
    # dim is read off the root data; a miscounted short root fails the
    # check against the family's closed form, and the report still prints
    real = rootsystems.root_data

    def miscounted(label):
        data = real(label)
        return RootData(data.label, data.rank, data.simple, data.roots,
                        data.cartan, data.roots_in_base,
                        data.short_root_count + 2, data.short_simple_count)

    for label in IRREDUCIBLE_LABELS:
        code, report = _report(capsys, ["minuscule", "--type", label])
        assert code == 0, label
    for label in ("A3", "B3", "G2", "C4", "E6"):
        monkeypatch.setattr(rootsystems, "root_data", miscounted)
        code, report = _report(capsys, ["minuscule", "--type", label])
        monkeypatch.undo()
        assert code == 1, label
        verdicts = {c["name"]: c["pass"] for c in report["checks"]}
        assert verdicts.pop("dim_consistent") is False, label
        assert all(verdicts.values()), label


def test_non_canonical_root_system_labels_exit_2(capsys):
    # only canonical labels: A1+A01 is no spelling of A1+A1
    for argv in (["weyl", "orders", "--type", "A01"],
                 ["weyl", "orders", "--type", "A1+"],
                 ["weyl", "orders", "--type", "A1+A01"],
                 ["minuscule", "--type", "B0_3"]):
        code, out = _run(capsys, argv)
        assert code == 2 and out == "", argv
    code, report = _report(capsys, ["weyl", "orders", "--type", "A1 + B2"])
    assert code == 0 and report["results"]["root_system"] == "A1+B2"


def test_group_analyze(capsys):
    code, report = _report(
        capsys, ["group", "analyze", "--preset", "metacyclic",
                 "--m", "6", "--p", "7", "--gamma-d", "6",
                 "--type-np", "6,7", "--ell", "5"])
    assert code == 0
    assert report["results"]["order"] == 42
    assert report["results"]["gamma_d"] == {"d": 6, "order": 7}
    assert report["results"]["type_np"]["found"] is True
    code, _ = _run(capsys, ["group", "analyze", "--preset", "metacyclic",
                            "--m", "4", "--p", "7"])
    assert code == 2
    code, _ = _run(capsys, ["group", "analyze", "--preset", "cyclic",
                            "--m", "0"])
    assert code == 2


def _bracketed(capsys, argv):
    code, report = _report(capsys, argv)
    return code, {c["name"]: c["pass"] for c in report["checks"]}


def test_normal_subgroups_bracketed_fails_on_a_non_normal_subgroup(
        capsys, monkeypatch):
    # <f>, of order 6 in Z/7 x| Z/6, is not a union of classes: its
    # conjugates by t are the other complements
    argv = ["group", "analyze", "--preset", "metacyclic", "--m", "6",
            "--p", "7"]
    code, checks = _bracketed(capsys, argv)
    assert code == 0 and checks == {"normal_subgroups_bracketed": True}
    normals = FinGroup.normal_subgroups

    def with_a_complement(self):
        f = self.tables[1][0]
        return normals(self) + (self.subgroup_closure([f]),)

    monkeypatch.setattr(FinGroup, "normal_subgroups", with_a_complement)
    code, checks = _bracketed(capsys, argv)
    assert code == 1 and checks == {"normal_subgroups_bracketed": False}


def test_normal_subgroups_bracketed_needs_a_class_partition(capsys,
                                                          monkeypatch):
    # a class listed twice: the class sizes overshoot |G|, while the
    # normal subgroups, closed from the same classes, stay right
    classes = FinGroup.conjugacy_classes

    def with_a_repeat(self):
        return classes(self) + classes(self)[-1:]

    monkeypatch.setattr(FinGroup, "conjugacy_classes", with_a_repeat)
    code, checks = _bracketed(capsys, ["group", "analyze", "--preset",
                                       "metacyclic", "--m", "6", "--p", "7"])
    assert code == 1 and checks == {"normal_subgroups_bracketed": False}


def test_normal_subgroups_bracketed_needs_both_ends(capsys, monkeypatch):
    # every subgroup of Z/12 is normal, so only a missing {1} or G fails
    argv = ["group", "analyze", "--preset", "cyclic", "--m", "12"]
    normals = FinGroup.normal_subgroups
    for drop in (0, -1):
        def without_one_end(self, drop=drop):
            out = list(normals(self))
            del out[drop]
            return out

        monkeypatch.setattr(FinGroup, "normal_subgroups", without_one_end)
        code, checks = _bracketed(capsys, argv)
        assert code == 1 and checks == {"normal_subgroups_bracketed": False}


def test_group_analyze_past_bound_exits_3(capsys):
    # every order is past the default bound of 100,000; the point orbit
    # stops at bound points, and a metacyclic preset refuses from its
    # order p * m before any table, so no run allocates much
    for argv in (["group", "analyze", "--preset", "cyclic", "--m", "200000"],
                 ["group", "analyze", "--preset", "metacyclic",
                  "--m", "2", "--p", "100003"],
                 ["group", "analyze", "--preset", "metacyclic",
                  "--m", "6", "--p", "1000003"]):
        code = main(argv)
        assert code == 3, argv
        assert capsys.readouterr() == (
            "", "ggt: resource bound: group closure exceeded 100000 "
                "elements\n"), argv


def test_group_analyze_ell_needs_type_np(capsys):
    # --ell acts only with --type-np; alone it was echoed and ignored
    code = main(["group", "analyze", "--preset", "metacyclic",
                 "--m", "6", "--p", "7", "--ell", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "ggt: --ell needs --type-np\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = _run(capsys, ["orbit", "--tau", "1/3", "--q", "5",
                              "--out", str(target)])
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "orbit"


def test_out_file_that_cannot_be_opened_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code = main(["orbit", "--tau", "1/43", "--q", "7", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"ggt: cannot write {target}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_text_format(capsys):
    code, out = _run(capsys, ["orbit", "--tau", "1/3", "--q", "5",
                              "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("orbit (ggt ")
    assert any(line.strip().startswith("pass") for line in lines)


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["orbit", "--tau", "nonsense", "--q", "5"]) == 2
    # JSON is the default format, and --json, its alias, is gone
    assert main(["orbit", "--tau", "1/3", "--q", "5", "--json"]) == 2


# sha256 prefixes of the reports (version dropped, keys sorted): the
# first four as the RootOfUnity-per-entry monomial matrices produced
# them, the rest as the Fraction-solved root data and the hand-built
# weight lists produced them; a change that moves a number or the order
# of a list shows up here
CLI_GOLDEN = {
    "param tame --q 7 --p 43 --n 3": "b576c766a40b699f",
    "wild so --m 7": "ac4fa2ea2cd8bc5d",
    "wild g2": "a82267da4dca81b5",
    "group analyze --preset metacyclic --m 6 --p 7 --type-np 6,7 --ell 5":
        "897f911945a85c37",
    "minuscule --type B2": "f4f574a47287e817",
    "minuscule --type B3": "2fc8ba7f914d9d18",
    "minuscule --type B8": "9436b7d003dfcc20",
    "minuscule --type G2": "3837b495aa27b9c2",
    "minuscule --type C3": "8db0e81752d85179",
    "minuscule --type F4": "5c6c5f6e1f61a0b1",
    "minuscule --type E8": "60a2edbedae66ad2",
    "weyl orders --type E7": "5b3ca27ab2dc5699",
    "weyl orders --type B8": "a7a7e1d10c1ac161",
    "param tame --q 31 --p 409 --n 4": "c5d5ff1604a56051",
    "group analyze --preset metacyclic --m 18 --p 19 --type-np 18,19 "
    "--ell 2": "1d06631353a775f5",
    "group analyze --preset cyclic --m 250 --gamma-d 3": "562e59c9d960e445",
    "group analyze --preset cyclic --m 1000 --gamma-d 3": "7e350347c12f04ea",
    "group analyze --preset metacyclic --m 6 --p 1009 --type-np 6,1009 "
    "--ell 5": "7b50686a7f12ccfa",
    # the one-element cycle: translations alone, or nothing at all
    "group analyze --preset metacyclic --m 1 --p 7": "768780f216ea1896",
    "group analyze --preset cyclic --m 1 --gamma-d 1": "fb83bbd62a81076a",
    # Z/2 has no primitive root past 1; the results equal cyclic(2)'s
    "group analyze --preset metacyclic --m 1 --p 2": "6d79b14cd94d1f3b",
    # as the exhaustive closure of the wild image produced them
    "wild so --m 3": "58427e662b1e6a77",
    "wild so --m 5": "ade6775249e2a16a",
    "wild so --m 9": "019ab51b8cf2ecda",
    "wild so --m 11": "ff96803e6050a190",
    "wild so --m 13": "87e7751217b7301b",
}


def test_commands_match_golden_output(capsys):
    for command, digest in CLI_GOLDEN.items():
        argv = command.split()
        first = _run(capsys, argv)
        assert first[0] == 0 and first == _run(capsys, argv), command
        report = json.loads(first[1])
        report.pop("version")
        canon = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(canon).hexdigest()[:16] == digest, command


# sha256 prefixes of each parser's --help text, 80 columns wide, as
# argparse formatted them when it derived every subcommand group's prog
# from the parent's usage line; the explicit progs must not move a byte
HELP_GOLDEN = {
    "ggt": "be2d4debd0885c4a",
    "ggt orbit": "ac5fcfb47d52049c",
    "ggt primes": "2e72d7783d1e16a3",
    "ggt param": "d288ffc52bdd7945",
    "ggt param tame": "a11e64149d3af01e",
    "ggt param real": "fe47ab4912baaa24",
    "ggt wild": "30bf44a134f6e41e",
    "ggt wild so": "036074e19e84e2b6",
    "ggt wild g2": "46321449a328f216",
    "ggt weyl": "50bc22902374a34a",
    "ggt weyl orders": "288a350566a9a62e",
    "ggt weyl table": "98bf12a02f094d34",
    "ggt weyl unique": "088ea3e6448dcf85",
    "ggt minuscule": "1d3e93fbabdfbb8f",
    "ggt group": "0e910262b0d9faf7",
    "ggt group analyze": "0b75cb3f1ec1066e",
    "ggt eigs": "fde524e5c0a23cd7",
    "ggt eigs g2check": "cb4d5f493f96649b",
}


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_help_texts_match_golden_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digests = {p.prog: hashlib.sha256(p.format_help().encode()).hexdigest()
               [:16] for p in _parsers(cli.build_parser())}
    assert digests == HELP_GOLDEN


def test_param_tame_past_trial_division_limit_exits_3(capsys):
    # ord_p(7) needs phi(p) and so a factorization of the 19-digit prime
    # p, which trial division cannot finish; the limit stops it early
    code = main(["param", "tame", "--q", "7", "--p", "1000000000000000003",
                 "--n", "3"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("ggt: resource bound: factorize")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_reuses_its_parser(capsys):
    # main parses with one parser for the whole process: a usage error
    # between two runs leaves nothing behind
    first = ["orbit", "--tau", "1/43", "--q", "7"]
    runs = [first, ["param", "real", "--a", "1/2,1,3/2"],
            ["orbit", "--q", "7"], first]
    results = []
    for argv in runs:
        code = main(argv)
        results.append((code, capsys.readouterr()))
    assert [code for code, _ in results] == [0, 0, 2, 0]
    assert results[2][1].out == "" and "usage" in results[2][1].err
    assert results[3][1] == results[0][1]
