import hashlib
import json

from ggt.cli import main
from ggt.primesearch import SearchCertificate, validate_certificate
from ggt.roots import FrobeniusOrbit, RootOfUnity, frobenius_orbit
from ggt.weilparams import TameParameter, build_tame_parameter


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
    code, _ = _run(capsys, ["wild", "so", "--m", "15", "--bound", "500"])
    assert code == 3
    # 245,760 elements is past the default bound of 100,000
    code, out = _run(capsys, ["wild", "so", "--m", "15"])
    assert code == 3 and out == ""
    code, _ = _run(capsys, ["wild", "so", "--m", "4"])
    assert code == 2


def test_wild_g2(capsys):
    code, report = _report(capsys, ["wild", "g2"])
    assert code == 0
    assert report["results"]["order"] == 168
    assert len(report["results"]["constituents"]) == 3


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


def test_weyl_removed_sampling_flags():
    # E8 is exact; the old sampling knobs are usage errors now
    assert main(["weyl", "orders", "--type", "E8", "--samples", "0"]) == 2
    assert main(["weyl", "table", "--seed", "7"]) == 2
    assert main(["weyl", "orders", "--type", "G2", "--mode", "exact"]) == 2


def test_minuscule(capsys):
    code, report = _report(capsys, ["minuscule", "--type", "B3"])
    assert code == 0
    assert report["results"] == {"root_system": "B3", "dim": 7,
                                 "zero_mult": 1}
    assert {c["name"] for c in report["checks"]} == \
        {"dim_consistent", "full_cycle_witness"}


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = _run(capsys, ["orbit", "--tau", "1/3", "--q", "5",
                              "--out", str(target)])
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "orbit"


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


# sha256 prefixes of the reports (version dropped, keys sorted) as the
# RootOfUnity-per-entry monomial matrices produced them; a change that
# moves a number or the order of a list shows up here
MONOMIAL_GOLDEN = {
    "param tame --q 7 --p 43 --n 3": "b576c766a40b699f",
    "wild so --m 7": "ac4fa2ea2cd8bc5d",
    "wild g2": "a82267da4dca81b5",
    "group analyze --preset metacyclic --m 6 --p 7 --type-np 6,7 --ell 5":
        "897f911945a85c37",
}


def test_monomial_commands_match_golden_output(capsys):
    for command, digest in MONOMIAL_GOLDEN.items():
        argv = command.split()
        first = _run(capsys, argv)
        assert first[0] == 0 and first == _run(capsys, argv), command
        report = json.loads(first[1])
        report.pop("version")
        canon = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(canon).hexdigest()[:16] == digest, command
