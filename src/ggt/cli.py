"""Command line front end.

Every subcommand prints one report object: the echoed inputs, the module
results, and a list of named checks.  Exit code 0 means every check
passed, 1 means some check failed (or an internal invariant did: one
stderr line, no report), 2 is a usage error, and 3 means a resource
bound (enumeration cap or search ceiling) was hit.  Output is
JSON with sorted keys, so identical invocations are byte-identical;
--format text renders the same report for reading.

Start-up pays only for what a command uses: the version string is the
package's own __version__ (no package-metadata scan), and the Weyl group
engine is loaded only by the weyl and minuscule commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__ as VERSION
from . import primesearch
from .errors import ResourceBoundExceeded
from .fingroup import cyclic, is_type_np, metacyclic
from .numth import factorize, is_prime, mult_order
from .roots import (RootOfUnity, _fraction, check_selfdual_orbit,
                    frobenius_orbit)
from .rootsystems import (RootSystem, almost_minuscule_data,
                          cyclic_weight_permutation_check, order_table,
                          uniqueness_scan, weyl_element_orders, weyl_order)
from .weilparams import (build_tame_parameter, char_poly_shape,
                         g2_admissible_eigenvalues, is_g2_real,
                         parameter_image, real_parameter)
from .wildtwo import build_g2_jordan, build_so_wild, g2_jordan_report, \
    so_wild_report


def _check(name: str, ok: bool, witness=None) -> dict:
    out = {"name": name, "pass": bool(ok)}
    if witness is not None:
        out["witness"] = witness
    return out


def _cmd_orbit(args):
    tau = RootOfUnity.parse(args.tau)
    if not is_prime(args.q):
        raise ValueError(f"q = {args.q} is not prime")
    orbit = frobenius_orbit(tau, args.q)
    size, den = orbit.size, tau.den
    # q^size fixes tau, and size is ord_den(q): no q^(size/r) with r a
    # prime factor of size is 1.  Factoring size, never den, keeps this
    # within the orbit bound's cost whatever den is.
    closed = ((tau.num * pow(args.q, size, den) - tau.num) % den == 0
              and all(pow(args.q, size // r, den) != 1 % den
                      for r in factorize(size)))
    checks = [_check("orbit_closed", closed, f"size {size}")]
    if tau.den > 2:
        checks.append(_check("selfdual_halfway", check_selfdual_orbit(orbit),
                             f"selfdual={orbit.selfdual}"))
    return {"tau": args.tau, "q": args.q}, orbit.to_json(), checks


def _cmd_primes(args):
    req = primesearch.SearchRequest(n=args.n, ell=args.ell, t=args.t,
                                    d=args.d,
                                    conductor_bound=args.conductor_bound)
    cert = primesearch.find_prime_pair(req, ceiling=args.ceiling)
    val = primesearch.validate_certificate(cert)
    checks = [_check(k, v) for k, v in val.items() if k != "all_ok"]
    checks.append(_check("order_recomputed",
                         mult_order(cert.pair.q, cert.pair.p) == 2 * args.n))
    return req.to_json(), cert.to_json(), checks


def _cmd_param_tame(args):
    q, p, n = args.q, args.p, args.n
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if mult_order(q, p) != 2 * n:
        raise ValueError(
            f"q = {q} has order {mult_order(q, p)} mod {p}, need {2 * n}")
    param = build_tame_parameter(q, (RootOfUnity(1, p),), n)
    image = parameter_image(param)
    witness = is_type_np(image, 2 * n, p)
    pchecks = param.checks()
    checks = [
        _check("det", pchecks["det"]),
        _check("form", pchecks["form"]),
        _check("conj_relation", pchecks["conj_relation"]),
        _check("type_np", witness is not None, f"({2 * n},{p})"),
    ]
    results = param.to_json()
    results["image"] = image.to_json(type_np=(2 * n, p))
    if pchecks["g2"] is not None:
        results["g2"] = pchecks["g2"]
    return {"q": q, "p": p, "n": n}, results, checks


def _cmd_param_real(args):
    vals = [_fraction(part) for part in args.a.split(",")]
    rp = real_parameter(vals)
    results = rp.to_json()
    # read off the weights returned, not the ones asked for
    distinct = len({abs(a) for a in rp.a}) == len(rp.a) == len(vals)
    checks = [_check("nonzero_distinct", 0 not in rp.a and distinct)]
    if len(vals) == 3:
        g2 = is_g2_real(rp)
        results["g2_signs"] = g2
        checks.append(_check("g2_signs", g2))
    return {"a": args.a}, results, checks


def _cmd_wild_so(args):
    w = build_so_wild(args.m)
    rep = so_wild_report(w)
    checks = [
        _check("order", rep["order_expected"], rep["order"]),
        _check("abelianization", rep["abelianization_cyclic_m"],
               rep["abelianization"]),
        _check("commutator", rep["commutator_expected"], rep["commutator"]),
        _check("det_trivial", rep["det_trivial"]),
        _check("irreducible", rep["irreducible"]),
    ]
    if rep["g2_obstruction"] is not None:
        checks.append(_check("g2_obstruction", rep["g2_obstruction"]))
    return {"m": args.m}, rep, checks


def _cmd_wild_g2(args):
    rep = g2_jordan_report(build_g2_jordan())
    degrees = [c["degree"] for c in rep["constituents"]]
    selfdual = [c["selfdual"] for c in rep["constituents"]]
    checks = [
        _check("order_168", rep["order"] == 168, rep["order"]),
        _check("normal_orders", rep["normal_subgroup_orders"] ==
               [1, 8, 56, 168], rep["normal_subgroup_orders"]),
        _check("jordan_order_8", rep["jordan_order"] == 8),
        _check("stabilizer_3", rep["character_stabilizer_order"] == 3),
        _check("three_degree_7", degrees == [7, 7, 7], degrees),
        _check("one_selfdual", sum(selfdual) == 1),
        _check("all_faithful", all(c["faithful"]
                                   for c in rep["constituents"])),
    ]
    return {}, rep, checks


def _cmd_weyl_orders(args):
    rs = RootSystem.parse(args.type)
    oset = weyl_element_orders(rs)
    results = oset.to_json()
    results.update(root_system=rs.label, weyl_order=weyl_order(rs))
    maximal = oset.maximal
    checks = [
        _check("contains_identity", 1 in oset.orders),
        _check("maximal_antichain",
               not any(a != b and b % a == 0
                       for a in maximal for b in maximal)),
        _check("orders_covered",
               all(any(m % o == 0 for m in maximal) for o in oset.orders)),
    ]
    return {"type": args.type}, results, checks


def _cmd_weyl_table(args):
    rows = order_table()
    checks = [_check(f"row {r['root_system']}", r["agrees"],
                     ",".join(str(x) for x in r["maximal"]))
              for r in rows]
    return {}, {"rows": rows}, checks


def _cmd_weyl_unique(args):
    required = sorted({int(x) for x in args.orders.split(",")})
    hits = uniqueness_scan(args.rank, required)
    labels = [rs.label for rs in hits]
    results = {"rank_bound": args.rank, "required_orders": required,
               "root_systems": labels}
    checks = [_check("realized", bool(labels), labels)]
    return {"rank": args.rank, "orders": args.orders}, results, checks


# the almost-minuscule dimension by family and rank, in closed form: the
# adjoint dimension for the simply laced types, short roots plus short
# simple roots otherwise
_ALMOST_MINUSCULE_DIM = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: 2 * n + 1,
    "C": lambda n: 2 * n * n - n - 1,
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 26,
    "G": lambda n: 7,
}


def _cmd_minuscule(args):
    rs = RootSystem.parse(args.type)
    dim, zero_mult = almost_minuscule_data(rs)
    results = {"root_system": rs.label, "dim": dim, "zero_mult": zero_mult}
    label = rs.components[0]  # canonical: almost_minuscule_data checked
    expected = _ALMOST_MINUSCULE_DIM[label[0]](int(label[1:]))
    checks = [_check("dim_consistent", dim == expected)]
    if label.startswith("B") or label == "G2":
        checks.append(_check(
            "full_cycle_witness",
            cyclic_weight_permutation_check(rs, expected), f"dim {expected}"))
    return {"type": args.type}, results, checks


def _normals_bracketed(g) -> bool:
    """The conjugacy classes partition G, every reported normal subgroup
    is a union of classes, and {1} and G are among them."""
    classes, normals = g.conjugacy_classes(), g.normal_subgroups()
    whole = frozenset(range(g.order))
    label = {i: c for c, members in enumerate(classes) for i in members}
    if sum(map(len, classes)) != g.order or label.keys() != whole:
        return False
    # n is a union of classes when the classes it meets add up to |n|
    return ({frozenset([0]), whole} <= set(normals)
            and all(n <= whole and len(n) == sum(
                len(classes[c]) for c in {label[i] for i in n})
                for n in normals))


def _cmd_group_analyze(args):
    if args.ell is not None and not args.type_np:
        raise ValueError("--ell needs --type-np")
    if args.preset == "metacyclic":
        if args.m is None or args.p is None:
            raise ValueError("metacyclic preset needs --m and --p")
        g = metacyclic(args.m, args.p)
        label = f"metacyclic({args.m},{args.p})"
    else:
        if args.m is None:
            raise ValueError("cyclic preset needs --m")
        g = cyclic(args.m)
        label = f"cyclic({args.m})"
    type_np = None
    if args.type_np:
        parts = args.type_np.split(",")
        if len(parts) != 2:
            raise ValueError("--type-np wants N,P")
        type_np = (int(parts[0]), int(parts[1]))
    results = g.to_json(d=args.gamma_d, type_np=type_np, ell=args.ell)
    results["preset"] = label
    checks = [_check("normal_subgroups_bracketed", _normals_bracketed(g))]
    if type_np is not None:
        checks.append(_check(f"type_np({args.type_np})",
                             results["type_np"]["found"]))
        if args.ell is not None:
            checks.append(_check(f"type_npl({args.type_np},{args.ell})",
                                 results["type_np"]["up_to_ell_core"]))
    inputs = {"preset": args.preset, "m": args.m, "p": args.p,
              "gamma_d": args.gamma_d, "type_np": args.type_np,
              "ell": args.ell}
    return inputs, results, checks


def _cmd_eigs_g2check(args):
    eigs = [RootOfUnity.parse(part) for part in args.eigs.split(",")]
    admissible = g2_admissible_eigenvalues(eigs)
    shape = char_poly_shape(eigs)
    results = {
        "eigenvalues": [str(e) for e in eigs],
        "admissible": admissible,
        "palindromic_shape": shape.passes,
        "abc": [str(c) for c in shape.abc] if shape.passes else None,
        "rational_abc": shape.rational_abc() if shape.passes else None,
    }
    checks = [_check("admissible", admissible),
              _check("palindromic_shape", shape.passes)]
    return {"eigs": args.eigs}, results, checks


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write the report to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ggt",
        description="finite-image toolkit: parameters, prime pairs, "
                    "Weyl element orders, group criteria")
    # each group of subcommands names its prog: argparse would otherwise
    # format the parent's usage line to find it
    cmds = top.add_subparsers(prog="ggt", dest="command", required=True)

    p = cmds.add_parser("orbit", help="Frobenius orbit of a root of unity")
    p.add_argument("--tau", required=True, metavar="NUM/DEN")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_orbit)

    p = cmds.add_parser("primes", help="search for an admissible prime pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--conductor-bound", type=int, default=100)
    p.add_argument("--ceiling", type=int,
                   default=primesearch.DEFAULT_CEILING)
    _add_common(p)
    p.set_defaults(handler=_cmd_primes)

    param = cmds.add_parser("param", help="local parameter construction")
    psub = param.add_subparsers(prog="ggt param", dest="kind", required=True)
    p = psub.add_parser("tame", help="tame parameter from (q, p, n)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_param_tame)
    p = psub.add_parser("real", help="archimedean analogue from weights")
    p.add_argument("--a", required=True, metavar="A1,A2,...")
    _add_common(p)
    p.set_defaults(handler=_cmd_param_real)

    wild = cmds.add_parser("wild", help="wild 2-adic image groups")
    wsub = wild.add_subparsers(prog="ggt wild", dest="kind", required=True)
    p = wsub.add_parser("so", help="sign-and-cycle group inside SO(m)")
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_wild_so)
    p = wsub.add_parser("g2", help="order-168 normalizer and its characters")
    _add_common(p)
    p.set_defaults(handler=_cmd_wild_g2)

    weyl = cmds.add_parser("weyl", help="Weyl element order computations")
    wsub = weyl.add_subparsers(prog="ggt weyl", dest="kind", required=True)
    p = wsub.add_parser("orders", help="order set of one root system")
    p.add_argument("--type", required=True, metavar="A4+G2")
    _add_common(p)
    p.set_defaults(handler=_cmd_weyl_orders)
    p = wsub.add_parser("table", help="reproduce the reference order table")
    _add_common(p)
    p.set_defaults(handler=_cmd_weyl_table)
    p = wsub.add_parser("unique", help="systems realizing all given orders")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--orders", required=True, metavar="8,12")
    _add_common(p)
    p.set_defaults(handler=_cmd_weyl_unique)

    p = cmds.add_parser("minuscule",
                        help="almost-minuscule dimension and zero weight")
    p.add_argument("--type", required=True, metavar="B3")
    _add_common(p)
    p.set_defaults(handler=_cmd_minuscule)

    group = cmds.add_parser("group", help="finite group criteria")
    gsub = group.add_subparsers(prog="ggt group", dest="kind", required=True)
    p = gsub.add_parser("analyze", help="orders, cores, type detection")
    p.add_argument("--preset", choices=("metacyclic", "cyclic"),
                   required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--gamma-d", type=int, default=None, dest="gamma_d")
    p.add_argument("--type-np", default=None, dest="type_np", metavar="N,P")
    p.add_argument("--ell", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_group_analyze)

    eigs = cmds.add_parser("eigs", help="eigenvalue multiset tests")
    esub = eigs.add_subparsers(prog="ggt eigs", dest="kind", required=True)
    p = esub.add_parser("g2check",
                        help="admissibility and palindromic shape")
    p.add_argument("--eigs", required=True,
                   metavar="1/7,-1/7,...,0/1")
    _add_common(p)
    p.set_defaults(handler=_cmd_eigs_g2check)

    return top


def _render_text(report: dict) -> str:
    lines = [f"{report['command']} (ggt {report['version']})"]
    for key, val in sorted(report["inputs"].items()):
        lines.append(f"  input {key} = {val}")
    for c in report["checks"]:
        mark = "pass" if c["pass"] else "FAIL"
        witness = f"  [{c['witness']}]" if "witness" in c else ""
        lines.append(f"  {mark}  {c['name']}{witness}")
    lines.append(json.dumps(report["results"], sort_keys=True))
    return "\n".join(lines)


# argparse keeps no state between parses, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2

    sub = [args.command] + ([args.kind] if getattr(args, "kind", None)
                            else [])
    try:
        inputs, results, checks = args.handler(args)
    except ResourceBoundExceeded as err:
        print(f"ggt: resource bound: {err}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as err:
        print(f"ggt: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        detail = " ".join(str(err).split()) or "assertion failed"
        print(f"ggt: internal check failed: {detail}", file=sys.stderr)
        return 1

    report = {
        "command": " ".join(sub),
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "version": VERSION,
    }
    if args.format == "text":
        rendered = _render_text(report)
    else:
        rendered = json.dumps(report, sort_keys=True, indent=2)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        else:
            print(rendered)
            sys.stdout.flush()
    except OSError as err:
        if isinstance(err, BrokenPipeError) and not args.out:
            # the reader is gone: the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ggt: cannot write {args.out or 'stdout'}: {err.strerror}",
              file=sys.stderr)
        return 2
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
