"""The two ggt benchmark workloads and the checks on their results.

Every call goes through the stable public API: names in ggt.__all__,
public FinGroup, MonomialMatrix and TameParameter methods, and
ggt.cli.main, all at library defaults.  Calls are made as attribute
lookups on the ggt package (ggt.name), so the tracer's wrappers see them.

Each operation runs under Tally.op, which counts it as attempted and as
failed when it raises or any check on its output fails.  The expected
values are arguments of the check functions, so a wrong expectation shows
up as a failed operation (see test_smoke.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import statistics
import time
from math import gcd

import calibrate
import ggt
import ggt.cli

WILD_MS = (3, 5, 7, 9, 11)

# The README's sub-second commands (everything but `weyl table`).
CLI_COMMANDS = (
    "orbit --tau 1/43 --q 7",
    "primes --n 3 --ell 3 --t 3 --d 5",
    "param tame --q 7 --p 43 --n 3",
    "param real --a 1/2,1,3/2",
    "wild so --m 7",
    "wild g2",
    "weyl orders --type A4+G2",
    "weyl unique --rank 4 --orders 8,12",
    "minuscule --type B3",
    "group analyze --preset metacyclic --m 6 --p 7 --type-np 6,7 --ell 5",
    "eigs g2check --eigs 0,1/7,-1/7,2/7,-2/7,3/7,-3/7",
)

# One pass of the exact_queries stream covers every input whose cost
# varies a lot (the tame grid, the prime grid, the metacyclic groups, the
# CLI commands), so that its cost does not depend on the seed; the seed
# shuffles the pass and draws the cheap inputs.  Repeats and draw counts
# keep every kind below half of a pass (see README.md).
META_PRIMES = (3, 5, 7, 11, 13, 17, 19)
CLI_REPEATS = 2
G2_REPEATS = 2
ORBIT_DRAWS = 240
SCANS_PER_RANK = 24
# Timed pieces of one pass; each is scaled by the calibration around it.
CHUNKS = 8


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, fn):
        """Run fn() -> (output, problems); count it, return the output."""
        self.attempted += 1
        try:
            output, problems = fn()
        except Exception as err:  # a raising operation is a failed one
            output, problems = None, [f"raised {type(err).__name__}: {err}"]
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {'; '.join(problems)}")
        return output


def expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _naive_order(a: int, n: int) -> int:
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


# -- wild_so ------------------------------------------------------------------

def check_wild_report(rep: dict, m: int):
    problems: list = []
    for flag in ("order_expected", "abelianization_cyclic_m",
                 "commutator_expected", "det_trivial", "irreducible",
                 "selfdual", "conjugates_distinct",
                 "joint_kernel_is_diagonal"):
        expect(problems, flag, rep.get(flag), True)
    expect(problems, "order", rep.get("order"), 2 ** (m - 1) * m)
    expect(problems, "abelianization", rep.get("abelianization"), [m])
    expect(problems, "g2_obstruction", rep.get("g2_obstruction"),
           True if m == 7 else None)
    return rep, problems


def wild_sweep(tally: Tally, clock: calibrate.Clock, times: dict) -> float:
    """Build and report every m once; return the sweep's reference seconds."""
    sweep = 0.0
    for m in WILD_MS:
        def one(m=m):
            nonlocal sweep
            w, build_s = clock.time(lambda: ggt.build_so_wild(m))
            rep, report_s = clock.time(lambda: ggt.so_wild_report(w))
            times.setdefault(f"build_m{m}_s", []).append(build_s)
            times.setdefault(f"report_m{m}_s", []).append(report_s)
            sweep += build_s + report_s
            return check_wild_report(rep, m)
        tally.op(f"wild so m={m}", one)
    return sweep


def wild_so(tally: Tally, seconds: float) -> dict:
    """Sweep every odd m = 3..11 while another sweep fits in the time."""
    clock = calibrate.Clock()
    sweeps: list = []
    times: dict = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sweeps.append(wild_sweep(tally, clock, times))
        now = time.perf_counter()
        if 2 * now - t0 - start > seconds:
            break
    work = statistics.median(sweeps)
    out = {"work_s": work, "wild_so_s": work, "sweep_s": sweeps,
           "wall_s": clock.wall_s}
    out.update({k: statistics.median(v) for k, v in times.items()})
    return out


# -- exact_queries: the query kinds ------------------------------------------

def q_tame(q: int, p: int):
    n = _naive_order(q, p) // 2
    param = ggt.build_tame_parameter(q, (ggt.RootOfUnity(1, p),), n)
    checks = param.checks()
    image = ggt.parameter_image(param)
    witness = ggt.is_type_np(image, 2 * n, p)
    problems: list = []
    for key in ("det", "form", "conj_relation"):
        expect(problems, key, checks[key], True)
    expect(problems, "image order", image.order, 2 * n * p)
    expect(problems, "type (2n, p) image order",
           witness.image_order if witness else None, 2 * n)
    out = {"param": param.to_json(), "image_order": image.order,
           "witness": list(witness.exponents) if witness else None}
    return out, problems


def q_orbits(q: int, den: int):
    """Split the units mod den into Frobenius orbits under q."""
    units = [a for a in range(1, den) if gcd(a, den) == 1]
    size = _naive_order(q, den)
    seen: set = set()
    orbits = []
    problems: list = []
    for a in units:
        if a in seen:
            continue
        orbit = ggt.frobenius_orbit(ggt.RootOfUnity(a, den), q)
        seen.update(r.num for r in orbit.elements)
        expect(problems, f"size of orbit of {a}/{den}", orbit.size, size)
        if orbit.selfdual and not ggt.check_selfdual_orbit(orbit):
            problems.append(f"self-dual orbit of {a}/{den} fails the check")
        orbits.append(orbit.to_json())
    expect(problems, "units covered", len(seen), len(units))
    return orbits, problems


def q_primes(n: int, ell: int, t: int, d: int):
    cert = ggt.find_prime_pair(ggt.SearchRequest(n, ell, t, d))
    verdict = ggt.validate_certificate(cert)
    problems: list = []
    expect(problems, "validator all_ok", verdict["all_ok"], True)
    expect(problems, "order of q mod p",
           _naive_order(cert.pair.q, cert.pair.p), 2 * n)
    return {"cert": cert.to_json(), "verdict": verdict}, problems


def _metacyclic_gamma_order(m: int, p: int, d: int) -> int:
    # normal subgroups: 1 and Z/p x| Z/k for k | m (index m/k)
    if d >= m * p:
        return 1
    ks = [m // j for j in range(1, m + 1) if m % j == 0 and j <= d]
    return p * gcd(*ks)


def q_metacyclic(m: int, p: int, d: int, ell: int):
    rep = ggt.metacyclic(m, p).to_json(d=d, type_np=(m, p), ell=ell)
    problems: list = []
    expect(problems, "order", rep["order"], m * p)
    norders = rep["normal_subgroup_orders"]
    expect(problems, "normal subgroup orders",
           norders, [1] + [p * k for k in range(1, m + 1) if m % k == 0])
    expect(problems, "abelianization", rep["abelianization"], [m])
    expect(problems, "gamma_d order", rep["gamma_d"]["order"],
           _metacyclic_gamma_order(m, p, d))
    expect(problems, "type (m, p)",
           (rep["type_np"]["found"], rep["type_np"]["image_order"]), (True, m))
    expect(problems, "type (m, p) up to ell-core",
           rep["type_np"]["up_to_ell_core"], True)
    return rep, problems


def q_g2_jordan():
    rep = ggt.g2_jordan_report(ggt.build_g2_jordan())
    cons = rep["constituents"]
    problems: list = []
    expect(problems, "order", rep["order"], 168)
    expect(problems, "normal orders", rep["normal_subgroup_orders"],
           [1, 8, 56, 168])
    expect(problems, "jordan order", rep["jordan_order"], 8)
    expect(problems, "stabilizer", rep["character_stabilizer_order"], 3)
    expect(problems, "degrees", [c["degree"] for c in cons], [7, 7, 7])
    expect(problems, "self-dual count", sum(c["selfdual"] for c in cons), 1)
    expect(problems, "faithful", all(c["faithful"] for c in cons), True)
    return rep, problems


def q_uniqueness(rank: int, required: tuple, member: str, exact: bool):
    """Systems of rank <= rank realizing the required orders must include
    member (and be exactly [member] for the pinned exceptional cases)."""
    hits = [rs.label for rs in ggt.uniqueness_scan(rank, required)]
    problems: list = []
    if exact:
        expect(problems, "hits", hits, [member])
    elif member not in hits:
        problems.append(f"{member} missing from {hits}")
    return hits, problems


def q_cli(command: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ggt.cli.main(command.split())
    problems: list = []
    expect(problems, "exit code", code, 0)
    failing = [c["name"] for c in json.loads(buf.getvalue())["checks"]
               if not c["pass"]]
    expect(problems, "failing checks", failing, [])
    return buf.getvalue(), problems


QUERY_KINDS = {"tame": q_tame, "orbits": q_orbits, "primes": q_primes,
               "metacyclic": q_metacyclic, "g2_jordan": q_g2_jordan,
               "uniqueness": q_uniqueness, "cli": q_cli}

# One fixed query of each kind: fills the library's lazy caches (root
# data and order sets of G2, F4 and E6 among them) before timing.
WARM_UP = (
    ("tame", (7, 43)),
    ("orbits", (7, 43)),
    ("primes", (3, 3, 3, 5)),
    ("metacyclic", (6, 7, 6, 5)),
    ("g2_jordan", ()),
    ("uniqueness", (6, (9,), "E6", True)),
    ("cli", ("wild so --m 7",)),
)


def run_query(tally: Tally, kind: str, args: tuple, digest=None) -> None:
    def one():
        out, problems = QUERY_KINDS[kind](*args)
        if digest is not None:
            digest.update(json.dumps(out, sort_keys=True).encode())
            digest.update(b"\n")
        return out, problems
    tally.op(f"{kind}{args}", one)


def warm_up(tally: Tally) -> None:
    for kind, args in WARM_UP:
        run_query(tally, kind, args)


# -- exact_queries: drawing the stream ---------------------------------------

def _small_primes(below: int) -> list[int]:
    return [n for n in range(2, below)
            if all(n % k for k in range(2, int(n ** 0.5) + 1))]


def tame_grid() -> list[tuple[int, int]]:
    """The 65 cells (q, p): q < 50, p < 500 primes, ord_p(q) even <= 8."""
    return [(q, p) for q in _small_primes(50) for p in _small_primes(500)
            if p > 2 and p != q and _naive_order(q, p) % 2 == 0
            and _naive_order(q, p) <= 8]


def _systems_up_to_rank(bound: int) -> list[tuple[str, ...]]:
    """Every multiset of irreducible labels of total rank <= bound."""
    labels = [lab for lab in ggt.IRREDUCIBLE_LABELS if int(lab[1:]) <= bound]

    def grow(start: int, room: int):
        yield ()
        for k in range(start, len(labels)):
            rank = int(labels[k][1:])
            if rank <= room:
                for rest in grow(k, room - rank):
                    yield (labels[k],) + rest

    return [tuple(sorted(c)) for c in grow(0, bound) if c]


def prime_grid() -> list[tuple[int, int, int, int]]:
    """The 192 search cells (n, ell, t, d)."""
    return list(itertools.product((1, 2, 3, 4), (2, 3, 5, 7), (1, 2, 3, 4),
                                  (1, 5, 10)))


def draw_stream(seed: int) -> list[tuple[str, tuple]]:
    """One pass of the stream, shuffled by the seed."""
    rng = random.Random(seed)
    cells = tame_grid()
    if len(cells) != 65:
        raise RuntimeError(f"tame grid has {len(cells)} cells, expected 65")
    stream = [("tame", cell) for cell in cells]
    stream += [("primes", cell) for cell in prime_grid()]
    for p in META_PRIMES:
        for m in range(2, p):
            if (p - 1) % m == 0:
                ell = rng.choice([x for x in (2, 3, 5, 7) if x != p])
                stream.append(("metacyclic", (m, p, rng.randint(1, 8), ell)))
    stream += [("g2_jordan", ())] * G2_REPEATS
    stream += [("cli", (c,)) for c in CLI_COMMANDS] * CLI_REPEATS

    small_q = _small_primes(50)
    for _ in range(ORBIT_DRAWS):
        q = rng.choice(small_q)
        den = rng.choice([d for d in range(3, 201) if gcd(d, q) == 1])
        stream.append(("orbits", (q, den)))

    # scan cost depends on the rank bound only: the same count per bound
    pinned = {2: ((6,), "G2"), 4: ((8, 12), "F4"), 6: ((9,), "E6")}
    systems = _systems_up_to_rank(6)
    for rank in range(2, 7):
        draws = SCANS_PER_RANK
        if rank in pinned:
            stream.append(("uniqueness", (rank, *pinned[rank], True)))
            draws -= 1
        fits = [c for c in systems if sum(int(x[1:]) for x in c) <= rank]
        for _ in range(draws):
            rs = ggt.RootSystem(rng.choice(fits))
            maximal = sorted(ggt.weyl_element_orders(rs).maximal)
            required = tuple(sorted(rng.sample(
                maximal, min(len(maximal), rng.randint(1, 2)))))
            stream.append(("uniqueness", (rank, required, rs.label, False)))
    rng.shuffle(stream)
    return stream


def exact_queries(tally: Tally, seconds: float, seed: int) -> dict:
    """Whole passes over one seeded stream while another pass fits.

    A pass runs in CHUNKS timed chunks, each scaled by the calibration
    job around it.  Every pass must reproduce the first pass's digest.
    """
    stream = draw_stream(seed)
    bounds = [len(stream) * k // CHUNKS for k in range(CHUNKS + 1)]
    clock = calibrate.Clock()
    passes: list = []
    digests: list = []
    kind_s = dict.fromkeys(QUERY_KINDS, 0.0)

    def chunk(lo: int, hi: int, digest) -> None:
        for kind, args in stream[lo:hi]:
            t = time.perf_counter()
            run_query(tally, kind, args, digest)
            kind_s[kind] += time.perf_counter() - t

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        digest = hashlib.sha256()
        passes.append(sum(clock.time(lambda: chunk(lo, hi, digest))[1]
                          for lo, hi in zip(bounds, bounds[1:])))
        digests.append(digest.hexdigest())
        now = time.perf_counter()
        if 2 * now - t0 - start > seconds:
            break
    tally.op("every pass repeats the result digest", lambda: (
        None, [] if len(set(digests)) == 1 else ["digests differ"]))
    work = statistics.median(passes)
    return {"work_s": work, "queries_per_s": len(stream) / work,
            "queries_per_pass": len(stream), "pass_s": passes,
            "wall_s": clock.wall_s,
            "kind_share": {k: v / sum(kind_s.values())
                           for k, v in kind_s.items()},
            "result_digest": digests[0]}


WORKLOADS = {
    "wild_so": lambda tally, seconds, seed: wild_so(tally, seconds),
    "exact_queries": exact_queries,
}
