"""Run one ggt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ggt checkout: the library is imported from
./src, nothing is installed.  Workloads (see workloads.py and README.md):
wild_so, exact_queries.

This process, itself fresh, imports ggt.cli, runs the exact_queries
warm-up and the workload, and checks every result.  Then it times
SETUP_SAMPLES fresh interpreters, one at a time, that import ggt.cli and
run the same warm-up (setup_s).  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps the public ggt functions
first (tracing.py) and reports the per-layer metrics instead.
setup_s and work_s are in reference seconds: each timed unit is scaled
by the calibration job run around it (calibrate.py).

The last line of stdout is the result object; the line before it holds
the details (machine, per-workload figures, result digest, failures).
Exit code 0 with a result, 2 on bad usage or outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy asks Linux for huge pages on large arrays by default; whether the
# host grants them depends on its free memory at the time.  On a shared
# 2-vCPU Xeon that moved the E7 enumeration by 20% and its peak RSS by 7%
# from one set of runs to the next.  Small pages only.
PINNED_ENV = dict.fromkeys(THREAD_VARS, "1") | {"NUMPY_MADVISE_HUGEPAGE": "0"}
WORKLOAD_NAMES = ("wild_so", "exact_queries")

END_TO_END_UNITS = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "rootsystems.root_data_s": "s",
    "rootsystems.combine_s": "s",
    "rootsystems.uniqueness_scan_ms": "ms",
    "rootsystems.self_s": "s",
    "weylenum.E6_s": "s",
    "weylenum.elements": "count",
    "weylenum.us_per_element": "us",
    "weylenum.rss_mb": "MB",
    "weylenum.self_s": "s",
    "wildtwo.build_s": "s",
    "wildtwo.report_s": "s",
    "wildtwo.g2_jordan_report_ms": "ms",
    "wildtwo.self_s": "s",
    "fingroup.commutator_s": "s",
    "fingroup.abelianization_s": "s",
    "fingroup.is_type_np_ms": "ms",
    "fingroup.group_to_json_ms": "ms",
    "fingroup.elements": "count",
    "fingroup.self_s": "s",
    "monomial.products": "count",
    "monomial.products_s": "s",
    "weilparams.parameter_image_ms": "ms",
    "weilparams.self_s": "s",
    "roots.frobenius_orbit_us": "us",
    "roots.self_s": "s",
    "primesearch.find_prime_pair_ms": "ms",
    "primesearch.validate_certificate_ms": "ms",
    "primesearch.self_s": "s",
    "numth.is_prime_calls": "count",
    "numth.self_s": "s",
    "cli.main_ms": "ms",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
    "trace.work_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_sample(root: Path) -> dict:
    """Time one fresh interpreter from start to exit."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], cwd=root,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"setup_s": time.perf_counter() - t0, "ok": False,
                "failures": ["set-up probe timed out"]}
    wall = time.perf_counter() - t0
    try:
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"setup_s": wall, "ok": False,
                "failures": [f"set-up probe exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}"]}
    info.update(setup_s=wall, ok=proc.returncode == 0 and not info["failed"])
    return info


def machine(cpus: list) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "env": {v: os.environ.get(v) for v in
                (*PINNED_ENV, "GGT_THREADS")},
    }


def _p50(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def per_layer(tracer, ggt, probes: list, traced_warmup_s: float,
              work_s: float) -> tuple[dict, dict]:
    dur, self_s = tracer.durations, tracer.self_s
    exact = [(labels, sec) for labels, sec, _, ok in tracer.cold_orders if ok]
    elements = sum(ggt.weyl_order(lab) for labels, _ in exact
                   for lab in labels)
    probe_warmup = [p["warmup_s"] for p in probes if "warmup_s" in p]
    values = {
        "rootsystems.root_data_s": sum(dur["rootsystems.root_data_cold"]),
        "rootsystems.combine_s": sum(dur["rootsystems.combine"]),
        "rootsystems.uniqueness_scan_ms":
            _p50(dur["rootsystems.uniqueness_scan"], 1e3),
        "weylenum.E6_s": sum(sec for labels, sec, _, _ in tracer.cold_orders
                             if "E6" in labels),
        "weylenum.elements": elements,
        "weylenum.us_per_element":
            sum(sec for _, sec in exact) / elements * 1e6 if elements else 0.0,
        "weylenum.rss_mb": sum(rss for _, _, rss, _ in tracer.cold_orders),
        "wildtwo.build_s": sum(dur["wildtwo.build_so_wild"]),
        "wildtwo.report_s": sum(dur["wildtwo.so_wild_report"]),
        "wildtwo.g2_jordan_report_ms":
            _p50(dur["wildtwo.g2_jordan_report"], 1e3),
        "fingroup.commutator_s": sum(dur["fingroup.commutator_subgroup"]),
        "fingroup.abelianization_s": sum(dur["fingroup.abelianization"]),
        "fingroup.is_type_np_ms": _p50(dur["fingroup.is_type_np"], 1e3),
        "fingroup.group_to_json_ms": _p50(dur["fingroup.to_json"], 1e3),
        "fingroup.elements": tracer.counts["fingroup.elements"],
        "monomial.products": tracer.counts["monomial.products"],
        "monomial.products_s": tracer.count_s["monomial.products"],
        "weilparams.parameter_image_ms":
            _p50(dur["weilparams.parameter_image"], 1e3),
        "roots.frobenius_orbit_us": _p50(dur["roots.frobenius_orbit"], 1e6),
        "primesearch.find_prime_pair_ms":
            _p50(dur["primesearch.find_prime_pair"], 1e3),
        "primesearch.validate_certificate_ms":
            _p50(dur["primesearch.validate_certificate"], 1e3),
        "numth.is_prime_calls": tracer.counts["numth.is_prime_calls"],
        "cli.main_ms": _p50(dur["cli.main"], 1e3),
        "cli.import_s": _p50([p["import_s"] for p in probes
                              if "import_s" in p]),
        "trace_overhead": traced_warmup_s / _p50(probe_warmup)
        if probe_warmup else 0.0,
        "trace.work_s": work_s,
    }
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_s"):
            values[name] = self_s[name.split(".")[0]]
    detail = {"cold_orders": [
        {"labels": labels, "seconds": sec, "rss_growth_mb": rss,
         "exact": ok} for labels, sec, rss, ok in tracer.cold_orders]}
    return values, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ggt" / "__init__.py").is_file():
        print("perfbench: no src/ggt here; run from the root of a ggt "
              "checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ.pop("GGT_THREADS", None)
    # The process (and the probes it starts) stays on one CPU: on a shared
    # host the vCPUs run at different speeds from moment to moment, and a
    # process that moves between them mixes both speeds into every time.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])

    sys.path.insert(0, str(root / "src"))
    import calibrate
    import ggt.cli
    import tracing
    import workloads

    tally = workloads.Tally()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(ggt)
    t0 = time.perf_counter()
    workloads.warm_up(tally)
    warmup_s = time.perf_counter() - t0
    result = workloads.WORKLOADS[args.workload](tally, args.seconds,
                                                args.seed)
    peak_rss_mb = tracing.maxrss_mb()

    # The probes run last, so that nothing they leave in this process's
    # heap moves the workload's peak RSS.
    clock = calibrate.Clock()
    probes = []
    for _ in range(SETUP_SAMPLES):
        probe, ref_s = clock.time(lambda: setup_sample(root))
        probes.append(probe | {"setup_ref_s": ref_s})
        tally.op("set-up probe", lambda p=probe: (None, [] if p["ok"] else (
            p.get("failures") or ["set-up probe failed"])))

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(cpus), "result": result,
              "warmup_s": warmup_s,
              "setup_samples": [p["setup_s"] for p in probes],
              "setup_ref_samples": [p["setup_ref_s"] for p in probes],
              "ops_failed": f"{tally.failed} of {tally.attempted}",
              "failures": tally.failures}
    if tracer is None:
        metrics = {"setup_s": statistics.median(p["setup_ref_s"]
                                                for p in probes),
                   "work_s": result["work_s"], "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    else:
        tracer.uninstall()
        metrics, more = per_layer(tracer, ggt, probes, warmup_s,
                                  result["work_s"])
        detail.update(more)
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        detail["spans_file"] = os.path.relpath(spans, root)
        units = PER_LAYER_UNITS
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
