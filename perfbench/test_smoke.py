"""Smoke checks of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the short exact_queries workload in both modes (about 35 s in all)
and feeds the result checks wrong expectations; it never runs the long
wild_so workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import ggt  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact_queries",
         "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_metric_is_emitted_with_its_unit():
    digests = []
    for trace, units in ((0, run.END_TO_END_UNITS), (0, run.END_TO_END_UNITS),
                         (1, run.PER_LAYER_UNITS)):
        proc = bench("--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        detail, result = [json.loads(line)
                          for line in proc.stdout.splitlines()[-2:]]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        digests.append(detail["detail"]["result"]["result_digest"])
    # identical invocations, identical output (traced or not)
    assert len(set(digests)) == 1


def test_wrong_expectations_count_as_failed_operations():
    tally = workloads.Tally()
    report = ggt.so_wild_report(ggt.build_so_wild(3))
    tally.op("right m", lambda: workloads.check_wild_report(report, 3))
    assert tally.failed == 0
    tally.op("wrong m", lambda: workloads.check_wild_report(report, 5))
    assert tally.failed == 1

    tally.op("scan", lambda: workloads.q_uniqueness(2, (6,), "G2", True))
    assert tally.failed == 1
    tally.op("wrong scan", lambda: workloads.q_uniqueness(2, (6,), "F4", True))
    assert tally.failed == 2
    assert tally.attempted == 4


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_clock_scales_wall_time_by_the_calibration_job():
    assert calibrate.job() == calibrate.job() >= calibrate.CLOSURE_SIZE
    clock = calibrate.Clock()
    out, ref_s = clock.time(calibrate.job)
    # the job timed against itself reads about REF_S
    assert out == calibrate.job()
    assert 0.2 * calibrate.REF_S < ref_s < 5 * calibrate.REF_S
