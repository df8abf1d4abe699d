"""One set-up sample: a fresh interpreter imports ggt.cli and runs the
exact_queries warm-up, then prints its phase times as one JSON line.

run.py starts this script several times, one at a time, and times each
process from start to exit.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path.cwd() / "src"))
import ggt.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402  (found next to this script)

tally = workloads.Tally()
t2 = time.perf_counter()
workloads.warm_up(tally)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2,
                  "attempted": tally.attempted, "failed": tally.failed,
                  "failures": tally.failures}))
