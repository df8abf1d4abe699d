"""Start-up cost of each README `ggt` command, one fresh interpreter per run.

    python3 tools/startup.py

Run it from the root of a ggt checkout: the library is imported from
./src.  Every command (the README's sub-second ones, `weyl table` left
out) runs RUNS times through ggt.cli.main, pinned to one CPU, one
process at a time.  Prints one Markdown table row per command: median
wall time from start to exit and the median peak RSS of the process.
The first row is a bare `import ggt.cli` that runs no command, the share
of each row that is start-up alone.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 5
# with no arguments the probe imports ggt.cli and runs nothing
PROBE = ("import sys, ggt.cli; "
         "sys.exit(ggt.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)")


def readme_commands(root: Path) -> list[str]:
    text = (root / "README.md").read_text(encoding="utf-8")
    return [c for c in re.findall(r"^ggt (.+)$", text, re.M)
            if c != "weyl table"]


def run_once(root: Path, command: str) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, *command.split()],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=env, text=True) as proc:
        err = proc.stderr.read()
        # wait4, unlike wait, gives this one child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"ggt {command}: exit {proc.returncode}\n{err}")
    return wall, usage.ru_maxrss / 1024


def main() -> int:
    root = Path.cwd()
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    print("| command | wall (ms) | peak RSS (MB) |")
    print("| --- | --- | --- |")
    for command in ["", *readme_commands(root)]:
        runs = [run_once(root, command) for _ in range(RUNS)]
        wall = statistics.median(r[0] for r in runs) * 1e3
        rss = statistics.median(r[1] for r in runs)
        label = f"`{command}`" if command else "`import ggt.cli` alone"
        print(f"| {label} | {wall:.0f} | {rss:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
