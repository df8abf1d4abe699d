"""A fixed job that measures how fast the host runs right now.

On a shared host the same ggt work can take 40% longer from one minute to
the next (process CPU time rises with wall time, so the CPU runs slower;
it is not waiting).  The benchmark runs this job between its timed units
of work and scales each unit's wall time by the job's time around it,
so that every reported time reads in reference seconds:

    reference seconds = wall seconds * REF_S / (job seconds)

A change to ggt moves the wall time only; the job never imports ggt.

The job mimics the kind of work ggt does: a breadth-first closure of
signed permutations kept as frozen dataclasses of tuples, multiplied like
MonomialMatrix and hashed into a set.  It is deterministic and stdlib-only.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# The job took about this long on the reference machine (see README.md).
REF_S = 0.06
DEGREE = 9
CLOSURE_SIZE = 7000


@dataclass(frozen=True)
class _Signed:
    perm: tuple
    sign: tuple

    def __mul__(self, other: "_Signed") -> "_Signed":
        p1, s1, p2, s2 = self.perm, self.sign, other.perm, other.sign
        return _Signed(tuple(p1[p2[k]] for k in range(DEGREE)),
                       tuple((s1[p2[k]] + s2[k]) % 2 for k in range(DEGREE)))


_GENS = (
    _Signed(tuple(range(1, DEGREE)) + (0,), (1,) + (0,) * (DEGREE - 1)),
    _Signed((1, 0) + tuple(range(2, DEGREE)), (0,) * DEGREE),
)


def job() -> int:
    """Grow the closure of _GENS to CLOSURE_SIZE elements; return its size."""
    seen = set(_GENS)
    frontier = list(_GENS)
    while len(seen) < CLOSURE_SIZE:
        grown = []
        for x in frontier:
            for g in _GENS:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return len(seen)


def seconds() -> float:
    """Time one job, with the garbage collector off so that the objects
    the caller holds do not change the job's cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        job()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Times units of work in reference seconds.

    Runs the job once at the start and once after every unit, and scales
    a unit's wall time by the mean of the two job times around it.  A
    full garbage collection before each unit, outside its time, keeps one
    unit's garbage off the next unit's time.
    """

    def __init__(self) -> None:
        self.last = seconds()
        self.wall_s = 0.0

    def time(self, fn):
        """Run fn(); return (its output, its time in reference seconds)."""
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        cal = seconds()
        ref = wall * 2 * REF_S / (self.last + cal)
        self.last = cal
        self.wall_s += wall
        return out, ref
