"""Size caps are module constants, not parameters.

A cap that callers only ever use at one value is a constant of its
module, read at call time (DEFAULT_ORBIT_BOUND, _TALLY_BOUND, ...), and
tests monkeypatch the constant.  Only two caps stay settable, because a
caller passes a second value: FinGroup.generate's bound (168 for the G2
group, |A||B| for direct_product) and find_prime_pair's ceiling (the
--ceiling flag).
"""

import inspect
import re

import ggt
from ggt import weylenum
from ggt.fingroup import _split_metacyclic
from ggt.primesearch import _slow_order

# inputs that set what is computed, not how much work is allowed: the
# conductors of the splitting condition and the rank of the scanned systems
_NOT_CAPS = {"conductor_bound", "rank_bound"}


def _callables():
    objs = ([getattr(ggt, name) for name in ggt.__all__]
            + [getattr(weylenum, name) for name in weylenum.__all__]
            + [_split_metacyclic, _slow_order])
    for obj in objs:
        if inspect.isclass(obj):  # the methods, a record's __init__ too
            for key, val in vars(obj).items():
                val = getattr(val, "__func__", val)
                if callable(val):
                    yield f"{obj.__name__}.{key}", val
        elif callable(obj):  # a plain or a cached function
            yield obj.__name__, obj


def test_only_two_size_caps_are_parameters():
    caps = set()
    for name, fn in _callables():
        for param in inspect.signature(fn).parameters:
            if (re.search("bound|ceiling|limit", param)
                    and param not in _NOT_CAPS):
                caps.add(f"{name}({param})")
    assert caps == {"FinGroup.generate(bound)", "find_prime_pair(ceiling)"}
