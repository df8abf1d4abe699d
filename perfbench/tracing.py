"""Spans and counters recorded from outside the ggt package.

The tracer replaces public functions and methods of ggt with thin
wrappers.  A module-level function is replaced in every loaded ggt module
that holds it, so calls between ggt modules are seen as well as calls
from the benchmark.  Each wrapped call either records a span (name,
start, end, parent) or, for calls too frequent to keep one record each,
only adds to a counter and its total time.  Both kinds push a frame on
the tracer's stack, so a layer's self time is its calls' time minus the
time of the wrapped calls nested inside them.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter, defaultdict


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []          # (name, start, end, parent index)
        self.durations: dict = defaultdict(list)
        self.self_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.count_s: dict = defaultdict(float)
        self._stack: list = []         # frames [span index, child seconds]
        self._restore: list = []
        self.cold_orders: list = []    # (new labels, seconds, rss MB, exact)

    # -- recording ---------------------------------------------------------

    def _enter(self, index: int | None) -> list:
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, layer: str, dur: float) -> None:
        self._stack.pop()
        self.self_s[layer] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def call_span(self, name: str, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = self._enter(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans[index] = (name, start, end, parent)
            self.durations[name].append(end - start)
            self._leave(frame, layer_of(name), end - start)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call_span(name, fn, args, kwargs)
        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Count calls (or amount(first argument) per call) and their time."""
        tracer = self
        layer = layer_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(None)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer._leave(frame, layer, dur)
                tracer.count_s[name] += dur
            tracer.counts[name] += 1 if amount is None else amount(args[0])
            return out
        return wrapper

    # -- installing --------------------------------------------------------

    def replace_function(self, orig, new) -> None:
        """Swap orig for new in every loaded ggt module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ggt"
                                   or modname.startswith("ggt.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._restore.append((mod, key, orig))

    def replace_method(self, cls, attr: str, make) -> None:
        orig = cls.__dict__[attr]
        if isinstance(orig, classmethod):
            setattr(cls, attr, classmethod(make(orig.__func__)))
        else:
            setattr(cls, attr, make(orig))
        self._restore.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def install(self, ggt) -> None:
        """Wrap the public ggt functions and methods the metrics need."""
        fn = self.replace_function
        for name in ("uniqueness_scan", "order_table", "check_order_table"):
            fn(getattr(ggt, name),
               self.span(f"rootsystems.{name}", getattr(ggt, name)))
        fn(ggt.root_data, self._root_data(ggt.root_data))
        fn(ggt.weyl_element_orders,
           self._weyl_element_orders(ggt, ggt.weyl_element_orders))
        for name in ("build_so_wild", "so_wild_report", "build_g2_jordan",
                     "g2_jordan_report", "mackey_decompose"):
            fn(getattr(ggt, name),
               self.span(f"wildtwo.{name}", getattr(ggt, name)))
        for name in ("is_type_np", "is_type_npl", "metacyclic", "cyclic"):
            fn(getattr(ggt, name),
               self.span(f"fingroup.{name}", getattr(ggt, name)))
        for name in ("build_tame_parameter", "parameter_image"):
            fn(getattr(ggt, name),
               self.span(f"weilparams.{name}", getattr(ggt, name)))
        for name in ("frobenius_orbit", "check_selfdual_orbit"):
            fn(getattr(ggt, name),
               self.span(f"roots.{name}", getattr(ggt, name)))
        for name in ("find_prime_pair", "validate_certificate"):
            fn(getattr(ggt, name),
               self.span(f"primesearch.{name}", getattr(ggt, name)))
        for name in ("is_prime", "mult_order"):
            fn(getattr(ggt, name),
               self.counter(f"numth.{name}_calls", getattr(ggt, name)))
        main = sys.modules["ggt.cli"].main
        fn(main, self.span("cli.main", main))

        meth = self.replace_method
        for attr in ("generate", "conjugacy_classes", "normal_subgroups",
                     "commutator_subgroup", "abelianization", "quotient",
                     "to_json"):
            meth(ggt.FinGroup, attr,
                 functools.partial(self.span, f"fingroup.{attr}"))
        meth(ggt.FinGroup, "__init__", lambda f: self.counter(
            "fingroup.elements", f, amount=lambda grp: len(grp.elements)))
        meth(ggt.TameParameter, "checks",
             functools.partial(self.span, "weilparams.checks"))
        meth(ggt.MonomialMatrix, "__mul__",
             functools.partial(self.counter, "monomial.products"))

    def _root_data(self, fn):
        cold_name, warm_name = "rootsystems.root_data_cold", \
            "rootsystems.root_data"
        seen: set = set()

        @functools.wraps(fn)
        def wrapper(label, *args, **kwargs):
            name = warm_name if label in seen else cold_name
            seen.add(label)
            return self.call_span(name, fn, (label,) + args, kwargs)
        return wrapper

    def _weyl_element_orders(self, ggt, fn):
        """Cold calls (those computing an exceptional factor for the first
        time) are weylenum work; warm calls only combine cached sets."""

        seen: set = set()

        @functools.wraps(fn)
        def wrapper(rs, *args, **kwargs):
            comps = ggt.RootSystem.parse(rs).components \
                if isinstance(rs, str) else rs.components
            new = sorted({c for c in comps
                          if c[0] in "EFG" and c not in seen})
            if not new:
                return self.call_span("rootsystems.combine", fn,
                                      (rs,) + args, kwargs)
            rss0 = maxrss_mb()
            start = time.perf_counter()
            out = self.call_span("weylenum.orders", fn, (rs,) + args, kwargs)
            seen.update(new)
            self.cold_orders.append((new, time.perf_counter() - start,
                                     maxrss_mb() - rss0,
                                     out.mode == "exact"))
            return out
        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
