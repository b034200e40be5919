"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of the sheaffuse modules from the
outside, so the library carries no instrumentation.  A function is
replaced at every binding any sheaffuse module holds, not only where it
is defined: ``fusion.pullback_global`` and ``sheaf.nullspace`` are
from-imports, and a call through them would otherwise go unseen.

Each call records one span: name, start, end, parent span and op id.
Spans stay in memory in flat arrays and are written out once, when the
run ends.  Self time is a span's duration minus the time its child
spans cover; busy time is the time covered by the outermost spans of a
name, so recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# the layers whose public functions are wrapped, by module name
LAYERS = ("specio", "consistency", "fusion", "sheaf", "cohomology",
          "_linalg", "_kernels", "spaces", "topology")
# methods wrapped besides the module functions: the per-layer metrics
# name them
METHODS = (("sheaf", "Sheaf", ("restrict", "restriction_matrix")),)

# counts read off return values at the layer boundary, by span name
RESULT_COUNTS = {
    "fusion.nelder_mead": lambda r: {"fusion.objective_evals": r.evaluations},
    "fusion.fuse": lambda r: {"fusion.fuses": 1,
                              "fusion.converged": int(r.converged)},
    "consistency.consistency_radius": lambda r: {
        "consistency.edges": len(r.edges)},
    "sheaf.verify_gluing": lambda r: {
        "sheaf.verify_gluing.pairs": r.checked_pairs},
    "sheaf.verify_functoriality": lambda r: {
        "sheaf.verify_functoriality.pairs": r.checked_pairs},
}


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = 0
        self.paused = False
        self.counters: Counter = Counter()

    def wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        counts = RESULT_COUNTS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counts is not None:
                self.counters.update(counts(result))
            return result

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Run benchmark-side output checks without recording spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextlib.contextmanager
    def attached(self):
        """Wrap every public function of LAYERS at every binding held by
        a sheaffuse module; restore the originals on exit."""
        wrappers = {}
        for short in LAYERS:
            mod = importlib.import_module(f"sheaffuse.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isroutine(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if home == mod.__name__ or home.startswith(mod.__name__ + "."):
                    span = f"{short.lstrip('_')}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(span, obj))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sheaffuse"
                                   or mod_name.startswith("sheaffuse.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        for short, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(f"sheaffuse.{short}"),
                          cls_name)
            for attr in methods:
                obj = cls.__dict__[attr]
                patched.append((cls, attr, obj))
                setattr(cls, attr, self.wrap(f"{short}.{attr}", obj))
        try:
            yield
        finally:
            for owner, attr, obj in reversed(patched):
                setattr(owner, attr, obj)

    # -- results -------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def layer_metrics(self, metrics, dd_residual: float,
                      overhead_pct: float) -> dict[str, float]:
        """The named per-layer metrics, from the recorded spans and
        counters.  A name is ``<span prefix>.calls``, ``.busy_ms`` or
        ``.self_ms``, a counter of RESULT_COUNTS, or one derived below."""
        name, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        self_time = dur - child

        def select(prefix):
            ids = [i for i, n in enumerate(self.names)
                   if n == prefix or n.startswith(prefix + ".")]
            return np.isin(name, ids)

        def busy_ms(sel):
            s, e = start[sel], end[sel]
            if not s.size:
                return 0.0
            # spans of one name nest or are disjoint; an outermost one
            # starts after every earlier one has ended
            reach = np.maximum.accumulate(e)
            outer = np.ones(s.size, dtype=bool)
            outer[1:] = s[1:] >= reach[:-1]
            return float(np.sum(e[outer] - s[outer])) * 1e3

        counters = self.counters
        evals = counters["fusion.objective_evals"]
        fuses = counters["fusion.fuses"]
        derived = {
            "fusion.eval_us": lambda: (
                busy_ms(select("fusion.nelder_mead")) * 1e3 / evals
                if evals else 0.0),
            "fusion.converged_ratio": lambda: (
                counters["fusion.converged"] / fuses if fuses else 0.0),
            "cohomology.dd_residual": lambda: dd_residual,
            "trace.spans": lambda: float(len(dur)),
            "trace.overhead_pct": lambda: overhead_pct,
        }
        out = {}
        for metric in metrics:
            layer, _, stat = metric.rpartition(".")
            if metric in derived:
                out[metric] = float(derived[metric]())
            elif stat in ("pairs", "edges", "objective_evals", "fuses"):
                out[metric] = float(counters[metric])
            elif stat == "calls":
                out[metric] = float(np.count_nonzero(select(layer)))
            elif stat == "busy_ms":
                out[metric] = busy_ms(select(layer))
            elif stat == "self_ms":
                out[metric] = float(np.sum(self_time[select(layer)])) * 1e3
            else:
                raise ValueError(f"no per-layer metric named {metric!r}")
        return out

    def save(self, path) -> None:
        name, parent, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            op=np.frombuffer(self.op, dtype=np.int32), start=start, end=end)
