"""Spans around the calls into heatbound's layers, recorded from outside.

The program is not changed: ``Tracer.install`` replaces the entry points
listed in ENTRY_POINTS by timing wrappers wherever heatbound looks them up
(module attributes, names imported by value such as ``bounds.kernel_matrix``,
and methods on the classes), and ``uninstall`` puts the originals back.

A call opens a span unless the innermost open span belongs to the same layer;
such a call is still counted, and its time stays with its caller.  The
evolution cache counts as its own layer, so the ``heat_kernel`` calls it
makes on a miss are spans of their own.  Self time is a span's duration
minus that of its child spans, so the self times of one operation add up to
the duration of its ``cli`` span.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from time import perf_counter

# (module, attribute, span name, layer)
ENTRY_POINTS = (
    ("cli", "main", "cli", "cli"),
    ("graph", "load_graph_file", "graph.load", "graph"),
    ("metric", "shortest_path_metric", "metric.build", "metric"),
    ("kernel", "heat_kernel", "kernel.heat_kernel", "kernel"),
    ("kernel", "kernel_matrix", "kernel.kernel_matrix", "kernel"),
    ("kernel", "on_diagonal_curve", "kernel.on_diagonal_curve", "kernel"),
    ("kernel", "KernelEvolution.u", "kernel.evolution", "evolution"),
    ("kernel", "KernelEvolution.err_bound", "kernel.evolution", "evolution"),
    ("kernel", "KernelEvolution.norm_sq", "kernel.evolution", "evolution"),
    ("kernel", "KernelEvolution.tail_mass", "kernel.evolution", "evolution"),
    ("regularity", "DecayProfile.from_on_diagonal", "regularity.fit",
     "regularity"),
    ("regularity", "minimal_regularity_constant", "regularity.fit",
     "regularity"),
    ("bounds", "fit_sweep_setup", "bounds.setup", "bounds"),
    ("bounds", "bound_sweep", "bounds.sweep", "bounds"),
    ("bounds", "fit_empirical_constant", "bounds.empirical", "bounds"),
    ("imp", "is_in_F", "imp.membership", "imp"),
    ("imp", "check_J_monotone", "imp.j_monotone", "imp"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in ENTRY_POINTS))


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _work(name, args, kwargs):
    """(distributions, sum of Lam*t) a kernel call asks for, from its arguments."""
    g = args[0]
    lam = float(g.rates.max())
    if name == "kernel.heat_kernel":
        return 1, lam * float(_arg(args, kwargs, 2, "t"))
    if name == "kernel.kernel_matrix":
        return g.n, g.n * lam * float(_arg(args, kwargs, 1, "t"))
    times = [float(t) for t in _arg(args, kwargs, 2, "times")]
    return len(times), lam * sum(times)


class Tracer:
    """Records spans and counters; one instance per worker process."""

    def __init__(self, hb):
        self.hb = hb
        self.spans = []      # dicts: op, id, name, parent, start, end
        self.counts = {}     # op -> Counter
        self._stack = []
        self._patches = []
        self._op = None

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self
        kernel_work = name in ("kernel.heat_kernel", "kernel.kernel_matrix",
                               "kernel.on_diagonal_curve")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer._op]
            counts[name + "_calls"] += 1
            parent = tracer._stack[-1] if tracer._stack else None
            if kernel_work:
                dists, lam_t = _work(name, args, kwargs)
                counts["kernel.distributions"] += dists
                counts["kernel.requested_lam_t"] += lam_t
                if (name == "kernel.heat_kernel" and parent is not None
                        and parent["layer"] == "evolution"):
                    counts["kernel.evolution_misses"] += 1
            if parent is not None and parent["layer"] == layer:
                return fn(*args, **kwargs)
            span = {"op": tracer._op, "id": len(tracer.spans), "name": name,
                    "layer": layer, "parent": parent["id"] if parent else None}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if name == "metric.build":
                counts["metric.dist_bytes"] = max(counts["metric.dist_bytes"],
                                                  result.dist.nbytes)
            return result

        return wrapper

    def install(self, op):
        """Put the wrappers in place for operation ``op``."""
        self._op = op
        self.counts[op] = Counter()
        modules = [self.hb] + [getattr(self.hb, m) for m in
                               ("cli", "graph", "metric", "kernel",
                                "regularity", "bounds", "imp")]
        for mod_name, attr, name, layer in ENTRY_POINTS:
            owner = getattr(self.hb, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, layer))
                else:
                    new = self._wrap(raw, name, layer)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, attr)
            new = self._wrap(fn, name, layer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self._op = None

    # -- results ----------------------------------------------------------

    def op_metrics(self, op):
        """Per-layer metrics of one traced operation."""
        spans = [s for s in self.spans if s["op"] == op]
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        self_time = Counter()
        for s in spans:
            self_time[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        out = {("cli.self_s" if name == "cli" else name + "_s"): self_time[name]
               for name in SPAN_NAMES}
        counts = self.counts[op]
        for key in ("kernel.kernel_matrix_calls", "kernel.heat_kernel_calls",
                    "bounds.sweep_calls", "kernel.evolution_misses",
                    "kernel.distributions", "kernel.requested_lam_t",
                    "metric.dist_bytes"):
            out[key] = counts[key]
        out["trace.self_sum_s"] = sum(self_time.values())
        return out

    def write_jsonl(self, path, walls):
        """Write every span, then one line per traced operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for op, counts in self.counts.items():
                fh.write(json.dumps({"op": op, "wall_s": walls[op],
                                     "counts": dict(counts)}) + "\n")


def median_metrics(per_op):
    """Median over traced operations of each per-layer metric."""
    keys = per_op[0].keys()
    return {k: statistics.median(m[k] for m in per_op) for k in keys}
