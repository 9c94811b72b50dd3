"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces module attributes with timing wrappers, each in
the namespace its caller looks the function up in, and `remove` puts the
originals back; the package source is never edited.  Spans (name, start,
end, parent, size) stay in memory until `dump`.

Hub-hierarchy and min-plus spans opened inside a parametric span are not
recorded: the ratio search runs the same detector on rational weights, and
its cost belongs to the parametric layer that called it.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from hubapsp import NumberOps, hubs, minplus, parametric

# (module, attribute, span name) of every wrapped function.
TARGETS = (
    (minplus, "build_hub_hierarchy", "hubs.hierarchy"),
    (minplus, "build_hub_graph", "minplus.hub_graph"),
    (minplus, "minplus_closure", "minplus.closure"),
    (minplus, "minplus_product", "minplus.product"),
    (minplus, "lift_level", "minplus.lift"),
    (minplus, "shortest_negative_cycle", "minplus.fallback"),
    (hubs, "build_hub_hierarchy", "hubs.hierarchy"),
    (hubs, "extend_hubs", "hubs.extend"),
    (hubs, "collect_minimal_paths", "hubs.collect_paths"),
    (hubs, "greedy_hitting_set", "hubs.greedy"),
    (parametric, "shortest_negative_cycle", "parametric.detect"),
    (parametric, "evaluate_lambda", "parametric.certificate"),
)
# Spans that also record a size read off the function's result.
SIZE = {
    "hubs.collect_paths": len,                     # minimal paths collected
    "hubs.greedy": len,                            # hubs in the new level
    "minplus.hub_graph": lambda m: len(m.index),   # top-level hub count b
}


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, size]
        self._stack = []
        self._saved = []
        self._in_parametric = 0

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, fn, name):
        parametric_layer = name.startswith("parametric.")

        def traced(*args, **kwargs):
            if not parametric_layer and self._in_parametric:
                return fn(*args, **kwargs)
            label = name
            if name == "parametric.detect":
                ops = kwargs.get("ops")
                label = "parametric.oracle" if isinstance(ops, NumberOps) else "parametric.symbolic"
            self._in_parametric += parametric_layer
            try:
                with self.span(label) as rec:
                    out = fn(*args, **kwargs)
                    if name in SIZE:
                        rec[4] = SIZE[name](out)
                    return out
            finally:
                self._in_parametric -= parametric_layer
        return traced

    def install(self):
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self):
        """Per span name: total seconds, self seconds, count, summed size."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0, 0])
        for i, (name, start, end, _, size) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
            row[3] += size or 0
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "size": size}) + "\n")


def layer_metrics(tracer: Tracer, calls: int) -> dict:
    """Per-call means of the layer numbers named in BENCHMARK.json."""
    t = tracer.totals()

    def total(name):
        return t[name][0] / calls if name in t else 0.0

    def self_s(name):
        return t[name][1] / calls if name in t else 0.0

    def count(name):
        return t[name][2] / calls if name in t else 0.0

    def size(name):
        return t[name][3] / calls if name in t else 0.0

    return {
        "minplus.closure_s": (total("minplus.closure"), "s"),
        "minplus.products": (count("minplus.product"), "count"),
        "minplus.hub_graph_s": (total("minplus.hub_graph"), "s"),
        "minplus.hub_count": (size("minplus.hub_graph"), "count"),
        "minplus.lift_s": (total("minplus.lift"), "s"),
        "minplus.lift_calls": (count("minplus.lift"), "count"),
        "hubs.hierarchy_s": (total("hubs.hierarchy"), "s"),
        "hubs.extend_self_s": (self_s("hubs.extend"), "s"),
        "hubs.collect_paths_s": (total("hubs.collect_paths"), "s"),
        "hubs.paths": (size("hubs.collect_paths"), "count"),
        "hubs.greedy_s": (total("hubs.greedy"), "s"),
        "hubs.hub_total": (size("hubs.greedy"), "count"),
        "parametric.symbolic_s": (self_s("parametric.symbolic"), "s"),
        "parametric.oracle_s": (total("parametric.oracle"), "s"),
        "parametric.oracle_calls": (count("parametric.oracle"), "count"),
        "parametric.certificate_s": (self_s("parametric.certificate"), "s"),
        "parametric.probes": (count("parametric.certificate"), "count"),
    }
