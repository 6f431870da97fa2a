"""Per-layer tracing from outside the library.

Tracer.install wraps public surfembed functions (and networkx's LR
planarity run) in place, in every surfembed module that binds them, so a
name imported with "from .embeddings import planarity" is traced as well
as the module attribute.  Each wrapped call is a span with a parent; a
layer's self time is its spans' duration minus their child spans'.
Spans live in memory until write() is called.  While checking is set,
wrapped calls are not traced: the benchmark's own checkers use networkx's
planarity test too, and their work is not the library's.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# layer -> (module, function names, name of the call count)
LAYERS = {
    "lr": ("networkx.algorithms.planarity:LRPlanarity", ("lr_planarity",), "runs"),
    "core.graph": ("surfembed.core:Graph", ("__init__",), "builds"),
    "core.max_disjoint_paths": ("surfembed.core", ("max_disjoint_paths",), "calls"),
    "embeddings.planarity": ("surfembed.embeddings", ("planarity",), "calls"),
    "embeddings.min_genus": ("surfembed.embeddings", ("min_genus",), "calls"),
    "embeddings.genus_additivity": ("surfembed.embeddings", ("genus_additivity",), "calls"),
    "embeddings.genus_of_rotation": ("surfembed.embeddings", ("genus_of_rotation",), "calls"),
    "minors.find_minor": ("surfembed.minors", ("find_minor",), "calls"),
    "minors.find_marked_minor": ("surfembed.minors", ("find_marked_minor",), "calls"),
    "minors.pack_disjoint": ("surfembed.minors", ("pack_disjoint",), "calls"),
    "minors.pack_bouquet": ("surfembed.minors", ("pack_bouquet",), "calls"),
    "minors.verify": ("surfembed.minors", ("verify_model", "verify_marked_model"), "calls"),
    "outerplanarity.is_u_outerplanar": ("surfembed.outerplanarity", ("is_u_outerplanar",), "calls"),
    "outerplanarity.extract_theta": ("surfembed.outerplanarity", ("extract_theta",), "calls"),
    "outerplanarity.su_obstruction": ("surfembed.outerplanarity", ("su_obstruction",), "calls"),
    "outerplanarity.double_star_search": ("surfembed.outerplanarity", ("double_star_search",), "calls"),
    "patterns.convert_to_sigma": ("surfembed.patterns", ("convert_to_sigma",), "calls"),
    "patterns.verify_catalog": ("surfembed.patterns", ("verify_catalog",), "calls"),
    "decompose.decompose": ("surfembed.decompose", ("decompose",), "calls"),
    "decompose.verify_decomposition": ("surfembed.decompose", ("verify_decomposition",), "calls"),
    "decompose.genus_bound": ("surfembed.decompose", ("genus_bound",), "calls"),
    "dichotomy.classify": ("surfembed.dichotomy", ("classify",), "calls"),
    "dichotomy.engines": ("surfembed.dichotomy", (
        "forest_edge_dichotomy", "forest_contract_dichotomy",
        "almost_outerplanar_dichotomy", "planar_vertex_flaws"), "calls"),
    "dichotomy.structures": ("surfembed.dichotomy", (
        "star_comb", "two_star_search", "two_connected_structures"), "calls"),
    "cli.main": ("surfembed.cli", ("main",), "calls"),
}

# layers too hot to keep one span record per call: counted and timed only
UNRECORDED = {"lr", "core.graph"}

# extra counts: layer -> (count name, predicate on the call's result)
OUTCOMES = {
    "embeddings.planarity": ("nonplanar", lambda r: not r.planar),
    "embeddings.min_genus": ("timeouts", lambda r: r.status == "timeout"),
    "minors.find_minor": ("absent", lambda r: r.status == "absent"),
}


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = ["trace.run_s", "lr.runs_per_planarity"]
    for layer, (_, _, count) in LAYERS.items():
        names += [f"{layer}.{count}", f"{layer}.self_s"]
        if layer in OUTCOMES:
            names.append(f"{layer}.{OUTCOMES[layer][0]}")
    return names


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, span id, child seconds]
        self.spans: list[tuple] = []  # (id, layer, query, start, end, parent id)
        self.counts = {name: 0 for name in metric_names()}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.query = ""
        self.checking = False

    def _wrap(self, layer: str, fn):
        count = f"{layer}.{LAYERS[layer][2]}"
        outcome = OUTCOMES.get(layer)
        record = layer not in UNRECORDED
        stack, spans, counts, self_s = self.stack, self.spans, self.counts, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.checking:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = len(spans) if record else -1
            if record:
                spans.append(None)  # filled in when the call ends
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                # a recursive call is part of the outer call, not a new one
                if parent is None or parent[0] != layer:
                    counts[count] += 1
                self_s[layer] += end - start - frame[2]
                if record:
                    spans[span_id] = (span_id, layer, self.query, start, end,
                                      parent[1] if parent is not None else -1)
            if outcome is not None and outcome[1](result):
                counts[f"{layer}.{outcome[0]}"] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's functions wherever surfembed binds them."""
        for layer, (where, names, _) in LAYERS.items():
            module_name, _, cls_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            for name in names:
                original = getattr(owner, name)
                wrapped = self._wrap(layer, original)
                setattr(owner, name, wrapped)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "surfembed" or mod_name.startswith("surfembed."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)

    def metrics(self, run_s: float) -> dict[str, float]:
        out = dict(self.counts)
        out["trace.run_s"] = run_s
        for layer, seconds in self.self_s.items():
            out[f"{layer}.self_s"] = seconds
        planarity_calls = out["embeddings.planarity.calls"]
        out["lr.runs_per_planarity"] = out["lr.runs"] / planarity_calls if planarity_calls else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s for s in self.spans if s is not None],
                       "self_s": self.self_s, "counts": self.counts}, fh)


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in metric_names()}
