"""Spans recorded from the benchmark's own code around calls into iglab's
public functions, and the per-layer metrics derived from them. Nothing
inside src/iglab is instrumented.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from iglab import (
    GraphTopology,
    connected_components,
    gen_model_graph,
    gen_object_rings_uniform,
    graph_from_rings,
    min_degree,
    survives_node_failures,
    trial_rng,
)
from iglab.generators import half_count_summary

from workloads import Workload, probe_pairs


class Tracer:
    """In-memory spans: [name, trial id, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trial):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, trial, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][4] = time.perf_counter()

    def ms(self, name: str) -> dict:
        """Duration in ms of each span called name, keyed by trial id."""
        return {s[1]: (s[4] - s[3]) * 1e3 for s in self.spans if s[0] == name}

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part its
        children cover (children of one span never overlap here)."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[4] - s[3]
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            totals[s[0]] = totals.get(s[0], 0.0) + t * 1e3
        return totals

    def dump(self) -> list[dict]:
        return [{"name": s[0], "trial": list(s[1]), "parent": s[2],
                 "start": s[3], "end": s[4]} for s in self.spans]


def _edge_array(g) -> np.ndarray:
    return np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)


def _pair_keys(assign) -> int:
    u = half_count_summary(assign).u_counts
    return int((u * (u - 1) // 2).sum())


def traced_pass(wl: Workload, seed: int, tracer: Tracer) -> dict:
    """Replay the fixed trial set with spans on. The "experiments.trial" span
    holds exactly the calls the untraced pass times; the "layers" span after
    it times the stages on the same trial's inputs without relying on how
    gen_model_graph consumes its stream."""
    counts = {"pair_keys": 0, "edges": 0, "overlap_edges": 0,
              "full_ids": [], "probes": {}, "successes": []}
    for path, params in wl.points():
        successes = 0
        for i in range(wl.trials):
            tid = (*path, i)
            with tracer.span("experiments.trial", tid):
                with tracer.span("generators.trial_rng", tid):
                    rng = trial_rng(seed, *path, i)
                with tracer.span("generators.gen_model_graph", tid):
                    g = gen_model_graph(params, rng)
                with tracer.span("connectivity.survives_node_failures", tid):
                    successes += survives_node_failures(g, wl.m)
            edges = _edge_array(g)
            with tracer.span("layers", tid):
                with tracer.span("generators.gen_object_rings_uniform", tid):
                    assign = gen_object_rings_uniform(
                        params.n, params.K, params.P, trial_rng(seed, *path, i))
                with tracer.span("generators.graph_from_rings", tid):
                    overlap = graph_from_rings(assign, params.d)
                with tracer.span("graph.GraphTopology", tid):
                    GraphTopology(params.n, edges)
                with tracer.span("graph.connected_components", tid):
                    connected_components(g)
                with tracer.span("graph.min_degree", tid):
                    full = min_degree(g) >= wl.k
            counts["pair_keys"] += _pair_keys(assign)
            counts["edges"] += g.edge_count()
            counts["overlap_edges"] += overlap.edge_count()
            if full:
                counts["full_ids"].append(tid)
                if wl.k >= 3:
                    counts["probes"][tid] = probe_pairs(g)
        counts["successes"].append(successes)
    return counts


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    values = list(values)
    return float(np.percentile(values, 90)) if values else 0.0


def layer_metrics(wl: Workload, tracer: Tracer, counts: dict) -> dict:
    """Per-layer figures of one traced pass, as name -> (value, unit). A
    metric that does not apply to the workload (a k >= 3 figure on a k <= 2
    run) reads 0."""
    trials = wl.total_trials
    trial_ms = tracer.ms("experiments.trial")
    decide = tracer.ms("connectivity.survives_node_failures")
    probes = counts["probes"]

    def p50(span: str):
        return _p50(tracer.ms(span).values()), "ms"

    return {
        "generators.rings_ms": p50("generators.gen_object_rings_uniform"),
        "generators.overlap_graph_ms": p50("generators.graph_from_rings"),
        "generators.model_graph_ms": p50("generators.gen_model_graph"),
        "generators.pair_keys": (counts["pair_keys"] / trials, "count"),
        "generators.edges": (counts["edges"] / trials, "count"),
        "generators.edge_yield": (counts["overlap_edges"] / max(1, counts["pair_keys"]),
                                  "ratio"),
        "graph.build_ms": p50("graph.GraphTopology"),
        "graph.components_ms": p50("graph.connected_components"),
        "graph.min_degree_ms": p50("graph.min_degree"),
        "connectivity.decide_ms.p50": (_p50(decide.values()), "ms"),
        "connectivity.decide_ms.p90": (_p90(decide.values()), "ms"),
        "connectivity.full_share": (len(counts["full_ids"]) / trials, "ratio"),
        "connectivity.full_decide_ms": (_p50(decide[t] for t in counts["full_ids"]), "ms"),
        "connectivity.probe_pairs": (sum(probes.values()) / len(probes) if probes else 0.0,
                                     "count"),
        "connectivity.ms_per_probe": (_p50(decide[t] / probes[t] for t in probes if probes[t]),
                                      "ms"),
        "experiments.trial_ms.p50": (_p50(trial_ms.values()), "ms"),
        "experiments.trial_ms.p90": (_p90(trial_ms.values()), "ms"),
    }
