"""The benchmark's workloads: the CLI arguments each one generates from a
seed, and the same trials replayed serially through iglab's public API.

Why each workload exists, and what it is predicted to move, is written up in
README.md next to this file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, islice

from iglab import (
    GraphTopology,
    ModelParams,
    gen_model_graph,
    min_degree,
    survives_node_failures,
    trial_rng,
)

# Critical link-survival values g* = solve_critical("g", params at g = 1, m),
# written out so that the inputs stay fixed if the solver's last digits move.
G_STAR_R0 = 0.5169849666   # n = 2000, K = 36, P = 10^4, d = 2, m = 0
G_STAR_M1 = 0.4555846490   # n = 1000, K = 36, P = 6000, d = 2, m = 1

# Graphs per run whose verdict is compared with networkx (first full decision).
ORACLE_GRAPHS = 1
# Parts of the oracle's constructed graphs: model graphs small enough for
# networkx to check in well under a second, drawn from streams
# trial_rng(seed, ORACLE_STREAM, j) that no trial of any workload uses.
ORACLE_PART = ModelParams(n=40, K=12, P=120, d=2, f=1.0, g=1.0)
ORACLE_STREAM = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "simulate" or "sweep"
    n: int
    K: int
    P: int
    d: int
    m: int                     # failure budget; the decision is k = m + 1
    g_values: tuple[float, ...]  # one per sweep point; simulate has one
    trials: int                # trials per point: the fixed trial set

    @property
    def k(self) -> int:
        return self.m + 1

    @property
    def total_trials(self) -> int:
        return self.trials * len(self.g_values)

    def params(self, g: float = 1.0) -> ModelParams:
        return ModelParams(n=self.n, K=self.K, P=self.P, d=self.d, f=1.0, g=g)

    def points(self) -> list[tuple[tuple[int, ...], ModelParams]]:
        """(trial_rng path prefix, parameters) per output row, following the
        CLI's stream layout: (seed, i) for simulate, (seed, point, i) for
        sweep."""
        if self.command == "sweep":
            return [((j,), self.params(g)) for j, g in enumerate(self.g_values)]
        return [((), self.params(self.g_values[0]))]

    def cli_argv(self, seed: int, workers: int, out: str) -> list[str]:
        argv = [self.command, "-n", str(self.n), "-K", str(self.K),
                "-P", str(self.P), "-d", str(self.d), "-m", str(self.m),
                "--trials", str(self.trials), "--seed", str(seed),
                "--workers", str(workers), "--out", out]
        if self.command == "sweep":
            return argv + ["--axis", "g",
                           "--values", ",".join(map(repr, self.g_values))]
        return argv + ["-g", repr(self.g_values[0])]


FULL = {w.name: w for w in (
    Workload("simulate_r0", "simulate", 2000, 36, 10_000, 2, 0, (G_STAR_R0,), 40),
    # Not the paper point g*(m=2): there about half the trials stop at the
    # min-degree filter and the rest cost ~2.5 s each, so four trials swing
    # trials/s by +-50 % between seeds. K = 38, g = 1 sends 98.7 % of trials
    # through the full k = 3 decision.
    Workload("simulate_k3", "simulate", 300, 38, 4000, 2, 2, (1.0,), 2),
    Workload("sweep_m1", "sweep", 1000, 36, 6000, 2, 1,
             (0.3644677192, 0.4100261841, G_STAR_M1), 30),
)}

# Same code paths in well under a second each, for the self-tests.
TINY = {w.name: w for w in (
    Workload("simulate_r0", "simulate", 200, 12, 500, 2, 0, (0.8,), 6),
    Workload("simulate_k3", "simulate", 40, 12, 120, 2, 2, (1.0,), 6),
    Workload("sweep_m1", "sweep", 60, 12, 200, 2, 1, (0.6, 0.8, 1.0), 6),
)}


def probe_pairs(g) -> int:
    """Esfahanian-Hakimi probe pairs of a k >= 3 decision: a minimum-degree
    node against its non-neighbours, plus the non-adjacent pairs among its
    neighbours."""
    v = min(range(g.n), key=g.degree)
    nbrs = sorted(g.neighbors(v))
    return (g.n - 1 - len(nbrs)) + sum(
        1 for x, y in combinations(nbrs, 2) if not g.has_edge(x, y))


@dataclass
class SerialPass:
    """What a plain single-process replay of the trial set found."""

    successes: list[int]       # per point
    seconds: float             # summed per-trial wall time
    oracle_cases: list         # (graph, verdict) of the first full decisions


def serial_pass(wl: Workload, seed: int) -> SerialPass:
    """Replay every trial of the fixed set in one process. Each trial is
    timed as trial_rng + sample + decide; the bookkeeping around it is not."""
    successes, cases, seconds = [], [], 0.0
    for path, params in wl.points():
        count = 0
        for i in range(wl.trials):
            t0 = time.perf_counter()
            g = gen_model_graph(params, trial_rng(seed, *path, i))
            ok = survives_node_failures(g, wl.m)
            seconds += time.perf_counter() - t0
            count += ok
            if wl.k >= 2 and len(cases) < ORACLE_GRAPHS and min_degree(g) >= wl.k:
                cases.append((g, ok))
        successes.append(count)
    return SerialPass(successes, seconds, cases)


def glued_graphs(seed: int, k: int) -> list[GraphTopology]:
    """Two model graphs of minimum degree >= k side by side, joined once by
    k - 1 edges (their ends on one side separate the graph: not k-connected)
    and once by k disjoint edges (k-connected when both parts are). Both
    pass the min-degree filter, so both need the full decision; model graphs
    that pass it are k-connected nearly always, so these give the oracle a
    known "no" that a decider accepting too often gets wrong."""
    draws = (gen_model_graph(ORACLE_PART, trial_rng(seed, ORACLE_STREAM, j))
             for j in range(50))
    parts = list(islice((g for g in draws if min_degree(g) >= k), 2))
    if len(parts) < 2:
        return []
    a, b = parts
    edges = [*a.edges, *((x + a.n, y + a.n) for x, y in b.edges)]
    return [GraphTopology(a.n + b.n, edges + [(i, a.n + i) for i in range(width)])
            for width in (k - 1, k)]


def oracle_truths(graphs, k: int) -> list[bool]:
    """networkx's answer to "is g k-connected?". For k = 2 that is
    is_biconnected, the same predicate as node_connectivity >= 2 for n >= 3:
    it takes 0.01 s where node_connectivity takes 16 s at n = 1000."""
    import networkx as nx  # only the benchmark uses networkx

    truths = []
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        truths.append(nx.is_biconnected(G) if k == 2
                      else nx.node_connectivity(G) >= k)
    return truths
