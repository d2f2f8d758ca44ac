import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iglab import graph
from iglab.connectivity import is_k_connected, remove_nodes, vertex_connectivity
from iglab.errors import InvalidParameterError
from iglab.experiments import ExperimentConfig, run_resilience_trials
from iglab.generators import (
    gen_coupled_pair,
    gen_er,
    gen_model_graph,
    gen_object_rings_binomial,
    gen_object_rings_uniform,
    graph_from_rings,
    trial_rng,
)
from iglab.graph import (
    GraphTopology,
    component_labels,
    connected_components,
    degree_histogram,
    dump_edge_list,
    intersect_graphs,
    keys_seen_at_least,
    load_edge_list,
    min_degree,
)
from iglab.theory import ModelParams


def complete(n):
    return GraphTopology(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


# The constructor takes any iterable of pairs or an (E, 2) array.
edge_forms = pytest.mark.parametrize("form", [list, np.array], ids=["tuples", "ndarray"])


@edge_forms
def test_construction_normalizes_and_deduplicates(form):
    g = GraphTopology(4, form([(1, 0), (0, 1), (2, 3), (3, 2), (2, 3)]))
    assert g.edges == {(0, 1), (2, 3)}
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert g.neighbors(0) == {1}
    other = GraphTopology(4, [(0, 1), (2, 3)])
    assert g == other and hash(g) == hash(other)
    assert GraphTopology(4, np.array([(1, 0), (2, 3)], dtype=np.int32)) == other


@edge_forms
def test_construction_rejects_bad_edges(form):
    # self-loop, out of range on either side, and fractional ids, which
    # must not be truncated to integers
    for edges in ([(0, 0)], [(0, 3)], [(0, -1)], [(0.7, 1.2), (1.9, 2.0)], [(0.5, 2)]):
        with pytest.raises(InvalidParameterError):
            GraphTopology(3, form(edges))


def test_node_queries_reject_out_of_range_ids():
    path = GraphTopology(3, [(0, 1), (1, 2)])
    for node in (-1, 3):
        with pytest.raises(InvalidParameterError):
            path.degree(node)
        with pytest.raises(InvalidParameterError):
            path.neighbors(node)
        assert not path.has_edge(node, 1) and not path.has_edge(1, node)


def test_construction_memory_per_edge():
    """Bytes per edge that the constructor keeps and peaks at on a d = 1 ring
    set (n = 2000, K = 20, P = 400: about 1.3e6 edges), read by tracemalloc,
    which sees every numpy allocation. The input array is made before tracing.

    Held: the (E, 2) int64 pairs, 16 B/edge; the CSR is not built. The
    bound of 17 leaves room for nothing more, so a CSR built eagerly or any
    second stored copy of the edges (at least 8 B/edge more) fails it.
    Peak: the keys i * n + j (8 B/edge) are sorted in place and their
    distinct values gathered (8 more, plus a 1 B run mask); the keys with
    repeats are freed before the distinct ones are split into the pairs, so
    at most 24-25 B/edge are alive at once. The bound of 40 allows that and
    fails a build that sorts both directions' keys (32 or more) next to the
    pairs it returns.
    """
    g = graph_from_rings(gen_object_rings_uniform(2000, 20, 400, trial_rng(0, 0)), 1)
    pairs, edges = g.pairs, g.edge_count()
    assert edges > 10**6
    tracemalloc.start()
    try:
        rebuilt = GraphTopology(g.n, pairs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rebuilt == g
    assert held / edges <= 17, f"held {held / edges:.1f} B/edge"
    assert peak / edges <= 40, f"peak {peak / edges:.1f} B/edge"


def test_d1_overlap_graph_memory_per_edge():
    """graph_from_rings keeps the sorted pairs it splits from the overlap
    keys as the graph, with no second build. On the ring set above it holds
    16 B/edge and peaks near 20 (the split pairs next to the int32 keys);
    a build that also sorted the edges again, as GraphTopology's checked
    constructor does, peaked at 51."""
    assign = gen_object_rings_uniform(2000, 20, 400, trial_rng(0, 0))
    tracemalloc.start()
    try:
        g = graph_from_rings(assign, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = g.edge_count()
    assert edges > 10**6
    assert held / edges <= 17, f"held {held / edges:.1f} B/edge"
    assert peak / edges <= 24, f"peak {peak / edges:.1f} B/edge"


def _ragged_rings(n, P, seed):
    return gen_object_rings_binomial(n, 0.08, P, trial_rng(seed, 0))


# Every producer that skips the constructor's checks, by name.
_PRODUCERS = {
    "model-thinned": lambda: gen_model_graph(
        ModelParams(n=200, K=12, P=300, d=2, f=1.0, g=0.6), trial_rng(3, 0)),
    "model-p1": lambda: gen_model_graph(
        ModelParams(n=200, K=12, P=300, d=2, f=1.0, g=1.0), trial_rng(3, 1)),
    "rings-matrix-d1": lambda: graph_from_rings(
        gen_object_rings_uniform(150, 4, 100, trial_rng(3, 2)), 1),
    "rings-matrix-d2": lambda: graph_from_rings(
        gen_object_rings_uniform(150, 12, 100, trial_rng(3, 3)), 2),
    "rings-ragged-d1": lambda: graph_from_rings(_ragged_rings(150, 60, 4), 1),
    "rings-ragged-d2": lambda: graph_from_rings(_ragged_rings(150, 100, 5), 2),
    "er-p0": lambda: gen_er(50, 0.0, trial_rng(3, 6)),
    "er-sparse": lambda: gen_er(300, 0.03, trial_rng(3, 7)),
    "er-p1": lambda: gen_er(40, 1.0, trial_rng(3, 8)),
    "intersect": lambda: intersect_graphs(gen_er(200, 0.3, trial_rng(3, 9)),
                                          gen_er(200, 0.3, trial_rng(3, 10))),
    "remove-nodes": lambda: remove_nodes(gen_er(120, 0.1, trial_rng(3, 11)),
                                         range(0, 120, 7)),
    "coupled-h": lambda: gen_coupled_pair(200, 50, 500, 2, trial_rng(3, 12)).h,
    "coupled-g": lambda: gen_coupled_pair(200, 50, 500, 2, trial_rng(3, 12)).g,
}


@pytest.mark.parametrize("producer", sorted(_PRODUCERS))
def test_internal_producers_return_canonical_pairs(producer):
    g = _PRODUCERS[producer]()
    pairs = g.pairs
    assert pairs.dtype == np.int64 and pairs.shape == (g.edge_count(), 2)
    assert not pairs.flags.writeable
    i, j = pairs.T
    assert (0 <= i).all() and (i < j).all() and (j < g.n).all()
    assert (np.diff(i * g.n + j) > 0).all()
    assert GraphTopology(g.n, pairs) == g
    assert g.edge_count() > 0 or producer == "er-p0"


def test_csr_is_built_only_when_needed(monkeypatch):
    calls = []
    build = graph._csr

    def counted(n, pairs):
        calls.append(n)
        return build(n, pairs)

    monkeypatch.setattr(graph, "_csr", counted)
    params = ModelParams(n=300, K=38, P=4000, d=2, f=1.0, g=1.0)
    g = gen_model_graph(params, trial_rng(2024, 300, 0))
    other = gen_model_graph(params, trial_rng(2024, 300, 1))
    assert is_k_connected(g, 1)
    assert min_degree(g) >= 3  # so k = 3 reaches Even's test
    degree_histogram(g)
    connected_components(g)
    intersect_graphs(g, other)
    dump_edge_list(g)
    run_resilience_trials(ExperimentConfig(params, 0, 3, 1), workers=1)
    assert calls == []
    for _ in range(2):
        is_k_connected(g, 3)
    vertex_connectivity(g)
    assert calls == [300]
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable


def test_intersect_trivial_cases():
    tri = GraphTopology(3, [(0, 1), (1, 2), (2, 0)])
    path = GraphTopology(3, [(0, 1), (1, 2)])
    assert intersect_graphs(tri, tri) == tri
    assert intersect_graphs(tri, GraphTopology(3)).edges == frozenset()
    assert intersect_graphs(tri, path).edges == {(0, 1), (1, 2)}


def test_intersect_rejects_mismatched_sizes():
    with pytest.raises(InvalidParameterError):
        intersect_graphs(GraphTopology(3), GraphTopology(4))


def test_min_degree_examples():
    assert min_degree(complete(4)) == 3
    assert min_degree(GraphTopology(3, [(0, 1)])) == 0  # node 2 isolated
    assert min_degree(GraphTopology(3, [(0, 1), (1, 2)])) == 1


def test_degree_histogram_examples():
    assert degree_histogram(GraphTopology(5)) == {0: 5}
    assert degree_histogram(complete(4)) == {3: 4}
    star = GraphTopology(5, [(0, i) for i in range(1, 5)])
    assert degree_histogram(star) == {4: 1, 1: 4}


def test_connected_components_examples():
    assert connected_components(GraphTopology(3)) == [{0}, {1}, {2}]
    assert connected_components(complete(4)) == [{0, 1, 2, 3}]
    blocks = connected_components(GraphTopology(4, [(0, 1), (2, 3)]))
    assert sorted(map(sorted, blocks)) == [[0, 1], [2, 3]]


def test_edge_list_round_trip():
    g = GraphTopology(5, [(0, 4), (1, 2)])
    assert load_edge_list(dump_edge_list(g)) == g
    assert dump_edge_list(g).splitlines()[0] == "n=5"


@pytest.mark.parametrize("text", ["", "0 1\n", "n=abc\n", "n=3\n0 1 2\n", "n=3\n0 x\n"],
                         ids=["empty", "no-header", "bad-count", "three-fields", "bad-node"])
def test_edge_list_rejects_malformed_text(text):
    with pytest.raises(InvalidParameterError):
        load_edge_list(text)


# Key multisets: empty, shorter than d, all equal, and random draws with
# many repeats.
key_sets = [np.empty(0, np.int64), np.array([5]), np.array([7, 7]), np.full(9, 3),
            np.array([4, 1, 4, 2, 1, 4]),
            *(np.random.default_rng(s).integers(0, hi, size) for s, (hi, size) in
              enumerate([(3, 5), (10, 40), (50, 200), (1000, 3000), (1 << 40, 500)]))]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("keys", key_sets, ids=range(len(key_sets)))
def test_keys_seen_at_least_matches_unique_counts(keys, d):
    values, counts = np.unique(keys, return_counts=True)
    got = keys_seen_at_least(keys.copy(), d)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, values[counts >= d])


edge_sets = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=12,
        ),
    )
)


@settings(max_examples=80)
@given(edge_sets, edge_sets)
def test_intersection_properties(a, b):
    na, ea = a
    nb, eb = b
    n = max(na, nb)
    g1 = GraphTopology(n, ea)
    g2 = GraphTopology(n, eb)
    assert intersect_graphs(g1, g1) == g1  # idempotence
    assert intersect_graphs(g1, g2) == intersect_graphs(g2, g1)  # commutativity
    assert intersect_graphs(g1, g2).edges == g1.edges & g2.edges


@settings(max_examples=80)
@given(edge_sets, st.randoms(use_true_random=False))
def test_one_graph_per_edge_set(a, rnd):
    n, edges = a
    norm = {(min(e), max(e)) for e in edges}
    g = GraphTopology(n, edges)
    assert g.edges == norm
    # shuffled, each pair in either direction, every pair twice
    noisy = [e[::-1] if rnd.random() < 0.5 else e for e in [*edges, *edges]]
    rnd.shuffle(noisy)
    h = GraphTopology(n, noisy)
    assert h == g and hash(h) == hash(g)
    assert GraphTopology(n, g.pairs) == g
    # degree and has_edge read the CSR row; both must agree with `edges`,
    # and has_edge must answer False, as a bool, for ids out of range
    kept = g.edges
    for v in range(n):
        nbrs = {u for e in kept if v in e for u in e if u != v}
        assert g.neighbors(v) == nbrs and g.degree(v) == len(nbrs)
        answers = [g.has_edge(v, u) for u in range(-1, n + 1)]
        assert all(type(answer) is bool for answer in answers)
        assert answers == [(min(u, v), max(u, v)) in kept for u in range(-1, n + 1)]


@settings(max_examples=80)
@given(edge_sets)
def test_degree_accounting(a):
    n, edges = a
    g = GraphTopology(n, edges)
    hist = degree_histogram(g)
    assert sum(hist.values()) == n
    assert sum(h * c for h, c in hist.items()) == 2 * len(g.edges)
    assert min_degree(g) <= 2 * len(g.edges) / n


# -- components against networkx and scipy.sparse.csgraph -------------------

def assert_components_match_references(g):
    nx = pytest.importorskip("networkx")
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components as csgraph_components

    count, labels = component_labels(g)
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.pairs.tolist())
    assert connected_components(g) == sorted(nx.connected_components(ref), key=min)
    adj = csr_array((np.ones(g.indices.size, dtype=np.int8), g.indices, g.indptr),
                    shape=(g.n, g.n))
    ref_count, ref_labels = csgraph_components(adj, directed=False)
    assert count == ref_count and labels.tolist() == ref_labels.tolist()


# Up to n edges on n nodes: many components, isolated nodes, n = 0 and 1.
sparse_graphs = st.integers(0, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
            lambda e: (e[0], e[1] + (e[1] >= e[0]))), max_size=n) if n > 1 else st.just([]),
    )
)


@settings(max_examples=150, deadline=None)  # the first call imports the references
@given(sparse_graphs)
@example((0, []))
@example((1, []))
def test_components_match_references_on_sparse_graphs(a):
    assert_components_match_references(GraphTopology(*a))


def test_components_match_references_on_model_and_er_graphs():
    for seed in range(6):
        rng = trial_rng(31, seed)
        for g_prob in (0.3, 0.6, 1.0):
            params = ModelParams(n=300, K=20, P=2000, d=2, f=1.0, g=g_prob)
            assert_components_match_references(gen_model_graph(params, rng))
        for c in (0.5, 1.0, 3.0):
            assert_components_match_references(gen_er(400, c * np.log(400) / 400, rng))


@pytest.mark.parametrize("shape", ["path", "star"])
def test_components_of_large_shuffled_path_and_star_are_fast(shape):
    # Rounds of plain label propagation grow with the diameter: on a 2-CPU
    # host this path took it 3 s, against 4-6 ms for hooking with pointer
    # jumps, so the bound is generous for the one and fails the other even
    # on a host a few times faster.
    n = 20_000
    order = np.random.default_rng(3).permutation(n)
    if shape == "path":
        ends = np.stack((order[:-1], order[1:]), axis=1)
    else:
        ends = np.stack((np.full(n - 1, order[0]), order[1:]), axis=1)
    g = GraphTopology(n, ends)
    start = time.perf_counter()
    count, labels = component_labels(g)
    assert time.perf_counter() - start < 0.5
    assert count == 1 and not labels.any()
