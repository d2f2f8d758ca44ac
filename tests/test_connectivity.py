import random
import time
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iglab import connectivity
from iglab.connectivity import (
    assess_resilience,
    brute_force_k_connected,
    is_connected,
    is_k_connected,
    min_degree_at_least,
    remove_nodes,
    survives_node_failures,
    vertex_connectivity,
)
from iglab.errors import OracleRefusedError
from iglab.generators import (
    gen_er,
    gen_model_graph,
    gen_object_rings_uniform,
    graph_from_rings,
    trial_rng,
)
from iglab.graph import GraphTopology, min_degree
from iglab.theory import ModelParams


def complete(n):
    return GraphTopology(n, combinations(range(n), 2))


def cycle(n):
    return GraphTopology(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return GraphTopology(n, [(0, i) for i in range(1, n)])


def path(n):
    return GraphTopology(n, [(i, i + 1) for i in range(n - 1)])


def disjoint(a, b):
    return GraphTopology(a.n + b.n, [*a.edges, *((x + a.n, y + a.n) for x, y in b.edges)])


def petersen():
    return GraphTopology(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def cube():
    return GraphTopology(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b])


def complete_bipartite(a, b):
    return GraphTopology(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_small_graphs(count, seed, n_lo=2, n_hi=10):
    """Mix of ER and d-overlap samples at assorted densities."""
    out = []
    rnd = random.Random(seed)
    i = 0
    while len(out) < count:
        n = rnd.randint(n_lo, n_hi)
        rng = trial_rng(seed, i)
        if i % 2 == 0:
            out.append(gen_er(n, rnd.choice([0.15, 0.3, 0.5, 0.7, 0.9]), rng))
        else:
            P = rnd.randint(3, 12)
            K = rnd.randint(1, P)
            d = rnd.randint(1, K)
            out.append(graph_from_rings(gen_object_rings_uniform(n, K, P, rng), d))
        i += 1
    return out


def test_is_connected_examples():
    assert is_connected(GraphTopology(1))
    assert not is_connected(GraphTopology(2))
    assert is_connected(path(5))


def test_is_k_connected_examples():
    for k in range(1, 5):
        assert is_k_connected(complete(k + 1), k)
    assert is_k_connected(cycle(5), 2)
    assert not is_k_connected(cycle(5), 3)
    assert not is_k_connected(star(5), 2)


def test_k4_minus_edge():
    g = GraphTopology(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 - (2,3)
    assert is_k_connected(g, 2)
    assert not is_k_connected(g, 3)
    assert brute_force_k_connected(g, 2)
    assert not brute_force_k_connected(g, 3)


def test_degenerate_sizes():
    # n <= k is never k-connected; the single node is still connected
    assert not is_k_connected(GraphTopology(1), 1)
    assert not is_k_connected(complete(3), 3)
    assert is_k_connected(complete(3), 2)


def test_brute_force_examples():
    assert brute_force_k_connected(path(4), 1) == is_connected(path(4))
    assert not brute_force_k_connected(star(5), 2)
    with pytest.raises(OracleRefusedError):
        brute_force_k_connected(GraphTopology(17), 1)


def test_oracle_agreement_on_random_graphs():
    for g in random_small_graphs(60, seed=123):
        for k in range(1, g.n + 1):
            assert is_k_connected(g, k) == brute_force_k_connected(g, k), (
                f"disagreement at n={g.n}, k={k}, edges={sorted(g.edges)}"
            )


def test_vertex_connectivity_known_values():
    assert vertex_connectivity(complete(6)) == 5
    assert vertex_connectivity(cycle(7)) == 2
    assert vertex_connectivity(star(6)) == 1
    assert vertex_connectivity(GraphTopology(4, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(GraphTopology(1)) == 0


def test_vertex_connectivity_matches_threshold_checks():
    for g in random_small_graphs(40, seed=77):
        kappa = vertex_connectivity(g)
        assert kappa <= min_degree(g)
        assert kappa <= g.n - 1
        if kappa >= 1:
            assert is_k_connected(g, kappa)
        if kappa < g.n - 1:
            assert not is_k_connected(g, kappa + 1)


def test_monotone_in_k():
    for g in random_small_graphs(20, seed=5):
        flags = [is_k_connected(g, k) for k in range(1, g.n + 1)]
        # once false, stays false
        seen_false = False
        for fl in flags:
            if seen_false:
                assert not fl
            seen_false = seen_false or not fl


def test_edge_deletion_never_increases_connectivity():
    for g in random_small_graphs(15, seed=9):
        kappa = vertex_connectivity(g)
        for e in list(g.edges)[:4]:
            g2 = GraphTopology(g.n, g.edges - {e})
            assert vertex_connectivity(g2) <= kappa


def test_survives_node_failures():
    assert survives_node_failures(complete(5), 3)
    assert not survives_node_failures(star(5), 1)
    for g in random_small_graphs(20, seed=31, n_lo=2, n_hi=8):
        assert survives_node_failures(g, 0) == is_connected(g) or g.n == 1


def test_survival_spot_check_with_random_removals():
    rng = trial_rng(99, 0)
    g = gen_er(200, 0.08, rng)
    m = 2
    verdict = survives_node_failures(g, m)
    rnd = random.Random(4)
    for _ in range(200):
        victims = rnd.sample(range(g.n), m)
        residual_ok = is_connected(remove_nodes(g, victims))
        if verdict:
            assert residual_ok  # necessary direction of the equivalence
        if not residual_ok:
            assert not verdict


def test_remove_nodes():
    tri = GraphTopology(3, [(0, 1), (1, 2), (2, 0)])
    assert remove_nodes(tri, set()) == tri
    assert remove_nodes(tri, {0, 1, 2}).n == 0
    g = remove_nodes(tri, {1})
    assert g.n == 2 and g.edges == {(0, 1)}
    # order-preserving relabel
    g2 = remove_nodes(GraphTopology(4, [(0, 3)]), {1})
    assert g2.edges == {(0, 2)}


def test_min_degree_at_least():
    assert min_degree_at_least(GraphTopology(3), 0)
    assert not min_degree_at_least(path(4), 2)
    for g in random_small_graphs(20, seed=55):
        for k in range(1, g.n + 1):
            if is_k_connected(g, k):
                assert min_degree_at_least(g, k)


def test_vertex_connectivity_builds_the_adjacency_once(monkeypatch):
    calls = []
    adjacency = connectivity._adjacency

    def counted(indptr, indices):
        calls.append(indptr.size - 1)
        return adjacency(indptr, indices)

    monkeypatch.setattr(connectivity, "_adjacency", counted)
    square_of_cycle = GraphTopology(12, [(i, (i + s) % 12) for i in range(12) for s in (1, 2)])
    assert vertex_connectivity(square_of_cycle) == 4
    assert vertex_connectivity(complete(7)) == 6
    assert calls == [12, 7]


@pytest.mark.parametrize("k, g", [(2, disjoint(cycle(5), cycle(6))),
                                  (3, disjoint(complete(5), complete(5))),
                                  (4, disjoint(complete(6), complete(6)))])
def test_disconnected_graph_that_passes_the_min_degree_filter(k, g):
    # no components pass runs for k >= 2: the decider itself must fail it
    assert min_degree(g) >= k
    assert not is_k_connected(g, k)
    assert not brute_force_k_connected(g, k)
    assert vertex_connectivity(g) == 0


@pytest.mark.parametrize("g, kappa", [(petersen(), 3), (cube(), 3),
                                      (complete_bipartite(4, 4), 4)])
def test_k_connected_graphs_without_a_k_plus_one_clique(g, kappa):
    # triangle-free, so Even's test starts from an edge and pair searches
    assert vertex_connectivity(g) == kappa
    for k in range(1, g.n + 1):
        assert is_k_connected(g, k) == brute_force_k_connected(g, k) == (k <= kappa)


def test_clique_search_is_bounded_on_a_dense_graph_without_one():
    # the complete 5-partite graph on 5 x 40 nodes has kappa = 160 and no K6,
    # so a clique search that backtracks would try some of its 40^5 K5s
    part = np.arange(200) // 40
    i, j = np.triu_indices(200, 1)
    cross = part[i] != part[j]
    g = GraphTopology(200, np.stack((i[cross], j[cross]), axis=1))
    assert g.edge_count() == 16_000
    start = time.perf_counter()
    assert is_k_connected(g, 5)
    assert time.perf_counter() - start < 0.5


def test_assess_resilience():
    v = assess_resilience(cycle(5), 2)
    assert v.connected and v.min_degree == 2 and v.k_connected_up_to == 2
    assert v.is_k_connected
    assert assess_resilience(complete(4), 3).k_connected_up_to == 3


# -- differential check against networkx above the brute-force cap ----------

def _networkx_kappa(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.node_connectivity(G)


def _assert_matches_networkx(g):
    kappa = _networkx_kappa(g)
    label = f"n={g.n}, edges={len(g.edges)}, networkx kappa={kappa}"
    assert vertex_connectivity(g) == kappa, label
    for k in (2, 3, 4, 5):
        assert is_k_connected(g, k) == (kappa >= k), f"k={k}, {label}"
    return kappa


def _glued(a, b, width):
    """a and b side by side, joined by `width` disjoint edges (i, a.n + i)."""
    return GraphTopology(a.n + b.n, [*disjoint(a, b).edges, *((i, a.n + i) for i in range(width))])


def test_connectivity_matches_networkx_on_model_and_er_graphs():
    # model points (n, K, P) at d = 2, g = 1 and the ER graphs have mean
    # degrees 6-15 and kappa from 1 to 6, on both sides of k = 3 and 4
    model_points = ((30, 8, 60), (60, 9, 110), (120, 11, 220), (300, 38, 4000))
    graphs = [gen_model_graph(ModelParams(n=n, K=K, P=P, d=2, f=1.0, g=1.0),
                              trial_rng(2024, n, i))
              for n, K, P in model_points for i in range(3 if n < 300 else 2)]
    graphs += [gen_er(n, p, trial_rng(2025, n)) for n, p in
               ((40, 0.2), (80, 0.08), (150, 0.05), (200, 0.04))]
    kappas = [_assert_matches_networkx(g) for g in graphs]
    assert min(kappas) < 3 and max(kappas) >= 4


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_connectivity_matches_networkx_on_glued_graphs(k):
    params = ModelParams(n=40, K=8, P=60, d=2, f=1.0, g=1.0)
    draws = (gen_model_graph(params, trial_rng(2026, k, j)) for j in range(60))
    a, b = islice((g for g in draws if min_degree(g) >= k), 2)
    # both pass the min-degree filter, so both need the full flow decision
    cut = _glued(a, b, k - 1)  # the k - 1 ends in a separate it: a known "no"
    joined = _glued(a, b, k)
    assert min_degree(cut) >= k and min_degree(joined) >= k
    assert _assert_matches_networkx(cut) < k
    assert _assert_matches_networkx(joined) >= k


# -- Even's test: cases where a wrong order, source arc or skip rule fails ---

def test_even_regression_graph_with_min_degree_three_and_kappa_two():
    g = GraphTopology(9, [(0, 1), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4),
                          (2, 3), (2, 7), (3, 7), (4, 5), (4, 7), (4, 8), (5, 6),
                          (5, 7), (6, 7), (6, 8), (7, 8)])
    assert min_degree(g) == 3
    assert not is_k_connected(g, 3)
    assert not brute_force_k_connected(g, 3)
    assert vertex_connectivity(g) == 2


def test_path_search_reroutes_earlier_paths():
    # the first search takes 0-2-3-4, but 1 reaches 4 only through 3: the
    # second must move 0 to 0-5-6-4, backing out over 3, 2 and 2's unit arc
    g = GraphTopology(9, [(0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 4),
                          (1, 7), (7, 8), (8, 3)])
    adj = [sorted(g.neighbors(u)) for u in range(g.n)]
    assert connectivity._has_k_paths(adj, 2, 4, {0, 1})
    assert not connectivity._has_k_paths(adj, 2, 4, {7, 8})  # both need 3


# -- a stall with k - 1 placed neighbours: one breadth-first search ----------

@st.composite
def stalls(draw):
    """(n, edges, k, v, placed): a random graph on n <= 16 nodes and a placed
    set of k - 1 neighbours of v plus, where there are any, one or more
    nodes not adjacent to v."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 1, 16))
    density = draw(st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.8]))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, x in zip(pairs, mask) if x < density}
    v = draw(st.integers(0, n - 1))
    others = [u for u in range(n) if u != v]
    near = draw(st.lists(st.sampled_from(others), min_size=k - 1, max_size=k - 1, unique=True))
    edges |= {(min(u, v), max(u, v)) for u in near}
    far = [u for u in others if u not in near and (min(u, v), max(u, v)) not in edges]
    placed = set(near) | draw(st.sets(st.sampled_from(far), min_size=1)) if far else set(near)
    return n, sorted(edges), k, v, placed


@settings(max_examples=400, deadline=None)
@given(stalls())
def test_stall_search_matches_the_flow_search(case):
    # every unplaced node with exactly k - 1 placed neighbours, v among them
    n, edges, k, v, placed = case
    g = GraphTopology(n, edges)
    adj = connectivity._adjacency(g.indptr, g.indices)
    stalled = [u for u in range(n)
               if u not in placed and len(placed.intersection(adj[u])) == k - 1]
    assert v in stalled
    for u in stalled:
        assert (connectivity._has_kth_path(adj, u, placed)
                == connectivity._has_k_paths(adj, k, u, placed)), (u, placed)


def test_stall_search_ignores_routes_back_to_the_placed_neighbours():
    # k = 3: node 0 has placed neighbours 1 and 2, and every route from 0
    # through unplaced nodes (4, 5) ends at 1 or 2; placed 3 is reachable
    # only through them, so there is no third path
    edges = [(0, 1), (0, 2), (0, 4), (1, 4), (2, 5), (4, 5), (1, 3), (2, 3)]
    g = GraphTopology(6, edges)
    adj = connectivity._adjacency(g.indptr, g.indices)
    placed = {1, 2, 3}
    assert not connectivity._has_kth_path(adj, 0, placed)
    assert not connectivity._has_k_paths(adj, 3, 0, placed)
    # an edge from 5 to 3 gives the third path
    g = GraphTopology(6, edges + [(3, 5)])
    adj = connectivity._adjacency(g.indptr, g.indices)
    assert connectivity._has_kth_path(adj, 0, placed)
    assert connectivity._has_k_paths(adj, 3, 0, placed)


# -- the trial entry, on a sampled edge array, against the graph entry -------

@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 16))
    pairs = list(combinations(range(n), 2))
    density = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]))
    mask = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return GraphTopology(n, [e for e, x in zip(pairs, mask) if x < density])


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_decision_matches_brute_force_on_hypothesis_graphs(g):
    for k in range(1, 5):
        assert is_k_connected(g, k) == brute_force_k_connected(g, k), k


def _separated_parts(k, seed):
    """Two random (k+2)-regular parts of 12 nodes joined only through k - 1
    separator nodes, each with 3 neighbours on either side; one far-side node
    is adjacent to the whole separator. Node labels are shuffled."""
    nx = pytest.importorskip("networkx")
    rnd = random.Random(seed)
    near = nx.random_regular_graph(k + 2, 12, seed=rnd.randrange(2 ** 31))
    far = nx.random_regular_graph(k + 2, 12, seed=rnd.randrange(2 ** 31))
    edges = [*near.edges, *((x + 12, y + 12) for x, y in far.edges)]
    hub = rnd.randrange(12, 24)
    for s in range(24, 23 + k):
        others = [x for x in range(12, 24) if x != hub]
        edges += [(s, x) for x in rnd.sample(range(12), 3) + rnd.sample(others, 2) + [hub]]
    label = list(range(23 + k))
    rnd.shuffle(label)
    return GraphTopology(23 + k, [(label[x], label[y]) for x, y in edges])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_separator_family_matches_networkx(k):
    for seed in range(12):
        g = _separated_parts(k, seed)
        assert min_degree(g) >= k
        assert _assert_matches_networkx(g) == k - 1
