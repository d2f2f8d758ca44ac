import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iglab.errors import InvalidParameterError
from iglab.graph import (
    GraphTopology,
    connected_components,
    degree_histogram,
    dump_edge_list,
    intersect_graphs,
    keys_seen_at_least,
    load_edge_list,
    min_degree,
)


def complete(n):
    return GraphTopology(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


# The constructor takes any iterable of pairs or an (E, 2) array.
edge_forms = pytest.mark.parametrize(
    "form", [list, lambda edges: np.array(edges, dtype=np.int64)], ids=["tuples", "ndarray"]
)


@edge_forms
def test_construction_normalizes_and_deduplicates(form):
    g = GraphTopology(4, form([(1, 0), (0, 1), (2, 3), (3, 2), (2, 3)]))
    assert g.edges == {(0, 1), (2, 3)}
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert g.neighbors(0) == {1}
    other = GraphTopology(4, [(0, 1), (2, 3)])
    assert g == other and hash(g) == hash(other)


@edge_forms
def test_construction_rejects_bad_edges(form):
    with pytest.raises(InvalidParameterError):
        GraphTopology(3, form([(0, 0)]))
    with pytest.raises(InvalidParameterError):
        GraphTopology(3, form([(0, 3)]))
    with pytest.raises(InvalidParameterError):
        GraphTopology(3, form([(0, -1)]))


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
    got = keys_seen_at_least(keys, d)
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
@given(edge_sets)
def test_degree_accounting(a):
    n, edges = a
    g = GraphTopology(n, edges)
    hist = degree_histogram(g)
    assert sum(hist.values()) == n
    assert sum(h * c for h, c in hist.items()) == 2 * len(g.edges)
    assert min_degree(g) <= 2 * len(g.edges) / n
