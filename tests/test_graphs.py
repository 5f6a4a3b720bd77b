import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import lapeq.graphs
from lapeq.graphs import (
    Graph,
    average_degree,
    classify,
    connected_components,
    cycle,
    format_dot,
    format_edge_list,
    laplacian,
    load_graph,
    parse_edge_list,
    path,
    save_graph,
    star,
    unique_cycle_length,
)


def test_graph_normalizes_edges():
    g = Graph(4, [(3, 1), (1, 3), (2, 4)])
    assert g.edges == ((1, 3), (2, 4))
    assert g.num_edges == 2


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        Graph(0)


def test_graph_is_immutable_value():
    g = Graph(3, [(1, 2)])
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == Graph(3, [(2, 1)])
    assert hash(g) == hash(Graph(3, [(1, 2)]))


def test_neighbors_degrees():
    g = star(4)
    assert g.neighbors(1) == (2, 3, 4)
    assert g.neighbors(3) == (1,)
    assert g.degrees() == (3, 1, 1, 1)
    assert g.degree(1) == 3
    assert g.has_edge(4, 1) and not g.has_edge(2, 3)
    with pytest.raises(ValueError):
        g.neighbors(9)


def test_add_edges_is_pure():
    g = path(3)
    g2 = g.add_edges([(1, 3)])
    assert g2.edges == ((1, 2), (1, 3), (2, 3))
    assert g.edges == ((1, 2), (2, 3))


def test_relabel():
    g = path(3)
    swapped = g.relabel({1: 3, 2: 2, 3: 1})
    assert swapped.edges == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        g.relabel({1: 1, 2: 2, 3: 5})


def test_builders():
    assert path(1).num_edges == 0
    assert path(4).edges == ((1, 2), (2, 3), (3, 4))
    assert cycle(3).edges == ((1, 2), (1, 3), (2, 3))
    assert star(5).degrees() == (4, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        cycle(2)


def test_laplacian_path3_matches_reference_matrix():
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    assert np.array_equal(laplacian(path(3)), expected)


def test_laplacian_cycle3_and_single_vertex():
    expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
    assert np.array_equal(laplacian(cycle(3)), expected)
    assert np.array_equal(laplacian(Graph(1)), np.zeros((1, 1)))


@pytest.mark.parametrize("g", [path(7), cycle(6), star(5), Graph(4, [(1, 2), (3, 4)])])
def test_laplacian_row_sums_and_trace(g):
    m = laplacian(g)
    assert np.array_equal(m, m.T)
    assert np.array_equal(m.sum(axis=1), np.zeros(g.n))
    assert m.trace() == 2 * g.num_edges


def test_average_degree_exact():
    assert average_degree(path(2)) == 1
    for n in (2, 5, 12):
        assert average_degree(path(n)) == Fraction(2 * n - 2, n) == 2 - Fraction(2, n)
    assert average_degree(cycle(9)) == 2
    assert isinstance(average_degree(star(4)), Fraction)


def test_classify():
    assert classify(path(4)) == "tree"
    assert classify(Graph(1)) == "tree"
    assert classify(cycle(5)) == "unicyclic"
    assert classify(Graph(4, [(1, 2), (3, 4)])) == "forest"
    assert classify(Graph(3)) == "forest"
    assert classify(Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])) == "other"
    # disconnected with a cycle is neither forest nor unicyclic
    assert classify(Graph(5, [(1, 2), (1, 3), (2, 3)])) == "other"


def test_connectivity():
    parts = connected_components(Graph(5, [(1, 2), (4, 5)]))
    assert sorted(sorted(p) for p in parts) == [[1, 2], [3], [4, 5]]


def test_unique_cycle_length():
    assert unique_cycle_length(cycle(7)) == 7
    tadpole = Graph(6, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6)])
    assert unique_cycle_length(tadpole) == 4
    with pytest.raises(ValueError):
        unique_cycle_length(path(4))


def test_edge_list_round_trip():
    g = Graph(5, [(1, 2), (2, 5), (3, 4)])
    text = format_edge_list(g)
    assert text == "5\n1 2\n2 5\n3 4\n"
    assert parse_edge_list(text) == g


def test_parse_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("not-a-number\n1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n1 2 3\n")


def test_save_load(tmp_path):
    g = cycle(6)
    target = tmp_path / "c6.edges"
    save_graph(g, str(target))
    assert load_graph(str(target)) == g


def test_dot_format():
    assert format_dot(path(2)) == "graph {\n  1;\n  2;\n  1 -- 2;\n}\n"


edge_lists = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda e: e[0] != e[1]),
    max_size=20,
)


@given(edges=edge_lists)
def test_graph_edge_invariants(edges):
    g = Graph(9, edges)
    assert all(u < v for u, v in g.edges)
    assert len(set(g.edges)) == len(g.edges)
    assert list(g.edges) == sorted(g.edges)
    assert laplacian(g).trace() == 2 * g.num_edges
    assert sum(g.degrees()) == 2 * g.num_edges

    # every adjacency query against a reference built here from the edge list
    pairs = {frozenset(e) for e in edges}
    ref = np.zeros((9, 9))
    for v in range(1, 10):
        nbrs = tuple(sorted(w for w in range(1, 10) if frozenset((v, w)) in pairs))
        assert g.neighbors(v) == nbrs
        assert g.degree(v) == g.degrees()[v - 1] == len(nbrs)
        ref[v - 1, v - 1] = len(nbrs)
        for w in range(1, 10):
            if w != v:
                assert g.has_edge(v, w) == (frozenset((v, w)) in pairs)
                ref[v - 1, w - 1] = -float(w in nbrs)
    assert np.array_equal(laplacian(g), ref)
    assert not g.has_edge(1, 10) and not g.has_edge(0, 1)

    # components against a union-find over the same edge list
    root = list(range(10))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    parts = connected_components(g)
    assert sorted(map(sorted, parts)) == sorted(
        sorted(w for w in range(1, 10) if find(w) == r) for r in {find(v) for v in range(1, 10)}
    )

    # the cached adjacency is built once and cannot be changed through the graph
    assert g.adjacency is g.adjacency
    with pytest.raises(TypeError):
        g.adjacency[1] = ()
    with pytest.raises(AttributeError):
        g.adjacency = ()
    assert g == Graph(9, edges) and hash(g) == hash(Graph(9, edges))


def test_order_cap_checked_before_edges_are_read(monkeypatch):
    monkeypatch.setattr(lapeq.graphs, "MAX_ORDER", 5)
    assert parse_edge_list("5\n1 2\n") == Graph(5, [(1, 2)])
    with pytest.raises(ValueError, match="exceeds the limit of 5"):
        parse_edge_list("6\n1 2 3\n")  # the malformed edge line is never reached
