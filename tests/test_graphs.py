import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, strategies as st

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
    assert sorted(map(sorted, connected_components(g))) == sorted(union_find(9, edges)[0])

    # the cached adjacency is built once and cannot be changed through the graph
    assert g.adjacency is g.adjacency
    with pytest.raises(TypeError):
        g.adjacency[1] = ()
    with pytest.raises(AttributeError):
        g.adjacency = ()
    assert g == Graph(9, edges) and hash(g) == hash(Graph(9, edges))


def union_find(n, edges):
    """Oracle: the vertex classes of a union-find over the edges, each a sorted
    list, and how many edges closed a cycle (joined two vertices already in
    one class; a repeated edge counts too)."""
    root = list(range(n + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    closing = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        closing += ru == rv
        root[ru] = rv
    classes: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        classes.setdefault(find(v), []).append(v)
    return list(classes.values()), closing


@st.composite
def forest_plus_edges(draw):
    """A relabelled random forest, or tree, plus up to three more edges: the
    draws cover forests, trees, one-cycle graphs and graphs with several
    cycles, connected or not."""
    n = draw(st.integers(1, 12))
    connected = draw(st.booleans())
    edges = []
    for v in range(2, n + 1):
        u = draw(st.integers(1 if connected else 0, v - 1))
        if u:
            edges.append((u, v))
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n - 1))
        edges.append((u, v + (v >= u)))
    labels = draw(st.permutations(range(1, n + 1)))
    return Graph(n, [(labels[u - 1], labels[v - 1]) for u, v in edges])


@given(g=forest_plus_edges())
def test_structure_queries_match_union_find(g):
    parts, closing = union_find(g.n, g.edges)
    # one list per component, ordered by least vertex
    assert [sorted(p) for p in connected_components(g)] == sorted(parts)
    if not closing:
        expected = "tree" if len(parts) == 1 else "forest"
    else:
        expected = "unicyclic" if closing == 1 and len(parts) == 1 else "other"
    assert classify(g) == expected
    if expected != "unicyclic":
        with pytest.raises(ValueError, match="not unicyclic"):
            unique_cycle_length(g)


@given(data=st.data(), n=st.integers(3, 16))
def test_cycle_length_is_tree_distance_plus_one(data, n):
    # a random tree, each vertex hanging from an earlier one, relabelled
    labels = data.draw(st.permutations(range(1, n + 1)))
    tree = [(labels[data.draw(st.integers(0, v - 2))], labels[v - 1]) for v in range(2, n + 1)]
    nbrs = {w: [] for w in range(1, n + 1)}
    for a, b in tree:
        nbrs[a].append(b)
        nbrs[b].append(a)
    u = data.draw(st.integers(1, n))
    dist, queue = {u: 0}, [u]  # breadth-first distances from u in the tree
    for w in queue:
        for x in nbrs[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    far = sorted(w for w in dist if dist[w] >= 2)
    assume(far)
    v = data.draw(st.sampled_from(far))
    g = Graph(n, tree + [(u, v)])
    assert classify(g) == "unicyclic"
    assert unique_cycle_length(g) == dist[v] + 1


def test_order_cap_checked_before_edges_are_read(monkeypatch):
    monkeypatch.setattr(lapeq.graphs, "MAX_ORDER", 5)
    assert parse_edge_list("5\n1 2\n") == Graph(5, [(1, 2)])
    with pytest.raises(ValueError, match="exceeds the limit of 5"):
        parse_edge_list("6\n1 2 3\n")  # the malformed edge line is never reached
