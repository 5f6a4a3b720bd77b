import json

import numpy as np
import pytest

from lapeq.construct import (
    MirrorDecomposition,
    StarlikeSpec,
    build_mirror,
    build_starlike,
    cross_edge,
    family_branches,
    generate_family,
    insert_cross_edges,
    spider,
    starlike_mirror,
    unit_vector,
    write_family,
)
from lapeq.graphs import (
    Graph,
    classify,
    cycle,
    load_graph,
    path,
    unique_cycle_length,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(3, [(1, 2.5)]),
        lambda: Graph(2.5, [(1, 2)]),
        lambda: spider([2.5, 2, 1]),
        lambda: StarlikeSpec([2.9, 2, 1]),
        lambda: cross_edge([2.5, 2.5, 1], 2),
        lambda: build_mirror(path(3), cycle(5), 1, (1, 0.9, 1)),
        lambda: Graph("3"),
        lambda: starlike_mirror(["2", 2, 1], 2),
        lambda: family_branches(3, 3, [2.0, 2]),
    ],
    ids=["edge", "order", "spider", "spec", "cross-edge", "link", "str-order", "str-branch", "filler"],
)
def test_builders_reject_non_integral_numbers(build):
    # int() would truncate each of these, and Graph kept 2.5 as a vertex label
    with pytest.raises(TypeError):
        build()


def test_builders_accept_numpy_ints_and_bools():
    g = Graph(np.int64(3), [(np.int32(1), np.int64(2)), (True, 3)])
    assert g == Graph(3, [(1, 2), (1, 3)])
    assert all(type(x) is int for e in g.edges for x in e) and type(g.n) is int
    assert spider(np.array([2, 2, 1])) == spider([2, 2, True])
    assert build_mirror(path(2), path(1), 1, np.array([1, 0])).link == (1, 0)


def test_unit_vector():
    assert unit_vector(4) == (1, 0, 0, 0)
    assert unit_vector(4, 3) == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        unit_vector(0)
    with pytest.raises(ValueError):
        unit_vector(3, 4)


# --- mirror construction ----------------------------------------------------------


def test_build_mirror_canonical_labels():
    dec = build_mirror(path(2), path(2), root=1, link=(1, 0))
    # copies on 1..2 and 3..4, root relabeled to 5, other host vertex 6
    assert dec.graph.n == 6
    assert dec.graph.edges == (
        (1, 2),
        (1, 5),
        (3, 4),
        (3, 5),
        (5, 6),
    )
    assert dec.k == 2
    assert dec.root == 1  # root keeps its label in the host's own numbering
    assert dec.graph.degree(5) == 3  # assembled root lands on 2k+1


def test_build_mirror_edge_count():
    core, host = path(3), cycle(5)
    for link in [(0, 0, 0), (1, 0, 0), (1, 1, 1)]:
        dec = build_mirror(core, host, root=2, link=link)
        want = host.num_edges + 2 * core.num_edges + 2 * sum(link)
        assert dec.graph.num_edges == want
        assert dec.graph.n == 2 * core.n + host.n


def test_build_mirror_empty_link_disconnects():
    dec = build_mirror(path(2), path(2), root=1, link=(0, 0))
    from lapeq.graphs import connected_components

    assert len(connected_components(dec.graph)) == 3


def test_build_mirror_sixteen_vertex_shape():
    dec = build_mirror(path(5), path(6), root=3, link=unit_vector(5, 5))
    assert dec.graph.n == 16
    assert dec.graph.degree(2 * dec.k + 1) == 4  # two host neighbours + two copies


def test_build_mirror_validates():
    with pytest.raises(ValueError):
        build_mirror(path(2), path(3), root=4, link=(1, 0))
    with pytest.raises(ValueError):
        build_mirror(path(2), path(3), root=1, link=(1, 0, 0))
    with pytest.raises(ValueError):
        build_mirror(path(2), path(3), root=1, link=(1, 2))


def test_mirror_decomposition_post_init():
    with pytest.raises(ValueError):
        MirrorDecomposition(path(2), path(2), root=3, link=(1, 0), graph=path(6))
    with pytest.raises(ValueError):
        MirrorDecomposition(path(2), path(2), root=1, link=(1,), graph=path(6))
    with pytest.raises(ValueError):
        MirrorDecomposition(path(2), path(2), root=1, link=(1, 0), graph=path(7))


def test_insert_cross_edges():
    dec = build_mirror(path(3), cycle(5), root=1, link=(1, 1, 1))
    same = insert_cross_edges(dec, (0, 0, 0))
    assert same == dec.graph
    crossed = insert_cross_edges(dec, (1, 0, 1))
    assert crossed.num_edges == dec.graph.num_edges + 2
    assert crossed.has_edge(1, 4) and crossed.has_edge(3, 6)
    with pytest.raises(ValueError):
        insert_cross_edges(dec, (1, 1))
    with pytest.raises(ValueError):
        insert_cross_edges(dec, (1, 0, 2))


def test_insert_cross_edges_rejects_existing_edge():
    # hand-built decomposition whose assembled graph already holds a cross pair
    dec = MirrorDecomposition(
        core=path(1), host=path(1), root=1, link=(0,), graph=Graph(3, [(1, 2)])
    )
    with pytest.raises(ValueError):
        insert_cross_edges(dec, (1,))


# --- starlike trees ------------------------------------------------------------


def test_starlike_spec_canonical_order():
    spec = StarlikeSpec((2, 2, 4, 4, 6, 6, 8, 8, 2, 1))
    assert spec.branches == (2, 2, 2, 4, 4, 6, 6, 8, 8, 1)
    assert spec.n == 44


def test_starlike_spec_validation():
    with pytest.raises(ValueError):
        StarlikeSpec((2, 2))  # too few branches
    with pytest.raises(ValueError):
        StarlikeSpec((2, 2, 2))  # no odd branch
    with pytest.raises(ValueError):
        StarlikeSpec((2, 2, 3, 5))  # two odd branches
    with pytest.raises(ValueError):
        StarlikeSpec((2, 4, 1))  # no even length repeated
    with pytest.raises(ValueError):
        StarlikeSpec((2, 2, 7))  # odd branch too long: 14 >= 12
    with pytest.raises(ValueError):
        StarlikeSpec((2, 2, 0, 1))


def test_starlike_spec_admissible_lengths():
    spec = StarlikeSpec((4, 4, 2, 2, 3))
    assert spec.admissible_lengths() == (2, 4)
    assert StarlikeSpec((2, 2, 1)).admissible_lengths() == (2,)


def test_spider_and_build_starlike_small():
    g = spider((2, 2, 1))
    assert g.n == 6
    assert g.edges == ((1, 2), (1, 4), (1, 6), (2, 3), (4, 5))
    assert g.degree(1) == 3
    assert build_starlike(StarlikeSpec((2, 2, 1))) == g


def test_build_starlike_sixteen_vertices():
    g = build_starlike(StarlikeSpec((4, 4, 2, 2, 3)))
    assert g.n == 16
    assert classify(g) == "tree"
    assert g.degree(1) == 5


def test_build_starlike_forty_four_vertices():
    g = build_starlike(StarlikeSpec((2, 2, 2, 4, 4, 6, 6, 8, 8, 1)))
    assert g.n == 44
    assert sorted(g.degrees())[-1] == 10


# --- starlike trees as mirror decompositions ------------------------------------


@pytest.mark.parametrize(
    "branches, k",
    [((2, 2, 1), 2), ((4, 2, 4, 2, 3), 2), ((3, 3, 2), 3), ((1, 1, 1), 1)],
    ids=["2-2-1-k2", "4-2-4-2-3-k2", "3-3-2-k3", "1-1-1-k1"],
)
def test_starlike_mirror_is_the_spider(branches, k):
    from lapeq.checks import laplacian_charpoly

    dec = starlike_mirror(branches, k)
    g = spider(branches)
    assert laplacian_charpoly(dec.graph) == laplacian_charpoly(g)
    assert sorted(dec.graph.degrees()) == sorted(g.degrees())
    assert dec.core == path(k)
    assert dec.link == unit_vector(k, k)


def test_starlike_mirror_rejections():
    with pytest.raises(ValueError, match="need at least 3 branches"):
        starlike_mirror((3, 3), 3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        starlike_mirror((3, 3, 2), 0)
    with pytest.raises(ValueError, match="need two branches of length 3, found 0"):
        starlike_mirror((2, 2, 1), 3)


def test_starlike_mirror_cross_edge_creates_cycle():
    uni = insert_cross_edges(starlike_mirror((2, 2, 1), 2), unit_vector(2))
    assert classify(uni) == "unicyclic"
    assert unique_cycle_length(uni) == 5


# --- tree family ----------------------------------------------------------


def test_family_branches_even_placement():
    assert family_branches(4, 2).branches == (2, 2, 2, 4, 4, 6, 6, 8, 8, 1)
    assert family_branches(2, 1).branches == (2, 2, 4, 4, 1)


def test_family_branches_odd_placement():
    spec = family_branches(2, 3, placement="odd")
    assert spec.branches == (2, 2, 4, 4, 5)
    assert spec.n == 18


def test_family_branches_explicit_placement():
    spec = family_branches(2, 3, placement=[2, 2])
    assert spec.branches == (2, 2, 2, 2, 4, 4, 1)
    with pytest.raises(ValueError):
        family_branches(2, 3, placement=[2])  # sums to wrong filler total
    with pytest.raises(ValueError):
        family_branches(2, 3, placement=[3, 1])


def test_family_branches_validation():
    with pytest.raises(ValueError):
        family_branches(1, 1)
    with pytest.raises(ValueError):
        family_branches(2, 0)
    with pytest.raises(ValueError):
        family_branches(2, 1, placement="diagonal")


def test_generate_family_members():
    fam = generate_family(2, 1)
    assert len(fam) == 3  # base tree + one unicyclic graph per even branch pair
    base, m1, m2 = fam
    assert classify(base) == "tree"
    assert base.n == 14
    assert all(g.n == 14 for g in fam)
    assert all(g.num_edges == 14 for g in fam[1:])
    assert classify(m1) == "unicyclic"
    assert unique_cycle_length(m1) == 5
    assert unique_cycle_length(m2) == 9


def test_generate_family_larger_cycles():
    fam = generate_family(4, 2)
    assert [unique_cycle_length(g) for g in fam[1:]] == [5, 9, 13, 17]
    assert all(g.n == 44 for g in fam)


@pytest.mark.parametrize("cell", [(2, 1), (2, 2, "odd"), (3, 1)])
def test_family_members_match_the_mirror_construction(cell):
    from lapeq.checks import laplacian_charpoly

    spec = family_branches(*cell)
    base, *members = generate_family(*cell)
    leaves = {v for v, d in enumerate(base.degrees(), start=1) if d == 1}
    for i, member in enumerate(members, start=1):
        # same graph up to labels as the cross edge inserted into the mirror construction
        mirrored = insert_cross_edges(starlike_mirror(spec.branches, 2 * i), unit_vector(2 * i))
        assert laplacian_charpoly(member) == laplacian_charpoly(mirrored)
        # in the base tree's labels: one new edge, joining two of its leaves
        [(u, v)] = set(member.edges) - set(base.edges)
        assert set(base.edges) <= set(member.edges)
        assert member.num_edges == base.num_edges + 1
        assert {u, v} <= leaves


def test_cross_edge_from_branch_lengths():
    # spider((2, 2, 1)): branches 2-3, 4-5 and 6 off the center 1
    assert cross_edge((2, 2, 1), 2) == (3, 5)
    assert cross_edge((4, 2, 4, 2, 3), 2) == (7, 13)
    with pytest.raises(ValueError, match="need two branches of length 3"):
        cross_edge((2, 2, 3), 3)


def test_write_family(tmp_path):
    manifest = write_family(tmp_path, 2, 1)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    assert manifest["ell"] == 2
    assert manifest["gamma"] == 1
    assert manifest["n"] == 14
    assert manifest["branches"] == [2, 2, 4, 4, 1]
    names = [g["file"] for g in manifest["graphs"]]
    assert names == ["base_tree.edges", "unicyclic_1.edges", "unicyclic_2.edges"]
    kinds = [g["kind"] for g in manifest["graphs"]]
    assert kinds == ["tree", "unicyclic", "unicyclic"]
    assert manifest["graphs"][0]["cycle_length"] is None
    assert manifest["graphs"][1]["cycle_length"] == 5
    # files round trip to the generated graphs
    fam = generate_family(2, 1)
    for name, g in zip(names, fam):
        assert load_graph(tmp_path / name) == g


def test_write_family_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_family(a, 2, 2, placement="odd")
    write_family(b, 2, 2, placement="odd")
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "base_tree.edges").read_bytes() == (b / "base_tree.edges").read_bytes()


def test_family_members_share_degree_sequence_except_cycle_join():
    fam = generate_family(2, 1)
    base = fam[0]
    for member in fam[1:]:
        # one new edge between two leaves of the base turns them into degree-2 vertices
        assert member.num_edges == base.num_edges + 1
        diff = np.array(sorted(member.degrees())) - np.array(sorted(base.degrees()))
        assert diff.sum() == 2


def test_star_is_not_admissible_family_member():
    # star(4) has three length-1 branches: no even pair, so never a family base
    with pytest.raises(ValueError):
        StarlikeSpec((1, 1, 1))
