"""Builders for mirrored graphs, starlike trees, and the equal-energy families.

A mirror decomposition glues two identically-labeled copies of a core graph
onto the root of a host graph: copy vertices i and k+i both attach to the
root exactly when link[i-1] = 1. Inserting cross edges between mirror pairs
(i, k+i) then replaces k Laplacian eigenvalues in a controlled way.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Edge, Graph, classify, path, save_graph, unique_cycle_length

BinaryVector = tuple[int, ...]


def _as_binary(vec: Sequence[int], k: int, name: str) -> BinaryVector:
    v = tuple(map(operator.index, vec))
    if len(v) != k:
        raise ValueError(f"{name} vector has length {len(v)}, expected {k}")
    if any(x not in (0, 1) for x in v):
        raise ValueError(f"{name} vector entries must be 0 or 1")
    return v


def unit_vector(k: int, index: int = 1) -> BinaryVector:
    if not 1 <= index <= k:
        raise ValueError(f"index {index} out of range 1..{k}")
    return tuple(1 if i == index else 0 for i in range(1, k + 1))


@dataclass(frozen=True)
class MirrorDecomposition:
    """A graph together with the mirror structure that built it.

    Canonical labeling: first core copy on 1..k, second copy on k+1..2k,
    host root at 2k+1, remaining host vertices on 2k+2..n in host order.
    """

    core: Graph
    host: Graph
    root: int
    link: BinaryVector
    graph: Graph

    @property
    def k(self) -> int:
        return self.core.n

    @property
    def n(self) -> int:
        return self.graph.n

    def __post_init__(self):
        if not 1 <= self.root <= self.host.n:
            raise ValueError(f"root {self.root} out of range 1..{self.host.n}")
        if len(self.link) != self.core.n:
            raise ValueError(
                f"link vector has length {len(self.link)}, expected {self.core.n}"
            )
        if self.graph.n != 2 * self.core.n + self.host.n:
            raise ValueError("assembled graph order does not match 2k + host order")


def build_mirror(
    core: Graph, host: Graph, root: int, link: Sequence[int]
) -> MirrorDecomposition:
    """Assemble host + two core copies, root joined to both copies of vertex i
    wherever link[i-1] = 1."""
    k = core.n
    if not 1 <= root <= host.n:
        raise ValueError(f"root {root} out of range 1..{host.n}")
    link_v = _as_binary(link, k, "link")

    hostmap = {root: 2 * k + 1}
    rest = [v for v in range(1, host.n + 1) if v != root]
    for offset, v in enumerate(rest):
        hostmap[v] = 2 * k + 2 + offset

    edges: list[tuple[int, int]] = []
    edges += [(u, v) for u, v in core.edges]
    edges += [(u + k, v + k) for u, v in core.edges]
    edges += [(hostmap[u], hostmap[v]) for u, v in host.edges]
    for i in range(1, k + 1):
        if link_v[i - 1]:
            edges.append((i, 2 * k + 1))
            edges.append((i + k, 2 * k + 1))

    assembled = Graph(2 * k + host.n, edges)
    return MirrorDecomposition(core, host, root, link_v, assembled)


def insert_cross_edges(dec: MirrorDecomposition, cross: Sequence[int]) -> Graph:
    """Add the edge {i, k+i} between mirror copies wherever cross[i-1] = 1."""
    k = dec.k
    cross_v = _as_binary(cross, k, "cross")
    new = []
    for i in range(1, k + 1):
        if cross_v[i - 1]:
            if dec.graph.has_edge(i, k + i):
                raise ValueError(f"cross edge ({i}, {k + i}) already present")
            new.append((i, k + i))
    return dec.graph.add_edges(new)


# --- starlike trees -----------------------------------------------------------


@dataclass(frozen=True)
class StarlikeSpec:
    """Branch lengths of a starlike tree eligible for eigenvalue replacement:
    all branches even except a single odd one shorter than n/2, with some even
    length appearing at least twice.

    Stored canonically: even lengths ascending, the odd length last.
    """

    branches: tuple[int, ...]

    def __init__(self, branches: Iterable[int]):
        lens = list(map(operator.index, branches))
        if len(lens) < 3:
            raise ValueError(f"need at least 3 branches, got {len(lens)}")
        if any(b < 1 for b in lens):
            raise ValueError("branch lengths must be positive")
        odd = [b for b in lens if b % 2 == 1]
        even = sorted(b for b in lens if b % 2 == 0)
        if len(odd) != 1:
            raise ValueError(f"exactly one branch length must be odd, got {len(odd)}")
        if not any(even.count(b) >= 2 for b in set(even)):
            raise ValueError("some even branch length must appear at least twice")
        n = 1 + sum(lens)
        if 2 * odd[0] >= n:
            raise ValueError(
                f"odd branch length {odd[0]} must be < n/2 = {n / 2:g}"
            )
        object.__setattr__(self, "branches", tuple(even + odd))

    @property
    def n(self) -> int:
        return 1 + sum(self.branches)

    def admissible_lengths(self) -> tuple[int, ...]:
        """Even lengths appearing at least twice, ascending."""
        even = self.branches[:-1]
        return tuple(sorted({b for b in even if even.count(b) >= 2}))


def spider(branches: Sequence[int]) -> Graph:
    """Tree with center vertex 1 and one path per requested branch length,
    labeled consecutively outward from the center."""
    lens = list(map(operator.index, branches))
    if not lens or any(b < 1 for b in lens):
        raise ValueError("branch lengths must be positive integers")
    edges = []
    nxt = 2
    for b in lens:
        prev = 1
        for _ in range(b):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(1 + sum(lens), edges)


def cross_edge(branches: Sequence[int], k: int) -> Edge:
    """The edge joining the outer ends of the first two length-k branches of
    spider(branches), from the lengths alone: branch j ends at vertex
    1 + b_1 + ... + b_j."""
    outer, end = [], 1
    for b in map(operator.index, branches):
        end += b
        if b == k:
            outer.append(end)
    if len(outer) < 2:
        raise ValueError(f"need two branches of length {k}, found {len(outer)}")
    return outer[0], outer[1]


def build_starlike(spec: StarlikeSpec | Iterable[int]) -> Graph:
    """Build the starlike tree for a replacement-eligible branch profile."""
    if not isinstance(spec, StarlikeSpec):
        spec = StarlikeSpec(spec)
    return spider(spec.branches)


def starlike_mirror(branches: Sequence[int], k: int) -> MirrorDecomposition:
    """spider(branches) as a mirror decomposition over its first two length-k
    branches: core = path on k vertices linked at its far end, host = the
    spider of the other branches, rooted at its center.

    Works for any k with two branches of that length; the equal-energy
    results additionally need k even.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rest = list(map(operator.index, branches))
    if len(rest) < 3:
        raise ValueError(f"need at least 3 branches, got {len(rest)}")
    if rest.count(k) < 2:
        raise ValueError(f"need two branches of length {k}, found {rest.count(k)}")
    rest.remove(k)
    rest.remove(k)
    return build_mirror(path(k), spider(rest), 1, unit_vector(k, k))


# --- equal-energy families ------------------------------------------------------


def family_order(ell: int, gamma: int) -> int:
    """The order every graph of the (ell, gamma) family shares, for any
    placement: 1 + 2(2 + 4 + ... + 2 ell) + 1 + 2(gamma - 1)."""
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    return 2 * ell * (ell + 1) + 2 * gamma


def family_branches(
    ell: int, gamma: int = 1, placement: str | Sequence[int] = "even"
) -> StarlikeSpec:
    """Branch profile of the family's base tree: two branches of each even
    length 2, 4, ..., 2*ell, one odd branch, and 2*(gamma-1) filler vertices
    placed per the policy ("even" = extra 2-vertex branches, "odd" = grow the
    odd branch, or an explicit list of even branch lengths)."""
    family_order(ell, gamma)
    evens = [2 * i for i in range(1, ell + 1) for _ in range(2)]
    odd = 1
    extra = 2 * (gamma - 1)
    if isinstance(placement, str):
        if placement == "even":
            evens += [2] * (gamma - 1)
        elif placement == "odd":
            odd += extra
        else:
            raise ValueError(f"unknown placement policy {placement!r}")
    else:
        filler = list(map(operator.index, placement))
        if any(b < 2 or b % 2 for b in filler):
            raise ValueError("explicit filler branches must be even and >= 2")
        if sum(filler) != extra:
            raise ValueError(
                f"filler branches must hold {extra} vertices, got {sum(filler)}"
            )
        evens += filler
    return StarlikeSpec(evens + [odd])


def generate_family(
    ell: int, gamma: int = 1, placement: str | Sequence[int] = "even"
) -> list[Graph]:
    """The base starlike tree plus its ell unicyclic equal-energy companions,
    the i-th being the base tree, in its own labels, plus a cross edge
    between the outer ends of the two length-2i branches."""
    spec = family_branches(ell, gamma, placement)
    base = build_starlike(spec)
    members = [base.add_edges([cross_edge(spec.branches, 2 * i)]) for i in range(1, ell + 1)]
    return [base] + members


def write_family(
    outdir: str, ell: int, gamma: int = 1, placement: str | Sequence[int] = "even"
) -> dict:
    """Write the family as edge-list files plus a manifest.json; returns the manifest."""
    graphs = generate_family(ell, gamma, placement)
    spec = family_branches(ell, gamma, placement)
    os.makedirs(outdir, exist_ok=True)
    entries = []
    names = ["base_tree.edges"] + [f"unicyclic_{i}.edges" for i in range(1, ell + 1)]
    for i, (name, g) in enumerate(zip(names, graphs)):
        save_graph(g, os.path.join(outdir, name))
        entry = {
            "file": name,
            "kind": classify(g),
            "vertices": g.n,
            "edges": g.num_edges,
            "cycle_length": None if i == 0 else unique_cycle_length(g),
        }
        entries.append(entry)
    manifest = {
        "ell": ell,
        "gamma": gamma,
        "placement": placement if isinstance(placement, str) else list(placement),
        "n": spec.n,
        "branches": list(spec.branches),
        "graphs": entries,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
