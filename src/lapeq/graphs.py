"""Simple undirected graphs on labeled vertices 1..n, plus Laplacian matrices.

The structure queries and `treecount` share one walk, `_walk`, which records
each vertex's parent: components are its runs, c is its number of roots, and
`_cycle` reads the one cycle off the one edge its forest misses.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterable, Sequence

Edge = tuple[int, int]

# Largest vertex count accepted from text input (edge-list headers, CLI
# shorthands), checked before any edge is read or built.
MAX_ORDER = 100_000
# Largest order for which `lapeq spectrum` builds the dense n x n Laplacian
# (8 * n^2 bytes, 800 MB at the limit), checked before it is allocated.
MAX_DENSE_ORDER = 10_000


def check_order(n: int) -> int:
    """n itself, or ValueError when text input asks for more than MAX_ORDER vertices."""
    if n > MAX_ORDER:
        raise ValueError(f"graph order {n} exceeds the limit of {MAX_ORDER} vertices")
    return n


def check_dense_order(n: int) -> None:
    """ValueError when a dense n x n matrix of text input would pass MAX_DENSE_ORDER."""
    if n > MAX_DENSE_ORDER:
        raise ValueError(
            f"graph order {n} exceeds the dense-matrix limit of {MAX_DENSE_ORDER} vertices"
        )


def _normalize_edge(u: int, v: int) -> Edge:
    u, v = index(u), index(v)  # TypeError for a float or a string label
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable graph: vertex labels 1..n, edges kept as sorted (min, max) pairs."""

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = index(n)
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        seen: set[Edge] = set()
        for u, v in edges:
            e = _normalize_edge(u, v)
            if not (1 <= e[0] and e[1] <= n):
                raise ValueError(f"edge {e} out of range 1..{n}")
            seen.add(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbours of each vertex, indexed by label (entry 0 is
        empty), built on first use; the sorted edges fill each list in order."""
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    def has_edge(self, u: int, v: int) -> bool:
        # a binary search of the sorted edges: one query builds no adjacency
        e = _normalize_edge(u, v)
        i = bisect.bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency[1:]))

    def add_edges(self, new: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(self.n, list(self.edges) + list(new))

    def relabel(self, mapping: dict[int, int]) -> "Graph":
        """New graph with vertex v renamed mapping[v]; mapping must be a bijection on 1..n."""
        if sorted(mapping) != list(range(1, self.n + 1)) or sorted(
            mapping.values()
        ) != list(range(1, self.n + 1)):
            raise ValueError("mapping must be a bijection on 1..n")
        return Graph(self.n, [(mapping[u], mapping[v]) for u, v in self.edges])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star(n: int) -> Graph:
    return Graph(n, [(1, i) for i in range(2, n + 1)])


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix, as a dense symmetric float array."""
    import numpy as np  # the only numpy use here: graph-only commands skip it

    m = np.zeros((g.n, g.n))
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2) - 1
    m[ends[:, 0], ends[:, 1]] = -1.0
    m[ends[:, 1], ends[:, 0]] = -1.0
    np.fill_diagonal(m, np.bincount(ends.ravel(), minlength=g.n))
    return m


def average_degree(g: Graph) -> Fraction:
    return Fraction(2 * g.num_edges, g.n)


def _walk(adj: Sequence[Sequence[int]], roots: Iterable[int]) -> tuple[list[int], list[int]]:
    """The vertices reached from each root not reached yet, every parent before
    its children, and each vertex's parent: 0 for a root, -1 for a vertex not
    reached. The edges (v, parent[v]) form a spanning forest of what the walk
    reached, and each tree of it is one contiguous run of the order."""
    parent = [-1] * len(adj)
    order: list[int] = []
    for root in roots:
        if parent[root] >= 0:
            continue
        parent[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if parent[w] < 0:
                    parent[w] = v
                    stack.append(w)
    return order, parent


def _cycle(edges: Iterable[Edge], parent: Sequence[int]) -> list[int]:
    """The one cycle of a graph whose walk forest misses exactly one edge uv:
    the vertices u, ..., v along the forest path, which uv closes."""
    u, v = next((a, b) for a, b in edges if parent[a] != b and parent[b] != a)
    up = [u]  # u and its ancestors
    while parent[up[-1]]:
        up.append(parent[up[-1]])
    depth = {w: i for i, w in enumerate(up)}
    down = [v]  # v and its ancestors below the meeting point
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    return up[: depth[down.pop()] + 1] + down[::-1]


def connected_components(g: Graph) -> list[set[int]]:
    """Vertex sets of the components, by least vertex: the runs of one walk
    over 1..n, split at its roots."""
    order, parent = _walk(g.adjacency, range(1, g.n + 1))
    starts = [i for i, v in enumerate(order) if not parent[v]] + [g.n]
    return [set(order[a:b]) for a, b in zip(starts, starts[1:])]


def classify(g: Graph) -> str:
    """One of "tree", "unicyclic", "forest", "other", from the component count
    c of one walk and the cyclomatic number m - n + c."""
    c = _walk(g.adjacency, range(1, g.n + 1))[1].count(0)  # a root's parent is 0
    cyclomatic = g.num_edges - g.n + c
    if not cyclomatic:
        return "tree" if c == 1 else "forest"
    return "unicyclic" if cyclomatic == 1 and c == 1 else "other"


def unique_cycle_length(g: Graph) -> int:
    """Length of the single cycle of a connected graph with n edges: the one
    edge its walk forest misses closes it."""
    parent = _walk(g.adjacency, range(1, g.n + 1))[1]
    if parent.count(0) != 1 or g.num_edges != g.n:
        raise ValueError("graph is not unicyclic")
    return len(_cycle(g.edges, parent))


# --- plain-text formats ---------------------------------------------------


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge list")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}")
    check_order(n)
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'i j' pair, got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_edge_list(g))


def load_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_edge_list(fh.read())


def format_dot(g: Graph) -> str:
    lines = ["graph {"]
    lines += [f"  {v};" for v in range(1, g.n + 1)]
    lines += [f"  {u} -- {v};" for u, v in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
