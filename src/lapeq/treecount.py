"""Bottom-up eigenvalue counting on trees in exact rational arithmetic.

One pass over a rooted tree decides, for a rational shift alpha, how many
Laplacian eigenvalues lie above, at, and below alpha. Each vertex carries a
rational value a(v), initialized to degree(v) - alpha; parents absorb
-1/a(child) from each child, and a zero-valued child forces the special
step that detaches its parent from the grandparent. The sign counts of the
final values are the eigenvalue counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, average_degree, is_connected
from .spectra import laplacian_spectrum, sigma_count


@dataclass(frozen=True)
class JTResult:
    """Final per-vertex values and the (above, equal, below) eigenvalue counts."""

    above: int
    equal: int
    below: int
    final_values: dict[int, Fraction]
    cut_edges: frozenset[tuple[int, int]]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.above, self.equal, self.below)


def _as_exact(alpha) -> Fraction:
    if isinstance(alpha, float):
        raise TypeError(
            f"alpha must be exact (int or Fraction), got float {alpha!r}; "
            f"use Fraction(str(x)) for a decimal"
        )
    return Fraction(alpha)


def jt_locate(g: Graph, alpha, root: int = 1) -> JTResult:
    """Count Laplacian eigenvalues of a tree above / at / below a rational alpha."""
    if not 1 <= root <= g.n:
        raise ValueError(f"root {root} out of range 1..{g.n}")

    adj = g.adjacency
    parent: dict[int, int] = {root: 0}
    children: list[list[int]] = [[] for _ in range(g.n + 1)]
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                children[v].append(w)
                stack.append(w)
    # connected with n - 1 edges: the walk from the root decides "tree"
    if len(order) != g.n or g.num_edges != g.n - 1:
        raise ValueError("input graph is not a tree")
    shift = _as_exact(alpha)

    a = {v: Fraction(len(adj[v])) - shift for v in range(1, g.n + 1)}
    detached: set[int] = set()
    cut: set[tuple[int, int]] = set()
    for v in reversed(order):
        kids = [c for c in children[v] if c not in detached]
        zeros = [c for c in kids if a[c] == 0]
        if zeros:
            chosen = min(zeros)
            a[v] = Fraction(-1, 2)
            a[chosen] = Fraction(2)
            if v != root:
                p = parent[v]
                cut.add((min(v, p), max(v, p)))
                detached.add(v)
        else:
            a[v] -= sum(Fraction(1) / a[c] for c in kids)

    above = sum(1 for x in a.values() if x > 0)
    equal = sum(1 for x in a.values() if x == 0)
    below = g.n - above - equal
    return JTResult(above, equal, below, a, frozenset(cut))


def sigma_tree(g: Graph) -> int:
    """Number of Laplacian eigenvalues of a tree >= its average degree, exactly."""
    result = jt_locate(g, average_degree(g))
    return result.above + result.equal


def sigma_graph(g: Graph) -> int:
    """Number of Laplacian eigenvalues >= average degree: exact count for
    trees, dense-spectrum count otherwise."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if g.num_edges == g.n - 1:
        return sigma_tree(g)
    return sigma_count(laplacian_spectrum(g), float(average_degree(g)))
