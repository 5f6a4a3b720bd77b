"""The exact-arithmetic module: Jacobs-Trevisan eigenvalue counting on trees
and the Berkowitz characteristic polynomial, in integers, with no float code.

One pass over a rooted tree decides, for a rational shift alpha = s/q
(q > 0), how many Laplacian eigenvalues lie above, at, and below alpha
(Jacobs & Trevisan). Each vertex v carries the value a(v) = num/den as an
unreduced integer pair, scaled by q: it starts at (q*deg(v) - s, q), and a
child c with pair (num_c, den_c) turns it into
(num*num_c - den_c*den, den*num_c), which is a(v) - 1/a(c). Without a zero
on the way, num is det(q(L - alpha I)) on the subtree of v and den is q
times the product of its children's determinants, so no gcd is ever taken.
A zero child (num_c == 0) forces the special step: v becomes (-1, 2), the
least zero child becomes (2, 1), and v is detached from its parent. The
signs of the final pairs are the eigenvalue counts; `JTResult.final_values`
reduces them to `Fraction`s on first access. The float counts, such as sigma
of a graph with a cycle, belong to `spectra`.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .graphs import Graph, average_degree


@dataclass(frozen=True)
class JTResult:
    """The (above, equal, below) eigenvalue counts, the cut edges, and the
    final value of each vertex v as the integer pair (num[v], den[v]),
    indexed by label (entry 0 is unused)."""

    above: int
    equal: int
    below: int
    num: tuple[int, ...]
    den: tuple[int, ...]
    cut_edges: frozenset[tuple[int, int]]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.above, self.equal, self.below)

    @functools.cached_property
    def final_values(self) -> dict[int, Fraction]:
        """Final value of each vertex as a reduced Fraction, built on first use."""
        return {v: Fraction(self.num[v], self.den[v]) for v in range(1, len(self.num))}


def _as_exact(alpha) -> Fraction:
    if isinstance(alpha, float):
        raise TypeError(
            f"alpha must be exact (int or Fraction), got float {alpha!r}; "
            f"use Fraction(str(x)) for a decimal"
        )
    return Fraction(alpha)


def jt_locate(g: Graph, alpha, root: int = 1) -> JTResult:
    """Count Laplacian eigenvalues of a tree above / at / below a rational alpha."""
    n = g.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} out of range 1..{n}")

    adj = g.adjacency
    parent = [-1] * (n + 1)  # -1: not reached yet; the root's parent is 0
    parent[root] = 0
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                stack.append(w)
    # connected with n - 1 edges: the walk from the root decides "tree"
    if len(order) != n or g.num_edges != n - 1:
        raise ValueError("input graph is not a tree")
    shift = _as_exact(alpha)
    s, q = shift.numerator, shift.denominator

    num = [q * len(nbrs) - s for nbrs in adj]
    num[0] = 0
    den = [q] * (n + 1)
    zero_kid = [0] * (n + 1)  # least child whose final num is 0
    cut: set[tuple[int, int]] = set()
    # children come after their parent in order, so each vertex is final
    # when reached here and is then absorbed into its parent
    for v in reversed(order):
        p = parent[v]
        z = zero_kid[v]
        if z:
            num[v], den[v] = -1, 2
            num[z], den[z] = 2, 1
            if p:
                cut.add((v, p) if v < p else (p, v))
            continue  # detached: the parent does not see v
        if not p:
            continue
        nv = num[v]
        if nv:
            num[p], den[p] = num[p] * nv - den[v] * den[p], den[p] * nv
        elif not zero_kid[p] or v < zero_kid[p]:
            zero_kid[p] = v

    equal = num.count(0) - 1  # entry 0 is not a vertex
    above = sum(1 for a, b in zip(num, den) if a and (a > 0) == (b > 0))
    below = n - above - equal
    return JTResult(above, equal, below, tuple(num), tuple(den), frozenset(cut))


def sigma_tree(g: Graph) -> int:
    """Number of Laplacian eigenvalues of a tree >= its average degree, exactly."""
    result = jt_locate(g, average_degree(g))
    return result.above + result.equal


def _berkowitz(diagonal: Sequence[int], adjacency: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients (leading first) of det(xI - M) as exact integers, for the
    symmetric M with M[v][v] = diagonal[v - 1] and M[u][v] = -1 wherever u and
    v are neighbours in the 1-based adjacency (entry 0 empty, neighbours
    ascending, as Graph.adjacency).

    Division-free Berkowitz over the leading principal blocks on 1..r: with
    A the block on 1..r-1 and C its column to r, chi_r is the Toeplitz
    product of (1, -M[r][r], -C.C, -C.AC, ..., -C.A^(r-2)C) with chi_(r-1).
    Each block keeps the full diagonal, and by symmetry C.A^(2j)C = w.w and
    C.A^(2j+1)C = w.Aw with w = A^j C, so step r takes about r/2 sparse
    products."""
    d = (0, *diagonal)
    poly = [1]
    for r in range(1, len(d)):
        nbrs = [a[:bisect_left(a, r)] for a in adjacency[:r]]
        w = [0] * r  # A^j C on 1..r-1; slot 0 stays 0
        for u in adjacency[r][:bisect_left(adjacency[r], r)]:
            w[u] = -1
        col = [1, -d[r]]
        for _ in range(r // 2):
            aw = [dv * x - sum(map(w.__getitem__, nb)) for dv, x, nb in zip(d, w, nbrs)]
            col += (-sum(map(mul, w, w)), -sum(map(mul, w, aw)))
            w = aw
        col = col[r::-1]
        poly = [sum(map(mul, col[r - k:], poly)) for k in range(r + 1)]
    return tuple(poly)
