"""The exact-arithmetic module: Jacobs-Trevisan eigenvalue counting on trees
and the characteristic polynomial of a graph plus an integer diagonal, in
integers, with no float code.

Both rest on one pair recurrence, `_fold`, run over a walk from
`graphs._walk`. Each vertex v carries the value a(v) = num/den as an
unreduced integer pair, and a child c with pair (num_c, den_c) turns it into
(num*num_c - den_c*den, den*num_c), which is a(v) - 1/a(c). Without a zero
on the way, num is the determinant of the shifted matrix on the subtree of
v and den the product of its children's, so no gcd is ever taken. A zero
child (num_c == 0) forces the special step: v becomes (-1, 2), the least
zero child becomes (2, 1), and v is detached from its parent.

`jt_locate` decides, for a rational shift alpha = s/q (q > 0), how many
Laplacian eigenvalues of a tree lie above, at, and below alpha (Jacobs &
Trevisan): each pair starts at (q*deg(v) - s, q), so num is
det(q(L - alpha I)) on a subtree, and the signs of the final pairs are the
counts. `JTResult.final_values` reduces them to `Fraction`s on first
access. The float counts, such as sigma of a graph with a cycle, belong to
`spectra`.

`_charpoly(g, diagonal)` gives det(xI - M) for M = diag(diagonal) - A(g) and
any integer diagonal with d_v >= deg v: the Laplacian for the degrees, and
the path matrices H_k and F_k of the family theorem. Forests and graphs with
one cycle take one big-integer determinant through `_fold`, all others
division-free Berkowitz (`_berkowitz`).
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import prod
from operator import lt, mul
from typing import Sequence

from .graphs import Graph, _cycle, _walk, average_degree


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


def _fold(
    order: Sequence[int], parent: Sequence[int], num: list[int], den: list[int]
) -> set[tuple[int, int]]:
    """Fold each vertex of a walk into its parent by the pair recurrence and
    its zero rule, in place, and return the cut edges; a vertex with parent 0
    is folded into nothing."""
    zero_kid = [0] * len(num)  # least child whose final num is 0
    cut: set[tuple[int, int]] = set()
    # children come after their parent in order, so each vertex is final
    # when reached here and is then absorbed into its parent
    for v in reversed(order):
        p = parent[v]
        z = zero_kid[v]
        if z:  # detached: the parent does not see v
            num[v], den[v] = -1, 2
            num[z], den[z] = 2, 1
            if p:
                cut.add((v, p) if v < p else (p, v))
        elif p:
            nv = num[v]
            if nv:
                num[p], den[p] = num[p] * nv - den[v] * den[p], den[p] * nv
            elif not zero_kid[p] or v < zero_kid[p]:
                zero_kid[p] = v
    return cut


def jt_locate(g: Graph, alpha, root: int = 1) -> JTResult:
    """Count Laplacian eigenvalues of a tree above / at / below a rational alpha."""
    n = g.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} out of range 1..{n}")

    adj = g.adjacency
    order, parent = _walk(adj, (root,))
    # connected with n - 1 edges: the walk from the root decides "tree"
    if len(order) != n or g.num_edges != n - 1:
        raise ValueError("input graph is not a tree")
    shift = _as_exact(alpha)
    s, q = shift.numerator, shift.denominator

    num = [q * len(nbrs) - s for nbrs in adj]
    num[0] = 0
    den = [q] * (n + 1)
    cut = _fold(order, parent, num, den)

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


def _charpoly(g: Graph, diagonal: Sequence[int]) -> tuple[int, ...]:
    """Coefficients (leading first) of det(xI - M) as exact integers, for
    M = diag(diagonal) - A(g), where diagonal[v - 1] >= deg v for every v (so
    M is diagonally dominant, hence PSD). One walk counts the components c;
    a graph with cyclomatic number m - n + c of 2 or more goes to _berkowitz.

    Otherwise chi(x) comes from the single integer chi(X) at X = 2^b
    (Kronecker substitution). A second walk starts on the cycle, if any, so
    that every other vertex of its component hangs from a cycle vertex. Each
    cycle vertex becomes a root, and _fold, started at (X - d_v, 1), absorbs
    every other vertex into its parent; the roots off the cycle are the other
    components, whose determinants multiply. The zero rule never fires: each
    num is det(XI - M) on a principal submatrix, positive since X exceeds
    every eigenvalue. Each cycle vertex w keeps (N_w, D_w): the determinant
    of the tree hanging from it, and of that tree without w. Expanding the
    cycle w_1 ... w_k by its edge w_k w_1 then gives K(w_1..w_k) -
    D_1 D_k K(w_2..w_(k-1)) + 2 (-1)^(k+1) D_1 ... D_k, with K the scaled
    path determinant of _path_det.

    Slot width: with mu_i >= 0 and sum mu_i = tr M, sum |c_k| = prod(1 + mu_i)
    <= ((n + tr M) / n)^n by AM-GM, so every coefficient is a balanced digit of
    b = bit_length of that bound plus one bit, rounded up to whole bytes."""
    n, adj = g.n, g.adjacency
    if len(diagonal) != n or any(map(lt, diagonal, map(len, adj[1:]))):
        raise ValueError(f"need {n} diagonal entries, each at least its vertex's degree")
    order, parent = _walk(adj, range(1, n + 1))
    cyclomatic = g.num_edges - n + parent.count(0)  # a root's parent is 0
    if cyclomatic > 1:
        return _berkowitz(diagonal, adj)
    cycle: list[int] = []
    if cyclomatic:
        cycle = _cycle(g.edges, parent)
        order, parent = _walk(adj, chain((cycle[0],), range(1, n + 1)))
        for w in cycle:
            parent[w] = 0  # each cycle vertex keeps the tree hanging from it
    bound = -(-(n + sum(diagonal)) ** n // n**n)
    b = -(-(bound.bit_length() + 1) // 8) * 8
    x = 1 << b
    num = [0] + [x - d for d in diagonal]
    den = [1] * (n + 1)
    _fold(order, parent, num, den)
    on_cycle = set(cycle)
    value = prod(num[v] for v in order if not parent[v] and v not in on_cycle)
    if cycle:
        pairs = [(num[w], den[w]) for w in cycle]
        value *= (
            _path_det(pairs)
            - den[cycle[0]] * den[cycle[-1]] * _path_det(pairs[1:-1])
            + (2 if len(cycle) % 2 else -2) * prod(den[w] for w in cycle)
        )
    return _kronecker_digits(value, n, b)


def _path_det(pairs: Sequence[tuple[int, int]]) -> int:
    """K_j = det of the path with diagonal N_1/D_1, ..., N_j/D_j and ones off
    the diagonal, times D_1 ... D_j, for the last j, by the division-free
    continuant K_j = N_j K_(j-1) - D_j D_(j-1) K_(j-2) (K_0 = 1, K_(-1) = 0)."""
    before, k, d = 0, 1, 1
    for nw, dw in pairs:
        before, k, d = k, nw * k - dw * d * before, dw
    return k


def _kronecker_digits(value: int, n: int, b: int) -> tuple[int, ...]:
    """The coefficients c_n, ..., c_0 of value = sum c_k 2^(bk), each read as a
    balanced digit, |c_k| < 2^(b-1), in one pass: adding 2^(b-1) to every
    slot makes each digit a plain byte string of b/8 bytes. Raises
    ArithmeticError unless c_n = 1 and nothing is left above it, which an
    over-wide digit carrying or borrowing into the top slot would break."""
    width = b // 8
    half = 1 << (b - 1)
    shifted = value + int.from_bytes(half.to_bytes(width, "little") * (n + 1), "little")
    if not 0 <= shifted >> (b * n) < 1 << b:
        raise ArithmeticError(f"value does not fit {n + 1} slots of {b} bits")
    raw = shifted.to_bytes(width * (n + 1), "little")
    coeffs = tuple(
        int.from_bytes(raw[i : i + width], "little") - half for i in range(width * n, -1, -width)
    )
    if coeffs[0] != 1:
        raise ArithmeticError(f"leading coefficient {coeffs[0]} is not 1: {b} bits are too few")
    return coeffs
