import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lapeq.treecount
from lapeq.checks import laplacian_charpoly, random_tree
from lapeq.construct import StarlikeSpec, build_starlike, family_branches
from lapeq.graphs import Graph, average_degree, cycle, path, star
from lapeq.spectra import laplacian_spectrum, sigma_count
from lapeq.treecount import (
    JTResult,
    _berkowitz,
    _charpoly,
    _kronecker_digits,
    jt_locate,
    sigma_tree,
)


def reference_jt(g, alpha, root):
    """The Fraction recurrence jt_locate replaced: counts, cut edges, values."""
    parent, order, stack = {root: 0}, [], [root]
    children = {v: [] for v in range(1, g.n + 1)}
    while stack:
        v = stack.pop()
        order.append(v)
        for w in g.adjacency[v]:
            if w not in parent:
                parent[w] = v
                children[v].append(w)
                stack.append(w)
    a = {v: len(g.adjacency[v]) - Fraction(alpha) for v in children}
    detached, cut = set(), set()
    for v in reversed(order):
        kids = [c for c in children[v] if c not in detached]
        zeros = [c for c in kids if a[c] == 0]
        if zeros:
            a[v], a[min(zeros)] = Fraction(-1, 2), Fraction(2)
            if v != root:
                cut.add(tuple(sorted((v, parent[v]))))
                detached.add(v)
        else:
            a[v] -= sum(1 / a[c] for c in kids)
    values = a.values()
    counts = (sum(x > 0 for x in values), sum(x == 0 for x in values), sum(x < 0 for x in values))
    return counts, frozenset(cut), a


def test_single_edge_at_zero():
    for root in (1, 2):
        r = jt_locate(path(2), 0, root=root)
        assert r.counts == (1, 1, 0)  # spectrum {2, 0}


def test_path4_at_one():
    r = jt_locate(path(4), 1, root=1)
    assert r.counts == (2, 0, 2)
    assert r.cut_edges == frozenset({(2, 3)})
    # spectrum of P4 is 2 +- sqrt(2), 2, 0: two above 1, two below
    spec = laplacian_spectrum(path(4))
    assert sigma_count(spec, 1.0) == 2


def test_path3_at_one_includes_eigenvalue():
    r = jt_locate(path(3), 1, root=2)
    assert r.counts == (1, 1, 1)  # spectrum {3, 1, 0}
    assert r.cut_edges == frozenset()


def test_final_values_bookkeeping():
    r = jt_locate(path(2), 0, root=1)
    assert isinstance(r, JTResult)
    assert set(r.final_values) == {1, 2}
    assert all(isinstance(v, Fraction) for v in r.final_values.values())
    # leaf got d - alpha = 1, then the root became 1 - 1/1 = 0 -> forced to -1/2... no:
    # zero appears at the root itself, so it is simply recorded
    assert r.final_values[2] == 1


def test_pairs_are_scaled_determinants():
    # no zero on the way: the root's num is det(q(L - alpha I)) of the whole
    # tree, (-1)^n q^n chi(s/q) with chi(x) = det(xI - L)
    g = build_starlike(StarlikeSpec((4, 4, 2, 2, 3)))
    alpha = Fraction(9, 5)
    r = jt_locate(g, alpha)
    assert r.cut_edges == frozenset() and r.equal == 0
    chi = sum(c * alpha ** (g.n - i) for i, c in enumerate(laplacian_charpoly(g)))
    assert r.num[1] == (-1) ** g.n * 5 ** g.n * chi
    # a leaf keeps its starting pair (q * 1 - s, q)
    assert (r.num[16], r.den[16]) == (5 - 9, 5)
    assert r.final_values[1] == Fraction(r.num[1], r.den[1])


def test_root_independence():
    g = build_starlike(StarlikeSpec((4, 4, 2, 2, 3)))
    counts = {jt_locate(g, Fraction(3, 2), root=v).counts for v in range(1, g.n + 1)}
    assert len(counts) == 1


def test_star_at_average_degree():
    g = star(14)
    r = jt_locate(g, average_degree(g))
    above, equal, below = r.counts
    assert above + equal + below == 14
    spec = laplacian_spectrum(g)
    assert above + equal == sigma_count(spec, float(average_degree(g)))


def test_family_base_sigma():
    spec = family_branches(4, 2)
    g = build_starlike(spec)
    r = jt_locate(g, average_degree(g))
    assert r.counts[0] + r.counts[1] == 22
    assert sigma_tree(g) == 22


def test_alpha_type_checking():
    with pytest.raises(TypeError):
        jt_locate(path(3), 1.5)
    r = jt_locate(path(3), Fraction(3, 2))
    assert sum(r.counts) == 3


def test_exact_rational_alpha():
    # 34/13 is not representable in floats; exactness matters near eigenvalues
    g = build_starlike(StarlikeSpec((2, 2, 1)))
    r = jt_locate(g, Fraction(34, 13))
    assert sum(r.counts) == 6


def test_input_validation():
    with pytest.raises(ValueError):
        jt_locate(cycle(4), 1)
    with pytest.raises(ValueError):
        jt_locate(Graph(4, [(1, 2), (3, 4)]), 1)
    triangle_and_isolated = Graph(4, [(1, 2), (1, 3), (2, 3)])  # n - 1 edges, disconnected
    for root in (1, 4):
        with pytest.raises(ValueError, match="not a tree"):
            jt_locate(triangle_and_isolated, 1, root=root)
    with pytest.raises(ValueError):
        jt_locate(path(3), 1, root=4)


def test_sigma_tree_small():
    assert sigma_tree(path(2)) == 1
    assert sigma_tree(build_starlike(StarlikeSpec((2, 2, 1)))) == 3


def test_sigma_tree_matches_dense_count():
    rng = random.Random(11)
    for _ in range(25):
        g = random_tree(rng, rng.randint(2, 60))
        dense = sigma_count(laplacian_spectrum(g), float(average_degree(g)))
        assert sigma_tree(g) == dense


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 24))
def test_counts_match_dense_spectrum(data, n):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g = random_tree(rng, n)
    den = data.draw(st.integers(1, 10))
    alpha = Fraction(data.draw(st.integers(0, 2 * n * den)), den)
    root = data.draw(st.integers(1, n))
    r = jt_locate(g, alpha, root=root)
    above, equal, below = r.counts
    assert above + equal + below == n

    tol = 1e-9
    a = float(alpha)
    spec = laplacian_spectrum(g)
    strict_above = sum(1 for v in spec if v > a + tol)
    strict_below = sum(1 for v in spec if v < a - tol)
    # dense values within tol of alpha stay ambiguous; exact counts must cover them
    assert above >= strict_above
    assert below >= strict_below
    assert equal <= n - strict_above - strict_below


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30))
def test_matches_fraction_reference(data, n):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_tree(rng, n)
    # integer shifts hit eigenvalues of small trees, so the zero rule fires
    den = 1 if data.draw(st.booleans()) else data.draw(st.integers(2, 9))
    alpha = Fraction(data.draw(st.integers(0, 2 * n * den)), den)
    if den == 1:
        alpha = int(alpha)
    root = data.draw(st.integers(1, n))
    r = jt_locate(g, alpha, root=root)
    counts, cut, values = reference_jt(g, alpha, root)
    assert r.counts == counts
    assert r.cut_edges == cut
    assert r.final_values == values
    for x in r.final_values.values():
        assert isinstance(x, Fraction)
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


# --- characteristic polynomial: the Kronecker kernel against Berkowitz ----------


def berkowitz_charpoly(g):
    return _berkowitz(g.degrees(), g.adjacency)


def _raised(g, extra):
    """The degrees of g, each raised by its entry of extra."""
    return [d + e for d, e in zip(g.degrees(), extra)]


@st.composite
def one_cycle_at_most(draw):
    """A relabelled graph of one of four shapes: a forest (isolated vertices
    included), a tree, a connected unicyclic graph, or one cycle plus a
    forest. Each vertex after the cycle hangs from an earlier one, or, where
    the shape allows, starts a component of its own."""
    shape = draw(st.sampled_from(["forest", "tree", "unicyclic", "cycle-plus-forest"]))
    cyclic = shape in ("unicyclic", "cycle-plus-forest")
    connected = shape in ("tree", "unicyclic")
    n = draw(st.integers(3 if cyclic else 1, 16))
    k = draw(st.integers(3, n)) if cyclic else 1
    edges = [(i, i % k + 1) for i in range(1, k + 1)] if cyclic else []
    for v in range(k + 1, n + 1):
        u = draw(st.integers(1 if connected else 0, v - 1))
        if u:
            edges.append((u, v))
    labels = draw(st.permutations(range(1, n + 1)))
    return Graph(n, [(labels[u - 1], labels[v - 1]) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(g=one_cycle_at_most(), data=st.data())
def test_kronecker_charpoly_matches_berkowitz(g, data):
    assert _charpoly(g, g.degrees()) == berkowitz_charpoly(g)
    d = _raised(g, data.draw(st.lists(st.integers(0, 20), min_size=g.n, max_size=g.n)))
    assert _charpoly(g, d) == _berkowitz(d, g.adjacency)


def _triangle_with_pendants(n):
    """A triangle on 1, 2, 3 with n - 3 pendant vertices on vertex 1."""
    return Graph(n, [(1, 2), (2, 3), (1, 3)] + [(1, v) for v in range(4, n + 1)])


@pytest.mark.parametrize(
    "g",
    [Graph(1), Graph(9), star(2), star(17), cycle(3), cycle(4), cycle(25),
     _triangle_with_pendants(3), _triangle_with_pendants(20)],
    ids=["single-vertex", "edgeless", "star-2", "star-17", "cycle-3", "cycle-4",
         "cycle-25", "triangle", "triangle-17-pendants"],
)
def test_kronecker_charpoly_extremes(g):
    rng = random.Random(g.n)
    for extra in ([0] * g.n, [20] * g.n, [rng.randint(0, 20) for _ in range(g.n)]):
        d = _raised(g, extra)
        assert _charpoly(g, d) == _berkowitz(d, g.adjacency), extra


@pytest.mark.parametrize(
    "g",
    [path(3), cycle(4), Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])],
    ids=["path", "cycle", "K4"],
)
def test_charpoly_refuses_a_diagonal_below_the_degrees(g):
    for v in range(g.n):
        d = list(g.degrees())
        d[v] -= 1
        with pytest.raises(ValueError, match="at least its vertex's degree"):
            _charpoly(g, d)
    with pytest.raises(ValueError, match=f"need {g.n} diagonal entries"):
        _charpoly(g, g.degrees()[1:])


def _at_two_plus_t_plus_inverse(coeffs):
    """t^k chi(2 + t + 1/t), lowest power of t first, for chi of degree k with
    coeffs leading first. As x = (1 + t)^2 / t, Horner's step h -> h x + c_i
    becomes q -> q (1 + t)^2 + c_i t^i on q = t^i h."""
    q = [coeffs[0]]
    for i, c in enumerate(coeffs[1:], 1):
        p = [0, 0, *q, 0, 0]
        q = [p[j + 2] + 2 * p[j + 1] + p[j] for j in range(len(q) + 2)]
        q[i] += c
    return q


def test_path_matrices_of_the_family_theorem():
    """(F1) for k = 1..100: with x = 2 + t + 1/t, t^k chi(x) is 1 + t + ... + t^2k
    for H_k = L(path k) + e_k e_k^T (diagonal 1, 2, ..., 2) and 1 - t + ... + t^2k
    for F_k = H_k + 2 e_1 e_1^T (diagonal 3, 2, ..., 2)."""
    for k in range(1, 101):
        h = _at_two_plus_t_plus_inverse(_charpoly(path(k), [1] + [2] * (k - 1)))
        f = _at_two_plus_t_plus_inverse(_charpoly(path(k), [3] + [2] * (k - 1)))
        assert h == [1] * (2 * k + 1), k
        assert f == [(-1) ** j for j in range(2 * k + 1)], k


def _refuse(*args):
    raise AssertionError("wrong kernel")


@pytest.mark.parametrize(
    "g",
    [
        Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),  # K4
        Graph(6, [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 6), (6, 2)]),  # theta
        Graph(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),  # two triangles, one isolated
    ],
    ids=["K4", "theta", "two-triangles"],
)
def test_two_independent_cycles_take_berkowitz(g, monkeypatch):
    calls = []

    def spy(diagonal, adjacency):
        calls.append((diagonal, adjacency))
        return _berkowitz(diagonal, adjacency)

    monkeypatch.setattr(lapeq.treecount, "_berkowitz", spy)
    assert _charpoly(g, g.degrees()) == berkowitz_charpoly(g)
    assert calls == [(g.degrees(), g.adjacency)]


@pytest.mark.parametrize(
    "g",
    [
        path(6),
        Graph(5, [(2, 4)]),  # a forest of four components
        cycle(5),
        Graph(6, [(1, 2), (2, 3), (1, 3), (5, 6)]),  # m - n + 1 = -1, but one cycle
    ],
    ids=["path", "sparse-forest", "cycle", "triangle-plus-forest"],
)
def test_at_most_one_cycle_skips_berkowitz(g, monkeypatch):
    expected = berkowitz_charpoly(g)
    monkeypatch.setattr(lapeq.treecount, "_berkowitz", _refuse)
    assert _charpoly(g, g.degrees()) == expected


def test_kronecker_decode_refuses_over_wide_digits():
    x = 1 << 8  # slots of b = 8 bits hold the balanced digits -128..127
    assert _kronecker_digits(x**2 + 127 * x - 128, 2, 8) == (1, 127, -128)
    # 128 carries into the top slot, which would read (2, -128, 0)
    with pytest.raises(ArithmeticError, match="leading coefficient 2"):
        _kronecker_digits(x**2 + 128 * x, 2, 8)
    # -129 borrows from it, which would read (0, 127, 0)
    with pytest.raises(ArithmeticError, match="leading coefficient 0"):
        _kronecker_digits(x**2 - 129 * x, 2, 8)
    # a digit above the n + 1 slots is left over
    with pytest.raises(ArithmeticError, match="does not fit 3 slots"):
        _kronecker_digits(x**3 + x**2, 2, 8)
