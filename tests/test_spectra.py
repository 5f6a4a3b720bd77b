import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lapeq.construct import build_mirror, insert_cross_edges
from lapeq.graphs import Graph, cycle, laplacian, path, star
from lapeq.spectra import (
    SigmaMismatchError,
    Spectrum,
    SpectrumMatchError,
    TridiagonalSpec,
    cospectral,
    delta_le,
    energy_report,
    laplacian_energy,
    laplacian_spectra,
    laplacian_spectrum,
    linked_core_matrix,
    multiset_remove,
    multiset_union,
    replacement_spectra,
    sigma_count,
    stacked_spectra,
    sym_eigenvalues,
    tridiagonal_spectrum,
)

# Reference 5-decimal spectra of the 11-vertex example: two path-3 copies
# glued to a 5-cycle root by a full link vector, before and after inserting
# all three cross edges.
SPEC_BEFORE = (9.03601, 4.0, 4.0, 3.61803, 2.47142, 2.0, 2.0, 1.38197, 1.0, 0.49257, 0.0)
SPEC_AFTER = (9.03601, 6.0, 4.0, 4.0, 3.61803, 3.0, 2.47142, 2.0, 1.38197, 0.49257, 0.0)


def example_pair():
    dec = build_mirror(path(3), cycle(5), root=1, link=(1, 1, 1))
    return dec.graph, insert_cross_edges(dec, (1, 1, 1))


# --- Spectrum container -------------------------------------------------------


def test_spectrum_sorts_descending():
    s = Spectrum([1.0, 3.0, 2.0])
    assert s.values == (3.0, 2.0, 1.0)
    assert len(s) == 3
    assert s[1] == 2.0
    assert list(s) == [3.0, 2.0, 1.0]


def test_spectrum_helpers():
    s = Spectrum([4.0, 2.0, 2.0, 0.0])
    assert s.sum() == 8.0
    assert s.multiplicity(2.0) == 2
    assert s.multiplicity(2.0000005, tol=1e-6) == 2
    assert s.rounded(1) == (4.0, 2.0, 2.0, 0.0)
    assert sigma_count(s, 2.0) == 3
    assert sigma_count(s, 2.0000005) == 1
    assert sigma_count(laplacian_spectrum(cycle(5)), 2.0) == 2


def test_spectrum_tol_validation_and_equality():
    # a spectrum is its values alone; tolerances belong to the comparisons
    assert Spectrum([1.0, 2.0]) == Spectrum([2.0, 1.0])
    assert not hasattr(Spectrum([1.0]), "tol")


def test_spectrum_serialization():
    s = Spectrum([0.5, 2.0])
    assert s.values == (2.0, 0.5)
    lines = s.to_csv().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert lines[1] == "1,2.0"
    assert len(lines) == 3


# --- eigensolver ----------------------------------------------------------------


def test_sym_eigenvalues_linked_core_examples():
    h = np.array([[2, -1, 0], [-1, 3, -1], [0, -1, 2]], dtype=float)
    d = sym_eigenvalues(h)
    assert np.allclose(d.values, (4.0, 2.0, 1.0), atol=1e-9)
    f = sym_eigenvalues(h + 2 * np.eye(3))
    assert np.allclose(f.values, (6.0, 4.0, 3.0), atol=1e-9)


def test_sym_eigenvalues_identity_and_edge_cases():
    assert sym_eigenvalues(np.eye(5)).values == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert sym_eigenvalues(np.array([[7.0]])).values == (7.0,)
    assert sym_eigenvalues(np.zeros((3, 3))).values == (0.0, 0.0, 0.0)


def test_sym_eigenvalues_validates_input():
    for m, message in [
        (np.ones((2, 3)), r"square, got shape \(2, 3\)"),
        (np.ones(3), r"square, got shape \(3,\)"),
        (np.ones((2, 2, 2)), r"square, got shape \(2, 2, 2\)"),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), "not symmetric"),
        (np.zeros((0, 0)), "order >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            sym_eigenvalues(m)


@st.composite
def same_order_graphs(draw):
    """1-5 random graphs on one order 1-12, the edgeless and the complete
    graph among the draws."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    some = st.lists(st.sampled_from(pairs)) if pairs else st.just([])
    edge_sets = st.one_of(st.just([]), st.just(pairs), some)
    return [Graph(n, draw(edge_sets)) for _ in range(draw(st.integers(1, 5)))]


@given(gs=same_order_graphs())
def test_stacked_spectra_equal_one_solve_per_matrix(gs):
    # each matrix of a stack gets the very floats of an eigvalsh call of its own
    alone = [tuple(np.linalg.eigvalsh(laplacian(g))[::-1].tolist()) for g in gs]
    assert [s.values for s in laplacian_spectra(gs)] == alone
    assert [s.values for s in stacked_spectra([laplacian(g) for g in gs])] == alone
    assert [laplacian_spectrum(g).values for g in gs] == alone
    assert [sym_eigenvalues(laplacian(g)).values for g in gs] == alone


def test_stacked_spectra_refuse_mixed_orders_and_empty_stacks():
    with pytest.raises(ValueError, match="mixed orders"):
        laplacian_spectra([path(3), path(4)])
    with pytest.raises(ValueError):
        stacked_spectra([np.eye(3), np.eye(4)])
    with pytest.raises(ValueError, match="at least one graph"):
        laplacian_spectra([])
    with pytest.raises(ValueError, match="at least one matrix"):
        stacked_spectra([])
    with pytest.raises(ValueError, match="at least one matrix"):
        stacked_spectra(np.zeros((0, 3, 3)))


def test_stacked_spectra_check_every_slice():
    good = laplacian(cycle(4))
    cases = [(math.nan, "non-finite"), (math.inf, "non-finite"), (0.5, "not symmetric")]
    for bad, message in cases:
        m = good.copy()
        m[0, 2] = bad
        for stack in ([good, m], [m, good], np.stack([good, good, m])):
            with pytest.raises(ValueError, match=message):
                stacked_spectra(stack)
    # each slice is held to its own scale: 1e-10 is inside a 1e4 slice's
    # 1e-12 * 1e4 band but not inside a unit slice's 1e-12
    big = 1e4 * good
    big[0, 1] += 1e-10
    assert len(stacked_spectra([big, good])) == 2
    small = good.copy()
    small[0, 1] += 1e-10
    with pytest.raises(ValueError, match="not symmetric"):
        stacked_spectra([1e4 * good, small])
    with pytest.raises(ValueError, match=r"square, got shape \(3, 4\)"):
        stacked_spectra([np.zeros((3, 4))])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sym_eigenvalues_rejects_non_finite(bad):
    # LAPACK returns garbage for these instead of failing
    with pytest.raises(ValueError, match="non-finite"):
        sym_eigenvalues(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        sym_eigenvalues(np.array([[1.0, bad], [bad, 1.0]]))


def complete(n):
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


CLOSED_FORMS = {
    "path": (path, lambda n: [2 - 2 * math.cos(math.pi * j / n) for j in range(n)]),
    "cycle": (cycle, lambda n: [2 - 2 * math.cos(2 * math.pi * j / n) for j in range(n)]),
    "complete": (complete, lambda n: [0.0] + [float(n)] * (n - 1)),
    "star": (star, lambda n: [0.0] + [1.0] * (n - 2) + [float(n)]),
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("n", [3, 4, 7, 16, 57, 128, 200])
def test_laplacian_spectrum_closed_forms(family, n):
    build, closed = CLOSED_FORMS[family]
    g = build(n)
    got = np.array(laplacian_spectrum(g).values)
    want = np.sort(closed(n))[::-1]
    # backward-stable solve: error within a small multiple of n * eps * ||L||_2,
    # and ||L||_2 <= 2 * max degree
    norm_bound = 2.0 * float(np.max(np.diagonal(laplacian(g))))
    assert np.max(np.abs(got - want)) <= 4 * n * np.finfo(float).eps * norm_bound


# --- Laplacian spectra ------------------------------------------------------------


def test_laplacian_spectrum_reproduces_reference_values():
    g, g2 = example_pair()
    assert laplacian_spectrum(g).rounded(5) == SPEC_BEFORE
    assert laplacian_spectrum(g2).rounded(5) == SPEC_AFTER


def test_laplacian_spectrum_cycle5_closed_form():
    # circulant closed form: 2 - 2cos(2*pi*j/5), each nonzero value twice
    want = sorted(
        (2 - 2 * math.cos(2 * math.pi * j / 5) for j in (1, 1, 2, 2)), reverse=True
    ) + [0.0]
    got = laplacian_spectrum(cycle(5)).values
    assert np.allclose(got, want, atol=1e-9)


def test_kernel_multiplicity_counts_components():
    g = Graph(7, [(1, 2), (2, 3), (4, 5), (6, 7)])
    assert laplacian_spectrum(g).multiplicity(0.0) == 3


def test_laplacian_energy_examples():
    assert laplacian_energy(path(2)) == pytest.approx(2.0, abs=1e-12)
    # independent hand sum over the reference spectrum of the 11-vertex example
    g, _ = example_pair()
    dbar = 30 / 11
    by_hand = sum(abs(v - dbar) for v in SPEC_BEFORE)
    assert laplacian_energy(g) == pytest.approx(by_hand, abs=1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_energy_definition_matches_sigma_form(seed):
    import random

    from lapeq.checks import random_graph

    rng = random.Random(seed)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 40), rng.uniform(0.1, 0.7))
        spec = laplacian_spectrum(g)
        dbar = 2 * g.num_edges / g.n
        sigma = sigma_count(spec, dbar)
        sigma_form = 2 * sum(spec[i] for i in range(sigma)) - 2 * sigma * dbar
        assert laplacian_energy(g) == pytest.approx(sigma_form, abs=1e-9)


def test_energy_report_fields():
    g, _ = example_pair()
    rep = energy_report(g)
    assert rep["n"] == 11
    assert rep["edges"] == 15
    assert rep["avg_degree"] == pytest.approx(30 / 11, abs=1e-15)
    assert rep["sigma"] == 4  # reference values at or above 30/11: 9.036, 4, 4, 3.618
    assert rep["energy"] == pytest.approx(laplacian_energy(g), abs=1e-12)


def test_energy_functions_reuse_a_given_spectrum():
    g, _ = example_pair()
    s = laplacian_spectrum(g)
    assert laplacian_energy(g, s) == laplacian_energy(g)
    assert energy_report(g, s) == energy_report(g)
    h, h2 = path(6), Graph(6, list(path(6).edges) + [(1, 3)])
    pair = (laplacian_spectrum(h), laplacian_spectrum(h2))
    assert delta_le(h, h2, spectra=pair) == delta_le(h, h2)
    # the given spectrum is what gets used
    assert laplacian_energy(path(2), Spectrum([4.0, 0.0])) == 4.0
    with pytest.raises(ValueError, match="vertices"):
        laplacian_energy(g, Spectrum(s.values[:-1]))
    with pytest.raises(ValueError, match="vertices"):
        delta_le(h, h2, spectra=(pair[0], Spectrum([1.0])))


# --- tridiagonal closed form ---------------------------------------------------------


def test_tridiagonal_matrix_assembly():
    t = TridiagonalSpec(a=-1, b=2, c=-1, alpha=1, beta=0, s=3)
    want = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    assert np.array_equal(t.matrix(), want)
    # both corner shifts land on the same cell at order 1
    assert TridiagonalSpec(-1, 2, -1, alpha=-1, beta=0, s=1).matrix() == np.array([[3.0]])


def test_tridiagonal_spectrum_validation():
    with pytest.raises(ValueError):
        tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=1, beta=0.5, s=3))
    with pytest.raises(ValueError):
        tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=0, beta=0, s=3))
    with pytest.raises(ValueError):
        tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=2, beta=0, s=3))
    with pytest.raises(ValueError):
        tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=1, beta=0, s=0))


def test_tridiagonal_spectrum_known_values():
    d3 = tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=1, beta=0, s=3))
    assert d3.rounded(6) == (3.24698, 1.554958, 0.198062)
    f1 = tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=-1, beta=0, s=1))
    assert f1.values == pytest.approx((3.0,), abs=1e-12)
    d2 = tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=1, beta=0, s=2))
    golden = (1 + math.sqrt(5)) / 2
    assert np.allclose(d2.values, (1 + golden, 2 - golden), atol=1e-12)  # 2.618034, 0.381966


@pytest.mark.parametrize("alpha", [1.0, -1.0])
@pytest.mark.parametrize("s", [1, 2, 5, 16])
def test_tridiagonal_matches_solver(alpha, s):
    t = TridiagonalSpec(-1, 2, -1, alpha=alpha, beta=0, s=s)
    closed = tridiagonal_spectrum(t).values
    solved = sym_eigenvalues(t.matrix()).values
    assert np.max(np.abs(np.array(closed) - np.array(solved))) <= 1e-9


def test_tridiagonal_matches_solver_nonunit_coefficients():
    t = TridiagonalSpec(a=-2, b=5, c=-2, alpha=2, beta=0, s=6)
    closed = tridiagonal_spectrum(t).values
    solved = sym_eigenvalues(t.matrix()).values
    assert np.max(np.abs(np.array(closed) - np.array(solved))) <= 1e-9


def test_replacement_spectra():
    removed, added = replacement_spectra(1)
    assert removed.values == pytest.approx((1.0,), abs=1e-12)
    assert added.values == pytest.approx((3.0,), abs=1e-12)
    removed, added = replacement_spectra(2)
    assert np.allclose(removed.values, (2.618034, 0.381966), atol=1e-6)
    assert np.allclose(added.values, (3.618034, 1.381966), atol=1e-6)
    with pytest.raises(ValueError):
        replacement_spectra(0)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 21])
def test_replacement_pair_sums(k):
    removed, added = replacement_spectra(k)
    # same j pairs descending removed with ascending added
    for x, y in zip(removed.values, sorted(added.values)):
        assert abs((x + y) - 4.0) <= 1e-12


def test_linked_core_matrix():
    h = linked_core_matrix(path(3), (1, 1, 1))
    assert np.array_equal(h, np.array([[2, -1, 0], [-1, 3, -1], [0, -1, 2]], dtype=float))
    assert np.array_equal(linked_core_matrix(path(2), (0, 1))[1], np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        linked_core_matrix(path(3), (1, 1))
    with pytest.raises(ValueError):
        linked_core_matrix(path(3), (1, 2, 0))


# --- multiset algebra -------------------------------------------------------------


def test_multiset_remove_identity_and_errors():
    s = Spectrum([4.0, 2.0, 1.0])
    assert multiset_remove(s, Spectrum([])) == s
    assert multiset_remove(s, Spectrum([2.0])).values == (4.0, 1.0)
    with pytest.raises(SpectrumMatchError):
        multiset_remove(Spectrum([4.0, 2.0, 1.0]), Spectrum([5.0]))


def test_multiset_remove_takes_nearest():
    assert multiset_remove(Spectrum([2.4, 1.9]), Spectrum([2.0]), 0.5).values == (2.4,)


def test_multiset_remove_replacement_identity():
    g, g2 = example_pair()
    d = sym_eigenvalues(linked_core_matrix(path(3), (1, 1, 1)))
    f = sym_eigenvalues(linked_core_matrix(path(3), (1, 1, 1)) + 2 * np.eye(3))
    common = multiset_remove(laplacian_spectrum(g), d)
    assert len(common) == 8
    predicted = multiset_union(common, f)
    assert cospectral(predicted, laplacian_spectrum(g2), tol=1e-8)


def test_cospectral():
    g, g2 = example_pair()
    assert not cospectral(laplacian_spectrum(g), laplacian_spectrum(g2))
    s = laplacian_spectrum(g)
    assert cospectral(s, s)
    assert not cospectral(Spectrum([1.0]), Spectrum([1.0, 2.0]))
    assert cospectral(Spectrum([1.0]), Spectrum([1.1]), tol=0.2)


values_strategy = st.lists(st.integers(-40, 40).map(lambda x: x / 2), min_size=1, max_size=12)


@given(base=values_strategy, extra=values_strategy)
def test_union_then_remove_round_trips(base, extra):
    s = Spectrum(base)
    f = Spectrum(extra)
    assert multiset_remove(multiset_union(s, f), f) == s


def test_multiset_remove_finds_non_greedy_matching():
    # nearest-value greedy pairs 1 with 1 + 0.99t and leaves 1 - 1.83t
    # without a partner; the matching 1 - 1.83t ~ 1 - 0.9t, 1 ~ 1 + 0.99t exists
    t = 1e-9
    s = Spectrum([1 + 0.99 * t, 1 - 0.9 * t])
    d = Spectrum([1.0, 1 - 1.83 * t])
    assert len(multiset_remove(s, d, t)) == 0
    rest = multiset_remove(multiset_union(s, Spectrum([5.0])), d, t)
    assert rest.values == (5.0,)


@given(
    values=st.lists(st.integers(-60, 60).map(lambda x: x / 64), min_size=1, max_size=15),
    data=st.data(),
)
def test_multiset_remove_accepts_any_perturbed_sub_multiset(values, data):
    # a 1/64 grid against tol = 0.1 puts several values within tol of each other
    tol = 0.1
    s = Spectrum(values)
    keep = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    shifts = data.draw(
        st.lists(st.floats(-0.99, 0.99), min_size=len(values), max_size=len(values))
    )
    d = Spectrum([v + tol * u for v, u, k in zip(values, shifts, keep) if k])
    rest = multiset_remove(s, d, tol)
    assert len(rest) == len(s) - len(d)


# --- energy difference formula -------------------------------------------------------


def test_delta_le_identical_graphs():
    g = star(6)
    assert delta_le(g, g) == pytest.approx(0.0, abs=1e-12)


def test_delta_le_matches_direct_difference():
    g = path(6)
    g2 = Graph(6, list(path(6).edges) + [(1, 3)])
    want = laplacian_energy(g2) - laplacian_energy(g)
    assert delta_le(g, g2) == pytest.approx(want, abs=1e-8)


def test_delta_le_validates():
    with pytest.raises(ValueError):
        delta_le(path(3), path(4))
    with pytest.raises(SigmaMismatchError):
        delta_le(path(4), star(4))
