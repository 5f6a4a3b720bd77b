import json
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lapeq.checks
import lapeq.construct
import lapeq.graphs
import lapeq.spectra
import lapeq.treecount
from lapeq.checks import (
    CheckReport,
    check_energy_equality,
    check_family,
    check_path_replacement,
    check_sigma,
    check_spectral_replacement,
    check_trig_identity,
    energy_sweep,
    family_sweep,
    format_report_table,
    iter_starlike_specs,
    jt_oracle_suite,
    laplacian_charpoly,
    odd_branch_experiment,
    path_replacement_examples,
    random_graph,
    random_mirror,
    random_tree,
    replacement_suite,
    run_all,
    sigma_sweep,
    structural_suite,
)
from lapeq.cli import main
from lapeq.construct import (
    MirrorDecomposition,
    build_mirror,
    build_starlike,
    family_branches,
    generate_family,
    insert_cross_edges,
    starlike_mirror,
    unit_vector,
)
from lapeq.graphs import Graph, average_degree, classify, cycle, path
from lapeq.spectra import cospectral, laplacian_energy, laplacian_spectrum, sigma_count
from lapeq.treecount import _charpoly


# --- report plumbing -----------------------------------------------------------


def test_check_report_round_trip():
    rep = CheckReport("demo", True, 1e-8, {"max_residual": 2e-12, "instances": 3}, seed=5)
    assert rep.status == "pass"
    d = json.loads(json.dumps(rep.to_dict()))  # as `lapeq verify` writes it
    assert d["claim"] == "demo"
    assert d["status"] == "pass"
    assert d["seed"] == 5
    assert d["evidence"]["instances"] == 3
    assert CheckReport("demo", False, None, {}).status == "fail"


def test_format_report_table():
    reps = [
        CheckReport("alpha", True, 1e-8, {"max_residual": 3.5e-10, "instances": 12}),
        CheckReport("beta", False, None, {}),
    ]
    table = format_report_table(reps)
    lines = table.splitlines()
    assert lines[0].split() == ["claim", "status", "instances", "max", "residual", "tolerance"]
    assert "alpha" in lines[2] and "pass" in lines[2] and "3.500e-10" in lines[2]
    assert "beta" in lines[3] and "fail" in lines[3]


# --- single-instance checks -------------------------------------------------------


def example_dec():
    return build_mirror(path(3), cycle(5), root=1, link=(1, 1, 1))


def test_replacement_check_reference_example():
    rep = check_spectral_replacement(example_dec(), (1, 1, 1))
    assert rep.ok
    assert rep.claim == "replacement"
    assert np.allclose(rep.evidence["removed"], (4.0, 2.0, 1.0), atol=1e-9)
    assert np.allclose(rep.evidence["added"], (6.0, 4.0, 3.0), atol=1e-9)
    assert rep.evidence["max_residual"] <= 1e-8


def test_replacement_check_zero_cross_is_identity():
    rep = check_spectral_replacement(example_dec(), (0, 0, 0))
    assert rep.ok
    assert rep.evidence["removed"] == rep.evidence["added"]


def test_replacement_check_rejects_a_non_integral_cross():
    with pytest.raises(TypeError):  # int() read (1, 0.5, 1) as (1, 0, 1)
        check_spectral_replacement(example_dec(), (1, 0.5, 1))


def test_replacement_check_reports_failure_without_raising():
    # shape-valid decomposition whose graph was never mirror-assembled
    dec = MirrorDecomposition(path(2), path(1), root=1, link=(1, 1), graph=path(5))
    rep = check_spectral_replacement(dec, (0, 0))
    assert not rep.ok
    assert "error" in rep.evidence
    assert rep.evidence["max_residual"] is None


def test_path_replacement_check():
    rep = check_path_replacement(starlike_mirror((2, 2, 1), 2))
    assert rep.ok
    assert rep.claim == "path-replacement"
    assert np.allclose(rep.evidence["removed"], (2.618034, 0.381966), atol=1e-6)
    assert np.allclose(rep.evidence["added"], (3.618034, 1.381966), atol=1e-6)


def test_path_replacement_accepts_decomposition():
    dec = build_mirror(path(3), cycle(5), root=1, link=unit_vector(3, 3))
    rep = check_path_replacement(dec)
    assert rep.ok
    assert rep.evidence["k"] == 3


def test_path_replacement_validation():
    with pytest.raises(ValueError):
        check_path_replacement(build_mirror(cycle(3), path(2), 1, (1, 1, 1)))
    with pytest.raises(ValueError):
        check_path_replacement(build_mirror(path(3), path(2), 1, (1, 0, 0)))


def test_energy_check_smallest():
    rep = check_energy_equality((2, 2, 1), 2)
    assert rep.ok
    assert rep.evidence["direct_diff"] == pytest.approx(0.0, abs=1e-8)
    assert rep.evidence["formula_diff"] == pytest.approx(0.0, abs=1e-8)
    assert rep.evidence["le_tree"] == pytest.approx(rep.evidence["le_unicyclic"], abs=1e-8)


def test_energy_check_forty_four_vertices():
    spec = family_branches(4, 2)
    for k in spec.admissible_lengths():
        rep = check_energy_equality(spec, k)
        assert rep.ok
        assert rep.evidence["le_tree"] == pytest.approx(60.706984, abs=1e-5)


@pytest.fixture
def solve_orders(monkeypatch):
    """The order of every matrix the dense eigensolver solves, one entry per
    matrix of each stack, whichever module calls it."""
    orders = []
    solve = lapeq.spectra.stacked_spectra

    def counted(ms, *args, **kwargs):
        orders.extend(len(m) for m in ms)
        return solve(ms, *args, **kwargs)

    for mod in (lapeq.spectra, lapeq.checks):
        monkeypatch.setattr(mod, "stacked_spectra", counted)
    return orders


def test_each_spectrum_is_solved_once(solve_orders, capsys):
    assert check_family(4, 2).ok
    assert solve_orders == [44] * 5
    solve_orders.clear()
    assert check_energy_equality((4, 4, 2, 2, 3), 4).ok
    assert solve_orders == [16, 16]
    solve_orders.clear()
    for fmt in ("text", "json", "csv"):
        assert main(["spectrum", "cycle:9", "--format", fmt]) == 0
    assert solve_orders == [9] * 3


def test_sweeps_solve_and_count_each_tree_once(solve_orders, monkeypatch):
    # 29 profiles up to n = 14, 30 instances: (2, 2, 4, 4, 1) admits k = 2 and k = 4
    counts = []
    locate = lapeq.treecount.jt_locate

    def counted(g, *args, **kwargs):
        counts.append(g.n)
        return locate(g, *args, **kwargs)

    monkeypatch.setattr(lapeq.treecount, "jt_locate", counted)
    energy = energy_sweep(max_n=14)
    assert (energy.evidence["specs"], energy.evidence["instances"]) == (29, 30)
    assert len(solve_orders) == 29 + 30 and counts == []
    solve_orders.clear()
    assert sigma_sweep(max_n=14).evidence["instances"] == 30
    assert (len(counts), len(solve_orders)) == (29, 30)


@pytest.mark.parametrize("claim", ["energy", "sigma"])
def test_stacked_sweeps_match_one_solve_per_graph(claim, monkeypatch):
    # each run of one order is one stack, and every outcome, in grid order,
    # holds what a solve of its own graphs gives
    stacks = []
    solve = lapeq.spectra.stacked_spectra

    def counted(ms):
        stacks.append(len(ms[0]))
        return solve(ms)

    monkeypatch.setattr(lapeq.spectra, "stacked_spectra", counted)
    profiles = [(s.branches, s.admissible_lengths()) for s in iter_starlike_specs(16)]
    outcomes = {"energy": lapeq.checks._energy_outcomes, "sigma": lapeq.checks._sigma_outcomes}
    results = list(outcomes[claim](profiles))
    assert stacks == [6, 8, 10, 12, 14, 16]
    instances = [(list(branches), k) for branches, ks in profiles for k in ks]
    assert [(ev["branches"], ev["k"]) for _, ev in results] == instances
    for (ok, ev), (branches, k) in zip(results, instances):
        tree = lapeq.construct.spider(branches)
        g2 = tree.add_edges([lapeq.construct.cross_edge(branches, k)])
        assert ok
        if claim == "energy":
            assert ev["le_tree"] == laplacian_energy(tree)
            assert ev["le_unicyclic"] == laplacian_energy(g2)
        else:
            spec = laplacian_spectrum(g2)
            assert ev["sigma_unicyclic"] == sigma_count(spec, float(average_degree(g2)))


def test_companions_skip_the_mirror_round_trip(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("companions are built from branch lengths alone")

    for module, name in [
        (lapeq.construct, "starlike_mirror"),
        (lapeq.checks, "starlike_mirror"),
        (Graph, "relabel"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    assert check_family(3, 1).ok
    assert check_energy_equality((4, 4, 2, 2, 3), 2).ok
    assert check_sigma((4, 4, 2, 2, 3), 2).ok
    rep = odd_branch_experiment()
    assert rep.ok and rep.evidence["instances"] > 0


def test_energy_check_rejects_odd_k():
    with pytest.raises(ValueError):
        check_energy_equality((2, 2, 1), 1)


def test_sigma_check():
    rep = check_sigma((2, 2, 1), 2)
    assert rep.ok
    assert rep.tolerance == 1e-9
    assert rep.evidence["sigma_tree"] == rep.evidence["sigma_unicyclic"] == 3
    rep44 = check_sigma(family_branches(4, 2), 8)
    assert rep44.ok
    assert rep44.evidence["half_n"] == 22
    with pytest.raises(ValueError):
        check_sigma((2, 2, 1), 3)


def test_check_sigma_walks_the_tree_once(monkeypatch):
    # counts every walk: the graph's cached one and jt_locate's from other roots
    walks = []
    walk = lapeq.graphs._walk

    def counted(adj, roots):
        walks.append(len(adj) - 1)
        return walk(adj, roots)

    monkeypatch.setattr(lapeq.graphs, "_walk", counted)
    monkeypatch.setattr(lapeq.treecount, "_walk", counted)
    assert check_sigma((4, 4, 2, 2, 3), 2).ok
    assert walks == [16]  # sigma_tree walks the tree; the companion is never walked
    tree = build_starlike((4, 4, 2, 2, 3))
    assert lapeq.treecount.sigma_tree(tree) == 8
    assert walks == [16, 16]
    assert lapeq.treecount.sigma_tree(tree) == 8  # the second count reads the cached walk
    assert walks == [16, 16]


def test_family_check():
    rep = check_family(2, 1)
    assert rep.ok
    assert rep.evidence["n"] == 14
    assert rep.evidence["cospectral_pairs"] == []
    assert len(rep.evidence["energies"]) == 3
    assert rep.evidence["max_residual"] <= 1e-8
    for m_base, m_member in rep.evidence["marker_multiplicities"]:
        assert m_base >= 1 and m_member < m_base


def test_family_decides_at_its_recorded_tolerance(monkeypatch):
    # a tolerance of 1.0 merges neighbouring eigenvalues: if noncospectrality
    # and the marker counts are decided at the recorded tolerance, both move
    base = check_family(3, 2)
    assert base.ok and base.evidence["marker_multiplicities"] == [[2, 1], [1, 0], [1, 0]]
    monkeypatch.setattr(lapeq.checks, "RESIDUAL_TOL", 1.0)
    rep = check_family(3, 2)
    assert rep.tolerance == 1.0
    assert not rep.ok
    assert rep.evidence["cospectral_pairs"] == [[1, 2], [1, 3], [2, 3]]
    assert rep.evidence["marker_multiplicities"] != base.evidence["marker_multiplicities"]


def test_trig_check(monkeypatch):
    rep = check_trig_identity(1)
    assert rep.ok
    assert rep.evidence["max_residual"] <= 1e-12
    assert rep.evidence["instances"] == rep.evidence["k_max"] == rep.evidence["worst_k"] == 1
    monkeypatch.setattr(lapeq.checks, "TRIG_TOL", 0.0)
    assert not check_trig_identity(5).ok  # cosine sums carry rounding
    with pytest.raises(ValueError):
        check_trig_identity(0)


def test_trig_failures_list_their_k(monkeypatch):
    base = check_trig_identity(12)
    monkeypatch.setattr(lapeq.checks, "TRIG_TOL", -1.0)  # no residual is <= -1
    rep = check_trig_identity(12)
    assert not rep.ok
    assert rep.evidence["failure_count"] == 12
    assert [f["k"] for f in rep.evidence["failures"]] == list(range(1, 11))
    worst = max(rep.evidence["failures"], key=lambda f: f["residual"])
    assert rep.evidence["max_residual"] == base.evidence["max_residual"] >= worst["residual"]
    assert rep.evidence["worst_k"] == base.evidence["worst_k"]


# --- instance enumeration -----------------------------------------------------------


def partitions(total, minimum=1):
    if total == 0:
        yield ()
        return
    for part in range(minimum, total + 1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def eligible_branch_profiles(max_n):
    """Brute-force reference: every branch multiset passing the eligibility
    rules, canonical form, for any vertex count up to max_n."""
    found = set()
    for n in range(4, max_n + 1):
        for parts in partitions(n - 1):
            if len(parts) < 3:
                continue
            odds = [b for b in parts if b % 2]
            if len(odds) != 1 or 2 * odds[0] >= n:
                continue
            evens = sorted(b for b in parts if b % 2 == 0)
            if not any(evens.count(b) >= 2 for b in set(evens)):
                continue
            found.add(tuple(evens) + (odds[0],))
    return found


def test_iter_starlike_specs_matches_brute_force():
    got = {spec.branches for spec in iter_starlike_specs(16)}
    assert got == eligible_branch_profiles(16)
    assert len(got) == 53


def test_iter_starlike_specs_count_at_thirty():
    specs = list(iter_starlike_specs(30))
    assert len(specs) == 1194
    assert len({s.branches for s in specs}) == 1194  # no duplicates
    assert sum(len(s.admissible_lengths()) for s in specs) == 1513
    assert all(s.n <= 30 for s in specs)


# --- random generators ---------------------------------------------------------------


def test_random_tree_properties():
    rng = random.Random(5)
    for n in (1, 2, 3, 17, 40):
        g = random_tree(rng, n)
        assert g.n == n
        assert g.num_edges == n - 1
        if n > 1:
            assert classify(g) == "tree"
    assert random_tree(random.Random(9), 12) == random_tree(random.Random(9), 12)


def test_random_graph_extremes():
    rng = random.Random(0)
    assert random_graph(rng, 6, 0.0).num_edges == 0
    assert random_graph(rng, 6, 1.0).num_edges == 15


def test_random_mirror_shapes():
    rng = random.Random(3)
    for _ in range(20):
        dec, cross = random_mirror(rng)
        assert 1 <= dec.k <= 6
        assert 1 <= dec.host.n <= 10
        assert len(dec.link) == dec.k == len(cross)
        assert dec.n == 2 * dec.k + dec.host.n


# --- suites -------------------------------------------------------------------


def test_replacement_suite():
    rep = replacement_suite(count=20, seed=7)
    assert rep.ok
    assert rep.seed == 7
    assert rep.evidence["instances"] == 20
    assert rep.evidence["failure_count"] == 0
    assert rep.evidence["max_residual"] <= 1e-8


def test_suites_refuse_an_empty_grid():
    with pytest.raises(ValueError, match="nothing to check: .*count=0.* is empty"):
        replacement_suite(count=0)
    with pytest.raises(ValueError, match="max_n=4 is empty"):
        energy_sweep(max_n=4)
    with pytest.raises(ValueError, match="max_n=2 is empty"):
        sigma_sweep(max_n=2)
    with pytest.raises(ValueError, match=r"ells=\[\] .* is empty"):
        family_sweep(ells=())


def test_path_replacement_examples():
    rep = path_replacement_examples()
    assert rep.ok
    assert rep.evidence["instances"] == 6
    names = rep.evidence["examples"]
    assert "spider-3-3-2-k3" in names  # odd core length works too
    assert "cycle-host-k1" in names


def test_energy_and_sigma_sweeps():
    e = energy_sweep(max_n=16)
    s = sigma_sweep(max_n=16)
    assert e.ok and s.ok
    assert e.evidence["specs"] == 53
    assert e.evidence["instances"] == s.evidence["instances"]
    assert e.evidence["max_residual"] <= 1e-8


def test_family_sweep():
    rep = family_sweep(ells=(2,), gammas=(1, 2))
    assert rep.ok
    assert rep.evidence["instances"] == 3  # gamma = 1 has one family, not one per placement
    assert (rep.evidence["ells"], rep.evidence["gammas"]) == ([2], [1, 2])
    assert family_sweep(ells=(2, 3, 4, 5), gammas=(1, 2, 3)).evidence["instances"] == 20


def test_fixed_instance_failures_carry_their_labels(monkeypatch):
    monkeypatch.setattr(lapeq.checks, "RESIDUAL_TOL", -1.0)  # no residual is <= -1
    paths = path_replacement_examples()
    assert not paths.ok
    assert paths.evidence["failure_count"] == 6
    assert [f["instance"] for f in paths.evidence["failures"]] == paths.evidence["examples"]
    fam = family_sweep(ells=(2,), gammas=(1, 2))
    assert not fam.ok
    assert fam.tolerance == -1.0
    cells = [(f["ell"], f["gamma"], f["placement"], f["n"]) for f in fam.evidence["failures"]]
    assert cells == [(2, 1, "even", 14), (2, 2, "even", 16), (2, 2, "odd", 16)]


def test_jt_oracle_suite(monkeypatch):
    rep = jt_oracle_suite(count=40, seed=11, max_n=50)
    assert rep.ok
    assert rep.seed == 11
    assert rep.evidence["failure_count"] == 0
    assert rep.evidence["ambiguous_instances"] == 1
    monkeypatch.setattr(lapeq.checks, "SPECTRUM_TOL", 1e9)  # every eigenvalue is in the band
    assert jt_oracle_suite(count=40, seed=11, max_n=50).evidence["ambiguous_instances"] == 40


def test_structural_suite():
    rep = structural_suite(count=60, seed=13, max_n=40)
    assert rep.ok
    assert rep.evidence["max_residual"] <= 1e-9


def test_suite_failures_keep_the_first_ten_and_count_all(monkeypatch):
    monkeypatch.setattr(lapeq.checks, "SPECTRUM_TOL", -1.0)  # no residual is <= -1
    rep = structural_suite(count=15)
    assert not rep.ok
    assert rep.evidence["instances"] == 15
    assert rep.evidence["failure_count"] == 15
    assert [f["instance"] for f in rep.evidence["failures"]] == list(range(10))
    worst_kept = max(f["trace_residual"] for f in rep.evidence["failures"])
    assert rep.evidence["max_residual"] >= worst_kept


SUITE_KEYS = {"instances", "failures", "failure_count"}
RESIDUAL_KEYS = SUITE_KEYS | {"max_residual"}
EVIDENCE_KEYS = {
    "energy": RESIDUAL_KEYS | {"max_n", "specs"},
    "family": RESIDUAL_KEYS | {"ells", "gammas"},
    "jt-oracle": SUITE_KEYS | {"max_n", "ambiguous_instances"},
    "odd-branch-experiment": SUITE_KEYS | {"max_n"},
    "path-replacement": RESIDUAL_KEYS | {"examples"},
    "replacement": RESIDUAL_KEYS | {"max_core", "max_host"},
    "sigma": SUITE_KEYS | {"max_n"},
    "structural": RESIDUAL_KEYS | {"max_n"},
    "trig": RESIDUAL_KEYS | {"k_max", "worst_k"},
}
TOLERANCES = {
    "energy": 1e-8,
    "family": 1e-8,
    "jt-oracle": 1e-9,
    "odd-branch-experiment": 1e-9,
    "path-replacement": 1e-8,
    "replacement": 1e-8,
    "sigma": 1e-9,
    "structural": 1e-9,
    "trig": 1e-12,
}


def test_evidence_keys_are_stable():
    reports = run_all(budget="small")
    assert {rep.claim: set(rep.evidence) for rep in reports} == EVIDENCE_KEYS
    assert {rep.claim: rep.tolerance for rep in reports} == TOLERANCES
    replaced = {"n", "k", "removed", "added", "max_residual"}
    named = {"n", "k", "branches"}
    single = [
        (check_spectral_replacement(example_dec(), (1, 1, 1)), replaced | {"link", "cross"}),
        (check_path_replacement(starlike_mirror((2, 2, 1), 2)), replaced),
        (check_energy_equality((2, 2, 1), 2), named | {
            "le_tree", "le_unicyclic", "direct_diff", "formula_diff", "max_residual"}),
        (check_sigma((2, 2, 1), 2), named | {"sigma_tree", "sigma_unicyclic", "half_n"}),
    ]
    for rep, keys in single:
        assert set(rep.evidence) == keys, rep.claim


def test_odd_branch_experiment_is_observational():
    rep = odd_branch_experiment()
    assert rep.ok  # always: it records observations, it proves nothing
    assert rep.claim == "odd-branch-experiment"
    assert rep.tolerance == 1e-9
    assert rep.evidence == {"instances": 40, "failures": [], "failure_count": 0, "max_n": 40}


def test_odd_branch_experiment_lists_breaks_without_failing(monkeypatch):
    true_count = lapeq.checks.sigma_tree
    monkeypatch.setattr(lapeq.checks, "sigma_tree", lambda tree: true_count(tree) + 1)
    rep = odd_branch_experiment()
    assert rep.ok  # a break is an observation, not a failure of the battery
    assert rep.evidence["instances"] == rep.evidence["failure_count"] == 40
    assert len(rep.evidence["failures"]) == 10
    for record in rep.evidence["failures"]:
        n = 1 + sum(record["branches"])
        assert 2 * record["branches"][-1] >= n  # exactly the cases the proven bound excludes
        assert record["sigma_tree"] == record["sigma_unicyclic"] + 1
    assert not sigma_sweep(8).ok


# --- integer characteristic polynomial --------------------------------------------


def test_charpoly_small_graphs():
    assert laplacian_charpoly(path(2)) == (1, -2, 0)
    assert laplacian_charpoly(path(3)) == (1, -4, 3, 0)  # roots 3, 1, 0
    assert laplacian_charpoly(Graph(1)) == (1, 0)


@pytest.mark.parametrize("g", [path(5), cycle(6), build_starlike((2, 2, 1))])
def test_charpoly_matches_spectrum(g):
    coeffs = laplacian_charpoly(g)
    from_spectrum = np.poly(np.array(laplacian_spectrum(g).values))
    assert np.allclose(coeffs, from_spectrum, atol=1e-6)


def test_charpoly_is_relabel_invariant():
    g = build_starlike((2, 2, 1))
    shuffled = g.relabel({1: 4, 2: 6, 3: 1, 4: 2, 5: 3, 6: 5})
    assert laplacian_charpoly(shuffled) == laplacian_charpoly(g)


def test_family_members_distinct_by_exact_charpoly():
    fam = generate_family(2, 1)
    polys = [laplacian_charpoly(g) for g in fam]
    assert len(set(polys[1:])) == len(polys) - 1  # members pairwise distinct
    # exact disagreement must agree with the float cospectrality verdict
    specs = [laplacian_spectrum(g) for g in fam]
    for i in range(1, len(fam)):
        for j in range(i + 1, len(fam)):
            assert (polys[i] == polys[j]) == cospectral(specs[i], specs[j])


def _det(rows):
    """Exact integer determinant by Bareiss elimination with row swaps."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _char_value(g, x):
    """det(xI - L) from the edge list, with no use of Graph.adjacency."""
    rows = [[x if i == j else 0 for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        rows[u - 1][u - 1] -= 1
        rows[v - 1][v - 1] -= 1
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = 1
    return _det(rows)


def _evaluate(coeffs, x):
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _assert_exact_charpoly(g):
    coeffs = laplacian_charpoly(g)
    # monic of degree n and equal to det(xI - L) at n points: the same polynomial
    assert len(coeffs) == g.n + 1 and coeffs[0] == 1
    for x in range(g.n):
        assert _evaluate(coeffs, x) == _char_value(g, x), x


small_graphs = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
    ).map(
        lambda bits: Graph(
            n, [e for e, b in zip(combinations(range(1, n + 1), 2), bits) if b]
        )
    )
)


@settings(deadline=None)
@given(g=small_graphs)
def test_charpoly_equals_exact_determinant(g):
    _assert_exact_charpoly(g)


@pytest.mark.parametrize(
    "g",
    [
        Graph(1),
        Graph(7, [(1, 3), (3, 6), (6, 7)]),  # 2, 4 and 5 isolated
        Graph(6, list(combinations(range(1, 7), 2))),  # K6
        build_starlike((4, 4, 2, 2, 3)).relabel(
            dict(zip(range(1, 17), random.Random(5).sample(range(1, 17), 16)))
        ),
    ],
    ids=["single-vertex", "isolated-vertices", "K6", "relabelled-starlike"],
)
def test_charpoly_equals_exact_determinant_on_fixed_graphs(g):
    _assert_exact_charpoly(g)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _core_charpoly(dec, cross):
    """chi of H + 2Z, with H = L(core) + diag(link) and Z = diag(cross)."""
    diagonal = [
        d + link + 2 * c for d, link, c in zip(dec.core.degrees(), dec.link, cross)
    ]
    return _charpoly(dec.core, diagonal)


def test_replacement_identity_holds_exactly():
    crossed = 0
    for seed in range(30):
        dec, cross = random_mirror(random.Random(seed))
        crossed += any(cross)
        g2 = insert_cross_edges(dec, cross)
        left = _poly_mul(laplacian_charpoly(g2), _core_charpoly(dec, [0] * dec.k))
        assert left == _poly_mul(laplacian_charpoly(dec.graph), _core_charpoly(dec, cross)), seed
        # one cross bit flipped on the right-hand side only: the trace of H + 2Z
        # moves by 2, so the identity must break
        flipped = (1 - cross[0], *cross[1:])
        assert left != _poly_mul(laplacian_charpoly(dec.graph), _core_charpoly(dec, flipped)), seed
    assert crossed >= 20


@pytest.mark.parametrize("ell, gamma", product(range(2, 11), range(1, 4)))
def test_family_charpoly_at_paper_scale(ell, gamma):
    fam = generate_family(ell, gamma)
    polys = [laplacian_charpoly(g) for g in fam]
    assert len(set(polys)) == len(polys)  # base and members pairwise distinct
    n = fam[0].n
    for i, coeffs in enumerate(polys):
        # matrix-tree theorem: the x coefficient is (-1)^(n-1) n tau, with tau = 1
        # for the base tree and 4i + 1, the length of the cycle, for member i
        tau = 4 * i + 1 if i else 1
        assert coeffs[-2] == (-1) ** (n - 1) * n * tau
        assert coeffs[-1] == 0


# --- the whole battery -----------------------------------------------------------


def test_run_all_small_budget():
    reports = run_all(budget="small")
    claims = [r.claim for r in reports]
    assert claims == sorted(claims)
    assert "odd-branch-experiment" in claims
    assert len(claims) == 9
    assert all(r.ok for r in reports)


def test_every_claim_reports_through_one_helper(monkeypatch):
    claims = []
    suite = lapeq.checks._suite

    def recorded(claim, *args, **kwargs):
        claims.append(claim)
        return suite(claim, *args, **kwargs)

    monkeypatch.setattr(lapeq.checks, "_suite", recorded)
    reports = run_all(budget="small")
    assert sorted(claims) == [r.claim for r in reports]
    assert len(claims) == 9
    assert next(r for r in reports if r.claim == "family").evidence["instances"] == 6


def test_run_all_rejects_unknown_budget():
    with pytest.raises(ValueError):
        run_all(budget="huge")
