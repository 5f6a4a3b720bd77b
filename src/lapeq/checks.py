"""Executable verification of the library's spectral claims.

Each check runs a claim as a computation and returns a CheckReport with the
numeric evidence; failures are reported, never raised, so batch runs always
complete. Random-instance suites take a seed and record it in the report.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .construct import (
    MirrorDecomposition,
    StarlikeSpec,
    build_mirror,
    cross_edge,
    generate_family,
    insert_cross_edges,
    spider,
    starlike_mirror,
    unit_vector,
)
from .graphs import Graph, average_degree, connected_components, cycle, path
from .spectra import (
    SPECTRUM_TOL,
    SigmaMismatchError,
    Spectrum,
    SpectrumMatchError,
    cospectral,
    delta_le,
    laplacian_energy,
    laplacian_spectrum,
    linked_core_matrix,
    multiset_remove,
    multiset_union,
    replacement_spectra,
    sigma_count,
    sym_eigenvalues,
)
from .treecount import _charpoly, jt_locate, sigma_tree

# Fixed tolerances, each recorded in its claim's report (laplacian_charpoly is
# exact and needs none): RESIDUAL_TOL for the replacement, path-replacement,
# energy and family residuals and every family decision, TRIG_TOL for the
# cosine half-sums; spectra.SPECTRUM_TOL for jt-oracle, structural, and sigma
# and odd-branch-experiment, whose companion count is a float count. energy
# alone has a second one: sigma_count checks its sigma hypothesis, at
# SPECTRUM_TOL, and takes no tolerance argument.
RESIDUAL_TOL = 1e-8
TRIG_TOL = 1e-12
# Core and host orders of random_mirror are drawn from 1..MAX_CORE and 1..MAX_HOST.
MAX_CORE = 6
MAX_HOST = 10
# odd_branch_experiment probes every even order 6..ODD_BRANCH_MAX_N.
ODD_BRANCH_MAX_N = 40
# Largest order of the small budget's energy and sigma sweeps, and of
# `lapeq verify energy|sigma` without --max-n.
SWEEP_MAX_N = 20


@dataclass(frozen=True)
class CheckReport:
    claim: str
    ok: bool
    tolerance: float | None
    evidence: dict = field(compare=False)
    seed: int | None = None

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "evidence": self.evidence,
        }


def format_report_table(reports: Sequence[CheckReport]) -> str:
    rows = [("claim", "status", "instances", "max residual", "tolerance")]
    for rep in reports:
        resid = rep.evidence.get("max_residual")
        rows.append(
            (
                rep.claim,
                rep.status,
                str(rep.evidence.get("instances", 1)),
                "-" if resid is None else f"{resid:.3e}",
                "-" if rep.tolerance is None else f"{rep.tolerance:g}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


# --- single-instance checks ---------------------------------------------------


def _replacement_report(
    claim: str,
    dec: MirrorDecomposition,
    cross: Sequence[int],
    removed: Spectrum,
    added: Spectrum,
    evidence: dict,
) -> CheckReport:
    """The replacement identity Lspect(g2) = (Lspect(g) without removed) plus
    added, g2 being dec.graph with the cross edges inserted; a removal that
    fails is reported as an error in the evidence."""
    g2 = insert_cross_edges(dec, cross)
    lg = laplacian_spectrum(dec.graph)
    lg2 = laplacian_spectrum(g2)
    evidence.update(
        n=dec.n, k=dec.k, removed=list(removed.values), added=list(added.values), max_residual=None
    )
    try:
        predicted = multiset_union(multiset_remove(lg, removed, RESIDUAL_TOL), added)
    except SpectrumMatchError as exc:
        evidence["error"] = str(exc)
        return CheckReport(claim, False, RESIDUAL_TOL, evidence)
    resid = max(abs(x - y) for x, y in zip(predicted.values, lg2.values, strict=True))
    evidence["max_residual"] = resid
    return CheckReport(claim, resid <= RESIDUAL_TOL, RESIDUAL_TOL, evidence)


def check_spectral_replacement(dec: MirrorDecomposition, cross: Sequence[int]) -> CheckReport:
    """Cross-edge insertion replaces the spectrum of the linked core block:
    spect(L(core) + link diag) leaves the Laplacian spectrum and
    spect(same + 2*cross diag) enters it."""
    h = linked_core_matrix(dec.core, dec.link)
    cross_v = tuple(map(operator.index, cross))
    removed = sym_eigenvalues(h)
    added = sym_eigenvalues(h + 2.0 * np.diag(np.asarray(cross_v, dtype=float)))
    evidence = {"link": list(dec.link), "cross": list(cross_v)}
    return _replacement_report("replacement", dec, cross_v, removed, added, evidence)


def check_path_replacement(dec: MirrorDecomposition) -> CheckReport:
    """Same replacement identity, path core linked at its far end, single
    cross edge between the outer ends: the closed-form cosine multisets are
    exactly what leaves and enters the spectrum."""
    k = dec.k
    if dec.core != path(k) or dec.link != unit_vector(k, k):
        raise ValueError("decomposition must be a path core linked at vertex k")
    removed, added = replacement_spectra(k)
    return _replacement_report("path-replacement", dec, unit_vector(k), removed, added, {})


def _starlike(branches: Sequence[int], ks: Iterable[int]) -> tuple[Graph, list[tuple[Graph, dict]]]:
    """The spider of branches, built once, and for each k in ks its companion
    with a cross edge between the first two length-k branches, with the
    evidence that names that instance."""
    tree = spider(branches)
    named = [{"n": tree.n, "k": k, "branches": list(branches)} for k in ks]
    return tree, [(tree.add_edges([cross_edge(branches, ev["k"])]), ev) for ev in named]


def _energy_outcomes(branches: Sequence[int], ks: Iterable[int]) -> Iterator[tuple[bool, dict]]:
    """(ok, evidence) of the energy claim for each k of one branch profile;
    the tree is solved once for all of them."""
    tree, companions = _starlike(branches, ks)
    spec_tree = laplacian_spectrum(tree)
    le_tree = laplacian_energy(tree, spec_tree)
    for g2, evidence in companions:
        spec_uni = laplacian_spectrum(g2)
        le_uni = laplacian_energy(g2, spec_uni)
        direct = le_uni - le_tree
        evidence.update(le_tree=le_tree, le_unicyclic=le_uni, direct_diff=direct)
        try:
            formula = delta_le(tree, g2, spectra=(spec_tree, spec_uni))
        except SigmaMismatchError as exc:
            evidence.update(error=str(exc), max_residual=None)
            yield False, evidence
            continue
        resid = max(abs(direct), abs(formula - direct))
        evidence.update(formula_diff=formula, max_residual=resid)
        yield resid <= RESIDUAL_TOL, evidence


def _sigma_outcomes(branches: Sequence[int], ks: Iterable[int]) -> Iterator[tuple[bool, dict]]:
    """(ok, evidence) of the sigma claim for each k of one branch profile:
    the tree's sigma is counted exactly, once; each companion's on its dense
    spectrum within SPECTRUM_TOL."""
    tree, companions = _starlike(branches, ks)
    s_tree = sigma_tree(tree)
    half_n = tree.n // 2
    for g2, evidence in companions:
        s_uni = sigma_count(laplacian_spectrum(g2), float(average_degree(g2)))
        evidence.update(sigma_tree=s_tree, sigma_unicyclic=s_uni, half_n=half_n)
        yield s_tree == s_uni == half_n, evidence


def _one_k(outcomes, spec: StarlikeSpec | Iterable[int], k: int) -> tuple[bool, dict]:
    """The one-k case of a per-profile outcome generator, for a replacement-
    eligible profile and an even k."""
    if k % 2:
        raise ValueError(f"k must be even, got {k}")
    branches = (spec if isinstance(spec, StarlikeSpec) else StarlikeSpec(spec)).branches
    return next(outcomes(branches, (k,)))


def check_energy_equality(spec: StarlikeSpec | Iterable[int], k: int) -> CheckReport:
    """A cross edge between the two length-k branches preserves Laplacian
    energy, and the partial-sum formula reproduces the (zero) difference;
    that formula's sigma hypothesis is checked by sigma_count at SPECTRUM_TOL."""
    ok, evidence = _one_k(_energy_outcomes, spec, k)
    return CheckReport("energy", ok, RESIDUAL_TOL, evidence)


def check_sigma(spec: StarlikeSpec | Iterable[int], k: int) -> CheckReport:
    """Both the tree and its cross-edge companion have exactly n/2 Laplacian
    eigenvalues at or above their average degree: exactly counted on the
    tree, and counted on the companion's dense spectrum within SPECTRUM_TOL."""
    ok, evidence = _one_k(_sigma_outcomes, spec, k)
    return CheckReport("sigma", ok, SPECTRUM_TOL, evidence)


def check_family(ell: int, gamma: int = 1, placement: str | Sequence[int] = "even") -> CheckReport:
    """The generated family is pairwise noncospectral with equal energies,
    and each cross edge strictly lowers the multiplicity of its top removed
    eigenvalue 2 + 2cos(2*pi/(4i+1)); all three decided at RESIDUAL_TOL."""
    graphs = generate_family(ell, gamma, placement)
    spectra = [laplacian_spectrum(g) for g in graphs]
    energies = [laplacian_energy(g, s) for g, s in zip(graphs, spectra)]
    spread = max(energies) - min(energies)

    cospectral_pairs = []
    for i in range(1, len(graphs)):
        for j in range(i + 1, len(graphs)):
            if cospectral(spectra[i], spectra[j], RESIDUAL_TOL):
                cospectral_pairs.append([i, j])

    multiplicities = []
    drops_ok = True
    for i in range(1, ell + 1):
        marker = 2.0 + 2.0 * math.cos(2.0 * math.pi / (4 * i + 1))
        m_base = spectra[0].multiplicity(marker, RESIDUAL_TOL)
        m_member = spectra[i].multiplicity(marker, RESIDUAL_TOL)
        multiplicities.append([m_base, m_member])
        if not (m_base >= 1 and m_member < m_base):
            drops_ok = False

    evidence = {
        "n": graphs[0].n,
        "members": ell,
        "energies": energies,
        "max_residual": spread,
        "cospectral_pairs": cospectral_pairs,
        "marker_multiplicities": multiplicities,
    }
    ok = spread <= RESIDUAL_TOL and not cospectral_pairs and drops_ok
    return CheckReport("family", ok, RESIDUAL_TOL, evidence)


def check_trig_identity(k_max: int) -> CheckReport:
    """sum_{j=1..k} cos(2j*pi/(2k+1)) = -1/2 for every k up to k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    resids = [
        abs(math.fsum(math.cos(2.0 * j * math.pi / (2 * k + 1)) for j in range(1, k + 1)) + 0.5)
        for k in range(1, k_max + 1)
    ]
    outcomes = ((r <= TRIG_TOL, r, {"k": k, "residual": r}) for k, r in enumerate(resids, 1))
    worst_k = 1 + resids.index(max(resids))
    return _suite("trig", TRIG_TOL, outcomes, f"k = 1..{k_max}", k_max=k_max, worst_k=worst_k)


# --- random instances ----------------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
    ]
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labeled tree by decoding a random Pruefer sequence."""
    if n == 1:
        return Graph(1)
    import heapq

    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_mirror(rng: random.Random) -> tuple[MirrorDecomposition, tuple[int, ...]]:
    """A random mirror decomposition plus a random cross vector."""
    k = rng.randint(1, MAX_CORE)
    core = random_graph(rng, k, 0.5)
    m = rng.randint(1, MAX_HOST)
    host = random_graph(rng, m, 0.4)
    root = rng.randint(1, m)
    link = tuple(rng.randint(0, 1) for _ in range(k))
    cross = tuple(rng.randint(0, 1) for _ in range(k))
    return build_mirror(core, host, root, link), cross


# --- suites ---------------------------------------------------------------------


def _suite(
    claim: str,
    tol: float,
    outcomes: Iterable[tuple[bool, float | None, dict]],
    grid: str,
    seed: int | None = None,
    **grid_fields,
) -> CheckReport:
    """A claim's report from one pass over its per-instance (ok, residual,
    record) triples: the instance count, the first 10 failing records and the
    count of all, the worst residual if any instance has one, then the grid
    fields. ValueError when the grid, described by `grid`, yields nothing."""
    instances, worst, failures = 0, None, []
    for ok, resid, record in outcomes:
        instances += 1
        if resid is not None and (worst is None or resid > worst):
            worst = resid
        if not ok:
            failures.append(record)
    if not instances:
        raise ValueError(f"nothing to check: {grid} is empty")
    evidence = {"instances": instances, "failures": failures[:10], "failure_count": len(failures)}
    if worst is not None:
        evidence["max_residual"] = worst
    evidence.update(grid_fields)
    return CheckReport(claim, not failures, tol, evidence, seed)


def replacement_suite(count: int = 50, seed: int = 7) -> CheckReport:
    rng = random.Random(seed)

    def outcomes():
        for i in range(count):
            dec, cross = random_mirror(rng)
            rep = check_spectral_replacement(dec, cross)
            resid = rep.evidence["max_residual"]
            yield rep.ok, resid, {"instance": i, "n": dec.n, "k": dec.k, "residual": resid}

    grid = f"the grid of count={count} random mirrors"
    return _suite(
        "replacement", RESIDUAL_TOL, outcomes(), grid, seed, max_core=MAX_CORE, max_host=MAX_HOST
    )


def path_replacement_examples() -> CheckReport:
    """Fixed path-core instances: the smallest starlike member, one tree
    viewed two ways over its repeated branch lengths, an odd path core, and a
    cycle host (the wider class: any host, path core linked at its far end)."""
    examples = [
        ("starlike-2-2-1-k2", starlike_mirror((2, 2, 1), 2)),
        ("starlike-4-4-2-2-3-k2", starlike_mirror((2, 2, 4, 4, 3), 2)),
        ("starlike-4-4-2-2-3-k4", starlike_mirror((2, 2, 4, 4, 3), 4)),
        ("spider-3-3-2-k3", starlike_mirror((3, 3, 2), 3)),
        ("cycle-host-k3", build_mirror(path(3), cycle(5), 1, unit_vector(3, 3))),
        ("cycle-host-k1", build_mirror(path(1), cycle(5), 2, unit_vector(1, 1))),
    ]

    def outcomes():
        for name, dec in examples:
            rep = check_path_replacement(dec)
            resid = rep.evidence["max_residual"]
            yield rep.ok, resid, {"instance": name, "n": dec.n, "k": dec.k, "residual": resid}

    names = [name for name, _ in examples]
    return _suite("path-replacement", RESIDUAL_TOL, outcomes(), "the examples", examples=names)


def iter_starlike_specs(max_n: int) -> Iterator[StarlikeSpec]:
    """Every replacement-eligible branch profile with at most max_n vertices,
    in canonical form, each exactly once (ascending by n, then by odd length,
    then lexicographic even parts)."""

    def even_partitions(total: int, minimum: int) -> Iterator[tuple[int, ...]]:
        # nondecreasing even parts >= minimum summing to total
        if total == 0:
            yield ()
            return
        part = minimum
        while part <= total:
            for rest in even_partitions(total - part, part):
                yield (part,) + rest
            part += 2

    for n in range(6, max_n + 1, 2):
        total = n - 1
        for odd in range(1, total - 3, 2):
            if 2 * odd >= n:
                break
            for evens in even_partitions(total - odd, 2):
                if not any(evens.count(b) >= 2 for b in set(evens)):
                    continue
                yield StarlikeSpec(evens + (odd,))


def energy_sweep(max_n: int = 30) -> CheckReport:
    """The energy claim over every eligible branch profile with n <= max_n
    and every admissible even branch length, one tree solve per profile."""
    specs = list(iter_starlike_specs(max_n))

    def outcomes():
        for spec in specs:
            for ok, ev in _energy_outcomes(spec.branches, spec.admissible_lengths()):
                resid = ev["max_residual"]
                yield ok, resid, {"branches": ev["branches"], "k": ev["k"], "residual": resid}

    where = f"the starlike grid up to max_n={max_n}"
    return _suite("energy", RESIDUAL_TOL, outcomes(), where, max_n=max_n, specs=len(specs))


def _sigma_suite(claim: str, profiles, grid: str, max_n: int) -> CheckReport:
    """The sigma claim over the (branches, ks) profiles of the named grid,
    one exact tree count per profile."""
    keys = ("branches", "k", "sigma_tree", "sigma_unicyclic")
    outcomes = (
        (ok, None, {key: ev[key] for key in keys})
        for branches, ks in profiles
        for ok, ev in _sigma_outcomes(branches, ks)
    )
    where = f"the {grid} grid up to max_n={max_n}"
    return _suite(claim, SPECTRUM_TOL, outcomes, where, max_n=max_n)


def sigma_sweep(max_n: int = 30) -> CheckReport:
    """The sigma claim over the same instance grid as energy_sweep."""
    profiles = ((spec.branches, spec.admissible_lengths()) for spec in iter_starlike_specs(max_n))
    return _sigma_suite("sigma", profiles, "starlike", max_n)


def family_sweep(ells: Sequence[int] = (2, 3), gammas: Sequence[int] = (1, 2)) -> CheckReport:
    """check_family at every (ell, gamma) with even and with odd placement;
    gamma = 1 leaves no filler to place, so its one family is checked once."""

    def outcomes():
        for ell in ells:
            for gamma in gammas:
                for placement in ("even", "odd") if gamma > 1 else ("even",):
                    rep = check_family(ell, gamma, placement)
                    resid = rep.evidence["max_residual"]
                    label = {"ell": ell, "gamma": gamma, "placement": placement}
                    yield rep.ok, resid, {**label, "n": rep.evidence["n"], "residual": resid}

    grid = f"the family grid of ells={list(ells)} and gammas={list(gammas)}"
    return _suite("family", RESIDUAL_TOL, outcomes(), grid, ells=list(ells), gammas=list(gammas))


def jt_oracle_suite(count: int = 50, seed: int = 7, max_n: int = 200) -> CheckReport:
    """Exact tree counts vs the dense eigensolver. Eigenvalues farther than
    SPECTRUM_TOL from alpha classify strictly; anything inside the band is ambiguous,
    and the exact count must place it consistently."""
    rng = random.Random(seed)

    def outcomes():
        for i in range(count):
            n = rng.randint(1, max_n)
            tree = random_tree(rng, n)
            den = rng.randint(1, 10)
            alpha = Fraction(rng.randint(0, n * den), den)
            res = jt_locate(tree, alpha, root=rng.randint(1, n))
            spec = laplacian_spectrum(tree)
            af = float(alpha)
            strict_above = sum(1 for v in spec if v > af + SPECTRUM_TOL)
            strict_below = sum(1 for v in spec if v < af - SPECTRUM_TOL)
            amb = n - strict_above - strict_below
            ok = res.above >= strict_above and res.below >= strict_below and res.equal <= amb
            yield ok, None, {
                "instance": i,
                "n": n,
                "alpha": str(alpha),
                "jt": [res.above, res.equal, res.below],
                "dense_strict": [strict_above, amb, strict_below],
            }

    results = list(outcomes())
    ambiguous = sum(1 for _, _, record in results if record["dense_strict"][1])
    grid = f"the grid of count={count} random trees"
    return _suite(
        "jt-oracle", SPECTRUM_TOL, results, grid, seed, max_n=max_n, ambiguous_instances=ambiguous
    )


def structural_suite(count: int = 100, seed: int = 7, max_n: int = 100) -> CheckReport:
    """Spectrum sum = 2*edges and kernel multiplicity = component count on
    random graphs."""
    rng = random.Random(seed)

    def outcomes():
        for i in range(count):
            n = rng.randint(1, max_n)
            g = random_graph(rng, n, rng.uniform(0.02, 0.6))
            spec = laplacian_spectrum(g)
            trace_resid = abs(spec.sum() - 2.0 * g.num_edges)
            kernel = spec.multiplicity(0.0, SPECTRUM_TOL)
            comps = len(connected_components(g))
            ok = trace_resid <= SPECTRUM_TOL and kernel == comps
            yield ok, trace_resid, {
                "instance": i,
                "n": n,
                "trace_residual": trace_resid,
                "kernel": kernel,
                "components": comps,
            }

    grid = f"the grid of count={count} random graphs"
    return _suite("structural", SPECTRUM_TOL, outcomes(), grid, seed, max_n=max_n)


def odd_branch_experiment() -> CheckReport:
    """Probe sigma = n/2, on sigma_sweep's grid walk, on the (k, k, odd)
    spiders of up to ODD_BRANCH_MAX_N vertices whose odd branch breaks the
    < n/2 bound (beyond proven territory). Observational: the report always
    passes, and lists and counts the instances that break sigma = n/2."""

    def profiles():
        # not iter_starlike_specs: these profiles break StarlikeSpec's odd < n/2 rule
        for n in range(6, ODD_BRANCH_MAX_N + 1, 2):
            for k in range(2, n, 2):
                odd = n - 1 - 2 * k
                if 2 * odd >= n:
                    yield (k, k, odd), (k,)

    report = _sigma_suite("odd-branch-experiment", profiles(), "odd-branch", ODD_BRANCH_MAX_N)
    return replace(report, ok=True)


def laplacian_charpoly(g: Graph) -> tuple[int, ...]:
    """Coefficients (leading first) of det(xI - L) as exact integers; the
    tolerance-free oracle for cospectrality. treecount._charpoly with the
    degrees on the diagonal: forests and graphs with one cycle take one
    big-integer determinant, others division-free Berkowitz."""
    return _charpoly(g, g.degrees())


_BUDGETS = {
    "small": {
        "replacement_count": 50,
        "starlike_max_n": SWEEP_MAX_N,
        "family_ells": (2, 3),
        "family_gammas": (1, 2),
        "trig_k_max": 200,
        "jt_count": 60,
        "jt_max_n": 60,
        "structural_count": 150,
        "structural_max_n": 60,
    },
    "full": {
        "replacement_count": 500,
        "starlike_max_n": 30,
        "family_ells": (2, 3, 4, 5),
        "family_gammas": (1, 2, 3),
        "trig_k_max": 1000,
        "jt_count": 500,
        "jt_max_n": 200,
        "structural_count": 1000,
        "structural_max_n": 100,
    },
}


def run_all(seed: int = 7, budget: str = "small") -> list[CheckReport]:
    """The whole battery, odd-branch probe included, ordered by claim name."""
    if budget not in _BUDGETS:
        raise ValueError(f"budget must be one of {sorted(_BUDGETS)}, got {budget!r}")
    b = _BUDGETS[budget]
    reports = [
        replacement_suite(count=b["replacement_count"], seed=seed),
        path_replacement_examples(),
        energy_sweep(max_n=b["starlike_max_n"]),
        sigma_sweep(max_n=b["starlike_max_n"]),
        family_sweep(ells=b["family_ells"], gammas=b["family_gammas"]),
        check_trig_identity(b["trig_k_max"]),
        jt_oracle_suite(count=b["jt_count"], seed=seed, max_n=b["jt_max_n"]),
        structural_suite(count=b["structural_count"], seed=seed, max_n=b["structural_max_n"]),
        odd_branch_experiment(),
    ]
    return sorted(reports, key=lambda r: r.claim)
