"""Results computed apart from lapeq, and the checks that hold lapeq's outputs
against them.

Everything here uses numpy and the standard library only and never imports
lapeq: graphs are plain (n, edge list) pairs, spectra come from LAPACK
(`numpy.linalg.eigvalsh`) on a Laplacian assembled here, exact values come from
Bareiss determinants. Each `check_*` function returns a list of error strings;
an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Edges = Sequence[tuple[int, int]]

SPECTRUM_TOL = 1e-8  # lapeq's own default check tolerance
MULTIPLICITY_TOL = 1e-7
JT_AMBIGUITY = 1e-6  # eigenvalues this close to alpha are not compared
SIGMA_TOL = 1e-9


# --- graphs built here -------------------------------------------------------


def spider_edges(branches: Sequence[int]) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """Starlike tree with center 1 and one path per branch length.

    Returns (n, edges, paths) where paths[b] lists branch b's vertices from
    the center outward.
    """
    edges, paths, nxt = [], [], 2
    for length in branches:
        prev, seq = 1, []
        for _ in range(length):
            edges.append((prev, nxt))
            seq.append(nxt)
            prev = nxt
            nxt += 1
        paths.append(seq)
    return nxt - 1, edges, paths


def family_profile(ell: int, gamma: int, placement) -> list[int]:
    """Branch lengths of the base tree of family (ell, gamma, placement):
    two branches of each even length 2..2*ell, one odd branch, and
    2*(gamma - 1) filler vertices as extra even branches or a longer odd one."""
    evens = [2 * i for i in range(1, ell + 1) for _ in range(2)]
    odd = 1
    if placement == "even":
        evens += [2] * (gamma - 1)
    elif placement == "odd":
        odd += 2 * (gamma - 1)
    else:
        evens += list(placement)
    return evens + [odd]


def family_graphs(ell: int, gamma: int, placement) -> list[tuple[int, list[tuple[int, int]]]]:
    """Base tree and its ell unicyclic members, member i closing a cycle
    through the outer ends of the two length-2i branches."""
    n, edges, paths = spider_edges(family_profile(ell, gamma, placement))
    out = [(n, edges)]
    for i in range(1, ell + 1):
        ends = [p[-1] for p in paths if len(p) == 2 * i][:2]
        out.append((n, edges + [(ends[0], ends[1])]))
    return out


def relabel(n: int, edges: Edges, perm: Sequence[int]) -> list[tuple[int, int]]:
    """Edges after renaming vertex v to perm[v - 1]."""
    return [(perm[u - 1], perm[v - 1]) for u, v in edges]


def mirror_edges(
    k: int, core: Edges, m: int, host: Edges, root: int, link: Sequence[int], cross: Sequence[int]
) -> tuple[int, set[tuple[int, int]]]:
    """Mirror graph in the canonical labelling: core copies on 1..k and
    k+1..2k, host root at 2k+1, other host vertices on 2k+2.. in host order;
    cross edges {i, k+i} wherever cross[i-1] = 1."""
    hostmap = {root: 2 * k + 1}
    for offset, v in enumerate(v for v in range(1, m + 1) if v != root):
        hostmap[v] = 2 * k + 2 + offset
    out = set()
    for u, v in core:
        out.add((u, v))
        out.add((u + k, v + k))
    for u, v in host:
        a, b = hostmap[u], hostmap[v]
        out.add((min(a, b), max(a, b)))
    for i in range(1, k + 1):
        if link[i - 1]:
            out.add((i, 2 * k + 1))
            out.add((i + k, 2 * k + 1))
        if cross[i - 1]:
            out.add((i, k + i))
    return 2 * k + m, out


def eligible_instances(max_n: int) -> int:
    """Brute-force count of (branch profile, k) pairs with n <= max_n: every
    partition of n - 1 into at least 3 parts with exactly one odd part, that
    part below n/2, and k ranging over the even parts that appear twice."""

    def partitions(total: int, largest: int):
        if total == 0:
            yield []
            return
        for part in range(min(total, largest), 0, -1):
            for rest in partitions(total - part, part):
                yield [part] + rest

    count = 0
    for n in range(2, max_n + 1):
        for parts in partitions(n - 1, n - 1):
            odd = [p for p in parts if p % 2]
            if len(parts) < 3 or len(odd) != 1 or 2 * odd[0] >= n:
                continue
            count += len({p for p in parts if p % 2 == 0 and parts.count(p) >= 2})
    return count


# --- structure ---------------------------------------------------------------


def adjacency(n: int, edges: Edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def components(n: int, edges: Edges) -> int:
    adj, seen, count = adjacency(n, edges), [False] * (n + 1), 0
    for s in range(1, n + 1):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        queue = [s]
        for v in queue:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return count


def cycle_length(n: int, edges: Edges) -> int:
    """Length of the one cycle of a connected unicyclic graph, 0 for a tree:
    connectivity by breadth-first search, then the cycle is what is left
    after stripping leaves."""
    if components(n, edges) != 1:
        raise ValueError("graph is not connected")
    if len(edges) == n - 1:
        return 0
    if len(edges) != n:
        raise ValueError(f"graph has {len(edges)} edges on {n} vertices: not unicyclic")
    adj = adjacency(n, edges)
    deg = [len(a) for a in adj]
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    alive = [True] * (n + 1)
    while leaves:
        v = leaves.pop()
        alive[v] = False
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    leaves.append(w)
    return sum(alive[1:])


# --- numbers -------------------------------------------------------------------


def laplacian(n: int, edges: Edges) -> np.ndarray:
    m = np.zeros((n, n))
    if edges:
        e = np.asarray(list(edges), dtype=np.intp) - 1
        np.add.at(m, (e[:, 0], e[:, 1]), -1.0)
        np.add.at(m, (e[:, 1], e[:, 0]), -1.0)
        np.add.at(m, (e[:, 0], e[:, 0]), 1.0)
        np.add.at(m, (e[:, 1], e[:, 1]), 1.0)
    return m


def spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending."""
    return np.linalg.eigvalsh(m)[::-1]


def energy(spec: np.ndarray, n: int, num_edges: int) -> float:
    return math.fsum(abs(float(x) - 2.0 * num_edges / n) for x in spec)


def sigma(spec: np.ndarray, n: int, num_edges: int) -> int:
    return int(np.sum(spec >= 2.0 * num_edges / n - SIGMA_TOL))


def multiplicity(spec: np.ndarray, x: float) -> int:
    return int(np.sum(np.abs(spec - x) <= MULTIPLICITY_TOL))


def marker(i: int) -> float:
    """The eigenvalue 2 + 2cos(2*pi/(4i+1)) that member i loses once."""
    return 2.0 + 2.0 * math.cos(2.0 * math.pi / (4 * i + 1))


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri, rik = a[i], a[i][k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - rik * rk[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def int_laplacian(n: int, edges: Edges) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u - 1][v - 1] -= 1
        m[v - 1][u - 1] -= 1
        m[u - 1][u - 1] += 1
        m[v - 1][v - 1] += 1
    return m


def char_value(m: list[list[int]], x: int) -> int:
    """det(x*I - m), exactly."""
    n = len(m)
    return bareiss_det([[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)])


def charpoly(m: list[list[int]]) -> tuple[int, ...]:
    """det(x*I - m) as integer coefficients, leading first, by interpolating
    exact determinants at x = 0..n."""
    n = len(m)
    xs = list(range(n + 1))
    c = [Fraction(char_value(m, x)) for x in xs]
    for j in range(1, n + 1):  # Newton divided differences
        for i in range(n, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    poly = [c[n]]  # ascending coefficients of the Newton form, Horner-expanded
    for i in range(n - 1, -1, -1):
        shifted = [Fraction(0)] + poly
        for d in range(len(poly)):
            shifted[d] -= xs[i] * poly[d]
        shifted[0] += c[i]
        poly = shifted
    if any(p.denominator != 1 for p in poly):
        raise ArithmeticError("interpolated characteristic polynomial is not integral")
    return tuple(int(p) for p in reversed(poly))


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_eval(p: Sequence[int], x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def spanning_trees(n: int, edges: Edges) -> int:
    """Matrix-tree theorem: any cofactor of the integer Laplacian."""
    m = int_laplacian(n, edges)
    return bareiss_det([row[1:] for row in m[1:]])


# --- checks --------------------------------------------------------------------


def _close(a: Iterable[float], b: Iterable[float], tol: float) -> bool:
    a, b = list(a), list(b)
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def family_oracle(ell: int, gamma: int, placement, lapeq_graphs: list[tuple[int, Edges]]) -> dict:
    """Expected evidence of check_family, computed from lapeq's own family
    graphs and from the family built here."""
    errors = []
    n = 2 * ell * ell + 2 * ell + 2 * gamma
    own = family_graphs(ell, gamma, placement)
    specs = []
    for idx, ((gn, ge), (on, oe)) in enumerate(zip(lapeq_graphs, own)):
        if gn != n:
            errors.append(f"graph {idx} has {gn} vertices, expected {n}")
        want = 0 if idx == 0 else 4 * idx + 1
        try:
            got = cycle_length(gn, ge)
        except ValueError as exc:
            errors.append(f"graph {idx}: {exc}")
        else:
            if got != want:
                errors.append(f"graph {idx} has cycle length {got}, expected {want}")
        s = spectrum(laplacian(gn, ge))
        if not _close(s, spectrum(laplacian(on, oe)), SPECTRUM_TOL):
            errors.append(f"graph {idx} is not cospectral with the family built here")
        specs.append((s, gn, len(ge)))
    if len(lapeq_graphs) != ell + 1:
        errors.append(f"family has {len(lapeq_graphs)} graphs, expected {ell + 1}")
    for i in range(1, len(specs)):
        for j in range(i + 1, len(specs)):
            if _close(specs[i][0], specs[j][0], 1e-6):
                errors.append(f"members {i} and {j} are cospectral")
    markers = [
        [multiplicity(specs[0][0], marker(i)), multiplicity(specs[i][0], marker(i))]
        for i in range(1, len(specs))
    ]
    if any(not b > m >= 0 for b, m in markers):
        errors.append(f"marker multiplicities do not drop: {markers}")
    energies = [energy(s, gn, ge) for s, gn, ge in specs]
    if max(energies) - min(energies) > SPECTRUM_TOL:
        errors.append(f"oracle energies differ across the family: {energies}")
    return {"n": n, "energies": energies, "markers": markers, "errors": errors}


def check_family(ok: bool, evidence: dict, oracle: dict) -> list[str]:
    errors = list(oracle["errors"])
    if not ok:
        errors.append("check_family reported failure")
    if evidence.get("n") != oracle["n"]:
        errors.append(f"n = {evidence.get('n')}, expected {oracle['n']}")
    energies = evidence.get("energies", [])
    if not _close(energies, oracle["energies"], SPECTRUM_TOL):
        errors.append(f"energies {energies} differ from oracle {oracle['energies']}")
    elif max(energies) - min(energies) > SPECTRUM_TOL:
        errors.append(f"energies are not equal across the family: {energies}")
    if evidence.get("cospectral_pairs"):
        errors.append(f"reported cospectral pairs {evidence['cospectral_pairs']}")
    if evidence.get("marker_multiplicities") != oracle["markers"]:
        errors.append(
            f"marker multiplicities {evidence.get('marker_multiplicities')} != {oracle['markers']}"
        )
    return errors


def check_spectrum_json(payload: dict, n: int, edges: Edges) -> list[str]:
    """`lapeq spectrum --format json` of a unicyclic graph against the oracle."""
    errors = []
    s = spectrum(laplacian(n, edges))
    if payload.get("n") != n or payload.get("edges") != len(edges):
        errors.append(f"size {payload.get('n')}/{payload.get('edges')}, expected {n}/{len(edges)}")
    if payload.get("class") != "unicyclic":
        errors.append(f"class {payload.get('class')!r}, expected 'unicyclic'")
    if not _close(payload.get("spectrum", []), s, SPECTRUM_TOL):
        errors.append("spectrum differs from the oracle")
    if not abs(payload.get("energy", math.nan) - energy(s, n, len(edges))) <= SPECTRUM_TOL:
        errors.append(f"energy {payload.get('energy')} differs from the oracle")
    if payload.get("sigma") != sigma(s, n, len(edges)) or payload.get("sigma") != n // 2:
        errors.append(f"sigma {payload.get('sigma')}, expected {n // 2}")
    return errors


def check_sweep_report(payload: list, claim: str, instances: int, tol: float | None) -> list[str]:
    """A `lapeq verify energy|sigma --report` file over the whole sweep."""
    if len(payload) != 1:
        return [f"expected one report, got {len(payload)}"]
    rep, errors = payload[0], []
    ev = rep.get("evidence", {})
    if rep.get("claim") != claim or rep.get("status") != "pass":
        errors.append(f"report {rep.get('claim')}: {rep.get('status')}")
    if ev.get("instances") != instances:
        errors.append(f"{ev.get('instances')} instances, brute force counts {instances}")
    if ev.get("failure_count") != 0:
        errors.append(f"failure_count {ev.get('failure_count')}")
    if tol is not None and not (0 <= ev.get("max_residual", math.inf) <= tol):
        errors.append(f"max_residual {ev.get('max_residual')} above {tol}")
    return errors


def sweep_oracle(max_n: int, profiles: list[tuple[list[int], int]]) -> list[str]:
    """Equal energy and sigma = n/2 for every (profile, k) of the sweep, from
    graphs built here; profiles must match the brute-force count."""
    errors = []
    if len(profiles) != eligible_instances(max_n):
        errors.append("sweep instance list disagrees with brute force")
    for branches, k in profiles:
        n, edges, paths = spider_edges(branches)
        ends = [p[-1] for p in paths if len(p) == k][:2]
        s_tree = spectrum(laplacian(n, edges))
        uni = edges + [tuple(ends)]
        s_uni = spectrum(laplacian(n, uni))
        if abs(energy(s_tree, n, len(edges)) - energy(s_uni, n, len(uni))) > SPECTRUM_TOL:
            errors.append(f"energy differs for {branches}, k={k}")
        if not sigma(s_tree, n, len(edges)) == sigma(s_uni, n, len(uni)) == n // 2:
            errors.append(f"sigma != n/2 for {branches}, k={k}")
    return errors


def check_energy_instance(branches: list[int], k: int, evidence: dict) -> list[str]:
    """`lapeq verify energy --branches B --k K` evidence against the tree and
    its cross-edge companion built here."""
    n, edges, paths = spider_edges(branches)
    ends = [p[-1] for p in paths if len(p) == k][:2]
    uni = edges + [tuple(ends)]
    want = [energy(spectrum(laplacian(n, g)), n, len(g)) for g in (edges, uni)]
    got = [evidence.get("le_tree", math.nan), evidence.get("le_unicyclic", math.nan)]
    errors = []
    if evidence.get("n") != n or not _close(got, want, SPECTRUM_TOL):
        errors.append(f"n={evidence.get('n')} energies {got}, oracle n={n} {want}")
    if not abs(evidence.get("formula_diff", math.nan)) <= SPECTRUM_TOL:
        errors.append(f"formula_diff {evidence.get('formula_diff')}")
    return errors


def replacement_oracle(
    k: int, core: Edges, link: Sequence[int], cross: Sequence[int], n: int, g: Edges, g2: Edges
) -> dict:
    """spect(H), spect(H + 2Z) and the replacement identity
    spect(G') + spect(H) = spect(G) + spect(H + 2Z), H = L(core) + diag(link)."""
    h = laplacian(k, core) + np.diag(np.asarray(link, dtype=float))
    h2 = h + 2.0 * np.diag(np.asarray(cross, dtype=float))
    removed, added = spectrum(h), spectrum(h2)
    lhs = np.sort(np.concatenate([spectrum(laplacian(n, g2)), removed]))
    rhs = np.sort(np.concatenate([spectrum(laplacian(n, g)), added]))
    errors = [] if _close(lhs, rhs, SPECTRUM_TOL) else ["replacement identity fails in the oracle"]
    return {"removed": removed, "added": added, "errors": errors}


def check_replacement(ok: bool, evidence: dict, oracle: dict) -> list[str]:
    errors = list(oracle["errors"])
    if not ok:
        errors.append(f"check_spectral_replacement reported failure: {evidence.get('error')}")
    if not _close(evidence.get("removed", []), oracle["removed"], SPECTRUM_TOL):
        errors.append("removed eigenvalues differ from the oracle")
    if not _close(evidence.get("added", []), oracle["added"], SPECTRUM_TOL):
        errors.append("added eigenvalues differ from the oracle")
    resid = evidence.get("max_residual")
    if resid is None or not resid <= SPECTRUM_TOL:
        errors.append(f"max_residual {resid}")
    return errors


def check_jt(n: int, alpha: Fraction, counts: Sequence[int], spec: np.ndarray | None) -> list[str]:
    """jt_locate's (above, equal, below) at alpha on an n-vertex tree."""
    above, equal, below = counts
    errors = []
    if min(counts) < 0 or above + equal + below != n:
        errors.append(f"counts {tuple(counts)} do not sum to n = {n}")
    if alpha == 0 and tuple(counts) != (n - 1, 1, 0):
        errors.append(f"counts {tuple(counts)} at alpha = 0, expected {(n - 1, 1, 0)}")
    if alpha > n and tuple(counts) != (0, 0, n):
        errors.append(f"counts {tuple(counts)} at alpha > n, expected {(0, 0, n)}")
    if spec is not None:
        a = float(alpha)
        if np.min(np.abs(spec - a)) > JT_AMBIGUITY:
            want = (int(np.sum(spec > a)), 0, int(np.sum(spec < a)))
            if tuple(counts) != want:
                errors.append(f"counts {tuple(counts)} at alpha = {alpha}, oracle {want}")
    return errors


def check_sigma_tree(n: int, got: int, spec: np.ndarray, num_edges: int) -> list[str]:
    if got != n // 2 or got != sigma(spec, n, num_edges):
        return [f"sigma_tree = {got}, expected n/2 = {n // 2} (oracle {sigma(spec, n, num_edges)})"]
    return []


def check_charpoly(coeffs: Sequence[int], n: int, edges: Edges, tau: int, values: dict[int, int]) -> list[str]:
    """Coefficients of det(xI - L): leading 1, then -2e, then
    (4e^2 - sum d^2 - 2e)/2, constant 0, |x coefficient| = n * tau, and the
    exact value det(xI - L) at each x in values."""
    e = len(edges)
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    c = list(coeffs)
    if len(c) != n + 1:
        return [f"degree {len(c) - 1}, expected {n}"]
    errors = []
    expect = {0: 1, 1: -2 * e, n: 0}
    if n >= 2:
        expect[2] = (4 * e * e - sum(d * d for d in deg) - 2 * e) // 2
    for i, want in sorted(expect.items()):
        if c[i] != want:
            errors.append(f"coefficient of x^{n - i} is {c[i]}, expected {want}")
    if abs(c[n - 1]) != n * tau:
        errors.append(f"|coefficient of x| is {abs(c[n - 1])}, expected n*tau = {n * tau}")
    for x, want in values.items():
        if poly_eval(c, x) != want:
            errors.append(f"polynomial at x = {x} is {poly_eval(c, x)}, det(xI - L) = {want}")
    return errors


def check_distinct(polys: Sequence[Sequence[int]]) -> list[str]:
    seen = {}
    errors = []
    for i, p in enumerate(polys):
        if tuple(p) in seen:
            errors.append(f"graphs {seen[tuple(p)]} and {i} share a characteristic polynomial")
        seen.setdefault(tuple(p), i)
    return errors
