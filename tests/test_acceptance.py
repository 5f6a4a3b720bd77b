"""End-to-end acceptance battery.

Eight criteria, each a single test printing one PASS/FAIL line with the
measured residuals. Budgets and tolerances are fixed; seeds are fixed; any
red line here means the package does not do what it claims.
"""

import time

import numpy as np

from lapeq.checks import (
    check_trig_identity,
    energy_sweep,
    jt_oracle_suite,
    replacement_suite,
    sigma_sweep,
    structural_suite,
)
from lapeq.construct import build_mirror, generate_family, insert_cross_edges
from lapeq.graphs import classify, cycle, path
from lapeq.spectra import (
    TridiagonalSpec,
    cospectral,
    laplacian_energy,
    laplacian_spectrum,
    linked_core_matrix,
    sym_eigenvalues,
    tridiagonal_spectrum,
)

REFERENCE_BEFORE = (9.03601, 4.0, 4.0, 3.61803, 2.47142, 2.0, 2.0, 1.38197, 1.0, 0.49257, 0.0)
REFERENCE_AFTER = (9.03601, 6.0, 4.0, 4.0, 3.61803, 3.0, 2.47142, 2.0, 1.38197, 0.49257, 0.0)


def report(index, name, ok, detail):
    print(f"[{index}/8] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_1_reference_example_replacement():
    t0 = time.perf_counter()
    dec = build_mirror(path(3), cycle(5), root=1, link=(1, 1, 1))
    h = linked_core_matrix(dec.core, dec.link)
    removed = sym_eigenvalues(h)
    added = sym_eigenvalues(h + 2.0 * np.eye(3))
    d_resid = max(abs(x - y) for x, y in zip(removed.values, (4.0, 2.0, 1.0)))
    f_resid = max(abs(x - y) for x, y in zip(added.values, (6.0, 4.0, 3.0)))
    before = laplacian_spectrum(dec.graph).rounded(5)
    after = laplacian_spectrum(insert_cross_edges(dec, (1, 1, 1))).rounded(5)
    elapsed = time.perf_counter() - t0
    ok = (
        d_resid <= 1e-9
        and f_resid <= 1e-9
        and before == REFERENCE_BEFORE
        and after == REFERENCE_AFTER
        and elapsed < 1.0
    )
    report(1, "11-vertex reference replacement", ok,
           f"block residuals {max(d_resid, f_resid):.2e}, 5dp spectra "
           f"{'match' if before == REFERENCE_BEFORE and after == REFERENCE_AFTER else 'MISMATCH'}, "
           f"{elapsed:.2f}s")


def test_2_equal_energy_family():
    t0 = time.perf_counter()
    fam = generate_family(4, 2)
    energies = [laplacian_energy(g) for g in fam]
    spectra = [laplacian_spectrum(g) for g in fam]
    spread = max(energies) - min(energies)
    reference_dev = max(abs(e - 60.70698) for e in energies)
    pairs_ok = not any(
        cospectral(spectra[i], spectra[j])
        for i in range(1, len(fam))
        for j in range(i + 1, len(fam))
    )
    shapes_ok = (
        len(fam) == 5
        and all(g.n == 44 for g in fam)
        and all(classify(g) == "unicyclic" for g in fam[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = shapes_ok and spread <= 1e-4 and reference_dev <= 1e-4 and pairs_ok and elapsed < 5.0
    report(2, "equal-energy family of five", ok,
           f"spread {spread:.2e}, vs reference value {reference_dev:.2e}, "
           f"noncospectral {pairs_ok}, {elapsed:.2f}s")


def test_3_random_mirror_suite():
    t0 = time.perf_counter()
    rep = replacement_suite(count=500, seed=7)
    elapsed = time.perf_counter() - t0
    ok = (rep.ok and rep.tolerance == 1e-8 and elapsed < 30.0
          and (rep.evidence["max_core"], rep.evidence["max_host"]) == (6, 10))
    report(3, "500 random mirror replacements", ok,
           f"max residual {rep.evidence['max_residual']:.2e}, "
           f"{rep.evidence['failure_count']} failures, {elapsed:.2f}s")


def test_4_exhaustive_energy_sweep():
    rep = energy_sweep(max_n=30)
    report(4, "energy equality, all instances to 30 vertices", rep.ok and rep.tolerance == 1e-8,
           f"{rep.evidence['instances']} instances, "
           f"max residual {rep.evidence['max_residual']:.2e}")


def test_5_exact_count_oracle_and_sigma():
    jt = jt_oracle_suite(count=500, seed=7, max_n=200)
    sg = sigma_sweep(max_n=30)
    ok = jt.ok and jt.tolerance == 1e-9 and sg.ok
    report(5, "exact tree counts vs dense solver, sigma = n/2", ok,
           f"{jt.evidence['instances']} trees ({jt.evidence['ambiguous_instances']} near-tie), "
           f"{sg.evidence['instances']} sigma instances, "
           f"{jt.evidence['failure_count'] + sg.evidence['failure_count']} failures")


def test_6_tridiagonal_closed_form():
    worst = 0.0
    for s in range(1, 65):
        for alpha in (1.0, -1.0):
            t = TridiagonalSpec(-1, 2, -1, alpha=alpha, beta=0, s=s)
            closed = np.array(tridiagonal_spectrum(t).values)
            solved = np.array(sym_eigenvalues(t.matrix()).values)
            worst = max(worst, float(np.max(np.abs(closed - solved))))
    ok = worst <= 1e-9
    report(6, "closed-form tridiagonal spectra to order 64", ok, f"max residual {worst:.2e}")


def test_7_cosine_identity():
    rep = check_trig_identity(1000)
    report(7, "cosine half-sum identity to k=1000", rep.ok and rep.tolerance == 1e-12,
           f"max residual {rep.evidence['max_residual']:.2e} at k={rep.evidence['worst_k']}")


def test_8_structural_invariants():
    rep = structural_suite(count=1000, seed=7, max_n=100)
    report(8, "trace and kernel invariants on 1000 random graphs", rep.ok and rep.tolerance == 1e-9,
           f"max trace residual {rep.evidence['max_residual']:.2e}, "
           f"{rep.evidence['failure_count']} failures")
