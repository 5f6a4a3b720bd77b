"""Shows that the benchmark's checks reject corrupted outputs.

    python3 perfbench/selftest.py

Each case takes a real lapeq output, confirms the check accepts it, then
corrupts it (a perturbed energy, a swapped count, an off-by-one coefficient,
and a few more) and confirms the check rejects it. Exits 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from lapeq import checks, construct, graphs, spectra, treecount  # noqa: E402


def cases():
    """(name, genuine errors, corrupted errors) for each check."""
    fam = construct.generate_family(2, 2)
    fam_oracle = oracle.family_oracle(2, 2, "even", [(g.n, g.edges) for g in fam])
    rep = checks.check_family(2, 2)
    bad = copy.deepcopy(rep.evidence)
    bad["energies"][1] += 1e-6
    yield "family: perturbed energy", oracle.check_family(rep.ok, rep.evidence, fam_oracle), \
        oracle.check_family(rep.ok, bad, fam_oracle)
    bad = copy.deepcopy(rep.evidence)
    bad["marker_multiplicities"][0][1] += 1
    yield "family: marker multiplicity", [], oracle.check_family(rep.ok, bad, fam_oracle)

    rng = random.Random(5)
    edges = workloads._prufer_tree(rng, 300)
    tree = graphs.Graph(300, edges)
    spec = oracle.spectrum(oracle.laplacian(300, edges))
    for alpha in (Fraction(7, 3), Fraction(0), Fraction(301)):
        above, equal, below = treecount.jt_locate(tree, alpha).counts
        yield f"jt_locate at {alpha}: swapped count", \
            oracle.check_jt(300, alpha, (above, equal, below), spec), \
            oracle.check_jt(300, alpha, (below, equal, above), spec)

    n, member = oracle.family_graphs(2, 2, "odd")[1]
    inp = workloads.CharpolyInput(n, member)
    coeffs = list(checks.laplacian_charpoly(inp.graph))
    for i in (1, 5, n - 1):
        bad = coeffs[:]
        bad[i] += 1
        yield f"charpoly: off-by-one x^{n - i} coefficient", inp.verify(coeffs), inp.verify(bad)
    base = workloads.CharpolyInput(*oracle.family_graphs(2, 2, "odd")[0])
    base_poly = checks.laplacian_charpoly(base.graph)
    yield "charpoly: repeated polynomial", oracle.check_distinct([base_poly, coeffs]), \
        oracle.check_distinct([base_poly, coeffs, coeffs])

    g = graphs.Graph(n, member)
    s = spectra.laplacian_spectrum(g)
    payload = dict(spectra.energy_report(g), spectrum=list(s.values), **{"class": "unicyclic"})
    bad = dict(payload, energy=payload["energy"] + 1e-6)
    yield "spectrum json: perturbed energy", oracle.check_spectrum_json(payload, n, member), \
        oracle.check_spectrum_json(bad, n, member)

    sweep = [checks.energy_sweep(12).to_dict()]
    bad = copy.deepcopy(sweep)
    bad[0]["evidence"]["instances"] -= 1
    yield "energy sweep: instance count", \
        oracle.check_sweep_report(sweep, "energy", oracle.eligible_instances(12), 1e-8), \
        oracle.check_sweep_report(bad, "energy", oracle.eligible_instances(12), 1e-8)

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        mir = workloads.Mirror(random.Random(3), 4, 5, Path(tmp), 0)
    dec = construct.build_mirror(mir.core_g, mir.host_g, mir.root, mir.link)
    rep = checks.check_spectral_replacement(dec, mir.cross)
    bad = copy.deepcopy(rep.evidence)
    bad["added"][0] += 1e-6
    yield "replacement: perturbed added eigenvalue", \
        oracle.check_replacement(rep.ok, rep.evidence, mir.oracle()), \
        oracle.check_replacement(rep.ok, bad, mir.oracle())


def main() -> int:
    ok = True
    for name, genuine, corrupted in cases():
        good = not genuine and bool(corrupted)
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {name}: genuine {len(genuine)} errors, "
              f"corrupted {len(corrupted)} ({corrupted[0] if corrupted else 'accepted'})")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
