"""The three workloads: inputs made from the seed, one round of operations,
and the checks of every output against `oracle`.

A round is a fixed list of operations. `Meter.op` times each call into lapeq
alone (oracle work and checks run outside the timed region, with tracing
off) and adds its whole units of work, so every rate is units over the
seconds those units took.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
from lapeq import checks, cli, construct, graphs, treecount

CLI_TIMEOUT_S = 120


class Meter:
    """Timings, attempts, failures and check errors of one phase of a run.

    Every timed operation has a key that names the same operation in every
    round, and is timed in probe-normalized seconds (see probe.py); raw wall
    seconds are kept beside them. A rate is the units of one round over the
    sum, across keys, of each key's median time in the run.
    """

    def __init__(self, tracer, probe, tracing: bool, env: dict):
        self.tracer = tracer
        self.probe = probe
        self.tracing = tracing
        self.env = env
        self.samples: dict[tuple, list[float]] = {}
        self.wall: dict[tuple, list[float]] = {}
        self.units: dict[tuple, int] = {}
        self.cli_s: list[float] = []
        self.cli_wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # operations that raised or exited non-zero
        self.errors: list[str] = []  # outputs that failed a check
        self.report_bytes = 0
        self.rounds = 0

    def op(self, kind: str, key, units: int, fn, *args):
        """Run one lapeq call in the timed region; None when it raised."""
        self.attempted += 1
        i0 = self.probe.mark()
        self.tracer.active = self.tracing
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising operation is counted, not fatal
            self.tracer.active = False
            self.failed += 1
            self.failures.append(f"{kind} {key}: {type(exc).__name__}: {exc}")
            return None
        t1 = time.perf_counter()
        self.tracer.active = False
        self.samples.setdefault((kind, key), []).append(self.probe.normalize(i0, t0, t1))
        self.wall.setdefault((kind, key), []).append(t1 - t0)
        self.units[(kind, key)] = units
        return out

    def cli_main(self, key, units: int, argv: list[str]):
        """`lapeq <argv>` in this process; returns (exit code, stdout), or
        None when it raised or exited 2 (usage or input error)."""
        out = self.op("units", key, units, _cli_main, argv)
        if out is not None and out[0] == 2:
            self.failed += 1
            self.failures.append(f"lapeq {argv[0]} {argv[1]}: exit 2")
            return None
        if out is not None:
            self.report_bytes += len(out[1].encode())
        return out

    def cli_process(self, argv: list[str]) -> str | None:
        """One `python -m lapeq.cli <argv>` process, timed from start to
        exit; returns its stdout, or None when it failed."""
        self.attempted += 1
        i0 = self.probe.mark()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lapeq.cli", *argv],
                capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.failures.append(f"cli {argv[0]}: timed out")
            return None
        t1 = time.perf_counter()
        if proc.returncode != 0:
            self.failed += 1
            self.failures.append(f"cli {argv[0]}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        self.cli_s.append(self.probe.normalize(i0, t0, t1))
        self.cli_wall.append(t1 - t0)
        self.report_bytes += len(proc.stdout.encode())
        return proc.stdout

    def check(self, where: str, errors: list[str]) -> None:
        self.errors.extend(f"{where}: {e}" for e in errors)

    def end_round(self) -> None:
        self.rounds += 1
        if self.tracing:
            self.tracer.end_round()

    def round_seconds(self, kind: str | None = None, wall: bool = False) -> float:
        """Seconds of one round's operations (of one kind), median per key."""
        samples = self.wall if wall else self.samples
        total = sum(statistics.median(v) for k, v in samples.items() if kind in (None, k[0]))
        if kind is None and self.cli_s:
            total += self.cli_median(wall) * len(self.cli_s) / self.rounds
        return total

    def rate(self, kind: str, wall: bool = False) -> float:
        units = sum(u for k, u in self.units.items() if k[0] == kind)
        secs = self.round_seconds(kind, wall)
        return units / secs if secs else 0.0

    def cli_median(self, wall: bool = False) -> float:
        values = self.cli_wall if wall else self.cli_s
        return statistics.median(values) if values else 0.0


def _cli_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _write_edges(path: Path, n: int, edges) -> None:
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def _read_edges(path: Path) -> tuple[int, set]:
    lines = path.read_text().split("\n")
    edges = {tuple(sorted(map(int, ln.split()))) for ln in lines[1:] if ln.strip()}
    return int(lines[0]), edges


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def _prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform labelled tree on n >= 3 vertices from a random Pruefer code."""
    import heapq

    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


class CharpolyInput:
    """A graph for laplacian_charpoly with the exact facts to check it by:
    its spanning-tree count tau and det(xI - L) at x = 1 and 3. For family
    graphs tau is 1 for the tree and the cycle length for a member; a
    general mirror graph takes the matrix-tree count."""

    def __init__(self, n: int, edges, general: bool = False):
        self.n, self.edges = n, list(edges)
        self.graph = graphs.Graph(n, self.edges)
        self.general = general
        self.tau = self.values = None

    def verify(self, coeffs) -> list[str]:
        if self.values is None:
            lap = oracle.int_laplacian(self.n, self.edges)
            self.values = {x: oracle.char_value(lap, x) for x in (1, 3)}
            if self.general:
                self.tau = oracle.spanning_trees(self.n, self.edges)
            else:
                self.tau = max(1, oracle.cycle_length(self.n, self.edges))
        return oracle.check_charpoly(coeffs, self.n, self.edges, self.tau, self.values)


def _family_charpoly_inputs(rng: random.Random, ell: int, gamma: int, placement) -> list[CharpolyInput]:
    out = []
    for n, edges in oracle.family_graphs(ell, gamma, placement):
        out.append(CharpolyInput(n, oracle.relabel(n, edges, _permutation(rng, n))))
    return out


def _run_charpolys(meter: Meter, label: str, inputs: list[CharpolyInput]) -> None:
    polys = []
    for idx, inp in enumerate(inputs):
        coeffs = meter.op("charpoly", (label, idx), 1, checks.laplacian_charpoly, inp.graph)
        if coeffs is not None:
            meter.check(f"{label} charpoly n={inp.n}", inp.verify(coeffs))
            polys.append(coeffs)
    meter.check(f"{label} charpoly", oracle.check_distinct(polys))


# --- family-scan -----------------------------------------------------------------

PLACEMENTS = {1: ["even"], 2: ["even", "odd"], 3: ["even", "odd", (4,)]}
# n = 14 .. 64. One check at ell = 6 (n = 86) takes 5-9 s with the numpy
# Jacobi fallback, which would leave too few rounds in a run. Placements are
# fixed per cell because they change the cost (up to 1.4x at ell = 3), and
# every policy appears. The seed orders the cells and picks and relabels the
# CLI member.
FAMILY_CELLS = [
    (2, 1, "even"), (2, 2, "odd"), (2, 3, (4,)),
    (3, 1, "even"), (3, 2, "even"), (3, 3, "odd"),
    (4, 1, "even"), (4, 2, "odd"), (4, 3, (4,)),
    (5, 2, "even"),
]
CHARPOLY_ORDERS = range(26, 31)  # the ell = 3 families: 12 graphs of 50-90 ms each
SPECTRUM_PROCESSES = 2


class FamilyScan:
    """check_family over a grid of families, exact charpolys of the small
    ones, and `lapeq spectrum --format json` on a 44-vertex member."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.cells = list(FAMILY_CELLS)
        rng.shuffle(self.cells)
        self.oracles: dict = {}
        self.charpoly = {
            cell: _family_charpoly_inputs(rng, *cell)
            for cell in self.cells
            if oracle.family_graphs(*cell)[0][0] in CHARPOLY_ORDERS
        }
        placement, member = rng.choice(PLACEMENTS[2]), rng.randint(1, 4)
        n, edges = oracle.family_graphs(4, 2, placement)[member]
        self.member = (n, oracle.relabel(n, edges, _permutation(rng, n)))
        self.member_file = tmp / "member44.edges"
        _write_edges(self.member_file, *self.member)

    def _oracle(self, cell):
        if cell not in self.oracles:
            fam = construct.generate_family(*cell)
            self.oracles[cell] = oracle.family_oracle(*cell, [(g.n, g.edges) for g in fam])
        return self.oracles[cell]

    def round(self, meter: Meter) -> None:
        for ell, gamma, placement in self.cells:
            cell = (ell, gamma, placement)
            rep = meter.op("units", cell, ell + 1, checks.check_family, ell, gamma, placement)
            if rep is not None:
                meter.check(f"family {cell}", oracle.check_family(rep.ok, rep.evidence, self._oracle(cell)))
        for cell, inputs in self.charpoly.items():
            _run_charpolys(meter, f"family {cell}", inputs)
        for _ in range(SPECTRUM_PROCESSES):
            out = meter.cli_process(["spectrum", str(self.member_file), "--format", "json"])
            if out is not None:
                payload = json.loads(out.strip().splitlines()[-1])
                meter.check("lapeq spectrum", oracle.check_spectrum_json(payload, *self.member))
        meter.end_round()


# --- small-sweep -----------------------------------------------------------------

SWEEP_MAX_N = 16
MIRRORS = 48
MIRROR_CHARPOLYS = 6


def _sweep_profiles(max_n: int) -> list[tuple[list[int], int]]:
    """(branches, k) for every eligible profile with n <= max_n, built here:
    even parts as nondecreasing lists, one odd part below n/2."""

    def evens(total, low):
        if total == 0:
            yield []
            return
        for part in range(low, total + 1, 2):
            for rest in evens(total - part, part):
                yield [part] + rest

    out = []
    for n in range(6, max_n + 1, 2):
        for odd in range(1, n, 2):
            if 2 * odd >= n:
                break
            for ev in evens(n - 1 - odd, 2):
                for k in sorted({b for b in ev if ev.count(b) >= 2}):
                    out.append((ev + [odd], k))
    return out


def _random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]


class Mirror:
    """A random mirror instance: core on k vertices, host on m, with files."""

    def __init__(self, rng: random.Random, k: int, m: int, tmp: Path, idx: int):
        self.k, self.m = k, m
        self.core = _random_edges(rng, k, 0.5)
        self.host = _random_edges(rng, m, 0.4)
        self.root = rng.randint(1, m)
        self.link = [rng.randint(0, 1) for _ in range(k)]
        self.cross = [rng.randint(0, 1) for _ in range(k)]
        if not any(self.cross):
            self.cross[rng.randrange(k)] = 1
        self.core_g, self.host_g = graphs.Graph(k, self.core), graphs.Graph(m, self.host)
        self.core_file, self.host_file = tmp / f"core{idx}.edges", tmp / f"host{idx}.edges"
        self.out_file = tmp / f"mirror{idx}.edges"
        _write_edges(self.core_file, k, self.core)
        _write_edges(self.host_file, m, self.host)
        self.n, with_cross = oracle.mirror_edges(k, self.core, m, self.host, self.root, self.link, self.cross)
        self.g2 = sorted(with_cross)
        self.g = sorted(oracle.mirror_edges(k, self.core, m, self.host, self.root, self.link, [0] * k)[1])
        self._oracle = None

    def argv(self) -> list[str]:
        bits = lambda v: "".join(map(str, v))  # noqa: E731
        return [
            "build", "mirror", "--core", f"file:{self.core_file}", "--host", f"file:{self.host_file}",
            "--root", str(self.root), "--link", bits(self.link), "--cross", bits(self.cross),
            "--out", str(self.out_file),
        ]

    def oracle(self) -> dict:
        if self._oracle is None:
            self._oracle = oracle.replacement_oracle(
                self.k, self.core, self.link, self.cross, self.n, self.g, self.g2
            )
        return self._oracle

    def h_polys(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Exact charpolys of H = L(core) + diag(link) and H + 2 diag(cross)."""
        h = oracle.int_laplacian(self.k, self.core)
        for i in range(self.k):
            h[i][i] += self.link[i]
        h2 = [row[:] for row in h]
        for i in range(self.k):
            h2[i][i] += 2 * self.cross[i]
        return oracle.charpoly(h), oracle.charpoly(h2)


class SmallSweep:
    """`lapeq verify energy` and `verify sigma` over every eligible profile up
    to SWEEP_MAX_N through cli.main, then random mirrors: `lapeq build mirror
    --cross` through cli.main plus check_spectral_replacement on each."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.tmp = tmp
        self.profiles = _sweep_profiles(SWEEP_MAX_N)
        self.instances = oracle.eligible_instances(SWEEP_MAX_N)
        self.sweep_errors = None
        # sizes fixed by slot, so every seed asks for the same orders 2k + m
        self.mirrors = [
            Mirror(rng, 1 + j % 6, 2 + (5 * j) % 9, tmp, j) for j in range(MIRRORS)
        ]
        self.charpoly = []
        for mir in self.mirrors[-MIRROR_CHARPOLYS:]:
            self.charpoly.append(
                (mir, CharpolyInput(mir.n, mir.g, True), CharpolyInput(mir.n, mir.g2, True))
            )
        self.exact = {}
        branches, k = rng.choice([p for p in self.profiles if sum(p[0]) + 1 == SWEEP_MAX_N])
        self.cli_instance = (branches, k)
        self.cli_report = tmp / "cli_energy.json"

    def _sweep(self, meter: Meter, claim: str, tol) -> None:
        report = self.tmp / f"verify_{claim}.json"
        out = meter.cli_main(
            claim, self.instances,
            ["verify", claim, "--max-n", str(SWEEP_MAX_N), "--report", str(report)],
        )
        if out is None:
            return
        if out[0] != 0:
            meter.check(f"verify {claim}", [f"exit code {out[0]}"])
        data = report.read_bytes()
        meter.report_bytes += len(data)
        if self.sweep_errors is None:
            self.sweep_errors = oracle.sweep_oracle(SWEEP_MAX_N, self.profiles)
        meter.check(f"verify {claim}", self.sweep_errors)
        meter.check(f"verify {claim}", oracle.check_sweep_report(json.loads(data), claim, self.instances, tol))

    @staticmethod
    def _mirror(mir: Mirror):
        code, _ = _cli_main(mir.argv())
        if code != 0:
            raise RuntimeError(f"lapeq build mirror exited {code}")
        dec = construct.build_mirror(mir.core_g, mir.host_g, mir.root, mir.link)
        return checks.check_spectral_replacement(dec, mir.cross)

    def round(self, meter: Meter) -> None:
        self._sweep(meter, "energy", 1e-8)
        self._sweep(meter, "sigma", None)
        for idx, mir in enumerate(self.mirrors):
            rep = meter.op("units", idx, 1, self._mirror, mir)
            if rep is None:
                continue
            meter.report_bytes += mir.out_file.stat().st_size
            errors = oracle.check_replacement(rep.ok, rep.evidence, mir.oracle())
            if _read_edges(mir.out_file) != (mir.n, set(mir.g2)):
                errors.append("written mirror graph differs from the one built here")
            meter.check(f"mirror k={mir.k} m={mir.m}", errors)
        for idx, (mir, g, g2) in enumerate(self.charpoly):
            polys = []
            for side, inp in enumerate((g, g2)):
                coeffs = meter.op("charpoly", (idx, side), 1, checks.laplacian_charpoly, inp.graph)
                if coeffs is not None:
                    meter.check(f"mirror charpoly n={inp.n}", inp.verify(coeffs))
                    polys.append(coeffs)
            if len(polys) == 2:
                if mir not in self.exact:
                    self.exact[mir] = mir.h_polys()
                p_h, p_h2 = self.exact[mir]
                if oracle.poly_mul(polys[1], p_h) != oracle.poly_mul(polys[0], p_h2):
                    meter.check("mirror charpoly", ["chi(G') chi(H) != chi(G) chi(H + 2Z)"])
        branches, k = self.cli_instance
        out = meter.cli_process([
            "verify", "energy", "--branches", ",".join(map(str, branches)), "--k", str(k),
            "--report", str(self.cli_report),
        ])
        if out is not None:
            data = self.cli_report.read_bytes()
            meter.report_bytes += len(data)
            ev = json.loads(data)[0]["evidence"]
            errs = oracle.check_energy_instance(branches, k, ev)
            meter.check("lapeq verify energy --branches", errs)
        meter.end_round()


# --- exact-counts ----------------------------------------------------------------

TREE_SIZES = [1000] * 4 + [2500] * 3 + [5000] * 2 + [10000]
ORACLE_MAX_N = 1000
SIGMA_ELLS = range(2, 13)
CHARPOLY_FAMILIES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


class Tree:
    def __init__(self, rng: random.Random, n: int, alpha: Fraction):
        self.n = n
        self.edges = _prufer_tree(rng, n)
        self.graph = graphs.Graph(n, self.edges)
        self.alpha = alpha
        self._spec = None

    def spectrum(self):
        if self._spec is None and self.n <= ORACLE_MAX_N:
            self._spec = oracle.spectrum(oracle.laplacian(self.n, self.edges))
        return self._spec


class ExactCounts:
    """jt_locate on random trees at rational shifts, sigma_tree on family base
    trees, laplacian_charpoly on every member of small families, and
    `lapeq jt --format json` on a 1000-vertex tree. No float eigensolve."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.trees = []
        for slot, n in enumerate(TREE_SIZES):
            q = 1 + slot % 7  # denominators fixed by slot, numerators from the seed
            self.trees.append(Tree(rng, n, Fraction(rng.randint(1, 6 * q - 1), q)))
        # the two ends of the range, where the counts are known exactly
        self.extremes = [(self.trees[0], Fraction(0)), (self.trees[1], Fraction(2 * ORACLE_MAX_N + 1, 2))]
        self.bases = []
        for ell in SIGMA_ELLS:
            gamma = rng.randint(1, 3)
            n, edges = oracle.family_graphs(ell, gamma, rng.choice(PLACEMENTS[gamma]))[0]
            edges = oracle.relabel(n, edges, _permutation(rng, n))
            self.bases.append((n, edges, graphs.Graph(n, edges)))
        self.base_spectra: dict[int, object] = {}
        self.charpoly = [
            _family_charpoly_inputs(rng, ell, g, rng.choice(PLACEMENTS[g])) for ell, g in CHARPOLY_FAMILIES
        ]
        self.cli_tree = rng.choice([t for t in self.trees if t.n == ORACLE_MAX_N])
        self.cli_alpha = Fraction(rng.randint(1, 29), 5)
        self.cli_file = tmp / "tree.edges"
        _write_edges(self.cli_file, self.cli_tree.n, self.cli_tree.edges)

    def round(self, meter: Meter) -> None:
        for idx, (tree, alpha) in enumerate([(t, t.alpha) for t in self.trees] + self.extremes):
            res = meter.op("units", ("jt", idx), tree.n, treecount.jt_locate, tree.graph, alpha)
            if res is not None:
                meter.check(f"jt n={tree.n} alpha={alpha}", oracle.check_jt(tree.n, alpha, res.counts, tree.spectrum()))
        for idx, (n, edges, g) in enumerate(self.bases):
            got = meter.op("units", ("sigma", idx), n, treecount.sigma_tree, g)
            if got is not None:
                if idx not in self.base_spectra:
                    self.base_spectra[idx] = oracle.spectrum(oracle.laplacian(n, edges))
                meter.check(f"sigma_tree n={n}", oracle.check_sigma_tree(n, got, self.base_spectra[idx], len(edges)))
        for idx, inputs in enumerate(self.charpoly):
            _run_charpolys(meter, f"family {idx}", inputs)
        out = meter.cli_process(["jt", str(self.cli_file), "--alpha", str(self.cli_alpha), "--format", "json"])
        if out is not None:
            payload = json.loads(out.strip().splitlines()[-1])
            counts = [payload.get("above"), payload.get("equal"), payload.get("below")]
            if None in counts:
                meter.check("lapeq jt", [f"missing counts in {payload}"])
            else:
                meter.check("lapeq jt", oracle.check_jt(self.cli_tree.n, self.cli_alpha, counts, self.cli_tree.spectrum()))
        meter.end_round()


WORKLOADS = {"family-scan": FamilyScan, "small-sweep": SmallSweep, "exact-counts": ExactCounts}
