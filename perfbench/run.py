"""lapeq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload family-scan --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark puts `src` on the import path
itself and runs the CLI as `python -m lapeq.cli`. It prints an environment
header, then as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`. See perfbench/README.md.
"""

import sys
import time
from pathlib import Path

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import probe  # noqa: E402

PROBE = probe.SpeedProbe()
PROBE.begin()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _process_age() -> float:
    """Seconds since this process started, to the kernel's clock tick; 0.0
    where /proc is not there."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


BOOT_S = _process_age()  # interpreter start-up before T0


def _header(args, nproc: int, cpu: int) -> str:
    import numpy

    spectra = sys.modules["lapeq.spectra"]
    return "# env " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_found": importlib.util.find_spec("numba") is not None,
        "numba_imported": "numba" in sys.modules,
        "USE_NUMBA": getattr(spectra, "USE_NUMBA", "absent"),
        "blas_threads": os.environ[BLAS_VARS[0]],
        "nproc": nproc,
        "pinned_cpu": cpu,
    }, sort_keys=True)


def _loop(workload, meter, seconds: float, stop=lambda: False) -> None:
    """Whole rounds until `seconds` have passed; at least one."""
    start = time.perf_counter()
    while True:
        workload.round(meter)
        if time.perf_counter() - start >= seconds or stop():
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The probe must sample the CPU the work runs on, CLI children included,
    # so the process and its children keep to one CPU; BLAS gets that one.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "lapeq").is_dir():
        print(f"error: no lapeq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import SPAN_CAP, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    env["LAPEQ_OUT"] = str(tmp)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        t_setup = time.perf_counter()
        setup_s = PROBE.normalize(0, T0 - BOOT_S, t_setup)
        setup_wall = BOOT_S + t_setup - T0
        print(_header(args, nproc, cpu), flush=True)
        tracer = Tracer()
        if not args.trace:
            meter = workloads.Meter(tracer, PROBE, False, env)
            _loop(workload, meter, args.seconds)
            meters = [meter]
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "units_per_s": (meter.rate("units"), "1/s"),
                "charpoly_per_s": (meter.rate("charpoly"), "1/s"),
                "cli_s": (meter.cli_median(), "s"),
            }
            print("# wall " + json.dumps({
                "setup_s": setup_wall,
                "units_per_s": meter.rate("units", wall=True),
                "charpoly_per_s": meter.rate("charpoly", wall=True),
                "cli_s": meter.cli_median(wall=True),
                "rounds": meter.rounds,
                "probe_median_s": statistics.median(PROBE.dur),
                "probe_ref_s": probe.REF_S,
            }))
        else:
            plain = workloads.Meter(tracer, PROBE, False, env)
            _loop(workload, plain, args.seconds / 2)
            tracer.install()
            traced = workloads.Meter(tracer, PROBE, True, env)
            _loop(workload, traced, args.seconds / 2, lambda: len(tracer.start) > SPAN_CAP)
            meters = [plain, traced]
            layers = tracer.per_layer(traced.rounds)
            layers["cli.report_bytes"] = traced.report_bytes / traced.rounds
            layers["trace.overhead_s"] = traced.round_seconds() - plain.round_seconds()
            units = {k: "calls/round" for k in layers if k.endswith(".calls")}
            units.update({k: "s/round" for k in layers if k.endswith("_s")})
            units.update({
                "spectra.solves_per_graph": "solves/graph",
                "treecount.jt_locate.vertices": "vertices/round",
                "cli.report_bytes": "bytes/round",
                "trace.spans": "spans/round",
            })
            metrics = {k: (v, units[k]) for k, v in layers.items()}
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "rounds": traced.rounds,
                "untraced_round_s": plain.round_seconds(), "traced_round_s": traced.round_seconds(),
                "spans": len(tracer.start), "by_name": tracer.summary(),
            }, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    errors = [e for m in meters for e in m.errors]
    for e in [f for m in meters for f in m.failures][:20] + errors[:20]:
        print(f"# error: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(m.attempted for m in meters),
        "failed": sum(m.failed for m in meters),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
