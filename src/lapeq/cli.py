"""Command-line interface: build graphs, print spectra, run verification checks.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
input error. The LAPEQ_OUT environment variable sets the default output
directory (default: current directory). Each command imports only the modules
it runs, so `jt` and `build` start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .graphs import (
    Graph,
    check_dense_order,
    check_order,
    classify,
    cycle,
    format_dot,
    format_edge_list,
    load_graph,
    path,
    star,
)


def _outdir() -> str:
    return os.environ.get("LAPEQ_OUT", ".")


def parse_graph_arg(text: str) -> Graph:
    """Graph shorthand: path:k, cycle:k, star:k, file:PATH, or a bare file path."""
    kind, sep, arg = text.partition(":")
    if not sep or kind == "file":
        return load_graph(arg if sep else text)
    build = {"path": path, "cycle": cycle, "star": star}.get(kind)
    if build is None:
        raise ValueError(f"unknown graph shorthand {kind!r} (use path:, cycle:, star:, file:)")
    return build(check_order(int(arg)))


def parse_branches(text: str) -> tuple[int, ...]:
    """Starlike branch lengths; their tree has 1 + sum(lengths) vertices."""
    try:
        lengths = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"branches must be comma-separated integers, got {text!r}")
    check_order(1 + sum(lengths))
    return lengths


def parse_placement(text: str) -> str | tuple[int, ...]:
    """Family filler placement: even, odd, or comma-separated even lengths."""
    if text in ("even", "odd"):
        return text
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"placement must be even, odd, or lengths like 4,2, got {text!r}")


def parse_binary(text: str) -> tuple[int, ...]:
    digits = text.replace(",", "")
    if not digits or any(ch not in "01" for ch in digits):
        raise ValueError(f"expected a 0/1 string like 101, got {text!r}")
    return tuple(int(ch) for ch in digits)


def parse_alpha(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"alpha must be an integer, fraction p/q, or decimal, got {text!r}")


def _write(path_out: str, content: str) -> None:
    os.makedirs(os.path.dirname(path_out) or ".", exist_ok=True)
    with open(path_out, "w") as fh:
        fh.write(content)
    print(f"wrote {path_out}")


def _print_payload(payload: dict, fmt: str = "text") -> None:
    """payload as one JSON object, or as one `key: value` line per entry in its order."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))  # tuples become arrays
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _graph_fields(g: Graph) -> dict:
    return {"n": g.n, "edges": g.num_edges, "class": classify(g)}


def _write_built(g: Graph, args, default_name: str) -> int:
    """Summary, edge list (--out, else default_name) and optional DOT of a build."""
    _print_payload(_graph_fields(g))
    _write(args.out or os.path.join(_outdir(), default_name), format_edge_list(g))
    if args.dot:
        _write(args.dot, format_dot(g))
    return 0


def cmd_build_starlike(args) -> int:
    from .construct import build_starlike

    branches = parse_branches(args.branches)
    name = f"starlike_{'-'.join(map(str, branches))}.edges"
    return _write_built(build_starlike(branches), args, name)


def cmd_build_family(args) -> int:
    from .construct import family_order, write_family

    check_order(family_order(args.ell, args.gamma))
    placement = parse_placement(args.placement)
    tag = placement if isinstance(placement, str) else "-".join(map(str, placement))
    outdir = args.outdir or os.path.join(
        _outdir(), f"family_ell{args.ell}_gamma{args.gamma}_{tag}"
    )
    manifest = write_family(outdir, args.ell, args.gamma, placement)
    _print_payload({"n": manifest["n"], "graphs": len(manifest["graphs"])})
    print(f"wrote {os.path.join(outdir, 'manifest.json')}")
    return 0


def cmd_build_mirror(args) -> int:
    from .construct import build_mirror, insert_cross_edges

    core = parse_graph_arg(args.core)
    host = parse_graph_arg(args.host)
    dec = build_mirror(core, host, args.root, parse_binary(args.link))
    g = dec.graph
    if args.cross is not None:
        g = insert_cross_edges(dec, parse_binary(args.cross))
    crossed = "_crossed" if args.cross is not None else ""
    return _write_built(g, args, f"mirror_k{dec.k}_n{dec.n}{crossed}.edges")


def cmd_spectrum(args) -> int:
    from .spectra import energy_report, laplacian_spectrum

    g = parse_graph_arg(args.graph)
    check_dense_order(g.n)
    spec = laplacian_spectrum(g)
    if args.format == "csv":
        print(spec.to_csv(), end="")
        return 0
    # energy_report's n and edges keep their places; its other fields follow class
    payload = {**_graph_fields(g), **energy_report(g, spec), "spectrum": list(spec.values)}
    payload["spectrum_5dp"] = list(spec.rounded(5))
    _print_payload(payload, args.format)
    return 0


def cmd_jt(args) -> int:
    from .treecount import jt_locate

    g = parse_graph_arg(args.graph)
    res = jt_locate(g, parse_alpha(args.alpha), root=args.root)
    payload = {"alpha": args.alpha, "above": res.above, "equal": res.equal, "below": res.below}
    payload["cut_edges"] = sorted(res.cut_edges)
    values = sorted(res.final_values.items()) if args.values else []
    if args.values and args.format == "json":
        payload["values"] = {str(v): str(x) for v, x in values}
    _print_payload(payload, args.format)
    if args.format == "text":
        for v, x in values:
            print(f"a({v}) = {x}")
    return 0


def _verify_family(c, a):
    """check_family, once the family's order passes the dense limit."""
    from .construct import family_order

    check_dense_order(family_order(a.ell, a.gamma))
    return [c.check_family(a.ell, a.gamma, parse_placement(a.placement))]


# claim -> its reports from the checks module c; path-replacement, energy and
# sigma check the single --branches/--k instance when both are given (cmd_verify
# has parsed a.branches into lengths), else their default sweep. --max-n
# defaults to None, so that cmd_verify can tell it apart from a --branches
# instance; the sweeps then run to c.SWEEP_MAX_N.
_VERIFY = {
    "replacement": lambda c, a: [c.replacement_suite(count=a.count, seed=a.seed)],
    "path-replacement": lambda c, a: [
        c.check_path_replacement(c.starlike_mirror(a.branches, a.k))
        if a.branches is not None
        else c.path_replacement_examples()
    ],
    "energy": lambda c, a: [
        c.check_energy_equality(a.branches, a.k)
        if a.branches is not None
        else c.energy_sweep(max_n=c.SWEEP_MAX_N if a.max_n is None else a.max_n)
    ],
    "sigma": lambda c, a: [
        c.check_sigma(a.branches, a.k)
        if a.branches is not None
        else c.sigma_sweep(max_n=c.SWEEP_MAX_N if a.max_n is None else a.max_n)
    ],
    "family": _verify_family,
    "trig": lambda c, a: [c.check_trig_identity(a.kmax)],
    "all": lambda c, a: c.run_all(seed=a.seed, budget=a.budget),
}


def cmd_verify(args) -> int:
    from . import checks

    branches, k = getattr(args, "branches", None), getattr(args, "k", None)
    if branches is not None and k is None:
        raise ValueError("--k is required with --branches")
    if k is not None and branches is None:
        raise ValueError("--branches is required with --k")
    if branches is not None and getattr(args, "max_n", None) is not None:
        raise ValueError("--max-n cannot be combined with --branches")
    if branches is not None:  # the single instance's tree is solved densely
        args.branches = parse_branches(branches)
        check_dense_order(1 + sum(args.branches))
    reports = _VERIFY[args.claim](checks, args)
    print(checks.format_report_table(reports))
    out = args.report or os.path.join(_outdir(), f"verify_{args.claim}.json")
    payload = [rep.to_dict() for rep in reports]
    _write(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all(rep.ok for rep in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapeq",
        description="Laplacian spectra of mirrored graphs, controlled eigenvalue "
        "replacement, and equal-energy families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct graphs and write edge lists")
    bsub = build.add_subparsers(dest="target", required=True)

    b_star = bsub.add_parser("starlike", help="starlike tree from branch lengths")
    b_star.add_argument("--branches", required=True, help="comma-separated lengths, e.g. 2,2,1")
    b_star.add_argument("--out", help="edge-list output path")
    b_star.add_argument("--dot", help="also write DOT here")
    b_star.set_defaults(func=cmd_build_starlike)

    b_fam = bsub.add_parser("family", help="equal-energy family with manifest")
    b_fam.add_argument("--ell", type=int, required=True)
    b_fam.add_argument("--gamma", type=int, default=1)
    b_fam.add_argument("--placement", default="even", help="even, odd, or explicit list like 4,2")
    b_fam.add_argument("--outdir", help="output directory")
    b_fam.set_defaults(func=cmd_build_family)

    b_mir = bsub.add_parser("mirror", help="two core copies glued to a rooted host")
    b_mir.add_argument("--core", required=True, help="path:k | cycle:k | star:k | file:PATH")
    b_mir.add_argument("--host", required=True, help="same shorthand as --core")
    b_mir.add_argument("--root", type=int, required=True, help="root vertex in the host")
    b_mir.add_argument("--link", required=True, help="0/1 attachment vector, e.g. 111")
    b_mir.add_argument("--cross", help="0/1 cross-edge vector; writes the inserted graph")
    b_mir.add_argument("--out", help="edge-list output path")
    b_mir.add_argument("--dot", help="also write DOT here")
    b_mir.set_defaults(func=cmd_build_mirror)

    spec = sub.add_parser("spectrum", help="Laplacian spectrum, energy, sigma of a graph")
    spec.add_argument("graph", help="graph shorthand or edge-list file")
    spec.add_argument("--format", choices=("text", "json", "csv"), default="text")
    spec.set_defaults(func=cmd_spectrum)

    verify = sub.add_parser("verify", help="run a verification check, exit 1 on failure")
    vsub = verify.add_subparsers(dest="claim", required=True)

    v_rep = vsub.add_parser("replacement", help="random mirror structures: spectra replace as claimed")
    v_rep.add_argument("--count", type=int, default=50)
    v_rep.add_argument("--seed", type=int, default=7)

    v_path = vsub.add_parser("path-replacement", help="closed-form cosine replacement on path cores")
    v_path.add_argument("--branches", help="custom starlike branches (with --k)")
    v_path.add_argument("--k", type=int)

    v_energy = vsub.add_parser("energy", help="cross edge preserves Laplacian energy")
    v_energy.add_argument("--branches", help="single instance (with --k); default sweeps n <= max-n")
    v_energy.add_argument("--k", type=int)
    v_energy.add_argument("--max-n", type=int, dest="max_n")

    v_sigma = vsub.add_parser("sigma", help="eigenvalues at/above average degree number n/2")
    v_sigma.add_argument("--branches", help="single instance (with --k); default sweeps n <= max-n")
    v_sigma.add_argument("--k", type=int)
    v_sigma.add_argument("--max-n", type=int, dest="max_n")

    v_fam = vsub.add_parser("family", help="equal energies, pairwise noncospectral")
    v_fam.add_argument("--ell", type=int, required=True)
    v_fam.add_argument("--gamma", type=int, default=1)
    v_fam.add_argument("--placement", default="even")

    v_trig = vsub.add_parser("trig", help="cosine half-sum identity")
    v_trig.add_argument("--kmax", type=int, default=1000)

    v_all = vsub.add_parser("all", help="the whole battery")
    v_all.add_argument("--seed", type=int, default=7)
    v_all.add_argument("--budget", choices=("small", "full"), default="small")

    for sp in vsub.choices.values():
        sp.add_argument("--report", help="JSON report path")
        sp.set_defaults(func=cmd_verify)

    jt = sub.add_parser("jt", help="exact above/at/below eigenvalue counts for a tree")
    jt.add_argument("graph", help="graph shorthand or edge-list file")
    jt.add_argument("--alpha", required=True, help="exact shift: 2, 9/5, or 1.8")
    jt.add_argument("--root", type=int, default=1)
    jt.add_argument("--values", action="store_true", help="print the final per-vertex values")
    jt.add_argument("--format", choices=("text", "json"), default="text")
    jt.set_defaults(func=cmd_jt)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args fills a fresh namespace on every call, so one parser serves
    # every main() call of the process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
