"""Spans around lapeq's public functions, installed from outside the program.

`Tracer.install()` replaces each public function of lapeq.graphs, construct,
spectra, treecount, checks and cli in every lapeq namespace that binds it
(checks, for one, imports sym_eigenvalues by name), and the public methods
and constructors of the classes those modules define. A span records name,
start, end and the enclosing span. Spans stay in memory in flat arrays until
`per_layer()` turns them into the layer metrics at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

MODULES = ("graphs", "construct", "spectra", "treecount", "checks", "cli")
SMALL_ORDER = 32  # sym_eigenvalues on n <= 32 counts as a small solve
SPAN_CAP = 2_000_000  # the traced phase ends after the round that passes this


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.jt_vertices = 0
        self.solve_calls = 0
        self.solve_graphs = 0
        self._round_graphs: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def end_round(self) -> None:
        self.solve_graphs += len(self._round_graphs)
        self._round_graphs = set()

    def _wrap(self, name: str, fn):
        tracer = self
        nid = tracer._id(name)
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = nid if extra is None else tracer._id(extra(tracer, args, kwargs) or name)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1

        return traced

    def install(self) -> None:
        """Wrap every public lapeq function and class method, once."""
        mods = {m: importlib.import_module(f"lapeq.{m}") for m in MODULES}
        spaces = [mod for key, mod in sys.modules.items() if key == "lapeq" or key.startswith("lapeq.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for space in spaces:
                        for bound, val in list(vars(space).items()):
                            if val is obj:
                                setattr(space, bound, wrapped)

    def _wrap_class(self, name: str, cls) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                label = name if attr == "__init__" else f"{name}.{attr}"
                setattr(cls, attr, self._wrap(label, obj))

    def _by_name(self) -> dict[str, list]:
        """[calls, total seconds, self seconds] per span name; self time is a
        span's duration minus the time its direct child spans cover."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        table: dict[str, list] = {}
        for i in range(count):
            row = table.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return table

    def per_layer(self, rounds: int) -> dict[str, float]:
        """The layer metrics, per round."""
        table = self._by_name()
        r = max(rounds, 1)

        def c(name):
            return table.get(name, [0])[0] / r

        def s(*names):
            return sum(table[x][2] for x in names if x in table) / r

        eig_small = "spectra.sym_eigenvalues.small"
        eig_large = "spectra.sym_eigenvalues.large"
        orchestration = [
            x for x in table
            if x.startswith("checks.")
            and not x.startswith("checks.CheckReport")
            and x != "checks.laplacian_charpoly"
        ]
        return {
            "spectra.sym_eigenvalues.calls": c(eig_small) + c(eig_large),
            "spectra.sym_eigenvalues.small.self_s": s(eig_small),
            "spectra.sym_eigenvalues.large.self_s": s(eig_large),
            "spectra.solves_per_graph": (
                self.solve_calls / self.solve_graphs if self.solve_graphs else 0.0
            ),
            "spectra.multiset_remove.calls": c("spectra.multiset_remove"),
            "spectra.multiset_remove.self_s": s("spectra.multiset_remove"),
            "graphs.Graph.calls": c("graphs.Graph"),
            "graphs.Graph.self_s": s("graphs.Graph"),
            "graphs.adjacency.calls": c("graphs.Graph.adjacency"),
            "graphs.adjacency.self_s": s("graphs.Graph.adjacency"),
            "graphs.laplacian.self_s": s("graphs.laplacian"),
            "graphs.connected_components.self_s": s("graphs.connected_components"),
            "construct.generate_family.self_s": s("construct.generate_family"),
            "construct.as_mirror.self_s": s("construct.as_mirror"),
            "construct.build_mirror.self_s": s("construct.build_mirror"),
            "construct.insert_cross_edges.self_s": s("construct.insert_cross_edges"),
            "treecount.jt_locate.calls": c("treecount.jt_locate"),
            "treecount.jt_locate.self_s": s("treecount.jt_locate"),
            "treecount.jt_locate.vertices": self.jt_vertices / r,
            "checks.laplacian_charpoly.calls": c("checks.laplacian_charpoly"),
            "checks.laplacian_charpoly.self_s": s("checks.laplacian_charpoly"),
            "checks.self_s": s(*orchestration),
            "checks.CheckReport.to_dict.self_s": s("checks.CheckReport.to_dict"),
            "cli.main.self_s": s("cli.main"),
            "trace.spans": len(self.start) / r,
        }

    def summary(self) -> list[dict]:
        """Per span name: calls, total and self seconds (the run's trace file)."""
        return [
            {"name": k, "calls": v[0], "total_s": v[1], "self_s": v[2]}
            for k, v in sorted(self._by_name().items(), key=lambda kv: -kv[1][2])
        ]


def _eig_size(tracer: Tracer, args, kwargs) -> str:
    m = args[0] if args else kwargs["m"]
    n = len(m)
    return "spectra.sym_eigenvalues.small" if n <= SMALL_ORDER else "spectra.sym_eigenvalues.large"


def _spectrum_graph(tracer: Tracer, args, kwargs) -> None:
    tracer.solve_calls += 1
    tracer._round_graphs.add(args[0] if args else kwargs["g"])


def _jt_vertices(tracer: Tracer, args, kwargs) -> None:
    tracer.jt_vertices += (args[0] if args else kwargs["g"]).n


_EXTRA = {
    "spectra.sym_eigenvalues": _eig_size,
    "spectra.laplacian_spectrum": _spectrum_graph,
    "treecount.jt_locate": _jt_vertices,
}
