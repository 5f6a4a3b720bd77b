"""Laplacian spectra of mirrored graphs: controlled eigenvalue replacement by
cross-edge insertion, equal-energy noncospectral families, closed-form
tridiagonal spectra, and exact eigenvalue counting on trees.

Public names load their submodule on first access (PEP 562), so a process
that needs only exact tree counting never imports numpy."""

import importlib

_EXPORTS = {
    "construct": (
        "MirrorDecomposition", "StarlikeSpec", "build_mirror", "build_starlike",
        "family_branches", "generate_family", "insert_cross_edges", "spider",
        "starlike_mirror", "unit_vector", "write_family",
    ),
    "graphs": (
        "Graph", "average_degree", "classify", "connected_components", "cycle",
        "format_dot", "format_edge_list", "laplacian", "load_graph",
        "parse_edge_list", "path", "save_graph", "star", "unique_cycle_length",
    ),
    "spectra": (
        "SigmaMismatchError", "Spectrum", "SpectrumMatchError", "TridiagonalSpec",
        "cospectral", "delta_le", "energy_report", "laplacian_energy",
        "laplacian_spectrum", "linked_core_matrix", "multiset_remove",
        "multiset_union", "replacement_spectra", "sym_eigenvalues",
        "tridiagonal_spectrum",
    ),
    "treecount": ("JTResult", "jt_locate", "sigma_tree"),
    "checks": (
        "CheckReport", "check_energy_equality", "check_family", "check_path_replacement",
        "check_sigma", "check_spectral_replacement", "check_trig_identity", "run_all",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
