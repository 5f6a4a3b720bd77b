"""Laplacian spectra of mirrored graphs: controlled eigenvalue replacement by
cross-edge insertion, equal-energy noncospectral families, closed-form
tridiagonal spectra, and exact eigenvalue counting on trees."""

from .construct import (
    MirrorDecomposition,
    StarlikeSpec,
    build_mirror,
    build_starlike,
    family_branches,
    generate_family,
    insert_cross_edges,
    spider,
    starlike_mirror,
    unit_vector,
    write_family,
)
from .graphs import (
    Graph,
    average_degree,
    classify,
    connected_components,
    cycle,
    format_dot,
    format_edge_list,
    is_connected,
    laplacian,
    load_graph,
    parse_edge_list,
    path,
    save_graph,
    star,
    unique_cycle_length,
)
from .spectra import (
    SigmaMismatchError,
    Spectrum,
    SpectrumMatchError,
    TridiagonalSpec,
    cospectral,
    delta_le,
    energy_report,
    laplacian_energy,
    laplacian_spectrum,
    linked_core_matrix,
    multiset_remove,
    multiset_union,
    replacement_spectra,
    sym_eigenvalues,
    tridiagonal_spectrum,
)
from .treecount import JTResult, jt_locate, sigma_graph, sigma_tree
from .checks import (
    CheckReport,
    check_energy_equality,
    check_family,
    check_path_replacement,
    check_sigma,
    check_spectral_replacement,
    check_trig_identity,
    run_all,
)

__version__ = "0.1.0"
