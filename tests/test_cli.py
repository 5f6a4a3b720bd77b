import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lapeq.checks
import lapeq.cli
import lapeq.construct
import lapeq.graphs
import lapeq.spectra
from lapeq.cli import (
    main,
    parse_alpha,
    parse_binary,
    parse_branches,
    parse_graph_arg,
    parse_placement,
)
from lapeq.construct import build_starlike, family_branches, family_order
from lapeq.graphs import Graph, cycle, load_graph, path, save_graph, star

FIG_BEFORE = [9.03601, 4.0, 4.0, 3.61803, 2.47142, 2.0, 2.0, 1.38197, 1.0, 0.49257, 0.0]
FIG_AFTER = [9.03601, 6.0, 4.0, 4.0, 3.61803, 3.0, 2.47142, 2.0, 1.38197, 0.49257, 0.0]


@pytest.fixture(autouse=True)
def sandbox_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("LAPEQ_OUT", str(tmp_path))
    return tmp_path


# --- argument helpers ---------------------------------------------------------


def test_parse_graph_arg_shorthands(tmp_path):
    assert parse_graph_arg("path:4") == path(4)
    assert parse_graph_arg("cycle:5") == cycle(5)
    assert parse_graph_arg("star:6") == star(6)
    p = tmp_path / "g.edges"
    save_graph(path(3), p)
    assert parse_graph_arg(f"file:{p}") == path(3)
    assert parse_graph_arg(str(p)) == path(3)
    with pytest.raises(ValueError):
        parse_graph_arg("torus:3")


def test_order_cap_checked_before_a_graph_is_built(monkeypatch, capsys):
    monkeypatch.setattr(lapeq.graphs, "MAX_ORDER", 5)
    assert main(["spectrum", "path:5", "--format", "csv"]) == 0

    def refuse(n):
        raise AssertionError("no edge list is built past the cap")

    for kind in ("path", "cycle", "star"):
        monkeypatch.setattr(lapeq.cli, kind, refuse)
        with pytest.raises(ValueError, match="exceeds the limit of 5"):
            parse_graph_arg(f"{kind}:6")
        assert main(["spectrum", f"{kind}:6"]) == 2
    assert "exceeds the limit of 5" in capsys.readouterr().err


def test_parse_branches():
    assert parse_branches("2,2,1") == (2, 2, 1)
    with pytest.raises(ValueError):
        parse_branches("2,x")


def test_order_cap_applies_to_branches(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(lapeq.graphs, "MAX_ORDER", 5)
    assert parse_branches("2,2") == (2, 2)  # 5 vertices
    with pytest.raises(ValueError, match="graph order 6 exceeds the limit of 5"):
        parse_branches("2,3")
    assert main(["verify", "path-replacement", "--branches", "4,4,2,2,3", "--k", "2"]) == 2
    assert main(["build", "starlike", "--branches", "4,4,2,2,3"]) == 2
    assert capsys.readouterr().err.count("graph order 16 exceeds the limit of 5") == 2
    assert list(tmp_path.iterdir()) == []


def test_dense_order_limit_checked_before_the_matrix(monkeypatch, capsys):
    assert 44 * 100 < lapeq.graphs.MAX_DENSE_ORDER <= lapeq.graphs.MAX_ORDER
    monkeypatch.setattr(lapeq.graphs, "MAX_DENSE_ORDER", 5)
    assert main(["spectrum", "path:5", "--format", "csv"]) == 0
    capsys.readouterr()

    def refuse(g):
        raise AssertionError("no dense matrix is built past the limit")

    monkeypatch.setattr(lapeq.spectra, "laplacian_spectrum", refuse)
    assert main(["spectrum", "star:6"]) == 2
    assert capsys.readouterr().err == (
        "error: graph order 6 exceeds the dense-matrix limit of 5 vertices\n"
    )


def test_parse_binary():
    assert parse_binary("101") == (1, 0, 1)
    assert parse_binary("1,0,1") == (1, 0, 1)
    with pytest.raises(ValueError):
        parse_binary("")
    with pytest.raises(ValueError):
        parse_binary("102")


def test_parse_placement():
    assert parse_placement("even") == "even"
    assert parse_placement("odd") == "odd"
    assert parse_placement("4,2") == (4, 2)
    for bad in ("", "4,x", "middle"):
        with pytest.raises(ValueError):
            parse_placement(bad)


def test_build_and_verify_agree_on_placement(tmp_path, capsys):
    for cmd in ("build", "verify"):
        assert main([cmd, "family", "--ell", "2", "--gamma", "2", "--placement", "2"]) == 0
        assert main([cmd, "family", "--ell", "2", "--placement", ""]) == 2
        assert "placement must be" in capsys.readouterr().err
        # the order formula would read 1998002 here; the range error comes first
        assert main([cmd, "family", "--ell", "-1000"]) == 2
        assert "ell must be >= 2" in capsys.readouterr().err


def test_parse_alpha():
    assert parse_alpha("2") == Fraction(2)
    assert parse_alpha("9/5") == Fraction(9, 5)
    assert parse_alpha("1.8") == Fraction(9, 5)  # decimal text stays exact
    with pytest.raises(ValueError):
        parse_alpha("x")


# --- build ---------------------------------------------------------------


def test_build_starlike(tmp_path, capsys):
    assert main(["build", "starlike", "--branches", "2,2,1"]) == 0
    out = capsys.readouterr().out
    assert "n: 6" in out
    assert "edges: 5" in out
    assert "class: tree" in out
    written = tmp_path / "starlike_2-2-1.edges"
    assert f"wrote {written}" in out
    assert load_graph(written) == build_starlike((2, 2, 1))


def test_build_starlike_dot_and_custom_out(tmp_path, capsys):
    out = tmp_path / "t.edges"
    dot = tmp_path / "t.dot"
    assert main(["build", "starlike", "--branches", "2,2,1", "--out", str(out), "--dot", str(dot)]) == 0
    assert load_graph(out) == build_starlike((2, 2, 1))
    assert dot.read_text().startswith("graph {")


@pytest.mark.parametrize("text", ["4, 4,2,2,3", "04,4,2,2,3"])
def test_build_starlike_names_the_file_from_the_parsed_lengths(tmp_path, capsys, text):
    assert main(["build", "starlike", "--branches", text]) == 0
    written = tmp_path / "starlike_4-4-2-2-3.edges"
    assert f"wrote {written}" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == [written.name]
    assert load_graph(written) == build_starlike((4, 4, 2, 2, 3))


def test_build_family(tmp_path, capsys):
    assert main(["build", "family", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    assert "n: 14" in out
    assert "graphs: 3" in out
    outdir = tmp_path / "family_ell2_gamma1_even"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["branches"] == [2, 2, 4, 4, 1]
    assert (outdir / "unicyclic_2.edges").exists()


def test_build_family_order_limit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(lapeq.graphs, "MAX_ORDER", 5)
    assert main(["build", "family", "--ell", "2"]) == 2
    assert capsys.readouterr().err == "error: graph order 14 exceeds the limit of 5 vertices\n"
    assert list(tmp_path.iterdir()) == []


def test_family_order_closed_form():
    """The order the family commands check before any branch is built is
    family_branches' own, n = 2 ell^2 + 2 ell + 2 gamma, for every placement kind."""
    for ell in range(2, 13):
        for gamma in range(1, 5):
            n = family_order(ell, gamma)
            assert n == 2 * ell**2 + 2 * ell + 2 * gamma
            for placement in ("even", "odd", (2,) * (gamma - 1)):
                assert family_branches(ell, gamma, placement).n == n, (ell, gamma)


@pytest.mark.parametrize(
    "cmd, limit",
    [("build", "limit of 100000 vertices"), ("verify", "dense-matrix limit of 10000 vertices")],
)
@pytest.mark.parametrize(
    "flags, n",
    [
        (["--ell", "100000000"], 20_000_000_200_000_002),
        (["--ell", "2", "--gamma", "100000000"], 200_000_012),
    ],
    ids=["ell", "gamma"],
)
def test_oversized_family_checked_before_any_branch(
    monkeypatch, tmp_path, capsys, cmd, limit, flags, n
):
    def refuse(*args, **kwargs):
        raise AssertionError("no branch list is built past the limit")

    monkeypatch.setattr(lapeq.construct, "family_branches", refuse)
    assert main([cmd, "family", *flags]) == 2
    assert capsys.readouterr().err == f"error: graph order {n} exceeds the {limit}\n"
    assert list(tmp_path.iterdir()) == []


def test_build_mirror_and_spectrum_round_trip(tmp_path, capsys):
    assert main(["build", "mirror", "--core", "path:3", "--host", "cycle:5",
                 "--root", "1", "--link", "111"]) == 0
    assert main(["build", "mirror", "--core", "path:3", "--host", "cycle:5",
                 "--root", "1", "--link", "111", "--cross", "111"]) == 0
    capsys.readouterr()

    before = tmp_path / "mirror_k3_n11.edges"
    after = tmp_path / "mirror_k3_n11_crossed.edges"
    assert main(["spectrum", str(before), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spectrum_5dp"] == FIG_BEFORE
    assert payload["n"] == 11
    assert payload["sigma"] == 4
    assert payload["class"] == "other"  # five independent cycles, not unicyclic

    assert main(["spectrum", str(after), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spectrum_5dp"] == FIG_AFTER
    assert payload["edges"] == 18


def test_build_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    main(["build", "starlike", "--branches", "4,4,2,2,3", "--out", str(a)])
    main(["build", "starlike", "--branches", "4,4,2,2,3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# --- spectrum ----------------------------------------------------------------


def test_spectrum_text_single_vertex(capsys):
    assert main(["spectrum", "path:1"]) == 0
    out = capsys.readouterr().out
    assert "n: 1" in out
    assert "energy: 0.0" in out
    assert "spectrum: [0.0]" in out


def test_spectrum_text_path4(capsys):
    assert main(["spectrum", "path:4"]) == 0
    out = capsys.readouterr().out
    assert "sigma: 2" in out
    assert "spectrum_5dp: [3.41421, 2.0, 0.58579, 0.0]" in out  # 2 +- sqrt(2), 2, 0


def test_spectrum_rounds_a_tiny_negative_zero_to_zero(capsys):
    # the solver returns the zero eigenvalue of cycle(8) as about -6.6e-17
    rounded = "[4.0, 3.41421, 3.41421, 2.0, 2.0, 0.58579, 0.58579, 0.0]"
    assert main(["spectrum", "cycle:8"]) == 0
    assert f"spectrum_5dp: {rounded}\n" in capsys.readouterr().out
    assert main(["spectrum", "cycle:8", "--format", "json"]) == 0
    assert f'"spectrum_5dp": {rounded}' in capsys.readouterr().out


SPECTRUM_GOLDEN = {
    ("path:4", "text"): (
        "n: 4\nedges: 3\nclass: tree\navg_degree: 1.5\nsigma: 2\nenergy: 4.828427124746189\n"
        "spectrum: [3.414213562373094, 2.0, 0.585786437626905, 5.0450834795003976e-17]\n"
        "spectrum_5dp: [3.41421, 2.0, 0.58579, 0.0]\n"
    ),
    ("path:4", "json"): (
        '{"avg_degree": 1.5, "class": "tree", "edges": 3, "energy": 4.828427124746189, '
        '"n": 4, "sigma": 2, "spectrum": [3.414213562373094, 2.0, 0.585786437626905, '
        '5.0450834795003976e-17], "spectrum_5dp": [3.41421, 2.0, 0.58579, 0.0]}\n'
    ),
    ("cycle:8", "text"): (
        "n: 8\nedges: 8\nclass: unicyclic\navg_degree: 2.0\nsigma: 5\n"
        "energy: 9.656854249492383\n"
        "spectrum: [4.0, 3.414213562373095, 3.4142135623730945, 1.9999999999999996, "
        "1.9999999999999987, 0.5857864376269042, 0.5857864376269037, -6.591949208711867e-17]\n"
        "spectrum_5dp: [4.0, 3.41421, 3.41421, 2.0, 2.0, 0.58579, 0.58579, 0.0]\n"
    ),
    ("cycle:8", "json"): (
        '{"avg_degree": 2.0, "class": "unicyclic", "edges": 8, "energy": 9.656854249492383, '
        '"n": 8, "sigma": 5, "spectrum": [4.0, 3.414213562373095, 3.4142135623730945, '
        "1.9999999999999996, 1.9999999999999987, 0.5857864376269042, 0.5857864376269037, "
        '-6.591949208711867e-17], "spectrum_5dp": [4.0, 3.41421, 3.41421, 2.0, 2.0, 0.58579, '
        '0.58579, 0.0]}\n'
    ),
}


@pytest.mark.parametrize("graph, fmt", sorted(SPECTRUM_GOLDEN))
def test_spectrum_golden(graph, fmt, capsys):
    # the unrounded spectrum keeps LAPACK's last digits, its zero eigenvalue too
    assert main(["spectrum", graph, "--format", fmt]) == 0
    assert capsys.readouterr().out == SPECTRUM_GOLDEN[graph, fmt]


def test_spectrum_csv_builds_no_energy_report(monkeypatch, capsys):
    assert main(["spectrum", "path:4", "--format", "csv"]) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("csv prints the spectrum alone")

    monkeypatch.setattr(lapeq.spectra, "energy_report", refuse)
    assert main(["spectrum", "path:4", "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected


def test_spectrum_csv(capsys):
    assert main(["spectrum", "path:2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,eigenvalue"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2]
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values == pytest.approx([2.0, 0.0], abs=1e-12)


def test_spectrum_rejects_bad_graph(capsys):
    assert main(["spectrum", "path:0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- jt ---------------------------------------------------------------------


def test_jt_text(capsys):
    assert main(["jt", "path:4", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "above: 2" in out
    assert "equal: 0" in out
    assert "below: 2" in out
    assert "cut_edges: [(2, 3)]" in out


def test_jt_json_with_values(capsys):
    assert main(["jt", "path:2", "--alpha", "0", "--values", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["above"] == 1
    assert payload["equal"] == 1
    assert payload["below"] == 0
    assert payload["cut_edges"] == []
    assert set(payload["values"]) == {"1", "2"}


JT_GOLDEN = {
    ("path:4", "1", "text"): (
        "alpha: 1\nabove: 2\nequal: 0\nbelow: 2\ncut_edges: [(2, 3)]\n"
        "a(1) = -1\na(2) = 1\na(3) = -1/2\na(4) = 2\n"
    ),
    ("path:4", "1", "json"): (
        '{"above": 2, "alpha": "1", "below": 2, "cut_edges": [[2, 3]], "equal": 0, '
        '"values": {"1": "-1", "2": "1", "3": "-1/2", "4": "2"}}\n'
    ),
    ("starlike", "9/5", "text"): (
        "alpha: 9/5\nabove: 8\nequal: 0\nbelow: 8\ncut_edges: []\n"
        "a(1) = 12173337/4097410\na(2) = 29/20\na(3) = -4/5\na(4) = 29/20\n"
        "a(5) = -4/5\na(6) = 796/355\na(7) = -71/145\na(8) = 29/20\na(9) = -4/5\n"
        "a(10) = 796/355\na(11) = -71/145\na(12) = 29/20\na(13) = -4/5\n"
        "a(14) = -71/145\na(15) = 29/20\na(16) = -4/5\n"
    ),
    ("starlike", "9/5", "json"): (
        '{"above": 8, "alpha": "9/5", "below": 8, "cut_edges": [], "equal": 0, '
        '"values": {"1": "12173337/4097410", "10": "796/355", "11": "-71/145", '
        '"12": "29/20", "13": "-4/5", "14": "-71/145", "15": "29/20", "16": "-4/5", '
        '"2": "29/20", "3": "-4/5", "4": "29/20", "5": "-4/5", "6": "796/355", '
        '"7": "-71/145", "8": "29/20", "9": "-4/5"}}\n'
    ),
}


@pytest.mark.parametrize("graph, alpha, fmt", sorted(JT_GOLDEN))
def test_jt_values_golden(graph, alpha, fmt, tmp_path, capsys):
    # path:4 at 1 runs the zero rule; the starlike tree is (4, 4, 2, 2, 3)
    arg = graph
    if graph == "starlike":
        arg = str(tmp_path / "starlike.edges")
        save_graph(build_starlike((4, 4, 2, 2, 3)), arg)
    assert main(["jt", arg, "--alpha", alpha, "--values", "--format", fmt]) == 0
    assert capsys.readouterr().out == JT_GOLDEN[graph, alpha, fmt]


def test_jt_decimal_alpha(capsys):
    assert main(["jt", "path:3", "--alpha", "1.8", "--root", "2"]) == 0
    out = capsys.readouterr().out
    assert "alpha: 1.8" in out
    assert "above: 1" in out  # spectrum {3, 1, 0}


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.3 TiB"), MemoryError()])
def test_out_of_memory_is_an_input_error(exc, monkeypatch, capsys):
    def too_large(g):
        raise exc

    monkeypatch.setattr(lapeq.spectra, "laplacian_spectrum", too_large)
    assert main(["spectrum", "path:4"]) == 2
    assert capsys.readouterr().err == f"error: {str(exc) or 'MemoryError'}\n"


def test_jt_rejects_non_tree(capsys):
    assert main(["jt", "cycle:4", "--alpha", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# --- verify --------------------------------------------------------------------


def test_verify_family_writes_report(tmp_path, capsys):
    assert main(["verify", "family", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    assert "family" in out and "pass" in out
    report = json.loads((tmp_path / "verify_family.json").read_text())
    assert report[0]["status"] == "pass"
    assert report[0]["evidence"]["n"] == 14


def test_verify_family_dense_limit_checked_before_any_graph(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(lapeq.graphs, "MAX_DENSE_ORDER", 5)

    def refuse(*args, **kwargs):
        raise AssertionError("no family is built past the dense limit")

    monkeypatch.setattr(lapeq.checks, "check_family", refuse)
    assert main(["verify", "family", "--ell", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: graph order 14 exceeds the dense-matrix limit of 5 vertices\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("claim", ["path-replacement", "energy", "sigma"])
def test_verify_branches_dense_limit_checked_first(claim, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(lapeq.graphs, "MAX_DENSE_ORDER", 5)

    def refuse(*args, **kwargs):
        raise AssertionError("no tree is built past the dense limit")

    for name in ("spider", "starlike_mirror"):
        monkeypatch.setattr(lapeq.checks, name, refuse)
    assert main(["verify", claim, "--branches", "2,2,1", "--k", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: graph order 6 exceeds the dense-matrix limit of 5 vertices\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["replacement", "--count", "0"], "the grid of count=0 random mirrors"),
        (["energy", "--max-n", "4"], "the starlike grid up to max_n=4"),
        (["sigma", "--max-n", "2"], "the starlike grid up to max_n=2"),
    ],
    ids=["replacement", "energy", "sigma"],
)
def test_verify_empty_grid_is_an_input_error(argv, grid, tmp_path, capsys):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr().err == f"error: nothing to check: {grid} is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_energy_single_instance(tmp_path, capsys):
    assert main(["verify", "energy", "--branches", "2,2,1", "--k", "2"]) == 0
    report = json.loads((tmp_path / "verify_energy.json").read_text())
    assert report[0]["evidence"]["branches"] == [2, 2, 1]


def test_successive_calls_do_not_share_options(tmp_path, capsys):
    # main() reuses one parser per process; options of one call must not
    # reach the next
    assert main(["verify", "energy", "--branches", "2,2,1", "--k", "2"]) == 0
    assert main(["verify", "energy", "--max-n", "8"]) == 0
    report = json.loads((tmp_path / "verify_energy.json").read_text())[0]
    assert report["tolerance"] == 1e-8
    assert report["evidence"]["max_n"] == 8
    assert "branches" not in report["evidence"]
    assert main(["verify", "sigma", "--max-n", "8", "--report", str(tmp_path / "s.json")]) == 0
    assert main(["verify", "sigma", "--max-n", "8"]) == 0
    assert (tmp_path / "verify_sigma.json").exists()


def test_verify_path_replacement_single_instance(tmp_path, capsys):
    assert main(["verify", "path-replacement", "--branches", "4,4,2,2,3", "--k", "2"]) == 0
    [report] = json.loads((tmp_path / "verify_path-replacement.json").read_text())
    assert report["status"] == "pass"
    assert (report["evidence"]["n"], report["evidence"]["k"]) == (16, 2)


@pytest.mark.parametrize(
    "branches, k", [("2,2,1", "3"), ("3,3", "3"), ("3,3,2", "0")],
    ids=["no-pair-of-length-k", "two-branches", "k-zero"],
)
def test_verify_path_replacement_rejects_bad_instances(branches, k, tmp_path, capsys):
    assert main(["verify", "path-replacement", "--branches", branches, "--k", k]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "verify_path-replacement.json").exists()


def test_verify_parses_branches_once(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_branches(text)

    monkeypatch.setattr(lapeq.cli, "parse_branches", counted)
    assert main(["verify", "energy", "--branches", "2,2,1", "--k", "2"]) == 0
    assert calls == ["2,2,1"]


def test_verify_branches_requires_k(capsys):
    assert main(["verify", "energy", "--branches", "2,2,1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("claim", ["path-replacement", "energy", "sigma"])
def test_verify_k_requires_branches(claim, tmp_path, capsys):
    assert main(["verify", claim, "--k", "4"]) == 2
    assert capsys.readouterr().err == "error: --branches is required with --k\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("claim", ["energy", "sigma"])
def test_verify_max_n_with_branches_is_an_input_error(claim, tmp_path, capsys):
    argv = ["verify", claim, "--branches", "4,4,2,2,3", "--k", "2", "--max-n", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --max-n cannot be combined with --branches\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("claim", ["path-replacement", "energy", "sigma"])
def test_verify_empty_branches_is_an_input_error(claim, tmp_path, capsys):
    assert main(["verify", claim, "--branches", "", "--k", "2"]) == 2
    assert capsys.readouterr().err == "error: branches must be comma-separated integers, got ''\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lapeq.checks, "TRIG_TOL", 0.0)
    assert main(["verify", "trig", "--kmax", "5"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out
    report = json.loads((tmp_path / "verify_trig.json").read_text())
    assert report[0]["status"] == "fail"


def test_verify_custom_report_path(tmp_path, capsys):
    target = tmp_path / "nested" / "out.json"
    assert main(["verify", "sigma", "--branches", "2,2,1", "--k", "2",
                 "--report", str(target)]) == 0
    assert json.loads(target.read_text())[0]["claim"] == "sigma"


def test_verify_all_small(tmp_path, capsys):
    assert main(["verify", "all", "--budget", "small"]) == 0
    out = capsys.readouterr().out
    for claim in ("replacement", "path-replacement", "energy", "sigma", "family", "trig",
                  "jt-oracle", "structural"):
        assert claim in out
    report = json.loads((tmp_path / "verify_all.json").read_text())
    assert len(report) == 9
    assert "odd-branch-experiment" in {r["claim"] for r in report}
    assert all(r["status"] == "pass" for r in report)


def test_unknown_claim_is_usage_error():
    for argv in (["verify", "entropy"], ["verify", "all", "--experiments"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_module_entry_point():
    # `python -m lapeq.cli` from a checkout, with src on the module path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "lapeq.cli", "spectrum", "path:2", "--format", "csv"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "index,eigenvalue" and len(lines) == 3
    assert [float(ln.split(",")[1]) for ln in lines[1:]] == pytest.approx([2.0, 0.0], abs=1e-12)


def test_console_script_installed():
    exe = shutil.which("lapeq")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "spectrum", "path:2", "--format", "csv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "index,eigenvalue"
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0, abs=1e-12)


# --- start-up ------------------------------------------------------------------


def _checkout_env() -> dict:
    """The environment with this checkout's src first on the module path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _modules_loaded(code: str) -> set[str]:
    """The lapeq and numpy modules a fresh interpreter holds after running code."""
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.partition('.')[0] in ('lapeq', 'numpy')))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _modules_after(*argvs) -> set[str]:
    """The lapeq and numpy modules loaded once main() has run each argv in turn."""
    return _modules_loaded(
        "from lapeq.cli import main\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )


def test_commands_import_only_what_they_run(tmp_path):
    loaded = _modules_after(
        ["jt", "path:4", "--alpha", "1"],
        ["build", "starlike", "--branches", "2,2,1", "--out", str(tmp_path / "s.edges")],
        # classify and unique_cycle_length walk each graph without numpy
        ["build", "family", "--ell", "2", "--outdir", str(tmp_path / "fam")],
        ["build", "mirror", "--core", "path:3", "--host", "cycle:5", "--root", "1",
         "--link", "001", "--cross", "001", "--out", str(tmp_path / "m.edges")],
    )
    assert "numpy" not in loaded
    assert {"lapeq.checks", "lapeq.spectra"}.isdisjoint(loaded)
    loaded = _modules_after(["spectrum", "path:4"])
    assert "numpy" in loaded
    assert {"lapeq.checks", "lapeq.construct", "lapeq.treecount"}.isdisjoint(loaded)
    loaded = _modules_loaded(
        "import lapeq.treecount\n"
        "from lapeq.graphs import path\n"
        "assert lapeq.treecount.sigma_tree(path(5)) == 2\n"
        "p4 = path(4)\n"
        "assert lapeq.treecount._berkowitz(p4.degrees(), p4.adjacency) == (1, -6, 10, -4, 0)\n"
        "assert lapeq.treecount._charpoly(p4, p4.degrees()) == (1, -6, 10, -4, 0)\n"
    )
    assert "numpy" not in loaded and "lapeq.spectra" not in loaded


def test_package_exports_resolve_lazily():
    import lapeq

    for name in lapeq.__all__:
        obj = getattr(lapeq, name)
        assert obj.__module__.startswith("lapeq.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(lapeq.__all__) <= set(dir(lapeq))
    assert lapeq.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lapeq.no_such_name
