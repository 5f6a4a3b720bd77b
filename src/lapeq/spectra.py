"""Symmetric eigensolver, Laplacian spectra and energy, and closed-form
spectra of perturbed tridiagonal Toeplitz matrices.

Spectra are descending-sorted real multisets with tolerance-aware matching,
which is what the edge-insertion replacement identity needs: it removes one
multiset from a Laplacian spectrum and unions another in.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph, average_degree, laplacian

# Absolute tolerance of eigenvalue comparisons when the caller names none.
SPECTRUM_TOL = 1e-9


class SpectrumMatchError(ValueError):
    """A multiset element found no partner within tolerance."""


class SigmaMismatchError(ValueError):
    """The two graphs disagree on sigma, so the energy-difference formula does not apply."""


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalue multiset, sorted descending."""

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]):
        object.__setattr__(self, "values", tuple(sorted((float(v) for v in values), reverse=True)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def sum(self) -> float:
        return math.fsum(self.values)

    def rounded(self, ndigits: int = 5) -> tuple[float, ...]:
        return tuple(round(v, ndigits) + 0.0 for v in self.values)  # + 0.0 turns -0.0 into 0.0

    def multiplicity(self, x: float, tol: float = SPECTRUM_TOL) -> int:
        return sum(1 for v in self.values if abs(v - x) <= tol)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["index", "eigenvalue"])
        for i, v in enumerate(self.values, start=1):
            writer.writerow([i, repr(v)])
        return buf.getvalue()


# --- eigensolver ---------------------------------------------------------------


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix must have order >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return a


def sym_eigenvalues(m: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, via LAPACK's syevd (eigvalsh)."""
    return Spectrum(np.linalg.eigvalsh(_check_symmetric(m)))


def laplacian_spectrum(g: Graph) -> Spectrum:
    return sym_eigenvalues(laplacian(g))


def _spectrum_of(g: Graph, spectrum: Spectrum | None) -> Spectrum:
    """The given Laplacian spectrum of g, or a fresh solve when none is given."""
    if spectrum is None:
        return laplacian_spectrum(g)
    if len(spectrum) != g.n:
        raise ValueError(f"spectrum has {len(spectrum)} values for a graph on {g.n} vertices")
    return spectrum


def laplacian_energy(g: Graph, spectrum: Spectrum | None = None) -> float:
    """Sum of |eigenvalue - average degree| over the Laplacian spectrum; pass
    the spectrum of g when it is already at hand to skip the solve."""
    dbar = float(average_degree(g))
    return math.fsum(abs(v - dbar) for v in _spectrum_of(g, spectrum))


def sigma_count(spectrum: Spectrum, dbar: float) -> int:
    """Number of eigenvalues >= dbar, counting anything within SPECTRUM_TOL below it."""
    return sum(1 for v in spectrum if v >= dbar - SPECTRUM_TOL)


def energy_report(g: Graph, spectrum: Spectrum | None = None) -> dict:
    spec = _spectrum_of(g, spectrum)
    dbar = float(average_degree(g))
    return {
        "n": g.n,
        "edges": g.num_edges,
        "avg_degree": dbar,
        "sigma": sigma_count(spec, dbar),
        "energy": laplacian_energy(g, spec),
    }


# --- tridiagonal closed form ------------------------------------------------


@dataclass(frozen=True)
class TridiagonalSpec:
    """Order-s tridiagonal Toeplitz matrix (sub/main/super constants a, b, c)
    with the top-left entry perturbed to b - alpha and the bottom-right to b - beta."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    s: int

    def matrix(self) -> np.ndarray:
        if self.s < 1:
            raise ValueError(f"order must be >= 1, got {self.s}")
        m = np.zeros((self.s, self.s))
        np.fill_diagonal(m, self.b)
        for i in range(self.s - 1):
            m[i + 1, i] = self.a
            m[i, i + 1] = self.c
        m[0, 0] -= self.alpha
        m[self.s - 1, self.s - 1] -= self.beta
        return m


def tridiagonal_spectrum(t: TridiagonalSpec) -> Spectrum:
    """Closed-form spectrum {b + 2*alpha*cos(2j*pi/(2s+1)) : j=1..s}.

    Valid only for beta = 0 and alpha^2 = a*c with alpha nonzero.
    """
    if t.s < 1:
        raise ValueError(f"order must be >= 1, got {t.s}")
    if t.beta != 0:
        raise ValueError(f"closed form requires beta = 0, got beta={t.beta}")
    if t.alpha == 0 or abs(t.alpha * t.alpha - t.a * t.c) > 1e-12 * max(1.0, abs(t.a * t.c)):
        raise ValueError(
            f"closed form requires |alpha| = sqrt(a*c) != 0, got alpha={t.alpha}, a*c={t.a * t.c}"
        )
    vals = [t.b + 2.0 * t.alpha * math.cos(2.0 * j * math.pi / (2 * t.s + 1)) for j in range(1, t.s + 1)]
    return Spectrum(vals)


def replacement_spectra(k: int) -> tuple[Spectrum, Spectrum]:
    """The eigenvalue multisets removed and added when a cross edge joins the
    outer ends of two mirrored k-vertex path branches: ({2 + 2cos(2j*pi/(2k+1))},
    {2 - 2cos(2j*pi/(2k+1))}) for j = 1..k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    removed = tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=1, beta=0, s=k))
    added = tridiagonal_spectrum(TridiagonalSpec(-1, 2, -1, alpha=-1, beta=0, s=k))
    return removed, added


def linked_core_matrix(core: Graph, link: Sequence[int]) -> np.ndarray:
    """Laplacian of the core block plus 1 on the diagonal wherever the link
    vector attaches that vertex to the root."""
    if len(link) != core.n:
        raise ValueError(f"link vector length {len(link)} != core order {core.n}")
    if any(x not in (0, 1) for x in link):
        raise ValueError("link vector entries must be 0 or 1")
    m = laplacian(core)
    m[np.arange(core.n), np.arange(core.n)] += np.asarray(link, dtype=float)
    return m


# --- tolerance-aware multiset algebra ----------------------------------------


def multiset_remove(s: Spectrum, d: Spectrum, tol: float = SPECTRUM_TOL) -> Spectrum:
    """Remove one occurrence per element of d from s; raises
    SpectrumMatchError if no one-to-one matching pairs every element of d
    with an element of s within tolerance.

    One ascending walk over both multisets: each x in d takes the smallest
    unused value at or above x - tol. Values skipped below x - tol cannot
    match any later (larger) x, so the walk finds a matching whenever one
    exists, in O(len(s) + len(d)).
    """
    src = s.values[::-1]
    remaining = []
    j = 0
    for x in reversed(d.values):
        while j < len(src) and x - src[j] > tol:
            remaining.append(src[j])
            j += 1
        if j == len(src) or src[j] - x > tol:
            raise SpectrumMatchError(f"no match for {x!r} within {tol:g}")
        j += 1
    remaining.extend(src[j:])
    return Spectrum(remaining)


def multiset_union(s: Spectrum, f: Spectrum) -> Spectrum:
    return Spectrum(s.values + f.values)


def cospectral(s1: Spectrum, s2: Spectrum, tol: float = SPECTRUM_TOL) -> bool:
    """True iff the two multisets have equal size and match pairwise after sorting."""
    if len(s1) != len(s2):
        return False
    return all(abs(x - y) <= tol for x, y in zip(s1.values, s2.values))


def delta_le(g: Graph, g2: Graph, spectra: tuple[Spectrum, Spectrum] | None = None) -> float:
    """Laplacian-energy difference LE(g2) - LE(g) via the partial-sum formula
    2 * sum_{i<=sigma}(mu_i' - mu_i) - 4*sigma*(e' - e)/n.

    Both graphs must have the same vertex count and the same sigma (the number
    of eigenvalues >= their own average degree); otherwise the formula's
    hypothesis fails and SigmaMismatchError is raised. Pass the Laplacian
    spectra of (g, g2) when they are already at hand to skip both solves.
    """
    if g.n != g2.n:
        raise ValueError(f"vertex counts differ: {g.n} != {g2.n}")
    s1, s2 = spectra or (None, None)
    s1 = _spectrum_of(g, s1)
    s2 = _spectrum_of(g2, s2)
    sig1 = sigma_count(s1, float(average_degree(g)))
    sig2 = sigma_count(s2, float(average_degree(g2)))
    if sig1 != sig2:
        raise SigmaMismatchError(f"sigma mismatch: {sig1} != {sig2}")
    delta_e = g2.num_edges - g.num_edges
    top = math.fsum(s2[i] - s1[i] for i in range(sig1))
    return 2.0 * top - 4.0 * sig1 * delta_e / g.n
