"""Spectra, clustering into components, and pseudospectra.

Everything is dense and blockwise; the spectrum of a block operator is the
union over blocks.  Spectra of finite matrices are finite sets, so
"connected components" means single-linkage clusters at a caller-chosen
threshold, and the boundary of the spectrum is the spectrum itself (the
finite-dimensional surrogate used throughout this package).
Clustering is one union-find, :func:`link_components`, over the point pairs
a KD-tree finds within the threshold; ``cfun.range_components`` shares it.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.spatial

from .algebra import BlockOperator
from .errors import ConvergenceFailure, EmptySpectralWindow

__all__ = [
    "eigenvalues",
    "SpectrumReport",
    "link_components",
    "cluster_points",
    "spectrum_components",
    "rightmost_boundary_point",
    "min_singular_value",
    "GridSpec",
    "PseudospectrumGrid",
    "pseudospectrum_grid",
    "write_spectrum_csv",
    "write_pseudospectrum_csv",
]


def eigenvalues(T: BlockOperator) -> np.ndarray:
    """All eigenvalues (with multiplicity), pooled over blocks.

    Sorted lexicographically by (Re, Im) so equal inputs give equal output.
    """
    vals = []
    for sid, b in T.summands:
        try:
            vals.append(scipy.linalg.eigvals(b))
        except Exception as exc:  # LinAlgError and friends
            raise ConvergenceFailure(f"eigensolver failed on summand {sid}: {exc}")
    out = np.concatenate(vals)
    order = np.lexsort((out.imag, out.real))
    return out[order]


def link_components(n: int, pairs) -> list:
    """Component label of each vertex 0..n-1 of the graph with edges ``pairs``.

    Labels count up in order of each component's first vertex, so they depend
    on the partition only, not on the order of the edges."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    first = {}
    return [first.setdefault(find(i), len(first)) for i in range(n)]


def cluster_points(points: np.ndarray, threshold: float) -> np.ndarray:
    """Single-linkage cluster labels: points within ``threshold`` link up.

    The KD-tree's squared distances round differently from ``|z - w|``, so it
    is queried slightly wider and ``|z - w| <= threshold`` decides each pair."""
    pts = np.asarray(points, dtype=complex)
    tree = scipy.spatial.cKDTree(np.column_stack([pts.real, pts.imag]))
    pairs = tree.query_pairs(threshold * (1.0 + 1e-9), output_type="ndarray")
    pairs = pairs[np.abs(pts[pairs[:, 0]] - pts[pairs[:, 1]]) <= threshold]
    return np.array(link_components(len(pts), pairs.tolist()), dtype=int)


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum points, their cluster labels (numbered by first point), the gap.

    ``gap`` is the smallest distance between points of different clusters
    (``inf`` for a single cluster); it always exceeds the linking threshold.
    """

    eigenvalues: tuple
    labels: tuple
    threshold: float
    gap: float

    @property
    def n_components(self) -> int:
        return max(self.labels) + 1

    @property
    def disconnected(self) -> bool:
        return self.n_components >= 2


def spectrum_components(points, threshold: float) -> SpectrumReport:
    """Cluster spectrum points at a threshold; >= 2 clusters means disconnected."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise EmptySpectralWindow("no spectrum points to cluster")
    labels = cluster_points(pts, threshold)
    if labels.max() == 0:
        gap = np.inf
    else:
        dist = np.abs(pts[:, None] - pts[None, :])
        inter = dist[labels[:, None] != labels[None, :]]
        gap = float(inter.min())
    return SpectrumReport(eigenvalues=tuple(pts),
                          labels=tuple(int(l) for l in labels),
                          threshold=float(threshold), gap=gap)


def rightmost_boundary_point(T: BlockOperator) -> complex:
    """The spectrum point with maximal real part; ties broken by maximal
    imaginary part.  (In finite dimensions every spectrum point is a
    boundary point.)"""
    ev = eigenvalues(T)
    return complex(ev[-1])  # lexsorted by (Re, Im)


def min_singular_value(T: BlockOperator, lam: complex = 0.0) -> float:
    """Smallest singular value of T - lam*I (block diagonal: min over blocks)."""
    best = np.inf
    for _, b in T.summands:
        shifted = b - complex(lam) * np.eye(b.shape[0])
        s = np.linalg.svd(shifted, compute_uv=False)
        best = min(best, float(s[-1]))
    return best


@dataclass(frozen=True)
class GridSpec:
    """Rectangle in the complex plane sampled on an nx-by-ny lattice."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int = 81
    ny: int = 81

    def __post_init__(self):
        if self.re_min >= self.re_max or self.im_min >= self.im_max:
            raise ValueError("degenerate grid rectangle")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def res(self):
        return np.linspace(self.re_min, self.re_max, self.nx)

    def ims(self):
        return np.linspace(self.im_min, self.im_max, self.ny)


@dataclass(frozen=True)
class PseudospectrumGrid:
    res: tuple
    ims: tuple
    sigma_min: tuple      # row-major, ims outer / res inner
    eps: float

    def marked(self) -> np.ndarray:
        return np.asarray(self.sigma_min) <= self.eps

    @property
    def marked_fraction(self) -> float:
        m = self.marked()
        return float(np.count_nonzero(m)) / m.size


def pseudospectrum_grid(T: BlockOperator, eps: float, grid: GridSpec,
                        threads: int = 1) -> PseudospectrumGrid:
    """sigma_min(T - zI) on the grid; a point is in the eps-pseudospectrum
    when that value is <= eps.

    Results are assembled row-by-index, so the output is identical for any
    thread count.
    """
    res = grid.res()
    ims = grid.ims()
    blocks = [np.asarray(b) for _, b in T.summands]
    eyes = [np.eye(b.shape[0]) for b in blocks]

    def row(iy):
        out = np.empty(len(res))
        for ix, x in enumerate(res):
            z = complex(x, ims[iy])
            out[ix] = min(
                np.linalg.svd(b - z * e, compute_uv=False)[-1]
                for b, e in zip(blocks, eyes)
            )
        return out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(row, range(len(ims))))
    else:
        rows = [row(iy) for iy in range(len(ims))]
    sig = np.vstack(rows)
    return PseudospectrumGrid(res=tuple(float(x) for x in res),
                              ims=tuple(float(y) for y in ims),
                              sigma_min=tuple(tuple(float(v) for v in r) for r in sig),
                              eps=float(eps))


def write_spectrum_csv(report: SpectrumReport, path):
    """Columns: re, im, component_id."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "component_id"])
        for z, label in zip(report.eigenvalues, report.labels):
            w.writerow([repr(z.real), repr(z.imag), label])


def write_pseudospectrum_csv(ps: PseudospectrumGrid, path):
    """Columns: re, im, marked (1 when sigma_min <= eps)."""
    marked = ps.marked()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "marked"])
        for iy, y in enumerate(ps.ims):
            for ix, x in enumerate(ps.res):
                w.writerow([repr(float(x)), repr(float(y)), int(marked[iy, ix])])
