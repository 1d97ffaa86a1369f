"""Spectra, clustering into components, and pseudospectra.

Everything is dense and blockwise; the spectrum of a block operator is the
union over blocks.  Spectra of finite matrices are finite sets, so
"connected components" means single-linkage clusters at a caller-chosen
threshold, and the boundary of the spectrum is the spectrum itself (the
finite-dimensional surrogate used throughout this package).
Clustering labels the components of the graph of point pairs within the
threshold with :func:`link_components`, in whole-array hook-and-shortcut
rounds; ``cfun.range_components`` labels its linked image polylines the
same way.  Spectra are small, so the point pairs come from the full matrix
of distances, which also gives a spectrum report its gap.

A pseudospectrum grid factors each block once, to its complex Schur form R,
and finds sigma_min(R - z) for many grid points at a time by inverse
Lanczos on ((R - z)^* (R - z))^{-1}: each step is one forward and one back
substitution per point, O(n^2) instead of an O(n^3) SVD (Trefethen,
"Computation of pseudospectra", Acta Numerica 8, 1999; Wright & Trefethen,
SIAM J. Sci. Comput. 23, 2001).  A kernel call takes _ENTRIES // n points,
so the per-step Python cost is shared by as many points as memory allows;
a point still unsettled after n steps takes one sigma-only SVD of R - z.
A normal block reads sigma_min(R - z) = min_i |R_ii - z| off its Schur
diagonal instead, and a real block on a grid symmetric about the real axis
runs only the rows with Im z >= 0, since sigma_min(b - conj(z)) =
sigma_min(b - z).  On the tested cases the values lie within
10 n ε (||T_j|| + |z|) of a dense SVD, with ε = 2^-52 the machine epsilon;
a block just off normal can exceed that where its two smallest singular
values nearly coincide.  See :func:`pseudospectrum_grid`."""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import _EPS, BlockOperator, _is_count, _pow2_exponent
from .errors import ConvergenceFailure, EmptySpectralWindow

__all__ = [
    "block_eigenvalues",
    "pool_spectra",
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
    "write_pseudospectrum_csv",
]


def block_eigenvalues(T: BlockOperator) -> list:
    """Each block's eigenvalues (with multiplicity), one complex array per
    summand in summand order.  NumPy's eigvals: SciPy 1.17's misscales
    blocks with entries above about 1e138."""
    vals = []
    for sid, b in T.summands:
        try:
            vals.append(np.linalg.eigvals(b).astype(complex, copy=False))
        except Exception as exc:  # LinAlgError and friends
            raise ConvergenceFailure(f"eigensolver failed on summand {sid}: {exc}")
    return vals


def pool_spectra(vals) -> np.ndarray:
    """Concatenate per-block spectra, sorted lexicographically by (Re, Im) so
    equal inputs give equal output."""
    out = np.concatenate(vals)
    return out[np.lexsort((out.imag, out.real))]


def eigenvalues(T: BlockOperator) -> np.ndarray:
    """All eigenvalues (with multiplicity), pooled over blocks and sorted by
    (Re, Im)."""
    return pool_spectra(block_eigenvalues(T))


def link_components(n: int, i, j) -> np.ndarray:
    """Component label of each vertex 0..n-1 of the graph with edges
    (i[k], j[k]), which may repeat, run both ways or be self-loops.

    Labels count up in order of each component's least vertex.  Each round
    hooks every root to the least root it shares an edge with, then
    shortcuts every vertex to its root, until each edge lies within one root
    (Shiloach & Vishkin, J. Algorithms 3, 1982); roots only move down."""
    root = np.arange(n)
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    while True:
        ri, rj = root[i], root[j]
        apart = ri != rj
        if not apart.any():
            break
        i, j, ri, rj = i[apart], j[apart], ri[apart], rj[apart]
        np.minimum.at(root, ri, rj)
        np.minimum.at(root, rj, ri)
        hop = root[root]
        while not np.array_equal(hop, root):
            root, hop = hop, hop[hop]
    # ranks of the roots by a cumsum: NumPy 2.4's np.unique hashes, slowly
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def _single_linkage(points, threshold: float):
    """``points`` as a complex array, their ``|z_i - z_j|`` matrix and their
    single-linkage labels: the pairs with ``|z - w| <= threshold`` link up.
    Points must be finite and ``threshold`` a number >= 0 (0 links equal
    points only); anything else raises ``ValueError``."""
    pts = np.asarray(points, dtype=complex)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN or inf)")
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be a number >= 0, got {threshold!r}")
    n = len(pts)
    dist = np.abs(pts[:, None] - pts[None, :])
    # flat indices: np.nonzero of a 2-D mask is several times slower
    i, j = np.divmod(np.flatnonzero(dist <= threshold), n)
    return pts, dist, link_components(n, i, j)


def cluster_points(points: np.ndarray, threshold: float) -> np.ndarray:
    """Single-linkage cluster labels: points within ``threshold`` link up.
    Points must be finite and ``threshold`` a number >= 0 (0 links equal
    points only); anything else raises ``ValueError``."""
    return _single_linkage(points, threshold)[2]


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum points, their cluster labels (numbered by first point), the gap.

    The points and labels are read-only copies, complex128 and integer.
    ``gap`` is the smallest distance between points of different clusters
    (``inf`` for a single cluster); it always exceeds the linking threshold.
    """

    eigenvalues: np.ndarray
    labels: np.ndarray
    threshold: float
    gap: float

    def __post_init__(self):
        for name, dtype in (("eigenvalues", np.complex128), ("labels", np.intp)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
            getattr(self, name).setflags(write=False)

    @property
    def n_components(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def disconnected(self) -> bool:
        return self.n_components >= 2


def spectrum_components(points, threshold: float) -> SpectrumReport:
    """Cluster spectrum points at a threshold; >= 2 clusters means disconnected.

    The labels are those of :func:`cluster_points`, with its guards, and the
    gap is read off the same matrix of ``|z_i - z_j|``."""
    if np.size(points) == 0:
        raise EmptySpectralWindow("no spectrum points to cluster")
    pts, dist, labels = _single_linkage(points, threshold)
    inter = dist[labels[:, None] != labels[None, :]]
    gap = float(inter.min()) if inter.size else np.inf
    return SpectrumReport(eigenvalues=pts, labels=labels,
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
        if not all(math.isfinite(v) for v in (self.re_min, self.re_max,
                                              self.im_min, self.im_max)):
            raise ValueError("grid bounds must be finite")
        spans = (self.re_max - self.re_min, self.im_max - self.im_min)
        if not all(math.isfinite(v) for v in spans):
            raise ValueError(f"grid spans (re_max - re_min, im_max - im_min) = {spans} "
                             "overflow a float")
        if self.re_min >= self.re_max or self.im_min >= self.im_max:
            raise ValueError("degenerate grid rectangle")
        if not (_is_count(self.nx, 2) and _is_count(self.ny, 2)):
            raise ValueError("nx and ny must be integers >= 2, "
                             f"got nx={self.nx!r}, ny={self.ny!r}")

    def res(self):
        return np.linspace(self.re_min, self.re_max, self.nx)

    def ims(self):
        """Row coordinates; on a range symmetric about the real axis row
        ny - 1 - i is exactly -row i, which np.linspace alone misses by a
        few ulps of im_max."""
        y = np.linspace(self.im_min, self.im_max, self.ny)
        return (y - y[::-1]) / 2 if self.im_min == -self.im_max else y


@dataclass(frozen=True)
class PseudospectrumGrid:
    res: np.ndarray         # read-only, as are ims and sigma_min
    ims: np.ndarray
    sigma_min: np.ndarray   # (ny, nx): [iy, ix] is at res[ix] + i ims[iy]
    eps: float

    def marked(self) -> np.ndarray:
        return self.sigma_min <= self.eps

    @property
    def marked_fraction(self) -> float:
        m = self.marked()
        return float(np.count_nonzero(m)) / m.size


_ENTRIES = 2 ** 18  # entries per (n, points) array of one kernel call
_NB = 16            # rows per substitution block
_RISE = 1e-14       # a point ends once its top Ritz value rises less than this
_NEWTON_STEPS = 60


@dataclass(frozen=True)
class _SchurBlock:
    """One block's complex Schur factor R, divided by a power of two (an
    exact scaling) so that R's largest column or row norm plus the grid's
    largest |z| is at most 1: overflow then means sigma_min is far below
    rounding.  The norms are taken of R scaled to a largest entry in [1/2, 1),
    so they neither overflow nor underflow."""

    R: np.ndarray       # upper triangular
    G: np.ndarray       # R^T with rows and columns reversed: upper triangular
    diag: np.ndarray
    scale: float
    norm_lo: float      # largest column or row norm of R, a lower bound on ||R||_2
    start: np.ndarray   # fixed pseudo-random unit start vector for Lanczos
    normal: bool        # ||strict upper part of R||_F <= 5 n ε norm_lo


def _schur_block(sid, b, zmax: float) -> _SchurBlock:
    try:
        R = scipy.linalg.schur(b, output="complex")[0]
    except (ValueError, np.linalg.LinAlgError) as exc:    # NaN/inf entries too
        raise ConvergenceFailure(f"Schur form failed on summand {sid}: {exc}")
    e = _pow2_exponent(float(np.abs(R).max()))
    unit = R * math.ldexp(1.0, -e)
    with np.errstate(over="ignore"):    # inf is refused below
        norm_lo = float(np.ldexp(max(np.linalg.norm(unit, axis=0).max(),
                                     np.linalg.norm(unit, axis=1).max()), e))
    if not norm_lo + zmax < 2.0 ** 1023:     # its scale, 2^1024 or more, is not a float
        raise ValueError(f"summand {sid}: ||R|| plus the grid's largest |z| is "
                         f"{norm_lo + zmax:.3e}, too large to scale by a power of two")
    scale = 2.0 ** _pow2_exponent(norm_lo + zmax)
    R = R / scale
    n = R.shape[0]
    start = np.random.default_rng(n).standard_normal(2 * n).view(complex)
    return _SchurBlock(R=R, G=R.T[::-1, ::-1].copy(), diag=np.diag(R).copy(),
                       scale=scale, norm_lo=norm_lo / scale,
                       start=start / np.linalg.norm(start),
                       normal=np.linalg.norm(np.triu(R, 1)) <= 5 * n * _EPS * norm_lo / scale)


def _substitute(R, inv, rhs):
    """x with (R - s_j) x_j = rhs_j for every column j, R upper triangular
    and ``inv[i, j] = 1 / (R_ii - s_j)``.  Blocks of _NB rows go bottom-up:
    a block's coupling to the rows below it is one matrix product, and its
    own rows are substituted one at a time across all columns."""
    n = R.shape[0]
    x = np.empty(rhs.shape, dtype=complex)
    for lo in range((n - 1) // _NB * _NB, -1, -_NB):
        hi = min(lo + _NB, n)
        np.subtract(rhs[lo:hi], R[lo:hi, hi:] @ x[hi:], out=x[lo:hi])
        for i in range(hi - 1, lo - 1, -1):
            xi = x[i]
            xi -= R[i, i + 1:hi] @ x[i + 1:hi]
            xi *= inv[i]
    return x


def _sumsq(x) -> np.ndarray:
    """Squared 2-norm of each column of a complex (n, m) array."""
    v = x.view(float)
    s = np.einsum("ij,ij->j", v, v)
    return s[0::2] + s[1::2]


def _top_ritz(alpha, beta, below, weight):
    """Largest eigenvalue theta of each symmetric tridiagonal T_k with
    diagonal ``alpha[:k, j]`` and off-diagonal ``beta[:k-1, j]``, given
    ``below`` = mu, the largest eigenvalue of T_{k-1}, and ``weight``, the
    squared last entry of its unit eigenvector; returns theta and T_k's
    weight.

    On (mu, inf) the last pivot d_k(x) of the LDL^T factorization of
    T_k - x has one root, theta, and psi(x) = d_k(x) (x - mu) is concave
    there.  So a Newton step on psi from the Rayleigh-Ritz value
    max eig [[mu, b w], [b w, a_k]] <= theta (w = sqrt(weight)) lands at or
    above theta if it ascends; if not, the upper bound
    max eig [[mu, b], [b, a_k]] is taken instead.  From above, Newton
    descends monotonically, and a point stops when its step is at rounding
    level or not a descent.  The weight is -1/d_k'(theta)."""
    k = alpha.shape[0]
    if k == 1:
        return alpha[0].copy(), np.ones_like(below)
    b2 = beta[:k - 1] ** 2

    def newton(x):
        """psi/psi' = h / (1 + h u_k) at x, h = x - mu, from the recurrence
        for d_i and u_i = d_i'/d_i; also d_k and d_k'."""
        shifted = alpha - x
        d = shifted[0]
        u = -1.0 / d
        dp = -np.ones_like(x)
        for i in range(1, k):
            t = b2[i - 1] / d
            d = shifted[i] - t
            dp = t * u - 1.0
            u = dp / d
        h = x - below
        return h / (1.0 + h * u), d, dp

    def top_of_2x2(c2):
        half = 0.5 * (below - alpha[-1])
        return below - half + np.sqrt(half * half + c2)

    x = top_of_2x2(b2[-1] * weight)
    step, d, _ = newton(x)
    x = np.where((d > 0.0) & (step < 0.0), x - step, top_of_2x2(b2[-1]))
    moving = np.ones(x.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        step, _, dp = newton(x)
        moving &= step > 0.0
        x = np.where(moving, x - step, x)
        moving &= step > 2.0 * _EPS * x
        if not np.any(moving):
            break
    weight = -1.0 / dp
    return np.maximum(x, below), np.where((weight > 0.0) & (weight <= 1.0), weight, 1.0)


def _block_sigma_min(blk: _SchurBlock, z: np.ndarray) -> np.ndarray:
    """sigma_min(R - z) for each point of z, at most _ENTRIES // n of them.

    A normal block, R = D + N with ||N||_F at most half the smallest floor
    10 n ε ||R||, takes min_i |R_ii - z|, which is sigma_min(R - z) to
    within ||N||_2 <= ||N||_F (Weyl).  Otherwise Lanczos without
    reorthogonalization settles almost every point.  One that runs all n
    steps still rising may have lost orthogonality on the way, so it takes
    one sigma-only SVD of R - z instead, in batches of _ENTRIES // n^2
    points (at least one): a batch's stack of shifted copies of R holds
    max(_ENTRIES, n^2) entries."""
    if blk.normal:
        return blk.scale * np.abs(blk.diag[:, None] - z / blk.scale).min(axis=0)
    sigma, unsettled = _lanczos(blk, z)
    unsettled = np.flatnonzero(unsettled)
    eye = np.eye(blk.diag.shape[0])
    batch = max(1, _ENTRIES // eye.size)
    for lo in range(0, len(unsettled), batch):
        pts = unsettled[lo:lo + batch]
        shifted = blk.R[None] - (z[pts] / blk.scale)[:, None, None] * eye
        sigma[pts] = blk.scale * np.linalg.svd(shifted, compute_uv=False)[:, -1]
    return sigma


def _lanczos(blk: _SchurBlock, z: np.ndarray):
    """sigma_min(R - z) by Lanczos on A = ((R - z)^* (R - z))^{-1}, and the
    mask of points that ran all n steps with their top Ritz value still
    rising.

    Each step costs two triangular solves per point.  A point ends when its
    top Ritz value theta rises by at most _RISE relatively, on breakdown, at
    k = n, or once theta (or the Lanczos beta, a lower bound on the next
    theta) passes 1/floor^2 with floor = 10 n ε (||R|| + |z|): then
    sigma <= floor, at rounding level.  A solve that overflows can only do
    so there too, and so does a zero pivot (R - z exactly singular): its
    NaNs and infinities give sigma = 0.  Nothing is reorthogonalized, so a
    point still rising after n steps may be off."""
    n = blk.diag.shape[0]
    zs = z / blk.scale
    m = len(z)
    sigma = np.zeros(m)
    rising = np.zeros(m, dtype=bool)
    idx = np.arange(m)
    inv = 1.0 / (blk.diag[:, None] - zs[None, :])
    limit = (10.0 * n * _EPS * (blk.norm_lo + np.abs(zs))) ** -2.0
    q = np.repeat(blk.start[:, None], m, axis=1)
    q_prev = None
    beta = np.zeros(m)
    theta = np.zeros(m)
    weight = np.ones(m)
    # most points settle in 10-20 steps: grow the step rows by doubling
    alphas = np.empty((min(n, 16), m))
    betas = np.empty_like(alphas)
    for k in range(n):
        if k == len(alphas):
            rows = min(n, 2 * k)
            alphas = np.concatenate([alphas, np.empty((rows - k, len(idx)))])
            betas = np.concatenate([betas, np.empty((rows - k, len(idx)))])
        # y = (R - z)^{-*} q solves the conjugate system (R - z)^T conj(y) =
        # conj(q), and (R - z)^T with rows and columns reversed is G - z
        w = _substitute(blk.G, inv[::-1], q[::-1].conj())   # conj(y) reversed
        alphas[k] = alpha = _sumsq(w)                       # ||y||^2 = q^* A q
        w = _substitute(blk.R, inv, np.conjugate(w, out=w)[::-1])    # A q
        w -= alpha * q
        if k:
            w -= beta * q_prev
        betas[k] = beta_new = np.sqrt(_sumsq(w))
        prev = theta
        theta, weight = _top_ritz(alphas[:k + 1], betas[:k], theta, weight)
        big = ~(np.maximum(theta, beta_new) <= limit)
        settled = big | (theta - prev <= _RISE * theta) | (beta_new <= _EPS * theta)
        done = settled | (k == n - 1)
        if np.any(done):
            top = np.where(big, np.fmax(theta, beta_new), theta)
            top[np.isnan(top)] = np.inf
            sigma[idx[done]] = blk.scale / np.sqrt(top[done])
            rising[idx[done & ~settled]] = True
            keep = ~done
            if not np.any(keep):
                break
            # one array at a time, so at most one extra copy is alive;
            # compress (unlike a[:, keep]) keeps the rows contiguous
            q_prev = None
            idx, limit, beta_new, theta, weight = (
                a[keep] for a in (idx, limit, beta_new, theta, weight))
            inv = np.compress(keep, inv, axis=1)
            q = np.compress(keep, q, axis=1)
            w = np.compress(keep, w, axis=1)
            alphas = np.compress(keep, alphas, axis=1)
            betas = np.compress(keep, betas, axis=1)
        w /= beta_new
        q_prev, q, beta = q, w, beta_new
    return sigma, rising


def pseudospectrum_grid(T: BlockOperator, eps: float, grid: GridSpec,
                        threads: int = 1) -> PseudospectrumGrid:
    """sigma_min(T - zI) on the grid; a point is in the eps-pseudospectrum
    when that value is <= eps.

    Each block is reduced once to its complex Schur form R (a
    ``ConvergenceFailure`` naming the summand if that fails, NaN and inf
    entries included).  When R's strictly upper part has Frobenius norm at
    most 5 n ε ||R|| (a normal block), sigma_min(R - z) is read off the
    diagonal as min_i |R_ii - z|.  Otherwise it is 1/sqrt of the top
    eigenvalue of ((R - z)^* (R - z))^{-1}, which Lanczos finds from a fixed
    start vector with two triangular solves per step; a point ends when its
    top Ritz value rises by at most 1e-14 relatively, on breakdown, or after
    n steps.  A point still rising after n steps (clustered smallest
    singular values) takes one sigma-only SVD of R - z instead, O(n^3) per
    such point.  On the tested cases each value lies within floor =
    10 n ε (||T_j|| + |z|) of a dense SVD; a block just off normal can miss
    it where its two smallest singular values nearly coincide, since
    Lanczos then stops while still converging.  Where sigma_min is below
    the floor the point stops as soon as that is clear, with a value under
    the floor, and an exactly singular R - z (a zero pivot) gives 0.

    A block with no imaginary part on a grid with im_min == -im_max, whose
    rows ``GridSpec.ims`` makes exact mirrors, runs only the rows with
    Im z >= 0: sigma_min(b - conj(z)) = sigma_min(b - z) gives the others.

    A block of dimension n takes _ENTRIES // n grid points per kernel call
    (at least one), so each call's arrays hold O(_ENTRIES) entries for any
    grid; no Lanczos basis is stored, and the SVDs of unsettled points go
    _ENTRIES // n^2 at a time, max(_ENTRIES, n^2) entries.  The (block,
    slice) tasks depend on the grid and the blocks alone; ``threads``
    workers (an integer >= 1) map over them, and each block's values are
    folded in by ``np.minimum``, so the output is bitwise identical for
    every thread count.  A block or grid so large that a
    Schur factor's largest column or row norm plus the grid's largest |z|
    reaches 2^1023 raises ``ValueError``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not _is_count(threads, 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    res = grid.res()
    ims = grid.ims()
    ny, nx = len(ims), len(res)
    z = np.empty((ny, nx), dtype=complex)
    z.real = res[None, :]
    z.imag = ims[:, None]
    z = z.ravel()
    zmax = float(np.max(np.abs(z)))
    # sigma_min(b - conj(z)) = sigma_min(b - z) for a real block b, so on a
    # grid symmetric about the real axis it runs the rows with Im z >= 0
    # only, into `mirrored`, whose other rows are then reflected copies
    sig = np.full(len(z), np.inf)
    mirrored = np.full(len(z), np.inf)
    tasks = []
    for sid, b in T.summands:
        blk = _schur_block(sid, b, zmax)
        real = grid.im_min == -grid.im_max and not np.any(np.imag(b))
        first, out = (ny // 2 * nx, mirrored) if real else (0, sig)
        step = max(1, _ENTRIES // blk.diag.shape[0])
        tasks += [(blk, slice(lo, lo + step), out) for lo in range(first, len(z), step)]

    def run(task):
        blk, pts, _ = task
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _block_sigma_min(blk, z[pts])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, tasks))
    else:
        parts = [run(task) for task in tasks]
    for (_, pts, out), part in zip(tasks, parts):
        np.minimum(out[pts], part, out=out[pts])
    sig, mirrored = sig.reshape(ny, nx), mirrored.reshape(ny, nx)
    mirrored[:ny // 2] = mirrored[ny - ny // 2:][::-1]
    np.minimum(sig, mirrored, out=sig)
    for a in (res, ims, sig):
        a.setflags(write=False)
    return PseudospectrumGrid(res=res, ims=ims, sigma_min=sig, eps=float(eps))


def write_pseudospectrum_csv(ps: PseudospectrumGrid, path):
    """Columns: re, im, marked (1 when sigma_min <= eps)."""
    marked = ps.marked()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "marked"])
        for iy, y in enumerate(ps.ims):
            for ix, x in enumerate(ps.res):
                w.writerow([repr(float(x)), repr(float(y)), int(marked[iy, ix])])
