"""Functions on compact subsets of the line: when are disconnected spectra dense?

For X a compact subset of R and f in C(X) (complex valued), the spectrum of
f is its range.  Functions with disconnected range are dense in C(X) exactly
when X is *not* a finite union of disjoint (nondegenerate) closed intervals.
The constructive side implemented here: given such an X and a piecewise
linear f, produce g with ``||g - f||_inf < eps`` whose range splits off an
isolated value:

1. approximate f within eps/3 by a piecewise linear G (exact when f is
   already PL);
2. cut a clopen piece X0 of X small enough that G oscillates less than
   eps/3 on it — gap midpoints give such pieces with diameters shrinking
   geometrically (an isolated point gives diameter zero outright);
3. pick lambda off the (measure-zero) range of G with
   ``|lambda - G(t0)| < eps/3`` for a point t0 of X0, and set g = lambda on
   X0, g = G elsewhere, interpolating through the gaps around X0.

The negative side: X = a disjoint union of n >= 2 unit intervals carries a
witness f (real segment through 0 on the first interval, imaginary segments
through 0 on the rest) none of whose small perturbations has disconnected
range — the perturbed curves must still cross near the origin.

Interval endpoints and isolated points are exact rationals
(:class:`fractions.Fraction`), so gap midpoints, clopen cuts and piece
diameters are computed without rounding; PL data is floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.spatial

from .errors import ExhaustedSamples, FiniteUnion, ShapeMismatch
from .spectral import link_components

__all__ = [
    "CompactRealSet",
    "CantorGenerator",
    "PLFunction",
    "ClopenPiece",
    "is_finite_interval_union",
    "clopen_small_pieces",
    "pl_approximate",
    "offrange_lambda",
    "CfunDisconnectResult",
    "cfun_disconnect",
    "nondensity_witness",
    "RangeReport",
    "range_components",
    "set_to_dict",
    "set_from_dict",
    "read_set",
    "write_set",
    "pl_to_dict",
    "pl_from_dict",
    "read_pl",
    "write_pl",
]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))       # exact decimal reading of the repr
    if isinstance(x, str):
        return Fraction(x)
    raise ShapeMismatch(f"cannot read {x!r} as a rational number")


def _frac_out(fr: Fraction):
    # floats only when the decimal repr reads back exactly; else "p/q"
    f = float(fr)
    if Fraction(str(f)) == fr:
        return f
    return f"{fr.numerator}/{fr.denominator}"


@dataclass(frozen=True)
class CantorGenerator:
    """Self-similar two-branch construction: each interval keeps its two
    outer pieces of relative length ``ratio`` (< 1/2, so gaps are real)."""

    depth: int
    ratio: Fraction
    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "ratio", _frac(self.ratio))
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        if not (0 < self.ratio < Fraction(1, 2)):
            raise ShapeMismatch("cantor ratio must be in (0, 1/2)")
        if self.depth < 1:
            raise ShapeMismatch("cantor depth must be >= 1")
        if self.lo >= self.hi:
            raise ShapeMismatch("cantor base interval is degenerate")

    def stage_intervals(self):
        segs = [(self.lo, self.hi)]
        for _ in range(self.depth):
            nxt = []
            for a, b in segs:
                length = b - a
                nxt.append((a, a + self.ratio * length))
                nxt.append((b - self.ratio * length, b))
            segs = nxt
        return tuple(segs)


@dataclass(frozen=True)
class CompactRealSet:
    """Disjoint nondegenerate closed intervals plus isolated points.

    Degenerate intervals given as [a, a] are normalized into points.  All
    pieces must be pairwise separated by positive gaps.  A generator tags
    the set as the depth-``d`` stage of a self-similar limit object; such
    sets answer ``False`` to :func:`is_finite_interval_union` because the
    limit has infinitely many gaps.
    """

    intervals: tuple = ()
    points: tuple = ()
    generator: CantorGenerator = None

    def __post_init__(self):
        ivals, pts = [], []
        for a, b in self.intervals:
            a, b = _frac(a), _frac(b)
            if a > b:
                raise ShapeMismatch(f"interval [{a}, {b}] is reversed")
            if a == b:
                pts.append(a)
            else:
                ivals.append((a, b))
        pts.extend(_frac(p) for p in self.points)
        ivals.sort()
        pts = sorted(set(pts))
        pieces = sorted([(a, b) for a, b in ivals] + [(p, p) for p in pts])
        if not pieces:
            raise ShapeMismatch("the empty set is not a compact subset here")
        for (a1, b1), (a2, b2) in zip(pieces, pieces[1:]):
            if a2 <= b1:
                raise ShapeMismatch(
                    f"pieces [{a1},{b1}] and [{a2},{b2}] touch or overlap")
        object.__setattr__(self, "intervals", tuple(ivals))
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def cantor(cls, depth: int, ratio, lo=0, hi=1) -> "CompactRealSet":
        gen = CantorGenerator(depth=depth, ratio=_frac(ratio),
                              lo=_frac(lo), hi=_frac(hi))
        return cls(intervals=gen.stage_intervals(), generator=gen)

    @property
    def inf(self) -> Fraction:
        cands = [a for a, _ in self.intervals] + list(self.points)
        return min(cands)

    @property
    def sup(self) -> Fraction:
        cands = [b for _, b in self.intervals] + list(self.points)
        return max(cands)

    @property
    def diam(self) -> Fraction:
        return self.sup - self.inf

    @property
    def more_than_one(self) -> bool:
        return bool(self.intervals) or len(self.points) > 1

    def pieces(self):
        """All material as (lo, hi) pairs, points degenerate, sorted."""
        return sorted([(a, b) for a, b in self.intervals]
                      + [(p, p) for p in self.points])

    def contains(self, x) -> bool:
        x = _frac(x)
        return any(a <= x <= b for a, b in self.pieces())

    def restrict(self, lo: Fraction, hi: Fraction) -> "CompactRealSet":
        """X ∩ [lo, hi] where the cuts fall in gaps (no piece may straddle)."""
        ivals, pts = [], []
        for a, b in self.pieces():
            if b < lo or a > hi:
                continue
            if a < lo or b > hi:
                raise ShapeMismatch(f"cut [{lo},{hi}] slices piece [{a},{b}]")
            if a == b:
                pts.append(a)
            else:
                ivals.append((a, b))
        return CompactRealSet(intervals=tuple(ivals), points=tuple(pts))


def is_finite_interval_union(X: CompactRealSet) -> bool:
    """True when X is exactly a finite union of nondegenerate closed
    intervals — i.e. no isolated points and no generator backing."""
    return not X.points and X.generator is None


@dataclass(frozen=True)
class ClopenPiece:
    """A clopen subset of X: ``subset = X ∩ (cut_lo, cut_hi)`` with both cut
    points in gaps of X (or beyond its ends), hence open and closed in X."""

    subset: CompactRealSet
    cut_lo: Fraction
    cut_hi: Fraction

    @property
    def diam(self) -> Fraction:
        if len(self.subset.points) == 1 and not self.subset.intervals:
            return Fraction(0)
        return self.subset.sup - self.subset.inf

    @property
    def hull(self):
        return self.subset.inf, self.subset.sup


def _isolated_point_piece(X: CompactRealSet) -> ClopenPiece:
    x0 = min(X.points)
    below = [b for _, b in X.pieces() if b < x0]
    above = [a for a, _ in X.pieces() if a > x0]
    cut_lo = (max(below) + x0) / 2 if below else x0 - 1
    cut_hi = (min(above) + x0) / 2 if above else x0 + 1
    return ClopenPiece(subset=CompactRealSet(points=(x0,)),
                       cut_lo=cut_lo, cut_hi=cut_hi)


def clopen_small_pieces(X: CompactRealSet, n: int):
    """``n`` clopen pieces of X with (weakly) shrinking diameters.

    With an isolated point x0: n copies of {x0} (diameter zero).  Otherwise
    X must be generator-backed; successive midpoints of the gaps flanking
    the leftmost branch cut off pieces whose diameters shrink geometrically
    toward ``inf X``.  Raises :class:`FiniteUnion` when X is a plain finite
    union of intervals, and ValueError when the stage depth cannot supply
    ``n`` distinct pieces.
    """
    if n < 1:
        raise ValueError("need n >= 1 pieces")
    if is_finite_interval_union(X):
        raise FiniteUnion("a finite union of closed intervals has no small "
                          "clopen pieces to cut")
    if X.points:
        return [_isolated_point_piece(X)] * n

    gen = X.generator
    if n > gen.depth:
        raise ValueError(f"stage depth {gen.depth} supplies at most "
                         f"{gen.depth} pieces; asked for {n}")
    L = gen.hi - gen.lo
    # m_j = lo + L r^{j-1} / 2 is the midpoint of the gap splitting the
    # leftmost level-(j-1) interval; the m_j decrease toward inf X.
    mids = [gen.lo + L * gen.ratio ** (j - 1) / 2 for j in range(1, gen.depth + 1)]
    pieces = []
    for j in range(n):
        lo_cut = mids[j]
        hi_cut = mids[j - 1] if j >= 1 else X.sup + 1
        pieces.append(ClopenPiece(subset=X.restrict(lo_cut, hi_cut),
                                  cut_lo=lo_cut, cut_hi=hi_cut))
    return pieces


# -- piecewise linear functions ---------------------------------------------


@dataclass(frozen=True)
class PLFunction:
    """Complex-valued piecewise linear interpolant on [breakpoints[0], breakpoints[-1]]."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        b = np.asarray([float(x) for x in self.breakpoints], dtype=float)
        v = np.asarray([complex(z) for z in self.values], dtype=complex)
        if b.ndim != 1 or b.shape != v.shape or len(b) < 2:
            raise ShapeMismatch("need matching breakpoints/values, length >= 2")
        if not np.all(np.diff(b) > 0):
            raise ShapeMismatch("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in b))
        object.__setattr__(self, "values", tuple(complex(z) for z in v))

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        b = np.asarray(self.breakpoints)
        if t_arr.min() < b[0] - 1e-12 or t_arr.max() > b[-1] + 1e-12:
            raise ShapeMismatch(f"evaluation outside domain [{b[0]}, {b[-1]}]")
        v = np.asarray(self.values)
        out = np.interp(t_arr, b, v.real) + 1j * np.interp(t_arr, b, v.imag)
        return out if np.ndim(t) else complex(out[0])

    @property
    def domain(self):
        return self.breakpoints[0], self.breakpoints[-1]

    def lipschitz(self) -> float:
        b = np.asarray(self.breakpoints)
        v = np.asarray(self.values)
        return float(np.max(np.abs(np.diff(v)) / np.diff(b)))

    def refine(self, extra) -> "PLFunction":
        """Same function with extra breakpoints inserted."""
        b = np.union1d(np.asarray(self.breakpoints),
                       np.asarray([float(x) for x in extra]))
        lo, hi = self.domain
        b = b[(b >= lo) & (b <= hi)]
        return PLFunction(breakpoints=b, values=self(b))

    def segments(self):
        v = self.values
        return [(v[i], v[i + 1]) for i in range(len(v) - 1)]

    def sup_norm_on(self, X: CompactRealSet) -> float:
        """Exact sup of |f| over X: |f| is convex on each linear segment, so
        the max over an interval is attained at a breakpoint or an interval
        endpoint — all of which are evaluated, none sampled."""
        lo, hi = self.domain
        if float(X.inf) < lo - 1e-12 or float(X.sup) > hi + 1e-12:
            raise ShapeMismatch("X is not contained in the function's domain")
        b = np.asarray(self.breakpoints)
        best = 0.0
        for a, c in X.pieces():
            fa, fc = float(a), float(c)
            if fa == fc:
                best = max(best, abs(self(fa)))
                continue
            inner = b[(b > fa) & (b < fc)]
            cand = np.concatenate(([fa], inner, [fc]))
            best = max(best, float(np.max(np.abs(self(cand)))))
        return best


def pl_approximate(f, tol: float, lo=None, hi=None, max_refine: int = 18):
    """A PL function within ``tol`` of ``f`` in sup norm.

    PL inputs are returned unchanged (the distance is zero).  A callable is
    sampled on doubling grids over [lo, hi] until the interpolation error,
    probed at segment midpoints, drops below tol/2.
    """
    if isinstance(f, PLFunction):
        return f
    if lo is None or hi is None:
        raise ShapeMismatch("sampling a callable needs lo and hi")
    n = 17
    for _ in range(max_refine):
        t = np.linspace(float(lo), float(hi), n)
        g = PLFunction(breakpoints=t, values=[complex(f(x)) for x in t])
        mids = (t[:-1] + t[1:]) / 2.0
        err = max(abs(complex(f(m)) - g(m)) for m in mids)
        if err <= tol / 2.0:
            return g
        n = 2 * n - 1
    raise ExhaustedSamples(f"could not reach tol={tol} with {n} samples")


def _seg_dist(z, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def offrange_lambda(G: PLFunction, target: complex, tol: float):
    """A value lambda with ``|lambda - target| < tol`` strictly off the range
    of G, chosen deterministically to maximize clearance.

    The range of a PL function is a finite union of segments (measure zero),
    so candidates on rings around the target almost all work; the search
    refines the rings a few times before giving up.
    Returns ``(lambda, clearance)``.
    """
    target = complex(target)
    segs = G.segments()
    best = (None, 0.0)
    n_ang, radii = 16, (0.9, 0.7, 0.5, 0.3)
    for _ in range(6):
        for r in radii:
            ang = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
            for z in target + tol * r * np.exp(1j * ang):
                clear = min(_seg_dist(z, a, b) for a, b in segs)
                if clear > best[1]:
                    best = (complex(z), float(clear))
        if best[0] is not None and best[1] > 0.0:
            return best
        n_ang *= 3
        radii = tuple(r * 0.6 for r in radii) + radii
    raise ExhaustedSamples(f"no value within {tol} of {target} clears the range")


# -- the density construction -------------------------------------------------


@dataclass(frozen=True)
class CfunDisconnectResult:
    """g plus its audit trail: the clopen piece, the isolated value, the
    exact sup distance to f over X, and the gap isolating {lambda} from the
    rest of the range of g."""

    g: PLFunction
    lam: complex
    t0: Fraction
    piece: ClopenPiece
    sup_dist: float
    range_gap: float
    lam_clearance: float


def _nearest_in_piece(piece: ClopenPiece) -> Fraction:
    sub = piece.subset
    center = (sub.inf + sub.sup) / 2
    best, best_d = None, None
    for a, b in sub.pieces():
        cand = center if a <= center <= b else (a if center < a else b)
        d = abs(cand - center)
        if best is None or d < best_d:
            best, best_d = cand, d
    return best


def _range_gap_outside(g: PLFunction, X: CompactRealSet, piece: ClopenPiece,
                       lam: complex) -> float:
    """Exact distance from lam to the image of g over X \\ piece."""
    gap = math.inf
    b = np.asarray(g.breakpoints)
    lo_cut, hi_cut = float(piece.cut_lo), float(piece.cut_hi)
    for a, c in X.pieces():
        fa, fc = float(a), float(c)
        if lo_cut < fa and fc < hi_cut:
            continue                      # that's the piece itself
        if fa == fc:
            gap = min(gap, abs(lam - g(fa)))
            continue
        inner = b[(b > fa) & (b < fc)]
        knots = np.concatenate(([fa], inner, [fc]))
        vals = g(knots)
        for z0, z1 in zip(vals[:-1], vals[1:]):
            gap = min(gap, _seg_dist(lam, z0, z1))
    return float(gap)


def cfun_disconnect(X: CompactRealSet, f: PLFunction, eps: float) -> CfunDisconnectResult:
    """Perturb f by less than ``eps`` in sup norm so its range disconnects.

    Requires X not a finite union of intervals (and more than one point).
    The output g equals an off-range value lambda on one small clopen piece
    of X and equals f elsewhere on X, with the crossover interpolated
    through the gaps around the piece; ``||g - f||_inf`` over X is computed
    exactly from the PL data and certified < eps, and {lambda} sits at the
    returned positive distance from the rest of the range.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if is_finite_interval_union(X):
        raise FiniteUnion("every function on a finite interval union is "
                          "approximated by connected-range functions only")
    if not X.more_than_one:
        raise ValueError("need |X| > 1 to disconnect a range")
    G = pl_approximate(f, eps / 3.0)
    if (float(X.inf) < G.domain[0] - 1e-12 or float(X.sup) > G.domain[1] + 1e-12):
        raise ShapeMismatch("f's domain must cover X")

    lip = G.lipschitz()
    budget = eps / 3.0
    max_pieces = 1 if X.points else X.generator.depth
    piece = None
    for p in clopen_small_pieces(X, max_pieces):
        if lip * float(p.diam) < budget:
            piece = p
            break
    if piece is None:
        raise ValueError("no clopen piece is small enough; deepen the "
                         "generator stage or loosen eps")

    t0 = _nearest_in_piece(piece)
    lam, clearance = offrange_lambda(G, G(float(t0)), eps / 3.0)

    x_lo, x_hi = piece.hull
    f_lo, f_hi = float(x_lo), float(x_hi)
    cl, ch = float(piece.cut_lo), float(piece.cut_hi)
    b = np.asarray(G.breakpoints)
    v = np.asarray(G.values)
    left = b < cl
    right = b > ch
    nb, nv = [], []
    if np.any(left):
        nb.extend(b[left]); nv.extend(v[left])
        nb.append(cl); nv.append(G(cl))
    nb.append(f_lo); nv.append(lam)
    if f_hi > f_lo:
        nb.append(f_hi); nv.append(lam)
    if np.any(right):
        nb.append(ch); nv.append(G(ch))
        nb.extend(b[right]); nv.extend(v[right])
    g = PLFunction(breakpoints=nb, values=nv)

    sup_dist = _sup_dist(g, f, X)
    range_gap = _range_gap_outside(g, X, piece, lam)
    assert sup_dist < eps and range_gap > 0.0
    return CfunDisconnectResult(g=g, lam=lam, t0=t0, piece=piece,
                                sup_dist=sup_dist, range_gap=range_gap,
                                lam_clearance=clearance)


def _sup_dist(g: PLFunction, f: PLFunction, X: CompactRealSet) -> float:
    """Exact sup over X of |g - f| for PL g, f: the difference is linear
    between adjacent knots of either function, so its modulus peaks at a
    knot or an X-interval endpoint."""
    knots = np.union1d(np.asarray(g.breakpoints), np.asarray(f.breakpoints))
    best = 0.0
    for a, c in X.pieces():
        fa, fc = float(a), float(c)
        if fa == fc:
            best = max(best, abs(g(fa) - f(fa)))
            continue
        inner = knots[(knots > fa) & (knots < fc)]
        cand = np.concatenate(([fa], inner, [fc]))
        best = max(best, float(np.max(np.abs(g(cand) - f(cand)))))
    return best


def nondensity_witness(n: int):
    """The obstruction set and function for n disjoint unit intervals.

    X = [2,3] ∪ [4,5] ∪ ... ∪ [2n, 2n+1]; f runs 2t-5 (real, through 0) on
    the first interval and i(2t-4k-1) (imaginary, through 0) on the k-th.
    Every perturbation of f smaller than 1 in sup norm keeps a range
    component crossing the real axis and one crossing the imaginary axis
    near the origin, and those crossings intersect: the range stays
    connected, so no nearby function has disconnected spectrum.
    """
    if n < 1:
        raise ValueError("need n >= 1 intervals")
    X = CompactRealSet(intervals=tuple((2 * k, 2 * k + 1) for k in range(1, n + 1)))
    bps, vals = [], []
    for k in range(1, n + 1):
        if k == 1:
            bps += [2.0, 3.0]; vals += [-1.0 + 0j, 1.0 + 0j]
        else:
            bps += [2.0 * k, 2.0 * k + 1]; vals += [-1j, 1j]
    return X, PLFunction(breakpoints=bps, values=vals)


# -- sampled range topology ----------------------------------------------------


@dataclass(frozen=True)
class RangeReport:
    n_components: int
    gap: float
    threshold: float
    resolution: float
    n_samples: int

    @property
    def connected(self) -> bool:
        return self.n_components == 1


def range_components(g: PLFunction, X: CompactRealSet,
                     resolution: float = 1e-3) -> RangeReport:
    """Connected components of g(X), sampled at the given parameter step.

    The image of each X-interval is one continuous curve, so its samples are
    pre-linked as a chain regardless of image distances; chains (and point
    images) then merge when they come within ``3 * Lip(g) * resolution`` —
    adjacent samples along a curve move at most Lip*resolution apart, and
    the factor 3 absorbs the discretization of the true image.  ``gap`` is
    the smallest distance between final components (inf when connected).
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    lip = g.lipschitz()
    threshold = 3.0 * lip * resolution
    chains = []
    b = np.asarray(g.breakpoints)
    for a, c in X.pieces():
        fa, fc = float(a), float(c)
        if fa == fc:
            chains.append(np.asarray([g(fa)]))
            continue
        m = max(2, int(math.ceil((fc - fa) / resolution)) + 1)
        t = np.union1d(np.linspace(fa, fc, m), b[(b > fa) & (b < fc)])
        chains.append(np.asarray(g(t)))

    # One pooled tree instead of chain-pair queries: a deep Cantor set yields
    # thousands of two-sample chains, and the quadratic pair loop dominates.
    pooled = np.concatenate(chains)
    owner = np.repeat(np.arange(len(chains)), [len(c) for c in chains])
    xy = np.column_stack([pooled.real, pooled.imag])
    pairs = scipy.spatial.cKDTree(xy).query_pairs(float(threshold), output_type="ndarray")
    oa, ob = owner[pairs[:, 0]], owner[pairs[:, 1]]
    cross = oa != ob
    labels = link_components(len(chains), zip(oa[cross].tolist(), ob[cross].tolist()))
    n_comps = max(labels) + 1
    gap = math.inf
    if n_comps > 1:
        # samples grouped by component, in chain order within each group
        point_label = np.asarray(labels)[owner]
        cuts = np.cumsum(np.bincount(point_label))[:-1]
        pts = np.split(xy[np.argsort(point_label, kind="stable")], cuts)
        trees = [scipy.spatial.cKDTree(p) for p in pts]
        for i in range(n_comps):
            for j in range(i + 1, n_comps):
                gap = min(gap, float(np.min(trees[j].query(pts[i])[0])))
    return RangeReport(n_components=n_comps, gap=gap, threshold=threshold,
                       resolution=resolution, n_samples=len(pooled))


# -- persistence ----------------------------------------------------------------

# Set schema: {"intervals": [[a, b], ...], "points": [...],
#              "generator": {"cantor": {"depth": 6, "ratio": "1/3",
#                                       "lo": 0, "hi": 1}} | null}
# Rationals are written as plain numbers when their decimal repr is exact,
# else as "p/q" strings; both are read back exactly.


def set_to_dict(X: CompactRealSet) -> dict:
    gen = None
    if X.generator is not None:
        g = X.generator
        gen = {"cantor": {"depth": g.depth, "ratio": _frac_out(g.ratio),
                          "lo": _frac_out(g.lo), "hi": _frac_out(g.hi)}}
    return {
        "intervals": [[_frac_out(a), _frac_out(b)] for a, b in X.intervals],
        "points": [_frac_out(p) for p in X.points],
        "generator": gen,
    }


def set_from_dict(data: dict) -> CompactRealSet:
    gen = data.get("generator")
    if gen is not None:
        c = gen["cantor"]
        return CompactRealSet.cantor(depth=int(c["depth"]), ratio=_frac(c["ratio"]),
                                     lo=_frac(c.get("lo", 0)), hi=_frac(c.get("hi", 1)))
    return CompactRealSet(
        intervals=tuple((_frac(a), _frac(b)) for a, b in data.get("intervals", [])),
        points=tuple(_frac(p) for p in data.get("points", [])))


def write_set(X: CompactRealSet, path):
    with open(path, "w") as fh:
        json.dump(set_to_dict(X), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_set(path) -> CompactRealSet:
    with open(path) as fh:
        return set_from_dict(json.load(fh))


# Function schema: {"breakpoints": [...], "re": [...], "im": [...]}


def pl_to_dict(f: PLFunction) -> dict:
    return {"breakpoints": list(f.breakpoints),
            "re": [z.real for z in f.values],
            "im": [z.imag for z in f.values]}


def pl_from_dict(data: dict) -> PLFunction:
    re = data["re"]
    im = data.get("im", [0.0] * len(re))
    return PLFunction(breakpoints=tuple(data["breakpoints"]),
                      values=tuple(r + 1j * i for r, i in zip(re, im)))


def write_pl(f: PLFunction, path):
    with open(path, "w") as fh:
        json.dump(pl_to_dict(f), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_pl(path) -> PLFunction:
    with open(path) as fh:
        return pl_from_dict(json.load(fh))
