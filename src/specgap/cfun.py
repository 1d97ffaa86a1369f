"""Functions on compact subsets of the line: when are disconnected spectra dense?

For X a compact subset of R and f in C(X) (complex valued), the spectrum of
f is its range.  Functions with disconnected range are dense in C(X) exactly
when X is *not* a finite union of disjoint (nondegenerate) closed intervals.
The constructive side implemented here: given such an X and a piecewise
linear f (a :class:`PLFunction`), produce g with ``||g - f||_inf < eps``
whose range splits off an isolated value:

1. cut a clopen piece X0 of X small enough that f oscillates less than
   eps/3 on it — gap midpoints give such pieces with diameters shrinking
   geometrically (an isolated point gives diameter zero outright);
2. pick lambda off the (measure-zero) range of f with
   ``|lambda - f(t0)| < eps/3`` for a point t0 of X0, and set g = lambda on
   X0, g = f elsewhere, interpolating through the gaps around X0;
3. check the certificate in one pass over one knot array, X's piece ends
   and f's breakpoints inside the pieces: f and g are evaluated there once
   each, and both sup|g - f| over X and the distance from lambda to
   g(X \\ X0) are read off those values.  That array holds every knot of
   g on X, because g keeps f's breakpoints beyond the cuts and the cuts
   lie in gaps of X.

The negative side: X = a disjoint union of n >= 2 unit intervals carries a
witness f (real segment through 0 on the first interval, imaginary segments
through 0 on the rest) none of whose small perturbations has disconnected
range — the perturbed curves must still cross near the origin.

Interval endpoints and isolated points are exact rationals
(:class:`fractions.Fraction`), so gap midpoints, clopen cuts and piece
diameters are computed without rounding; PL data is floating point.  Pieces
stay sorted, so clopen cuts are exact ``Fraction`` bisections; a Cantor
stage is built from integers and its small pieces are runs of its indices.
A certificate rounds the piece ends to floats once; a stage's float ends
are kept on its generator, which live sets of equal Cantor parameters share.
"""

from __future__ import annotations

import bisect
import cmath
import heapq
import math
import numbers
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

import numpy as np

from ._jsonio import dump, jsonable, read
from .algebra import _U, _from_parts, _is_count, _pow2_exponent
from .errors import (ConvergenceFailure, ExhaustedSamples, FiniteUnion, RangeOverflow,
                     ShapeMismatch, StageTooShallow)
from .spectral import link_components

__all__ = [
    "CompactRealSet",
    "CantorGenerator",
    "PLFunction",
    "ClopenPiece",
    "is_finite_interval_union",
    "clopen_small_pieces",
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
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    try:
        if isinstance(x, (float, str)):
            return Fraction(str(x))   # a float's repr, read exactly; nan fails
    except (ValueError, ZeroDivisionError):
        pass
    raise ShapeMismatch(f"cannot read {x!r} as a rational number")


def _mid(x: Fraction, y: Fraction) -> Fraction:
    """(x + y) / 2, normalized once rather than once per operation."""
    return Fraction(x.numerator * y.denominator + y.numerator * x.denominator,
                    2 * x.denominator * y.denominator)


def _frac_out(fr: Fraction):
    # floats only when the decimal repr reads back exactly; else "p/q"
    f = float(fr)
    if Fraction(str(f)) == fr:
        return f
    return f"{fr.numerator}/{fr.denominator}"


# A stage holds 2**depth pieces, two Fractions each, all built at once:
# depth 18 took 2.2 s and 151 MB peak RSS on a 2-core x86-64 Linux host, and
# every further level doubles both.
_MAX_CANTOR_DEPTH = 20


@dataclass(frozen=True)
class CantorGenerator:
    """Self-similar two-branch construction: each interval keeps its two
    outer pieces of relative length ``ratio`` (< 1/2, so gaps are real)."""

    depth: int
    ratio: Fraction
    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(1)
    _stage: tuple = field(default=None, init=False, repr=False, compare=False)
    _float_stage: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ratio", _frac(self.ratio))
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        if not (0 < self.ratio < Fraction(1, 2)):
            raise ShapeMismatch("cantor ratio must be in (0, 1/2)")
        if not _is_count(self.depth, 1):
            raise ShapeMismatch(f"cantor depth must be an integer >= 1, got {self.depth!r}")
        if self.depth > _MAX_CANTOR_DEPTH:
            raise ShapeMismatch(f"cantor depth {self.depth} asks for 2**{self.depth} pieces; "
                                f"at most 2**{_MAX_CANTOR_DEPTH} = {2 ** _MAX_CANTOR_DEPTH} "
                                f"are built")
        object.__setattr__(self, "depth", int(self.depth))
        if self.lo >= self.hi:
            raise ShapeMismatch("cantor base interval is degenerate")

    def stage_intervals(self):
        """The depth-d stage, built and validated once, on first use.

        With ratio p/q and L = hi - lo, the ends are lo + L m / q^d for
        integers m: a left end sums (q - p) p^i q^(d-1-i) over the levels i
        that branch right, and every width is p^d.  The order checks run on
        those integers; each end then becomes one ``Fraction``."""
        if self._stage is None:
            p, q, d = self.ratio.numerator, self.ratio.denominator, self.depth
            lefts = [0]
            for i in range(d):
                step = (q - p) * p ** i * q ** (d - 1 - i)
                lefts = [m + s for m in lefts for s in (0, step)]
            width = p ** d
            ends = [e for m in lefts for e in (m, m + width)]
            if not all(a < b for a, b in zip(ends, ends[1:])):
                raise ShapeMismatch("cantor stage pieces touch or overlap")
            # lo = A / D and L = B / D over one denominator D
            D = math.lcm(self.lo.denominator, self.hi.denominator)
            A = self.lo.numerator * (D // self.lo.denominator)
            B = self.hi.numerator * (D // self.hi.denominator) - A
            base, den = A * q ** d, D * q ** d
            ends = [Fraction(base + B * e, den) for e in ends]
            object.__setattr__(self, "_stage", tuple(zip(ends[::2], ends[1::2])))
        return self._stage

    def stage_float_ends(self) -> np.ndarray:
        """The stage's piece ends as a read-only (pieces, 2) float array,
        converted once, on first use."""
        if self._float_stage is None:
            ends = _ends_to_floats(self.stage_intervals())
            ends.flags.writeable = False
            object.__setattr__(self, "_float_stage", ends)
        return self._float_stage


# The live generators by (depth, ratio, lo, hi): sets with equal Cantor
# parameters share one generator, hence one stage and its float ends.  An
# entry goes when the last set holding its generator does.
_GENERATORS = weakref.WeakValueDictionary()


def _shared_generator(depth, ratio, lo, hi) -> CantorGenerator:
    """The live generator with these parameters (compared after
    normalization, so "1/3" and Fraction(1, 3) are one ratio), else a new one."""
    gen = CantorGenerator(depth=depth, ratio=ratio, lo=lo, hi=hi)
    return _GENERATORS.setdefault((gen.depth, gen.ratio, gen.lo, gen.hi), gen)


@dataclass(frozen=True)
class CompactRealSet:
    """Disjoint nondegenerate closed intervals plus isolated points.

    Degenerate intervals given as [a, a] are normalized into points.  All
    pieces must be pairwise separated by positive gaps.  A generator tags
    the set as the depth-``d`` stage of a self-similar limit object (the
    pieces must be exactly that stage); such sets answer ``False`` to
    :func:`is_finite_interval_union` because the limit has infinitely many gaps.
    """

    intervals: tuple = ()
    points: tuple = ()
    generator: CantorGenerator = None
    # sorted; a point piece is (p, p) holding one object twice, an interval's
    # ends are distinct objects, so ``a is b`` tells them apart
    _pieces: tuple = field(init=False, repr=False, compare=False)

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
        pieces = tuple(heapq.merge(ivals, ((p, p) for p in sorted(set(pts)))))
        for (a1, b1), (a2, b2) in zip(pieces, pieces[1:]):
            if a2 <= b1:
                raise ShapeMismatch(
                    f"pieces [{a1},{b1}] and [{a2},{b2}] touch or overlap")
        if self.generator is not None:      # clopen pieces take diameters from it
            stage = self.generator.stage_intervals()
            if pieces != stage:
                raise ShapeMismatch("a generator-backed set must be its generator's stage")
            pieces = stage                  # shared, not copied
        self._assign(pieces, self.generator)

    @classmethod
    def _of_pieces(cls, pieces: tuple, generator=None) -> "CompactRealSet":
        """The set made of ``pieces``, which are already exact, sorted and
        separated (a generator's stage, or a run of another set's pieces):
        nothing is checked again, and the pieces are shared, not copied."""
        X = object.__new__(cls)
        X._assign(pieces, generator)
        return X

    def _assign(self, pieces: tuple, generator) -> None:
        if not pieces:
            raise ShapeMismatch("the empty set is not a compact subset here")
        points = tuple(a for a, b in pieces if a is b)
        intervals = tuple(ab for ab in pieces if ab[0] is not ab[1]) if points else pieces
        for name, value in (("intervals", intervals), ("points", points),
                            ("generator", generator), ("_pieces", pieces)):
            object.__setattr__(self, name, value)

    @classmethod
    def cantor(cls, depth: int, ratio, lo=0, hi=1) -> "CompactRealSet":
        """The depth-``depth`` stage on [lo, hi], sharing its generator and
        stage with every live set of equal parameters."""
        gen = _shared_generator(depth, ratio, lo, hi)
        return cls._of_pieces(gen.stage_intervals(), gen)

    @property
    def inf(self) -> Fraction:
        return self.pieces()[0][0]

    @property
    def sup(self) -> Fraction:
        return self.pieces()[-1][1]

    @property
    def diam(self) -> Fraction:
        return self.sup - self.inf

    @property
    def more_than_one(self) -> bool:
        return bool(self.intervals) or len(self.points) > 1

    def pieces(self) -> tuple:
        """All material as (lo, hi) pairs, points degenerate, sorted."""
        return self._pieces

    def contains(self, x) -> bool:
        x = _frac(x)
        pieces = self.pieces()
        k = bisect.bisect_right(pieces, x, key=itemgetter(0))
        return k > 0 and x <= pieces[k - 1][1]

    def restrict(self, lo: Fraction, hi: Fraction) -> "CompactRealSet":
        """X ∩ [lo, hi] where the cuts fall in gaps (no piece may straddle):
        a run of pieces found by bisection, so only its ends can straddle."""
        pieces = self.pieces()
        kept = pieces[bisect.bisect_left(pieces, lo, key=itemgetter(1)):
                      bisect.bisect_right(pieces, hi, key=itemgetter(0))]
        for a, b in kept[:1] + kept[-1:]:
            if a < lo or b > hi:
                raise ShapeMismatch(f"cut [{lo},{hi}] slices piece [{a},{b}]")
        return CompactRealSet._of_pieces(kept)


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
        return self.subset.diam


def _isolated_point_piece(X: CompactRealSet) -> ClopenPiece:
    x0 = X.points[0]
    pieces = X.pieces()
    k = bisect.bisect_left(pieces, x0, key=itemgetter(0))
    cut_lo = _mid(pieces[k - 1][1], x0) if k else x0 - 1
    cut_hi = _mid(x0, pieces[k + 1][0]) if k + 1 < len(pieces) else x0 + 1
    return ClopenPiece(subset=CompactRealSet._of_pieces(pieces[k:k + 1]),
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
    if not _is_count(n, 1):
        raise ValueError(f"need an integer n >= 1 of pieces, got {n!r}")
    if is_finite_interval_union(X):
        raise FiniteUnion("a finite union of closed intervals has no small "
                          "clopen pieces to cut")
    if X.points:
        return [_isolated_point_piece(X)] * n

    gen = X.generator
    if n > gen.depth:
        raise ValueError(f"stage depth {gen.depth} supplies at most "
                         f"{gen.depth} pieces; asked for {n}")
    return [_gap_piece(X, j) for j in range(n)]


def _gap_piece(X: CompactRealSet, j: int) -> ClopenPiece:
    """Piece j of :func:`clopen_small_pieces` on a generator-backed X: the
    right branch of the leftmost level-j interval, of diameter L r^(j+1).
    That branch is the run of stage indices [2^(d-j-1), 2^(d-j))."""
    pieces, half = X.pieces(), 1 << (X.generator.depth - j - 1)
    # the leftmost level-k interval [inf X, inf X + L r^k] ends with stage
    # piece 2^(d-k) - 1, and its midpoint m_k lies in the gap splitting it;
    # the m_k decrease toward inf X
    lo = _mid(X.inf, pieces[2 * half - 1][1])
    hi = _mid(X.inf, pieces[4 * half - 1][1]) if j else X.sup + 1
    return ClopenPiece(subset=CompactRealSet._of_pieces(pieces[half:2 * half]),
                       cut_lo=lo, cut_hi=hi)


def _first_small_piece(X: CompactRealSet, lip: float, budget: float):
    """The first of ``clopen_small_pieces(X, depth)`` (one piece when X has
    an isolated point) with ``lip * diam < budget``, or None.  The diameters
    L r^(j+1) come from the generator, as integer numerators over integer
    denominators whose quotient is ``float`` of the diameter, so only the
    chosen piece is built."""
    if X.points:                        # a point piece: diameter zero
        return _isolated_point_piece(X) if lip * 0.0 < budget else None
    gen = X.generator
    L = gen.hi - gen.lo
    num, den = L.numerator, L.denominator
    p, q = gen.ratio.numerator, gen.ratio.denominator
    for j in range(gen.depth):
        num, den = num * p, den * q
        if lip * (num / den) < budget:
            return _gap_piece(X, j)
    return None


# -- piecewise linear functions ---------------------------------------------


@dataclass(frozen=True)
class PLFunction:
    """Complex-valued piecewise linear interpolant on [breakpoints[0], breakpoints[-1]],
    its knots held once as read-only float64 and complex128 arrays."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.array(self.breakpoints, dtype=np.float64)
        v = np.array(self.values, dtype=np.complex128)
        if b.ndim != 1 or b.shape != v.shape or len(b) < 2:
            raise ShapeMismatch("need matching breakpoints/values, length >= 2")
        if not (np.isfinite(b).all() and np.isfinite(v).all()):
            raise ValueError("breakpoints and values must be finite")
        if not (b[1:] - b[:-1] > 0).all():
            raise ShapeMismatch("breakpoints must be strictly increasing")
        b.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)
        with np.errstate(over="ignore"):    # finite data whose slopes overflow
            if not math.isfinite(self.lipschitz()):
                raise ValueError("slopes between breakpoints must be finite")

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.size == 0:
            return np.empty(t_arr.shape, dtype=complex)
        b, v = self.breakpoints, self.values
        lo, hi = t_arr.min(), t_arr.max()
        if not (lo >= b[0] - 1e-12 and hi <= b[-1] + 1e-12):    # NaN fails too
            raise ShapeMismatch(f"evaluation on [{lo}, {hi}] outside "
                                f"domain [{b[0]}, {b[-1]}]")
        out = np.interp(t_arr, b, v.real) + 1j * np.interp(t_arr, b, v.imag)
        return out if np.ndim(t) else complex(out[0])

    def lipschitz(self) -> float:
        b, v = self.breakpoints, self.values
        return float((np.abs(v[1:] - v[:-1]) / (b[1:] - b[:-1])).max())


def _float_ends(X: CompactRealSet) -> np.ndarray:
    """X's piece ends as a (pieces, 2) array: a generator-backed X's are its
    generator's, converted once and read-only."""
    if X.generator is not None:
        return X.generator.stage_float_ends()
    return _ends_to_floats(X.pieces())


def _ends_to_floats(pieces) -> np.ndarray:
    """int / int is ``float(Fraction)``, correctly rounded at any size.  One
    flat list converts faster than pairs."""
    return np.array([x.numerator / x.denominator
                     for ab in pieces for x in ab]).reshape(-1, 2)


def _knots(ends, b):
    """The knots of the pieces with float ``ends``: each piece's ends and the
    breakpoints ``b`` strictly inside it ([p, p] for a point), sorted.
    Returns them, the mask of knot pairs within one piece and the number of
    knots of each piece."""
    flat = ends.ravel()
    below = np.searchsorted(flat, b, side="left")      # ends below b: odd inside
    inside = (below % 2 == 1) & (below == np.searchsorted(flat, b, side="right"))
    n_knots = np.bincount(below[inside] // 2, minlength=len(ends)) + 2
    t = np.sort(np.concatenate([flat, b[inside]]))
    same = np.ones(len(t) - 1, dtype=bool)
    same[np.cumsum(n_knots)[:-1] - 1] = False
    return t, same, n_knots


def _max_modulus(z, point) -> float:
    """max(0, max |z|), rounded as per-piece scalar code rounds it: C hypot
    (CPython's ``abs``) at point pieces, NumPy's array ``abs`` (a SIMD loop
    that differs in the last bit) on intervals."""
    return max(float(np.max(np.abs(z[~point]), initial=0.0)),
               float(np.max(np.hypot(z[point].real, z[point].imag), initial=0.0)))


def _sq_moduli(w):
    """|w|**2 elementwise, rounded as CPython's scalar ``abs(w) ** 2``: C
    hypot (NumPy's ``hypot`` calls it), then C ``pow``, not always
    ``x * x``.  Raises :class:`RangeOverflow` when a square overflows."""
    moduli = np.hypot(w.real, w.imag).tolist()
    try:
        return np.array([h ** 2 for h in moduli])
    except OverflowError:
        raise RangeOverflow(f"a segment of the range is {max(moduli):.6g} long; "
                            f"its squared length overflows a float") from None


def _seg_dists(z, a, ab, denom):
    """Distances from z to the segments [a, a + ab], broadcast, with
    ``denom = _sq_moduli(ab)``; a zero-length segment projects onto a."""
    za = z - a
    s = np.divide(za.real * ab.real + za.imag * ab.imag, denom,
                  out=np.zeros(za.shape), where=denom != 0.0)
    s = np.minimum(np.maximum(s, 0.0), 1.0)     # np.clip, without its wrapper
    return np.hypot(z.real - (a.real + s * ab.real), z.imag - (a.imag + s * ab.imag))


# Entries (ring points x segments) per _seg_dists call of offrange_lambda,
# whole rings at a time and at least one: 16 * 3**5 is the point count of a
# ring in its last pass, so no call holds more entries than one such ring.
_RING_ENTRIES = 16 * 3 ** 5


def offrange_lambda(G: PLFunction, target: complex, tol: float):
    """A value lambda with ``|lambda - target| < tol`` strictly off the range
    of G, chosen deterministically to maximize clearance.

    The range of a PL function is a finite union of segments (measure zero),
    so candidates on rings around the target almost all work; the search
    refines the rings a few times before giving up.  Each pass scores its
    rings together, ``_RING_ENTRIES`` entries (or one ring) per distance call,
    and takes the first best candidate, rings in order of the radii.
    Returns ``(lambda, clearance)``.
    """
    target = complex(target)
    if not (0.0 < tol < math.inf and cmath.isfinite(target)):
        raise ValueError(f"need 0 < tol < inf and a finite target, got "
                         f"tol={tol!r}, target={target!r}")
    a = G.values[:-1]
    ab = G.values[1:] - a
    denom = _sq_moduli(ab)
    n_ang, radii = 16, (0.9, 0.7, 0.5, 0.3)
    for _ in range(6):
        ang = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
        z = target + (tol * np.asarray(radii))[:, None] * np.exp(1j * ang)
        step = max(1, _RING_ENTRIES // (n_ang * len(a)))
        clear = np.concatenate([_seg_dists(z[i:i + step, :, None], a, ab, denom).min(axis=2)
                                for i in range(0, len(radii), step)])
        k = int(np.argmax(clear))
        if math.isnan(clear.flat[k]):       # a ring holding a NaN is passed over
            clear[np.isnan(clear).any(axis=1)] = 0.0
            k = int(np.argmax(clear))
        if clear.flat[k] > 0.0:
            return complex(z.flat[k]), float(clear.flat[k])
        n_ang *= 3
        radii = tuple(r * 0.6 for r in radii) + radii
    raise ExhaustedSamples(f"no value within {tol} of {target} clears the range")


# -- the density construction -------------------------------------------------


@dataclass(frozen=True)
class CfunDisconnectResult:
    """g plus its audit trail: the clopen piece, the isolated value, the
    sup distance to f over X (taken at every knot, in floats), and the gap
    isolating {lambda} from the rest of the range of g."""

    g: PLFunction
    lam: complex
    t0: Fraction
    piece: ClopenPiece
    sup_dist: float
    range_gap: float
    lam_clearance: float


def _nearest_in_piece(piece: ClopenPiece) -> Fraction:
    sub = piece.subset
    pieces = sub.pieces()
    center = _mid(sub.inf, sub.sup)
    k = bisect.bisect_right(pieces, center, key=itemgetter(0))
    b = pieces[k - 1][1]
    if center <= b:
        return center
    a = pieces[k][0]                      # center sits in the gap (b, a)
    return b if center <= _mid(b, a) else a


def cfun_disconnect(X: CompactRealSet, f: PLFunction, eps: float) -> CfunDisconnectResult:
    """Perturb f by less than ``eps`` in sup norm so its range disconnects.

    Requires X not a finite union of intervals (and more than one point),
    and f a :class:`PLFunction` whose domain covers X.  The output g equals
    an off-range value lambda on one small clopen piece of X and equals f
    elsewhere on X, with the crossover interpolated through the gaps around
    the piece; ``||g - f||_inf`` over X is taken at every knot of the PL
    data, in floats, and checked < eps, and {lambda} sits at the returned
    positive distance from the rest of the range; a failed check raises
    :class:`ConvergenceFailure`.  f is evaluated once at t0 and the cuts,
    and f and g once each at the knots of X.
    """
    if not isinstance(f, PLFunction):
        raise ShapeMismatch(f"f must be a PLFunction, got {type(f).__name__}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if is_finite_interval_union(X):
        raise FiniteUnion("every function on a finite interval union is "
                          "approximated by connected-range functions only")
    if not X.more_than_one:
        raise ValueError("need |X| > 1 to disconnect a range")
    ends = _float_ends(X)
    b, v = f.breakpoints, f.values
    if ends[0, 0] < b[0] - 1e-12 or ends[-1, 1] > b[-1] + 1e-12:
        raise ShapeMismatch("f's domain must cover X")

    piece = _first_small_piece(X, f.lipschitz(), eps / 3.0)
    if piece is None:
        raise StageTooShallow("no clopen piece is small enough; deepen the "
                              "generator stage or loosen eps")

    t0 = _nearest_in_piece(piece)
    cuts = float(piece.cut_lo), float(piece.cut_hi)
    left, right = b < cuts[0], b > cuts[1]
    # g runs through f at each cut that has breakpoints of f beyond it; one
    # call evaluates f there and at t0
    through = [c for c, beyond in zip(cuts, (left[0], right[-1])) if beyond]
    at = f(np.array([float(t0)] + through))
    lam, clearance = offrange_lambda(f, at[0], eps / 3.0)

    f_lo, f_hi = float(piece.subset.inf), float(piece.subset.sup)
    hull = [f_lo, f_hi] if f_hi > f_lo else [f_lo]
    n_lo = int(left[0])         # 1 when g runs through the lower cut
    g = PLFunction(breakpoints=np.concatenate([b[left], through[:n_lo], hull,
                                               through[n_lo:], b[right]]),
                   values=np.concatenate([v[left], at[1:1 + n_lo], [lam] * len(hull),
                                          at[1 + n_lo:], v[right]]))

    sup_dist, range_gap = _certificate_bounds(g, f, ends, cuts, lam)
    if not sup_dist < eps:
        raise ConvergenceFailure(f"sup|g - f| = {sup_dist} failed the < eps={eps} bound")
    if not range_gap > 0.0:
        raise ConvergenceFailure(f"lambda = {lam} touches g(X \\ piece): gap {range_gap}")
    return CfunDisconnectResult(g=g, lam=lam, t0=t0, piece=piece,
                                sup_dist=sup_dist, range_gap=range_gap,
                                lam_clearance=clearance)


def _certificate_bounds(g: PLFunction, f: PLFunction, ends, cuts, lam: complex):
    """Sup over X of |g - f| and the distance from lam to g(X \\ piece), X
    given by its float ``ends`` and the piece by its float ``cuts``, both
    read off f and g evaluated once each at one knot array: X's piece ends
    and f's breakpoints inside its pieces.

    That array holds every knot of either function on X, and exactly g's
    on the pieces outside the cuts, when g's breakpoints inside X's pieces
    are f's and f has no other there outside the cuts -- as g is built, equal
    to f beyond the cuts, which lie in gaps of X.  |g - f| is linear between
    adjacent knots, so its modulus peaks at a knot; the segments of g
    between knots are exact, the float arithmetic on them is not."""
    t, same, n_knots = _knots(ends, f.breakpoints)
    zf = f(t)
    zg = g(t)
    sup_dist = _max_modulus(zg - zf, np.repeat(ends[:, 0] == ends[:, 1], n_knots))
    outside = ~((cuts[0] < ends[:, 0]) & (ends[:, 1] < cuts[1]))
    keep = same & np.repeat(outside, n_knots)[:-1]
    a = zg[:-1][keep]
    ab = zg[1:][keep] - a
    return sup_dist, float(np.min(_seg_dists(lam, a, ab, _sq_moduli(ab)), initial=math.inf))


def nondensity_witness(n: int):
    """The obstruction set and function for n disjoint unit intervals.

    X = [2,3] ∪ [4,5] ∪ ... ∪ [2n, 2n+1]; f runs 2t-5 (real, through 0) on
    the first interval and i(2t-4k-1) (imaginary, through 0) on the k-th.
    Every perturbation of f smaller than 1 in sup norm keeps a range
    component crossing the real axis and one crossing the imaginary axis
    near the origin, and those crossings intersect: the range stays
    connected, so no nearby function has disconnected spectrum.
    """
    if not _is_count(n, 1):
        raise ValueError(f"need an integer n >= 1 of intervals, got {n!r}")
    X = CompactRealSet(intervals=tuple((2 * k, 2 * k + 1) for k in range(1, n + 1)))
    bps, vals = [], []
    for k in range(1, n + 1):
        if k == 1:
            bps += [2.0, 3.0]; vals += [-1.0 + 0j, 1.0 + 0j]
        else:
            bps += [2.0 * k, 2.0 * k + 1]; vals += [-1j, 1j]
    return X, PLFunction(breakpoints=bps, values=vals)


# -- range topology: image polylines linked within a threshold ------------------


@dataclass(frozen=True)
class RangeReport:
    n_components: int
    gap: float
    threshold: float
    n_samples: int

    @property
    def connected(self) -> bool:
        return self.n_components == 1


# Segment pairs per distance evaluation of the sweep in _near_segment_pairs:
# 2**13 keeps each complex temporary within 128 KB; larger NumPy temporaries
# took about 4x the time per element on a 2-core x86-64 Linux host.
_PAIR_ENTRIES = 2 ** 13


def _point_segment(w, d):
    """Distances from the points w to the segments [0, d], elementwise; a
    zero-length segment is the point 0 (``fmax`` takes 0 over 0 / 0).
    Unlike ``_seg_dists`` it does not round as scalar code does, which would
    cost a Python loop per segment pair."""
    with np.errstate(invalid="ignore", divide="ignore"):
        s = (w.real * d.real + w.imag * d.imag) / (d.real * d.real + d.imag * d.imag)
    return np.abs(w - np.fmin(np.fmax(s, 0.0), 1.0) * d)


def _orient_sign(d, w):
    """Sign of ``Im(conj(d) w)`` for float differences d = b - o, w = c - o
    where the float value proves it, else 0: Shewchuk's orient2d filter
    ``|det| > (3 + 16u) u (|left| + |right|)`` (*Discrete Comput. Geom.* 18,
    1997), plus 2**-1072 for the absolute error of products that underflow."""
    left, right = d.real * w.imag, d.imag * w.real
    det = left - right
    bound = (3.0 + 16.0 * _U) * _U * (np.abs(left) + np.abs(right)) + 2.0 ** -1072
    return np.sign(det) * (np.abs(det) > bound)


def _segment_gaps(p0, p1, q0, q1):
    """Distances between the segments [p0, p1] and [q0, q1], elementwise: 0
    where orientation tests prove that they cross, else the least
    endpoint-to-segment distance, which is the distance unless they cross.
    A crossing the tests leave unproven has an endpoint within rounding of
    the other segment, so that distance is then a rounding error."""
    u, v = p1 - p0, q1 - q0                     # along P, along Q
    a, b, c = q0 - p0, q1 - p0, p1 - q0
    hi = np.minimum(np.minimum(_point_segment(a, u), _point_segment(b, u)),
                    np.minimum(_point_segment(-a, v), _point_segment(c, v)))
    across_p = _orient_sign(u, a) * _orient_sign(u, b)       # q0, q1 about P
    across_q = _orient_sign(v, -a) * _orient_sign(v, c)      # p0, p1 about Q
    return np.where((across_p < 0) & (across_q < 0), 0.0, hi)


def _near_segment_pairs(p0, p1, reach):
    """Blocks of index pairs (i, j) of the segments [p0, p1] whose bounding
    boxes come within ``reach`` on both axes, each unordered pair once.  The
    boxes are sorted along the axis where they spread wider and swept, so the
    work is near-linear unless many boxes overlap; a block holds about
    ``_PAIR_ENTRIES`` pairs (at least one box's)."""
    x = np.stack([np.minimum(p0.real, p1.real), np.maximum(p0.real, p1.real)])
    y = np.stack([np.minimum(p0.imag, p1.imag), np.maximum(p0.imag, p1.imag)])
    if np.ptp(y) > np.ptp(x):
        x, y = y, x
    order = np.argsort(x[0], kind="stable")
    lo = x[0, order]
    count = np.searchsorted(lo, x[1, order] + reach, side="right") - np.arange(len(lo)) - 1
    done = np.cumsum(count)
    r0 = 0
    while r0 < len(lo):
        r1 = max(r0 + 1, int(np.searchsorted(done, done[r0] - count[r0] + _PAIR_ENTRIES,
                                             side="right")))
        c = count[r0:r1]
        i = np.repeat(np.arange(r0, r1), c)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(c) - c, c)
        i, j = order[i], order[j]
        keep = (y[0, i] <= y[1, j] + reach) & (y[0, j] <= y[1, i] + reach)
        yield i[keep], j[keep]
        r0 = r1


def range_components(g: PLFunction, X: CompactRealSet,
                     resolution: float = 1e-3) -> RangeReport:
    """Connected components of g(X), joined within ``threshold = 3 * Lip(g) *
    resolution``.

    The image of an X-piece is one continuous curve, the polyline through
    g's values at the piece's ends and at the breakpoints of g inside it (a
    point piece is one value): g is linear between consecutive knots.  Each
    polyline is a chain, and two chains are linked when their polylines come
    within ``threshold``; ``n_components`` counts the classes of the links.
    ``gap`` is the least distance between polylines of different components
    (inf when connected) and ``n_samples`` the number of values of g taken,
    one per knot (a point piece has two, its equal ends).

    A distance is ``_segment_gaps`` of a segment pair: 0 where orientation
    tests prove a crossing, else the least endpoint-to-segment distance.
    Links come from the segment pairs whose boxes ``_near_segment_pairs``
    finds within the threshold.  The gap comes from the pairs it finds at a
    reach that doubles from there until the least distance between
    components among them is within the reach: a pair within the reach has
    boxes within it, so no pair left out is nearer.  The geometry runs on
    g's values times the power of two that brings max(|g|, threshold) to
    [1/2, 1), an exact scaling under which no squared distance or
    orientation product overflows.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    threshold = 3.0 * g.lipschitz() * resolution
    ends = _float_ends(X)
    t, same, _ = _knots(ends, g.breakpoints)
    z = g(t)
    if len(ends) == 1:
        return RangeReport(1, math.inf, threshold, len(t))
    # One power of two brings max(|g|, threshold) to [1/2, 1): the geometry
    # scales exactly, and no squared distance or orientation product overflows.
    scale = 2.0 ** -_pow2_exponent(max(float(np.max(np.abs(z))), threshold))
    z = z * scale
    chain = np.concatenate(([0], np.cumsum(~same)))     # of each knot
    p0, p1, owner = z[:-1][same], z[1:][same], chain[:-1][same]

    def gaps(reach, label):
        """The chains of the segment pairs with boxes within ``reach`` and
        different labels, and their distances, in blocks.  An empty block
        skips the distance call: most passes of the gap search find none."""
        for i, j in _near_segment_pairs(p0, p1, reach):
            apart = label[i] != label[j]
            i, j = i[apart], j[apart]
            d = _segment_gaps(p0[i], p1[i], p0[j], p1[j]) if len(i) else np.zeros(0)
            yield owner[i], owner[j], d

    reach = threshold * scale
    links = [(a[d <= reach], c[d <= reach]) for a, c, d in gaps(reach, owner)]
    labels = link_components(len(ends), *np.concatenate(links, axis=1))
    gap = math.inf
    if labels.max() > 0:
        while not gap <= reach:
            reach = max(2.0 * reach, _U)    # the scaled threshold may round to 0
            gap = min(float(np.min(d, initial=math.inf)) for _, _, d in gaps(reach, labels[owner]))
        gap /= scale
    return RangeReport(n_components=int(labels.max()) + 1, gap=gap, threshold=threshold,
                       n_samples=len(t))


# -- persistence ----------------------------------------------------------------

# Set schema: {"intervals": [[a, b], ...], "points": [...],
#              "generator": {"cantor": {"depth": 6, "ratio": "1/3",
#                                       "lo": 0, "hi": 1}} | null}
# Rationals are written as plain numbers when their decimal repr is exact,
# else as "p/q" strings; both are read back exactly.  ``_jsonio`` writes it.


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
    """Read a set; with a generator and neither "intervals" nor "points", the
    generator's stage.  Pieces written beside a generator must be its stage."""
    gen = data.get("generator")
    if gen is not None:
        c = gen["cantor"]
        gen = _shared_generator(c["depth"], c["ratio"], c.get("lo", 0), c.get("hi", 1))
        if "intervals" not in data and "points" not in data:
            return CompactRealSet._of_pieces(gen.stage_intervals(), gen)
    return CompactRealSet(
        intervals=tuple((_frac(a), _frac(b)) for a, b in data.get("intervals", [])),
        points=tuple(_frac(p) for p in data.get("points", [])), generator=gen)


def write_set(X: CompactRealSet, path):
    dump(set_to_dict(X), path)


def read_set(path) -> CompactRealSet:
    return read(path, set_from_dict)


# Function schema: {"breakpoints": [...], "re": [...], "im": [...]}


def pl_to_dict(f: PLFunction) -> dict:
    return jsonable({"breakpoints": f.breakpoints, "re": f.values.real, "im": f.values.imag})


def pl_from_dict(data: dict) -> PLFunction:
    n = len(data["re"])     # a missing "im" reads as zeros; -0.0 parts are kept
    values = _from_parts({"im": np.zeros(n), **data}, (n,), "values")
    return PLFunction(breakpoints=data["breakpoints"], values=values)


def write_pl(f: PLFunction, path):
    dump(pl_to_dict(f), path)


def read_pl(path) -> PLFunction:
    return read(path, pl_from_dict)
