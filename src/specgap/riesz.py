"""Riesz idempotents from ordered Schur forms, with contour quadrature as
the reference.

For a contour separating part of the spectrum from the rest,

    P = (2 pi i)^-1  oint (z I - T)^-1 dz

is an idempotent commuting with T whose range carries the enclosed part.
`riesz_idempotent` factors each block once: a complex Schur form
T = Z U Z* ordered so that the k enclosed eigenvalues lead, with
U = [[U11, U12], [0, U22]], and the solution R of the Sylvester equation
U11 R - R U22 = U12 (Bartels-Stewart, on the triangular blocks) give

    P = Z [[I, R], [0, 0]] Z* = Z_k (Z_k* + R Z_2*),

which is kept in this factored form (`FactoredIdempotent`).  The rank of
each block is k exactly.  Both functions first prove that the contour lies
in the resolvent set (`_proved_forms`), with one primitive: one Cholesky
factorization of a shifted Gram matrix proves sigma_min(b - cI) > s for a
block b (`_clears`).  A block with sigma_min(b - cI) > rho plus a rounding
margin (c, rho: center and reach of a disc holding the contour) is zero in
P and needs no Schur form.  Every other block is proved clear of the
contour itself: sigma_min(b - z) is 1-Lipschitz in z, so sigma_min > h at m
nodes equally spaced along the contour, h their half-spacing, keeps every
point of it out of the spectrum (Trefethen & Embree, *Spectra and
Pseudospectra*, 2005); m doubles from 8 up to ``contour.nodes``.  The
margin of `_clears` also covers the Schur form's backward error, so the
Schur-sorted count of enclosed eigenvalues is exact.  A contour that
neither proof clears raises ``ContourThroughSpectrum``.
`verify_idempotent` checks a factored P = L W from its factors alone:
P^2 - P = L (W L - I) W and PT - TP = [L, TL] [WT; -W], whose 2-norms
follow from one thin QR of [L, TL], so no dense block of P is formed.
`riesz_quadrature` evaluates the integral itself and is the independent
cross-check: circles use the periodic trapezoid rule (spectrally accurate
for analytic integrands); rectangles are split into four analytic segments
integrated with Gauss-Legendre nodes.
Nonzero idempotents P with P != I certify weak reducibility: two
complementary invariant subspaces, stable under perturbations small next
to the contour's clearance from the spectrum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from .algebra import _EPS, BlockOperator, _is_count, _pow2_exponent
from .errors import ContourThroughSpectrum, ConvergenceFailure, EnclosesAllOrNone
from .spectral import eigenvalues  # unused here; bench/tracing.py rebinds it

__all__ = [
    "Contour",
    "circle",
    "rectangle",
    "riesz_idempotent",
    "riesz_quadrature",
    "FactoredIdempotent",
    "IdempotentReport",
    "verify_idempotent",
]


@dataclass(frozen=True)
class Contour:
    """Circle (center, radius) or axis-aligned rectangle (two corners).

    ``nodes`` is the quadrature budget of :func:`riesz_quadrature`, all of
    it on the circle and a quarter per side on the rectangle, and the most
    nodes the ring proof of a contour may use (`_prove_ring`).  It must be an
    integer >= 16; the center, a radius > 0 and the corners must be finite,
    else ``ValueError``.
    """

    kind: str
    center: complex = 0.0
    radius: float = 0.0
    corner_lo: complex = 0.0
    corner_hi: complex = 0.0
    nodes: int = 128

    def __post_init__(self):
        if self.kind not in ("circle", "rectangle"):
            raise ValueError(f"unknown contour kind {self.kind!r}")
        if not _is_count(self.nodes, 16):
            raise ValueError(f"nodes must be an integer >= 16, got {self.nodes!r}")
        if self.kind == "circle":
            if not cmath.isfinite(self.center):
                raise ValueError(f"circle center must be finite, got {self.center!r}")
            if not 0.0 < self.radius < math.inf:
                raise ValueError(f"circle radius must be finite and > 0, got {self.radius!r}")
        if self.kind == "rectangle":
            if not (cmath.isfinite(self.corner_lo) and cmath.isfinite(self.corner_hi)):
                raise ValueError("rectangle corners must be finite")
            if (self.corner_hi.real <= self.corner_lo.real
                    or self.corner_hi.imag <= self.corner_lo.imag):
                raise ValueError("rectangle corners must be ordered lo < hi")

    def encloses(self, z: complex) -> bool:
        if self.kind == "circle":
            return abs(z - self.center) < self.radius
        return (self.corner_lo.real < z.real < self.corner_hi.real
                and self.corner_lo.imag < z.imag < self.corner_hi.imag)

    def distance_to(self, z: complex) -> float:
        if self.kind == "circle":
            return abs(abs(z - self.center) - self.radius)
        return min(_segment_distance(z, a, b) for a, b in self._sides())

    def _sides(self):
        lo, hi = self.corner_lo, self.corner_hi
        c0, c1 = lo, complex(hi.real, lo.imag)
        c2, c3 = hi, complex(lo.real, hi.imag)
        return ((c0, c1), (c1, c2), (c2, c3), (c3, c0))


def circle(center, radius, nodes: int = 128) -> Contour:
    return Contour(kind="circle", center=complex(center), radius=float(radius),
                   nodes=nodes)


def rectangle(corner_lo, corner_hi, nodes: int = 128) -> Contour:
    return Contour(kind="rectangle", corner_lo=complex(corner_lo),
                   corner_hi=complex(corner_hi), nodes=nodes)


def _segment_distance(z, a, b):
    ab = b - a
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def _quadrature(contour: Contour):
    """(node, weight) pairs with weights absorbing dz/(2 pi i)."""
    if contour.kind == "circle":
        m = contour.nodes
        theta = 2.0 * np.pi * np.arange(m) / m
        z = contour.center + contour.radius * np.exp(1j * theta)
        w = contour.radius * np.exp(1j * theta) / m
        return z, w
    per_side = max(8, contour.nodes // 4)
    x, gw = np.polynomial.legendre.leggauss(per_side)
    zs, ws = [], []
    for a, b in contour._sides():
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        zs.append(mid + half * x)
        ws.append(gw * half / (2j * np.pi))
    return np.concatenate(zs), np.concatenate(ws)


def _ring(contour: Contour, m: int):
    """``m`` nodes equally spaced along the contour, and the reach h that
    puts every point of it within h of a node: pi r / m on a circle of
    radius r, perimeter / (2 m) on a rectangle."""
    if contour.kind == "circle":
        z = contour.center + contour.radius * np.exp(2j * np.pi * np.arange(m) / m)
        return z, np.pi * contour.radius / m
    corners = [a for a, _ in contour._sides()]
    corners.append(corners[0])
    arc = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(corners)))))
    s = arc[-1] * np.arange(m) / m
    z = np.interp(s, arc, np.real(corners)) + 1j * np.interp(s, arc, np.imag(corners))
    return z, arc[-1] / (2 * m)


class FactoredIdempotent(BlockOperator):
    """An idempotent kept as one factor pair per block.

    ``factors`` holds ``(id, n, k, L, W)`` per block, with ``P_b = L W`` for
    ``L`` of shape ``n x k`` and ``W`` of shape ``k x n``: ``2 n k`` numbers
    instead of ``n^2``.  A block with ``k = 0`` is exactly zero and one with
    ``k = n`` exactly the identity; neither stores factors.  ``summands``
    builds the dense blocks on every access, so the operator behaves as any
    :class:`BlockOperator` while holding only its factors.
    """

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def summands(self) -> tuple:
        return tuple((sid, _dense_block(n, k, L, W))
                     for sid, n, k, L, W in self.factors)

    def structure(self) -> tuple:
        return tuple((sid, n) for sid, n, *_ in self.factors)


def _dense_block(n, k, L, W) -> np.ndarray:
    if k == 0:
        block = np.zeros((n, n), dtype=np.complex128)
    elif k == n:
        block = np.eye(n, dtype=np.complex128)
    else:
        block = L @ W
    block.setflags(write=False)
    return block


def _schur_factors(sid: int, n: int, U: np.ndarray, Z: np.ndarray, k: int):
    """``(id, n, k, L, W)`` with ``L W = Z [[I, R], [0, 0]] Z*`` for the
    Schur form ``Z U Z*`` whose ``k`` leading eigenvalues are enclosed."""
    if k in (0, n):
        return sid, n, k, None, None
    R, scale, info = scipy.linalg.lapack.ztrsyl(U[:k, :k], U[k:, k:], U[:k, k:],
                                                isgn=-1)
    if info != 0:
        raise ConvergenceFailure(f"Sylvester solve failed on summand {sid} "
                                 f"(trsyl info {info})")
    L = Z[:, :k].copy()      # a view would keep all of Z alive
    return sid, n, k, L, L.conj().T + (R / scale) @ Z[:, k:].conj().T


def _clears(b: np.ndarray, center: complex, reach: float) -> bool:
    """Whether ``sigma_min(b - cI) > s = reach + 10 n eps (||b||_F + |c| sqrt(n))``
    is proved, for c = ``center`` and eps = 2^-52.  Each eigenvalue z of b has
    |z - c| >= sigma_min, and the 10 n eps term covers the backward error of
    b's Schur form: no eigenvalue, exact or computed, then lies within
    ``reach`` of c.

    The proof is one Cholesky factorization of the computed M*M - (s^2 + m) I
    for M = b - cI.  If it completes, the exact M*M - s^2 I is positive
    definite, because m exceeds the rounding of the Gram product (at most
    gamma_n ||M||_F^2 in norm) plus the backward error of the factorization
    (at most n gamma_{n+1} times its input's norm; Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Thm 10.3); so
    sigma_min(M) > s.  The margin ``m = (n + 2)^2 eps (||M||_F^2 + s^2)``,
    the screen's one assumption, covers both with a factor of about 2 to
    spare for complex arithmetic, and underflow too while the larger of the
    block's largest entry and |c| + reach is at least 2^-400, as
    `_proved_forms` makes it: then s > eps 2^-400.  A failed factorization
    or a non-finite Gram matrix (NaN or inf entries, or an overflow) leaves
    the block unscreened: it gets a Schur form.
    """
    n = b.shape[0]
    s = reach + 10 * n * _EPS * (np.linalg.norm(b) + abs(center) * n ** 0.5)
    M = b - center * np.eye(n)
    # M^T conj(M), the conjugate of M*M: the same spectrum, no transposed copy
    G = scipy.linalg.blas.zherk(1.0, M.T)
    F = G.trace().real
    if not math.isfinite(F):
        return False
    G.flat[::n + 1] -= s * s + (n + 2) ** 2 * _EPS * (F + s * s)
    return scipy.linalg.lapack.zpotrf(G, overwrite_a=1, clean=0)[1] == 0


def _prove_ring(sid: int, b: np.ndarray, contour: Contour, c: float) -> None:
    """Prove ``sigma_min(b - c z) > 0`` on the contour, ``c`` the scale of ``b``,
    or raise ``ContourThroughSpectrum`` naming the summand, the node, m and h.

    At m nodes with reach h (`_ring`), `_clears` at every node proves the
    disc of radius h about it clear, and those discs cover the contour.  m
    starts at 8 and doubles while it stays within ``contour.nodes``."""
    m = 8
    while True:
        nodes, h = _ring(contour, m)
        failed = next((z for z in nodes if not _clears(b, z * c, h * c)), None)
        if failed is None:
            return
        if 2 * m > contour.nodes:
            raise ContourThroughSpectrum(
                f"summand {sid}: sigma_min(T - z) > h not proved at node "
                f"z = {complex(failed):.6g} of an m = {m} ring, h = {h:.3e}: "
                "the contour may pass through the spectrum")
        m *= 2


def _proved_forms(T: BlockOperator, contour: Contour, exclusion_dist=None) -> list:
    """``(id, n, U, Z, sdim)`` per block, for a contour proved to lie in the
    resolvent set of ``T`` and to enclose some but not all of its spectrum.

    Where the larger of a block's largest entry and the screen's |center| +
    reach + ``exclusion_dist`` lies outside [2^-400, 2^400], the block and
    the contour are first scaled by the power of two c that brings it to [1/2, 1):
    exact, and P is unchanged; U is then c times the Schur form.
    A block that `_clears` proves farther than the disc's reach plus
    ``exclusion_dist`` (None adds nothing) from the disc's center is zero
    in P and gets no Schur form (U empty, sdim 0).  Every other block gets
    its complex Schur form, ordered so that the enclosed eigenvalues lead,
    and a ring proof (`_prove_ring`).  An explicit ``exclusion_dist`` also
    requires the computed eigenvalues to clear the contour by it.
    """
    if exclusion_dist is not None and not 0.0 < exclusion_dist < math.inf:
        raise ValueError("exclusion_dist must be None or finite and > 0, "
                         f"got {exclusion_dist!r}")
    lo, hi = contour.corner_lo, contour.corner_hi    # a disc holding the contour
    center, reach = ((contour.center, contour.radius) if contour.kind == "circle"
                     else ((lo + hi) / 2.0, abs(hi - lo) / 2.0))
    reach += exclusion_dist or 0.0      # the screen's disc
    forms, evs = [], []
    for sid, b in T.summands:
        top = max(float(np.abs(b).max()), abs(center) + reach)   # NaN stays NaN
        c = 1.0 if 2.0 ** -400 <= top <= 2.0 ** 400 else math.ldexp(1.0, -_pow2_exponent(top))
        b = b if c == 1.0 else b * c
        if _clears(b, center * c, reach * c):
            U, Z, sdim = np.empty((0, 0)), None, 0      # P_b = 0: no Schur form
        else:
            try:
                U, Z, sdim = scipy.linalg.schur(b, output="complex",
                                                sort=lambda z: contour.encloses(z / c))
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise ConvergenceFailure(f"ordered Schur form failed on summand "
                                         f"{sid}: {exc}")
            _prove_ring(sid, b, contour, c)
        forms.append((sid, b.shape[0], U, Z, sdim))
        evs.append(np.diag(U) / c)
    ev = np.concatenate(evs)
    inside = np.array([contour.encloses(z) for z in ev], dtype=bool)
    k = int(inside.sum())
    if k in (0, T.total_dim):
        raise EnclosesAllOrNone(f"contour encloses {k} of {T.total_dim} eigenvalues")
    if exclusion_dist is not None:
        clearance = min(contour.distance_to(z) for z in ev)
        if clearance < exclusion_dist:
            raise ContourThroughSpectrum(
                f"contour passes {clearance:.3e} from the spectrum "
                f"(required {exclusion_dist:.3e})")
    per_block = np.split(inside, np.cumsum([len(U) for _, _, U, _, _ in forms])[:-1])
    for (sid, _, _, _, sdim), ins in zip(forms, per_block):
        if not np.array_equal(ins, np.arange(len(ins)) < sdim):
            raise ConvergenceFailure(
                f"summand {sid}: the ordered Schur form leads with {sdim} "
                f"eigenvalues, but {int(ins.sum())} lie inside the contour")
    return forms


def riesz_idempotent(T: BlockOperator, contour: Contour,
                     exclusion_dist: float = None) -> FactoredIdempotent:
    """The Riesz idempotent for ``contour``, from one ordered Schur form per
    block and a Sylvester solve (see the module docstring).

    The contour must be proved to lie in the resolvent set, by the disc
    screen or the ring of `_proved_forms`, else ``ContourThroughSpectrum``;
    it must enclose at least one eigenvalue and exclude at least one, else
    ``EnclosesAllOrNone``.  ``exclusion_dist``, None or finite and > 0 (else
    ``ValueError``), is an extra clearance that the screen's disc and the
    computed eigenvalues must keep from the contour; None adds nothing.
    """
    return FactoredIdempotent(tuple(_schur_factors(*form)
                                    for form in _proved_forms(T, contour, exclusion_dist)))


def riesz_quadrature(T: BlockOperator, contour: Contour) -> BlockOperator:
    """Quadrature approximation of the Riesz idempotent for ``contour`` over
    ``contour.nodes`` nodes: the reference that :func:`riesz_idempotent` is
    checked against.  The contour is proved and refused exactly as for that
    function with no ``exclusion_dist``."""
    _proved_forms(T, contour)
    zs, ws = _quadrature(contour)
    blocks = []
    for sid, b in T.summands:
        eye = np.eye(b.shape[0])
        acc = np.zeros_like(b)
        for z, w in zip(zs, ws):
            acc = acc + w * np.linalg.solve(z * eye - b, eye)
        blocks.append((sid, acc))
    return BlockOperator(tuple(blocks))


@dataclass(frozen=True)
class IdempotentReport:
    idem_residual: float       # ||P@P - P||
    commutator: float          # ||PT - TP||
    rank: int
    corank: int


def verify_idempotent(P: BlockOperator, T: BlockOperator) -> IdempotentReport:
    """Residuals certifying that ``P`` weakly reduces ``T``.

    Weak reducibility holds when the first two residuals are at tolerance
    and ``min(rank, corank) >= 1``.  The rank of an idempotent equals its
    trace, so it is read off as the rounded real trace.  A
    :class:`FactoredIdempotent` is checked from its factors and no dense
    block of P is built (`_factored_residuals`); any other P by dense
    products.  A zero or identity block of P next to a finite block of T
    has both residuals exactly 0 and costs no product.  A block of T, or a
    block or factor of P, with NaN or inf entries raises
    ``ConvergenceFailure`` naming its summand.
    """
    P._require_same_structure(T)
    if isinstance(P, FactoredIdempotent):
        parts, residuals = P.factors, _factored_residuals
    else:
        parts, residuals = P.summands, _dense_residuals
    idem, comm, tr = [], [], 0.0
    for part, (sid, t) in zip(parts, T.summands):
        if not np.isfinite(t).all():
            raise _non_finite(sid, "T")
        i, c, r = residuals(part, t)
        idem.append(i)
        comm.append(c)
        tr += r
    rank = int(round(tr))
    return IdempotentReport(idem_residual=float(max(idem)), commutator=float(max(comm)),
                            rank=rank, corank=P.total_dim - rank)


def _non_finite(sid, operand) -> ConvergenceFailure:
    return ConvergenceFailure(f"summand {sid} of {operand} has non-finite entries: "
                              "no residual to verify")


def _dense_residuals(summand, t):
    """(||p^2 - p||_2, ||pt - tp||_2, Re tr p) by dense products."""
    sid, p = summand
    if not np.isfinite(p).all():
        raise _non_finite(sid, "P")
    if not p.any():
        return 0.0, 0.0, 0.0
    return (np.linalg.norm(p @ p - p, 2), np.linalg.norm(p @ t - t @ p, 2),
            np.trace(p).real)


def _factored_residuals(factor, t):
    """The residuals of `_dense_residuals` for p = L W, from the factors.

    With E = W L - I_k, p^2 - p = L E W and pt - tp = A K for A = [L, tL]
    and K = [W t; -W].  A thin QR A = Q R has R_L, the triangular factor of
    L, as its leading k x k block, so the residuals are the 2-norms of
    R_L E W and of R K, of at most 2k rows each: O(n^2 k) work.  The
    commutator needs the QR: a Gram matrix of A would square the O(u)
    cancellation in pt - tp, and its reported size would floor near
    sqrt(u).  The trace is tr(W L)."""
    sid, n, k, L, W = factor
    if k in (0, n):         # p = 0 or I: both residuals vanish exactly
        return 0.0, 0.0, float(k)
    if not (np.isfinite(L).all() and np.isfinite(W).all()):
        raise _non_finite(sid, "P")
    WL = W @ L
    R = np.linalg.qr(np.hstack((L, t @ L)), mode="r")
    both = np.zeros((2, R.shape[0], n), dtype=np.complex128)
    both[0] = R[:, :k] @ (W @ t) - R[:, k:] @ W
    both[1, :k] = R[:k, :k] @ (WL - np.eye(k)) @ W
    comm, idem = np.linalg.svd(both, compute_uv=False)[:, 0]
    return idem, comm, np.trace(WL).real
