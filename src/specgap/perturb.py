"""Small-norm perturbations that disconnect spectra.

The main pipeline: take the rightmost spectrum point ``lambda`` and the
rank-one projection ``E = v v*`` onto the smallest right singular vector
``v`` of ``T - lambda`` (over all blocks), and add

    X = (mu I - T) E,        mu = lambda + eps0.

Then ``T + X = T (I - E) + mu E`` is block upper triangular with respect to
``ran E`` and ``ran(I - E)``, so ``sigma(T + X) = {mu} u sigma(C)`` with ``C``
the compression of ``T`` to ``ran(I - E)``.  The norm cost is

    phi(X) <= eps0 phi(E) + phi((T - lambda) E) < eps

for ``eps0 = eps / (2 (1 + c_phi))`` (``eps / 2`` in the operator-norm
variant `disconnect_rr0`), because ``phi((T - lambda) E)`` must stay below
the fixed budget ``delta = eps0 * 1e-3``.  A budget below the round-off in
``sigma_min(T - lambda)`` raises :class:`BelowRoundoff`.

The split is certified by ``s = sigma_min(C - mu)``, a lower bound on the
distance from ``mu`` to ``sigma(C)``.  ``C`` needs no further factorization:
the other right singular vectors of the same SVD span ``ran(I - E)`` in the
block holding ``v``, and ``C`` is ``T`` itself on the other blocks.  A
certificate is issued only when ``s`` exceeds its rounding bound
``10 n u (||T|| + |mu|)`` (``n`` the total dimension, ``u`` the unit
round-off).  The single-linkage component reports of ``sigma(T)`` and of
the computed ``sigma(T + X)`` ride along for inspection.

`counterexample_operator` builds the opposite phenomenon: with weights
doubling per summand (so the sup-inf constant is infinite), no small
perturbation can disconnect anything — every block of a norm-bounded ``X``
is crushed by the weight, and the spectrum stays one connected net.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    BlockOperator,
    IdealSpec,
    Projection,
    operator_to_dict,
    operator_from_dict,
)
from .errors import (
    BadLambda,
    BelowRoundoff,
    BudgetNotLessThanOne,
    ConvergenceFailure,
    DimensionOne,
    InfiniteCPhi,
    NotDominating,
    ShapeMismatch,
)
from .norms import (
    NormSpec,
    OPERATOR,
    norm_to_dict,
    norm_from_dict,
    operator_norm_spec,
    phi_eval,
    spec_c_phi,
    spec_identity_infimum,
)
from .spectral import (
    SpectrumReport,
    cluster_points,
    eigenvalues,
    rightmost_boundary_point,
    spectrum_components,
)
from . import __version__ as _version

__all__ = [
    "PerturbationCertificate",
    "small_te",
    "disconnect",
    "disconnect_rr0",
    "counterexample_operator",
    "counterexample_net",
    "net_spacing",
    "CounterexampleReport",
    "verify_counterexample",
    "certificate_to_dict",
    "certificate_from_dict",
    "write_certificate",
]

LAMBDA_TOL = 1e-8          # how close lambda must sit to the spectrum
DELTA_FACTOR = 1e-3        # the budget for phi((T - lambda) E) is eps0 * this
SEPARATION_FACTOR = 10.0   # s must exceed this * n * u * (||T|| + |mu|)
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0


def _smallest_right_singular(T: BlockOperator, lam: complex):
    """``(sid, sigma_min, V)`` for ``T - lam``: the summand holding the
    smallest singular value, that value, and the block's right singular
    vectors as columns in decreasing singular-value order (``V[:, -1]`` is
    the minimizer; the other columns span its orthogonal complement)."""
    best = None
    for sid, b in T.summands:
        _, s, vh = np.linalg.svd(b - complex(lam) * np.eye(b.shape[0]))
        if best is None or s[-1] < best[1]:
            best = (sid, float(s[-1]), vh.conj().T)
    return best


def _rank_one(structure, sid: int, a: np.ndarray, b: np.ndarray) -> BlockOperator:
    """``a b*`` in summand ``sid`` and zero elsewhere."""
    return BlockOperator(tuple(
        (s, np.outer(a, b.conj()) if s == sid else np.zeros((d, d)))
        for s, d in structure))


def _rank_one_projection(structure, sid: int, v: np.ndarray) -> Projection:
    # v is a unit vector, so v v* is an orthogonal projection by construction
    return Projection(base=_rank_one(structure, sid, v, v), tol=DEFAULT_TOL,
                      ranks=tuple(int(s == sid) for s, _ in structure))


def small_te(T: BlockOperator, lam: complex, eps: float, spec: NormSpec) -> Projection:
    """Rank-one E with ``phi(E) <= c_phi`` and ``phi((T - lam I) E) < eps``.

    ``lam`` must sit in the spectrum (within ``1e-8``).  ``E = v v*`` for the
    smallest right singular vector ``v`` of ``T - lam I``, so
    ``phi((T - lam I) E) <= c_phi sigma_min(T - lam I)``; raises
    :class:`BelowRoundoff` when ``sigma_min`` is not below
    ``eps / (1 + c_phi)``.
    """
    cphi = spec_c_phi(spec)
    if math.isinf(cphi):
        raise InfiniteCPhi("c_phi is infinite; no small-TE projection exists")
    if eps <= 0:
        raise ValueError("eps must be positive")
    ev = eigenvalues(T)
    if np.abs(ev - complex(lam)).min() > LAMBDA_TOL:
        raise BadLambda(f"lambda={lam} is {np.abs(ev - complex(lam)).min():.3e} "
                        f"away from the spectrum (tol {LAMBDA_TOL})")
    sid, smin, V = _smallest_right_singular(T, lam)
    if not smin < eps / (1.0 + cphi):
        raise BelowRoundoff(f"sigma_min(T - lambda) = {smin:.3e} is not below "
                            f"the budget {eps / (1.0 + cphi):.3e}")
    return _rank_one_projection(T.structure(), sid, V[:, -1])


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class PerturbationCertificate:
    """Everything needed to audit one disconnection.

    ``X = w v*`` and ``E = v v*`` live in summand ``summand`` of an operator
    with block ``structure`` (``(id, dim)`` pairs).  Both are rebuilt on
    access, so a certificate holds two vectors rather than two dense
    operators.
    """

    summand: int
    v: np.ndarray
    w: np.ndarray           # (mu I - T) v
    structure: tuple
    phi_X: float
    lam: complex
    eps0: float
    delta: float
    phi_E: float
    phi_TE: float
    separation: float       # sigma_min(C - mu), C = T compressed to ran(I - E)
    separation_bound: float
    components_before: SpectrumReport
    components_after: SpectrumReport
    gap_achieved: float
    norm: NormSpec
    route: str = "sup_inf"

    @property
    def X(self) -> BlockOperator:
        return _rank_one(self.structure, self.summand, self.w, self.v)

    @property
    def E(self) -> Projection:
        return _rank_one_projection(self.structure, self.summand, self.v)

    @property
    def disconnected(self) -> bool:
        return self.separation > self.separation_bound


def _build_certificate(T, spec, eps, eps0, route):
    """The rank-one certificate at the rightmost spectrum point (see the
    module docstring); raises when a claim it would make does not hold."""
    lam = rightmost_boundary_point(T)
    mu = lam + eps0
    delta = eps0 * DELTA_FACTOR
    structure = T.structure()
    sid, smin, V = _smallest_right_singular(T, lam)
    t, v = T.block(sid), V[:, -1].copy()
    tv = t @ v
    phi_TE = phi_eval(spec, _rank_one(structure, sid, tv - lam * v, v))
    if not phi_TE < delta:
        raise BelowRoundoff(
            f"sigma_min(T - lambda) = {smin:.3e} gives phi((T - lambda) E) = "
            f"{phi_TE:.3e}, not below the budget delta = {delta:.3e}")
    w = mu * v - tv
    for a in (v, w):
        a.setflags(write=False)
    X = _rank_one(structure, sid, w, v)
    phi_X = phi_eval(spec, X)
    if not (phi_X < eps):
        raise ConvergenceFailure(f"phi(X)={phi_X} failed the < eps={eps} bound")

    # sigma(T + X) = {mu} u sigma(C): certify mu's distance to sigma(C)
    Q = V[:, :-1]
    C = [Q.conj().T @ t @ Q if s == sid else b for s, b in T.summands]
    separation = min(float(np.linalg.svd(c - mu * np.eye(c.shape[0]),
                                         compute_uv=False)[-1])
                     for c in C if c.size)
    t_norm = float(T.norm())
    bound = SEPARATION_FACTOR * T.total_dim * _UNIT_ROUNDOFF * (t_norm + abs(mu))
    if not separation > bound:
        raise ConvergenceFailure(
            f"sigma_min(C - mu) = {separation:.3e} does not exceed its rounding "
            f"bound {bound:.3e}; the split at mu = lambda + eps0 is not certified")

    after = eigenvalues(T + X)
    others = np.abs(after - mu)
    others = others[others > max(LAMBDA_TOL, 1e-12 * max(t_norm, 1.0))]
    d = float(others.min()) if others.size else math.inf
    threshold = max(1e-8, min(eps0 / 4.0, d / 2.0))
    comp_after = spectrum_components(after, threshold)
    comp_before = spectrum_components(eigenvalues(T), threshold)
    return PerturbationCertificate(
        summand=sid, v=v, w=w, structure=structure, phi_X=phi_X, lam=lam,
        eps0=float(eps0), delta=float(delta),
        phi_E=phi_eval(spec, _rank_one(structure, sid, v, v)), phi_TE=phi_TE,
        separation=separation, separation_bound=bound,
        components_before=comp_before, components_after=comp_after,
        gap_achieved=comp_after.gap, norm=spec, route=route)


def disconnect(T: BlockOperator, eps: float, spec: NormSpec,
               ideal: IdealSpec = IdealSpec("full")) -> PerturbationCertificate:
    """Disconnect ``sigma(T)`` with ``phi(X) < eps``.

    Requires total dimension >= 2, finite ``c_phi``, and a norm dominating
    the operator norm.  The certificate splits off the point
    ``lambda + eps0`` with ``eps0 = eps / (2 (1 + c_phi))``.
    """
    if T.total_dim < 2:
        raise DimensionOne("cannot disconnect a 1-dimensional spectrum")
    if eps <= 0:
        raise ValueError("eps must be positive")
    cphi = spec_c_phi(spec)
    if math.isinf(cphi):
        raise InfiniteCPhi("c_phi is infinite: arbitrarily small perturbations "
                           "cannot disconnect (see counterexample_operator)")
    if spec_identity_infimum(spec) < 1.0:
        raise NotDominating("norm must dominate the operator norm (f_phi(I) >= 1)")
    if ideal.kind == "finitely_supported" and spec.tail_weights == "none":
        raise ShapeMismatch("finitely_supported ideal needs an infinite tail")
    return _build_certificate(T, spec, eps, eps / (2.0 * (1.0 + cphi)), "sup_inf")


def disconnect_rr0(T: BlockOperator, eps: float) -> PerturbationCertificate:
    """Operator-norm disconnection with the wider budget ``eps0 = eps / 2``.

    Same pipeline as :func:`disconnect`, with the certificate measured in
    the plain operator norm.
    """
    if T.total_dim < 2:
        raise DimensionOne("cannot disconnect a 1-dimensional spectrum")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _build_certificate(T, operator_norm_spec(max(T.ids) + 1), eps,
                              eps / 2.0, "rr0")


# -- the divergent-weight counterexample -----------------------------------

_GOLDEN_CONJ = (math.sqrt(5.0) - 1.0) / 2.0


def counterexample_net(K: int) -> np.ndarray:
    """Golden-angle spiral scaled to radii ``1 - 2^-k``, k = 1..K."""
    k = np.arange(1, K + 1)
    radii = 1.0 - 2.0 ** (-k.astype(float))
    angles = 2.0 * math.pi * _GOLDEN_CONJ * k
    return radii * np.exp(1j * angles)


def counterexample_operator(K: int, dims=None):
    """Scalar blocks on a spiral net, with weights doubling per summand.

    Returns ``(T, spec)`` where ``T`` is the direct sum of ``lam_k I`` with
    ``|lam_k| = 1 - 2^-k`` and the norm has weight ``2^k`` on summand ``k``
    (ids 0..K-1 carry k = 1..K), sup aggregation and a divergent tail — so
    ``c_phi`` is infinite and any ``X`` with ``phi(X) < 1`` satisfies
    ``||X Z_k|| <= 2^-k phi(X)`` on each central summand ``Z_k``.
    """
    if K < 2:
        raise ValueError("need at least two summands")
    if dims is None:
        dims = (2,) * K
    dims = tuple(int(d) for d in dims)
    if len(dims) != K or any(d < 1 for d in dims):
        raise ShapeMismatch(f"need {K} dims >= 1")
    lams = counterexample_net(K)
    T = BlockOperator(tuple((i, lams[i] * np.eye(d)) for i, d in enumerate(dims)))
    weights = tuple(2.0 ** (i + 1) for i in range(K))
    spec = NormSpec(base=(OPERATOR,) * K, weights=weights, agg="sup",
                    tail_weights="divergent")
    return T, spec


def net_spacing(lams, K: int, grid_step: float = 0.004) -> float:
    """Covering radius of the net within the disk of radius ``1 - 2^-K``,
    estimated on a fine polar grid."""
    lams = np.asarray(lams, dtype=complex)
    R = 1.0 - 2.0 ** (-K)
    radii = np.arange(0.0, R + grid_step, grid_step)
    worst = 0.0
    for r in radii:
        n_ang = max(8, int(math.ceil(2.0 * math.pi * max(r, grid_step) / grid_step)))
        z = r * np.exp(2j * math.pi * np.arange(n_ang) / n_ang)
        worst = max(worst, float(np.abs(z[:, None] - lams[None, :]).min(axis=1).max()))
    return worst


@dataclass(frozen=True)
class CounterexampleReport:
    trials: int
    passes: int
    delta: float
    net_spacing: float
    phi_budget: float
    bound_violations: int
    connectivity_failures: int

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials


def verify_counterexample(T: BlockOperator, spec: NormSpec, trials: int = 100,
                          phi_budget: float = 0.99, seed: int = 0) -> CounterexampleReport:
    """Check that norm-bounded perturbations cannot disconnect the net.

    For ``trials`` random ``X`` rescaled to ``phi(X) = 0.99 * phi_budget``:
    every central compression obeys ``||X Z_k|| <= 2^-k phi_budget`` (the
    weights crush each block), hence every eigenvalue stays within ``2^-k``
    of its net point and the whole spectrum remains delta-connected at

        delta = net_spacing(K) + 2 * max_k 2^-k.
    """
    if not phi_budget < 1.0:
        raise BudgetNotLessThanOne(f"phi_budget={phi_budget} must be < 1")
    K = len(T.summands)
    lams = np.array([b[0, 0] for _, b in T.summands])
    spacing = net_spacing(lams, K)
    delta = spacing + 2.0 * max(2.0 ** (-(i + 1)) for i in range(K))

    from .sampling import spawn_rngs
    bound_viol = 0
    conn_fail = 0
    passes = 0
    for rng in spawn_rngs(seed, trials):
        raw = BlockOperator(tuple(
            (sid, rng.standard_normal((b.shape[0],) * 2)
             + 1j * rng.standard_normal((b.shape[0],) * 2))
            for sid, b in T.summands))
        X = raw * (0.99 * phi_budget / phi_eval(spec, raw))
        ok = True
        for i, (sid, xb) in enumerate(X.summands):
            # ||X Z_k|| is just the block norm of the k-th block
            if np.linalg.norm(xb, 2) > phi_budget * 2.0 ** (-(i + 1)):
                ok = False
        if not ok:
            bound_viol += 1
        ev = eigenvalues(T + X)
        if cluster_points(ev, delta).max() != 0:
            conn_fail += 1
            ok = False
        if ok:
            passes += 1
    return CounterexampleReport(trials=trials, passes=passes, delta=float(delta),
                                net_spacing=float(spacing), phi_budget=phi_budget,
                                bound_violations=bound_viol,
                                connectivity_failures=conn_fail)


# -- persistence ------------------------------------------------------------


def _report_dict(report: SpectrumReport) -> dict:
    return {
        "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
        "labels": list(report.labels),
        "threshold": report.threshold,
        "gap": (report.gap if math.isfinite(report.gap) else "inf"),
        "n_components": report.n_components,
    }


def certificate_to_dict(cert: PerturbationCertificate, seed=None) -> dict:
    return {
        "version": _version,
        "seed": seed,
        "route": cert.route,
        "X": operator_to_dict(cert.X),
        "phi_X": cert.phi_X,
        "lambda": [cert.lam.real, cert.lam.imag],
        "eps0": cert.eps0,
        "delta": cert.delta,
        "separation": cert.separation,
        "separation_bound": cert.separation_bound,
        "E": operator_to_dict(cert.E.base),
        "phi_E": cert.phi_E,
        "phi_TE": cert.phi_TE,
        "gap_achieved": (cert.gap_achieved if math.isfinite(cert.gap_achieved)
                         else "inf"),
        "norm": norm_to_dict(cert.norm),
        "components_before": _report_dict(cert.components_before),
        "components_after": _report_dict(cert.components_after),
    }


def certificate_from_dict(data: dict) -> dict:
    """Light-weight reader: operators and the norm are reconstructed, the
    spectral reports come back as plain dicts."""
    out = dict(data)
    out["X"] = operator_from_dict(data["X"])[0]
    out["E"] = operator_from_dict(data["E"])[0]
    out["lambda"] = complex(*data["lambda"])
    out["norm"] = norm_from_dict(data["norm"])
    return out


def write_certificate(cert: PerturbationCertificate, path, seed=None):
    with open(path, "w") as fh:
        json.dump(certificate_to_dict(cert, seed=seed), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")
