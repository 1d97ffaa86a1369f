"""Small-norm perturbations that disconnect spectra.

The main pipeline: take the rightmost spectrum point ``lambda``, in summand
``k``, and a unit vector ``v`` there with ``T v = lambda v`` up to round-off:
from one column-pivoted QR ``(T_k - lambda I)* = Q R P*`` (LAPACK
``geqp3``), ``v`` is the last column of ``Q``, with ``||(T_k - lambda) v|| =
|r_nn|``, and the other columns ``Q1`` span ``v``'s orthogonal complement.
With ``E = v v*``, add

    X = (mu I - T) E,        mu = lambda + eps0.

In the basis ``[v Q1]``, ``T_k + X_k`` is block upper triangular with
diagonal blocks ``mu`` and ``C = Q1* T_k Q1``, and ``sigma(C)`` is
``sigma(T_k)`` without one copy of ``lambda`` (up to the residual
``|r_nn|``), so

    sigma(T + X) = {mu} u (sigma(T_k) minus one lambda) u (the other blocks'
    spectra)

is read off the eigenvalues of ``T`` already computed; ``T + X`` is never
factored.  The norm cost is

    phi(X) <= eps0 phi(E) + phi((T - lambda) E) < eps

for ``eps0 = eps / (2 (1 + c_phi))`` (``eps / 2`` in the operator-norm
variant `disconnect_rr0`), because ``phi((T - lambda) E)`` must stay below
the fixed budget ``delta = eps0 * 1e-3``.  ``E``, ``(T - lambda) E`` and
``X = w v*`` are rank one, ``a b*`` in summand ``k``, so all three norms are
the closed form ``w_k ||a|| ||b||`` (`norms.phi_rank_one`), read off the
stored vectors.  A budget below the round-off in ``sigma_min(T - lambda)``
raises :class:`BelowRoundoff`.

The split is certified by ``s = min(sigma_min(C - mu), sigma_min(T_j - mu)
for j != k)``, a lower bound on the distance from ``mu`` to the rest of
``sigma(T + X)``.  A certificate is issued only when ``s`` exceeds its
rounding bound ``10 n u (max_j ||T_j||_F + |mu|)`` (``n`` the total
dimension, ``u`` the unit round-off).  The Frobenius norm bounds each
``||T_j||_2`` from above at no factorization, so the bound is never below
the one with ``||T||``.  The single-linkage component report of
``sigma(T + X)`` rides along for inspection, clustered once at ``min(eps0 /
4, d / 2)``, with ``d`` the distance from ``mu`` to the spectrum of ``T``
without one copy of ``lambda``, so ``mu`` is its own component even beside a
twin of ``lambda``; the report of ``sigma(T)`` is derived from it on access.

`counterexample_operator` builds the opposite phenomenon: with weights
doubling per summand (so the sup-inf constant is infinite), no small
perturbation can disconnect anything — every block of a norm-bounded ``X``
is crushed by the weight, and the spectrum stays one connected net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._jsonio import dump, jsonable
from .algebra import (BlockOperator, Projection, _U, _is_count, _rank_one,
                      _rank_one_to_dict, operator_from_dict)
from .errors import (
    BelowRoundoff,
    BudgetNotLessThanOne,
    ConvergenceFailure,
    DimensionOne,
    InfiniteCPhi,
    NotDominating,
)
from .norms import (
    NormSpec,
    OPERATOR,
    norm_to_dict,
    norm_from_dict,
    operator_norm_spec,
    phi_eval,
    phi_rank_one,
    spec_c_phi,
    spec_identity_infimum,
)
from .spectral import (
    SpectrumReport,
    block_eigenvalues,
    cluster_points,
    eigenvalues,
    pool_spectra,
    rightmost_boundary_point,  # unused here; bench/tracing.py rebinds it
    spectrum_components,
)
from . import __version__ as _version

__all__ = [
    "PerturbationCertificate",
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

DELTA_FACTOR = 1e-3        # the budget for phi((T - lambda) E) is eps0 * this
SEPARATION_FACTOR = 10.0   # s must exceed this * n * u * (max ||T_j||_F + |mu|)


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class PerturbationCertificate:
    """Everything needed to audit one disconnection.

    ``X = w v*`` and ``E = v v*`` live in summand ``summand`` of an operator
    with block ``structure`` (``(id, dim)`` pairs).  ``v`` is the near-null
    vector of that block's column-pivoted QR, a unit eigenvector for ``lam``
    up to round-off.  ``X`` is rebuilt on access and ``E`` is the projection
    with factor ``v``, so a certificate holds two vectors, not two operators.
    ``X``'s blocks outside ``summand`` are complex128 zeros, so ``T + X``
    keeps ``T``'s own blocks there and allocates only the one it computes.
    ``components_after`` clusters ``sigma(T + X)``, ``sigma(T)`` with its
    last point ``lam`` moved to ``mu``; ``gap_achieved`` (its ``gap``) and
    ``components_before`` (``lam`` put back, at the same threshold) are
    derived on access.  ``separation_bound`` is ``10 n u
    (max_j ||T_j||_F + |mu|)``, the rounding error ``separation`` must exceed.
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
    separation: float       # sigma_min(C - mu), C = Q1* T Q1 in summand, T elsewhere
    separation_bound: float
    components_after: SpectrumReport
    norm: NormSpec
    route: str = "sup_inf"

    @property
    def gap_achieved(self) -> float:
        return self.components_after.gap

    @property
    def components_before(self) -> SpectrumReport:
        ev = self.components_after.eigenvalues.copy()
        ev[-1] = self.lam
        return spectrum_components(ev, self.components_after.threshold)

    @property
    def X(self) -> BlockOperator:
        return _rank_one(self.structure, self.summand, self.w, self.v)

    @property
    def E(self) -> Projection:
        return Projection(tuple((s, self.v[:, None] if s == self.summand
                                 else np.zeros((d, 0))) for s, d in self.structure))

    @property
    def disconnected(self) -> bool:
        return self.separation > self.separation_bound


def _build_certificate(T, spec, eps, eps0, route):
    """The rank-one certificate at the rightmost spectrum point (see the
    module docstring); raises when a claim it would make does not hold."""
    spectra = block_eigenvalues(T)
    ev = pool_spectra(spectra)
    lam = complex(ev[-1])   # the rightmost point, as rightmost_boundary_point
    mu = lam + eps0
    delta = eps0 * DELTA_FACTOR
    structure = T.structure()
    k = next(j for j, e in enumerate(spectra) if (e == lam).any())
    sid, t = T.summands[k]
    # (T_k - lambda)* = Q R P* (column-pivoted QR), so (T_k - lambda) Q[:, -1]
    # = P R* e_n has norm |r_nn|: the last column of Q is the near-null
    # vector and the others, Q1, span its orthogonal complement
    shifted = t - lam * np.eye(t.shape[0])
    Q, _, _ = scipy.linalg.qr(shifted.conj().T, pivoting=True)
    v = Q[:, -1] / np.linalg.norm(Q[:, -1])   # Q is unitary only to O(n u)
    tv = t @ v
    phi_TE = phi_rank_one(spec, structure, sid, tv - lam * v, v)
    if not phi_TE < delta:
        smin = float(np.linalg.svd(shifted, compute_uv=False)[-1])
        raise BelowRoundoff(
            f"sigma_min(T - lambda) = {smin:.3e} gives phi((T - lambda) E) = "
            f"{phi_TE:.3e}, not below the budget delta = {delta:.3e}")
    w = mu * v - tv
    for a in (v, w):
        a.setflags(write=False)
    phi_X = phi_rank_one(spec, structure, sid, w, v)
    if not (phi_X < eps):
        raise ConvergenceFailure(f"phi(X)={phi_X} failed the < eps={eps} bound")

    # sigma(T + X) = {mu} u sigma(C), C = Q1* T_k Q1 in summand k and T
    # elsewhere: certify mu's distance to sigma(C)
    Q1 = Q[:, :-1]
    C = [Q1.conj().T @ t @ Q1 if j == k else b
         for j, (_, b) in enumerate(T.summands)]
    separation = min(float(np.linalg.svd(c - mu * np.eye(c.shape[0]),
                                         compute_uv=False)[-1])
                     for c in C if c.size)
    # ||T_j||_F >= ||T_j||_2 without an SVD; BLAS nrm2 scales its sum of
    # squares, so a block of entries near 1e200 does not overflow to inf
    t_fro = max(float(scipy.linalg.norm(b.ravel(), check_finite=False))
                for _, b in T.summands)
    bound = SEPARATION_FACTOR * T.total_dim * _U * (t_fro + abs(mu))
    if not separation > bound:
        raise ConvergenceFailure(
            f"sigma_min(C - mu) = {separation:.3e} does not exceed its rounding "
            f"bound {bound:.3e}; the split at mu = lambda + eps0 is not certified")

    # sigma(T + X) is sigma(T) with its last point lambda moved to mu, still
    # last in pool order; d counts a twin of lambda, and n >= 2 keeps ev[:-1]
    d = float(np.abs(ev[:-1] - mu).min())
    after = spectrum_components(np.append(ev[:-1], mu), min(eps0 / 4.0, d / 2.0))
    return PerturbationCertificate(
        summand=sid, v=v, w=w, structure=structure, phi_X=phi_X, lam=lam,
        eps0=float(eps0), delta=float(delta),
        phi_E=phi_rank_one(spec, structure, sid, v, v), phi_TE=phi_TE,
        separation=separation, separation_bound=bound,
        components_after=after, norm=spec, route=route)


def _check_inputs(T: BlockOperator, eps: float):
    """The guards both entry points share: total dimension >= 2 and a
    finite positive budget."""
    if T.total_dim < 2:
        raise DimensionOne("cannot disconnect a 1-dimensional spectrum")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")


def disconnect(T: BlockOperator, eps: float, spec: NormSpec) -> PerturbationCertificate:
    """Disconnect ``sigma(T)`` with ``phi(X) < eps``.

    Requires total dimension >= 2, finite ``c_phi``, and a norm dominating
    the operator norm.  The certificate splits off the point
    ``lambda + eps0`` with ``eps0 = eps / (2 (1 + c_phi))``.
    """
    _check_inputs(T, eps)
    cphi = spec_c_phi(spec)
    if math.isinf(cphi):
        raise InfiniteCPhi("c_phi is infinite: arbitrarily small perturbations "
                           "cannot disconnect (see counterexample_operator)")
    if spec_identity_infimum(spec) < 1.0:
        raise NotDominating("norm must dominate the operator norm (f_phi(I) >= 1)")
    return _build_certificate(T, spec, eps, eps / (2.0 * (1.0 + cphi)), "sup_inf")


def disconnect_rr0(T: BlockOperator, eps: float) -> PerturbationCertificate:
    """Operator-norm disconnection with the wider budget ``eps0 = eps / 2``.

    Same pipeline as :func:`disconnect`, with the certificate measured in
    the plain operator norm.
    """
    _check_inputs(T, eps)
    return _build_certificate(T, operator_norm_spec(max(T.ids) + 1), eps,
                              eps / 2.0, "rr0")


# -- the divergent-weight counterexample -----------------------------------

_GOLDEN_CONJ = (math.sqrt(5.0) - 1.0) / 2.0


def counterexample_net(K: int) -> np.ndarray:
    """Golden-angle spiral scaled to radii ``1 - 2^-k``, k = 1..K."""
    if not _is_count(K, 1):
        raise ValueError(f"need an integer K >= 1 of net points, got {K!r}")
    k = np.arange(1, K + 1)
    radii = 1.0 - 2.0 ** (-k.astype(float))
    angles = 2.0 * math.pi * _GOLDEN_CONJ * k
    return radii * np.exp(1j * angles)


def counterexample_operator(K: int):
    """Scalar blocks on a spiral net, with weights doubling per summand.

    Returns ``(T, spec)`` where ``T`` is the direct sum of 2x2 ``lam_k I`` with
    ``|lam_k| = 1 - 2^-k`` and the norm has weight ``2^k`` on summand ``k``
    (ids 0..K-1 carry k = 1..K), sup aggregation and a divergent tail — so
    ``c_phi`` is infinite and any ``X`` with ``phi(X) < 1`` satisfies
    ``||X Z_k|| <= 2^-k phi(X)`` on each central summand ``Z_k``.
    """
    if not _is_count(K, 2):
        raise ValueError(f"need at least two summands, an integer K >= 2, got {K!r}")
    lams = counterexample_net(K)
    T = BlockOperator(tuple((i, lam * np.eye(2)) for i, lam in enumerate(lams)))
    weights = tuple(2.0 ** (i + 1) for i in range(K))
    spec = NormSpec(base=(OPERATOR,) * K, weights=weights, agg="sup",
                    tail_weights="divergent")
    return T, spec


def net_spacing(lams, K: int) -> float:
    """Covering radius of the net within the disk of radius ``1 - 2^-K``,
    estimated on a polar grid of step 0.004."""
    lams = np.asarray(lams, dtype=complex)
    step = 0.004
    R = 1.0 - 2.0 ** (-K)
    radii = np.arange(0.0, R + step, step)
    worst = 0.0
    for r in radii:
        n_ang = max(8, int(math.ceil(2.0 * math.pi * max(r, step) / step)))
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

    Raises ``ValueError`` unless ``phi_budget > 0`` (NaN included) and
    :class:`BudgetNotLessThanOne` unless ``phi_budget < 1``.
    """
    if not 0.0 < phi_budget:
        raise ValueError(f"phi_budget must be positive, got {phi_budget!r}")
    if not phi_budget < 1.0:
        raise BudgetNotLessThanOne(f"phi_budget={phi_budget} must be < 1")
    if not _is_count(trials, 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
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


# -- persistence, written by _jsonio -----------------------------------------


def _report_dict(report: SpectrumReport) -> dict:
    return {**vars(report), "n_components": report.n_components}


def certificate_to_dict(cert: PerturbationCertificate, seed=None) -> dict:
    """Plain JSON values; ``X = w v*`` and ``E = v v*`` as their vectors."""
    return jsonable({
        "version": _version,
        "seed": seed,
        "route": cert.route,
        "X": _rank_one_to_dict(cert.structure, cert.summand, cert.w, cert.v),
        "phi_X": cert.phi_X,
        "lambda": cert.lam,
        "eps0": cert.eps0,
        "delta": cert.delta,
        "separation": cert.separation,
        "separation_bound": cert.separation_bound,
        "E": _rank_one_to_dict(cert.structure, cert.summand, cert.v, cert.v),
        "phi_E": cert.phi_E,
        "phi_TE": cert.phi_TE,
        "gap_achieved": cert.gap_achieved,
        "norm": norm_to_dict(cert.norm),
        "components_before": _report_dict(cert.components_before),
        "components_after": _report_dict(cert.components_after),
    })


def certificate_from_dict(data: dict) -> dict:
    """Light-weight reader: operators and the norm are reconstructed, the
    spectral reports come back as plain dicts."""
    out = dict(data)
    out["X"] = operator_from_dict(data["X"])
    out["E"] = operator_from_dict(data["E"])
    out["lambda"] = complex(*data["lambda"])
    out["norm"] = norm_from_dict(data["norm"])
    return out


def write_certificate(cert: PerturbationCertificate, path, seed=None):
    dump(certificate_to_dict(cert, seed=seed), path)
