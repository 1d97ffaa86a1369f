"""Runnable invariant suites: the package checking its own contracts.

Each suite draws randomized inputs, measures the worst violation of a
stated inequality or identity, and returns a :class:`CheckResult`.  The
suites are importable one by one for tests and runnable together through
``run_suites`` (the CLI ``verify-suite`` command).  Violations are reported
relative to the natural scale of each inequality, so tolerances transfer
across magnitudes.  ``to_dict`` passes the report through ``_jsonio.jsonable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._jsonio import jsonable
from .algebra import (AlgebraSpec, BlockOperator, central_projection,
                      identity_like, validate_projection, zero_like)
from .cfun import (CompactRealSet, PLFunction, cfun_disconnect,
                   nondensity_witness, range_components)
from .norms import BaseNorm, NormSpec, f_phi, phi_eval
from .perturb import (counterexample_operator, disconnect, disconnect_rr0,
                      verify_counterexample)
from .riesz import (circle, riesz_idempotent, riesz_quadrature,
                    verify_idempotent)
from .sampling import (_haar_pair, random_block_operator, random_projection,
                       random_psd, random_subprojection, rng_from_seed)
from .spectral import eigenvalues
from .uppertri import _INCLUSION_TOL, UTBlock, ut_inclusion_check

__all__ = [
    "CheckResult", "SuiteReport", "normspec_battery", "norm_axioms",
    "norm_axiom_battery", "fphi_oracle", "projection_bound",
    "disconnect_batch", "rr0_batch", "riesz_batch", "uppertri_batch",
    "counterexample_check", "cfun_checks", "SUITES", "run_suites",
]


# Each suite's tolerance on its relative violation, and the sizes no caller sets
_NORM_TOL, _RIESZ_TOL = 1e-9, 1e-8
_DISCONNECT_N, _DISCONNECT_EPS = 25, 1e-2       # each of disconnect and rr0
_PHI_REMEASURE_TOL, _GAP_MIN = 1e-12, 1e-8       # as in criteria 1 and 4
_RIESZ_N, _UPPERTRI_N = 30, 50
_COUNTEREXAMPLE_K, _COUNTEREXAMPLE_TRIALS = 8, 20
_CFUN_DISCONNECT, _CFUN_WITNESS = 10, 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return jsonable({"name": self.name, "passed": bool(self.passed),
                         "worst": self.worst, "tol": self.tol, "detail": self.detail})


@dataclass(frozen=True)
class SuiteReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "suites": [r.to_dict() for r in self.results]}


def normspec_battery():
    """(alg, spec) pairs exercising every base norm, aggregation and tail."""
    a3 = AlgebraSpec((2, 3, 4), "none")
    a2 = AlgebraSpec((2, 2), "repeat_last")
    mk = NormSpec
    op = BaseNorm("operator")
    pairs = [
        (a3, mk(base=(op,) * 3, weights=(1.0, 2.0, 1.5), agg="sup")),
        (a3, mk(base=(BaseNorm("schatten", p=1),) * 3, weights=(2.0, 1.0, 3.0), agg="sup")),
        (a3, mk(base=(BaseNorm("schatten", p=2),) * 3, weights=(1.0, 1.0, 1.0), agg="lq", q=2.0)),
        (a3, mk(base=(BaseNorm("schatten", p=3.5),) * 3, weights=(1.25, 2.0, 1.0), agg="lq", q=1.0)),
        (a3, mk(base=(BaseNorm("schatten", p=math.inf),) * 3, weights=(1.0, 4.0, 2.0), agg="sup")),
        (a3, mk(base=(BaseNorm("kyfan", k=2),) * 3, weights=(3.0, 2.0, 1.0), agg="sup")),
        (a3, mk(base=(BaseNorm("kyfan", k=1),) * 3, weights=(1.0, 2.0, 4.0), agg="lq", q=2.5)),
        (a3, mk(base=(op, BaseNorm("schatten", p=2), BaseNorm("kyfan", k=3)),
                weights=(2.0, 2.0, 2.0), agg="lq", q=3.0)),
        (a2, mk(base=(op,) * 2, weights=(1.0, 2.0), agg="sup",
                tail_weights="bounded", tail_sup=2.0)),
        (a2, mk(base=(BaseNorm("schatten", p=2),) * 2, weights=(1.0, 2.0),
                agg="sup", tail_weights="divergent")),
    ]
    return pairs


def norm_axioms(spec: NormSpec, alg: AlgebraSpec, n_samples: int = 200,
                seed=0) -> CheckResult:
    """Norm axioms plus the structural identities of unitarily invariant
    norms: triangle inequality, absolute homogeneity, definiteness,
    adjoint and modulus invariance, two-sided unitary invariance, the
    compression bound ``phi(AXB) <= ||A|| phi(X) ||B||``, and monotonicity
    on ``0 <= X <= Y``.  All deviations are relative."""
    rng = rng_from_seed(seed)
    worst = {"triangle": 0.0, "homogeneity": 0.0, "adjoint": 0.0,
             "modulus": 0.0, "unitary": 0.0, "compression": 0.0,
             "monotone": 0.0}
    definite = True
    probe = random_block_operator(alg, rng)
    if phi_eval(spec, zero_like(probe)) != 0.0:
        definite = False
    for _ in range(n_samples):
        X = random_block_operator(alg, rng)
        Y = random_block_operator(alg, rng)
        px, py = phi_eval(spec, X), phi_eval(spec, Y)
        if px <= 0.0:
            definite = False
        pxy = phi_eval(spec, X + Y)
        worst["triangle"] = max(worst["triangle"],
                                (pxy - px - py) / max(px + py, 1e-300))
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        worst["homogeneity"] = max(
            worst["homogeneity"],
            abs(phi_eval(spec, a * X) - abs(a) * px) / max(abs(a) * px, 1e-300))
        worst["adjoint"] = max(worst["adjoint"],
                               abs(phi_eval(spec, X.adjoint()) - px) / max(px, 1e-300))
        modX = BlockOperator(tuple((sid, scipy.linalg.polar(b)[1])
                                   for sid, b in X.summands))
        worst["modulus"] = max(worst["modulus"],
                               abs(phi_eval(spec, modX) - px) / max(px, 1e-300))
        U, V = _haar_pair(X, rng)
        worst["unitary"] = max(worst["unitary"],
                               abs(phi_eval(spec, U @ X @ V) - px) / max(px, 1e-300))
        A = random_block_operator(alg, rng)
        B = random_block_operator(alg, rng)
        cap = A.norm() * px * B.norm()
        worst["compression"] = max(
            worst["compression"],
            (phi_eval(spec, A @ X @ B) - cap) / max(cap, 1e-300))
        lo = BlockOperator(tuple((sid, random_psd(b.shape[0], rng))
                                 for sid, b in X.summands))
        hi = lo + BlockOperator(tuple((sid, random_psd(b.shape[0], rng))
                                      for sid, b in X.summands))
        worst["monotone"] = max(
            worst["monotone"],
            (phi_eval(spec, lo) - phi_eval(spec, hi))
            / max(phi_eval(spec, hi), 1e-300))
    peak = max(worst.values())
    return CheckResult(name="norm-axioms", passed=definite and peak <= _NORM_TOL,
                       worst=peak, tol=_NORM_TOL,
                       detail={**worst, "definite": definite,
                               "n_samples": n_samples})


def norm_axiom_battery(n_total: int = 10_000, seed=20260814):
    """Spread ``n_total`` axiom samples across the whole battery."""
    pairs = normspec_battery()
    per = max(1, n_total // len(pairs))
    out = []
    for i, (alg, spec) in enumerate(pairs):
        r = norm_axioms(spec, alg, n_samples=per, seed=(seed, i))
        out.append(CheckResult(name=f"norm-axioms[{i}]", passed=r.passed,
                               worst=r.worst, tol=r.tol, detail=r.detail))
    return out


def fphi_oracle(n_projections: int = 40, n_subs: int = 30, seed=1) -> CheckResult:
    """The closed form for f_phi against brute force: no random nonzero
    subprojection of P may score below f_phi(P), and the returned witness
    must attain the value."""
    rng = rng_from_seed(seed)
    worst = 0.0
    witness_err = 0.0
    for alg, spec in normspec_battery():
        for _ in range(n_projections):
            ranks = tuple(int(rng.integers(0, d + 1)) for d in alg.dims)
            if sum(ranks) == 0:
                ranks = (1,) + ranks[1:]
            P = random_projection(alg, ranks, rng)
            res = f_phi(spec, P)
            witness_err = max(witness_err,
                              abs(phi_eval(spec, res.witness.base) - res.value)
                              / max(res.value, 1e-300))
            for _ in range(n_subs):
                sub_ranks = tuple(int(rng.integers(0, r + 1)) for r in ranks)
                if sum(sub_ranks) == 0:
                    continue
                Q = random_subprojection(P, sub_ranks, rng)
                val = phi_eval(spec, Q.base)
                worst = max(worst, (res.value - val) / max(res.value, 1e-300))
    peak = max(worst, witness_err)
    return CheckResult(name="fphi-oracle", passed=peak <= _NORM_TOL, worst=peak,
                       tol=_NORM_TOL, detail={"undercut": worst,
                                              "witness_err": witness_err})


def projection_bound(n: int = 60, seed=2) -> CheckResult:
    """||X Q|| * f_phi(Q) <= phi(X) for projections Q, the inequality that
    prices how much of X survives compression to a cheap projection."""
    rng = rng_from_seed(seed)
    worst = 0.0
    for alg, spec in normspec_battery():
        for _ in range(n):
            X = random_block_operator(alg, rng)
            px = phi_eval(spec, X)
            mask = rng.integers(0, 2, size=len(alg.dims)).astype(bool)
            if not mask.any():
                mask[int(rng.integers(0, len(alg.dims)))] = True
            Z = validate_projection(
                central_projection(identity_like(X), np.flatnonzero(mask)))
            ranks = tuple(int(rng.integers(1, d + 1)) if m else 0
                          for m, d in zip(mask, alg.dims))
            for Q in (Z, random_projection(alg, ranks, rng)):
                lhs = (X @ Q.base).norm() * f_phi(spec, Q).value
                worst = max(worst, (lhs - px) / max(px, 1e-300))
    return CheckResult(name="projection-bound", passed=worst <= _NORM_TOL,
                       worst=worst, tol=_NORM_TOL, detail={"n": n})


def _disconnect_loop(name: str, run, seed) -> CheckResult:
    """End-to-end disconnections ``run(T, eps, spec)`` on 1-3 Ginibre blocks
    of dimension 2-12 under a sup of operator norms weighted in [1, 4), each
    certificate checked as criterion 1 (criterion 4 for rr0) checks it."""
    rng = rng_from_seed(seed)
    worst = 0.0
    valid = True
    for _ in range(_DISCONNECT_N):
        k = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 13)) for _ in range(k))
        T = random_block_operator(AlgebraSpec(dims, "none"), rng)
        weights = tuple(float(w) for w in rng.uniform(1.0, 4.0, size=k))
        spec = NormSpec(base=(BaseNorm("operator"),) * k, weights=weights, agg="sup")
        cert = run(T, _DISCONNECT_EPS, spec)
        worst = max(worst, cert.phi_X / _DISCONNECT_EPS)
        x_norm = cert.X.norm()
        if not (cert.disconnected and cert.components_after.n_components >= 2
                and abs(phi_eval(cert.norm, cert.X) - cert.phi_X)
                <= _PHI_REMEASURE_TOL * cert.phi_X
                and x_norm <= cert.phi_X + 1e-12 and cert.gap_achieved >= _GAP_MIN
                and (cert.route != "rr0" or (cert.eps0 == _DISCONNECT_EPS / 2.0
                                             and x_norm < _DISCONNECT_EPS))):
            valid = False
            break
    return CheckResult(name=name, passed=valid and worst < 1.0, worst=worst,
                       tol=1.0, detail={"n": _DISCONNECT_N, "eps": _DISCONNECT_EPS})


def disconnect_batch(seed=3) -> CheckResult:
    """Weighted-norm :func:`disconnect` runs (see :func:`_disconnect_loop`)."""
    return _disconnect_loop("disconnect", disconnect, seed)


def rr0_batch(seed=4) -> CheckResult:
    """Operator-norm :func:`disconnect_rr0` runs (see :func:`_disconnect_loop`)."""
    return _disconnect_loop("disconnect-rr0",
                            lambda T, eps, _spec: disconnect_rr0(T, eps), seed)


def riesz_batch(seed=5) -> CheckResult:
    """Riesz idempotents from circle contours around one eigenvalue:
    idempotency and commutation residuals, and the distance to the 64-node
    quadrature relative to its norm, stay under tolerance."""
    rng = rng_from_seed(seed)
    worst = 0.0
    done = 0
    while done < _RIESZ_N:
        alg = AlgebraSpec((int(rng.integers(3, 11)),), "none")
        T = random_block_operator(alg, rng)
        ev = eigenvalues(T)
        gaps = np.abs(ev[:, None] - ev[None, :]) + np.eye(len(ev)) * 1e9
        i = int(np.argmax(gaps.min(axis=1)))
        gap = float(gaps[i].min())
        if gap < 1e-3:
            continue
        contour = circle(ev[i], 0.45 * gap, nodes=64)
        P = riesz_idempotent(T, contour)
        P_quad = riesz_quadrature(T, contour)
        rep = verify_idempotent(P, T)
        scale = max(T.norm(), 1.0)
        worst = max(worst, rep.idem_residual, rep.commutator / scale,
                    (P - P_quad).norm() / max(P_quad.norm(), 1.0))
        if rep.rank < 1:
            return CheckResult(name="riesz", passed=False, worst=worst,
                               tol=_RIESZ_TOL, detail={"n": _RIESZ_N})
        done += 1
    return CheckResult(name="riesz", passed=worst <= _RIESZ_TOL, worst=worst,
                       tol=_RIESZ_TOL, detail={"n": _RIESZ_N})


def uppertri_batch(seed=6) -> CheckResult:
    """sigma(T) = sigma(T1) + sigma(T2) (with multiplicity) for block
    upper-triangular T, measured by optimal matching distance."""
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(_UPPERTRI_N):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        b = UTBlock(
            T1=rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1)),
            T12=rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2)),
            T2=rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2)))
        rep = ut_inclusion_check(b)
        worst = max(worst, rep.matched / max(rep.scale, 1.0))
        if not rep.passed:
            return CheckResult(name="uppertri", passed=False, worst=worst,
                               tol=_INCLUSION_TOL, detail={"n": _UPPERTRI_N})
    return CheckResult(name="uppertri", passed=worst <= _INCLUSION_TOL, worst=worst,
                       tol=_INCLUSION_TOL, detail={"n": _UPPERTRI_N})


def counterexample_check(seed=7) -> CheckResult:
    """The divergent-weight family: random norm-budget perturbations never
    split its delta-connected spectrum."""
    T, spec = counterexample_operator(_COUNTEREXAMPLE_K)
    rep = verify_counterexample(T, spec, trials=_COUNTEREXAMPLE_TRIALS, seed=seed)
    return CheckResult(name="counterexample", passed=rep.all_passed,
                       worst=float(_COUNTEREXAMPLE_TRIALS - rep.passes), tol=0.0,
                       detail={"K": _COUNTEREXAMPLE_K, "trials": _COUNTEREXAMPLE_TRIALS,
                               "delta": rep.delta, "net_spacing": rep.net_spacing})


def cfun_checks(seed=8) -> CheckResult:
    """Commutative side: stage-10 Cantor disconnections succeed with exact
    sup distance under eps, and the interval-union witness resists small
    perturbations (the image polylines stay linked within the threshold)."""
    rng = rng_from_seed(seed)
    worst = 0.0
    ok = True
    X = CompactRealSet.cantor(depth=10, ratio="1/3")
    for i in range(_CFUN_DISCONNECT):
        t = np.linspace(-0.2, 1.2, 9)
        vals = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = PLFunction(breakpoints=t, values=vals)
        res = cfun_disconnect(X, f, eps=0.25)
        worst = max(worst, res.sup_dist / 0.25)
        # Keep the merge threshold inside the certified gap, else the
        # polylines of a steep g come within it and bridge the gap.
        r = min(2e-3, res.range_gap / (6.0 * max(1e-12, res.g.lipschitz())))
        rep = range_components(res.g, X, resolution=r)
        if res.range_gap <= 0 or rep.n_components < 2:
            ok = False
    W, fw = nondensity_witness(3)
    for _ in range(_CFUN_WITNESS):
        bump = (rng.standard_normal(len(fw.values))
                + 1j * rng.standard_normal(len(fw.values)))
        bump *= 0.09 / max(1e-12, float(np.max(np.abs(bump))))
        g = PLFunction(breakpoints=fw.breakpoints,
                       values=np.asarray(fw.values) + bump)
        rep = range_components(g, W, resolution=1e-3)
        if not rep.connected:
            ok = False
    return CheckResult(name="cfun", passed=ok and worst < 1.0, worst=worst,
                       tol=1.0, detail={"n_disconnect": _CFUN_DISCONNECT,
                                        "n_witness": _CFUN_WITNESS})


SUITES = {
    "norm-axioms": lambda seed: _merge(norm_axiom_battery(n_total=2000, seed=seed)),
    "fphi-oracle": lambda seed: fphi_oracle(seed=seed),
    "projection-bound": lambda seed: projection_bound(seed=seed),
    "disconnect": lambda seed: disconnect_batch(seed=seed),
    "disconnect-rr0": lambda seed: rr0_batch(seed=seed),
    "riesz": lambda seed: riesz_batch(seed=seed),
    "uppertri": lambda seed: uppertri_batch(seed=seed),
    "counterexample": lambda seed: counterexample_check(seed=seed),
    "cfun": lambda seed: cfun_checks(seed=seed),
}


def _merge(results) -> CheckResult:
    worst = max(r.worst for r in results)
    return CheckResult(name="norm-axioms", passed=all(r.passed for r in results),
                       worst=worst, tol=results[0].tol,
                       detail={"batteries": len(results)})


def run_suites(names=None, seed=20260814) -> SuiteReport:
    chosen = list(SUITES) if not names else list(names)
    unknown = [n for n in chosen if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}; have {sorted(SUITES)}")
    results = []
    for i, name in enumerate(chosen):
        results.append(SUITES[name]((seed, i)))
    return SuiteReport(results=tuple(results))
