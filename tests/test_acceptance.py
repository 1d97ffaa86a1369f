"""End-to-end acceptance battery.

Each test prints one `[criterion N] PASS/FAIL — ...` line; tolerances are
pinned as module constants.  The random-operator corpus (criterion 1) is
built once and shared by criteria 2 and 5.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from specgap.algebra import AlgebraSpec, block_operator
from specgap.cfun import (CompactRealSet, PLFunction, cfun_disconnect,
                          clopen_small_pieces, nondensity_witness,
                          range_components)
from specgap.norms import BaseNorm, NormSpec, c_phi, dominating_check, phi_eval
from specgap.perturb import (counterexample_operator, disconnect, disconnect_rr0,
                             verify_counterexample)
from specgap.riesz import circle, riesz_idempotent, verify_idempotent
from specgap.sampling import random_block_operator, rng_from_seed
from specgap.spectral import GridSpec, eigenvalues, pseudospectrum_grid
from specgap.uppertri import UTBlock, shift_example, ut_inclusion_check
from specgap.verify import fphi_oracle, norm_axiom_battery, projection_bound

MASTER_SEED = 20260814
CORPUS_N = 1000              # criteria 1, 2, 4, 5
EPS_CYCLE = (1e-1, 1e-2, 1e-3)
GAP_MIN = 1e-8               # single-linkage separation after perturbation
PHI_REMEASURE_TOL = 1e-12    # criteria 1, 4: closed-form phi_X against phi_eval(X)
TIME_BUDGET = 300.0          # seconds for the criterion-1 corpus
RIESZ_TOL = 1e-8
UT_N = 1000                  # criterion 6
UT_TOL = 1e-7
CIRCLE_TOL = 1e-12           # criterion 7 eigenvalue deviation
CFUN_N = 200                 # criterion 8 disconnections
WITNESS_N = 500              # criterion 8 perturbation probes
AXIOM_SAMPLES = 10_000       # criterion 9
AXIOM_TOL = 1e-9


def _report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")


def _random_dominating_spec(dims, rng):
    """Random base norms, weights in [1, 4] (so c_phi <= 4, dominating)."""
    base = []
    for d in dims:
        kind = rng.choice(["operator", "schatten", "kyfan"])
        if kind == "operator":
            base.append(BaseNorm(kind="operator"))
        elif kind == "schatten":
            base.append(BaseNorm(kind="schatten",
                                 p=float(rng.choice([1.0, 2.0, 3.5, np.inf]))))
        else:
            base.append(BaseNorm(kind="kyfan", k=int(rng.integers(1, min(d, 3) + 1))))
    weights = tuple(float(w) for w in rng.uniform(1.0, 4.0, len(dims)))
    if rng.random() < 0.2:
        return NormSpec(base=tuple(base), weights=weights, agg="lq",
                        q=float(rng.choice([1.5, 2.0])))
    return NormSpec(base=tuple(base), weights=weights)


@pytest.fixture(scope="module")
def cert_corpus():
    """Criterion-1 corpus: (T, spec, eps, cert, cphi) plus build time."""
    rng = rng_from_seed((MASTER_SEED, 1))
    entries = []
    t0 = time.time()
    for i in range(CORPUS_N):
        dims = tuple(int(d) for d in rng.integers(2, 65, int(rng.integers(2, 5))))
        alg = AlgebraSpec(dims=dims, tail="none")
        T = random_block_operator(alg, rng)
        spec = _random_dominating_spec(dims, rng)
        assert c_phi(spec, alg) <= 4.0 and dominating_check(spec, alg)
        eps = EPS_CYCLE[i % len(EPS_CYCLE)]
        cert = disconnect(T, eps, spec)
        entries.append((T, spec, eps, cert, c_phi(spec, alg)))
    return entries, time.time() - t0


def test_criterion_1_disconnect_corpus(cert_corpus):
    entries, elapsed = cert_corpus
    bad = []
    for i, (T, spec, eps, cert, _) in enumerate(entries):
        ok = (cert.phi_X < eps
              and abs(phi_eval(spec, cert.X) - cert.phi_X) <= PHI_REMEASURE_TOL * cert.phi_X
              and cert.X.norm() <= cert.phi_X + 1e-12
              and cert.components_after.n_components >= 2
              and cert.gap_achieved >= GAP_MIN)
        if not ok:
            bad.append(i)
    ok = not bad and len(entries) == CORPUS_N and elapsed <= TIME_BUDGET
    _report(1, ok, f"{CORPUS_N - len(bad)}/{CORPUS_N} certificates valid "
                   f"(phi(X)<eps and re-measured, ||X||<=phi(X), >=2 components at gap>="
                   f"{GAP_MIN:g}) in {elapsed:.0f}s (budget {TIME_BUDGET:.0f}s)")
    assert not bad, f"invalid certificates at indices {bad[:10]}"
    assert elapsed <= TIME_BUDGET


def test_criterion_2_projection_bounds(cert_corpus):
    entries, _ = cert_corpus
    bad = [i for i, (T, spec, eps, cert, cphi) in enumerate(entries)
           if not (cert.phi_E < 1.0 + cphi and cert.phi_TE < cert.delta)]
    _report(2, not bad, f"{len(entries) - len(bad)}/{len(entries)} satisfy "
                        f"phi(E)<1+c_phi and phi((T-lambda)E)<delta")
    assert not bad, f"bounds violated at indices {bad[:10]}"


def test_criterion_3_counterexample():
    T, spec = counterexample_operator(12)
    assert tuple(spec.weights) == tuple(2.0 ** k for k in range(1, 13))
    rep = verify_counterexample(T, spec, trials=100, phi_budget=0.99,
                                seed=(MASTER_SEED, 3))
    ok = rep.all_passed and rep.trials == 100
    _report(3, ok, f"{rep.passes}/{rep.trials} perturbations kept every "
                   f"||X Z_k|| <= 0.99*2^-k and the spectrum delta-connected "
                   f"(delta={rep.delta:.3f})")
    assert ok, (rep.bound_violations, rep.connectivity_failures)


def test_criterion_4_rr0_corpus():
    rng = rng_from_seed((MASTER_SEED, 4))
    bad = []
    for i in range(CORPUS_N):
        dims = tuple(int(d) for d in rng.integers(2, 65, int(rng.integers(2, 5))))
        alg = AlgebraSpec(dims=dims, tail="none")
        T = random_block_operator(alg, rng)
        eps = EPS_CYCLE[i % len(EPS_CYCLE)]
        cert = disconnect_rr0(T, eps)
        ok = (cert.eps0 == eps / 2.0
              and cert.X.norm() < eps
              and abs(phi_eval(cert.norm, cert.X) - cert.phi_X)
              <= PHI_REMEASURE_TOL * cert.phi_X
              and cert.components_after.n_components >= 2
              and cert.gap_achieved >= GAP_MIN)
        if not ok:
            bad.append(i)
    _report(4, not bad, f"{CORPUS_N - len(bad)}/{CORPUS_N} operator-norm "
                        f"certificates valid with eps0 = eps/2")
    assert not bad, f"invalid rr0 certificates at indices {bad[:10]}"


def test_criterion_5_riesz_on_corpus(cert_corpus):
    entries, _ = cert_corpus
    bad = []
    for i, (T, spec, eps, cert, _) in enumerate(entries):
        Tp = T + cert.X
        center = cert.lam + cert.eps0
        radius = cert.gap_achieved / 2.0
        P = riesz_idempotent(Tp, circle(center, radius, nodes=256))
        rep = verify_idempotent(P, Tp)
        scale = max(Tp.norm(), 1e-300)
        ok = (rep.idem_residual <= RIESZ_TOL
              and rep.commutator <= RIESZ_TOL * scale
              and 1 <= rep.rank <= Tp.total_dim - 1)
        if not ok:
            bad.append((i, rep.idem_residual, rep.commutator / scale))
    _report(5, not bad, f"{len(entries) - len(bad)}/{len(entries)} Riesz "
                        f"idempotents with ||P^2-P||<={RIESZ_TOL:g}, "
                        f"||[P,T']||<={RIESZ_TOL:g}*||T'||, proper rank")
    assert not bad, f"idempotent failures: {bad[:5]}"


def test_criterion_6_uppertri_corpus():
    rng = rng_from_seed((MASTER_SEED, 6))
    bad = []
    for i in range(UT_N):
        n1, n2 = (int(x) for x in rng.integers(1, 33, 2))
        z = lambda n, m: (rng.standard_normal((n, m))
                          + 1j * rng.standard_normal((n, m)))
        b = UTBlock(T1=z(n1, n1), T12=z(n1, n2), T2=z(n2, n2))
        rep = ut_inclusion_check(b)
        if not (rep.passed and rep.matched <= UT_TOL * max(rep.scale, 1.0)):
            bad.append((i, rep.matched, rep.scale))
    _report(6, not bad, f"{UT_N - len(bad)}/{UT_N} spectra matched their "
                        f"diagonal parts within {UT_TOL:g}*scale")
    assert not bad, f"inclusion failures: {bad[:5]}"


def test_criterion_7_shift_pseudospectra():
    eps = 1e-3
    T, b = shift_example(64)
    dev = float(np.max(np.abs(np.abs(eigenvalues(T)) - 1.0)))
    grid = GridSpec(re_min=-1.2, re_max=1.2, im_min=-1.2, im_max=1.2,
                    nx=121, ny=121)
    fractions = []
    for N in (16, 32, 64):
        _, bN = shift_example(N)
        ps = pseudospectrum_grid(block_operator([(0, bN.T1)]), eps, grid)
        fractions.append(ps.marked_fraction)
    bound = 0.85 * (math.pi * eps ** (2.0 / 32.0) / 5.76)
    ok = (dev < CIRCLE_TOL
          and fractions[2] >= bound
          and fractions[0] < fractions[1] < fractions[2])
    _report(7, ok, f"unit-circle deviation {dev:.2e} < {CIRCLE_TOL:g}; "
                   f"half-shift marked fractions {fractions[0]:.3f} < "
                   f"{fractions[1]:.3f} < {fractions[2]:.3f}, "
                   f"N=64 fraction >= {bound:.3f}")
    assert ok, (dev, fractions, bound)


def _random_compact_set(rng):
    if rng.random() < 0.6:
        depth = int(rng.integers(3, 9))
        ratio = Fraction(1, int(rng.integers(3, 6)))
        lo = int(rng.integers(-2, 2))
        return CompactRealSet.cantor(depth=depth, ratio=ratio, lo=lo, hi=lo + 1)
    k = int(rng.integers(2, 7))
    pts = np.sort(rng.uniform(-3.0, 3.0, k))
    while np.min(np.diff(pts)) < 1e-3:
        pts = np.sort(rng.uniform(-3.0, 3.0, k))
    return CompactRealSet(points=tuple(round(float(p), 6) for p in pts))


def test_criterion_8_sets_share_their_stages():
    """The criterion-8 generator draws its Cantor sets from 72 parameter
    choices (6 depths, 3 ratios, 4 bases), and live sets of equal
    parameters share one stage and one float-ends array, so 900 sets hold
    at most 72 of each.  Objects are counted, not bytes."""
    rng = rng_from_seed((MASTER_SEED, 8))
    sets = [_random_compact_set(rng) for _ in range(900)]
    cantor = [X for X in sets if X.generator is not None]
    assert len(cantor) > 72
    assert len({id(X.pieces()) for X in cantor}) <= 72
    assert len({id(X.generator.stage_float_ends()) for X in cantor}) <= 72


def test_criterion_8_cfun_corpus():
    rng = rng_from_seed((MASTER_SEED, 8))
    bad = []
    for i in range(CFUN_N):
        X = _random_compact_set(rng)
        lo, hi = float(X.inf) - 0.5, float(X.sup) + 0.5
        m = int(rng.integers(5, 10))
        t = np.linspace(lo, hi, m)
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = PLFunction(breakpoints=t, values=vals)
        if X.generator is not None:
            # eps must leave some clopen piece with Lip * diam < eps/3, or
            # the stage is too shallow for the requested accuracy
            d_min = float(min(p.diam for p in
                              clopen_small_pieces(X, X.generator.depth)))
            eps = float(rng.uniform(1.2, 5.0)) * max(3.0 * f.lipschitz() * d_min,
                                                     1e-9)
        else:
            eps = float(rng.uniform(0.05, 0.5))
        res = cfun_disconnect(X, f, eps)
        if not (res.sup_dist < eps and res.range_gap > 0.0):
            bad.append(i)
    witness_bad = 0
    for n in (1, 2, 3, 4):
        W, fw = nondensity_witness(n)
        vals = np.asarray(fw.values)
        for _ in range(WITNESS_N // 4):
            bump = (rng.standard_normal(len(vals))
                    + 1j * rng.standard_normal(len(vals)))
            bump *= float(rng.uniform(0.2, 1.0)) * 0.099 / np.abs(bump).max()
            g = PLFunction(breakpoints=fw.breakpoints, values=vals + bump)
            if not range_components(g, W, resolution=1e-3).connected:
                witness_bad += 1
    ok = not bad and witness_bad == 0
    _report(8, ok, f"{CFUN_N - len(bad)}/{CFUN_N} disconnections with exact "
                   f"sup distance < eps and range gap > 0; "
                   f"{WITNESS_N - witness_bad}/{WITNESS_N} witness "
                   f"perturbations (norm < 0.1) stayed connected")
    assert ok, (bad[:10], witness_bad)


def test_criterion_9_norm_axioms():
    results = norm_axiom_battery(n_total=AXIOM_SAMPLES, seed=(MASTER_SEED, 9))
    extra = [projection_bound(n=60, seed=(MASTER_SEED, 90)),
             fphi_oracle(seed=(MASTER_SEED, 91))]
    worst = max(r.worst for r in list(results) + extra)
    ok = all(r.passed for r in list(results) + extra) and worst <= AXIOM_TOL
    _report(9, ok, f"invariance/triangle/domination/order and projection "
                   f"bound over {AXIOM_SAMPLES} samples: worst relative "
                   f"deviation {worst:.2e} <= {AXIOM_TOL:g}")
    assert ok, worst
