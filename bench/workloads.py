"""Inputs, operations and output checks for the four benchmark workloads.

The input generators are copies of the acceptance-corpus generators in
``tests/test_acceptance.py`` (criteria 1, 4, 7 and 8), so that edits to the
tests cannot change what the benchmark measures.  Random operators and
streams still come from ``specgap.sampling``, the package's sampling layer.

Every operation calls the package through module attributes
(``perturb.disconnect``, not a name bound at import), so that the traced
mode can rebind them.  Every output is checked against a computation made
here, apart from the package, or against a property the method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.linalg

from specgap import cfun, perturb, riesz, spectral
from specgap.algebra import AlgebraSpec, block_operator
from specgap.norms import BaseNorm, NormSpec
from specgap.sampling import random_block_operator, rng_from_seed
from specgap.uppertri import shift_example

EPS_CYCLE = (1e-1, 1e-2, 1e-3)
U = np.finfo(float).eps

# Operations per round; each round is one fixed list, repeated whole.
CERTIFY_N = 100
RR0_N = 100
CFUN_SPLITS = 900
CFUN_PROBES = 448           # witness probes, a quarter for each n = 1..4
HALF_SHIFT_NS = (16, 32, 64)
# Fixed sizes, so that a seed changes the entries but not the work; with
# 3 + 12 operations a round's median falls on one operation, not between two.
GINIBRE_DIMS = (8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52)
PSEUDO_GRID = 31            # grid points per axis

RIESZ_NODES = 256
RIESZ_TOL = 1e-8
SEPARATION_FACTOR = 10.0    # s must exceed this * n * u * (||T|| + |mu|)


class CheckFailed(AssertionError):
    """An output broke a property the benchmark checks."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``check`` raises :class:`CheckFailed` or returns the operation's margin
    (``None`` when the operation has none).
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], float | None]


@dataclass(frozen=True)
class Workload:
    ops: tuple
    # checks across one round's outputs, in op order (None when failed)
    round_check: Callable[[list], None] = lambda outputs: None


# -- criterion-1 / criterion-4 operators ----------------------------------


def random_dominating_spec(dims, rng):
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


def _random_dims(rng):
    return tuple(int(d) for d in rng.integers(2, 65, int(rng.integers(2, 5))))


def _op_norm(block):
    return float(np.linalg.svd(block, compute_uv=False)[0])


def _phi_from_singular_values(spec: NormSpec, X) -> float:
    terms = []
    for sid, block in X.summands:
        s = np.linalg.svd(block, compute_uv=False)
        base = spec.base[sid]
        if base.kind == "operator" or (base.kind == "schatten" and math.isinf(base.p)):
            v = s[0]
        elif base.kind == "schatten":
            v = np.sum(s ** base.p) ** (1.0 / base.p)
        else:
            v = np.sum(s[: base.k])
        terms.append(spec.weights[sid] * float(v))
    if spec.agg == "sup":
        return max(terms)
    return float(np.sum(np.asarray(terms) ** spec.q) ** (1.0 / spec.q))


def check_certificate(T, spec, eps, cert) -> float:
    """Audit one certificate; return the separation margin s / eps0.

    T + X = T(I - E) + mu E is block upper triangular for ran E + ran(I - E),
    so sigma(T + X) = {mu} u sigma(C) with C the compression of T to
    ran(I - E); s = sigma_min(C - mu) bounds mu's distance to sigma(C).
    """
    X, E = cert.X, cert.E.base
    phi = _phi_from_singular_values(spec, X)
    require(abs(phi - cert.phi_X) <= 1e-9 * phi, f"phi(X) {cert.phi_X} != {phi}")
    require(phi < eps, f"phi(X)={phi} not < eps={eps}")
    require(max(_op_norm(b) for _, b in X.summands) <= phi * (1.0 + 1e-12),
            "||X|| > phi(X)")

    trace = 0.0
    for _, e in E.summands:
        require(np.abs(e - e.conj().T).max() <= 1e-9, "E is not Hermitian")
        require(np.abs(e @ e - e).max() <= 1e-9, "E is not idempotent")
        trace += np.trace(e).real
    require(abs(trace - 1.0) <= 1e-9, f"rank(E) = trace {trace} != 1")

    mu = cert.lam + cert.eps0
    t_norm = max(_op_norm(b) for _, b in T.summands)
    for (_, t), (_, e), (_, x) in zip(T.summands, E.summands, X.summands):
        want = mu * e - t @ e
        require(np.abs(x - want).max() <= 1e-12 * (t_norm + abs(mu)),
                "X != (mu I - T) E")

    s = math.inf
    for (_, t), (_, e) in zip(T.summands, E.summands):
        if np.trace(e).real > 0.5:
            v = np.linalg.eigh(e)[1][:, -1:]
            Q = np.linalg.qr(v, mode="complete")[0][:, 1:]      # basis of v-perp
            c = Q.conj().T @ t @ Q
        else:
            c = t
        c = c - mu * np.eye(c.shape[0])
        s = min(s, float(np.linalg.svd(c, compute_uv=False)[-1]))
    n_total = sum(t.shape[0] for _, t in T.summands)
    bound = SEPARATION_FACTOR * n_total * U * (t_norm + abs(mu))
    require(s > bound, f"separation {s:.3e} not above rounding bound {bound:.3e}")
    return s / cert.eps0


def certify(seed: int, n: int = CERTIFY_N) -> Workload:
    """``disconnect`` on the criterion-1 corpus generator."""
    rng = rng_from_seed((seed, 1))
    ops = []
    for i in range(n):
        dims = _random_dims(rng)
        T = random_block_operator(AlgebraSpec(dims=dims, tail="none"), rng)
        spec = random_dominating_spec(dims, rng)
        eps = EPS_CYCLE[i % len(EPS_CYCLE)]
        ops.append(Op(
            kind="disconnect",
            run=lambda T=T, eps=eps, spec=spec: perturb.disconnect(T, eps, spec),
            check=lambda cert, T=T, eps=eps, spec=spec:
                check_certificate(T, spec, eps, cert)))
    return Workload(ops=tuple(ops))


def _rr0_riesz(T, eps):
    cert = perturb.disconnect_rr0(T, eps)
    Tp = T + cert.X
    mu = cert.lam + cert.eps0
    radius = cert.gap_achieved / 2.0
    P = riesz.riesz_idempotent(Tp, riesz.circle(mu, radius, nodes=RIESZ_NODES),
                               exclusion_dist=radius / 2.0)
    return cert, Tp, P, riesz.verify_idempotent(P, Tp), radius


def _check_rr0_riesz(T, eps, out) -> float:
    cert, Tp, P, rep, radius = out
    require(cert.eps0 == eps / 2.0, "eps0 != eps / 2")
    margin = check_certificate(T, cert.norm, eps, cert)
    tp_norm = max(_op_norm(b) for _, b in Tp.summands)
    idem = max(_op_norm(p @ p - p) for _, p in P.summands)
    comm = max(_op_norm(p @ t - t @ p) for (_, p), (_, t) in zip(P.summands, Tp.summands))
    require(idem <= RIESZ_TOL, f"||P^2 - P|| = {idem:.3e}")
    require(comm <= RIESZ_TOL * tp_norm, f"||PT' - T'P|| = {comm:.3e}")
    mu = cert.lam + cert.eps0
    inside = sum(int(np.count_nonzero(np.abs(np.linalg.eigvals(t) - mu) < radius))
                 for _, t in Tp.summands)
    require(rep.rank == inside, f"rank(P) = {rep.rank}, {inside} eigenvalues inside")
    require(1 <= inside <= Tp.total_dim - 1, "circle encloses all or none")
    return margin


def rr0_riesz(seed: int, n: int = RR0_N) -> Workload:
    """``disconnect_rr0`` on the criterion-4 generator, then a Riesz
    projection on a 256-node circle around mu and its verification."""
    rng = rng_from_seed((seed, 4))
    ops = []
    for i in range(n):
        dims = _random_dims(rng)
        T = random_block_operator(AlgebraSpec(dims=dims, tail="none"), rng)
        eps = EPS_CYCLE[i % len(EPS_CYCLE)]
        ops.append(Op(kind="rr0_riesz",
                      run=lambda T=T, eps=eps: _rr0_riesz(T, eps),
                      check=lambda out, T=T, eps=eps: _check_rr0_riesz(T, eps, out)))
    return Workload(ops=tuple(ops))


# -- criterion-8 sets and functions ---------------------------------------


def random_compact_set(rng):
    if rng.random() < 0.6:
        depth = int(rng.integers(3, 9))
        ratio = Fraction(1, int(rng.integers(3, 6)))
        lo = int(rng.integers(-2, 2))
        return cfun.CompactRealSet.cantor(depth=depth, ratio=ratio, lo=lo, hi=lo + 1)
    k = int(rng.integers(2, 7))
    pts = np.sort(rng.uniform(-3.0, 3.0, k))
    while np.min(np.diff(pts)) < 1e-3:
        pts = np.sort(rng.uniform(-3.0, 3.0, k))
    return cfun.CompactRealSet(points=tuple(round(float(p), 6) for p in pts))


def _pl_eval(bps, vals, t):
    t = np.asarray(t, dtype=float)
    return np.interp(t, bps, vals.real) + 1j * np.interp(t, bps, vals.imag)


def _seg_dist(z, a, b):
    """Distance from z to each segment [a_k, b_k]."""
    ab = b - a
    den = np.abs(ab) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(den > 0, ((z - a) * ab.conj()).real / den, 0.0)
    return np.abs(z - (a + np.clip(t, 0.0, 1.0) * ab))


def _check_split(X, f, eps, res) -> float:
    g = res.g
    gb, gv = np.asarray(g.breakpoints), np.asarray(g.values)
    fb, fv = np.asarray(f.breakpoints), np.asarray(f.values)
    knots = np.union1d(gb, fb)
    lo_cut, hi_cut = float(res.piece.cut_lo), float(res.piece.cut_hi)
    lam = complex(res.lam)
    sup = 0.0
    gap = math.inf
    for a, c in X.pieces():
        fa, fc = float(a), float(c)
        t = np.concatenate(([fa], knots[(knots > fa) & (knots < fc)], [fc]))
        dg = _pl_eval(gb, gv, t)
        sup = max(sup, float(np.max(np.abs(dg - _pl_eval(fb, fv, t)))))
        if lo_cut < fa and fc < hi_cut:
            require(np.all(np.abs(dg - lam) <= 1e-12 * max(1.0, abs(lam))),
                    "g != lambda on the clopen piece")
        else:
            gap = min(gap, float(np.min(_seg_dist(lam, dg[:-1], dg[1:]))))
    require(sup < eps, f"sup|g - f| = {sup} not < eps = {eps}")
    require(gap > 0.0, "lambda touches g(X \\ piece)")
    require(abs(gap - res.range_gap) <= 1e-9 * max(gap, 1e-300),
            f"range gap {res.range_gap} != {gap}")
    return gap / eps


def _segments_meet(p0, p1, q0, q1) -> bool:
    def cross(o, a, b):
        return (a - o).real * (b - o).imag - (a - o).imag * (b - o).real
    d1, d2 = cross(q0, q1, p0), cross(q0, q1, p1)
    d3, d4 = cross(p0, p1, q0), cross(p0, p1, q1)
    return d1 * d2 <= 0.0 and d3 * d4 <= 0.0


def _check_probe(n, g, rep):
    gb, gv = np.asarray(g.breakpoints), np.asarray(g.values)
    first = _pl_eval(gb, gv, [2.0, 3.0])
    for k in range(2, n + 1):
        other = _pl_eval(gb, gv, [2.0 * k, 2.0 * k + 1.0])
        require(_segments_meet(first[0], first[1], other[0], other[1]),
                f"interval images 1 and {k} do not meet")
    require(rep.connected, f"witness range reported with {rep.n_components} components")


def cfun_split(seed: int, n_split: int = CFUN_SPLITS,
               n_probe: int = CFUN_PROBES) -> Workload:
    """``cfun_disconnect`` on the criterion-8 set generator, then witness
    probes through ``range_components``, in criterion 8's draw order."""
    rng = rng_from_seed((seed, 8))
    ops = []
    for _ in range(n_split):
        X = random_compact_set(rng)
        lo, hi = float(X.inf) - 0.5, float(X.sup) + 0.5
        m = int(rng.integers(5, 10))
        t = np.linspace(lo, hi, m)
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = cfun.PLFunction(breakpoints=t, values=vals)
        if X.generator is not None:
            d_min = float(min(p.diam for p in
                              cfun.clopen_small_pieces(X, X.generator.depth)))
            eps = float(rng.uniform(1.2, 5.0)) * max(3.0 * f.lipschitz() * d_min,
                                                     1e-9)
        else:
            eps = float(rng.uniform(0.05, 0.5))
        ops.append(Op(kind="cfun_disconnect",
                      run=lambda X=X, f=f, eps=eps: cfun.cfun_disconnect(X, f, eps),
                      check=lambda res, X=X, f=f, eps=eps: _check_split(X, f, eps, res)))
    for n in (1, 2, 3, 4):
        W, fw = cfun.nondensity_witness(n)
        vals = np.asarray(fw.values)
        for _ in range(n_probe // 4):
            bump = (rng.standard_normal(len(vals))
                    + 1j * rng.standard_normal(len(vals)))
            bump *= float(rng.uniform(0.2, 1.0)) * 0.099 / np.abs(bump).max()
            g = cfun.PLFunction(breakpoints=fw.breakpoints, values=vals + bump)
            ops.append(Op(kind="range_components",
                          run=lambda g=g, W=W: cfun.range_components(g, W, resolution=1e-3),
                          check=lambda rep, n=n, g=g: _check_probe(n, g, rep)))
    return Workload(ops=tuple(ops))


# -- criterion-7 pseudospectra ------------------------------------------------


def _grid_points(ps):
    return np.asarray(ps.res)[None, :] + 1j * np.asarray(ps.ims)[:, None]


def _ps_margin(ps) -> float:
    """Median distance of sigma_min from the eps level set, in units of eps."""
    sig = np.asarray(ps.sigma_min)
    return float(np.median(np.abs(sig - ps.eps))) / ps.eps


def _check_grid(A, grid, ps):
    """Exact coordinates, and sigma_min recomputed with another LAPACK
    driver (gesvd) on a 4 x 4 subgrid."""
    require(np.array_equal(ps.res, grid.res())
            and np.array_equal(ps.ims, grid.ims()), "grid coordinates")
    sig = np.asarray(ps.sigma_min)
    z = _grid_points(ps)
    eye = np.eye(A.shape[0])
    for iy in np.linspace(0, sig.shape[0] - 1, 4).astype(int):
        for ix in np.linspace(0, sig.shape[1] - 1, 4).astype(int):
            s = scipy.linalg.svd(A - z[iy, ix] * eye, compute_uv=False,
                                 lapack_driver="gesvd")[-1]
            require(abs(s - sig[iy, ix]) <= 1e-12 * max(1.0, _op_norm(A)),
                    f"sigma_min at {z[iy, ix]:.3f}: {sig[iy, ix]} != {s}")


def _check_half_shift(J, grid, ps) -> float:
    _check_grid(J, grid, ps)
    sig = np.asarray(ps.sigma_min)
    r = np.abs(_grid_points(ps))
    tol = 1e-12
    require(np.all(sig >= r - 1.0 - tol), "sigma_min(J - z) < |z| - 1")
    require(np.all(sig <= r + tol), "sigma_min(J - z) > |z|")
    return _ps_margin(ps)


def _check_ginibre(B, grid, ps) -> float:
    _check_grid(B, grid, ps)
    sig = np.asarray(ps.sigma_min)
    ev = np.linalg.eigvals(B)
    z = _grid_points(ps)
    dist = np.abs(z[..., None] - ev).min(axis=-1)
    tol = 10.0 * B.shape[0] * U * _op_norm(B)
    require(np.all(sig <= dist + tol), "sigma_min(B - z) > dist(z, sigma(B))")
    return _ps_margin(ps)


def _check_growth(outputs):
    fractions = [ps.marked_fraction for ps in outputs[:len(HALF_SHIFT_NS)]]
    require(all(a < b for a, b in zip(fractions, fractions[1:])),
            f"half-shift marked fractions do not grow with N: {fractions}")


def pseudospectra(seed: int, ginibre_dims=GINIBRE_DIMS) -> Workload:
    """``pseudospectrum_grid`` (threads=1) on criterion 7's half-shift
    compressions, then on Ginibre blocks."""
    ops = []
    hs_grid = spectral.GridSpec(-1.2, 1.2, -1.2, 1.2, nx=PSEUDO_GRID, ny=PSEUDO_GRID)
    for N in HALF_SHIFT_NS:
        J = np.asarray(shift_example(N)[1].T1)
        T = block_operator([(0, J)])
        ops.append(Op(kind="half_shift",
                      run=lambda T=T: spectral.pseudospectrum_grid(T, 1e-3, hs_grid,
                                                                   threads=1),
                      check=lambda ps, J=J: _check_half_shift(J, hs_grid, ps)))
    rng = rng_from_seed((seed, 7))
    g_grid = spectral.GridSpec(-1.6, 1.6, -1.6, 1.6, nx=PSEUDO_GRID, ny=PSEUDO_GRID)
    for n in ginibre_dims:
        T = random_block_operator(AlgebraSpec(dims=(n,), tail="none"), rng)
        B = np.asarray(T.summands[0][1])
        ops.append(Op(kind="ginibre",
                      run=lambda T=T: spectral.pseudospectrum_grid(T, 1e-1, g_grid,
                                                                   threads=1),
                      check=lambda ps, B=B: _check_ginibre(B, g_grid, ps)))
    return Workload(ops=tuple(ops), round_check=_check_growth)


WORKLOADS = {
    "certify": certify,
    "rr0-riesz": rr0_riesz,
    "cfun-split": cfun_split,
    "pseudospectra": pseudospectra,
}


WARMUP_SEED = 0


def warmup(name: str) -> Workload:
    """A fixed list, the same for every seed, with each kind of operation of
    the workload, run untimed during set-up."""
    return {
        "certify": lambda: certify(WARMUP_SEED, n=1),
        "rr0-riesz": lambda: rr0_riesz(WARMUP_SEED, n=1),
        "cfun-split": lambda: cfun_split(WARMUP_SEED, n_split=1, n_probe=4),
        "pseudospectra": lambda: pseudospectra(WARMUP_SEED, ginibre_dims=(8,)),
    }[name]()
