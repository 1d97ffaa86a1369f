"""The rank-one certificate: its separation check, its stored fields and its
typed failures."""

import dataclasses
import json
from collections import Counter

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from specgap.algebra import (AlgebraSpec, block_operator, identity_like, operator_to_dict,
                             write_operator)
from specgap.cli import main
from specgap.errors import BelowRoundoff, ConvergenceFailure
from specgap._jsonio import dumps
from specgap import perturb
from specgap.perturb import (certificate_from_dict, certificate_to_dict, disconnect,
                             disconnect_rr0)
from specgap.sampling import random_block_operator, rng_from_seed
from specgap.spectral import (block_eigenvalues, eigenvalues, pool_spectra,
                              spectrum_components)

from conftest import make_spec
from test_acceptance import EPS_CYCLE, MASTER_SEED, _random_dominating_spec

# disconnect_rr0 at eps = 1e-14 puts the budget delta = 5e-18 below the
# round-off in sigma_min(T - lambda) of this well-conditioned 8 + 12 operator
ROUNDOFF_OP = dict(dims=(8, 12), seed=5, eps=1e-14)


def _random_certificates():
    rng = rng_from_seed(31)
    spec = make_spec([1.0, 3.0, 2.0], kinds=[("operator", None, None),
                                             ("schatten", 2, None),
                                             ("kyfan", None, 2)])
    for i in range(6):
        alg = AlgebraSpec(dims=tuple(int(d) for d in rng.integers(2, 20, 3)))
        T = random_block_operator(alg, rng)
        eps = (1e-1, 1e-2, 1e-3)[i % 3]
        yield T, disconnect(T, eps, spec)
        yield T, disconnect_rr0(T, eps)


def _kahan(n, theta=1.2):
    """The Kahan matrix: upper triangular, on which column-pivoted QR does not
    reveal its rank."""
    s, c = np.sin(theta), np.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def _deflation_edge_cases():
    """Operators whose lambda sits in a 1x1 block, is repeated, is defective,
    or lives in a block that defeats rank-revealing QR."""
    jordan = np.array([[0.5, 1.0], [0.0, 0.5]])
    for blocks in ([np.array([[2.0]]), np.diag([0.0, 1.0])],
                   [np.diag([1.0, 1.0, 0.0])],
                   [jordan, np.diag([0.0, 0.2])],
                   [_kahan(64)], [_kahan(64).T]):
        T = block_operator(list(enumerate(blocks)))
        yield T, disconnect_rr0(T, 1e-2)


def test_separation_bounds_distance_to_the_rest_of_the_spectrum():
    for T, cert in [*_random_certificates(), *_deflation_edge_cases()]:
        mu = cert.lam + cert.eps0
        dist = np.abs(eigenvalues(T + cert.X) - mu)
        rest = np.delete(dist, np.argmin(dist))   # drop mu itself
        assert dist.min() < 1e-9
        assert cert.separation <= rest.min() + 1e-9
        assert cert.separation > cert.separation_bound > 0.0
        assert cert.disconnected


def test_separation_is_exact_for_a_normal_operator():
    # sigma(C) = {0}, mu = 1.25: sigma_min(C - mu) is the distance itself
    cert = disconnect_rr0(block_operator([(0, np.diag([0.0, 1.0]))]), 0.5)
    assert cert.separation == pytest.approx(1.25, rel=1e-14)
    n, u = 2, np.finfo(float).eps / 2.0
    assert cert.separation_bound == pytest.approx(10 * n * u * (1.0 + 1.25))


def test_disconnected_reads_the_separation_check():
    cert = disconnect_rr0(block_operator([(0, np.diag([0.0, 1.0]))]), 0.5)
    assert cert.disconnected
    failed = dataclasses.replace(cert, separation=cert.separation_bound)
    assert not failed.disconnected


def test_separation_check_refuses_a_defective_block():
    # C is the 19x19 nilpotent Jordan block and mu = 0.05, so
    # sigma_min(C - mu) ~ 0.05^19, far below round-off: no certificate
    J = block_operator([(0, np.eye(20, k=1))])
    with pytest.raises(ConvergenceFailure, match="rounding bound"):
        disconnect_rr0(J, 0.1)


def test_x_property_is_mu_minus_t_times_e():
    for T, cert in _random_certificates():
        mu = cert.lam + cert.eps0
        want = (mu * identity_like(T) - T) @ cert.E.base
        for (_, x), (_, y) in zip(cert.X.summands, want.summands):
            np.testing.assert_allclose(x, y, rtol=0.0, atol=1e-12)
        assert cert.E.rank == 1 and cert.E.support == (cert.summand,)


def test_certificate_dict_carries_separation():
    _, cert = next(_random_certificates())
    d = json.loads(json.dumps(certificate_to_dict(cert)))
    assert d["separation"] == cert.separation
    assert d["separation_bound"] == cert.separation_bound


def test_cli_summary_carries_separation(capsys, tmp_path):
    p = tmp_path / "op.json"
    write_operator(block_operator([(0, np.diag([0.0, 1.0]))]), p)
    code = main(["disconnect-rr0", "--operator", str(p), "--eps", "0.5",
                 "--output-dir", str(tmp_path), "--out", "cert.json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["separation"] == pytest.approx(1.25, rel=1e-14)
    assert 0.0 < payload["separation_bound"] < payload["separation"]
    written = json.loads((tmp_path / "cert.json").read_text())
    assert written["separation"] == payload["separation"]
    assert written["separation_bound"] == payload["separation_bound"]


def _roundoff_operator():
    alg = AlgebraSpec(ROUNDOFF_OP["dims"], "none")
    return random_block_operator(alg, rng_from_seed(ROUNDOFF_OP["seed"]))


def test_budget_below_roundoff_raises_typed_error():
    with pytest.raises(BelowRoundoff, match=r"sigma_min\(T - lambda\) = .* budget"):
        disconnect_rr0(_roundoff_operator(), ROUNDOFF_OP["eps"])


def test_cli_budget_below_roundoff_exits_1(capsys, tmp_path):
    p = tmp_path / "op.json"
    write_operator(_roundoff_operator(), p)
    code = main(["disconnect-rr0", "--operator", str(p), "--eps",
                 str(ROUNDOFF_OP["eps"]), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "BelowRoundoff" in err


def _criterion_1_certificates(n=40):
    """The first ``n`` operators of the criterion-1 corpus, with certificates."""
    rng = rng_from_seed((MASTER_SEED, 1))
    for i in range(n):
        dims = tuple(int(d) for d in rng.integers(2, 65, int(rng.integers(2, 5))))
        T = random_block_operator(AlgebraSpec(dims=dims, tail="none"), rng)
        spec = _random_dominating_spec(dims, rng)
        yield T, disconnect(T, EPS_CYCLE[i % len(EPS_CYCLE)], spec)


def test_certificate_e_is_written_as_the_outer_product_of_v():
    # E is held as its factor v; W W* differs from np.outer(v, v*) in the last
    # bits, so the file's E must still read back as the outer product, and
    # its X as cert.X
    for _, cert in _criterion_1_certificates():
        want = block_operator([(s, np.outer(cert.v, cert.v.conj()) if s == cert.summand
                                else np.zeros((d, d))) for s, d in cert.structure])
        back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert dumps(operator_to_dict(back["E"])) == dumps(operator_to_dict(want))
        assert dumps(operator_to_dict(back["X"])) == dumps(operator_to_dict(cert.X))


def test_after_spectrum_matches_a_fresh_eigensolve():
    # sigma(T + X) is read off the eigenvalues of T, with lambda swapped for
    # mu, never computed from T + X; a fresh eigensolve must give the same
    # multiset
    for T, cert in [*_random_certificates(), *_criterion_1_certificates()]:
        got = np.asarray(cert.components_after.eigenvalues)
        want = eigenvalues(T + cert.X)
        assert got.shape == want.shape
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-9


def test_deflation_vector_is_null_to_roundoff():
    # ||(T_k - lambda) v|| <= 10 n_k u ||T_k||, also where lambda is last on
    # the diagonal of a triangular block, so the first column is no answer
    t = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.0, 0.0, 1.0]])
    triangular = block_operator([(0, t)])
    cert = disconnect_rr0(triangular, 0.1)
    assert cert.lam == 1.0
    u = np.finfo(float).eps / 2.0
    for T, cert in [(triangular, cert), *_deflation_edge_cases(),
                    *_criterion_1_certificates(200)]:
        t = T.block(cert.summand)
        residual = np.linalg.norm(t @ cert.v - cert.lam * cert.v)
        assert residual <= 10 * t.shape[0] * u * np.linalg.norm(t, 2)


def test_one_factorization_per_block(monkeypatch):
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eig", "schur", "qr"):
        monkeypatch.setattr(scipy.linalg, name,
                            counted(name, getattr(scipy.linalg, name)))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    svd = np.linalg.svd

    def counted_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        calls["svd_uv" if compute_uv else "svd"] += 1
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    # np.linalg.norm(., 2) reaches svd through numpy's private module
    for owner in (np.linalg, np_linalg_impl):
        monkeypatch.setattr(owner, "svd", counted_svd)
    alg = AlgebraSpec(dims=(5, 7, 4), tail="none")
    T = random_block_operator(alg, rng_from_seed(3))
    cert = disconnect(T, 1e-2, make_spec([1.0, 2.0, 3.0]))
    assert cert.disconnected
    assert calls["eigvals"] == 3 and calls["eig"] == 0     # no eig of T + X
    assert calls["schur"] == 0 and calls["qr"] == 1      # one QR of lambda's block
    # sigma-only: one per block for the separation; phi(X) is the rank-one
    # closed form and the rounding bound takes no norm of T
    assert calls["svd_uv"] == 0 and calls["svd"] == 3


@pytest.mark.parametrize("route", ["disconnect", "disconnect_rr0"])
def test_one_pooled_spectrum_and_one_clustering(monkeypatch, route):
    # sigma(T + X) is read off the pooled sigma(T), which is clustered once;
    # components_before is derived only when it is read
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("pool_spectra", "spectrum_components"):
        monkeypatch.setattr(perturb, name, counted(name, getattr(perturb, name)))
    T = random_block_operator(AlgebraSpec(dims=(5, 7, 4)), rng_from_seed(3))
    cert = (disconnect(T, 1e-2, make_spec([1.0, 2.0, 3.0])) if route == "disconnect"
            else disconnect_rr0(T, 1e-2))
    assert calls == Counter(pool_spectra=1, spectrum_components=1)
    assert cert.components_before.threshold == cert.components_after.threshold
    assert calls == Counter(pool_spectra=1, spectrum_components=2)


def _zero_and_twin_certificates():
    """A zero block (sigma(T) one cluster, gap inf) and the operators whose
    lambda is repeated."""
    G = rng_from_seed(1).standard_normal((6, 6)) / 4
    twin = block_operator([(0, np.diag([1.0, 1.0, 0.0])), (1, G)])
    zero = block_operator([(0, np.zeros((2, 2)))])
    yield twin, disconnect_rr0(twin, 1e-8)
    yield zero, disconnect_rr0(zero, 1e-9)
    yield zero, disconnect(zero, 1e-9, make_spec([1.0]))
    yield from _deflation_edge_cases()


def test_components_before_is_sigma_t_clustered_at_the_after_threshold():
    for T, cert in [*_criterion_1_certificates(), *_zero_and_twin_certificates()]:
        after = cert.components_after
        want = spectrum_components(pool_spectra(block_eigenvalues(T)), after.threshold)
        got = cert.components_before
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.gap == want.gap and got.threshold == want.threshold == after.threshold
        if not T.summands[0][1].any():        # sigma(T) = {0, 0}: one cluster
            assert got.n_components == 1 and got.gap == np.inf


def test_separation_bound_uses_the_largest_frobenius_norm():
    # a non-normal block, whose Frobenius norm exceeds its operator norm
    t = np.array([[1.0, 3.0], [0.0, 0.5]])
    T = block_operator([(0, t), (1, np.diag([0.5, -0.25, 0.1]))])
    cert = disconnect_rr0(T, 0.1)
    mu = cert.lam + cert.eps0
    u = np.finfo(float).eps / 2.0
    assert cert.lam == 1.0 and cert.summand == 0
    assert cert.separation_bound == 10.0 * 5 * u * (np.sqrt(10.25) + abs(mu))
    assert cert.separation_bound > 10.0 * 5 * u * (np.linalg.norm(t, 2) + abs(mu))
    assert cert.disconnected


def test_separation_bound_does_not_overflow_on_huge_blocks():
    # ||-1e200 I||_F = sqrt(3) 1e200, whose unscaled sum of squares overflows
    T = block_operator([(0, [[0.0]]), (1, -1e200 * np.eye(3))])
    u = np.finfo(float).eps / 2.0
    with np.errstate(over="raise"):
        certs = [disconnect(T, 0.1, make_spec([1.0, 1.0])), disconnect_rr0(T, 0.1)]
    for cert in certs:
        assert cert.lam == 0.0 and cert.separation == pytest.approx(1e200)
        assert cert.separation_bound == pytest.approx(
            10.0 * 4 * u * (np.sqrt(3.0) * 1e200 + cert.eps0), rel=1e-15)
        assert cert.disconnected


def test_huge_block_certifies_at_its_eigenvalue():
    # SciPy 1.17's eigvals misscales this block's eigenvalues (entries above
    # about 1.5e138), which put lambda off the spectrum: BelowRoundoff
    T = block_operator([(0, np.array([[2.0, 1.0], [0.0, -1.0]]) * 1e160),
                        (1, np.eye(2))])
    cert = disconnect_rr0(T, 1e157)
    assert cert.lam == 2e160 and cert.summand == 0
    assert cert.disconnected


def test_mu_is_its_own_component_beside_a_twin_of_lambda():
    # lambda = 1 is a double eigenvalue and eps0 = 5e-9: the components of
    # sigma(T + X) split mu off from lambda's twin, eps0 away
    G = rng_from_seed(1).standard_normal((6, 6)) / 4
    cert = disconnect_rr0(block_operator([(0, np.diag([1.0, 1.0, 0.0])), (1, G)]), 1e-8)
    assert cert.disconnected
    assert cert.components_before.n_components == 8      # the twins link
    assert cert.components_after.n_components == 9
    assert cert.gap_achieved == pytest.approx(cert.eps0, rel=1e-6)


def test_zero_block_splits_into_two_components():
    # sigma(T) = {0, 0}: mu = eps0 and the twin at 0 are two components
    cert = disconnect_rr0(block_operator([(0, np.zeros((2, 2)))]), 1e-9)
    assert cert.components_before.n_components == 1
    assert cert.components_after.n_components == 2
    assert cert.gap_achieved == cert.eps0 == 5e-10
