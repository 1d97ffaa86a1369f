"""The rank-one certificate: its separation check, its stored fields and its
typed failures."""

import dataclasses
import json

import numpy as np
import pytest

from specgap.algebra import AlgebraSpec, block_operator, identity_like, write_operator
from specgap.cli import main
from specgap.errors import BelowRoundoff, ConvergenceFailure
from specgap.perturb import certificate_to_dict, disconnect, disconnect_rr0
from specgap.sampling import random_block_operator, rng_from_seed
from specgap.spectral import eigenvalues

from conftest import make_spec

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


def test_separation_bounds_distance_to_the_rest_of_the_spectrum():
    for T, cert in _random_certificates():
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
