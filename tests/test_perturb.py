import json
import math

import numpy as np
import pytest

from specgap.algebra import AlgebraSpec, block_operator, identity_like
from specgap.errors import BudgetNotLessThanOne, DimensionOne, InfiniteCPhi, NotDominating
from specgap.norms import c_phi
from specgap.perturb import (certificate_from_dict, certificate_to_dict,
                             counterexample_net, counterexample_operator,
                             disconnect, disconnect_rr0, net_spacing,
                             verify_counterexample, write_certificate)
from specgap.sampling import random_block_operator, rng_from_seed
from specgap.spectral import eigenvalues

from conftest import make_spec


def test_rr0_frozen_two_point_example():
    """diag(0,1) at eps=0.5: perturb at the rightmost point, budget eps/2."""
    T = block_operator([(0, np.diag([0.0, 1.0]))])
    cert = disconnect_rr0(T, 0.5)
    assert cert.lam == pytest.approx(1.0)
    assert cert.eps0 == pytest.approx(0.25)
    np.testing.assert_allclose(cert.X.block(0), np.diag([0.0, 0.25]), atol=1e-12)
    after = sorted(eigenvalues(T + cert.X).real)
    assert after == pytest.approx([0.0, 1.25], abs=1e-12)
    assert cert.components_after.n_components == 2
    assert cert.route == "rr0"


def test_rr0_on_nilpotent_jordan_block():
    # the Schur vector is the kernel column e1: (T - 0) E = 0 exactly
    J = block_operator([(0, np.array([[0.0, 1.0], [0.0, 0.0]]))])
    cert = disconnect_rr0(J, 0.3)
    assert cert.lam == 0.0 and cert.E.rank == 1
    assert abs(abs(cert.v[0]) - 1.0) < 1e-12 and abs(cert.v[1]) < 1e-12
    np.testing.assert_allclose(cert.E.base.block(0), np.diag([1.0, 0.0]), atol=1e-9)
    assert cert.phi_TE < 1e-12


def test_scalar_spectrum_still_splits():
    # sigma(T) = {0} with multiplicity: rank-one bump isolates {eps0}
    T = block_operator([(0, np.zeros((3, 3)))])
    cert = disconnect_rr0(T, 0.5)
    assert cert.components_after.n_components == 2
    assert cert.X.norm() == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_disconnect_certificate_invariants(eps):
    rng = rng_from_seed((42, int(1 / eps)))
    alg = AlgebraSpec(dims=(3, 5), tail="none")
    spec = make_spec([1.5, 2.5], kinds=[("operator", None, None),
                                        ("schatten", 2, None)])
    cphi = c_phi(spec, alg)
    for _ in range(5):
        T = random_block_operator(alg, rng)
        cert = disconnect(T, eps, spec)
        assert cert.phi_X < eps
        assert cert.X.norm() <= cert.phi_X + 1e-12      # dominating norm
        assert cert.components_after.n_components >= 2
        assert cert.gap_achieved >= 1e-8
        assert cert.E.rank == 1
        assert cert.phi_E < 1.0 + cphi
        assert cert.phi_TE < cert.delta
        assert np.abs(eigenvalues(T) - cert.lam).min() < 1e-8
        # the advertised new spectral point really appears
        assert np.abs(eigenvalues(T + cert.X) - (cert.lam + cert.eps0)).min() < 1e-9


def test_disconnect_guards():
    one = block_operator([(0, np.array([[2.0]]))])
    with pytest.raises(DimensionOne):
        disconnect_rr0(one, 0.1)
    T = block_operator([(0, np.eye(2)), (1, np.eye(2))])
    divergent = make_spec([1.0, 2.0], tail_weights="divergent")
    with pytest.raises(InfiniteCPhi):
        disconnect(T, 0.1, divergent)
    with pytest.raises(NotDominating):
        disconnect(T, 0.1, make_spec([0.5, 2.0]))
    with pytest.raises(ValueError):
        disconnect_rr0(T, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            disconnect_rr0(T, bad)
        with pytest.raises(ValueError):
            disconnect(T, bad, make_spec([1.0, 2.0]))


def test_ideal_constrained_perturbation():
    T = block_operator([(0, np.diag([0.0, 1.0])), (1, np.diag([0.3, 0.7]))])
    spec = make_spec([1.0, 1.0], tail_weights="bounded", tail_sup=1.0)
    cert = disconnect(T, 0.2, spec)
    assert cert.disconnected
    # finitely supported: the perturbation lives in realized summands only
    assert cert.X.ids == T.ids


def test_counterexample_operator_layout():
    T, spec = counterexample_operator(5)
    assert T.ids == tuple(range(5)) and T.dims == (2,) * 5
    lams = counterexample_net(5)
    assert counterexample_net(np.int64(5)).tobytes() == lams.tobytes()
    for i, (sid, b) in enumerate(T.summands):
        np.testing.assert_allclose(b, lams[i] * np.eye(2), atol=1e-15)
        assert abs(lams[i]) == pytest.approx(1 - 2.0 ** -(i + 1), rel=1e-12)
        assert spec.weights[i] == 2.0 ** (i + 1)
    assert spec.tail_weights == "divergent"
    with pytest.raises(InfiniteCPhi):
        disconnect(T, 0.1, spec)
    assert counterexample_operator(1023)[1].weights[-1] == 2.0 ** 1023
    with pytest.raises(ValueError, match="exceeds 1023"):     # 2^1024 overflows
        counterexample_operator(1024)


def test_verify_counterexample_passes():
    T, spec = counterexample_operator(6)
    rep = verify_counterexample(T, spec, trials=15, seed=3)
    assert rep.all_passed and rep.trials == 15
    assert rep.bound_violations == 0 and rep.connectivity_failures == 0
    assert rep.delta > rep.net_spacing > 0.0


def test_verify_counterexample_needs_a_trial():
    # zero trials would report all_passed having checked nothing
    T, spec = counterexample_operator(4)
    for trials in (0, -3):
        with pytest.raises(ValueError):
            verify_counterexample(T, spec, trials=trials)


def test_verify_counterexample_budget_lies_in_0_1():
    T, spec = counterexample_operator(4)
    for budget in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            verify_counterexample(T, spec, trials=1, phi_budget=budget)
    for budget in (1.0, math.inf):
        with pytest.raises(BudgetNotLessThanOne, match="must be < 1"):
            verify_counterexample(T, spec, trials=1, phi_budget=budget)


def test_net_spacing_monotone_in_k():
    # denser nets cover the disk more tightly
    s6 = net_spacing(counterexample_net(6), 6)
    s12 = net_spacing(counterexample_net(12), 12)
    assert 0.0 < s12 < s6 < 1.0


def test_certificate_json_roundtrip(tmp_path):
    T = block_operator([(0, np.diag([0.0, 1.0]))])
    cert = disconnect_rr0(T, 0.5)
    d = certificate_to_dict(cert, seed=11)
    assert d["route"] == "rr0" and d["seed"] == 11 and "version" in d
    back = certificate_from_dict(json.loads(json.dumps(d)))
    np.testing.assert_allclose(back["X"].block(0), cert.X.block(0), atol=0.0)
    assert back["lambda"] == cert.lam and back["eps0"] == cert.eps0
    p = tmp_path / "cert.json"
    write_certificate(cert, p, seed=11)
    assert json.loads(p.read_text())["phi_X"] == cert.phi_X
