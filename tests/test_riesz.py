import numpy as np
import pytest
import scipy.linalg

from specgap.algebra import AlgebraSpec, block_operator, identity_like
from specgap.errors import ContourThroughSpectrum, EnclosesAllOrNone
from specgap.perturb import disconnect_rr0
from specgap.riesz import (Contour, circle, rectangle, riesz_idempotent,
                           riesz_quadrature, verify_idempotent)
from specgap.sampling import haar_unitary, random_block_operator, rng_from_seed


def clustered_operator(rng):
    """Nonnormal operator with eigenvalue clusters near 0 and near 3."""
    d = np.diag([0.0, 0.1, -0.05, 3.0, 2.9 + 0.1j])
    v = np.eye(5) + 0.3 * np.triu(rng.standard_normal((5, 5)), 1)
    return block_operator([(0, v @ d @ np.linalg.inv(v))])


def test_circle_projection_rank_and_residuals(rng):
    T = clustered_operator(rng)
    P = riesz_idempotent(T, circle(0.0, 1.0))
    rep = verify_idempotent(P, T)
    assert rep.rank == 3 and rep.corank == 2
    assert rep.idem_residual < 1e-10
    assert rep.commutator < 1e-10


def test_complementary_contours_sum_to_identity(rng):
    T = clustered_operator(rng)
    P = riesz_idempotent(T, circle(0.0, 1.0))
    Q = riesz_idempotent(T, circle(3.0, 1.0))
    assert (P + Q - identity_like(T)).norm() < 1e-10
    assert (P @ Q).norm() < 1e-10


def test_rectangle_matches_circle(rng):
    T = clustered_operator(rng)
    for idempotent in (riesz_idempotent, riesz_quadrature):
        P = idempotent(T, circle(0.0, 1.0))
        R = idempotent(T, rectangle(-1 - 1j, 1 + 1j))
        assert (P - R).norm() < 1e-9, idempotent.__name__


def test_node_doubling_is_stable(rng):
    T = clustered_operator(rng)
    for idempotent in (riesz_idempotent, riesz_quadrature):
        P1 = idempotent(T, circle(0.0, 1.0, nodes=128))
        P2 = idempotent(T, circle(0.0, 1.0, nodes=256))
        assert (P1 - P2).norm() < 1e-12, idempotent.__name__


def test_perturbation_stability(rng):
    T = clustered_operator(rng)
    E = block_operator([(0, 1e-9 * haar_unitary(5, rng))])
    P = riesz_idempotent(T, circle(0.0, 1.0))
    P2 = riesz_idempotent(T + E, circle(0.0, 1.0))
    assert (P - P2).norm() < 1e-6


def test_encloses_all_or_none(rng):
    T = clustered_operator(rng)
    with pytest.raises(EnclosesAllOrNone):
        riesz_idempotent(T, circle(1.5, 10.0))     # everything inside
    with pytest.raises(EnclosesAllOrNone):
        riesz_idempotent(T, circle(10.0, 0.5))     # nothing inside


def test_contour_through_spectrum():
    T = block_operator([(0, np.diag([0.0, 1.0]))])
    with pytest.raises(ContourThroughSpectrum):
        riesz_idempotent(T, circle(0.0, 1.0), exclusion_dist=0.1)


def test_contour_validation_and_geometry():
    with pytest.raises(ValueError):
        circle(0.0, -1.0)
    with pytest.raises(ValueError):
        circle(0.0, 1.0, nodes=4)
    with pytest.raises(ValueError):
        rectangle(1 + 1j, 0)
    c = circle(1.0, 2.0)
    assert c.encloses(1.0 + 1j) and not c.encloses(4.0)
    assert c.distance_to(1.0) == pytest.approx(2.0)
    r = rectangle(0, 2 + 2j)
    assert r.encloses(1 + 1j) and not r.encloses(3 + 1j)
    assert r.distance_to(1 + 1j) == pytest.approx(1.0)


def test_multiblock_projection(rng):
    T = block_operator([(0, np.diag([0.0, 5.0])), (1, np.diag([0.1, 4.9]))])
    P = riesz_idempotent(T, circle(0.0, 1.0))
    rep = verify_idempotent(P, T)
    assert rep.rank == 2
    np.testing.assert_allclose(P.block(0), np.diag([1.0, 0.0]), atol=1e-10)
    np.testing.assert_allclose(P.block(1), np.diag([1.0, 0.0]), atol=1e-10)


def test_schur_matches_quadrature_on_rr0_corpus():
    # the first 40 operators of the criterion-4 generator, with the contour
    # of criterion 5 around the split-off point mu
    rng = rng_from_seed((20260814, 4))
    eps_cycle = (1e-1, 1e-2, 1e-3)
    for i in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 65, int(rng.integers(2, 5))))
        T = random_block_operator(AlgebraSpec(dims=dims, tail="none"), rng)
        cert = disconnect_rr0(T, eps_cycle[i % 3])
        Tp = T + cert.X
        radius = cert.gap_achieved / 2.0
        contour = circle(cert.lam + cert.eps0, radius, nodes=256)
        P = riesz_idempotent(Tp, contour, exclusion_dist=radius / 2.0)
        P_quad = riesz_quadrature(Tp, contour, exclusion_dist=radius / 2.0)
        assert (P - P_quad).norm() <= 1e-12 * max(1.0, P_quad.norm()), i


def test_factored_form_is_small_and_exact(rng):
    # a 64 x 64 block with one eigenvalue at 5, the rest on |z| = 0.5
    d = np.concatenate(([5.0], 0.5 * np.exp(2j * np.pi * rng.random(63))))
    tri = np.diag(d) + 0.3 * np.triu(rng.standard_normal((64, 64)), 1)
    u = haar_unitary(64, rng)
    T = block_operator([(0, u @ tri @ u.conj().T), (1, np.diag([0.0, 1.0, 2.0]))])
    contour = circle(5.0, 1.0)
    P = riesz_idempotent(T, contour)
    (_, n, k, L, W), (_, _, k_zero, L_zero, W_zero) = P.factors
    assert (n, k) == (64, 1) and L.size + W.size <= 2 * 64
    assert L.base is None and W.base is None     # not views of the 64 x 64 Z
    assert k_zero == 0 and L_zero is None and W_zero is None
    assert not np.any(P.block(1))
    sdim = scipy.linalg.schur(T.block(0), output="complex", sort=contour.encloses)[2]
    assert k == sdim
    assert verify_idempotent(P, T).rank == sdim
