import numpy as np
import pytest

from specgap.algebra import AlgebraSpec
from specgap.sampling import (haar_unitary, random_block_operator, random_projection,
                              random_psd, random_subprojection, rng_from_seed, spawn_rngs)


def test_haar_unitary_is_unitary(rng):
    U = haar_unitary(6, rng)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(6), atol=1e-12)


def test_seeding_is_reproducible():
    a = haar_unitary(4, rng_from_seed(7))
    b = haar_unitary(4, rng_from_seed(7))
    np.testing.assert_array_equal(a, b)
    # tuple seeds address distinct streams, and nest
    c = haar_unitary(4, rng_from_seed((7, 0)))
    assert not np.allclose(a, c)
    haar_unitary(4, rng_from_seed(((7, 1), 2)))     # must not raise


def test_spawn_rngs_differ():
    r1, r2 = spawn_rngs(3, 2)
    assert r1.standard_normal() != r2.standard_normal()


def test_random_block_operator_shape(rng):
    alg = AlgebraSpec(dims=(2, 5), tail="none")
    T = random_block_operator(alg, rng)
    assert T.dims == (2, 5) and T.ids == (0, 1)
    assert np.iscomplexobj(T.block(0))


def test_random_psd(rng):
    S = random_psd(5, rng)
    assert np.linalg.eigvalsh(S).min() >= -1e-12


def test_random_projection_and_subprojection(rng):
    alg = AlgebraSpec(dims=(4, 3), tail="none")
    P = random_projection(alg, ranks=(2, 3), rng=rng)
    assert P.ranks == (2, 3)
    Q = random_subprojection(P, (1, 2), rng)
    assert Q.ranks == (1, 2)
    # Q sits under P
    assert (P.base @ Q.base - Q.base).is_zero(tol=1e-9)
    # requested ranks are capped by P's
    assert random_subprojection(P, (4, 0), rng).ranks == (2, 0)
    # negative ranks are refused rather than sliced from the end
    P32 = random_projection(AlgebraSpec(dims=(4, 3), tail="none"), (3, 2), rng)
    for ranks in ((-1, -2), (1, -1)):
        with pytest.raises(ValueError, match="negative rank"):
            random_subprojection(P32, ranks, rng)


def test_random_projection_needs_one_rank_per_summand(rng):
    alg = AlgebraSpec(dims=(3, 4), tail="none")
    for ranks in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="ranks for 2 summands"):
            random_projection(alg, ranks, rng)


def test_random_subprojection_needs_one_rank_per_summand(rng):
    P = random_projection(AlgebraSpec(dims=(3, 4), tail="none"), (2, 3), rng)
    for ranks in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="ranks for 2 summands"):
            random_subprojection(P, ranks, rng)


def test_haar_unitary_draws_are_unchanged():
    # the QR of one n x n complex Ginibre draw, R's diagonal phases divided out
    rng = rng_from_seed(7)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    np.testing.assert_array_equal(haar_unitary(5, rng_from_seed(7)), q * (d / np.abs(d)))


def test_random_subprojection_draws_only_kept_columns(rng):
    P = random_projection(AlgebraSpec(dims=(6, 4), tail="none"), (5, 3), rng)
    # at P's own rank (or zero) the factor is P's, and nothing is drawn
    state = rng.bit_generator.state
    Q = random_subprojection(P, (5, 0), rng)
    assert rng.bit_generator.state == state
    np.testing.assert_array_equal(Q.factors[0][1], P.factors[0][1])
    assert Q.ranks == (5, 0)
    # below it, P's factor times a Haar 5 x 2 isometry: orthonormal columns under P
    Q = random_subprojection(P, (2, 3), rng)
    w = Q.factors[0][1]
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-12)
    assert (P.base @ Q.base - Q.base).is_zero(tol=1e-9)
