from collections import Counter

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest
import scipy.linalg

from specgap import riesz
from specgap.algebra import AlgebraSpec, block_operator, identity_like
from specgap.errors import ContourThroughSpectrum, ConvergenceFailure, EnclosesAllOrNone
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
    # the second operator and its contours are those of demos/riesz_projections.py
    D = block_operator([(0, np.diag([0.0, 0.1 + 0.05j, 3.0, 2.95, 3.1 - 0.1j]))])
    for T, around_3 in ((clustered_operator(rng), circle(3.0, 1.0)),
                        (D, rectangle(2 - 1j, 4 + 1j))):
        P = riesz_idempotent(T, circle(0.0, 1.0))
        Q = riesz_idempotent(T, around_3)
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
    # a circle through the eigenvalue 1: no ring proves it, at any m
    T = block_operator([(0, np.diag([0.0, 1.0]))])
    for idempotent in (riesz_idempotent, riesz_quadrature):
        with pytest.raises(ContourThroughSpectrum,
                           match=r"summand 0: .* at node z = 1\+0j of an m = 128 ring"):
            idempotent(T, circle(0.0, 1.0))
    # a screened-out second block does not hide the first block's crossing
    T2 = block_operator([(0, np.diag([0.0, 1.0])), (1, np.diag([20.0, 30.0]))])
    with pytest.raises(ContourThroughSpectrum, match="summand 0"):
        riesz_idempotent(T2, circle(0.0, 1.0))
    # eigenvalues on the contour between nodes, up to h from the nearest one:
    # e^{1i} on the unit circle, 1 + 0.3i on the square's right side
    T4 = block_operator([(1, np.diag([0.0, np.exp(1j), 1 + 0.3j]))])
    for contour in (circle(0.0, 1.0), rectangle(-1 - 1j, 1 + 1j)):
        with pytest.raises(ContourThroughSpectrum, match="summand 1: .* m = 128"):
            riesz_idempotent(T4, contour)
    # 1e-13 outside the eigenvalue 1 of a block whose Schur backward error
    # term, 10 n u ||b||_F, is 6.7e-13: the computed eigenvalues clear the
    # circle by more than exclusion_dist = 1e-14, but no ring proves it clear
    T3 = block_operator([(2, np.diag([0.0, 1.0, 100.0]))])
    with pytest.raises(ContourThroughSpectrum, match="summand 2: .* m = 128"):
        riesz_idempotent(T3, circle(0.0, 1.0 + 1e-13), exclusion_dist=1e-14)


def _rotated_jordan():
    """A 20 x 20 nilpotent Jordan block, superdiagonal 10, unitarily rotated:
    its spectrum is {0}, but its computed eigenvalues spread to about 2, and
    sigma_min(J - z) is tiny for every |z| < 2."""
    u = haar_unitary(20, rng_from_seed(11))
    return u @ (10.0 * np.eye(20, k=1)) @ u.conj().T


def test_ring_refuses_a_rounding_artifact():
    J = _rotated_jordan()
    T = block_operator([(0, J), (1, -50.0 * np.eye(2))])
    ev = np.linalg.eigvals(J)
    lam = ev[np.argmax(ev.real)]      # what disconnect_rr0 takes as lambda
    assert abs(lam) > 1.0
    for exclusion in (None, 0.05):
        with pytest.raises(ContourThroughSpectrum, match="summand 0: .* m = 512"):
            riesz_idempotent(T, circle(lam, 0.1, nodes=512), exclusion_dist=exclusion)


def test_contour_validation_and_geometry():
    bad = [lambda: circle(0.0, -1.0), lambda: circle(0.0, 1.0, nodes=4),
           lambda: rectangle(1 + 1j, 0), lambda: circle(0.0, 1.0, nodes=16.5),
           lambda: rectangle(0, 1 + 1j, nodes=16.5)]
    for value in (np.nan, np.inf):
        bad += [lambda v=value: circle(complex(v, 0.0), 1.0),
                lambda v=value: circle(complex(0.0, v), 1.0),
                lambda v=value: circle(0.0, v),
                lambda v=value: rectangle(complex(-1.0, v), 1 + 1j),
                lambda v=value: rectangle(-1 - 1j, complex(v, 1.0))]
    for make in bad:
        with pytest.raises(ValueError):
            make()
    assert circle(0.0, 1.0, nodes=np.int64(16)).nodes == 16
    c = circle(1.0, 2.0)
    assert c.encloses(1.0 + 1j) and not c.encloses(4.0)
    assert c.distance_to(1.0) == pytest.approx(2.0)
    r = rectangle(0, 2 + 2j)
    assert r.encloses(1 + 1j) and not r.encloses(3 + 1j)
    assert r.distance_to(1 + 1j) == pytest.approx(1.0)


def test_exclusion_dist_must_be_finite_and_positive():
    # a circle through the eigenvalue 1: the ring refuses it whatever the exclusion
    T = block_operator([(0, np.diag([0.0, 1.0, 3.0]))])
    for exclusion in (np.nan, -1.0, 0.0, np.inf, -np.inf):
        for idempotent in (riesz_idempotent, riesz_quadrature):
            with pytest.raises(ValueError, match="exclusion_dist"):
                idempotent(T, circle(0.0, 1.0), exclusion_dist=exclusion)
    with pytest.raises(ContourThroughSpectrum):
        riesz_idempotent(T, circle(0.0, 1.0), exclusion_dist=1e-3)


def test_multiblock_projection(rng):
    T = block_operator([(0, np.diag([0.0, 5.0])), (1, np.diag([0.1, 4.9]))])
    P = riesz_idempotent(T, circle(0.0, 1.0))
    rep = verify_idempotent(P, T)
    assert rep.rank == 2
    np.testing.assert_allclose(P.block(0), np.diag([1.0, 0.0]), atol=1e-10)
    np.testing.assert_allclose(P.block(1), np.diag([1.0, 0.0]), atol=1e-10)


def _rr0_corpus(count=40, seed=20260814):
    """The first ``count`` operators of the criterion-4 generator as T + X,
    each with the contour of criterion 5 around the split-off point mu.  At
    another ``seed`` these are the rr0-riesz benchmark's operators and
    circles."""
    rng = rng_from_seed((seed, 4))
    eps_cycle = (1e-1, 1e-2, 1e-3)
    for i in range(count):
        dims = tuple(int(d) for d in rng.integers(2, 65, int(rng.integers(2, 5))))
        T = random_block_operator(AlgebraSpec(dims=dims, tail="none"), rng)
        cert = disconnect_rr0(T, eps_cycle[i % 3])
        radius = cert.gap_achieved / 2.0
        yield T + cert.X, cert.lam + cert.eps0, radius


def test_schur_matches_quadrature_on_rr0_corpus():
    for i, (Tp, mu, radius) in enumerate(_rr0_corpus()):
        contour = circle(mu, radius, nodes=256)
        P = riesz_idempotent(Tp, contour, exclusion_dist=radius / 2.0)
        P_quad = riesz_quadrature(Tp, contour, exclusion_dist=radius / 2.0)
        assert (P - P_quad).norm() <= 1e-12 * max(1.0, P_quad.norm()), i


def _same_factors(P, Q) -> bool:
    def raw(F):
        return [(sid, n, k, None if L is None else (L.tobytes(), W.tobytes()))
                for sid, n, k, L, W in F.factors]
    return raw(P) == raw(Q)


def _schur_reference(T, contour):
    """Every block factored from its ordered Schur form, with no screen and
    no ring: the factors that `riesz_idempotent` returned, wherever it
    accepted the contour, before the ring proof replaced the exclusion test."""
    return riesz.FactoredIdempotent(
        riesz._schur_factors(sid, b.shape[0],
                             *scipy.linalg.schur(b, output="complex", sort=contour.encloses))
        for sid, b in T.summands)


def test_screen_keeps_factors_bitwise_on_rr0_corpus(monkeypatch):
    """Every circle and inscribed square is accepted with no exclusion_dist,
    and neither the screen nor the exclusion changes a bit of the factors."""
    cleared = []
    clears = riesz._clears

    def recording(b, center, reach):
        hit = clears(b, center, reach)
        if hit:
            cleared.append((b, center, reach))
        return hit

    for i, (Tp, mu, radius) in enumerate(_rr0_corpus()):
        contour = circle(mu, radius, nodes=256)
        square = rectangle(mu - radius / np.sqrt(2) * (1 + 1j),
                           mu + radius / np.sqrt(2) * (1 + 1j), nodes=256)
        references = {c: _schur_reference(Tp, c) for c in (contour, square)}
        # the disc screen is the one `_clears` call at the circle's center;
        # the ring's nodes lie on the circle
        monkeypatch.setattr(riesz, "_clears", lambda b, center, reach:
                            center != mu and clears(b, center, reach))
        unscreened = riesz_idempotent(Tp, contour)
        assert _same_factors(unscreened, references[contour]), i
        monkeypatch.setattr(riesz, "_clears", recording)
        for c, reference in references.items():
            for exclusion in (radius / 2.0, None):
                P = riesz_idempotent(Tp, c, exclusion_dist=exclusion)
                assert _same_factors(P, reference), (i, c.kind, exclusion)
        P_quad = riesz_quadrature(Tp, square)
        assert (riesz_idempotent(Tp, square) - P_quad).norm() <= 1e-9, i
    assert len(cleared) > 40        # most blocks miss the contour
    for b, center, reach in cleared:
        assert np.abs(scipy.linalg.eigvals(b) - center).min() >= reach


def test_ring_accepts_the_bench_circles():
    """The rr0-riesz benchmark's circles (mu, gap_achieved / 2) at seed 41:
    the former default exclusion, max(1e-6, 0.05 gap), refused 19 of these
    40, though mu is their only enclosed eigenvalue."""
    for i, (Tp, mu, radius) in enumerate(_rr0_corpus(seed=41)):
        P = riesz_idempotent(Tp, circle(mu, radius, nodes=256))
        inside = sum(int(np.count_nonzero(np.abs(scipy.linalg.eigvals(t) - mu) < radius))
                     for _, t in Tp.summands)
        assert verify_idempotent(P, Tp).rank == inside == 1, i


def test_screen_refers_nonnormal_blocks_to_schur(monkeypatch):
    # the Jordan block's eigenvalues sit at 0, 5 from the contour's center
    # (computed ones within 2 of 0), but sigma_min(J - z) is tiny near 5
    jordan = _rotated_jordan()
    assert np.linalg.svd(jordan - 5.0 * np.eye(20), compute_uv=False)[-1] < 1e-3
    T = block_operator([(0, jordan), (1, np.diag([5.0, 9.0]))])
    schur_calls = Counter()
    schur = scipy.linalg.schur

    def counted(b, *args, **kwargs):
        schur_calls[b.shape[0]] += 1
        return schur(b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    # the screen sends the block to its Schur form, and the ring refuses the
    # circle before the next block is factored
    with pytest.raises(ContourThroughSpectrum, match="summand 0: .* m = 128"):
        riesz_idempotent(T, circle(5.0, 1.0))
    assert schur_calls == {20: 1}


def test_screen_edge_failures():
    T = block_operator([(0, np.diag([0.0, 0.1, 3.0])), (1, np.diag([2.0, 4.0, 6.0, 8.0]))])
    # a contour that every block misses: all screened, none factored
    with pytest.raises(EnclosesAllOrNone, match="encloses 0 of 7 eigenvalues"):
        riesz_idempotent(T, circle(40.0, 1.0), exclusion_dist=0.5)
    with pytest.raises(EnclosesAllOrNone, match="encloses 0 of 7 eigenvalues"):
        riesz_idempotent(T, rectangle(30 + 30j, 31 + 31j), exclusion_dist=0.5)
    bad = np.diag([2.0, 4.0, 6.0, 8.0]).astype(complex)
    bad[1, 2] = np.nan
    T_nan = block_operator([(0, np.diag([0.0, 0.1, 3.0])), (3, bad)])
    for exclusion in (0.5, None):
        with pytest.raises(ConvergenceFailure, match="summand 3"):
            riesz_idempotent(T_nan, circle(0.0, 1.0), exclusion_dist=exclusion)


def test_screen_and_verify_work_counts(monkeypatch):
    # mu lies in block 1; sigma_min(b - mu) of blocks 0 and 2 exceeds the
    # screen radius 1.5 * radius more than tenfold
    T = random_block_operator(AlgebraSpec(dims=(5, 7, 4), tail="none"), rng_from_seed(5))
    cert = disconnect_rr0(T, 1e-2)
    Tp = T + cert.X
    radius = cert.gap_achieved / 2.0
    contour = circle(cert.lam + cert.eps0, radius, nodes=256)
    calls, svd_shapes = Counter(), []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key == "svd":
                svd_shapes.append(np.shape(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
    monkeypatch.setattr(scipy.linalg.lapack, "zpotrf",
                        counted("cholesky", scipy.linalg.lapack.zpotrf))
    svd = counted("svd", np.linalg.svd)
    for owner in (np.linalg, np_linalg_impl):    # np.linalg.norm(., 2) uses the latter
        monkeypatch.setattr(owner, "svd", svd)
    P = riesz_idempotent(Tp, contour, exclusion_dist=radius / 2.0)
    # one Cholesky per block screens blocks 0 and 2 out, an m = 8 ring of
    # eight more proves the circle clear of block 1, and no SVD runs
    assert calls == {"schur": 1, "cholesky": 3 + 8}
    calls.clear()
    assert _same_factors(P, riesz_idempotent(Tp, contour))
    assert calls == {"schur": 1, "cholesky": 3 + 8}     # the same with no exclusion
    calls.clear()
    rep = verify_idempotent(P, Tp)
    nonzero = [(n, k) for _, n, k, _, _ in P.factors if k > 0]
    # the nonzero block's two residuals: one batched SVD of two 2k x n matrices
    assert nonzero == [(7, 1)] and calls == {"svd": 1} and svd_shapes == [(2, 2, 7)]


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


def test_identity_and_zero_blocks_store_no_factors():
    P = riesz_idempotent(block_operator([(0, [[0.0]]), (1, [[5.0]])]), circle(0.0, 1.0))
    assert [f[2:] for f in P.factors] == [(1, None, None), (0, None, None)]
    assert P.block(0).tolist() == [[1.0]] and P.block(1).tolist() == [[0.0]]


def _factored_bound(P, T, c=2.0):
    """c n u ||L|| ||W|| (1 + ||T_b||), largest over the blocks with 0 < k < n."""
    u = 2.0 ** -53
    return max((c * n * u * np.linalg.norm(L, 2) * np.linalg.norm(W, 2)
                * (1.0 + np.linalg.norm(t, 2))
                for (_, n, k, L, W), (_, t) in zip(P.factors, T.summands) if 0 < k < n),
               default=0.0)


def test_verify_idempotent_builds_no_dense_block(rng, monkeypatch):
    T = clustered_operator(rng)
    T = block_operator(list(T.summands) + [(1, np.diag([0.0, 5.0]))])
    P = riesz_idempotent(T, circle(0.0, 1.0))
    dense = block_operator(list(P.summands))
    built = []
    dense_block = riesz._dense_block
    monkeypatch.setattr(riesz, "_dense_block",
                        lambda *a: built.append(a[:2]) or dense_block(*a))
    assert (P.ids, P.dims, P.total_dim) == ((0, 1), (5, 2), 7)    # from the factors
    rep = verify_idempotent(P, T)
    assert built == []
    ref = verify_idempotent(dense, T)
    assert (rep.rank, rep.corank) == (ref.rank, ref.corank) == (4, 3)
    bound = _factored_bound(P, T)
    assert abs(rep.idem_residual - ref.idem_residual) <= bound
    assert abs(rep.commutator - ref.commutator) <= bound


def test_factored_residuals_match_dense_on_rr0_corpus():
    """Each residual is an O(u) rounding of the same exact zero, which n-term
    products bound by n u ||L|| ||W|| (1 + ||T_b||) per block: the factored
    and the dense route differ by at most twice that."""
    for i, (Tp, mu, radius) in enumerate(_rr0_corpus()):
        P = riesz_idempotent(Tp, circle(mu, radius, nodes=256), exclusion_dist=radius / 2.0)
        rep = verify_idempotent(P, Tp)
        ref = verify_idempotent(block_operator(list(P.summands)), Tp)
        bound = _factored_bound(P, Tp)
        assert (rep.rank, rep.corank) == (ref.rank, ref.corank), i
        assert abs(rep.idem_residual - ref.idem_residual) <= bound, i
        assert abs(rep.commutator - ref.commutator) <= bound, i


def test_factored_residuals_catch_mutations():
    Tp, mu, radius = next(_rr0_corpus())
    P = riesz_idempotent(Tp, circle(mu, radius, nodes=256), exclusion_dist=radius / 2.0)
    rep = verify_idempotent(P, Tp)
    assert rep.idem_residual < 1e-12 and rep.commutator < 1e-12
    sid, n, k, L, W = next(f for f in P.factors if 0 < f[2] < f[1])
    scaled = riesz.FactoredIdempotent(
        f if f[0] != sid else (sid, n, k, L, W * (1 + 1e-6)) for f in P.factors)
    assert verify_idempotent(scaled, Tp).idem_residual > 1e-7
    blocks = [(s, b.copy()) for s, b in Tp.summands]
    block = dict(blocks)[sid]
    block[0, -1] += 1e-6
    moved = verify_idempotent(P, block_operator(blocks))
    assert moved.commutator > 1e-8 and moved.idem_residual == rep.idem_residual


def test_verify_idempotent_refuses_non_finite_t():
    T = block_operator([(0, np.diag([0.0, 0.1, 3.0])), (4, np.diag([2.0, 4.0]))])
    P = riesz_idempotent(T, circle(0.0, 1.0))
    for bad_value in (np.nan, np.inf):
        blocks = [(sid, b.astype(complex)) for sid, b in T.summands]
        blocks[1][1][0, 1] = bad_value            # a zero block of P
        for Q in (P, block_operator(list(P.summands))):
            with pytest.raises(ConvergenceFailure, match="summand 4"):
                verify_idempotent(Q, block_operator(blocks))


def test_verify_idempotent_refuses_non_finite_p():
    T = block_operator([(0, np.diag([1.0, 2.0])), (5, np.diag([3.0, 4.0]))])
    for bad in (np.nan, np.inf):
        for sid in (0, 5):
            p = {0: np.array([[1.0, 0.0], [0.0, 0.0]]), 5: np.zeros((2, 2))}
            p[sid][0, 1] = bad
            with pytest.raises(ConvergenceFailure, match=f"summand {sid} of P"):
                verify_idempotent(block_operator(list(p.items())), T)
        # P_0 = L W = [[1, 0], [0, 0]] with one bad entry in L or in W
        for which in (0, 1):
            L, W = np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]])
            (L, W)[which][-1, -1] = bad
            P = riesz.FactoredIdempotent([(0, 2, 1, L, W), (5, 2, 0, None, None)])
            with pytest.raises(ConvergenceFailure, match="summand 0 of P"):
                verify_idempotent(P, T)


def _screen_threshold(b, center, reach):
    """s and the margin m of `riesz._clears`, recomputed here."""
    n, eps = b.shape[0], 2.0 ** -52
    s = reach + 10 * n * eps * (np.linalg.norm(b) + abs(center) * n ** 0.5)
    F = np.linalg.norm(b - center * np.eye(n)) ** 2
    return s, (n + 2) ** 2 * eps * (F + s * s)


def test_cholesky_screen_decides_as_the_svd_on_rr0_corpus():
    decided, band = 0, []
    for i, (Tp, mu, radius) in enumerate(_rr0_corpus()):
        reach = 1.5 * radius         # the circle's radius plus exclusion_dist
        for sid, b in Tp.summands:
            s, m = _screen_threshold(b, mu, reach)
            sigma = np.linalg.svd(b - mu * np.eye(b.shape[0]), compute_uv=False)[-1]
            if abs(sigma ** 2 - s ** 2) <= m:
                band.append((i, sid, sigma, s))
            assert riesz._clears(b, mu, reach) == (sigma > s), (i, sid, sigma, s)
            decided += 1
    assert decided == 115 and band == [], f"blocks inside the margin band: {band}"


def test_cholesky_screen_at_its_threshold(rng):
    # b = c + Q diag(d) Q*: sigma(b - c) = |d| up to rounding, with its
    # smallest entry set 1e-9 (relative) above or below the threshold s
    center, reach, n = 2.0 + 1.0j, 0.75, 6
    q = haar_unitary(n, rng)
    d = np.exp(2j * np.pi * rng.random(n)) * np.linspace(reach, 3.0, n)

    def block(dmin):
        d[0] = dmin
        return center * np.eye(n) + (q * d) @ q.conj().T

    s, m = _screen_threshold(block(reach), center, reach)
    assert m < 1e-9 * s ** 2
    assert riesz._clears(block(s * (1 + 1e-9)), center, reach)
    assert not riesz._clears(block(s * (1 - 1e-9)), center, reach)
    nan_block = block(s * 2.0)
    nan_block[1, 0] = np.nan
    assert not riesz._clears(nan_block, center, reach)
