import csv
import dataclasses
from collections import Counter

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest
import scipy.linalg

from specgap import spectral
from specgap.algebra import block_operator
from specgap.errors import ConvergenceFailure
from specgap.spectral import (GridSpec, cluster_points, eigenvalues,
                              min_singular_value, pseudospectrum_grid,
                              rightmost_boundary_point, spectrum_components,
                              write_pseudospectrum_csv)
from specgap.uppertri import shift_example

from conftest import traced_peak

U = np.finfo(float).eps


def test_eigenvalues_of_a_huge_block():
    # SciPy 1.17's eigvals returns 1.49e138 and -7.4e137 here
    T = block_operator([(0, np.array([[2.0, 1.0], [0.0, -1.0]]) * 1e139)])
    assert eigenvalues(T).tolist() == [-1e139, 2e139]


def test_eigenvalues_union_and_order(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((2, 2))
    T = block_operator([(0, A), (3, B)])
    ev = eigenvalues(T)
    expect = np.concatenate([np.linalg.eigvals(A), np.linalg.eigvals(B)])
    expect = expect[np.lexsort((expect.imag, expect.real))]
    np.testing.assert_allclose(ev, expect, atol=1e-12)
    assert np.all(np.diff(ev.real) >= -1e-15)


def test_cluster_points_single_linkage():
    pts = np.array([0.0, 0.1, 0.2, 1.0, 1.05, 5.0])
    labels = cluster_points(pts, 0.11)
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] != labels[0]
    assert labels[5] not in (labels[0], labels[3])
    # threshold is inclusive
    assert cluster_points(np.array([0.0, 1.0]), 1.0).max() == 0


def test_spectrum_components_gap():
    pts = np.array([0.0, 0.01, 2.0])
    rep = spectrum_components(pts, threshold=0.1)
    assert rep.n_components == 2 and rep.disconnected
    assert rep.gap == pytest.approx(1.99)
    one = spectrum_components(pts, threshold=3.0)
    assert one.n_components == 1 and not one.disconnected
    assert one.gap == np.inf


def test_rightmost_boundary_point_breaks_ties_by_imag():
    T = block_operator([(0, np.diag([1.0 + 1j, 1.0 - 1j, 0.5]))])
    assert rightmost_boundary_point(T) == pytest.approx(1.0 + 1j)


def test_min_singular_value_vanishes_on_spectrum(rng):
    A = rng.standard_normal((4, 4))
    T = block_operator([(0, A)])
    lam = np.linalg.eigvals(A)[0]
    assert min_singular_value(T, lam) < 1e-10
    assert min_singular_value(T, lam + 1.0) > 1e-3


def test_pseudospectrum_on_normal_operator(rng):
    # for normal T the eps-pseudospectrum is exactly the eps-neighborhood
    T = block_operator([(0, np.diag([-1.0 + 0j, 1.0]))])
    grid = GridSpec(re_min=-2, re_max=2, im_min=-1, im_max=1, nx=41, ny=21)
    ps = pseudospectrum_grid(T, eps=0.5, grid=grid)
    res, ims = np.asarray(ps.res), np.asarray(ps.ims)
    Z = res[None, :] + 1j * ims[:, None]
    dist = np.minimum(np.abs(Z + 1), np.abs(Z - 1))
    clear = np.abs(dist - 0.5) > 1e-9       # grid points off the boundary circle
    np.testing.assert_array_equal(ps.marked()[clear], (dist <= 0.5)[clear])
    assert 0.0 < ps.marked_fraction < 1.0
    ps2 = pseudospectrum_grid(T, eps=0.5, grid=grid, threads=2)
    assert np.array_equal(ps.sigma_min, ps2.sigma_min)


def _ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def _normal(rng, eigenvalues):
    Q = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))[0]
    return Q @ np.diag(eigenvalues) @ Q.T


def _symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / np.sqrt(2 * n)


_SCALED_B = np.array([[0.0, 0.1, 0.1], [0.0, 1.0, 0.1], [0.0, 0.0, 3.0]])


def _edge_cases():
    rng, rng2026 = np.random.default_rng(10), np.random.default_rng(2026)
    unit = GridSpec(-1.2, 1.2, -1.2, 1.2, nx=21, ny=21)     # centre exactly 0.0
    return {
        "zero_4x4": ([np.zeros((4, 4))], unit),
        "identity_4x4": ([np.eye(4)], unit),
        "scalar_3x3": ([(0.4 - 0.3j) * np.eye(3)], unit),
        "one_by_one": ([np.array([[0.3 - 0.2j]])], unit),
        "jordan_20x20": ([np.diag(np.ones(19), 1)], unit),
        "scaled_1e8": ([1e8 * _ginibre(rng, 12)],
                       GridSpec(-1.6e8, 1.6e8, -1.6e8, 1.6e8, nx=21, ny=21)),
        "three_blocks": ([_ginibre(rng, 5), _ginibre(rng, 9), np.array([[0.5]])], unit),
        # 0.08 grid spacing: sigma_min ~ 0.08**100 at |z| = 0.08, below rounding
        "half_shift_100": ([shift_example(200)[1].T1],
                           GridSpec(-0.4, 0.4, -0.4, 0.4, nx=11, ny=11)),
        # far from a normal block's spectrum the smallest singular values
        # cluster, and Lanczos without reorthogonalization is off after n
        # steps: a normal block reads sigma_min off its Schur diagonal
        "normal_far_field": ([_normal(rng, np.linspace(-2.0, 2.0, 24))],
                             GridSpec(-1.0, 1.0, 3.0, 5.0, nx=7, ny=7)),
        "symmetric_32": ([_symmetric(rng, 32)],
                         GridSpec(-4.0, 4.0, -2.0, 2.0, nx=31, ny=31)),
        # not normal, so Lanczos runs: points still rising after n steps take
        # the sigma-only SVD fallback (test_pseudospectrum_svd_fallback)
        "near_normal_32": ([_symmetric(rng, 32) + 1e-6 * np.triu(rng.standard_normal((32, 32)), 1)],
                           GridSpec(-4.0, 4.0, -2.0, 2.0, nx=31, ny=31)),
        # a real block gets no mirror on a range not symmetric about the real axis
        "real_asymmetric": ([rng.standard_normal((10, 10)) / np.sqrt(10)],
                            GridSpec(-1.2, 1.2, -0.7, 1.3, nx=21, ny=21)),
        # the real block runs half the rows, the complex one all of them
        "real_and_complex": ([rng.standard_normal((10, 10)) / np.sqrt(10), _ginibre(rng, 7)],
                             unit),
        # every point of its 31 x 31 grid takes the fallback
        "near_normal_far_field": ([_normal(rng, np.linspace(-2.0, 2.0, 24))
                                   + 1e-6 * np.triu(rng.standard_normal((24, 24)), 1)],
                                  GridSpec(-1.0, 1.0, 3.0, 5.0, nx=7, ny=7)),
        # midway between two close eigenvalues the two smallest singular
        # values nearly coincide, and Lanczos stopped there while still
        # converging, up to 3.2e5 times the floor off
        "symmetric_64": ([[_symmetric(rng2026, n) for n in (16, 32, 64)][-1]],
                         GridSpec(-4.0, 4.0, -2.0, 2.0, nx=31, ny=31)),
        # entries whose squares overflow: R's norms are taken scaled
        **{f"scaled_{s:.0e}": ([s * _SCALED_B], GridSpec(-s, 4 * s, -s, s, nx=5, ny=5))
           for s in (1e-280, 1e154, 1e200, 1e300)},
    }


def _assert_matches_dense_svd(ps, blocks, grid):
    """Against one gesvd per point and block, within 10 n u (||T_j|| + |z|)."""
    sig = np.asarray(ps.sigma_min)
    z = grid.res()[None, :] + 1j * grid.ims()[:, None]
    ref = np.full(z.shape, np.inf)
    tol = np.zeros(z.shape)
    for b in blocks:
        n = b.shape[0]
        for iy, ix in np.ndindex(z.shape):
            s = scipy.linalg.svd(b - z[iy, ix] * np.eye(n), compute_uv=False,
                                 lapack_driver="gesvd")[-1]
            ref[iy, ix] = min(ref[iy, ix], s)
        tol = np.maximum(tol, 10 * n * U * (np.linalg.norm(b, 2) + np.abs(z)))
    assert np.all(np.isfinite(sig)) and np.all(sig >= 0.0)
    assert np.all(np.abs(sig - ref) <= tol), np.max(np.abs(sig - ref) / tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_pseudospectrum_matches_dense_svd(case):
    blocks, grid = _edge_cases()[case]
    ps = pseudospectrum_grid(block_operator(list(enumerate(blocks))), 1e-3, grid)
    _assert_matches_dense_svd(ps, blocks, grid)


def _count_unsettled(monkeypatch) -> list:
    """Patch ``_lanczos`` to append each call's count of points it leaves
    unsettled; list.append is atomic across the worker threads."""
    unsettled, lanczos = [], spectral._lanczos

    def counted(blk, z):
        sigma, mask = lanczos(blk, z)
        unsettled.append(int(np.count_nonzero(mask)))
        return sigma, mask

    monkeypatch.setattr(spectral, "_lanczos", counted)
    return unsettled


def test_pseudospectrum_svd_fallback(monkeypatch):
    # a normal block never reaches Lanczos; a block just off normal does,
    # and some of its points run all n steps still rising
    unsettled = _count_unsettled(monkeypatch)
    cases = _edge_cases()
    for case in ("symmetric_32", "near_normal_32"):
        blocks, grid = cases[case]
        pseudospectrum_grid(block_operator(list(enumerate(blocks))), 1e-3, grid)
        if case == "symmetric_32":
            assert unsettled == []
    assert sum(unsettled) > 0, unsettled


def test_pseudospectrum_mirrors_a_real_block(monkeypatch):
    """On a 31 x 31 grid symmetric about the real axis a real block runs
    the 16 rows with Im z >= 0 and a complex block all 31, for any thread
    count."""
    points = Counter()
    block_sigma_min = spectral._block_sigma_min

    def kernel(blk, z):
        points[blk.diag.shape[0]] += len(z)
        return block_sigma_min(blk, z)

    monkeypatch.setattr(spectral, "_block_sigma_min", kernel)
    rng = np.random.default_rng(12)
    real, cplx = rng.standard_normal((6, 6)), _ginibre(rng, 5)
    T = block_operator([(0, real), (1, cplx)])
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, nx=31, ny=31)
    ims = grid.ims()
    assert np.array_equal(ims, -ims[::-1]) and ims[15] == 0.0
    ps = [pseudospectrum_grid(T, 0.1, grid, threads=threads) for threads in (1, 2)]
    assert points == {6: 2 * 496, 5: 2 * 961}
    assert np.array_equal(ps[0].sigma_min, ps[1].sigma_min)
    alone = pseudospectrum_grid(block_operator([(0, real)]), 0.1, grid).sigma_min
    assert np.array_equal(alone, alone[::-1])
    # off a symmetric range every point runs
    points.clear()
    pseudospectrum_grid(T, 0.1, dataclasses.replace(grid, im_min=-1.4))
    assert points == {6: 961, 5: 961}


def test_pseudospectrum_exactly_singular_point_is_zero():
    # the nilpotent shift's Schur form has a zero diagonal: at z = 0.0 a
    # pivot vanishes and R - z is exactly singular
    grid = GridSpec(-1.2, 1.2, -1.2, 1.2, nx=21, ny=21)
    ps = pseudospectrum_grid(block_operator([(0, np.diag(np.ones(19), 1))]), 1e-3, grid)
    assert grid.res()[10] == 0.0 and grid.ims()[10] == 0.0
    assert ps.sigma_min[10][10] == 0.0


def test_pseudospectrum_one_schur_per_block(monkeypatch):
    calls = Counter()
    # list.append is atomic across the worker threads, unlike calls[key] += k
    svd_rows, unsettled = [], _count_unsettled(monkeypatch)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def svd_counted(fn):
        def wrapper(a, *args, **kwargs):
            svd_rows.append(len(a) if np.ndim(a) == 3 else 1)
            return fn(a, *args, **kwargs)
        return wrapper

    def kernel(blk, z):
        calls[blk.diag.shape[0]] += 1
        return block_sigma_min(blk, z)

    block_sigma_min = spectral._block_sigma_min
    monkeypatch.setattr(spectral, "_block_sigma_min", kernel)
    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
    monkeypatch.setattr(scipy.linalg, "svd", svd_counted(scipy.linalg.svd))
    for owner in (np.linalg, np_linalg_impl):
        monkeypatch.setattr(owner, "svd", svd_counted(owner.svd))
    # a small entry budget splits each block's 961 points over several calls
    monkeypatch.setattr(spectral, "_ENTRIES", 2 ** 9)
    rng = np.random.default_rng(4)
    blocks = [_ginibre(rng, 6), _ginibre(rng, 3), _ginibre(rng, 7)]
    T = block_operator([(0, blocks[0]), (2, blocks[1]), (5, blocks[2])])
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, nx=31, ny=31)
    ps = [pseudospectrum_grid(T, 0.1, grid, threads=threads) for threads in (1, 2)]
    assert calls["schur"] == 2 * 3
    # one sigma-only SVD row for each point that Lanczos leaves unsettled
    assert sum(svd_rows) == sum(unsettled) > 0
    assert min(calls[6], calls[3], calls[7]) >= 2 * 3
    assert np.array_equal(ps[0].sigma_min, ps[1].sigma_min)
    monkeypatch.undo()      # the reference SVDs are not counted
    _assert_matches_dense_svd(ps[0], blocks, grid)


@pytest.mark.parametrize("case", ["ginibre_64", "normal_far_field", "near_normal_far_field"])
def test_pseudospectrum_memory_is_bounded(monkeypatch, case):
    """The traced peak stays within 8 * 16 max(_ENTRIES, n^2) bytes plus the
    Schur factors R and G, although at _ENTRIES = 2^16 n * points is 3.6
    times _ENTRIES for the Ginibre block, and the near-normal block sends
    all 961 points to the sigma-only SVD, whose shifted copies of R would
    take more than 8 * 16 _ENTRIES bytes if stacked at once.  The normal
    block reads its values off the Schur diagonal.  No Lanczos basis is
    stored."""
    monkeypatch.setattr(spectral, "_ENTRIES", 2 ** 16)
    if case == "ginibre_64":
        b = _ginibre(np.random.default_rng(5), 64)
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, nx=61, ny=61)
    else:
        (b,), grid = _edge_cases()[case]
        grid = dataclasses.replace(grid, nx=31, ny=31)
    n = b.shape[0]
    peak = traced_peak(lambda: pseudospectrum_grid(block_operator([(0, b)]), 0.1, grid))
    assert peak <= 8 * 16 * max(spectral._ENTRIES, n * n) + 2 * 16 * n * n, peak


def test_pseudospectrum_input_guards():
    T = block_operator([(0, np.diag([0.0, 1.0]))])
    grid = GridSpec(-1, 1, -1, 1, nx=5, ny=5)
    for eps in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="eps"):
            pseudospectrum_grid(T, eps, grid)
    for threads in (0, -3, 1.5, 2.0, np.float64(2.0), True):
        with pytest.raises(ValueError, match="threads"):
            pseudospectrum_grid(T, 0.1, grid, threads=threads)
    for threads in (np.int64(2), np.int32(1)):
        assert np.array_equal(pseudospectrum_grid(T, 0.1, grid, threads=threads).sigma_min,
                              pseudospectrum_grid(T, 0.1, grid).sigma_min)
    bad = block_operator([(0, np.diag([0.0, 1.0])), (3, np.array([[np.nan, 0.0], [0.0, 1.0]]))])
    with pytest.raises(ConvergenceFailure, match="summand 3"):
        pseudospectrum_grid(bad, 0.1, grid)
    for bounds in ((-1.5e308, 1.5e308, -1, 1), (-1, 1, -1e308, 1e308)):
        with pytest.raises(ValueError, match="grid spans"):     # a span overflows
            GridSpec(*bounds, nx=3, ny=2)
    # a grid or block reaching 2^1023 has no power of two to be scaled by
    with np.errstate(over="raise", invalid="raise"):
        for blocks, far in (([np.diag([0.0, 1.0])], GridSpec(0.0, 1e308, -1, 1, nx=3, ny=3)),
                            ([np.diag([1e308, 0.0])], grid),
                            ([np.array([[1.7e308, 1.7e308], [0.0, 1.0]])], grid)):
            with pytest.raises(ValueError, match="summand 0.*power of two"):
                pseudospectrum_grid(block_operator(list(enumerate(blocks))), 0.1, far)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(re_min=1, re_max=0, im_min=0, im_max=1, nx=4, ny=4)
    with pytest.raises(ValueError):
        GridSpec(re_min=0, re_max=1, im_min=0, im_max=1, nx=1, ny=4)
    for nx, ny in ((2.5, 4), (np.float64(4.0), 4), (4, 3.0), (True, 4),
                   (4, np.int64(1)), ("4", 4)):
        with pytest.raises(ValueError, match="integers >= 2"):
            GridSpec(re_min=0, re_max=1, im_min=0, im_max=1, nx=nx, ny=ny)
    grid = GridSpec(re_min=0, re_max=1, im_min=0, im_max=1, nx=np.int64(3), ny=np.int32(2))
    assert len(grid.res()) == 3 and len(grid.ims()) == 2
    for bounds in ((np.nan, 1, 0, 1), (0, np.inf, 0, 1), (0, 1, -np.inf, 1),
                   (0, 1, 0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(*bounds)


def test_csv_writers(tmp_path, rng):
    T = block_operator([(0, np.diag([0.0, 3.0]))])
    grid = GridSpec(re_min=-1, re_max=1, im_min=-1, im_max=1, nx=5, ny=4)
    ps = pseudospectrum_grid(T, eps=0.1, grid=grid)
    p2 = tmp_path / "ps.csv"
    write_pseudospectrum_csv(ps, p2)
    with p2.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "marked"]
    assert len(rows) == 1 + 5 * 4
    # floats serialized via repr: parse back exactly
    assert float(rows[1][0]) == float(np.asarray(ps.res)[0])
    assert ps.sigma_min.shape == (4, 5) and ps.res.shape == (5,) and ps.ims.shape == (4,)
    assert not any(a.flags.writeable for a in (ps.res, ps.ims, ps.sigma_min))
    assert {r[2] for r in rows[1:]} <= {"0", "1"}
