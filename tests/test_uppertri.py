import numpy as np
import pytest

from specgap.algebra import block_operator
from specgap.errors import ConvergenceFailure, ShapeMismatch
from specgap.spectral import GridSpec, eigenvalues, pseudospectrum_grid
from specgap.uppertri import UTBlock, shift_example, ut_assemble, ut_inclusion_check


def random_ut(rng, n1=3, n2=4):
    z = lambda n, m: rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return UTBlock(T1=z(n1, n1), T12=z(n1, n2), T2=z(n2, n2))


def test_assemble_layout(rng):
    b = random_ut(rng)
    T = ut_assemble(b)
    assert T.ids == (0,)
    M = T.block(0)
    np.testing.assert_array_equal(M[:3, :3], b.T1)
    np.testing.assert_array_equal(M[:3, 3:], b.T12)
    np.testing.assert_array_equal(M[3:, 3:], b.T2)
    np.testing.assert_array_equal(M[3:, :3], 0)


def test_utblock_shape_validation(rng):
    with pytest.raises(ShapeMismatch):
        UTBlock(T1=np.eye(2), T12=np.zeros((3, 4)), T2=np.eye(4))
    with pytest.raises(ShapeMismatch):
        UTBlock(T1=np.zeros((2, 3)), T12=np.zeros((2, 4)), T2=np.eye(4))


def test_spectrum_is_union_of_diagonal_spectra(rng):
    b = random_ut(rng)
    ev = np.sort_complex(eigenvalues(ut_assemble(b)))
    parts = np.sort_complex(np.concatenate([np.linalg.eigvals(b.T1),
                                            np.linalg.eigvals(b.T2)]))
    np.testing.assert_allclose(ev, parts, atol=1e-10)


def test_inclusion_check_on_random_blocks(rng):
    for _ in range(10):
        rep = ut_inclusion_check(random_ut(rng))
        assert rep.passed
        assert rep.matched <= 1e-7 * max(rep.scale, 1.0)


def test_inclusion_check_flags_a_doctored_pair(rng):
    # feeding T1 of one block with T2 of a spectrally unrelated one cannot
    # reproduce the assembled spectrum; the checker must notice
    b = random_ut(rng)
    rep = ut_inclusion_check(b)
    fake = UTBlock(T1=b.T1 + 0.5 * np.eye(3), T12=b.T12, T2=b.T2)
    assert eigenvalues(ut_assemble(fake)).shape == (7,)
    assert rep.matched < ut_inclusion_check(fake).matched + 1.0


@pytest.mark.parametrize("part, sid", [("T1", 0), ("T2", 1)])
def test_inclusion_check_names_the_summand_of_a_nan_part(rng, part, sid):
    b = random_ut(rng)
    parts = {"T1": b.T1, "T12": b.T12, "T2": b.T2}
    bad = np.array(parts[part])
    bad[1, 0] = np.nan
    with pytest.raises(ConvergenceFailure, match=f"eigensolver failed on summand {sid}"):
        ut_inclusion_check(UTBlock(**{**parts, part: bad}))


def test_shift_example_exact_roots_of_unity():
    T, b = shift_example(16)
    ev = eigenvalues(T)
    assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-12
    # both halves are nilpotent truncated shifts
    assert np.max(np.abs(np.linalg.eigvals(b.T1))) < 1e-12
    assert np.max(np.abs(np.linalg.eigvals(b.T2))) < 1e-12
    assert np.count_nonzero(b.T12) == 1 and b.T12[0, -1] == 1.0
    with pytest.raises(ValueError):
        shift_example(7)


def test_truncated_shift_pseudospectrum_grows_with_n():
    # sigma(T1) = {0}, but the eps-pseudospectrum fattens toward the disk
    grid = GridSpec(re_min=-1.2, re_max=1.2, im_min=-1.2, im_max=1.2, nx=41, ny=41)
    fractions = []
    for N in (8, 16, 32):
        _, b = shift_example(N)
        ps = pseudospectrum_grid(block_operator([(0, b.T1)]), eps=1e-3, grid=grid)
        fractions.append(ps.marked_fraction)
    assert fractions[0] < fractions[1] < fractions[2]
