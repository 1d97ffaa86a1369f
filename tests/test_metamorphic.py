"""Relations that any correct pipeline keeps under the symmetries of the
problem, checked with no oracle (metamorphic testing: Chen et al., ACM
Comput. Surv. 51, 2018).

``pseudospectrum_grid``: sigma_min(T - z) is unchanged by a blockwise
unitary similarity T -> U T U*, and sigma_min(conj(T) - z) =
sigma_min(T - conj(z)).  Both hold to within the kernel's floor
10 n ε (||T_j|| + |z|) on operators of 1-3 Ginibre blocks of dimension
2-16; the blocks are complex, so the kernel takes no mirror of its own."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap.algebra import AlgebraSpec, block_operator
from specgap.sampling import haar_unitary, random_block_operator, rng_from_seed
from specgap.spectral import GridSpec, pseudospectrum_grid

EPS = np.finfo(float).eps
GRID = GridSpec(-1.5, 1.5, -1.5, 1.5, nx=11, ny=11)     # symmetric about the real axis

operators = st.tuples(st.lists(st.integers(min_value=2, max_value=16), min_size=1, max_size=3),
                      st.integers(min_value=0, max_value=2**32 - 1))


def _ginibre_blocks(dims, seed):
    rng = rng_from_seed(seed)
    T = random_block_operator(AlgebraSpec(dims=tuple(dims)), rng)
    return rng, [b for _, b in T.summands]


def _floor(blocks):
    z = GRID.res()[None, :] + 1j * GRID.ims()[:, None]
    return np.max([10 * b.shape[0] * EPS * (np.linalg.norm(b, 2) + np.abs(z))
                   for b in blocks], axis=0)


def _sigma(blocks):
    return pseudospectrum_grid(block_operator(list(enumerate(blocks))), 0.1, GRID).sigma_min


@settings(max_examples=50, deadline=None, derandomize=True)
@given(operators)
def test_pseudospectrum_of_the_conjugate_is_mirrored(op):
    _, blocks = _ginibre_blocks(*op)
    assert np.array_equal(GRID.ims()[::-1], -GRID.ims())
    gap = np.abs(_sigma([b.conj() for b in blocks])[::-1] - _sigma(blocks))
    assert np.all(gap <= _floor(blocks)), np.max(gap / _floor(blocks))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(operators)
def test_pseudospectrum_is_unitarily_invariant(op):
    rng, blocks = _ginibre_blocks(*op)
    moved = []
    for b in blocks:
        U = haar_unitary(b.shape[0], rng)
        moved.append(U @ b @ U.conj().T)
    gap = np.abs(_sigma(moved) - _sigma(blocks))
    assert np.all(gap <= _floor(blocks)), np.max(gap / _floor(blocks))
