"""Upper-triangular 2x2 operator blocks and their spectra.

For T = [[T1, T12], [0, T2]] the spectrum is pinched between

    sigma_ap(T1) ∪ (sigma(T2) \\ sigma(T1))  ⊆  sigma(T)  ⊆  sigma(T1) ∪ sigma(T2),

with equality on the right whenever T1 is normal.  In finite dimensions the
characteristic polynomial factors, so sigma(T) equals the multiset union of
the diagonal spectra exactly, and the checker verifies this numerically both
ways.  The classic tension lives in infinite dimensions (a bilateral shift
against its one-sided compressions); its finite truncation is
:func:`shift_example`, where the corner T12 — in general the partial
isometry of a polar decomposition relating the halves — is a rank-one
matrix unit, the diagonal compressions are nilpotent truncated shifts with
spectrum {0}, and the assembled circulant has its spectrum on the unit
circle.  The truncation shows the infinite-dimensional obstruction through
pseudospectra: the eps-pseudospectrum of a truncated shift fills the disk
of radius about eps^(2/N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BlockOperator, _is_count
from .errors import ShapeMismatch

__all__ = [
    "UTBlock",
    "ut_assemble",
    "UTInclusionReport",
    "ut_inclusion_check",
    "shift_example",
]


@dataclass(frozen=True)
class UTBlock:
    """The three nonzero blocks of an upper-triangular 2x2 operator."""

    T1: np.ndarray
    T12: np.ndarray
    T2: np.ndarray

    def __post_init__(self):
        T1 = np.array(self.T1, dtype=complex, copy=True)
        T12 = np.array(self.T12, dtype=complex, copy=True)
        T2 = np.array(self.T2, dtype=complex, copy=True)
        n1, n2 = T1.shape[0], T2.shape[0]
        if T1.shape != (n1, n1) or T2.shape != (n2, n2) or T12.shape != (n1, n2):
            raise ShapeMismatch(
                f"incompatible blocks: {T1.shape}, {T12.shape}, {T2.shape}")
        for a in (T1, T12, T2):
            a.setflags(write=False)
        object.__setattr__(self, "T1", T1)
        object.__setattr__(self, "T12", T12)
        object.__setattr__(self, "T2", T2)

    @property
    def n1(self):
        return self.T1.shape[0]

    @property
    def n2(self):
        return self.T2.shape[0]


def ut_assemble(b: UTBlock) -> BlockOperator:
    """The assembled operator as a block operator with the one summand 0."""
    n1, n2 = b.n1, b.n2
    full = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    full[:n1, :n1] = b.T1
    full[:n1, n1:] = b.T12
    full[n1:, n1:] = b.T2
    return BlockOperator(((0, full),))


@dataclass(frozen=True)
class UTInclusionReport:
    """Numerical check of sigma(T) = sigma(T1) ∪ sigma(T2).

    ``matched`` is the largest distance in a mass-matching of the two
    multisets (an upper bound on the bottleneck matching distance), which
    bounds both inclusions.  Absolute; ``scale`` is ||T||.
    """

    matched: float
    scale: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.matched <= self.tol * max(self.scale, 1.0)


def ut_inclusion_check(b: UTBlock, tol: float = 1e-7) -> UTInclusionReport:
    full = ut_assemble(b)
    sig_T = np.linalg.eigvals(np.asarray(full.block(full.ids[0])))
    sig_union = np.concatenate([np.linalg.eigvals(b.T1), np.linalg.eigvals(b.T2)])
    dist = np.abs(sig_T[:, None] - sig_union[None, :])
    import scipy.optimize   # here, not at module top: nothing else needs it
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    matched = float(dist[rows, cols].max())
    return UTInclusionReport(matched=matched, scale=float(full.norm()), tol=tol)


def shift_example(N: int):
    """Cyclic shift on C^N compressed to its two halves.

    Returns ``(T, b)``: T is the circulant sending e_i to e_{i+1 mod N}
    (spectrum: the N-th roots of unity, on the unit circle), and ``b`` is
    its upper-triangular form with respect to the first/second half of the
    basis — both compressions are nilpotent truncated shifts with spectrum
    {0}, and the corner is the rank-one matrix unit carrying e_{N-1} back
    to e_0.  The spectra of the parts fill in the unit disk only through
    their pseudospectra as N grows.
    """
    if not _is_count(N, 2) or N % 2:
        raise ValueError(f"N must be an even integer >= 2, got {N!r}")
    h = N // 2
    C = np.zeros((N, N), dtype=complex)
    C[(np.arange(N) + 1) % N, np.arange(N)] = 1.0
    T = BlockOperator(((0, C),))
    T1 = C[:h, :h].copy()
    T12 = C[:h, h:].copy()          # the single 1 at (0, h-1): e_{N-1} -> e_0
    T2 = C[h:, h:].copy()
    return T, UTBlock(T1=T1, T12=T12, T2=T2)
