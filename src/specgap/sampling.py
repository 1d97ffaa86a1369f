"""Seeded random generators for operators, projections and norm specs.

Everything routes through :func:`rng_from_seed` / :func:`spawn_rngs` so that
runs are reproducible from a single integer seed and per-trial streams do not
depend on evaluation order.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraSpec, BlockOperator, Projection, _is_count

__all__ = [
    "rng_from_seed",
    "spawn_rngs",
    "haar_unitary",
    "random_block_operator",
    "random_psd",
    "random_projection",
    "random_subprojection",
]


def _entropy(seed):
    if isinstance(seed, (tuple, list)):
        flat = []
        for s in seed:
            e = _entropy(s)
            flat.extend(e if isinstance(e, list) else [e])
        # SeedSequence zero-pads its entropy, so (s, 0) would otherwise
        # collide with s; a trailing length marker keeps streams distinct.
        flat.append(len(flat))
        return flat
    return int(seed)


def rng_from_seed(seed) -> np.random.Generator:
    """Generator from an int seed or a tuple of ints (hierarchical seeds)."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed)))


def spawn_rngs(seed, n: int):
    """n independent generators derived from one seed (order-stable)."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(_entropy(seed)).spawn(n)]


def _haar_isometry(n, k, rng):
    """Haar n x k isometry: Q of the QR of a complex Ginibre matrix, the phases
    of R's diagonal divided out (Mezzadri, Notices AMS 54, 2007)."""
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_isometry(n, n, rng)


def _ginibre(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z / np.sqrt(2.0 * n)


def random_block_operator(alg: AlgebraSpec, rng) -> BlockOperator:
    """Independent normalized Ginibre blocks on the realized summands."""
    return BlockOperator._from_owned((i, _ginibre(d, rng)) for i, d in enumerate(alg.dims))


def random_psd(n: int, rng) -> np.ndarray:
    g = _ginibre(n, rng)
    return g @ g.conj().T


def random_projection(alg: AlgebraSpec, ranks, rng) -> Projection:
    """Random orthogonal projection with the given rank in each realized summand."""
    if len(ranks) != len(alg.dims):
        raise ValueError(f"{len(ranks)} ranks for {len(alg.dims)} summands")
    factors = []
    for i, (d, r) in enumerate(zip(alg.dims, ranks)):
        if not (_is_count(r, 0) and r <= d):
            raise ValueError(f"rank {r!r} is not an integer in [0, {d}]")
        factors.append((i, haar_unitary(d, rng)[:, :r] if r else np.zeros((d, 0))))
    return Projection(tuple(factors))


def random_subprojection(P: Projection, ranks, rng) -> Projection:
    """Random projection E <= P with prescribed block ranks (capped by P's)."""
    if len(ranks) != len(P.factors):
        raise ValueError(f"{len(ranks)} ranks for {len(P.factors)} summands")
    factors = []
    for (sid, w), r in zip(P.factors, ranks):
        if not _is_count(r, 0):
            raise ValueError(f"rank {r!r} for summand {sid}: a negative rank or not an integer")
        k = w.shape[1]
        r = min(int(r), k)
        factors.append((sid, w[:, :r] if r in (0, k) else w @ _haar_isometry(k, r, rng)))
    return Projection(tuple(factors))
