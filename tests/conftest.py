import os

# One BLAS thread, set before NumPy loads (subprocess tests inherit it, and a
# value already in the environment wins): on a two-core machine OpenBLAS's
# default of two threads made the suite take 143 s instead of about 66 s, and
# certificates came out byte-identical under one and two threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import tracemalloc  # noqa: E402

import numpy as np
import pytest

from specgap.algebra import AlgebraSpec
from specgap.norms import BaseNorm, NormSpec
from specgap.sampling import random_block_operator, rng_from_seed


@pytest.fixture
def rng():
    return rng_from_seed(20260814)


@pytest.fixture
def small_alg():
    return AlgebraSpec(dims=(2, 3, 4), tail="none")


@pytest.fixture
def small_op(small_alg, rng):
    return random_block_operator(small_alg, rng)


def union_find_labels(n, pairs):
    """Reference component labels: a Python union-find over the edge pairs,
    labels counting up in order of each component's first vertex."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    first = {}
    return [first.setdefault(find(i), len(first)) for i in range(n)]


def traced_peak(fn):
    """Peak bytes that tracemalloc traces while ``fn()`` runs; NumPy reports
    its array buffers to tracemalloc, so they count."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_spec(weights, kinds=None, agg="sup", q=None, **tail):
    """Shorthand for NormSpec construction in tests."""
    kinds = kinds or [("operator", None, None)] * len(weights)
    base = tuple(BaseNorm(kind=k, p=p, k=kk) for k, p, kk in kinds)
    return NormSpec(base=base, weights=tuple(weights), agg=agg, q=q, **tail)


@pytest.fixture
def haar_pair(rng):
    from specgap.sampling import haar_unitary
    return haar_unitary(5, rng), haar_unitary(5, rng)
