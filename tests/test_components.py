"""The shared component labelling behind spectrum clustering and function
ranges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap.algebra import AlgebraSpec
from specgap.cfun import CompactRealSet, PLFunction, range_components
from specgap.errors import EmptySpectralWindow
from specgap.perturb import counterexample_operator
from specgap.sampling import random_block_operator, rng_from_seed
from specgap.spectral import (cluster_points, eigenvalues, link_components,
                              spectrum_components)

from conftest import union_find_labels


def _edge_arrays(pairs):
    return np.array(pairs, dtype=int).reshape(-1, 2).T


@pytest.mark.parametrize("n, pairs, expected", [
    (4, [(2, 3)], [0, 1, 2, 2]),
    (5, [(4, 1), (3, 0)], [0, 1, 2, 0, 1]),
    (1, [], [0]),
])
def test_link_components_numbers_by_first_vertex(n, pairs, expected):
    i, j = _edge_arrays(pairs)
    assert link_components(n, i, j).tolist() == expected
    assert link_components(n, j[::-1], i[::-1]).tolist() == expected


@st.composite
def _graphs(draw):
    """n <= 60 vertices and edges with repeats, reversed pairs and self-loops."""
    n = draw(st.integers(min_value=1, max_value=60))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    pairs += extra + [(j, i) for i, j in extra] + [(i, i) for i, _ in extra]
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_link_components_matches_union_find(graph):
    n, pairs = graph
    assert link_components(n, *_edge_arrays(pairs)).tolist() == union_find_labels(n, pairs)


def test_link_components_small_and_edgeless_graphs():
    none = np.zeros(0, dtype=int)
    assert link_components(0, none, none).tolist() == []
    assert link_components(1, none, none).tolist() == [0]
    assert link_components(1, [0, 0], [0, 0]).tolist() == [0]
    assert link_components(6, none, none).tolist() == list(range(6))


def test_link_components_star_centred_on_the_last_vertex():
    n = 1000
    leaves = np.arange(n - 1)
    assert link_components(n, leaves, np.full(n - 1, n - 1)).tolist() == [0] * n
    # the leaves 0 and 1 left out: each is its own component, numbered first
    assert link_components(n, leaves[2:], np.full(n - 3, n - 1)).tolist() == [0, 1] + [2] * (n - 2)


@pytest.mark.parametrize("order", ["sorted", "alternating", "random"])
def test_link_components_long_paths(order):
    n = 2 ** 16
    path = {"sorted": np.arange(n),
            # 0, n-1, 1, n-2, ...: each edge joins the two ends' halves
            "alternating": np.stack([np.arange(n // 2), n - 1 - np.arange(n // 2)], axis=1).ravel(),
            "random": np.random.default_rng(20260814).permutation(n)}[order]
    assert not link_components(n, path[:-1], path[1:]).any()
    # cut the path in the middle: the half holding vertex 0 is component 0
    cut = n // 2
    labels = link_components(n, np.delete(path[:-1], cut), np.delete(path[1:], cut))
    half = np.zeros(n, dtype=int)
    half[path[cut + 1:]] = 1
    assert (labels == (half if half[0] == 0 else 1 - half)).all()


def test_cluster_points_numbers_clusters_by_first_point():
    assert cluster_points([0.0, 5.0, 0.05], 0.1).tolist() == [0, 1, 0]


def test_equal_points_link_at_threshold_zero():
    assert cluster_points([1 + 1j, 0.0, 1 + 1j], 0.0).tolist() == [0, 1, 0]
    T, _ = counterexample_operator(4)        # each lam_k repeated twice
    ev = eigenvalues(T)
    labels = cluster_points(ev, 0.0)
    assert labels.max() + 1 == 4
    for c in range(4):
        assert len(set(ev[labels == c].tolist())) == 1


def test_cluster_points_threshold_is_exact_at_the_boundary(rng):
    # a threshold equal to |z - w| links the pair, as the inclusive test says
    for _ in range(200):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert cluster_points(z, float(np.abs(z[0] - z[1]))).max() == 0


def test_spectrum_report_counts_agree_with_labels(rng):
    pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for threshold in (0.0, 0.2, 0.4, 5.0):
        rep = spectrum_components(pts, threshold)
        assert rep.n_components == len(set(rep.labels))
        assert rep.disconnected == (rep.n_components >= 2)
        firsts = [rep.labels.tolist().index(c) for c in range(rep.n_components)]
        assert firsts == sorted(firsts)


def test_spectrum_report_holds_read_only_copies():
    pts = np.array([0.0, 0.05, 3.0], dtype=np.complex128)
    rep = spectrum_components(pts, 0.1)
    assert pts.flags.writeable and not np.shares_memory(pts, rep.eigenvalues)
    assert rep.eigenvalues.dtype == np.complex128 and rep.labels.dtype.kind == "i"
    assert not (rep.eigenvalues.flags.writeable or rep.labels.flags.writeable)
    pts[0] = 9.0
    assert rep.eigenvalues.tolist() == [0.0, 0.05, 3.0]
    assert rep.labels.tolist() == [0, 0, 1] and rep.n_components == 2


def test_spectrum_components_of_no_points_raises():
    with pytest.raises(EmptySpectralWindow):
        spectrum_components([], 0.1)


def test_range_components_point_on_the_interval_image_is_one_component():
    X = CompactRealSet(intervals=((0, 1),), points=(2,))
    g = PLFunction(breakpoints=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.5))
    rep = range_components(g, X, resolution=1e-3)
    assert rep.n_components == 1 and rep.connected


def _same_value_error(points, threshold):
    """The one ``ValueError`` both clusterings raise, by its message."""
    messages = []
    for cluster in (cluster_points, spectrum_components):
        with pytest.raises(ValueError) as err:
            cluster(points, threshold)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    return messages[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_cluster_points_rejects_non_finite_points(bad):
    assert "points must be finite" in _same_value_error([0.0, bad, 1.0], 0.5)


@pytest.mark.parametrize("threshold", [np.nan, -1e-300, -1.0])
def test_cluster_points_rejects_nan_or_negative_threshold(threshold):
    assert "threshold must be" in _same_value_error([0.0, 1.0], threshold)


def _brute_force_linkage(points, threshold):
    """Brute-force reference: grow each cluster from its first point by every
    pair with ``abs(z - w) <= threshold``, then take the smallest distance
    between points of different clusters.  The distances are NumPy's array
    ``abs`` of each pair's difference, as in the package: Python's complex
    ``abs`` can round the other way."""
    pts = np.asarray(points, dtype=complex)
    n = len(pts)
    i, j = np.triu_indices(n, 1)
    pair_dist = dict(zip(zip(i.tolist(), j.tolist()), np.abs(pts[i] - pts[j]).tolist()))

    def dist(a, b):
        return pair_dist[min(a, b), max(a, b)]

    labels = [-1] * n
    for first in range(n):
        if labels[first] >= 0:
            continue
        label = max(labels) + 1
        labels[first] = label
        stack = [first]
        while stack:
            a = stack.pop()
            for b in range(n):
                if labels[b] < 0 and dist(a, b) <= threshold:
                    labels[b] = label
                    stack.append(b)
    gap = min((d for (a, b), d in pair_dist.items() if labels[a] != labels[b]),
              default=np.inf)
    return tuple(labels), gap


def _reference_cases():
    rng = rng_from_seed(2718)
    for n in (1, 2, 3, 17, 64, 256):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dist = np.abs(z[:, None] - z[None, :])
        off = dist[np.triu_indices(n, 1)]
        yield z, 0.0                                   # all singletons
        if n > 1:
            yield z, float(off.min()) / 2.0             # all singletons
            for q in (0.01, 0.1, 0.5):
                yield z, float(np.quantile(off, q))     # one pair's distance
            yield z, float(off.max())                   # one cluster
    T = random_block_operator(AlgebraSpec(dims=(64, 64, 64, 64), tail="none"), rng)
    ev = np.concatenate([np.linalg.eigvals(b) for _, b in T.summands])
    yield ev, 0.1
    yield ev, float(np.sort(np.abs(ev[1:] - ev[0]))[3])  # one pair's distance
    # repeated points, linked at threshold 0 and only there
    reps = rng.choice(rng.standard_normal(12) + 1j * rng.standard_normal(12), 200)
    yield reps, 0.0
    yield np.concatenate([reps, [0.0, 0.0]]), 0.0
    # a lattice, whose distances tie exactly at the threshold
    grid = (np.arange(16)[:, None] + 1j * np.arange(16)[None, :]).ravel()
    yield grid, 1.0
    yield grid, 0.999
    yield grid[rng.permutation(grid.size)[:100]], 1.0


def test_spectrum_components_matches_brute_force_single_linkage():
    for pts, threshold in _reference_cases():
        rep = spectrum_components(pts, threshold)
        labels, gap = _brute_force_linkage(pts, threshold)
        assert tuple(rep.labels.tolist()) == labels
        assert rep.gap == gap
        assert rep.labels.tolist() == cluster_points(pts, threshold).tolist()
