"""The shared union-find behind spectrum clustering and sampled ranges."""

import importlib.util
import pathlib

import numpy as np
import pytest

from specgap.cfun import CompactRealSet, PLFunction, range_components
from specgap.perturb import counterexample_operator
from specgap.spectral import (cluster_points, eigenvalues, link_components,
                              spectrum_components)


@pytest.mark.parametrize("n, pairs, expected", [
    (4, [(2, 3)], [0, 1, 2, 2]),
    (5, [(4, 1), (3, 0)], [0, 1, 2, 0, 1]),
    (1, [], [0]),
])
def test_link_components_numbers_by_first_vertex(n, pairs, expected):
    assert link_components(n, pairs) == expected
    assert link_components(n, pairs[::-1]) == expected


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
        firsts = [rep.labels.index(c) for c in range(rep.n_components)]
        assert firsts == sorted(firsts)


def test_range_components_point_on_the_interval_image_is_one_component():
    X = CompactRealSet(intervals=((0, 1),), points=(2,))
    g = PLFunction(breakpoints=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.5))
    rep = range_components(g, X, resolution=1e-3)
    assert rep.n_components == 1 and rep.connected


def test_bench_trace_targets_exist():
    # `bench/run.py --trace 1` rebinds these names; a rename must fail here
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for key, targets in tracing.TARGETS.items():
        for owner, name in targets:
            assert hasattr(owner, name), f"{key}: {owner!r} has no {name!r}"
