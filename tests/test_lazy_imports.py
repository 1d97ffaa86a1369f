"""scipy.optimize loads only in the function that calls it, and
scipy.sparse and scipy.spatial only with it.

Spectrum clustering, certificates, Riesz idempotents (screen, ring proof,
quadrature and verification) and ranges, connected or split, need none of
them: `range_components` decides a range on its image polylines, and both
label their components with NumPy's array passes in `link_components`, not
with `scipy.sparse.csgraph`.  Each check runs in a fresh interpreter, since
the test process may have loaded them already."""

import json
import os
import pathlib
import subprocess
import sys

import specgap
from specgap.algebra import block_operator
from specgap.cfun import CompactRealSet, PLFunction, nondensity_witness, range_components
from specgap.norms import operator_norm_spec
from specgap.perturb import disconnect, disconnect_rr0
from specgap.spectral import cluster_points, spectrum_components
from specgap.uppertri import shift_example, ut_inclusion_check

SRC = str(pathlib.Path(specgap.__file__).resolve().parent.parent)

SCRIPT = r"""
import json, sys

def loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.sparse", "scipy.spatial") if m in sys.modules)

out = {}
import specgap, specgap.cli
out["import"] = loaded()
from specgap.algebra import block_operator
from specgap.spectral import GridSpec, pseudospectrum_grid
T = block_operator([(0, [[0.0, 1.0], [0.0, 0.0]]), (1, [[2.0]])])
pseudospectrum_grid(T, 0.1, GridSpec(-1.0, 3.0, -1.0, 1.0, 9, 5))
out["pseudospectrum"] = loaded()
from specgap.spectral import cluster_points, spectrum_components
out["components"] = repr(spectrum_components([0.0, 0.05, 3.0], 0.1))
out["labels"] = cluster_points([0.0, 0.05, 3.0], 0.1).tolist()
out["after_components"] = loaded()
from specgap.perturb import disconnect, disconnect_rr0
from specgap.norms import operator_norm_spec
T = block_operator([(0, [[0.0, 1.0], [0.0, 0.5]]), (1, [[2.0]])])
out["certificates"] = [repr(disconnect(T, 0.1, operator_norm_spec(2)).separation),
                       repr(disconnect_rr0(T, 0.1).separation)]
out["after_certificates"] = loaded()
from specgap.riesz import circle, riesz_idempotent, riesz_quadrature, verify_idempotent
contour = circle(0.0, 0.25)
out["riesz_ranks"] = [verify_idempotent(riesz_idempotent(T, contour), T).rank,
                      verify_idempotent(riesz_quadrature(T, contour), T).rank]
out["after_riesz"] = loaded()
from specgap.cfun import CompactRealSet, PLFunction, nondensity_witness, range_components
W, fw = nondensity_witness(3)
out["connected_range"] = repr(range_components(fw, W))
out["after_connected_range"] = loaded()
X = CompactRealSet(intervals=((0, 1), (2, 3)))
g = PLFunction(breakpoints=(0.0, 3.0), values=(0.0, 3.0))
out["range"] = repr(range_components(g, X))
out["after_range"] = loaded()
from specgap.uppertri import shift_example, ut_inclusion_check
out["ut"] = repr(ut_inclusion_check(shift_example(8)[1]))
out["after_all"] = loaded()
print(json.dumps(out))
"""


def run_fresh():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout)


def test_scipy_optimize_and_spatial_load_only_where_called():
    out = run_fresh()
    assert out["import"] == []
    assert out["pseudospectrum"] == []
    assert out["after_components"] == []
    assert out["after_certificates"] == []
    assert out["after_riesz"] == []
    assert out["after_connected_range"] == []
    assert out["after_range"] == []
    # scipy.optimize's own package import loads scipy.sparse and
    # scipy.spatial (SciPy 1.17)
    assert out["after_all"] == ["scipy.optimize", "scipy.sparse", "scipy.spatial"]

    # and the lazily importing functions return what they return here
    rep = spectrum_components([0.0, 0.05, 3.0], 0.1)
    assert rep.labels.tolist() == [0, 0, 1]
    assert out["components"] == repr(rep)
    assert out["labels"] == cluster_points([0.0, 0.05, 3.0], 0.1).tolist() == [0, 0, 1]
    T = block_operator([(0, [[0.0, 1.0], [0.0, 0.5]]), (1, [[2.0]])])
    assert out["certificates"] == [
        repr(disconnect(T, 0.1, operator_norm_spec(2)).separation),
        repr(disconnect_rr0(T, 0.1).separation)]
    assert out["riesz_ranks"] == [1, 1]     # the circle holds T's eigenvalue 0
    W, fw = nondensity_witness(3)
    connected = range_components(fw, W)
    assert connected.connected and out["connected_range"] == repr(connected)
    X = CompactRealSet(intervals=((0, 1), (2, 3)))
    g = PLFunction(breakpoints=(0.0, 3.0), values=(0.0, 3.0))
    ranges = range_components(g, X)
    assert ranges.n_components == 2
    assert out["range"] == repr(ranges)
    assert out["ut"] == repr(ut_inclusion_check(shift_example(8)[1]))
