"""Per-layer self times and call counts, recorded from outside the package.

`install` rebinds each layer's public functions, the names other modules
imported from it, and the NumPy/SciPy LAPACK entry points, to wrappers that
time the call.  A wrapper records only while an operation is open (see
`Tracer.run_op`), so input generation and output checks are not counted.

A frame's self time is its duration minus the durations of the wrapped
calls it made.  The operation itself is the root frame, whose self time is
the benchmark's own glue (``bench.glue``), so the self times of all keys add
up to the operation's traced time exactly.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import scipy.linalg

from specgap import algebra, cfun, norms, perturb, riesz, spectral

# key -> (owner, attribute name) pairs to rebind.  Every module that imported
# a name is listed with it, because rebinding the defining module alone
# leaves the importer's binding untouched.
TARGETS = {
    "perturb.disconnect": [(perturb, "disconnect"), (perturb, "disconnect_rr0")],
    "perturb.build": [(perturb, "_build_certificate")],
    "spectral.eigenvalues": [(spectral, "eigenvalues"), (perturb, "eigenvalues"),
                             (riesz, "eigenvalues")],
    "spectral.components": [(spectral, "cluster_points"), (perturb, "cluster_points"),
                            (spectral, "spectrum_components"),
                            (perturb, "spectrum_components")],
    "spectral.pseudospectrum": [(spectral, "pseudospectrum_grid")],
    "spectral.other": [(spectral, "rightmost_boundary_point"),
                       (perturb, "rightmost_boundary_point"),
                       (spectral, "min_singular_value")],
    "norms.phi_eval": [(norms, "phi_eval"), (perturb, "phi_eval")],
    "algebra": [(algebra.BlockOperator, name) for name in
                ("__add__", "__sub__", "__matmul__", "__mul__", "__rmul__",
                 "__neg__", "adjoint", "norm")]
               + [(mod, name) for name in ("identity_like", "validate_projection",
                                           "minimal_subprojection")
                  for mod in (algebra, perturb, spectral, norms)
                  if hasattr(mod, name)],
    "riesz.idempotent": [(riesz, "riesz_idempotent")],
    "riesz.verify": [(riesz, "verify_idempotent")],
    "cfun.disconnect": [(cfun, "cfun_disconnect")],
    "cfun.offrange_lambda": [(cfun, "offrange_lambda")],
    "cfun.clopen_pieces": [(cfun, "clopen_small_pieces")],
    "cfun.range_components": [(cfun, "range_components")],
    # np.linalg.norm(., 2) reaches svd through numpy's private module
    "linalg.svd": [(np.linalg, "svd"), (np_linalg_impl, "svd")],
    "linalg.solve": [(np.linalg, "solve"), (np_linalg_impl, "solve")],
    "linalg.eig": [(scipy.linalg, "eigvals"), (scipy.linalg, "eig"),
                   (np.linalg, "eigvals"), (np.linalg, "eig")],
    "linalg.eigh": [(np.linalg, "eigh"), (np.linalg, "eigvalsh")],
    "linalg.schur": [(scipy.linalg, "schur")],
    "linalg.qr": [(np.linalg, "qr")],
}

ROOT = "bench.glue"


class Tracer:
    def __init__(self):
        self.self_ns = Counter()
        self.incl_ns = Counter()
        self.calls = Counter()
        self._stack = []          # per open frame: ns spent in wrapped children

    def wrap(self, key, fn):
        stack, self_ns, incl_ns, calls = self._stack, self.self_ns, self.incl_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                self_ns[key] += dt - children
                incl_ns[key] += dt
                calls[key] += 1
        return traced

    @property
    def ops(self) -> int:
        """Operations run so far."""
        return self.calls[ROOT]

    def run_op(self, fn):
        """Run one operation as a root frame and return its output."""
        self._stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            dt = time.perf_counter_ns() - t0
            self.self_ns[ROOT] += dt - self._stack.pop()
            self.incl_ns[ROOT] += dt
            self.calls[ROOT] += 1


def install(tracer: Tracer):
    """Rebind every target to a wrapper; wrappers of one function are shared
    so that a name imported under two modules is wrapped once."""
    wrapped = {}
    for key, targets in TARGETS.items():
        for owner, name in targets:
            fn = getattr(owner, name)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, tracer.wrap(key, fn))
            setattr(owner, name, wrapped[id(fn)][1])
