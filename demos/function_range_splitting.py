"""The commutative picture: splitting the range of a function on a Cantor set.

On a totally disconnected compact set, any continuous function is a uniform
limit of functions with disconnected range: flatten a small clopen piece to
a value just off the range.  On a finite union of intervals the opposite
holds — the interval-union witness resists every small perturbation.
"""

import numpy as np

from specgap import (CompactRealSet, PLFunction, cfun_disconnect,
                     nondensity_witness, range_components, rng_from_seed)

X = CompactRealSet.cantor(depth=8, ratio="1/3")
print(f"X: stage-8 Cantor set, {len(X.intervals)} intervals, "
      f"diam {float(X.diam):g}")

f = PLFunction(breakpoints=(-0.25, 0.4, 1.25), values=(0.0, 1.0 + 0.5j, 2.0))
eps = 0.05
res = cfun_disconnect(X, f, eps)
print(f"\ntarget accuracy eps = {eps}")
print(f"  flattened piece: cuts ({float(res.piece.cut_lo):.4f}, "
      f"{float(res.piece.cut_hi):.4f}), diameter {float(res.piece.diam):.2e}")
print(f"  new value lambda = {res.lam:.4f} "
      f"(clearance {res.lam_clearance:.2e} off the range)")
print(f"  exact sup |g - f| on X = {res.sup_dist:.4f}  (< eps)")
print(f"  exact gap between lambda and the rest of g(X) = {res.range_gap:.4f}")

rep = range_components(res.g, X, resolution=res.range_gap / 12.0)
print(f"  image polylines: {rep.n_components} components "
      f"(gap {rep.gap:.4f} at threshold {rep.threshold:.2e})")
assert res.sup_dist < eps and res.range_gap > 0

print("\n--- interval-union witness ---")
W, fw = nondensity_witness(3)
print(f"W = {[tuple(map(float, iv)) for iv in W.intervals]}")
rng = rng_from_seed(5)
vals = np.asarray(fw.values)
connected = 0
for _ in range(100):
    bump = rng.standard_normal(len(vals)) + 1j * rng.standard_normal(len(vals))
    bump *= 0.095 / np.abs(bump).max()
    g = PLFunction(breakpoints=fw.breakpoints, values=vals + bump)
    connected += range_components(g, W, resolution=1e-3).connected
print(f"100 perturbations with sup norm < 0.1: {connected}/100 ranges "
      f"stayed connected")
assert connected == 100
