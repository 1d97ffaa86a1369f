"""Walk through one full spectral disconnection, numbers on screen.

Builds a two-summand block operator, a weighted norm with mixed base norms,
and asks for a perturbation with phi-norm under 1e-2.  The certificate that
comes back carries every quantity the construction promises: the boundary
point lambda, the offset eps0, the budget delta for phi((T - lambda) E), the
rank-one projection E, the separation of the new point from the rest of the
spectrum, and the before/after single-linkage components of the spectrum.
"""

import pathlib

from specgap import (AlgebraSpec, BaseNorm, NormSpec, c_phi, disconnect,
                     phi_eval, random_block_operator, rng_from_seed,
                     write_certificate)
from specgap.norms import phi_rank_one

OUT = pathlib.Path(__file__).with_name("demo_output")
OUT.mkdir(exist_ok=True)

rng = rng_from_seed(7)
alg = AlgebraSpec(dims=(6, 9), tail="none")
T = random_block_operator(alg, rng)

spec = NormSpec(base=(BaseNorm(kind="operator"), BaseNorm(kind="schatten", p=2)),
                weights=(1.0, 2.5))
print(f"operator: dims {T.dims}, ||T|| = {T.norm():.3f}")
print(f"norm: weights {spec.weights}, c_phi = {c_phi(spec, alg):.2f}")

eps = 1e-2
cert = disconnect(T, eps, spec)

print(f"\nbudget eps = {eps:g}")
print(f"  lambda (rightmost spectral point) = {cert.lam:.6f}")
print(f"  eps0 = eps / (2 (1 + c_phi))      = {cert.eps0:.3e}")
print(f"  budget delta = eps0 * 1e-3        = {cert.delta:.3e}")
print(f"  phi(X) = {cert.phi_X:.3e}  (< eps: {cert.phi_X < eps})")
print(f"  ||X||  = {cert.X.norm():.3e}  (<= phi(X): dominating norm)")
print(f"  phi(E) = {cert.phi_E:.3f}   (< 1 + c_phi = {1 + c_phi(spec, alg):.2f})")
print(f"  phi((T - lambda) E) = {cert.phi_TE:.3e}  (< delta)")
print(f"  separation sigma_min(C - mu) = {cert.separation:.3e}  "
      f"(> rounding bound {cert.separation_bound:.3e})")

before, after = cert.components_before, cert.components_after
print(f"\nspectrum components at threshold {after.threshold:.2e}:")
print(f"  before: {before.n_components}, after: {after.n_components}, "
      f"gap achieved {cert.gap_achieved:.3e}")
print(f"  the new isolated point sits at lambda + eps0 = "
      f"{cert.lam + cert.eps0:.6f}")

path = OUT / "certificate.json"
write_certificate(cert, path, seed=7)
print(f"\nfull certificate written to {path}")

# sanity: phi(X) is the rank-one closed form w_k ||w|| ||v|| of the stored
# vectors, and an SVD of the dense X re-measures it to within rounding
assert cert.phi_X == phi_rank_one(spec, cert.structure, cert.summand, cert.w, cert.v)
assert abs(phi_eval(spec, cert.X) - cert.phi_X) <= 1e-12 * cert.phi_X
