"""Riesz idempotents for the pieces a disconnection creates.

Once sigma(T + X) has two components, a contour around either piece yields
the corresponding spectral idempotent, computed from an ordered Schur form
once the contour is proved to lie in the resolvent set, and checked against
resolvent quadrature.  This demo
disconnects a random operator, encircles the freshly isolated eigenvalue,
and checks the algebra: P^2 = P, PT' = T'P, and the complement I - P picks
up the rest of the spectrum.
"""

import numpy as np

from specgap import (AlgebraSpec, block_operator, circle, disconnect,
                     identity_like, operator_norm_spec, random_block_operator,
                     rectangle, riesz_idempotent, rng_from_seed,
                     verify_idempotent)

rng = rng_from_seed(11)
alg = AlgebraSpec(dims=(5, 4), tail="none")
T = random_block_operator(alg, rng)
cert = disconnect(T, 1e-2, operator_norm_spec(2))
Tp = T + cert.X
center = cert.lam + cert.eps0

radius = cert.gap_achieved / 2
P = riesz_idempotent(Tp, circle(center, radius, nodes=128))
rep = verify_idempotent(P, Tp)
print(f"contour: circle around {center:.4f}, radius {radius:.2e}")
print(f"  ||P^2 - P||   = {rep.idem_residual:.2e}")
print(f"  ||PT' - T'P|| = {rep.commutator:.2e}")
print(f"  rank {rep.rank} / corank {rep.corank} (dimension {Tp.total_dim})")

Q = identity_like(Tp) - P
qrep = verify_idempotent(Q, Tp)
print(f"complement I - P: rank {qrep.rank}, residual {qrep.idem_residual:.2e}")

# on a deterministic two-cluster operator, circle and rectangle contours
# around the same cluster agree, and the two clusters' idempotents sum to I
D = block_operator([(0, np.diag([0.0, 0.1 + 0.05j, 3.0, 2.95, 3.1 - 0.1j]))])
P0 = riesz_idempotent(D, circle(0.0, 1.0))
P3 = riesz_idempotent(D, rectangle(2 - 1j, 4 + 1j))
print(f"\ntwo-cluster example: rank around 0 = {verify_idempotent(P0, D).rank}, "
      f"rank around 3 = {verify_idempotent(P3, D).rank}")
print(f"P0 + P3 - I deviates by {(P0 + P3 - identity_like(D)).norm():.2e}")
