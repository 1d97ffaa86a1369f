"""specgap: disconnecting spectra of block operators by small perturbations.

The package works with operators presented blockwise over an l-infinity sum
of matrix algebras, weighted unitarily invariant norms on them, and the
constant c_phi that controls how cheap it is to split an eigenvalue off
the rest of the spectrum.  Alongside the main perturbation routine sit the
Riesz idempotent quadrature, upper-triangular spectral bookkeeping,
pseudospectra, a divergent-weight counterexample, and the commutative
analogue for functions on compact subsets of the line.
"""

__version__ = "0.1.0"

from .errors import (
    SpecgapError, ShapeMismatch, NotAProjection, EmptyBlock, ZeroProjection,
    ConvergenceFailure, EmptySpectralWindow, BelowRoundoff, InfiniteCPhi,
    NotDominating, BadLambda, DimensionOne, ContourThroughSpectrum,
    EnclosesAllOrNone, FiniteUnion, ExhaustedSamples, BudgetNotLessThanOne,
    NoConvergenceCertificate, UsageError,
)
from .algebra import (
    BlockOperator, AlgebraSpec, IdealSpec, Projection, block_operator,
    identity_like, zero_like, central_projection, validate_projection,
    central_support, minimal_subprojection,
    operator_to_dict, operator_from_dict, read_operator, write_operator,
)
from .norms import (
    BaseNorm, OPERATOR, NormSpec, operator_norm_spec, phi_eval, f_phi, c_phi,
    dominating_check, check_unitary_invariance, norm_to_dict, norm_from_dict,
    read_norm_spec, write_norm_spec, FPhiResult,
)
from .sampling import (
    rng_from_seed, spawn_rngs, haar_unitary, random_block_operator,
    random_hermitian, random_psd, random_projection, random_subprojection,
)
from .spectral import (
    eigenvalues, cluster_points, SpectrumReport, spectrum_components,
    rightmost_boundary_point, min_singular_value,
    GridSpec, PseudospectrumGrid, pseudospectrum_grid, write_spectrum_csv,
    write_pseudospectrum_csv,
)
from .perturb import (
    PerturbationCertificate, small_te, disconnect, disconnect_rr0,
    counterexample_operator, counterexample_net, net_spacing,
    CounterexampleReport, verify_counterexample, certificate_to_dict,
    certificate_from_dict, write_certificate,
)
from .riesz import (
    Contour, circle, rectangle, riesz_idempotent, IdempotentReport,
    verify_idempotent,
)
from .uppertri import (
    UTBlock, ut_assemble, UTInclusionReport, ut_inclusion_check,
    shift_example, adjoint_flip,
)
from .cfun import (
    CompactRealSet, CantorGenerator, PLFunction, ClopenPiece,
    is_finite_interval_union, clopen_small_pieces, pl_approximate,
    offrange_lambda, CfunDisconnectResult, cfun_disconnect,
    nondensity_witness, RangeReport, range_components,
    set_to_dict, set_from_dict, read_set, write_set,
    pl_to_dict, pl_from_dict, read_pl, write_pl,
)

__all__ = [name for name in dir() if not name.startswith("_")]
