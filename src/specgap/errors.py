"""Exception types shared across the package."""

__all__ = [
    "SpecgapError",
    "ShapeMismatch",
    "NotAProjection",
    "EmptyBlock",
    "ZeroProjection",
    "ConvergenceFailure",
    "EmptySpectralWindow",
    "BelowRoundoff",
    "InfiniteCPhi",
    "NotDominating",
    "DimensionOne",
    "ContourThroughSpectrum",
    "EnclosesAllOrNone",
    "FiniteUnion",
    "ExhaustedSamples",
    "StageTooShallow",
    "RangeOverflow",
    "BudgetNotLessThanOne",
    "NoConvergenceCertificate",
    "UsageError",
]


class SpecgapError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(SpecgapError):
    """Operands live in different block algebras (ids, dims or lengths differ)."""


class NotAProjection(SpecgapError):
    """Candidate fails a projection tolerance; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EmptyBlock(SpecgapError):
    """A projection has no weight in the requested summand."""


class ZeroProjection(SpecgapError):
    """Operation requires a nonzero projection."""


class ConvergenceFailure(SpecgapError):
    """An underlying eigenvalue/SVD routine did not converge."""


class EmptySpectralWindow(SpecgapError):
    """There are no spectrum points to work with."""


class BelowRoundoff(SpecgapError):
    """The budget is below what round-off in sigma_min(T - lambda) can resolve."""


class InfiniteCPhi(SpecgapError):
    """The norm's sup-inf constant is infinite; the construction does not apply."""


class NotDominating(SpecgapError):
    """The norm does not dominate the operator norm on its ideal."""


class DimensionOne(SpecgapError):
    """Total dimension 1: spectra are singletons and cannot be disconnected."""


class ContourThroughSpectrum(SpecgapError):
    """Integration contour passes too close to an eigenvalue."""


class EnclosesAllOrNone(SpecgapError):
    """Contour encloses the whole spectrum or none of it; the idempotent is trivial."""


class FiniteUnion(SpecgapError):
    """The compact set is a finite union of closed intervals; nothing to cut."""


class ExhaustedSamples(SpecgapError):
    """Could not find a value off the range of the function near the target."""


class StageTooShallow(SpecgapError):
    """No clopen piece of the set's generator stage is small enough for eps."""


class RangeOverflow(SpecgapError):
    """A segment of a function's range is too long to square in floats."""


class BudgetNotLessThanOne(SpecgapError):
    """Counterexample verification requires a norm budget strictly below 1."""


class NoConvergenceCertificate(SpecgapError):
    """lq aggregation over an infinite tail needs a bounded tail weight class."""


class UsageError(SpecgapError):
    """Bad command-line arguments or configuration."""
