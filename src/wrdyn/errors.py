"""Exception hierarchy for the wrdyn package."""

from __future__ import annotations


class WRDynError(Exception):
    """Base class for all wrdyn errors."""


class DimensionMismatch(WRDynError):
    """Operands have incompatible shapes."""


class NonHermitianInput(WRDynError):
    """A matrix expected to be Hermitian deviates beyond tolerance."""


class NonFiniteInput(WRDynError):
    """An input array holds a NaN or infinite entry."""


class IndefiniteInput(WRDynError):
    """A matrix expected to be PSD has an eigenvalue below the clamp tolerance."""


class ZeroVector(WRDynError):
    """A vector expected to be nonzero has norm zero."""


class WeightTooLarge(WRDynError):
    """A compressed direction has squared norm above 1 beyond tolerance."""


class WeightOutOfRange(WRDynError):
    """A weight parameter lies outside the open interval (0, 1)."""


class NotStrictlyPositive(WRDynError):
    """A matrix required to be strictly positive is numerically singular."""


class NotConverged(WRDynError):
    """A check that requires a converged tail was given a truncated sequence."""


class NotDecoupled(WRDynError):
    """A decoupling-only check was given a coupled starting block."""


class EmptySupport(WRDynError):
    """An operation requiring a nonzero iterate received (numerical) zero."""


class InvalidStart(WRDynError):
    """Scalar recursion starting data lies outside the admissible set."""


class InvalidDirection(WRDynError):
    """A direction vector is not unit length within tolerance."""


class IncompatibleTraces(WRDynError):
    """Two traces cannot be cross-validated (shape, weight or alignment)."""


class NumericalBreakdown(WRDynError):
    """An iterate lost positive semidefiniteness beyond the clamp tolerance.

    Carries the partial trace accumulated before the failure when available.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
