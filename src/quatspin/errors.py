"""Exception types shared across the package."""


class QuatspinError(Exception):
    """Base class for all package errors."""


class DimensionError(QuatspinError, ValueError):
    """Matrix/vector shapes are incompatible with the requested operation."""


class DomainError(QuatspinError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SpectrumError(QuatspinError, ArithmeticError):
    """A stated spectrum failed exact (or tolerance) projector certification."""


class IdentityFailure(QuatspinError, ArithmeticError):
    """An identity that must hold exactly left a residual; `residual` is its
    largest entry modulus."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(QuatspinError, RuntimeError):
    """A model was requested beyond the configured size cap."""
