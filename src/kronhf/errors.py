class DomainError(ValueError):
    """Parameter outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """Incompatible matrix or module dimensions."""


class ValidationError(ValueError):
    """Structured input failed an invariant check."""


class PreconditionError(ValueError):
    """Documented precondition of an operation not met."""


class GuardRefusal(RuntimeError):
    """Refused: a configured resource or safety guard would be exceeded."""


class CertificateError(RuntimeError):
    """No certificate was found for a result, so the result is not returned."""
