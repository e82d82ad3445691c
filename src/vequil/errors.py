"""Exception types shared across the package."""


class VequilError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(VequilError):
    """Operands have inconsistent spatial dimension or shape."""


class KernelDomainError(VequilError):
    """Kernel parameters or evaluation points violate the kernel's domain."""


class EigensolverError(VequilError):
    """A symmetric eigensolver (dense, or Lanczos for lambda_max) failed to converge."""


class NotPositiveDefinite(VequilError):
    """A Gram matrix fails the positive-definiteness gate."""


class InfeasibleProblem(VequilError):
    """The admissible class is empty for at least one plate."""


class ConfigError(VequilError):
    """A problem config failed to parse; message is field-anchored."""
