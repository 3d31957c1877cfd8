"""Exception types shared across the package."""


class GibbsGroundError(Exception):
    """Base class for all package-specific errors."""


class SizeCapError(GibbsGroundError):
    """A requested system size exceeds a configured cap."""


class ConstraintError(GibbsGroundError):
    """A coupling table or potential violates a structural constraint."""


class InternalConsistencyError(GibbsGroundError):
    """A result that correct code cannot produce: an eigensolver residual
    far above roundoff, or a Hermitian expectation with an imaginary part.
    Disagreeing assembly routes are not errors; verify records them as
    failed checks."""


class NonHermitianError(GibbsGroundError):
    """An operation requiring a Hermitian matrix received a non-Hermitian one."""


class ConvergenceError(GibbsGroundError):
    """An iterative solver did not converge within its iteration budget."""


class NumericRangeError(GibbsGroundError):
    """A result left the range of double-precision arithmetic."""


class ConfigError(GibbsGroundError):
    """A run configuration document is malformed or semantically invalid."""
