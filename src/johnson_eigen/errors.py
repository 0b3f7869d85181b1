"""Exception types shared across the package."""


class JohnsonEigenError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(JohnsonEigenError):
    """Invalid parameters, coordinates, or pairing configuration."""


class ParamsMismatchError(ParameterError):
    """Two objects that must live on the same Johnson graph do not."""


class SizeBudgetError(JohnsonEigenError):
    """Instance exceeds a configured size budget (dense matrix or subset count)."""


class OracleDisagreementError(JohnsonEigenError):
    """The two minimum-support oracles returned different results."""


class FunctionFileError(JohnsonEigenError):
    """Malformed sparse-function file."""


class AmbiguousEigenvalueError(JohnsonEigenError):
    """An eigenvalue occurs at more than one spectral index on this graph."""


class BasisCheckError(JohnsonEigenError):
    """A generated eigenspace basis failed its eigen-check or its rank check."""
