"""Exception types shared across the package, and the argument checks that raise them."""

from fractions import Fraction


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
    """A malformed sparse-function file, or a file that cannot be read or written."""


class BasisCheckError(JohnsonEigenError):
    """A generated eigenspace basis failed its eigen-check or its rank check."""


def is_int(x) -> bool:
    """True for an int that is not a bool, although bool subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def brief(item) -> str:
    """repr(item), cut to 60 characters ending in "..." when longer, or "<unprintable>"."""
    try:
        text = repr(item)
    except Exception:  # ValueError past the int digit limit, RecursionError on deep nesting
        return "<unprintable>"
    return text if len(text) <= 60 else text[:57] + "..."


def check_rational(v):
    """v itself; ParameterError unless v is an int or a Fraction, and not a bool."""
    if not (is_int(v) or isinstance(v, Fraction)):
        raise ParameterError(f"value {v!r} is not an int or Fraction")
    return v


def checked_make(cls, iterable):
    """cls(*iterable): a checked record's _make, so that _make and _replace,
    which a namedtuple builds through tuple.__new__, go through its __new__."""
    return cls(*iterable)
