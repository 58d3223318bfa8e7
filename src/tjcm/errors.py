"""Exception types shared across the package, and the integer and real
number checks that raise them."""

import numbers
import operator


class TjcmError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(TjcmError, ValueError):
    """A physical or numerical parameter is out of its allowed range."""


class InternalConsistencyError(TjcmError):
    """A computed quantity violates a structural guarantee of the model."""


class TruncationError(TjcmError):
    """The Fock-space truncation is too coarse for the requested accuracy."""


class StepSizeError(TjcmError):
    """The integrator step size is too large for the requested trajectory."""


class UsageError(TjcmError):
    """A user-facing configuration error (bad channel name, bad flag value)."""


class ResourceRefusalError(TjcmError):
    """A run was refused because it would exceed a configured resource bound."""


def integer_at_least(value, low: int, name: str, error=InvalidParameterError) -> int:
    """value as a Python int, numpy integers included, or error naming the
    bound when it is not an integer >= low."""
    n = operator.index(value) if hasattr(type(value), "__index__") else low - 1
    if n < low:
        raise error(f"{name} must be an integer >= {low}, got {value}")
    return n


def real_number(value, name: str) -> float:
    """value as a Python float, numpy scalars included, or InvalidParameterError."""
    if not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    return float(value)
