"""Exception types shared across the package, and the value checks that
raise them."""

import math
import numbers


class DekmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DekmError):
    """Operands have incompatible shapes."""


class ConfigurationError(DekmError):
    """A parameter value is invalid or inconsistent."""


class NumericError(DekmError):
    """Non-finite values where finite ones are required."""


class ConvergenceError(DekmError):
    """An iterative solver exhausted its budget without converging."""


class DivergenceError(DekmError):
    """A training loss became non-finite."""


class FormatError(DekmError):
    """A file does not conform to its expected format."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is an integer (not a
    bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, positive: bool) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is a finite number (not
    a bool) that is > 0 if ``positive``, else >= 0."""
    ok = (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
    )
    if not ok:
        bound = "> 0" if positive else ">= 0"
        raise ConfigurationError(f"{name} must be a finite number {bound}, got {value!r}")
