"""Exception types shared across the package, and the value checks that
raise them."""

import numbers
import sys

import numpy as np


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
        and abs(value) <= sys.float_info.max  # False for nan, inf and 10**400
        and (value > 0 if positive else value >= 0)
    )
    if not ok:
        bound = "> 0" if positive else ">= 0"
        raise ConfigurationError(f"{name} must be a finite number {bound}, got {value!r}")


def check_matrix(name: str, a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Return ``a`` as a float64 array (``a`` itself if it is one); raise
    ``DimensionError`` unless it is 2-D with ``rows`` rows and ``cols``
    columns, where None allows any count, and ``ConfigurationError`` unless
    it holds real numbers (bool, integer or float)."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # ragged nested sequences
        raise DimensionError(f"{name} is not a rectangular array: {exc}") from exc
    if a.dtype != np.float64:
        if a.dtype.kind not in "biuf":
            raise ConfigurationError(f"{name} must hold real numbers, got dtype {a.dtype}")
        a = a.astype(np.float64)
    if (a.ndim != 2 or rows is not None and a.shape[0] != rows
            or cols is not None and a.shape[1] != cols):
        want = f"({'n' if rows is None else rows}, {'d' if cols is None else cols})"
        raise DimensionError(f"{name} must have shape {want}, got {a.shape}")
    return a
