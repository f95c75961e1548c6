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


def check_real(name: str, value) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is a finite number (not
    a bool) > 0, compared as a Python float whatever its numpy type."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = ok and 0 < float(value) <= sys.float_info.max  # False for nan and inf
    except OverflowError:  # an int beyond float range, such as 10**400
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a finite number > 0, got {value!r}")


def check_size(what: str, count: int) -> None:
    """Raise ``ConfigurationError`` if ``count`` float64 values, counted in
    Python ints (which cannot wrap), are more than numpy can hold in one
    array (``np.iinfo(np.intp).max`` bytes)."""
    if 8 * count > np.iinfo(np.intp).max:
        raise ConfigurationError(f"{what} is too large: its float64 values exceed numpy's limit")


def check_array(name: str, a) -> np.ndarray:
    """Return ``np.asarray(a)``; raise ``DimensionError`` if ``a`` is a
    ragged nested sequence."""
    try:
        return np.asarray(a)
    except ValueError as exc:
        raise DimensionError(f"{name} is not a rectangular array: {exc}") from exc


def check_matrix(name: str, a, rows: int | None = None, cols: int | None = None,
                 finite: bool = False) -> np.ndarray:
    """Return ``a`` as a float64 array (``a`` itself if it is one); raise
    ``DimensionError`` unless it is 2-D with ``rows`` rows and ``cols``
    columns, where None allows any count, ``ConfigurationError`` unless it
    holds real numbers (bool, integer or float), and, if ``finite``,
    ``NumericError`` unless they are all finite."""
    a = check_array(name, a)
    if a.dtype != np.float64:
        if a.dtype.kind not in "biuf":
            raise ConfigurationError(f"{name} must hold real numbers, got dtype {a.dtype}")
        a = a.astype(np.float64)
    if (a.ndim != 2 or rows is not None and a.shape[0] != rows
            or cols is not None and a.shape[1] != cols):
        want = f"({'n' if rows is None else rows}, {'d' if cols is None else cols})"
        raise DimensionError(f"{name} must have shape {want}, got {a.shape}")
    if finite and not np.isfinite(a).all():
        raise NumericError(f"{name} contains non-finite values")
    return a


def check_labels(v, n: int | None = None) -> np.ndarray:
    """Return ``v`` as an int64 vector; raise ``DimensionError`` unless it is
    1-D with ``n`` entries, where None allows any count, and
    ``ConfigurationError`` unless its values are 64-bit integers."""
    a = check_array("labels", v)
    if a.ndim != 1 or n is not None and len(a) != n:
        raise DimensionError(f"labels must have shape ({'n' if n is None else n},), got {a.shape}")
    if a.dtype.kind == "f":
        # |a| < 2**63 also rejects nan and inf, and keeps the int64 cast exact
        integral = np.all(np.abs(a) < 2.0**63) and np.array_equal(a, np.trunc(a))
    else:  # strings, objects and complex numbers are not labels
        integral = a.dtype.kind in "biu"
    if not integral:
        raise ConfigurationError("labels must be 64-bit integers")
    return a.astype(int)
