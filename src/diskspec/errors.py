"""Exception types and argument checks shared across the package.

Three failure families are distinguished so callers (and the CLI) can map
them to exit codes: bad mathematical inputs, quadrature that failed to
converge within its node budget, and root refinement that could not be
certified.  The checks below are the one place arguments are validated
(integers, finite reals, real arrays, scales, thread counts).  Public entry
points run them once; internal calls hand checked values to unchecked cores.
"""

import sys

import numpy as np

# Worker threads disk_counts_many may fan out to; nothing else takes a thread count.
MAX_THREADS = 256


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """A quadrature rule hit its node or panel budget before converging."""


class RefinementError(RuntimeError):
    """Root refinement failed to produce a certified bracket."""


def check_integer(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """value as an int; DomainError unless it is a non-bool integer in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise DomainError(f"{name} must be at most {most}, got {value}")
    return int(value)


def check_real(value, name: str) -> float:
    """value as a float; DomainError unless it is a finite, non-bool real number."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    # abs() <= max is False for nan and inf, and compares huge ints exactly.
    if not (real and abs(value) <= sys.float_info.max):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_array(x, name: str) -> tuple[np.ndarray, bool]:
    """(x as a float array, whether x is 0-d); DomainError unless all finite non-bool reals."""
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged nested sequence
        raise DomainError(f"{name} must hold finite real numbers, got a ragged sequence")
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must hold finite real numbers, got {arr.dtype} data")
    return arr.astype(float, copy=False), arr.ndim == 0


def check_threads(threads) -> int:
    """A worker-thread count in [1, MAX_THREADS]."""
    return check_integer(threads, "threads", 1, MAX_THREADS)


def check_scale(mu, upper: float, name: str = "scale") -> float:
    """mu as a float; DomainError unless it is a finite real number in (0, upper]."""
    mu = check_real(mu, name)
    if not (0.0 < mu <= upper):
        raise DomainError(f"{name} must lie in (0, {upper}], got {mu}")
    return mu
