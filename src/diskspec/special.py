"""Bessel and Airy evaluation primitives.

Fast paths delegate to scipy; every fast path has an independent slow route
(an integral-representation quadrature for Bessel, a power series on the
test side for Airy) so agreement between routes is checkable rather than
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import (
    DomainError, QuadratureError, RefinementError, check_array, check_integer, check_real,
)

__all__ = [
    "EvalAccuracy",
    "DEFAULT_ACCURACY",
    "AIRY_RANGE",
    "AiryZero",
    "bessel_j",
    "bessel_quadrature_oracle",
    "airy_ai",
    "airy_zero",
]


@dataclass(frozen=True)
class EvalAccuracy:
    """Convergence targets for the self-validating quadrature routes."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_nodes: int = 2**20

    def __post_init__(self) -> None:
        if not check_real(self.abs_tol, "abs_tol") > 0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if not check_real(self.rel_tol, "rel_tol") >= 0:
            raise DomainError(f"rel_tol must be nonnegative, got {self.rel_tol}")
        check_integer(self.max_nodes, "max_nodes", 64)


DEFAULT_ACCURACY = EvalAccuracy()

# Negative end covers Airy zeros through k = 400 (t_400 ~ 152.6) with margin;
# beyond that the zero-refinement certificates below are not exercised.
AIRY_RANGE = (-160.0, 10.0)
AIRY_ZERO_MAX_K = 400


def _jv_and_deriv(n: int, x):
    """Unvalidated (J_n(x), J_n'(x)), with J_n' = (J_{n-1} - J_{n+1}) / 2."""
    return _sp.jv(n, x), 0.5 * (_sp.jv(n - 1, x) - _sp.jv(n + 1, x))


def bessel_j(n: int, x, want_derivative: bool = False):
    """First-kind Bessel function J_n(x), optionally with J_n'(x).

    ``x`` may be a float or an ndarray; the return matches its shape.
    The derivative uses the recurrence J_n' = (J_{n-1} - J_{n+1}) / 2,
    with J_{-1} = -J_1 covering n = 0.
    """
    n = check_integer(n, "order", 0)
    arr, scalar = check_array(x, "argument")
    if not want_derivative:
        val = _sp.jv(n, arr)
        return float(val) if scalar else val
    val, der = _jv_and_deriv(n, arr)
    return (float(val), float(der)) if scalar else (val, der)


def bessel_quadrature_oracle(
    n: int, x: float, nodes: int = 64, accuracy: EvalAccuracy = DEFAULT_ACCURACY
) -> float:
    """J_n(x) from the integral representation, by node-doubling trapezoid.

    J_n(x) = (1/2pi) int_{-pi}^{pi} cos(x sin t - n t) dt.  The integrand is
    2pi-periodic and entire, so the equispaced trapezoid rule converges
    geometrically once the node count passes ~(n + |x|).  Doubles nodes until
    two successive levels agree within ``accuracy``; raises QuadratureError
    at the node cap.  Deliberately independent of the scipy route.
    """
    n = check_integer(n, "order", 0)
    x = check_real(x, "argument")
    m = check_integer(nodes, "starting node count", 16)
    # An m-node rule folds every J_{n+jm}(x) onto the estimate, and levels m
    # and 2m share the even-j aliases, so agreement below n + |x| nodes can
    # be spurious.  Start above the aliasing band: the nearest folded order
    # then sits past the turning point and is already evanescent.
    while m < n + abs(x) + 16.0:
        m *= 2
    t = -math.pi + 2.0 * math.pi * np.arange(m) / m
    prev = float(np.mean(np.cos(x * np.sin(t) - n * t)))
    while m <= accuracy.max_nodes:
        m *= 2
        t = -math.pi + 2.0 * math.pi * np.arange(m) / m
        cur = float(np.mean(np.cos(x * np.sin(t) - n * t)))
        if abs(cur - prev) <= accuracy.abs_tol + accuracy.rel_tol * abs(cur):
            return cur
        prev = cur
    raise QuadratureError(
        f"bessel quadrature did not converge for n={n}, x={x} within {accuracy.max_nodes} nodes"
    )


def airy_ai(x, want_derivative: bool = False):
    """Airy function Ai(x) (and optionally Ai'(x)) on the supported window.

    The guard rejects arguments outside AIRY_RANGE: far negative arguments
    would need oscillatory asymptotics this package does not certify, and
    far positive ones underflow.
    """
    arr, scalar = check_array(x, "argument")
    lo, hi = AIRY_RANGE
    if np.any(arr < lo) or np.any(arr > hi):
        raise DomainError(f"argument outside supported Airy range [{lo}, {hi}]")
    ai, aip, _, _ = _sp.airy(arr)
    if scalar:
        ai, aip = float(ai), float(aip)
    return (ai, aip) if want_derivative else ai


@dataclass(frozen=True)
class AiryZero:
    """The k-th zero of Ai(-t), t > 0, with its asymptotic seed."""

    k: int
    t: float
    initial: float
    correction: float


_airy_t_cache = np.empty(0, dtype=float)


def _airy_ts(kmax: int) -> np.ndarray:
    """Zeros t_1..t_kmax of Ai(-t), cached; Newton-refined through k = 400."""
    global _airy_t_cache
    if kmax <= _airy_t_cache.size:
        return _airy_t_cache[:kmax]
    ks = np.arange(1, kmax + 1, dtype=float)
    t = (3.0 * math.pi * (4.0 * ks - 1.0) / 8.0) ** (2.0 / 3.0)
    refine = ks <= AIRY_ZERO_MAX_K
    tr = t[refine]
    # Ai(-t) has d/dt Ai(-t) = -Ai'(-t); the Newton step is +Ai/Ai'.
    for _ in range(8):
        ai, aip, _, _ = _sp.airy(-tr)
        tr = tr + ai / aip
    t[refine] = tr
    _airy_t_cache = t
    return _airy_t_cache


def airy_zero(k: int) -> AiryZero:
    """k-th positive zero t_k of Ai(-t), refined from the asymptotic seed.

    Seed: t_k ~ (3 pi (4k - 1) / 8)^(2/3).  The zero is read from the
    Newton-refined table that also seeds the Bessel-zero guesses, and is
    certified by requiring |Ai(-t)| <= 1e-12; failure raises RefinementError.
    """
    k = check_integer(k, "index", 1, AIRY_ZERO_MAX_K)
    initial = (3.0 * math.pi * (4 * k - 1) / 8.0) ** (2.0 / 3.0)
    t = float(_airy_ts(k)[k - 1])
    residual = abs(float(_sp.airy(-t)[0]))
    if residual > 1e-12:
        raise RefinementError(
            f"airy zero k={k} failed certification: |Ai(-t)| = {residual:.3e}"
        )
    return AiryZero(k=k, t=t, initial=float(initial), correction=float(t - initial))
