"""Geometry of the cusped counting domain.

The domain D sits between the upper profile y = g(x) on [-1, 1] and the
lower boundary y = max(0, -x).  Its dilates mu * D carry the lattice count
that mirrors the Dirichlet disk eigenvalue count.  g has square-root cusps
at x = +-1 (vanishing like h^(3/2) at the right end), which is what makes
the remainder analysis non-classical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, check_array, check_real, check_scale

__all__ = [
    "g_profile",
    "area_D",
    "scale_function",
    "involution",
    "in_domain",
    "CuspDomain",
]

# Largest scale scale_function brackets; a point that needs more is rejected.
_BRACKET_MAX = 1e18


def g_profile(x):
    """Upper profile g(x) = (sqrt(1 - x^2) - x arccos x) / pi on [-1, 1].

    Accepts a float or ndarray.  g(-1) = 1, g(1) = 0, g(0) = 1/pi, and
    g(1 - h) ~ (2 sqrt 2 / 3 pi) h^(3/2) at the cusp.
    """
    arr, scalar = check_array(x, "profile argument")
    if np.any(arr < -1.0) or np.any(arr > 1.0):
        raise DomainError("profile argument must lie in [-1, 1]")
    val = _profile(arr)
    return float(val) if scalar else val


def _profile(x):
    """g_profile without checks, for a float or float array already in [-1, 1]."""
    # (1-x)(1+x) keeps full precision at both cusps.
    return (np.sqrt((1.0 - x) * (1.0 + x)) - x * np.arccos(x)) / math.pi


def area_D(abs_tol: float = 1e-12) -> float:
    """Area of D by adaptive quadrature of g(x) - max(0, -x) over [-1, 1].

    The exact value is 1/4 (integration by parts); the quadrature route is
    kept independent so that identity stays a check, not an input.
    """
    if not check_real(abs_tol, "abs_tol") > 0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")

    def height(x: float) -> float:
        return _profile(x) - max(0.0, -x)

    val, est = quad(height, -1.0, 1.0, points=[0.0], epsabs=abs_tol, limit=200)
    return float(val)


def scale_function(x: float, y: float) -> float:
    """F(x, y): the unique lambda > 0 with (x, y) on the profile of lambda*D.

    Defined on the open cone y > max(0, -x) swept by the dilated profiles
    y = lambda g(x / lambda).  F is homogeneous of degree 1 and F(0, y) =
    pi y.  Solved by doubling to bracket then bisection: the profile value
    lambda g(x/lambda) is strictly increasing in lambda (its derivative is
    sqrt(1 - (x/lambda)^2) / pi).
    """
    x, y = check_real(x, "x"), check_real(y, "y")
    if y <= 0.0 or y <= -x:
        raise DomainError(f"point ({x}, {y}) outside the cone y > max(0, -x)")

    def profile_gap(lam: float) -> float:
        # lam >= |x| throughout, so x / lam stays in [-1, 1].
        return lam * _profile(x / lam) - y

    lo = abs(x)
    # On the ray lambda = |x| the profile height is 0 (x > 0) or -x (x < 0),
    # both below y, so profile_gap(lo) < 0 whenever lo > 0.
    hi = max(2.0 * abs(x), math.pi * y, 1e-12)
    while hi <= _BRACKET_MAX and profile_gap(hi) < 0.0:
        hi *= 2.0
    # The cap also bounds the starting bracket, so pi * y cannot overflow to inf.
    if hi > _BRACKET_MAX:
        raise DomainError(f"scale bracket for ({x}, {y}) exceeds {_BRACKET_MAX:g}")
    if lo == 0.0:
        return math.pi * y
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if profile_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def involution(p: tuple[float, float]) -> tuple[float, float]:
    """The shear-reflection (x, y) -> (-x, y + x); applied twice it is the identity.

    It exchanges the two cusps of D and maps the shifted lattice
    {(n, k - 1/4)} to itself via (n, k) -> (-n, k + n).
    """
    x, y = (check_real(v, "point coordinate") for v in p)
    return (-x, y + x)


@dataclass(frozen=True)
class CuspDomain:
    """The dilate mu * D with membership and boundary accessors."""

    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", check_scale(self.mu, math.inf))

    def upper(self, x: float) -> float:
        """Upper boundary mu * g(x / mu) for |x| <= mu."""
        return self.mu * g_profile(x / self.mu)

    def lower(self, x: float) -> float:
        """Lower boundary max(0, -x)."""
        return max(0.0, -x)

    def contains(self, x: float, y: float) -> bool:
        x, y = check_real(x, "x"), check_real(y, "y")
        if x < -self.mu or x > self.mu:
            return False
        return self.lower(x) <= y <= self.upper(x)


def in_domain(mu: float, p: tuple[float, float]) -> bool:
    """Closed membership test for p in mu * D."""
    return CuspDomain(mu).contains(*p)
