"""Lattice counts over the cusped domain and its mollified sandwich.

The shifted lattice R = {(n, k - 1/4) : n, k integers} is counted inside
dilates of the cusped domain two ways: exact column counts (closed-form
floor with a predicate fixup, cross-checkable against brute force), and a
smoothed sandwich N_minus <= N_chi <= N_plus built from an epsilon-mollified
indicator and a cusp-localized weight.  The sandwich is what turns sharp
counting into integrals amenable to stationary-phase analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, check_array, check_integer, check_real, check_scale
from .geometry import CuspDomain, _profile

__all__ = [
    "column_count",
    "count_lattice",
    "brute_force_count",
    "MollifyConfig",
    "SandwichResult",
    "rho",
    "chi_weight",
    "chi0",
    "sandwich_check",
]

_BRUTE_MU_MAX = 2000.0
_SANDWICH_MU_MIN = 4.0
_SANDWICH_MU_MAX = 50.0
# Radial gate that removes the origin corner: identically 0 for r <= 1/8,
# identically 1 for r >= 1/4 (unit scale).
_ORIGIN_PLATEAU = 0.125
_ORIGIN_SUPPORT = 0.25


def column_count(n: int, mu: float) -> int:
    """Number of lattice heights k - 1/4 in the column of mu*D at x = n.

    Counts integers k with max(0, -n) <= k - 1/4 <= mu g(n/mu).  The floor
    formula is corrected against the membership predicate so the result
    agrees exactly with brute-force enumeration in float arithmetic.
    """
    return _column(check_integer(n, "column index"), check_scale(mu, math.inf))


def _column(n: int, mu: float) -> int:
    """column_count without checks, for an int n and a checked scale mu."""
    if abs(n) > mu:
        return 0
    t = mu * float(_profile(n / mu))
    kmax = int(math.floor(t + 0.25))
    # Fixup: the floor of t + 0.25 can be off by one ulp relative to the
    # predicate k - 1/4 <= t used by the direct membership test.
    while (kmax + 1) - 0.25 <= t:
        kmax += 1
    while kmax >= 1 and kmax - 0.25 > t:
        kmax -= 1
    return max(0, kmax - max(0, -n))


def count_lattice(mu: float) -> int:
    """Total count of R inside mu*D, summed over all columns |n| <= mu."""
    mu = check_scale(mu, math.inf)
    m = int(math.floor(mu))
    return sum(_column(n, mu) for n in range(-m, m + 1))


def brute_force_count(mu: float) -> int:
    """Count of R in mu*D by direct membership tests, no closed-form floors.

    Quadratic in mu, guarded at mu <= 2000.  Exists as the independent
    route against column_count.
    """
    mu = check_scale(mu, _BRUTE_MU_MAX)
    dom = CuspDomain(mu)
    m = int(math.floor(mu))
    ks = np.arange(1 - m - 1, int(math.floor(mu)) + 2, dtype=np.int64)
    ys = ks - 0.25
    total = 0
    for n in range(-m, m + 1):
        upper = dom.upper(float(n))
        lower = dom.lower(float(n))
        total += int(np.count_nonzero((ys >= lower) & (ys <= upper)))
    return total


@dataclass(frozen=True)
class MollifyConfig:
    """Parameters of the mollified sandwich.

    epsilon(mu) = eps_scale * mu**(-eps_exponent) is the mollifier radius;
    eps_scale exists so sensitivity reruns can halve epsilon without moving
    the exponent.  chi_plateau/chi_support shape the angular weight around
    the cusp direction; quad_cells fixes the midpoint grid per axis.
    """

    eps_exponent: float = 1.0 / 3.0
    eps_scale: float = 1.0
    quad_cells: int = 64
    chi_plateau: float = 0.15
    chi_support: float = 0.30

    def __post_init__(self) -> None:
        if not (0.0 < check_real(self.eps_exponent, "eps_exponent") <= 0.5):
            raise DomainError(f"eps_exponent must lie in (0, 1/2], got {self.eps_exponent}")
        if not (0.0 < check_real(self.eps_scale, "eps_scale") <= 1.0):
            raise DomainError(f"eps_scale must lie in (0, 1], got {self.eps_scale}")
        check_integer(self.quad_cells, "quad_cells", 16)
        plateau = check_real(self.chi_plateau, "chi_plateau")
        if not (0.0 < plateau < check_real(self.chi_support, "chi_support") <= 0.5):
            raise DomainError(
                f"need 0 < chi_plateau < chi_support <= 1/2, got "
                f"{self.chi_plateau}, {self.chi_support}"
            )

    def epsilon(self, mu: float) -> float:
        return self.eps_scale * float(mu) ** (-self.eps_exponent)


def _smoothstep(t):
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, exp-based in between.

    Returns a float ndarray of the shape of t.
    """
    t = np.asarray(t, dtype=float)
    hi = t >= 1.0
    mid = (t > 0.0) & ~hi
    out = np.zeros(t.shape)
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


@lru_cache(maxsize=1)
def _rho_norm() -> float:
    # Unit mass: integral of exp(-1/(1-r^2)) over the unit disk equals
    # pi * int_0^1 exp(-1/(1-u)) du after u = r^2.
    val, _ = quad(lambda u: math.exp(-1.0 / (1.0 - u)) if u < 1.0 else 0.0, 0.0, 1.0,
                  epsabs=1e-14, limit=200)
    return 1.0 / (math.pi * val)


def rho(x, y):
    """Radial exp-bump mollifier, supported in the open unit ball, unit mass."""
    (xa, x_scalar), (ya, y_scalar) = check_array(x, "x"), check_array(y, "y")
    out = _rho(xa, ya)
    return float(out) if x_scalar and y_scalar else out


def _rho(x, y):
    """rho without checks, for float arrays x and y."""
    r2 = x * x + y * y
    out = np.zeros(np.shape(r2))
    inside = r2 < 1.0
    out[inside] = _rho_norm() * np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def _chi(u, cfg: MollifyConfig):
    return 1.0 - _smoothstep((u - cfg.chi_plateau) / (cfg.chi_support - cfg.chi_plateau))


def chi_weight(u):
    """Angular weight around the cusp direction: 1 for slopes u <= plateau,
    0 beyond the support slope, with default knees at 0.15 and 0.30."""
    ua, scalar = check_array(u, "slope")
    val = _chi(ua, MollifyConfig())
    return float(val) if scalar else val


def chi0(x, y, cfg: MollifyConfig | None = None):
    """Cusp-localized weight on the unit-scale domain.

    chi0(x, y) = chi(y/x) * gate(r) for x > 0 and 0 otherwise, where the
    radial gate vanishes for r <= 1/8 and is 1 for r >= 1/4.  It isolates
    the right cusp: the involution transports the bound to the other one.
    """
    if cfg is None:
        cfg = MollifyConfig()
    (xa, x_scalar), (ya, y_scalar) = check_array(x, "x"), check_array(y, "y")
    out = _chi0(xa, ya, cfg)
    return float(out) if x_scalar and y_scalar else out


def _chi0(x, y, cfg: MollifyConfig):
    """chi0 without checks, for floats or float arrays x and y."""
    xb, yb = np.broadcast_arrays(x, y)
    out = np.zeros(xb.shape)
    pos = xb > 0.0
    xp, yp = xb[pos], yb[pos]
    r = np.hypot(xp, yp)
    gate = _smoothstep((r - _ORIGIN_PLATEAU) / (_ORIGIN_SUPPORT - _ORIGIN_PLATEAU))
    out[pos] = _chi(yp / xp, cfg) * gate
    return out


def _mollifier_grid(eps: float, cells: int):
    """Midpoint nodes over [-eps, eps]^2 and discrete mollifier weights.

    The weights are renormalized to sum to exactly 1 so that a lattice
    point whose full epsilon-ball sits inside a region receives discrete
    convolution value exactly 1; the sandwich inequality then survives
    quadrature, not just the continuum limit.
    """
    h = 2.0 * eps / cells
    z = -eps + h * (np.arange(cells) + 0.5)
    zx = z[:, None]
    zy = z[None, :]
    w = _rho(zx / eps, zy / eps)
    w = w / w.sum()
    return z, w


def _indicator_plus(xs, ys, mu, eps):
    """Indicator of the outer region: 0 <= x <= mu, 0 <= y <= mu g(x/mu) + 2 eps."""
    inx = (xs >= 0.0) & (xs <= mu)
    u = np.clip(np.where(inx, xs, 0.0) / mu, -1.0, 1.0)
    top = mu * _profile(u) + 2.0 * eps
    return np.where(inx & (ys >= 0.0) & (ys <= top), 1.0, 0.0)


def _indicator_minus(xs, ys, mu, eps):
    """Signed indicator of the inner region.

    +1 on {0 <= y <= mu g(x/mu) - 2 eps}, -1 on the reflected strip
    {mu g(x/mu) - 2 eps <= y <= 0} that opens up near the cusp where the
    lowered profile goes negative; 0 elsewhere.
    """
    inx = (xs >= 0.0) & (xs <= mu)
    u = np.clip(np.where(inx, xs, 0.0) / mu, -1.0, 1.0)
    top = mu * _profile(u) - 2.0 * eps
    pos = (ys >= 0.0) & (ys <= top)
    neg = (ys < 0.0) & (ys >= top)
    return np.where(inx & pos, 1.0, 0.0) - np.where(inx & neg, 1.0, 0.0)


def _sandwich_guard(mu: float, cfg: MollifyConfig) -> tuple[float, float]:
    mu = check_scale(mu, _SANDWICH_MU_MAX)
    if mu < _SANDWICH_MU_MIN:
        raise DomainError(f"sandwich scale must be at least {_SANDWICH_MU_MIN}, got {mu}")
    eps = cfg.epsilon(mu)
    # The lattice offset keeps heights 3/4 away from the axis; the mollifier
    # radius must stay below that for the sandwich argument to close.
    if eps >= 0.7:
        raise DomainError(f"mollifier radius {eps:.3f} too large for the lattice offset")
    return mu, eps


def _mollified_count(sign: int, mu: float, eps: float, cfg: MollifyConfig) -> float:
    """Smoothed lattice count N^+ (sign=+1) or N^- (sign=-1) at a guarded scale mu.

    Each lattice point m contributes chi0(m/mu) times the mollified
    indicator (1_region * rho_eps)(m), evaluated by a midpoint tensor rule
    with cfg.quad_cells cells per axis on [-eps, eps]^2.  Accumulation runs
    in a fixed column-then-height order so reruns are bit-identical.
    """
    z, w = _mollifier_grid(eps, cfg.quad_cells)
    indicator = _indicator_plus if sign == 1 else _indicator_minus
    total = 0.0
    n_hi = int(math.floor(mu + eps)) + 1
    for n in range(1, n_hi + 1):
        xs = n - z[:, None]
        hmax = mu * float(_profile(min(max(n / mu, 0.0), 1.0))) if n <= mu else 0.0
        k_lo = int(math.ceil(0.25 - 3.0 * eps))
        k_hi = int(math.floor(hmax + 3.0 * eps + 0.25)) + 1
        for k in range(k_lo, k_hi + 1):
            y = k - 0.25
            weight = float(_chi0(n / mu, y / mu, cfg))
            if weight == 0.0:
                continue
            ys = y - z[None, :]
            conv = float(np.sum(w * indicator(xs, ys, mu, eps)))
            total += weight * conv
    return total


def _chi_weighted_count(mu: float, cfg: MollifyConfig) -> float:
    """Exact chi0-weighted count over the right half-domain columns at a guarded scale mu.

    Sums chi0(m/mu) over lattice points m in the dilate of the zero-floor
    region {0 <= x <= 1, 0 <= y <= g(x)}; the n = 0 column carries no
    weight by construction.
    """
    total = 0.0
    for n in range(1, int(math.floor(mu)) + 1):
        t = mu * float(_profile(n / mu))
        for k in range(1, int(math.floor(t + 0.25)) + 2):
            if k - 0.25 <= t:
                total += float(_chi0(n / mu, (k - 0.25) / mu, cfg))
    return total


@dataclass(frozen=True)
class SandwichResult:
    """One sandwich evaluation; n_exact is the chi0-weighted true count."""

    mu: float
    eps: float
    n_minus: float
    n_exact: float
    n_plus: float

    @property
    def holds(self) -> bool:
        return self.n_minus <= self.n_exact <= self.n_plus


def sandwich_check(mu: float, cfg: MollifyConfig | None = None) -> SandwichResult:
    """Evaluate N^- <= N_chi <= N^+ at scale mu with the given config."""
    if cfg is None:
        cfg = MollifyConfig()
    mu, eps = _sandwich_guard(mu, cfg)
    return SandwichResult(
        mu=mu,
        eps=eps,
        n_minus=_mollified_count(-1, mu, eps, cfg),
        n_exact=_chi_weighted_count(mu, cfg),
        n_plus=_mollified_count(1, mu, eps, cfg),
    )
