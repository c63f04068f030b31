"""Remainder asymptotics: scans, envelope fits, and oscillatory models.

The two-term remainder R(mu) = N(mu) - (mu^2/4 - mu/2) is scanned on an
offset grid, its growth read off by a block-maxima envelope fit, and the
boundary contributions that control it are modeled by curved-phase
oscillatory integrals (cubic phases with a tunable quadratic term) plus
closed-form linear-segment integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError, check_array, check_integer, check_real
from .lattice import _smoothstep
from .spectral import CountSample, _sample, disk_counts_many
from .zeros import MU_MAX

__all__ = [
    "NU_MAX",
    "DEFAULT_TAUS",
    "FitResult",
    "OscIntegralSpec",
    "DecayResult",
    "scan_remainder",
    "fit_envelope",
    "beta_series",
    "beta_series_limit",
    "amplitude_cutoff",
    "oscillatory_decay",
    "linear_segment_integral",
]

# Quadratic-term coefficient window for the curved-phase models; beyond
# this the stationary point leaves the cutoff plateau and the fitted
# exponents stop describing the cusp geometry.
NU_MAX = 0.2

DEFAULT_TAUS = tuple(float(t) for t in np.logspace(2.0, 6.0, 17))

_PHASE_GRID = 4097
_PANEL_CHUNK = 200_000
_PANEL_CAP = 5_000_000

_SAMPLE_FIELDS = tuple(f.name for f in fields(CountSample))


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law y ~ exp(log_amplitude) * x**exponent."""

    exponent: float
    log_amplitude: float
    r_squared: float
    n_points: int


def _power_fit(log_x: np.ndarray, log_y: np.ndarray) -> FitResult:
    a = np.vstack([log_x, np.ones_like(log_x)]).T
    coef, _, _, _ = np.linalg.lstsq(a, log_y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = a @ coef
    ss_res = float(np.sum((log_y - pred) ** 2))
    ss_tot = float(np.sum((log_y - np.mean(log_y)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    r2 = min(1.0, max(0.0, r2))
    return FitResult(
        exponent=slope, log_amplitude=intercept, r_squared=r2, n_points=int(log_x.size)
    )


def scan_remainder(mu_min: float, mu_max: float, step: float) -> list[CountSample]:
    """Sample both counts on the offset grid mu_min + i step + step/(100 sqrt 2).

    The fixed irrational offset keeps scales away from integers and
    half-integers where columns change height, so no sample sits on a
    counting discontinuity.  The grid includes the last point at or below
    mu_max (plus offset).
    """
    mu_min, mu_max = check_real(mu_min, "mu_min"), check_real(mu_max, "mu_max")
    step = check_real(step, "step")
    if not (0.0 < mu_min < mu_max):
        raise DomainError(f"need 0 < mu_min < mu_max, got {mu_min}, {mu_max}")
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    if mu_max + step * 0.01 > MU_MAX:
        raise DomainError(f"scan end {mu_max} too close to the supported cap {MU_MAX}")
    offset = step * 0.01 / math.sqrt(2.0)
    n_pts = int(math.floor((mu_max - mu_min) / step + 1e-9)) + 1
    mus = [mu_min + i * step + offset for i in range(n_pts)]
    disk = disk_counts_many(mus)
    return [_sample(mu, int(nd)) for mu, nd in zip(mus, disk)]


def fit_envelope(
    samples: list[CountSample], block_size: int = 20, field_name: str = "remainder"
) -> FitResult:
    """Power-law fit of the envelope of |field| against the scale.

    Samples are grouped into consecutive blocks of block_size; each block
    contributes its maximal |value| at the scale where that maximum is
    attained.  Fitting log-max against log-scale-at-max keeps a planted
    power law unbiased on linear grids.  Requires at least 8 blocks and at
    least 8 nonzero block maxima.
    """
    block_size = check_integer(block_size, "block_size", 2)
    if field_name not in _SAMPLE_FIELDS:
        raise DomainError(f"field_name must be one of {_SAMPLE_FIELDS}, got {field_name!r}")
    mus = np.array([s.mu for s in samples], dtype=float)
    vals = np.abs(np.array([float(getattr(s, field_name)) for s in samples]))
    order = np.argsort(mus)
    mus, vals = mus[order], vals[order]
    n_blocks = vals.size // block_size
    if n_blocks < 8:
        raise DomainError(f"need at least 8 blocks, got {n_blocks}")
    log_x, log_y = [], []
    for b in range(n_blocks):
        lo = b * block_size
        seg = vals[lo : lo + block_size]
        i = int(np.argmax(seg)) + lo
        if vals[i] <= 0.0:
            continue
        log_x.append(math.log(mus[i]))
        log_y.append(math.log(vals[i]))
    if len(log_x) < 8:
        raise DomainError("degenerate envelope: fewer than 8 nonzero block maxima")
    return _power_fit(np.array(log_x), np.array(log_y))


def beta_series_limit(beta: float) -> float:
    """Closed form 2 pi (1/2 - beta) of the full series."""
    if not (0.0 < check_real(beta, "beta") < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    return 2.0 * math.pi * (0.5 - beta)


def beta_series(beta: float, q_max: int, summation: str = "abel") -> float:
    """Partial sums of 2 sum_{q=1}^{Q} sin(2 pi beta q) / q.

    summation="plain" returns the bare partial sum, which oscillates with
    amplitude O(1/ (Q dist(beta))) around the limit; "abel" damps term q by
    (1 - 1/Q)^q, giving monotone-in-practice convergence to
    2 pi (1/2 - beta).
    """
    if not (0.0 < check_real(beta, "beta") < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    q_max = check_integer(q_max, "q_max", 10)
    q = np.arange(1, q_max + 1, dtype=float)
    terms = np.sin(2.0 * math.pi * beta * q) / q
    if summation == "abel":
        r = 1.0 - 1.0 / float(q_max)
        terms = terms * r**q
    elif summation != "plain":
        raise DomainError(f"summation must be 'plain' or 'abel', got {summation!r}")
    return float(2.0 * np.sum(terms))


def amplitude_cutoff(t):
    """Smooth cutoff: identically 1 on [0, 1], exp-smooth fall to 0 at 2.

    Nonzero at the origin by design; the curved-phase estimates concern
    amplitudes that do not vanish where the phase degenerates.
    """
    ta, scalar = check_array(t, "argument")
    val = _cutoff(ta)
    return float(val) if scalar else val


def _cutoff(t):
    """amplitude_cutoff without checks, for a float array t."""
    val = 1.0 - _smoothstep(t - 1.0)  # first: a mask made earlier raises peak memory
    return np.where(t < 0.0, 0.0, val)


def _amp_curved_a(t):
    return t * t * _cutoff(t)


def _amp_curved_b(t):
    return t * _cutoff(t)


def _phase_curved_a(t, nu):
    # Quadratic term carries the smooth profile f(t) = 1 - t, f(0) = 1.
    return nu * t**3 - t * t * (1.0 - t)


def _phase_curved_b(t, nu):
    return t**3 - nu * t * t


@dataclass(frozen=True)
class OscIntegralSpec:
    """One curved-phase decay experiment.

    kind "curved_a": integrand t^2 g(t) exp(i tau (nu t^3 - t^2 f(t))),
    kind "curved_b": integrand t g(t) exp(i tau (t^3 - nu t^2)), both over
    the support [0, 2] of the cutoff g.
    """

    kind: str
    nu: float = 0.0
    taus: tuple = DEFAULT_TAUS
    phase_budget: float = 12.0
    gl_order: int = 32

    def __post_init__(self) -> None:
        if self.kind not in ("curved_a", "curved_b"):
            raise DomainError(f"kind must be 'curved_a' or 'curved_b', got {self.kind!r}")
        if not abs(check_real(self.nu, "nu")) <= NU_MAX:
            raise DomainError(f"|nu| must not exceed {NU_MAX}, got {self.nu}")
        if len(self.taus) < 2 or any(check_real(t, "tau") <= 0 for t in self.taus):
            raise DomainError("taus must hold at least two positive values")
        if list(self.taus) != sorted(self.taus):
            raise DomainError("taus must be increasing")
        if not (0.5 <= check_real(self.phase_budget, "phase_budget") <= 100.0):
            raise DomainError(f"phase_budget must lie in [0.5, 100], got {self.phase_budget}")
        check_integer(self.gl_order, "gl_order", 8, 64)


@dataclass(frozen=True)
class DecayResult:
    """Evaluated integrals over the tau grid plus the fitted decay law."""

    spec: OscIntegralSpec
    taus: tuple
    values: tuple
    fit: FitResult


@lru_cache(maxsize=8)
def _gl_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_integral(phase_fn, amp_fn, a, b, tau, budget, order) -> complex:
    """Oscillatory integral by phase-equidistributed Gauss-Legendre panels.

    The phase is tabulated on a fixed fine grid; panel edges are placed so
    each panel sees at most `budget` radians of accumulated phase, then
    GL(order) integrates amp * exp(i phase) per panel.  Panel count is
    capped; beyond the cap the requested tau is out of contract.
    """
    grid = np.linspace(a, b, _PHASE_GRID)
    ph = tau * phase_fn(grid)
    arc = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(ph)))))
    total = float(arc[-1])
    n_pan = max(1, int(math.ceil(total / budget)))
    if n_pan > _PANEL_CAP:
        raise QuadratureError(f"panel count {n_pan} exceeds cap at tau={tau}")
    targets = np.linspace(0.0, total, n_pan + 1)
    edges = np.interp(targets, arc, grid)
    edges[0], edges[-1] = a, b
    nodes, weights = _gl_nodes(order)
    acc = 0.0 + 0.0j
    for start in range(0, n_pan, _PANEL_CHUNK):
        lo = edges[start : min(start + _PANEL_CHUNK, n_pan)]
        hi = edges[start + 1 : min(start + _PANEL_CHUNK, n_pan) + 1]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * nodes[None, :]
        vals = amp_fn(t) * np.exp(1j * tau * phase_fn(t))
        acc += complex(np.sum(half[:, None] * weights[None, :] * vals))
    return acc


def oscillatory_decay(spec: OscIntegralSpec) -> DecayResult:
    """Evaluate the curved-phase integral over the tau grid and fit |I(tau)|.

    The fitted exponent is the observable the curved-boundary estimates
    predict; the quadrature is deterministic for a fixed spec.
    """
    if spec.kind == "curved_a":
        amp, phase = _amp_curved_a, (lambda t: _phase_curved_a(t, spec.nu))
    else:
        amp, phase = _amp_curved_b, (lambda t: _phase_curved_b(t, spec.nu))
    values = []
    for tau in spec.taus:
        values.append(
            _panel_integral(phase, amp, 0.0, 2.0, float(tau), spec.phase_budget, spec.gl_order)
        )
    mags = np.abs(np.array(values))
    if np.any(mags <= 0.0):
        raise QuadratureError("vanishing modulus in decay fit")
    fit = _power_fit(np.log(np.array(spec.taus)), np.log(mags))
    return DecayResult(spec=spec, taus=tuple(spec.taus), values=tuple(values), fit=fit)


def linear_segment_integral(
    kind: str, xi: float, eta: float, *, eps: float = 0.5, length: float = 1.0
) -> complex:
    """Closed-form boundary integrals along the straight sides.

    kind "vertical":   (1/xi) int_0^{2 eps} e^{i y eta} dy, needs xi != 0;
    kind "horizontal": (i/eta) int_0^{length} e^{i x xi} dx, needs eta != 0.
    Both are exact, no quadrature: the straight sides contribute only
    these elementary factors to the remainder analysis.
    """
    xi, eta = check_real(xi, "xi"), check_real(eta, "eta")
    eps, length = check_real(eps, "eps"), check_real(length, "length")
    if kind == "vertical":
        if xi == 0.0:
            raise DomainError("vertical segment integral needs xi != 0")
        if eps <= 0.0:
            raise DomainError(f"eps must be positive, got {eps}")
        if eta == 0.0:
            return complex(2.0 * eps / xi)
        return complex((np.exp(2j * eps * eta) - 1.0) / (1j * eta * xi))
    if kind == "horizontal":
        if eta == 0.0:
            raise DomainError("horizontal segment integral needs eta != 0")
        if length <= 0.0:
            raise DomainError(f"length must be positive, got {length}")
        if xi == 0.0:
            return complex(1j * length / eta)
        return complex((1j / eta) * (np.exp(1j * length * xi) - 1.0) / (1j * xi))
    raise DomainError(f"kind must be 'vertical' or 'horizontal', got {kind!r}")
