"""Self-check suites: cross-route identities runnable from the CLI.

Each suite bundles checks whose failure would falsify a piece of the
counting story: special-function routes disagreeing, geometry identities
drifting, lattice counts diverging from brute force, the sandwich
inequality breaking, or the appendix integrals losing their closed-form
anchors.  Checks compare two independently computed numbers; none of them
assert against values produced by the code under test itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, geometry, lattice, special, spectral
from .errors import DomainError

__all__ = ["CheckResult", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    """One identity check: |measured - expected| <= tolerance must hold."""

    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: float


def _check(name: str, measured: float, expected: float, tol: float) -> CheckResult:
    ok = bool(abs(measured - expected) <= tol)
    return CheckResult(
        name=name, passed=ok, measured=float(measured), expected=float(expected),
        tolerance=float(tol),
    )


def _suite_special(mu: float | None) -> list[CheckResult]:
    out = []
    for n, x in ((0, 1.0), (2, 5.5), (5, 10.0), (50, 80.0)):
        fast = special.bessel_j(n, x)
        slow = special.bessel_quadrature_oracle(n, x)
        out.append(_check(f"bessel_routes_n{n}", fast - slow, 0.0, 1e-11))
    # Parity through the oracle route alone: J_n(-x) = (-1)^n J_n(x).
    for n, x in ((1, 3.7), (4, 9.2)):
        left = special.bessel_quadrature_oracle(n, -x)
        right = (-1.0) ** n * special.bessel_quadrature_oracle(n, x)
        out.append(_check(f"bessel_parity_n{n}", left - right, 0.0, 1e-12))
    # Three-term recurrence at a generic point.
    x = 7.3
    rec = special.bessel_j(2, x) + special.bessel_j(4, x) - (6.0 / x) * special.bessel_j(3, x)
    out.append(_check("bessel_recurrence", rec, 0.0, 1e-13))
    ai0, aip0 = special.airy_ai(0.0, want_derivative=True)
    out.append(_check("airy_at_zero", ai0, 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), 1e-14))
    out.append(_check("airy_deriv_at_zero", aip0, -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), 1e-14))
    z1 = special.airy_zero(1)
    out.append(_check("airy_zero_1", z1.t, 2.33810741045977, 1e-11))
    corr = [abs(special.airy_zero(k).correction) for k in range(1, 21)]
    violation = max(float(np.max(np.diff(corr))), 0.0)
    out.append(_check("airy_correction_shrinks", violation, 0.0, 1e-12))
    return out


def _suite_geometry(mu: float | None) -> list[CheckResult]:
    out = [
        _check("area_quadrature", geometry.area_D(), 0.25, 1e-9),
        _check("profile_left_end", geometry.g_profile(-1.0), 1.0, 1e-15),
        _check("profile_right_end", geometry.g_profile(1.0), 0.0, 1e-15),
        _check("profile_center", geometry.g_profile(0.0), 1.0 / math.pi, 1e-15),
    ]
    # Reflection identity g(-x) = g(x) + x ties the two cusps together.
    xs = np.linspace(-1.0, 1.0, 41)
    dev = float(np.max(np.abs(geometry.g_profile(-xs) - geometry.g_profile(xs) - xs)))
    out.append(_check("profile_reflection", dev, 0.0, 1e-14))
    # Scale function: degree-1 homogeneity and the vertical-axis value.
    f1 = geometry.scale_function(0.3, 0.8)
    f2 = geometry.scale_function(0.6, 1.6)
    out.append(_check("scale_homogeneity", f2 - 2.0 * f1, 0.0, 1e-10))
    out.append(_check("scale_on_axis", geometry.scale_function(0.0, 2.0), 2.0 * math.pi, 1e-12))
    # Scale function inverts the profile: F(x, g(x)) = 1.
    dev = max(
        abs(geometry.scale_function(x, geometry.g_profile(x)) - 1.0)
        for x in (-0.75, -0.25, 0.2, 0.6, 0.95)
    )
    out.append(_check("scale_inverts_profile", dev, 0.0, 1e-10))
    p = geometry.involution(geometry.involution((0.37, 0.81)))
    out.append(_check("involution_squared", abs(p[0] - 0.37) + abs(p[1] - 0.81), 0.0, 1e-15))
    # On the shifted lattice the involution is exact integer arithmetic.
    q = geometry.involution(geometry.involution((7.0, 11.0 - 0.25)))
    out.append(_check("involution_exact_on_lattice", abs(q[0] - 7.0) + abs(q[1] - 10.75), 0.0, 0.0))
    # Cusp law: g(1 - h) / h^(3/2) approaches 2 sqrt 2 / (3 pi).
    h = 1e-5
    ratio = geometry.g_profile(1.0 - h) / h**1.5
    out.append(_check("cusp_exponent", ratio, 2.0 * math.sqrt(2.0) / (3.0 * math.pi), 1e-4))
    return out


def _suite_lattice(mu: float | None) -> list[CheckResult]:
    scale = 30.0 if mu is None else float(mu)
    out = []
    out.append(
        _check(
            "column_vs_brute_total",
            lattice.count_lattice(scale) - lattice.brute_force_count(scale),
            0.0,
            0.0,
        )
    )
    # The shear symmetry of the domain forces equal column counts at +-n.
    m = int(math.floor(scale))
    dev = max(
        abs(lattice.column_count(n, scale) - lattice.column_count(-n, scale))
        for n in range(0, m + 1)
    )
    out.append(_check("column_shear_symmetry", float(dev), 0.0, 0.0))
    # Theorem-level relation: the routes agree to O(mu^(2/3)); the recorded
    # constant 1.0 is far above anything observed on scans.
    probe_mu = min(scale, 60.0)
    diff = spectral.compare_counts(probe_mu)
    out.append(_check("disk_vs_lattice_bound", float(diff), 0.0, probe_mu ** (2.0 / 3.0)))
    return out


def _suite_sandwich(mu: float | None) -> list[CheckResult]:
    scale = 10.0 if mu is None else float(mu)
    cfg = lattice.MollifyConfig()
    res = lattice.sandwich_check(scale, cfg)
    out = [
        _check("sandwich_lower", min(res.n_exact - res.n_minus, 0.0), 0.0, 1e-9),
        _check("sandwich_upper", min(res.n_plus - res.n_exact, 0.0), 0.0, 1e-9),
    ]
    half = lattice.MollifyConfig(eps_scale=0.5)
    res_half = lattice.sandwich_check(scale, half)
    out.append(_check("sandwich_lower_half_eps", min(res_half.n_exact - res_half.n_minus, 0.0), 0.0, 1e-9))
    out.append(_check("sandwich_upper_half_eps", min(res_half.n_plus - res_half.n_exact, 0.0), 0.0, 1e-9))
    fine = lattice.MollifyConfig(quad_cells=128)
    res_fine = lattice.sandwich_check(scale, fine)
    # Both bounds translate together when the grid is refined (boundary
    # straddling shifts); worst measured drift over scales 4..50 is 0.067,
    # while the gap n_plus - n_minus stays stable to ~1e-3.
    out.append(_check("sandwich_quad_stable_plus", res_fine.n_plus - res.n_plus, 0.0, 0.2))
    out.append(_check("sandwich_quad_stable_minus", res_fine.n_minus - res.n_minus, 0.0, 0.2))
    gap_drift = (res_fine.n_plus - res_fine.n_minus) - (res.n_plus - res.n_minus)
    out.append(_check("sandwich_quad_stable_gap", gap_drift, 0.0, 0.02))
    return out


def _suite_appendix(mu: float | None) -> list[CheckResult]:
    out = []
    val = asymptotics.beta_series(0.25, 2000, summation="abel")
    out.append(_check("beta_quarter_abel", val, math.pi / 2.0, 0.01))
    val3 = asymptotics.beta_series(1.0 / 3.0, 4000, summation="abel")
    out.append(_check("beta_third_abel", val3, math.pi / 3.0, 0.01))
    hz = asymptotics.linear_segment_integral("horizontal", 0.0, 5.0, length=10.0)
    out.append(_check("linear_horizontal_exact", abs(hz - 2.0j), 0.0, 0.0))
    vz = asymptotics.linear_segment_integral("vertical", 4.0, 3.0, eps=0.5)
    bound = 2.0 * 0.5 / 4.0
    out.append(_check("linear_vertical_bound", max(abs(vz) - bound, 0.0), 0.0, 0.0))
    # Quadrature self-consistency: tighter panels must not move the value.
    base = asymptotics.OscIntegralSpec(kind="curved_b", nu=0.1, taus=(1e3, 1e4))
    tight = asymptotics.OscIntegralSpec(
        kind="curved_b", nu=0.1, taus=(1e3, 1e4), phase_budget=6.0, gl_order=48
    )
    v1 = asymptotics.oscillatory_decay(base).values
    v2 = asymptotics.oscillatory_decay(tight).values
    dev = max(abs(a - b) / abs(b) for a, b in zip(v1, v2))
    out.append(_check("curved_self_consistency", dev, 0.0, 1e-8))
    # Interior stationary point of the A-model: half-power decay.
    spec_a = asymptotics.OscIntegralSpec(
        kind="curved_a", nu=0.0, taus=tuple(float(t) for t in np.logspace(2, 5, 10))
    )
    fit = asymptotics.oscillatory_decay(spec_a).fit
    out.append(_check("curved_a_half_power", fit.exponent, -0.5, 0.08))
    return out


SUITES = {
    "special": _suite_special,
    "geometry": _suite_geometry,
    "lattice": _suite_lattice,
    "sandwich": _suite_sandwich,
    "appendix": _suite_appendix,
}


def run_suite(name: str, mu: float | None = None) -> list[CheckResult]:
    """Run one named suite; unknown names raise DomainError."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](mu)
