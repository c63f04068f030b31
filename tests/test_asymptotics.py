"""Remainder scans, envelope fits, the beta series, and oscillatory decay."""

import math

import numpy as np
import pytest

from diskspec import (
    DEFAULT_TAUS,
    NU_MAX,
    CountSample,
    DecayResult,
    DomainError,
    FitResult,
    OscIntegralSpec,
    QuadratureError,
    amplitude_cutoff,
    beta_series,
    count_disk,
    count_lattice,
    fit_envelope,
    linear_segment_integral,
    oscillatory_decay,
    scan_remainder,
)

# |I(tau)| tau^(2/3) for the cubic phase with unit amplitude at the origin:
# Gamma(2/3) / 3, frozen from the stationary-phase closed form.
CUBIC_DECAY_CONSTANT = 0.45137264647546682


def _synthetic(mus, values, as_diff=False):
    out = []
    for mu, v in zip(mus, values):
        out.append(
            CountSample(
                mu=float(mu),
                n_disk=0,
                n_lattice=0,
                weyl2=0.0,
                remainder=0.0 if as_diff else float(v),
                diff=int(v) if as_diff else 0,
            )
        )
    return out


def test_scan_grid_and_sample_consistency():
    samples = scan_remainder(10.0, 20.0, 2.0)
    assert len(samples) == 6
    offset = 2.0 * 0.01 / math.sqrt(2.0)
    assert samples[0].mu == pytest.approx(10.0 + offset, abs=1e-12)
    assert samples[-1].mu == pytest.approx(20.0 + offset, abs=1e-12)
    gaps = np.diff([s.mu for s in samples])
    assert gaps == pytest.approx(np.full(5, 2.0), abs=1e-12)
    for s in samples:
        assert s.n_disk == count_disk(s.mu)
        assert s.n_lattice == count_lattice(s.mu)
        assert s.remainder == pytest.approx(s.n_disk - s.weyl2, abs=0.0)
        assert s.diff == s.n_disk - s.n_lattice


def test_scan_validation():
    with pytest.raises(DomainError):
        scan_remainder(0.0, 10.0, 1.0)
    with pytest.raises(DomainError):
        scan_remainder(20.0, 10.0, 1.0)
    with pytest.raises(DomainError):
        scan_remainder(10.0, 20.0, -1.0)
    with pytest.raises(DomainError):
        scan_remainder(10.0, 1799.999, 1.0)


def test_envelope_recovers_planted_power_laws():
    mus = np.linspace(10.0, 500.0, 200)
    fit = fit_envelope(_synthetic(mus, 3.0 * mus ** (2.0 / 3.0)))
    assert isinstance(fit, FitResult)
    assert fit.exponent == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert fit.log_amplitude == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.r_squared > 0.999999
    assert fit.n_points == 10

    fit_half = fit_envelope(_synthetic(mus, 0.7 * np.sqrt(mus)))
    assert fit_half.exponent == pytest.approx(0.5, abs=1e-9)


def test_envelope_sees_through_oscillation():
    mus = np.linspace(10.0, 500.0, 400)
    vals = 2.0 * mus ** (2.0 / 3.0) * (1.0 + 0.3 * np.sin(7.0 * mus))
    fit = fit_envelope(_synthetic(mus, vals))
    assert fit.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
    assert fit.r_squared > 0.99


def test_envelope_on_integer_diff_field():
    mus = np.linspace(10.0, 500.0, 200)
    samples = _synthetic(mus, np.round(np.sqrt(mus)), as_diff=True)
    fit = fit_envelope(samples, field_name="diff")
    assert fit.exponent == pytest.approx(0.5, abs=0.1)


def test_envelope_degenerate_inputs():
    mus = np.linspace(10.0, 100.0, 200)
    with pytest.raises(DomainError):
        fit_envelope(_synthetic(mus, np.zeros(200)))
    with pytest.raises(DomainError):
        fit_envelope(_synthetic(mus[:100], np.ones(100)), block_size=20)
    with pytest.raises(DomainError):
        fit_envelope(_synthetic(mus, np.ones(200)), block_size=1)
    with pytest.raises(DomainError):
        fit_envelope([])


def test_beta_series_limits_and_convergence():
    for beta in (0.25, 1.0 / 3.0):
        # The closed form of the full series.
        limit = 2.0 * math.pi * (0.5 - beta)
        abel = beta_series(beta, 20000, summation="abel")
        assert abs(abel - limit) <= 2e-4
        plain = beta_series(beta, 20000, summation="plain")
        assert abs(plain - limit) <= 5e-3


def test_beta_series_antisymmetry():
    s = beta_series(0.3, 5000) + beta_series(0.7, 5000)
    assert s == pytest.approx(0.0, abs=1e-8)


def test_beta_series_validation():
    with pytest.raises(DomainError):
        beta_series(0.0, 1000)
    with pytest.raises(DomainError):
        beta_series(1.0, 1000)
    with pytest.raises(DomainError):
        beta_series(0.25, 5)
    with pytest.raises(DomainError):
        beta_series(0.25, 1000, summation="cesaro")


def test_amplitude_cutoff_shape():
    assert amplitude_cutoff(0.0) == 1.0
    assert amplitude_cutoff(0.5) == 1.0
    assert amplitude_cutoff(1.0) == 1.0
    assert amplitude_cutoff(2.0) == 0.0
    assert amplitude_cutoff(2.5) == 0.0
    assert amplitude_cutoff(-0.3) == 0.0
    assert 0.0 < amplitude_cutoff(1.5) < 1.0
    arr = amplitude_cutoff(np.array([0.0, 1.5, 3.0]))
    assert arr.shape == (3,)
    assert arr[0] == 1.0 and arr[2] == 0.0


def test_spec_validation():
    with pytest.raises(DomainError):
        OscIntegralSpec(kind="curved_c")
    with pytest.raises(DomainError):
        OscIntegralSpec(kind="curved_a", nu=NU_MAX + 0.1)
    with pytest.raises(DomainError):
        OscIntegralSpec(kind="curved_a", taus=(100.0,))
    with pytest.raises(DomainError):
        OscIntegralSpec(kind="curved_a", taus=(1e3, 1e2))
    with pytest.raises(DomainError):
        OscIntegralSpec(kind="curved_a", phase_budget=0.1)
    with pytest.raises(DomainError):
        OscIntegralSpec(kind="curved_a", gl_order=4)
    assert OscIntegralSpec(kind="curved_b").taus == DEFAULT_TAUS


def test_cubic_phase_matches_stationary_constant():
    # For t^3 phase and amplitude t, |I(tau)| ~ (Gamma(2/3)/3) tau^(-2/3).
    spec = OscIntegralSpec(kind="curved_b", nu=0.0, taus=(1e4, 1e5))
    res = oscillatory_decay(spec)
    scaled = abs(res.values[1]) * 1e5 ** (2.0 / 3.0)
    assert scaled == pytest.approx(CUBIC_DECAY_CONSTANT, abs=1e-8)


def test_quadratic_phase_decay_rate():
    taus = tuple(float(t) for t in np.logspace(3.0, 6.0, 7))
    res = oscillatory_decay(OscIntegralSpec(kind="curved_a", nu=0.0, taus=taus))
    assert isinstance(res, DecayResult)
    assert res.fit.exponent == pytest.approx(-0.5, abs=0.08)
    assert res.fit.r_squared > 0.95
    mags = np.abs(np.array(res.values))
    assert np.all(np.diff(mags) < 0.0)


def test_decay_is_deterministic():
    spec = OscIntegralSpec(kind="curved_b", nu=0.1, taus=(1e2, 1e3))
    a = oscillatory_decay(spec)
    b = oscillatory_decay(spec)
    assert a.values == b.values
    assert a.fit == b.fit


def test_panel_cap_guards_extreme_frequencies():
    with pytest.raises(QuadratureError):
        oscillatory_decay(OscIntegralSpec(kind="curved_b", taus=(1e8, 2e8)))


def test_linear_segment_closed_forms():
    # Flat-phase cases are elementary.
    assert linear_segment_integral("vertical", 3.0, 0.0) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )
    assert linear_segment_integral("horizontal", 0.0, 5.0, length=10.0) == 2.0j

    # Generic cases against plain trapezoid quadrature of the definition.
    def trap(f_vals, h):
        return (np.sum(f_vals) - 0.5 * (f_vals[0] + f_vals[-1])) * h

    ys = np.linspace(0.0, 1.0, 20001)
    quad_v = trap(np.exp(1j * ys * 5.0), ys[1] - ys[0]) / 2.0
    got_v = linear_segment_integral("vertical", 2.0, 5.0, eps=0.5)
    assert got_v == pytest.approx(quad_v, abs=1e-8)

    xs = np.linspace(0.0, 1.0, 20001)
    quad_h = 1j / 2.0 * trap(np.exp(1j * xs * 3.0), xs[1] - xs[0])
    got_h = linear_segment_integral("horizontal", 3.0, 2.0)
    assert got_h == pytest.approx(quad_h, abs=1e-8)


def test_linear_segment_uniform_bound():
    # |I_v| <= min(2 eps, 2/|eta|) / |xi| uniformly in eta.
    for eta in (0.001, 0.5, 3.0, 40.0, 1000.0):
        val = abs(linear_segment_integral("vertical", 2.0, eta, eps=0.5))
        assert val <= min(1.0, 2.0 / eta) / 2.0 + 1e-15


def test_linear_segment_validation():
    with pytest.raises(DomainError):
        linear_segment_integral("vertical", 0.0, 1.0)
    with pytest.raises(DomainError):
        linear_segment_integral("horizontal", 1.0, 0.0)
    with pytest.raises(DomainError):
        linear_segment_integral("diagonal", 1.0, 1.0)
    with pytest.raises(DomainError):
        linear_segment_integral("vertical", 1.0, 1.0, eps=-0.5)
    with pytest.raises(DomainError):
        linear_segment_integral("horizontal", 1.0, 1.0, length=0.0)
    with pytest.raises(DomainError):
        linear_segment_integral("vertical", math.nan, 1.0)
