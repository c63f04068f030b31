"""Acceptance gate: the eleven pinned numerical claims, one test each.

Shared fixtures compute the full zero table (criteria 1 and 2) and the
200-point remainder scan (criteria 5 and 6) once per module.  Measured
constants are printed so runs leave a numeric trail next to pass/fail.
"""

import math
import time

import numpy as np
import pytest

from diskspec import (
    DEFAULT_TAUS,
    OscIntegralSpec,
    airy_zero,
    area_D,
    beta_series,
    brute_force_count,
    count_disk,
    count_lattice,
    fit_envelope,
    initial_guess,
    linear_segment_integral,
    oscillatory_decay,
    psi,
    refine_zero,
    sandwich_check,
    scan_remainder,
    zeros_up_to,
)
from oracles import bessel_trapezoid

RNG_SEED = 20250825


@pytest.fixture(scope="module")
def zero_table():
    start = time.perf_counter()
    table = {n: zeros_up_to(n, 500.0) for n in range(0, 501)}
    elapsed = time.perf_counter() - start
    return table, elapsed


@pytest.fixture(scope="module")
def remainder_scan():
    start = time.perf_counter()
    samples = scan_remainder(50.0, 1500.0, (1500.0 - 50.0) / 199.0)
    elapsed = time.perf_counter() - start
    assert len(samples) == 200
    return samples, elapsed


def test_criterion_01_zero_certification(zero_table):
    table, elapsed = zero_table
    total = 0
    worst_residual = 0.0
    worst_relative_width = 0.0
    for zs in table.values():
        for z in zs:
            total += 1
            worst_residual = max(worst_residual, z.residual)
            worst_relative_width = max(worst_relative_width, z.bracket_width / z.x)
    print(
        f"criterion 01: {total} zeros to mu=500 in {elapsed:.1f} s, "
        f"max residual {worst_residual:.3e}, max width/x {worst_relative_width:.3e}"
    )
    assert total > 30000
    assert worst_residual <= 1e-10
    assert worst_relative_width <= 1e-12
    assert elapsed < 120.0, f"enumeration took {elapsed:.1f} s, budget 120 s"


def test_criterion_02_trapezoid_oracle_agreement(zero_table):
    table, _ = zero_table
    pairs = [(z.n, z.x) for zs in table.values() for z in zs]
    rng = np.random.default_rng(RNG_SEED)
    picks = rng.integers(0, len(pairs), size=1000)
    worst = 0.0
    for i in picks:
        n, x = pairs[int(i)]
        worst = max(worst, abs(bessel_trapezoid(n, x)))
    print(f"criterion 02: worst oracle |J_n(x)| over 1000 zeros = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_03_exact_small_counts():
    assert count_disk(3.0) == 1
    assert count_disk(4.0) == 3
    assert count_disk(5.2) == 5
    assert count_lattice(3.0) == 1
    assert count_lattice(4.0) == 3
    rng = np.random.default_rng(RNG_SEED)
    mus = rng.uniform(1.0, 300.0, size=50)
    for mu in mus:
        assert count_lattice(float(mu)) == brute_force_count(float(mu))
    print("criterion 03: 50 random scales agree with brute force exactly")


def test_criterion_04_area_quarter():
    area = area_D()
    print(f"criterion 04: area = {area:.12f}")
    assert area == pytest.approx(0.25, abs=1e-8)


def test_criterion_05_two_term_remainder(remainder_scan):
    samples, elapsed = remainder_scan
    ratios = np.array([abs(s.remainder) / s.mu ** (2.0 / 3.0) for s in samples])
    fit = fit_envelope(samples, block_size=20, field_name="remainder")
    print(
        f"criterion 05: max |R|/mu^(2/3) = {ratios.max():.4f}, envelope exponent "
        f"= {fit.exponent:.4f} (r2 {fit.r_squared:.3f}), scan {elapsed:.1f} s"
    )
    assert np.all(np.isfinite(ratios))
    assert ratios.max() <= 10.0
    assert fit.exponent <= 0.75, f"envelope exponent {fit.exponent:.4f} above 0.75"
    assert elapsed < 900.0, f"scan took {elapsed:.1f} s, budget 900 s"


def test_criterion_06_route_comparison(remainder_scan):
    samples, _ = remainder_scan
    ratios = np.array([abs(s.diff) / s.mu ** (2.0 / 3.0) for s in samples])
    fit = fit_envelope(samples, block_size=20, field_name="diff")
    print(
        f"criterion 06: max |diff|/mu^(2/3) = {ratios.max():.4f}, "
        f"envelope slope = {fit.exponent:.4f}"
    )
    assert np.all(np.isfinite(ratios))
    assert fit.exponent <= 0.75, f"diff envelope slope {fit.exponent:.4f} above 0.75"


def test_criterion_07_transition_guess_decay():
    errors = {}
    for n in (10, 100, 1000):
        scale = float(n) ** (2.0 / 3.0)
        for k in range(1, 6):
            pred = n * (1.0 + psi(airy_zero(k).t / scale))
            zero = refine_zero(n, initial_guess(n, k))
            assert zero.k == k
            errors[(n, k)] = abs(zero.x - pred)
    ratios = []
    for k in range(1, 6):
        ratios.append(errors[(100, k)] / errors[(10, k)])
        ratios.append(errors[(1000, k)] / errors[(100, k)])
    print(
        f"criterion 07: decade error ratios in "
        f"[{min(ratios):.4f}, {max(ratios):.4f}]"
    )
    for r in ratios:
        assert 0.03 <= r <= 0.3, f"decade ratio {r:.4f} outside [0.03, 0.3]"


def test_criterion_08_airy_seed_correction():
    ks = np.arange(1, 101)
    ts = np.array([airy_zero(int(k)).t for k in ks])
    seeds = (1.5 * math.pi * (ks - 0.25)) ** (2.0 / 3.0)
    scaled = np.abs(ts - seeds) * ks
    print(
        f"criterion 08: k-scaled seed corrections fall from {scaled[0]:.5f} "
        f"to {scaled[-1]:.5f}"
    )
    assert abs(ts[0] - 2.3381074) <= 1e-6
    assert np.all(np.isfinite(scaled)) and scaled.max() <= 1.0
    assert np.all(np.diff(scaled) <= 1e-9), "k-scaled correction not non-increasing"


def test_criterion_09_mollified_sandwich():
    for mu in (10.0, 20.0):
        res = sandwich_check(mu)
        print(
            f"criterion 09: mu={mu} -> {res.n_minus:.4f} <= {res.n_exact:.4f} "
            f"<= {res.n_plus:.4f} (eps={res.eps:.4f})"
        )
        assert res.eps == pytest.approx(mu ** (-1.0 / 3.0), rel=1e-15)
        assert res.holds, (
            f"sandwich violated at mu={mu}: "
            f"{res.n_minus} <= {res.n_exact} <= {res.n_plus}"
        )


def test_criterion_10_beta_series():
    for beta in (0.25, 1.0 / 3.0):
        limit = 2.0 * math.pi * (0.5 - beta)
        value = beta_series(beta, 100000, summation="abel")
        print(
            f"criterion 10: beta={beta:.4f} abel sum {value:.8f} vs "
            f"2 pi (1/2 - beta) = {limit:.8f}"
        )
        assert abs(value - limit) <= 1e-3, (
            f"beta={beta}: |{value:.8f} - {limit:.8f}| > 1e-3"
        )


@pytest.mark.parametrize(
    "kind,nu",
    [
        ("curved_a", 0.0),
        ("curved_a", 0.1),
        ("curved_a", -0.1),
        ("curved_b", 0.0),
        ("curved_b", 0.1),
        ("curved_b", -0.1),
    ],
)
def test_criterion_11_decay_exponent(kind, nu):
    res = oscillatory_decay(OscIntegralSpec(kind=kind, nu=nu, taus=DEFAULT_TAUS))
    slope = res.fit.exponent
    print(f"criterion 11: {kind} nu={nu:+.1f} fitted exponent {slope:.4f}")
    assert -0.6 <= slope <= -0.4, (
        f"{kind} nu={nu:+.1f}: fitted exponent {slope:.4f} outside [-0.6, -0.4] "
        f"(r2 {res.fit.r_squared:.4f})"
    )


def test_criterion_11_linear_part_exact():
    value = linear_segment_integral("horizontal", 0.0, 5.0, length=10.0)
    print(f"criterion 11: I_h(0, 5) with length 10 = {value}")
    assert value == 2.0j
