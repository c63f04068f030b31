"""Shifted-lattice counting and the mollified sandwich machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskspec import (
    DomainError,
    MollifyConfig,
    SandwichResult,
    brute_force_count,
    chi0,
    chi_weight,
    column_count,
    count_lattice,
    g_profile,
    rho,
    sandwich_check,
)
from diskspec.lattice import _chi_weighted_count, _mollified_count
from oracles import column_by_membership, profile_height

# Frozen tiny counts, worked out by hand from the profile values.
COUNT_AT_3 = 1
COUNT_AT_4 = 3


def test_frozen_small_counts():
    assert count_lattice(3.0) == COUNT_AT_3
    assert count_lattice(4.0) == COUNT_AT_4
    assert count_lattice(0.5) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(-30, 30), st.floats(0.5, 35.0))
def test_column_matches_membership_oracle(n, mu):
    assert column_count(n, mu) == column_by_membership(n, mu)


@settings(max_examples=80, deadline=None)
@given(st.integers(-30, 30), st.floats(0.5, 35.0))
def test_column_shear_symmetry(n, mu):
    # The involution (x, y) -> (-x, y + x) maps columns onto each other.
    assert column_count(n, mu) == column_count(-n, mu)


def test_total_count_matches_brute_force():
    seeded = np.random.default_rng(21).uniform(60, 500, 8)
    for mu in (1.0, 5.0, 9.5, 17.3, 30.0, 61.7, *seeded):
        assert count_lattice(mu) == brute_force_count(mu)


def test_count_validation():
    with pytest.raises(DomainError):
        count_lattice(0.0)
    with pytest.raises(DomainError):
        count_lattice(math.nan)
    with pytest.raises(DomainError):
        column_count(1.5, 10.0)
    with pytest.raises(DomainError):
        brute_force_count(2001.0)


def test_mollifier_unit_mass():
    # Midpoint rule over the support; the bump is flat-derivative at r = 1,
    # so the rule converges faster than any power of the cell size.
    cells = 256
    xs = -1.0 + 2.0 * (np.arange(cells) + 0.5) / cells
    grid_x, grid_y = np.meshgrid(xs, xs)
    mass = float(np.sum(rho(grid_x, grid_y))) * (2.0 / cells) ** 2
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_mollifier_support_and_symmetry():
    assert rho(1.0, 0.0) == 0.0
    assert rho(0.0, -1.2) == 0.0
    assert rho(0.9, 0.9) == 0.0
    assert rho(0.0, 0.0) > rho(0.5, 0.0) > rho(0.0, 0.99) > 0.0
    assert rho(0.3, -0.4) == rho(-0.3, 0.4) == rho(0.4, 0.3)
    arr = rho(np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.0, 0.0]))
    assert arr.shape == (3,)
    assert arr[2] == 0.0 and arr[0] > arr[1] > 0.0


def test_angular_weight_knees():
    assert chi_weight(0.0) == 1.0
    assert chi_weight(0.15) == 1.0
    assert chi_weight(0.30) == 0.0
    assert chi_weight(0.5) == 0.0
    mid = chi_weight(0.22)
    assert 0.0 < mid < 1.0
    us = np.linspace(0.0, 0.45, 91)
    vals = chi_weight(us)
    assert np.all(np.diff(vals) <= 1e-15)


def test_cusp_weight_gate_and_slope():
    # Zero weight off the right half-plane.
    assert chi0(0.0, 0.3) == 0.0
    assert chi0(-0.2, 0.1) == 0.0
    # Radial gate: dead below r = 1/8, fully open from r = 1/4.
    assert chi0(0.1, 0.0) == 0.0
    assert chi0(0.3, 0.0) == 1.0
    assert chi0(1.0, 0.0) == 1.0
    # Slope cutoff at y/x = chi_support.
    assert chi0(0.3, 0.3 * 0.15) == 1.0
    assert chi0(0.3, 0.3 * 0.4) == 0.0
    out = chi0(np.array([[0.3, 0.1]]), np.array([[0.0, 0.0]]))
    assert out.shape == (1, 2)
    assert out[0, 0] == 1.0 and out[0, 1] == 0.0


def test_mollify_config_validation():
    with pytest.raises(DomainError):
        MollifyConfig(eps_exponent=0.0)
    with pytest.raises(DomainError):
        MollifyConfig(eps_exponent=0.6)
    with pytest.raises(DomainError):
        MollifyConfig(eps_scale=0.0)
    with pytest.raises(DomainError):
        MollifyConfig(eps_scale=1.5)
    with pytest.raises(DomainError):
        MollifyConfig(quad_cells=8)
    with pytest.raises(DomainError):
        MollifyConfig(chi_plateau=0.3, chi_support=0.2)
    assert MollifyConfig().epsilon(8.0) == pytest.approx(0.5, abs=1e-15)


def test_chi_weighted_count_matches_direct_sum():
    for mu in (10.0, 12.7, 25.3):
        direct = 0.0
        for n in range(1, int(mu) + 1):
            top = mu * profile_height(n / mu)
            k = 1
            while k - 0.25 <= top:
                direct += chi0(n / mu, (k - 0.25) / mu)
                k += 1
        assert sandwich_check(mu).n_exact == pytest.approx(direct, abs=1e-12)


def test_sandwich_holds_at_reference_scales():
    for mu in (10.0, 20.0):
        res = sandwich_check(mu)
        assert isinstance(res, SandwichResult)
        assert res.eps == pytest.approx(mu ** (-1.0 / 3.0), abs=1e-15)
        assert res.holds, (
            f"sandwich failed at mu={mu}: "
            f"{res.n_minus} <= {res.n_exact} <= {res.n_plus}"
        )
        assert res.n_plus > res.n_minus
        assert res.n_exact == pytest.approx(_chi_weighted_count(mu, MollifyConfig()), abs=0.0)
    # Outside [4, 50] the sandwich is out of contract.
    with pytest.raises(DomainError):
        sandwich_check(3.0)
    with pytest.raises(DomainError):
        sandwich_check(60.0)


def test_sandwich_stable_under_config_changes():
    base = sandwich_check(10.0)
    half = sandwich_check(10.0, MollifyConfig(eps_scale=0.5))
    fine = sandwich_check(10.0, MollifyConfig(quad_cells=128))
    assert half.holds and fine.holds
    # A smaller mollifier tightens the sandwich around the same count.
    assert half.n_exact == base.n_exact
    assert half.n_plus - half.n_minus < base.n_plus - base.n_minus
    # Refining the quadrature must not move the bounds materially.
    assert fine.n_plus == pytest.approx(base.n_plus, abs=0.05)
    assert fine.n_minus == pytest.approx(base.n_minus, abs=0.05)


def test_sandwich_determinism():
    a = sandwich_check(14.0)
    b = sandwich_check(14.0)
    assert (a.n_minus, a.n_exact, a.n_plus) == (b.n_minus, b.n_exact, b.n_plus)


def test_mollified_bounds_bracket_exact_count():
    cfg = MollifyConfig()
    res = sandwich_check(16.0, cfg)
    lo = _mollified_count(-1, 16.0, res.eps, cfg)
    hi = _mollified_count(+1, 16.0, res.eps, cfg)
    assert lo == res.n_minus and hi == res.n_plus
    assert lo <= _chi_weighted_count(16.0, cfg) <= hi


def test_profile_dilation_consistency():
    # The counting predicate uses mu * g(n/mu); spot check the dilation.
    mu = 9.0
    assert mu * g_profile(3.0 / mu) == pytest.approx(
        mu * profile_height(1.0 / 3.0), abs=1e-12
    )
