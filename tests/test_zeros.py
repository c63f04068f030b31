"""Certified Bessel-zero enumeration against bisection-only oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskspec.zeros as zeros_mod
from diskspec import (
    MU_MAX,
    S_MAX,
    BesselZero,
    DomainError,
    RefinementError,
    g_profile,
    initial_guess,
    psi,
    refine_zero,
    zero_array,
    zeros_up_to,
)
from oracles import bessel_trapezoid, sweep_bessel_zeros

# Frozen zeros, derived once from trapezoid-route bisection.
J0_ZERO_1 = 2.4048255576957729
J0_ZERO_2 = 5.5200781102863115
J1_ZERO_1 = 3.831705970207512
J1_ZERO_2 = 7.0155866698156188
J1_ZERO_3 = 10.173468135062723
J5_ZERO_1 = 8.7714838159599537
PSI_SLOPE_AT_0 = 0.79370052598409979


def test_frozen_low_order_zeros():
    xs0 = [z.x for z in zeros_up_to(0, 6.0)]
    assert xs0 == pytest.approx([J0_ZERO_1, J0_ZERO_2], abs=1e-12)
    xs1 = [z.x for z in zeros_up_to(1, 11.0)]
    assert xs1 == pytest.approx([J1_ZERO_1, J1_ZERO_2, J1_ZERO_3], abs=1e-12)
    assert zeros_up_to(5, 9.0)[0].x == pytest.approx(J5_ZERO_1, abs=1e-12)


def test_phase_increment_properties():
    assert psi(0.0) == 0.0
    assert psi(1e-4) / 1e-4 == pytest.approx(PSI_SLOPE_AT_0, rel=1e-3)
    for s in (0.5, 2.0, 5.0):
        z = 1.0 + psi(s)
        lhs = math.sqrt(z**2 - 1.0) - math.acos(1.0 / z)
        assert lhs == pytest.approx((2.0 / 3.0) * s**1.5, abs=1e-12)
    with pytest.raises(DomainError):
        psi(-0.1)
    with pytest.raises(DomainError):
        psi(S_MAX + 1.0)
    with pytest.raises(DomainError):
        psi(math.nan)


def test_phase_equals_scaled_profile():
    # sqrt(z^2-1) - arccos(1/z) = pi z g(1/z) links the zero phase to the
    # lattice profile; both modules must agree on it.
    for z in (1.1, 2.0, 5.0, 40.0):
        lhs = math.sqrt(z * z - 1.0) - math.acos(1.0 / z)
        assert lhs == pytest.approx(math.pi * z * g_profile(1.0 / z), rel=1e-14)


def test_initial_guess_accuracy_and_slot():
    for n, k in [(50, 1), (50, 10), (50, 50), (50, 60), (50, 120), (0, 3), (7, 2)]:
        guess = initial_guess(n, k)
        zero = refine_zero(n, guess)
        assert zero.k == k, f"guess for (n={n}, k={k}) refined into slot {zero.k}"
        assert abs(zero.x - guess) < 0.2


def test_initial_guess_validation():
    with pytest.raises(DomainError):
        initial_guess(-1, 1)
    with pytest.raises(DomainError):
        initial_guess(2.5, 1)
    with pytest.raises(DomainError):
        initial_guess(0, 0)
    with pytest.raises(DomainError):
        initial_guess(0, True)


def test_refine_zero_certificate_fields():
    z = refine_zero(0, 2.3)
    assert z.n == 0 and z.k == 1
    assert z.x == pytest.approx(J0_ZERO_1, abs=1e-13)
    assert z.residual <= 1e-10
    assert 0.0 < z.bracket_width <= 1e-12 * z.x
    assert isinstance(z, BesselZero)


def test_refine_zero_in_zero_free_region():
    # J_500 has no zeros below 500; nothing to bracket near 100.
    with pytest.raises(RefinementError):
        refine_zero(500, 100.0)


def test_refine_zero_validation():
    with pytest.raises(DomainError):
        refine_zero(-1, 5.0)
    with pytest.raises(DomainError):
        refine_zero(0, -3.0)
    with pytest.raises(DomainError):
        refine_zero(0, math.inf)


def test_zeros_match_sweep_oracle():
    for n, mu in [(0, 35.0), (3, 30.0), (7, 40.0), (10, 32.0)]:
        got = [z.x for z in zeros_up_to(n, mu)]
        want = sweep_bessel_zeros(n, mu)
        assert len(got) == len(want)
        assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 12), st.floats(0.5, 28.0))
def test_zero_counts_match_oracle(n, mu):
    assert len(zeros_up_to(n, mu)) == len(sweep_bessel_zeros(n, mu))


def test_zero_list_structure():
    zs = zeros_up_to(4, 30.0)
    assert [z.k for z in zs] == list(range(1, len(zs) + 1))
    xs = np.array([z.x for z in zs])
    assert np.all(np.diff(xs) > 1.0)
    assert xs[0] > 4.0
    assert all(z.residual <= 1e-10 for z in zs)
    assert all(z.bracket_width <= 1e-12 * z.x for z in zs)


def test_residuals_against_trapezoid_route():
    for z in zeros_up_to(3, 25.0):
        assert abs(bessel_trapezoid(3, z.x)) <= 1e-10


def test_consecutive_orders_interlace():
    a = zero_array(2, 40.0)
    b = zero_array(3, 40.0)
    for k in range(min(a.size - 1, b.size)):
        assert a[k] < b[k] < a[k + 1]


def test_empty_ranges():
    assert zeros_up_to(40, 30.0) == []
    assert zeros_up_to(5, 5.0) == []
    assert zero_array(12, 3.0).size == 0


def test_cutoff_validation():
    with pytest.raises(DomainError):
        zeros_up_to(0, 0.0)
    with pytest.raises(DomainError):
        zeros_up_to(0, -4.0)
    with pytest.raises(DomainError):
        zeros_up_to(0, MU_MAX * 1.01)
    with pytest.raises(DomainError):
        zero_array(0, math.inf)


def test_enumeration_is_deterministic():
    first = zero_array(10, 200.0)
    second = zero_array(10, 200.0)
    assert np.array_equal(first, second)


def test_large_order_enumeration():
    # Transition-regime guesses dominate here (k <= n for most slots).
    zs = zero_array(150, 400.0)
    assert zs.size > 0
    assert np.all(np.diff(zs) > 1.0)
    assert zs[0] > 150.0
    # Count agrees with the phase-space prediction within one.
    predicted = math.floor(400.0 * g_profile(150.0 / 400.0) + 0.25)
    assert abs(zs.size - predicted) <= 1


@pytest.mark.parametrize("n, mu", [(0, 40.0), (4, 30.0), (40, 60.0), (150, 400.0), (480, 500.0)])
def test_records_carry_their_own_certificates(n, mu):
    # Each zero is certified once inside the enumeration; the record must
    # carry that zero's residual and bracket width, not a neighbour's.
    zs = zeros_up_to(n, mu)
    assert zs
    xs = np.array([z.x for z in zs])
    residuals, widths = zeros_mod._certified_batch(n, xs)
    assert [z.residual for z in zs] == residuals.tolist()
    assert [z.bracket_width for z in zs] == widths.tolist()
    assert np.array_equal(zero_array(n, mu), xs)


def test_sweep_fallback_recovers_the_zeros(monkeypatch):
    orders = (0, 3, 17, 40)
    want = {n: zeros_up_to(n, 60.0) for n in orders}
    newton = zeros_mod._newton_vec
    sweep = zeros_mod._sweep_zeros
    swept = []

    def perturbed(n, guesses):
        # Off every zero by far more than the residual certificate allows.
        return newton(n, guesses) + 1e-3

    def counted_sweep(n, mu):
        swept.append(n)
        return sweep(n, mu)

    monkeypatch.setattr(zeros_mod, "_newton_vec", perturbed)
    monkeypatch.setattr(zeros_mod, "_sweep_zeros", counted_sweep)
    for n in orders:
        got = zeros_up_to(n, 60.0)
        assert len(got) == len(want[n]) > 0
        assert [z.k for z in got] == list(range(1, len(got) + 1))
        for g, w in zip(got, want[n]):
            assert abs(g.x - w.x) <= 1e-12 * w.x
            assert g.residual <= 1e-10
        xs = np.array([z.x for z in got])
        residuals, widths = zeros_mod._certified_batch(n, xs)
        assert [z.residual for z in got] == residuals.tolist()
        assert [z.bracket_width for z in got] == widths.tolist()
    assert swept == list(orders)
