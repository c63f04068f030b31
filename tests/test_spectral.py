"""Disk eigenvalue counting against the lattice route and a sweep oracle."""

import math

import numpy as np
import pytest

import diskspec.spectral as spectral
from diskspec import (
    MU_MAX,
    CountSample,
    DomainError,
    column_count,
    compare_counts,
    count_disk,
    count_lattice,
    count_sample,
    disk_counts_many,
    inner_residual,
    sandwich_check,
    weyl_remainder,
    weyl_two_term,
)
from diskspec.errors import MAX_THREADS
from oracles import disk_count_by_sweep

J0_ZERO_1 = 2.4048255576957729
# x_1(0) - F(0, 3/4) = j_{0,1} - 3 pi / 4, frozen from the two routes.
INNER_RESIDUAL_0_1 = 0.048631067503428049


def test_frozen_small_disk_counts():
    assert count_disk(3.0) == 1
    assert count_disk(4.0) == 3
    assert count_disk(5.6) == 6


def test_count_jumps_exactly_at_zeros():
    assert count_disk(2.404) == 0
    assert count_disk(J0_ZERO_1) == 1


def test_disk_count_matches_sweep_oracle():
    for mu in (10.0, 25.3):
        assert count_disk(mu) == disk_count_by_sweep(mu)


def test_threading_does_not_change_counts():
    assert disk_counts_many([300.0], threads=4).tolist() == [count_disk(300.0)]


def test_batch_counts_match_single_calls():
    mus = [10.0, 25.3, 40.0, 77.2]
    batch = disk_counts_many(mus)
    assert batch.tolist() == [count_disk(m) for m in mus]
    assert np.all(np.diff(disk_counts_many(np.linspace(5.0, 60.0, 12))) >= 0)


def test_weyl_two_term_values():
    assert weyl_two_term(10.0) == 20.0
    assert weyl_two_term(2.0) == 0.0
    assert weyl_remainder(10.0, 23) == 3.0


def test_count_sample_is_consistent():
    s = count_sample(25.3)
    assert isinstance(s, CountSample)
    assert s.n_disk == count_disk(25.3)
    assert s.n_lattice == count_lattice(25.3)
    assert s.weyl2 == weyl_two_term(25.3)
    assert s.remainder == s.n_disk - s.weyl2
    assert s.diff == s.n_disk - s.n_lattice
    assert compare_counts(25.3) == s.diff


def test_compare_counts_small_scales():
    assert compare_counts(3.0) == 0
    assert compare_counts(4.0) == 0


def test_routes_track_each_other():
    # The two counts differ by O(mu^(2/3)); at mu = 24.014 the lattice
    # route leads by 2, so exact agreement is not the invariant.
    for mu in (24.014, 50.0, 120.0):
        diff = compare_counts(mu)
        assert abs(diff) <= 1.0 * mu ** (2.0 / 3.0)


def test_inner_residual_frozen_and_decay():
    assert inner_residual(0, 1) == pytest.approx(INNER_RESIDUAL_0_1, abs=1e-12)
    vals = [inner_residual(0, k) for k in (1, 2, 5, 20)]
    assert all(v > 0.0 for v in vals)
    assert vals == sorted(vals, reverse=True)
    assert inner_residual(2, 7) > 0.0
    assert inner_residual(5, 6) > 0.0


def test_inner_residual_regime_guard():
    with pytest.raises(DomainError):
        inner_residual(5, 5)
    with pytest.raises(DomainError):
        inner_residual(3, 1)
    with pytest.raises(DomainError):
        inner_residual(0, 0)
    with pytest.raises(DomainError):
        inner_residual(1.5, 3)


def test_scale_validation():
    with pytest.raises(DomainError):
        count_disk(0.0)
    with pytest.raises(DomainError):
        count_disk(MU_MAX * 1.01)
    with pytest.raises(DomainError):
        count_disk(math.inf)
    with pytest.raises(DomainError):
        disk_counts_many([100.0], threads=0)
    with pytest.raises(DomainError):
        weyl_two_term(-3.0)
    entry_points = (
        count_disk,
        lambda mu: disk_counts_many([10.0, mu]),
        count_sample,
        count_lattice,
        lambda mu: column_count(0, mu),
        sandwich_check,
    )
    for call in entry_points:
        for bad in (math.nan, math.inf, -math.inf, 0.0, "3"):
            with pytest.raises(DomainError):
                call(bad)


def test_thread_count_is_bounded_before_any_thread_starts(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread pool was started")

    monkeypatch.setattr(spectral, "ThreadPoolExecutor", NoPool)
    for threads in (0, MAX_THREADS + 1, 2.0, True):
        with pytest.raises(DomainError):
            disk_counts_many([10.0, 20.0], threads=threads)
