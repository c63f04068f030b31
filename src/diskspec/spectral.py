"""Dirichlet disk eigenvalue counting via certified Bessel zeros.

N(mu) counts eigenvalue square roots up to mu: each zero x of J_n with
x <= mu contributes once for n = 0 and twice for n >= 1 (angular
multiplicity).  The two-term Weyl prediction mu^2/4 - mu/2 leaves a
remainder this package studies; the lattice count over the cusped domain
must match N(mu) exactly, column for column.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError, RefinementError, check_integer, check_real, check_scale, check_threads,
)
from .geometry import scale_function
from .lattice import count_lattice
from .zeros import MU_MAX, initial_guess, refine_zero, zero_array

__all__ = [
    "INNER_REGIME_C",
    "BOUNDARY_SLACK",
    "CountSample",
    "count_disk",
    "disk_counts_many",
    "weyl_two_term",
    "weyl_remainder",
    "count_sample",
    "compare_counts",
    "inner_residual",
]

# The phase-space prediction of a zero is only compared against zeros with
# index beyond c * order; c = 1 keeps the comparison in the regime where
# the McMahon route is the guess authority.
INNER_REGIME_C = 1.0

# Relative slack applied to the cutoff so "x <= mu" is stable against the
# machine-scale residual of certified zeros.
BOUNDARY_SLACK = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class CountSample:
    """One scale: both counts, the two-term prediction, and the remainder."""

    mu: float
    n_disk: int
    n_lattice: int
    weyl2: float
    remainder: float
    diff: int


def _disk_counts(mus: list[float], threads: int) -> np.ndarray:
    """Shared body of count_disk and disk_counts_many, for validated scales.

    Rows are reduced in order index, so the counts do not depend on thread
    timing.
    """
    threads = check_threads(threads)
    if not mus:
        return np.zeros(0, dtype=np.int64)
    cutoffs = np.asarray(mus, dtype=float) * (1.0 + BOUNDARY_SLACK)
    top = float(np.max(cutoffs))
    orders = range(int(math.floor(top)) + 1)

    def counts_for(n: int) -> np.ndarray:
        return np.searchsorted(zero_array(n, top), cutoffs, side="right")

    if threads == 1:
        rows = [counts_for(n) for n in orders]
    else:
        # Kept only because perfbench's spectral.threads2_speedup metric asks for 2.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(counts_for, orders))
    total = np.array(rows[0], dtype=np.int64)
    for row in rows[1:]:
        total += 2 * row.astype(np.int64)
    return total


def count_disk(mu: float) -> int:
    """N(mu): number of Dirichlet disk eigenvalues with sqrt below mu.

    Sums certified zero counts over orders n = 0..floor(mu), weighting
    n >= 1 twice.
    """
    return int(_disk_counts([check_scale(mu, MU_MAX)], 1)[0])


def disk_counts_many(mus, threads: int = 1) -> np.ndarray:
    """N(mu) for a batch of scales, sharing one zero enumeration.

    Zeros of each order are enumerated once up to the largest scale and
    counted per scale by sorted search; identical to calling count_disk
    per scale, but linear instead of quadratic in the batch.
    """
    return _disk_counts([check_scale(m, MU_MAX) for m in mus], threads)


def weyl_two_term(mu: float) -> float:
    """Two-term Weyl prediction mu^2/4 - mu/2 for the disk count."""
    mu = check_scale(mu, MU_MAX)
    return 0.25 * mu * mu - 0.5 * mu


def weyl_remainder(mu: float, count: int) -> float:
    """Remainder of a count against the two-term prediction at scale mu."""
    return check_real(count, "count") - weyl_two_term(mu)


def count_sample(mu: float) -> CountSample:
    """Evaluate both counting routes at one scale and bundle the numbers."""
    mu = check_scale(mu, MU_MAX)
    return _sample(mu, count_disk(mu))


def _sample(mu: float, n_disk: int) -> CountSample:
    """Bundle a disk count with the lattice count and the two-term prediction."""
    n_lat = count_lattice(mu)
    weyl2 = weyl_two_term(mu)
    return CountSample(
        mu=mu,
        n_disk=n_disk,
        n_lattice=n_lat,
        weyl2=weyl2,
        remainder=n_disk - weyl2,
        diff=n_disk - n_lat,
    )


def compare_counts(mu: float) -> int:
    """count_disk(mu) - count_lattice(mu).

    The two routes track each other to O(mu^(2/3)): a zero slightly
    overshoots its phase-space height prediction, so occasionally a scale
    admits the lattice point but not yet the zero.  The scan-level check
    bounds |diff| / mu^(2/3), it does not demand zero.
    """
    return count_sample(mu).diff


def inner_residual(n: int, k: int) -> float:
    """x_k(n) minus the phase-space prediction F(n, k - 1/4).

    Only defined in the inner regime k > c n (c = INNER_REGIME_C), where
    the scale function F inverts the column-height relation; the residual
    is O(1) and shrinks as the zero moves away from the transition range.
    """
    n = check_integer(n, "order", 0)
    k = check_integer(k, "index", 1)
    if not k > INNER_REGIME_C * n:
        raise DomainError(
            f"index {k} not in the inner regime k > {INNER_REGIME_C} * {n}"
        )
    zero = refine_zero(n, initial_guess(n, k))
    if zero.k != k:
        raise RefinementError(f"refined zero slotted to index {zero.k}, wanted {k}")
    return zero.x - scale_function(float(n), k - 0.25)
