"""Certified positive zeros of the Bessel functions J_n.

Initial guesses come from two asymptotic regimes: a uniform Airy-type
expansion for the transition range k <= n, obtained by inverting the phase
equation sqrt(z^2 - 1) - arccos(1/z) = (2/3) s^(3/2), and a two-term
McMahon expansion for k > n.  Guesses are polished by Newton iteration and
every accepted zero carries certificates: a machine-width sign-change
bracket, interlacing gaps, derivative-sign parity, and a count cross-check
against the phase-space prediction.  A bisection-only sweep is the
independent fallback when certification fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import DomainError, RefinementError, check_integer, check_real, check_scale
from .geometry import g_profile
from .special import _airy_ts, _jv_and_deriv

__all__ = [
    "S_MAX",
    "MU_MAX",
    "BesselZero",
    "psi",
    "initial_guess",
    "refine_zero",
    "zeros_up_to",
    "zero_array",
]

# Phase-inversion window: s = t_k / n^(2/3) stays below ~2.9 whenever k <= n,
# so 6 leaves headroom without admitting arguments the expansion cannot serve.
S_MAX = 6.0
# Enumeration cap: micro-bracket certificates are probe-verified clean for
# orders through 1800; past that |J_n| noise approaches the bracket residual.
MU_MAX = 1800.0

_GAP_MIN = 1.0
_RESIDUAL_TOL = 1e-10
# Half-width of the certification bracket relative to the zero; the full
# width 8e-13 x stays below the 1e-12 x certification budget while the
# function values at the bracket ends stay well above evaluation noise.
_BRACKET_SCALE = 4e-13


@dataclass(frozen=True)
class BesselZero:
    """The k-th positive zero of J_n with its certification data."""

    n: int
    k: int
    x: float
    residual: float
    bracket_width: float


def _phase_lhs(z):
    z = np.maximum(np.asarray(z, dtype=float), 1.0)
    return np.sqrt(np.maximum(z * z - 1.0, 0.0)) - np.arccos(1.0 / z)


def _psi_vec(s: np.ndarray) -> np.ndarray:
    """Vectorized inversion of the phase equation by bracketed bisection."""
    s = np.asarray(s, dtype=float)
    target = (2.0 / 3.0) * s ** 1.5
    lo = np.ones_like(s)
    hi = 1.0 + 2.0 * s + s ** 1.5
    pending = _phase_lhs(hi) < target
    while np.any(pending):
        hi[pending] = 1.0 + 2.0 * (hi[pending] - 1.0)
        pending = _phase_lhs(hi) < target
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = _phase_lhs(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi) - 1.0


def psi(s: float) -> float:
    """Phase increment psi = z - 1, where z >= 1 solves the phase equation.

    The equation is sqrt(z^2-1) - arccos(1/z) = (2/3) s^(3/2).  psi drives
    the transition-regime zero guess x ~ n (1 + psi(t_k / n^(2/3)));
    psi(0) = 0 and psi'(0) = 2^(-1/3).
    """
    s = check_real(s, "argument")
    if s < 0.0 or s > S_MAX:
        raise DomainError(f"argument must lie in [0, {S_MAX}], got {s}")
    return float(_psi_vec(np.asarray([s]))[0])


def _mcmahon(n: int, ks: np.ndarray) -> np.ndarray:
    """Two-term McMahon guess for the k-th zero, reliable for k > n."""
    b = (np.asarray(ks, dtype=float) + 0.5 * n - 0.25) * math.pi
    m = 4.0 * n * n
    return b - (m - 1.0) / (8.0 * b) - 4.0 * (m - 1.0) * (7.0 * m - 31.0) / (3.0 * (8.0 * b) ** 3)


def _guess_vec(n: int, ks: np.ndarray) -> np.ndarray:
    ks = np.asarray(ks, dtype=np.int64)
    out = np.empty(ks.shape, dtype=float)
    trans = (ks <= n) & (n >= 1)
    if np.any(trans):
        kt = ks[trans]
        t = _airy_ts(int(kt.max()))[kt - 1]
        out[trans] = n * (1.0 + _psi_vec(t / float(n) ** (2.0 / 3.0)))
    if np.any(~trans):
        out[~trans] = _mcmahon(n, ks[~trans])
    return out


def initial_guess(n: int, k: int) -> float:
    """Asymptotic guess for the k-th positive zero of J_n.

    Uses the Airy/phase route when 1 <= k <= n and two-term McMahon
    otherwise.  Guesses land within a small fraction of the local zero
    spacing for every order the package enumerates.
    """
    n = check_integer(n, "order", 0)
    k = check_integer(k, "index", 1)
    return float(_guess_vec(n, np.asarray([k]))[0])


def _newton_vec(n: int, guesses: np.ndarray) -> np.ndarray:
    """Newton polish of a batch of guesses; steps clipped to the safe slot."""
    x = np.array(guesses, dtype=float)
    for _ in range(60):
        val, der = _jv_and_deriv(n, x)
        step = np.where(der != 0.0, val / np.where(der != 0.0, der, 1.0), 0.0)
        step = np.clip(step, -1.5, 1.5)
        x = x - step
        if np.max(np.abs(step) / x) < 1e-15:
            break
    return x


def _phase_index(n: int, x: float) -> int:
    """Recover the zero index from the cumulative phase at x > n."""
    if x <= n:
        raise RefinementError(f"no positive zero of J_{n} lies at or below {n}")
    phase = math.sqrt((x - n) * (x + n)) - n * math.acos(n / x)
    return int(round(phase / math.pi + 0.25))


def _micro_bracket(n: int, xs: np.ndarray):
    """Certify a sign change across [x - d, x + d] with d at machine scale.

    Returns (ok mask, bracket half-widths).  Widths start at a fixed
    relative scale and double a few times for any stragglers.
    """
    xs = np.asarray(xs, dtype=float)
    delta = np.maximum(_BRACKET_SCALE * xs, 1e-15)
    ok = np.zeros(xs.shape, dtype=bool)
    for _ in range(7):
        lo = _sp.jv(n, xs - delta)
        hi = _sp.jv(n, xs + delta)
        good = (lo * hi < 0.0) & ~ok
        ok |= good
        if np.all(ok):
            break
        delta = np.where(ok, delta, delta * 2.0)
    return ok, delta


def refine_zero(n: int, guess: float) -> BesselZero:
    """Polish one guess to a certified zero of J_n.

    Brackets a sign change around the guess (expanding by half the minimal
    interlacing gap), runs safeguarded Newton inside it, then certifies a
    machine-width sign-change bracket.  The index k is recovered from the
    cumulative phase, so the certificate does not trust the caller's slot.
    """
    n = check_integer(n, "order", 0)
    guess = check_real(guess, "guess")
    if not 0.0 < guess < 1e7:
        raise DomainError(f"guess must lie in (0, 1e7), got {guess}")

    h = math.pi / 4.0
    a = b = None
    for _ in range(8):
        lo, hi = max(guess - h, 1e-300), guess + h
        flo, fhi = _sp.jv(n, lo), _sp.jv(n, hi)
        if flo * fhi < 0.0:
            a, b, fa = lo, hi, flo
            break
        h *= 2.0
    if a is None:
        raise RefinementError(f"no sign change near guess {guess} for order {n}")

    x = 0.5 * (a + b)
    for _ in range(120):
        val, der = _jv_and_deriv(n, x)
        if der != 0.0:
            x_new = x - val / der
        else:
            x_new = 0.5 * (a + b)
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        if val * fa > 0.0:
            a = x
        else:
            b = x
        if abs(x_new - x) <= 4e-16 * x:
            x = x_new
            break
        x = x_new

    ok, delta = _micro_bracket(n, np.asarray([x]))
    if not ok[0]:
        raise RefinementError(f"micro-bracket certification failed at x = {x}, order {n}")
    residual = abs(float(_sp.jv(n, x)))
    if residual > _RESIDUAL_TOL:
        raise RefinementError(f"residual {residual:.3e} above tolerance at x = {x}, order {n}")
    return BesselZero(
        n=n,
        k=_phase_index(n, x),
        x=float(x),
        residual=residual,
        bracket_width=float(2.0 * delta[0]),
    )


def _certified_batch(n: int, xs: np.ndarray):
    """Run the vector certificates; returns (residuals, widths) or raises."""
    if xs.size == 0:
        return np.empty(0), np.empty(0)
    if xs[0] <= n:
        raise RefinementError(f"first refined zero {xs[0]} not above order {n}")
    if np.any(np.diff(xs) <= _GAP_MIN):
        raise RefinementError(f"interlacing gap certificate failed for order {n}")
    val, der = _jv_and_deriv(n, xs)
    residuals = np.abs(val)
    if np.any(residuals > _RESIDUAL_TOL):
        raise RefinementError(f"residual certificate failed for order {n}")
    ks = np.arange(1, xs.size + 1)
    parity = np.where(ks % 2 == 1, -1.0, 1.0)
    if np.any(np.sign(der) != parity):
        raise RefinementError(f"derivative parity certificate failed for order {n}")
    ok, delta = _micro_bracket(n, xs)
    if not np.all(ok):
        raise RefinementError(f"micro-bracket certificate failed for order {n}")
    return residuals, 2.0 * delta


def _sweep_zeros(n: int, mu: float) -> np.ndarray:
    """Fallback enumeration: unit-step sign scan plus pure bisection.

    Independent of the asymptotic guesses.  Step 1.0 is below the minimal
    zero spacing of any J_n, so every zero in (n, mu] produces exactly one
    sign change on the grid.
    """
    grid = np.arange(float(n), mu + 1.0, 1.0)
    if grid[-1] < mu:
        grid = np.append(grid, mu)
    vals = _sp.jv(n, grid)
    roots = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        a, b = grid[i], grid[i + 1]
        fa = vals[i]
        for _ in range(90):
            mid = 0.5 * (a + b)
            fm = _sp.jv(n, mid)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return np.asarray(roots, dtype=float)


def _predicted_count(n: int, mu: float) -> int:
    u = min(float(n) / mu, 1.0)
    return int(math.floor(mu * g_profile(u) + 0.25))


def _check_cutoff(mu) -> float:
    """mu as a float; DomainError unless it lies in (0, MU_MAX], with room for rounding."""
    return check_scale(mu, MU_MAX * (1.0 + 1e-9), "cutoff")


def _enumerate(n: int, mu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified zeros of J_n in (n, mu] with their residuals and bracket widths.

    Validates the cutoff for both public entry points.  Each returned zero
    is certified once, by the single _certified_batch call of the branch
    (asymptotic guesses or the sweep fallback) that found it.
    """
    mu = _check_cutoff(mu)
    if mu <= n:
        return np.empty(0), np.empty(0), np.empty(0)
    k_pred = _predicted_count(n, mu)
    k_try = k_pred + 2
    xs = _newton_vec(n, _guess_vec(n, np.arange(1, k_try + 1)))
    try:
        residuals, widths = _certified_batch(n, xs)
        count = int(np.searchsorted(xs, mu, side="right"))
        if count >= k_try:
            raise RefinementError(f"enumeration for order {n} did not pass {mu}")
        if abs(count - k_pred) > 1:
            raise RefinementError(
                f"count {count} for order {n} disagrees with prediction {k_pred}"
            )
    except RefinementError:
        xs = _sweep_zeros(n, mu)
        residuals, widths = _certified_batch(n, xs)
        count = int(np.searchsorted(xs, mu, side="right"))
        if abs(count - k_pred) > 1:
            raise RefinementError(
                f"fallback count {count} for order {n} disagrees with prediction {k_pred}"
            )
    return xs[:count], residuals[:count], widths[:count]


def zeros_up_to(n: int, mu: float) -> list[BesselZero]:
    """All certified zeros of J_n in (0, mu], in increasing order.

    Certificates: strict interlacing (consecutive gaps exceed 1), residuals
    below 1e-10, derivative signs alternating starting negative, a
    machine-width sign-change bracket per zero, and agreement within one of
    the phase-space count floor(mu g(n/mu) + 1/4).  Any failure falls back
    to a bisection-only sweep; if that also fails, RefinementError.
    """
    n = check_integer(n, "order", 0)
    xs, residuals, widths = _enumerate(n, mu)
    return [
        BesselZero(n=n, k=k, x=float(x), residual=float(r), bracket_width=float(w))
        for k, (x, r, w) in enumerate(zip(xs, residuals, widths), start=1)
    ]


def zero_array(n: int, mu: float) -> np.ndarray:
    """Zeros of J_n in (0, mu] as a bare array, without the record objects.

    Reads the same enumeration as zeros_up_to, certified once, so both
    names return the same zeros under the same certificates.
    """
    return _enumerate(check_integer(n, "order", 0), mu)[0]
