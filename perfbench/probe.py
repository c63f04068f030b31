"""Speed probe: rescales measured times to a fixed machine speed.

On a shared two-core virtual machine the speed of a core drifts by up to
2x within a minute.  Measured with a fixed kernel, 10-second window means
ranged from 0.12 to 0.23 s.  No raw wall time is steady across runs under
that drift.  While a section is timed, ``Probe`` interrupts the process
every ``INTERVAL_S`` with SIGALRM and times ``kernel()``, a fixed mix of
what diskspec spends its time on:

- numpy calls on 0-d arrays, as in the lattice column loop;
- ``scipy.special.jv`` on short vectors;
- complex ``exp`` over a panel-sized array.

The kernel never calls diskspec, so a faster diskspec cannot speed it up.
Each stretch of work between two probes is multiplied by
``REFERENCE_S / (mean time of those two probes)``.  The sum is the
section's time on a machine that runs the kernel in ``REFERENCE_S``,
with the probes' own time taken out.  Adjacent samples of the drift
correlate at 0.87 at 0.17 s spacing, so the probes track it.  Over 80 s
of back-to-back scan passes, this cut the spread of pass times (quartile
distance over median) from 0.48 to 0.05.  Process CPU time is no
substitute: over 80 s of scan passes it spread 0.12 against 0.14 for wall
time, so the drift is core speed, not time stolen by other guests.  Raw
seconds are printed next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np
import scipy.special

INTERVAL_S = 0.1
# Median kernel time on the 2-core Xeon VM the benchmark was written on.
REFERENCE_S = 0.0055
# Kernel timings taken when a section is too short for the timer to fire.
FALLBACK_SAMPLES = 5

# Bound now, so that tracing shims on scipy.special.jv never see the probe.
_jv = scipy.special.jv
_X = np.linspace(1.0, 60.0, 48)
_T = np.linspace(0.0, 2.0, 32000).reshape(1000, 32)


def kernel() -> float:
    acc = abs(complex(np.sum(_T * np.exp(1j * 1000.0 * (_T**3 - 0.1 * _T * _T)))))
    for i in range(20):
        val = _jv(i, _X)
        der = 0.5 * (_jv(i - 1, _X) - _jv(i + 1, _X))
        acc += float(np.max(np.abs(val / np.where(der != 0.0, der, 1.0))))
    for i in range(60):
        u = np.asarray((i + 0.5) / 60.0, dtype=float)
        if np.all(np.isfinite(u)) and not (np.any(u < -1.0) or np.any(u > 1.0)):
            acc += float((np.sqrt((1.0 - u) * (1.0 + u)) - u * np.arccos(u)) / math.pi)
    return acc


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(durations: list[float]) -> float:
    """Factor that rescales a time measured next to these kernel timings."""
    return REFERENCE_S / statistics.fmean(durations)


class Probe:
    """Times ``kernel()`` every INTERVAL_S while entered.

    A signal handler runs between bytecodes of the main thread, so a probe
    lies wholly inside or wholly outside any interval that the main thread
    timed.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:
            for _ in range(FALLBACK_SAMPLES):
                self._sample(None, None)

    def _stretches(self, t0: float, t1: float):
        """(seconds of work, mean time of the probes on either side) for
        each stretch of [t0, t1] between probes."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        cursor = t0
        for i in range(first, last + 1):
            ends_at = self.starts[i] if i < last else t1
            neighbours = self.durations[max(i - 1, 0) : i + 1]
            yield ends_at - cursor, statistics.fmean(neighbours)
            if i < last:
                cursor = self.starts[i] + self.durations[i]

    def net(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] outside any probe."""
        return sum(work for work, _ in self._stretches(t0, t1))

    def rescaled(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] outside probes, at the reference speed."""
        return sum(work * REFERENCE_S / probe for work, probe in self._stretches(t0, t1))
