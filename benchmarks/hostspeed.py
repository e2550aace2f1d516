"""Host speed from frozen references: a numerical kernel for the workload's
calls, and an interpreter start-up for its set-up.

The host's speed drifts by tens of percent over seconds to minutes.  The
drift is not scheduling: process CPU time follows wall time, and steal time
stays small.  Longer runs do not average it out, because the drift is
correlated over minutes.  So the benchmark times fixed references beside the
workload and states the workload's times in reference units.

The kernel has the shape of one implicit rescaled step at n = 257: powers, a
three-point stencil, a banded Jacobian and a LAPACK banded solve, twice.  It
slows with the host the way fdelab's steps do, much more closely than a
pure-Python loop.  It is a frozen copy, independent of fdelab, so a change to
fdelab does not change the reference.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import solve_banded

# Set-up reference: a fresh interpreter that imports numpy and the scipy
# subpackages fdelab imported when this benchmark was written, then exits.  It
# does the same work as set-up minus fdelab's own modules and configs, so it
# slows with the host the way set-up does, and nothing in it depends on
# fdelab: if fdelab imports more or less of scipy, set-up moves and the
# reference does not.  Set-up time is reported in seconds of a host on which
# the reference takes NOMINAL_STARTUP_S.
STARTUP_CODE = "import numpy, scipy.linalg, scipy.integrate, scipy.optimize, scipy.interpolate"
NOMINAL_STARTUP_S = 0.8

KERNEL_N = 257
SAMPLE_PERIOD_S = 0.05   # two kernels (~0.3 ms) per 50 ms: under 1 % of a round

_H = 1.0 / (KERNEL_N + 1)
_W0 = (1.0 + np.sin(np.pi * np.linspace(_H, 1.0 - _H, KERNEL_N))) ** 2


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    w = _W0
    for _ in range(2):
        u = w ** 0.5
        lap = -2.0 * u
        lap[1:] += u[:-1]
        lap[:-1] += u[1:]
        res = w - 1e-3 * (lap / _H ** 2 + w) - _W0
        d = 0.5 * w ** -0.5
        ab = np.zeros((3, KERNEL_N))
        ab[0, 1:] = -1e-3 * d[1:] / _H ** 2
        ab[1, :] = 1.0 + 2e-3 * d / _H ** 2
        ab[2, :-1] = -1e-3 * d[:-1] / _H ** 2
        float(np.max(np.abs(solve_banded((1, 1), ab, -res))))
    return time.perf_counter() - t0


def reference_time() -> float:
    """Median kernel_seconds() over 200 kernels run back to back (about 35 ms)."""
    return statistics.median(kernel_seconds() for _ in range(200))


class Sampler:
    """Context manager: times kernel_seconds() from a SIGALRM handler every
    SAMPLE_PERIOD_S.  The handler runs between bytecodes of the main thread,
    so it interleaves with fdelab's work.  It runs the kernel twice and keeps
    the second time: the first run refills the caches that fdelab's work left
    in whatever state, so the kept time depends on the host more than on
    fdelab's memory footprint."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        kernel_seconds()
        self.samples.append(kernel_seconds())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_time(self) -> float:
        """Harmonic mean of the samples (one timed now if there are none).
        The samples are evenly spaced in time, so wall time divided by it is
        the number of kernels the host could have run in that time, however
        its speed varied."""
        if not self.samples:
            return kernel_seconds()
        return statistics.harmonic_mean(self.samples)


def startup_seconds(env: dict) -> float:
    """Wall time of one reference interpreter, from launch to exit."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], env=env, check=True, timeout=60)
    return time.monotonic() - t0
