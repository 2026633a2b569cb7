"""Host-speed calibration: a fixed unit of work that never calls the package.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by a third within a minute (see README.md, "Host speed").  Every timing the
benchmark reports is therefore taken in *reference seconds*: the measured
seconds times REFERENCE_S over the time the calibration unit took at about
the same time, in the same process.  A faster program reads faster; a
slower host does not read as a slower program.

The unit mixes the kinds of work the package spends its time in: a sparse
complex LU and solve, dense complex BLAS and LAPACK, numpy element-wise
arithmetic and a pure-Python loop.  It uses numpy and scipy only, so no
change to the package can change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: Reference seconds per calibration unit: close to the unit's time on a
#: 2-vCPU "Intel(R) Xeon(R) Processor" host (Python 3.11, numpy 2.4, scipy
#: 1.17, OpenBLAS 0.3.31, one BLAS thread), which measured 9 to 20 ms as
#: the host's load changed.  Only the scale of the reported figures depends
#: on it, but changing it, or the unit, makes them incomparable with
#: earlier ones.
REFERENCE_S = 0.015

#: Units timed per sample; the sample is their median.
UNITS_PER_SAMPLE = 3

#: Seconds of a program call between two samples taken inside it.
PERIOD_S = 0.5


class Calibration:
    """The calibration unit with its fixed inputs, and samples of its time."""

    def __init__(self):
        rng = np.random.default_rng(20260101)
        n = 4002
        bands = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(5)]
        bands[0] = bands[0] + 10.0
        self.sparse = sp.diags([bands[0], bands[1][1:], bands[2][1:],
                                bands[3][2:], bands[4][2:]],
                               [0, 1, -1, 2, -2], format="csc")
        self.rhs = rng.normal(size=(n, 4)) + 0j
        m = 160
        self.dense = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) \
            + 20.0 * np.eye(m)
        self.x = np.linspace(-1.0, 1.0, n)

    def unit(self):
        """One unit of work; returns a number so that nothing is skipped."""
        acc = 0.0
        for k in range(4):
            acc += float(np.abs(splu(self.sparse).solve(self.rhs)).sum())
            z = np.exp(-self.x * self.x * (k + 1)) * np.cos(self.x * k)
            acc += float(z @ z)
            for i in range(400):
                acc += (i * 0.5) % 7.0
        lu = la.lu_factor(self.dense @ self.dense.conj().T)
        acc += float(np.abs(la.lu_solve(lu, self.rhs[:160])).sum())
        return acc

    def sample(self):
        """Median seconds of UNITS_PER_SAMPLE units, run now."""
        times = []
        for _ in range(UNITS_PER_SAMPLE):
            t0 = time.perf_counter()
            self.unit()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Meter:
    """Times program calls in reference seconds.

    A calibration sample is taken before the first call, after every call
    and, inside a call, every PERIOD_S seconds from a SIGALRM handler.  The
    handler runs in the main thread between two Python bytecodes, never
    inside a C call, and its sample is not counted as the call's time.
    Each stretch of a call between two samples is scaled by REFERENCE_S over
    the mean of those two samples, so a call of any length follows the
    host's drift during it.
    """

    def __init__(self, calibration=None):
        self.calibration = calibration or Calibration()
        self.samples = [self.calibration.sample()]
        self.seconds = 0.0        # measured, summed over calls
        self.reference_s = 0.0    # the same calls in reference seconds
        self._mark = None         # start of the current stretch, inside a call
        self._busy = False
        # installed for the life of the process: a SIGALRM still pending
        # after a call must not meet the default action, which terminates
        signal.signal(signal.SIGALRM, self._on_timer)

    def _end_stretch(self):
        if self._mark is None or self._busy:
            return
        self._busy = True
        dt = time.perf_counter() - self._mark
        before = self.samples[-1]
        self.samples.append(self.calibration.sample())
        self.seconds += dt
        self.reference_s += dt * REFERENCE_S / (0.5 * (before + self.samples[-1]))
        self._mark = time.perf_counter()
        self._busy = False

    def _on_timer(self, _signum, _frame):
        self._end_stretch()

    def call(self, fn):
        """fn() timed; returns its result or re-raises what it raised."""
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._end_stretch()
            self._mark = None
