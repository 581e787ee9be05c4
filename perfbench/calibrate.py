"""Host-speed calibration.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds, far more than a change to edgeflow should be judged by.
``kernel`` is a fixed piece of work with the mix the workloads spend their
time on: small complex ``eigh`` calls, Python loops over small numpy
arrays, vectorised transcendental functions over a large array, and plain
Python arithmetic.  It is timed while the work it calibrates runs, and a
time ``t`` measured while the kernel's median time was ``c`` seconds is
reported as ``t * REF_S / c``: the time on a host where the kernel takes
``REF_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_S = 0.020  # the kernel's time on the baseline host, rounded
PERIOD_S = 0.5  # wall seconds between the samples a Sampler takes

_rng = np.random.default_rng(20240817)
_H = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_H = _H + _H.conj().T
_V = _rng.standard_normal(48) + 1j * _rng.standard_normal(48)
_X = np.linspace(0.0, 6.0, 60_000)


def kernel():
    s = 0.0
    for _ in range(5):
        s += float(np.linalg.eigh(_H)[0][0])
    for i in range(750):
        z = np.exp(1j * 0.01 * i * _V.real) * _V
        s += abs(complex(np.vdot(z, _V))) + float(np.abs(z).max())
    for _ in range(2):
        s += float(np.sum(np.sin(_X) * np.exp(-_X)))
    for i in range(20_000):
        s += (i % 7) * 0.5
    return s


def sample():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(seconds, cal_seconds):
    """``seconds``, measured while the kernel took ``cal_seconds``, at the
    reference host speed."""
    return seconds * REF_S / cal_seconds


class Sampler:
    """Samples the kernel every ``PERIOD_S`` wall seconds from a SIGALRM
    handler, in the middle of whatever the main thread runs, so that long
    cases are calibrated throughout and not only at their ends.  A sampler
    may be entered again; the seconds it has run add up across its uses.

    ``paused_s`` and ``paused_cpu_s`` add up the wall and CPU time spent in
    the handler; callers take them out of their own timings.  The workload
    must run in the main thread: a handler that ran while the main thread
    waited on a worker would time the kernel against the worker.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0
        self._busy = False
        self._previous = None
        self._next = period  # seconds to the next sample, kept between uses

    def _on_alarm(self, signum, frame):
        if self._busy:  # a late alarm while sampling; skip it
            return
        self._busy = True
        t0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(sample())
        self.paused_s += time.perf_counter() - t0
        self.paused_cpu_s += time.process_time() - cpu0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._next, self.period)
        return self

    def __exit__(self, *exc):
        self._next = signal.setitimer(signal.ITIMER_REAL, 0.0)[0] or self.period
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def median(self):
        if not self.samples:  # used for less than one period
            self.samples.append(sample())
        return float(np.median(self.samples))
