"""Reference-speed probe: converts wall time into units of a fixed kernel.

On a shared host the speed a process gets from its CPU can switch by a
third within seconds (on a 2-CPU container, a pure-Python loop took 1.3
to 1.9 ms), so the same work reads differently from one run to the next.
While set-up or the timed loop runs, a timer signal interrupts the
benchmark's own thread every ``INTERVAL`` seconds and times a fixed
reference kernel on the same CPU: a pure-Python loop and a 32^3 FFT
round trip, plus, for workloads that stream arrays larger than L2, a
cumulative sum through 16 MiB.  Interpreter-bound work (``verify``)
tracked the kernel best without the stream, array-bound work (``fields``,
``files``) with it.  The kernel does not use tlmkit.  ``ref_units`` then
divides each stretch of an operation's wall time by the kernel time
measured around it, skipping the probe's own runs.  One ref is one
kernel time at the speed of that moment; a faster tlmkit needs fewer.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# captured at import, before any tracing wrapper replaces them
_FFTN, _IFFTN = np.fft.fftn, np.fft.ifftn

INTERVAL = 0.1
# Seconds per ref when a ref count is given in seconds: the kernel's median
# time on the 2-CPU x86-64 container the benchmark was tuned on.
NOMINAL_REF_S = {False: 0.004, True: 0.008}  # by ``stream``
SMOOTH = 2  # samples on each side in the running median of kernel times
STREAM_POINTS = 1 << 20  # float64: 8 MiB in and 8 MiB out, beyond a 4 MiB L2
_STREAM, _STREAM_OUT = np.ones(STREAM_POINTS), np.empty(STREAM_POINTS)


class SpeedProbe:
    def __init__(self, stream: bool, on_sample=None) -> None:
        self.stream = stream  # whether the kernel streams through 16 MiB
        self._on_sample = on_sample  # called with each kernel run's seconds
        self._data = np.random.default_rng(0).standard_normal((32, 32, 32))
        self.starts = []     # perf_counter at each kernel start
        self.durations = []  # seconds each kernel took
        self._smoothed = None

    def _kernel(self) -> None:
        s = 0
        for i in range(20000):
            s += i * i % 7
        _IFFTN(_FFTN(self._data))
        if self.stream:
            np.cumsum(_STREAM, out=_STREAM_OUT)

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(seconds)
        if self._on_sample is not None:
            self._on_sample(seconds)

    def __enter__(self) -> "SpeedProbe":
        self._kernel()  # warm
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def overhead(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent running the kernel."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return sum(self.durations[i:j])

    def wall(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, less the probe's runs."""
        return t1 - t0 - self.overhead(t0, t1)

    def ref_units(self, t0: float, t1: float) -> float:
        """Time from t0 to t1, less the probe's runs, in units of the kernel
        time measured around each stretch (a running median of samples)."""
        if self._smoothed is None:
            d = self.durations
            self._smoothed = [statistics.median(d[max(0, k - SMOOTH):k + SMOOTH + 1])
                              for k in range(len(d))]
        k = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        total, t = 0.0, t0
        while True:
            nxt = k + 1
            end = self.starts[nxt] if nxt < len(self.starts) else t1
            end = min(end, t1)
            if end > t:
                total += (end - t) / self._smoothed[k]
            if nxt >= len(self.starts) or self.starts[nxt] >= t1:
                return total
            k = nxt
            t = self.starts[k] + self.durations[k]
