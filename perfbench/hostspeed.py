"""Wall times corrected for the speed of a shared host.

On a shared machine the speed of a core changes, by up to 2x, in phases of
seconds to minutes as other tenants load the cores and caches it shares, so
wall times taken in different phases cannot be compared. While a run
measures, HostSpeed runs a fixed calibration kernel every PERIOD_S seconds
from a SIGALRM handler, in between the program's own work. The kernel is
independent of rxcheck: numpy vector work on cache-resident arrays plus
interpreter work, a mix like the program's.

seconds(t0, t1) is the wall time of [t0, t1], less the time the handler ran
inside it, scaled by NOMINAL_S over the median kernel time around the
interval (the median, so that a kernel run the host preempted counts little):
the interval's duration on a host where the kernel takes NOMINAL_S. A change
to the program moves its wall time and not the kernel's, so it moves these
figures by the same share.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1          # one kernel run (about 1 ms) every 100 ms of wall time
WINDOW_S = 0.5          # kernel runs this far either side of an interval count
NOMINAL_S = 0.001       # about the kernel's time on a 2-core Xeon VM, fast phase
_FLOATS = 2048          # 16 KiB per array: stays in the L1/L2 cache


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(20211130)
        self._a = rng.random(_FLOATS)
        self._b = rng.random(_FLOATS)
        self._keys = [f"k{i}" for i in range(64)]
        self.starts: list[float] = []
        self.durations: list[float] = []

    def kernel(self) -> float:
        a, b = self._a, self._b
        acc = 0.0
        for _ in range(24):
            d = np.abs(a - b)
            acc += float(np.partition(d, 64)[64]) + float(np.sqrt(d * d + a).sum())
        table: dict[str, float] = {}
        keys = self._keys
        for i in range(3000):
            key = keys[i & 63]
            table[key] = table.get(key, 0.0) + i * 0.5
        return acc + table[keys[0]]

    def _on_alarm(self, signum, frame) -> None:
        # The kernel's allocations must not trigger a collection of the
        # program's heap, which would charge the program's garbage to it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "HostSpeed":
        self.kernel()       # warm the arrays and the code path
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # A handler can interrupt another; seconds() needs the starts in order.
        pairs = sorted(zip(self.starts, self.durations))
        self.starts = [start for start, _ in pairs]
        self.durations = [duration for _, duration in pairs]

    def seconds(self, t0: float, t1: float) -> float:
        """[t0, t1] (perf_counter readings) in seconds at nominal speed."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi == lo:
            raise RuntimeError(f"no calibration sample within {WINDOW_S} s of [{t0}, {t1}]")
        inside = 0.0
        for start, duration in zip(self.starts[lo:hi], self.durations[lo:hi]):
            inside += max(0.0, min(start + duration, t1) - max(start, t0))
        speed = statistics.median(self.durations[lo:hi])
        return (t1 - t0 - inside) * NOMINAL_S / speed

    def summary(self) -> dict:
        return {
            "kernel_runs": len(self.durations),
            "kernel_median_ms": statistics.median(self.durations) * 1e3 if self.durations else None,
            "kernel_min_ms": min(self.durations) * 1e3 if self.durations else None,
            "kernel_max_ms": max(self.durations) * 1e3 if self.durations else None,
            "nominal_ms": NOMINAL_S * 1e3,
        }
