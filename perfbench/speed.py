"""Machine-speed gauge: scales wall times to a fixed reference speed.

On a shared host the CPU speed a small virtual machine gets drifts by as
much as ±30% over tens of seconds; a wall-clock median then measures the
neighbours as much as the program. The gauge runs a fixed kernel of small
numpy ops and Python-level loops, the same mix the program's inner loops
are made of, right after every iteration. Each iteration's wall time is
multiplied by REFERENCE_MS / (running median of the gauge times around
it). On a 2-vCPU Xeon virtual machine the ratio of eval-pass time to
gauge time stayed within ±3% while raw pass times ranged from 160 to
274 ms.

The kernel touches no program code. It runs with the garbage collector
paused, so collections of the program's garbage stay in the program's
time, and its own time is never inside a measured interval.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_MS = 4.0  # gauge time at the reference speed
WINDOW = 5  # gauge readings in the running median


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((25, 64))
        self._b = rng.standard_normal((64, 64))

    def measure(self) -> float:
        """Runs the kernel once; returns its wall time in ms."""
        paused = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(300):
                x = np.maximum(self._a @ self._b + 1.0, 0.0)
                _ = [float(v) for v in x[0]] + [float(x.sum())]
            return 1e3 * (time.perf_counter() - t0)
        finally:
            if paused:
                gc.enable()


def scale_factors(gauge_ms: list) -> list:
    """REFERENCE_MS over the running median of WINDOW readings, per reading."""
    half = WINDOW // 2
    return [REFERENCE_MS / statistics.median(gauge_ms[max(0, i - half):i + half + 1])
            for i in range(len(gauge_ms))]
