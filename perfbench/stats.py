"""Order statistics the benchmark reports."""

from __future__ import annotations

import numpy as np


def tail_percentile(values) -> tuple:
    """(value, percentile) of the tail latency the benchmark reports.

    p90 when there are at least 100 samples; otherwise the highest order
    statistic with ten samples beyond it, so a short run never reports a
    tail that rests on fewer than ten samples. With ten or fewer samples it
    falls back to the maximum.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n >= 100:
        return float(np.percentile(x, 90)), 90.0
    if n > 10:
        return float(x[n - 11]), 100.0 * (n - 10) / n
    return float(x[-1]), 100.0


def paired_overhead_pct(base, treated, n_boot: int = 2000, seed: int = 0) -> tuple:
    """Paired median overhead in percent, with a 95% bootstrap interval.

    The statistic is median(treated - base) / median(base); the interval
    resamples whole pairs, so the pairing that cancels drift is kept.
    """
    b = np.asarray(base, dtype=np.float64)
    t = np.asarray(treated, dtype=np.float64)
    stat = 100.0 * np.median(t - b) / np.median(b)
    idx = np.random.default_rng(seed).integers(0, b.size, size=(n_boot, b.size))
    boot = 100.0 * np.median(t[idx] - b[idx], axis=1) / np.median(b[idx], axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return float(stat), float(lo), float(hi)
