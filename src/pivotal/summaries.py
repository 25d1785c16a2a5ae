"""Monte Carlo summaries: means with errors, z-scores, KS two-sample test."""

from __future__ import annotations

import math

import numpy as np


def mean_stderr(vals) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1) / sqrt(n)."""
    x = np.asarray(vals, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


def zscore(gap: float, se: float) -> float:
    """gap / se; 0 when both are 0 and inf when only se is 0."""
    if se == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / se


def kolmogorov_sf(t: float) -> float:
    """Asymptotic Kolmogorov survival function Q(t) = 2 sum_{j=1..101} (-1)^{j-1} exp(-2 j^2 t^2)."""
    if t <= 0:
        return 1.0
    j = np.arange(1, 102, dtype=float)
    s = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j * j * t * t))
    return float(min(1.0, max(0.0, s)))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value; NaN raises ``ValueError``."""
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    if x.size < 2 or y.size < 2:
        raise ValueError("need at least 2 samples per side")
    if np.isnan(x[-1]) or np.isnan(y[-1]):  # NaN sorts last and has no rank; +-inf ranks as any value
        raise ValueError("a KS sample holds NaN")
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    stat = float(np.max(np.abs(fx - fy)))
    neff = x.size * y.size / (x.size + y.size)
    return stat, kolmogorov_sf(math.sqrt(neff) * stat)
