"""Locally weighted regression (Cleveland-style LOESS, degree 1, tricube
weights) and percentile bootstrap bands over unit resamples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .series import StatsError
from .._rng import rng_for


@dataclass(frozen=True)
class LoessFit:
    grid: np.ndarray
    values: np.ndarray
    fallback_points: tuple[int, ...]  # grid indices where the local fit degenerated to a mean


def loess(
    x: Sequence[float],
    y: Sequence[float],
    span: float = 0.75,
    grid: Optional[Sequence[float]] = None,
) -> LoessFit:
    """Local degree-1 fits over the span-nearest neighbors with tricube weights.

    At each grid point the span-nearest fraction of the data is weighted by
    (1 - u^3)^3 on distance scaled by the window radius, then a weighted line
    is fit and evaluated there. Degenerate local designs (zero window radius or
    no weight spread in x) fall back to the local weighted mean and are flagged;
    so does a window whose points all sit at its radius (every weight 0), which
    takes the unweighted mean of y over the window.
    """
    if not (0.0 < span <= 1.0):
        raise StatsError(f"span must be in (0, 1], got {span}")
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise StatsError("x and y must be equal-length vectors")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise StatsError("non-finite values in x or y")
    n = len(xv)
    if n < 3:
        raise StatsError("need at least 3 points")
    q = max(3, int(math.ceil(span * n)))
    q = min(q, n)
    grid_arr = np.unique(xv) if grid is None else np.asarray(grid, dtype=np.float64)

    fitted = np.empty(len(grid_arr))
    fallback = np.zeros(len(grid_arr), dtype=bool)
    step = max(1, _GRID_BLOCK // n)
    for start in range(0, len(grid_arr), step):
        block = slice(start, start + step)
        fitted[block], fallback[block] = _local_lines(xv, yv, grid_arr[block], q)
    return LoessFit(grid=grid_arr, values=fitted, fallback_points=tuple(np.flatnonzero(fallback).tolist()))


# (grid points x data points) weights per block: bounds each work matrix at ~8 MB
_GRID_BLOCK = 1 << 20


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with ``b`` (a vector, or one row per row of ``a``).

    A stacked matmul takes the same dot kernel as a 1-D ``a[i] @ b[i]``.
    """
    return (a[:, None, :] @ np.broadcast_to(b, a.shape)[:, :, None])[:, 0, 0]


def _local_lines(xv: np.ndarray, yv: np.ndarray, x0: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Local line fits evaluated at each point of ``x0``, and where they fell back to the weighted mean."""
    dist = np.abs(xv[None, :] - x0[:, None])
    radius = np.partition(dist, q - 1, axis=1)[:, q - 1, None]
    collapsed = radius == 0.0  # window collapsed onto a single x location
    u = np.clip(dist / np.where(collapsed, 1.0, radius), 0.0, 1.0)
    weights = np.where(collapsed, dist == 0.0, (1.0 - u**3) ** 3)
    wsum = weights.sum(axis=1)
    # every window point sits exactly at the radius, where the tricube weight is 0:
    # fall back to the unweighted window mean
    empty = wsum == 0.0
    if empty.any():
        weights[empty] = dist[empty] <= radius[empty]
        wsum[empty] = weights[empty].sum(axis=1)
    xw = _row_dots(weights, xv) / wsum
    yw = _row_dots(weights, yv) / wsum
    dx = xv[None, :] - xw[:, None]
    sxx = _row_dots(weights, dx**2)
    if not np.isfinite(sxx).all():
        raise StatsError("x values are too large: a local sum of squares overflows")
    fallback = (sxx <= 0.0) | empty
    slope = _row_dots(weights, dx * (yv[None, :] - yw[:, None])) / np.where(fallback, 1.0, sxx)
    values = np.where(fallback, yw, yw + slope * (x0 - xw))
    if not np.isfinite(values).all():
        raise StatsError("x or y values are too large: a fitted value overflows")
    return values, fallback


@dataclass(frozen=True)
class Band:
    lower: np.ndarray
    upper: np.ndarray
    level: float
    n_resamples: int
    seed: int


def bootstrap_band(
    fit: Callable[[Sequence], np.ndarray],
    units: Sequence,
    resamples: int = 200,
    level: float = 0.95,
    seed: int = 0,
) -> Band:
    """Percentile interval per grid point from unit resamples with replacement.

    ``fit`` maps a unit multiset to fitted values on a fixed grid. Replicate r
    draws its resample from a generator keyed by (seed, r), so bands are
    reproducible and independent of scheduling.
    """
    if resamples < 2:
        raise StatsError("need at least 2 resamples")
    units = list(units)
    replicates = []
    for r in range(resamples):
        rng = rng_for(seed, r)
        idx = rng.integers(0, len(units), size=len(units))
        replicates.append(np.asarray(fit([units[i] for i in idx]), dtype=np.float64))
    stacked = np.stack(replicates)
    alpha = (1.0 - level) / 2.0
    lower = np.percentile(stacked, 100.0 * alpha, axis=0)
    upper = np.percentile(stacked, 100.0 * (1.0 - alpha), axis=0)
    return Band(lower=lower, upper=upper, level=level, n_resamples=resamples, seed=seed)
