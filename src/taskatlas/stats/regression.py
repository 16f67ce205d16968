"""OLS and two-way fixed-effects regression with cluster-robust errors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import StatsError


@dataclass(frozen=True)
class OlsResult:
    beta: np.ndarray
    r2: float
    residuals: np.ndarray
    rank: int


def ols(X: np.ndarray, y: np.ndarray) -> OlsResult:
    """Least squares via QR-backed lstsq; R^2 about the mean of y."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if len(X) != len(y):
        raise StatsError("design and outcome lengths differ")
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        raise StatsError(f"design is rank deficient (rank {rank} < {X.shape[1]} columns)")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    residuals = y - X @ beta
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        raise StatsError("outcome has zero variance")
    ssr = float((residuals**2).sum())
    return OlsResult(beta=beta, r2=1.0 - ssr / sst, residuals=residuals, rank=int(rank))


def _group_index(labels: Sequence) -> tuple[np.ndarray, int]:
    uniq = sorted(set(labels))
    index = {g: i for i, g in enumerate(uniq)}
    return np.asarray([index[g] for g in labels], dtype=np.int64), len(uniq)


def _n_components(row_idx: np.ndarray, col_idx: np.ndarray, n_rows: int, n_cols: int) -> int:
    """Connected components of the bipartite row-group/col-group graph."""
    parent = list(range(n_rows + n_cols))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r, c in zip(row_idx.tolist(), col_idx.tolist()):
        ra, cb = find(r), find(n_rows + c)
        if ra != cb:
            parent[ra] = cb
    return len({find(i) for i in range(n_rows + n_cols)})


def _demean_two_way(
    values: np.ndarray,
    what: str,
    row_idx: np.ndarray,
    n_rows: int,
    col_idx: np.ndarray,
    n_cols: int,
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, int]:
    """Alternating within transformation until the applied means vanish.

    ``what`` names ``values`` in the error raised when it does not converge.
    """
    z = values.copy()
    for sweep in range(1, max_sweeps + 1):
        delta = 0.0
        for idx, size in ((row_idx, n_rows), (col_idx, n_cols)):
            sums = np.bincount(idx, weights=z, minlength=size)
            counts = np.bincount(idx, minlength=size)
            means = sums / counts
            z -= means[idx]
            delta = max(delta, float(np.abs(means).max()))
        if delta < tol:
            return z, sweep
    scale = float(np.abs(values).max())
    residue = scale * np.finfo(np.float64).eps
    if residue >= tol:  # the means stop at rounding residue of the values' magnitude
        raise StatsError(
            f"two-way demeaning of the {what} did not converge in {max_sweeps} sweeps: its values reach "
            f"{scale:.3g}, whose rounding residue (about {residue:.3g}) stays above the absolute tolerance {tol:g}"
        )
    raise StatsError(f"two-way demeaning of the {what} did not converge in {max_sweeps} sweeps")


@dataclass(frozen=True)
class FeResult:
    beta: float
    se: float
    n: int
    n_clusters: int
    n_row_groups: int
    n_col_groups: int
    k_effective: int  # parameter count of the equivalent dummy-variable model
    sweeps: int


def fe_regression(
    y: Sequence[float],
    x: Sequence[float],
    row_fe: Sequence,
    col_fe: Sequence,
    cluster: Sequence,
    tol: float = 1e-10,
    max_sweeps: int = 1000,
) -> FeResult:
    """Two-way within estimator with cluster-robust standard errors.

    Both variables are demeaned by alternating row/column group projections to
    convergence, the slope comes from the demeaned regression, and the cluster
    covariance applies the G/(G-1) * (n-1)/(n-k) finite-sample correction with
    k equal to the parameter count of the equivalent dummy-variable OLS
    (slope + intercept + free fixed effects).
    """
    yv = np.asarray(y, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    if yv.shape != xv.shape or yv.ndim != 1:
        raise StatsError("y and x must be equal-length vectors")
    if not (np.all(np.isfinite(yv)) and np.all(np.isfinite(xv))):
        raise StatsError("non-finite values in y or x")
    n = len(yv)
    row_idx, n_rows = _group_index(row_fe)
    col_idx, n_cols = _group_index(col_fe)
    cluster_idx, n_clusters = _group_index(cluster)
    if n_clusters < 2:
        raise StatsError("cluster-robust errors need at least 2 clusters")

    y_t, sweeps_y = _demean_two_way(yv, "outcome", row_idx, n_rows, col_idx, n_cols, tol, max_sweeps)
    x_t, sweeps_x = _demean_two_way(xv, "regressor", row_idx, n_rows, col_idx, n_cols, tol, max_sweeps)

    sxx = float(x_t @ x_t)
    if not math.isfinite(sxx * sxx):  # the variance divides by sxx squared
        raise StatsError("regressor values are too large: their sum of squares overflows")
    if sxx <= 0.0 or sxx < 1e-12 * float(xv @ xv):
        raise StatsError("regressor is absorbed by the fixed effects")
    beta = float(x_t @ y_t) / sxx
    residuals = y_t - beta * x_t

    scores = np.bincount(cluster_idx, weights=x_t * residuals, minlength=n_clusters)
    meat = float(scores @ scores)
    if not math.isfinite(meat):  # also where the slope or a residual is not finite
        raise StatsError("outcome or regressor values are too large: the cluster scores overflow")
    k = 1 + 1 + (n_rows - 1) + (n_cols - 1) - (_n_components(row_idx, col_idx, n_rows, n_cols) - 1)
    if n <= k:
        raise StatsError(f"no residual degrees of freedom (n={n}, k={k})")
    correction = (n_clusters / (n_clusters - 1)) * ((n - 1) / (n - k))
    variance = correction * meat / (sxx * sxx)
    return FeResult(
        beta=beta,
        se=math.sqrt(variance),
        n=n,
        n_clusters=n_clusters,
        n_row_groups=n_rows,
        n_col_groups=n_cols,
        k_effective=k,
        sweeps=max(sweeps_y, sweeps_x),
    )
