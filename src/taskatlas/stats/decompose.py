"""Two-way variance decomposition and dominance-analysis Shapley R^2."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from .series import StatsError


@dataclass(frozen=True)
class VarianceShares:
    row_share: Optional[float]
    col_share: Optional[float]
    interaction_share: Optional[float]
    total_ss: float
    complete: bool
    degenerate: bool  # zero total variation: shares undefined


def variance_decomposition(matrix: np.ndarray) -> VarianceShares:
    """Additive two-way decomposition around the grand mean.

    Shares are component sums of squares over the total and sum to 1 on
    complete matrices. Missing cells (NaN) are excluded pairwise and flagged:
    the additive identity only holds for balanced designs.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 2:
        raise StatsError("need a matrix with at least 2 rows and 2 columns")
    mask = np.isfinite(m)
    complete = bool(mask.all())
    if not mask.any() or mask.sum(axis=1).min() == 0 or mask.sum(axis=0).min() == 0:
        raise StatsError("a row or column has no observed cells")

    values = np.where(mask, m, 0.0)
    grand = values[mask].mean() if complete else float(values.sum() / mask.sum())
    row_means = values.sum(axis=1) / mask.sum(axis=1)
    col_means = values.sum(axis=0) / mask.sum(axis=0)

    cells = m[mask]
    total_ss = float(((cells - grand) ** 2).sum())
    if total_ss == 0.0:
        return VarianceShares(None, None, None, 0.0, complete, degenerate=True)

    row_ss = float((mask.sum(axis=1) * (row_means - grand) ** 2).sum())
    col_ss = float((mask.sum(axis=0) * (col_means - grand) ** 2).sum())
    resid = m - row_means[:, None] - col_means[None, :] + grand
    inter_ss = float((resid[mask] ** 2).sum())
    if not all(map(math.isfinite, (total_ss, row_ss, col_ss, inter_ss))):
        raise StatsError("matrix values are too large: a sum of squares overflows")
    return VarianceShares(
        row_share=row_ss / total_ss,
        col_share=col_ss / total_ss,
        interaction_share=inter_ss / total_ss,
        total_ss=total_ss,
        complete=complete,
        degenerate=False,
    )


@dataclass(frozen=True)
class DominanceResult:
    contributions: np.ndarray  # per-predictor incremental R^2, averaged over orderings
    full_r2: float
    rank_deficient_subsets: int  # subsets fit via least squares despite deficiency


# stacked subset designs per batch, in matrix elements: bounds each batch at ~2 MB
_SUBSET_BLOCK = 1 << 18


def _residual_ss(designs: np.ndarray, b: np.ndarray, n: int, full_rank: bool) -> tuple[np.ndarray, int]:
    """Residual sums of squares of ``b`` on each stacked design, and how many
    designs are rank deficient.

    Rank and fit follow ``np.linalg.matrix_rank`` and ``np.linalg.lstsq`` on
    the n-row designs these stand for: singular values at or below
    max * max(n, k) * eps are dropped. A full-rank parent design has no
    deficient column subset, so the SVD is skipped for a plain QR.
    """
    if full_rank:
        basis = np.linalg.qr(designs)[0]
        deficient = 0
    else:
        u, sv, _ = np.linalg.svd(designs, full_matrices=False)
        kept = sv > sv[:, :1] * max(n, designs.shape[2]) * np.finfo(np.float64).eps
        basis = u * kept[:, None, :]
        deficient = int(np.count_nonzero(kept.sum(axis=1) < designs.shape[2]))
    fitted = basis @ (b @ basis)[:, :, None]
    return ((b - fitted[:, :, 0]) ** 2).sum(axis=1), deficient


def _check_scale(X: np.ndarray, rank: int, tol_factor: float, names: Optional[Sequence[str]]) -> None:
    """Raise when the rank tolerance, not collinearity, makes the design [1, X]
    rank deficient: when centering each predictor and scaling it to unit norm
    gives a design of higher rank than ``rank``. The tolerance grows with the
    largest singular value, so one huge predictor (or cell, or offset) drops the
    intercept's direction, and a tiny one drops its own, although a fit with an
    intercept is unchanged by either rescaling.
    """
    n = len(X)
    norms = np.sqrt((X * X).sum(axis=0))
    centered = X - X.mean(axis=0)
    spread = np.sqrt((centered * centered).sum(axis=0))
    varies = spread > norms * tol_factor  # a constant predictor stays deficient
    unit = centered * np.where(varies, 1.0 / np.where(varies, spread, 1.0), 0.0)
    sv = np.linalg.svd(np.column_stack([np.full(n, 1.0 / math.sqrt(n)), unit]), compute_uv=False)
    if np.count_nonzero(sv > sv[0] * tol_factor) <= rank:
        return
    # the predictor whose column norm is farthest, in ratio, from the intercept column's
    ratio = np.abs(np.log(np.where(norms > 0, norms, math.sqrt(n)) / math.sqrt(n)))
    j = int(np.argmax(ratio))
    name = repr(names[j]) if names is not None else str(j)
    raise StatsError(
        f"predictor {name} is ill-scaled: its column norm {norms[j]:.3g} against the intercept's "
        f"{math.sqrt(n):.3g} makes the rank tolerance drop a direction that centering and rescaling keep; "
        f"center or rescale it"
    )


def shapley_r2(X: np.ndarray, y: np.ndarray, names: Optional[Sequence[str]] = None) -> DominanceResult:
    """Exact dominance analysis: average each predictor's incremental R^2 over
    all orderings [Budescu 1993], computed from the 2^p subset R^2 values.

    Contributions sum to the full-model R^2. Rank-deficient subsets (e.g.
    duplicated predictors) are fit by least squares without regularization,
    which leaves fitted values, hence R^2, well defined; their count is
    reported as a warning. A design that is deficient only through a
    predictor's scale raises ``StatsError`` naming the predictor (by its entry
    in ``names``, else its column index).

    One QR of the full design [1, X] = QR reduces every subset fit to the
    small problem R[:, S] against Q'y, solved in batches of equal-size subsets;
    R^2 values are stored by subset bitmask.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n, p = X.shape
    if p > 20:
        raise StatsError("exact enumeration supports at most 20 predictors")
    if y.shape != (n,):
        raise StatsError("X must have one row per outcome")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise StatsError("non-finite values in predictors or outcome")
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        raise StatsError("outcome has zero variance")
    if not (math.isfinite(sst) and np.isfinite((X * X).sum(axis=0)).all()):
        raise StatsError("outcome or predictor values are too large: a sum of squares overflows")

    q, r = np.linalg.qr(np.column_stack([np.ones(n), X]))
    b = q.T @ y
    outside = float(((y - q @ b) ** 2).sum())  # residual no subset can fit
    sv = np.linalg.svd(r, compute_uv=False)
    tol_factor = max(n, p + 1) * np.finfo(np.float64).eps
    full_rank = len(sv) == p + 1 and sv[-1] > sv[0] * tol_factor
    if not full_rank:
        _check_scale(X, int(np.count_nonzero(sv > sv[0] * tol_factor)), tol_factor, names)

    r2 = np.empty(1 << p)
    deficient_count = 0
    for size in range(p + 1):
        subsets = combinations(range(p), size)
        step = max(1, _SUBSET_BLOCK // (len(r) * (size + 1)))
        while chunk := list(islice(subsets, step)):
            columns = np.asarray(chunk, dtype=np.intp).reshape(len(chunk), size)
            design_columns = np.column_stack([np.zeros(len(chunk), dtype=np.intp), columns + 1])
            rss, deficient = _residual_ss(r[:, design_columns].transpose(1, 0, 2), b, n, full_rank)
            r2[(1 << columns).sum(axis=1)] = 1.0 - (outside + rss) / sst
            deficient_count += deficient
    if not np.isfinite(r2).all():
        raise StatsError("outcome values are too large: a residual sum of squares overflows")

    fact = [math.factorial(k) for k in range(p + 1)]
    weights = np.asarray([fact[s] * fact[p - s - 1] / fact[p] for s in range(p)])
    masks = np.arange(1 << p)
    sizes = np.zeros(1 << p, dtype=np.intp)
    for i in range(p):
        sizes += (masks >> i) & 1
    contributions = np.zeros(p)
    for i in range(p):
        without = masks[(masks >> i) & 1 == 0]
        contributions[i] = weights[sizes[without]] @ (r2[without | (1 << i)] - r2[without])
    return DominanceResult(
        contributions=contributions,
        full_r2=float(r2[-1]),
        rank_deficient_subsets=deficient_count,
    )
