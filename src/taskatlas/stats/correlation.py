"""Pearson, Spearman, partial correlation, and leave-one-out stability."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .series import StatsError, align


@dataclass(frozen=True)
class CorrResult:
    value: float
    n: int


def _pearson_arrays(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if not math.isfinite(sx * sy):
        raise StatsError("a correlation input is too large: its sum of squares overflows")
    if sx == 0.0 or sy == 0.0:
        raise StatsError("zero variance in a correlation input")
    return float(xc @ yc) / (sx * sy)


def pearson(x: Mapping[str, float], y: Mapping[str, float]) -> CorrResult:
    """Sample Pearson correlation over the key intersection."""
    keys, (xv, yv) = align(x, y)
    if len(keys) < 3:
        raise StatsError(f"need >= 3 paired observations, have {len(keys)}")
    return CorrResult(value=_pearson_arrays(xv, yv), n=len(keys))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the average of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: Mapping[str, float], y: Mapping[str, float]) -> CorrResult:
    """Pearson correlation of average-ranked values."""
    keys, (xv, yv) = align(x, y)
    if len(keys) < 3:
        raise StatsError(f"need >= 3 paired observations, have {len(keys)}")
    rx, ry = average_ranks(xv), average_ranks(yv)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise StatsError("all-tied series has no rank ordering")
    return CorrResult(value=_pearson_arrays(rx, ry), n=len(keys))


def _residualize(y: np.ndarray, controls: np.ndarray) -> np.ndarray:
    design = np.column_stack([np.ones(len(y)), controls])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise StatsError("controls are rank deficient on the intersection")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return y - design @ coef


def partial_correlation(
    x: Mapping[str, float], y: Mapping[str, float], controls: Sequence[Mapping[str, float]]
) -> CorrResult:
    """Pearson correlation of the OLS residuals of x and y on the controls.

    A variable the controls absorb exactly leaves only rounding noise behind;
    its residual carries no signal and the partial correlation is 0.
    """
    keys, columns = align(x, y, *controls)
    if len(keys) < 3 + len(controls):
        raise StatsError("too few observations after intersecting with controls")
    xv, yv = columns[0], columns[1]
    z = np.column_stack(columns[2:]) if len(columns) > 2 else np.empty((len(keys), 0))
    rx, ry = _residualize(xv, z), _residualize(yv, z)
    for resid, original in ((rx, xv), (ry, yv)):
        centered = original - original.mean()
        if float(resid @ resid) <= 1e-20 * max(float(centered @ centered), 1e-300):
            return CorrResult(value=0.0, n=len(keys))
    return CorrResult(value=_pearson_arrays(rx, ry), n=len(keys))


@dataclass(frozen=True)
class LeaveOneOutResult:
    values: dict[str, float]
    min: float
    max: float
    sd: float


def leave_one_out(x: Mapping[str, float], y: Mapping[str, float]) -> LeaveOneOutResult:
    """Recompute the Pearson correlation with each unit deleted once."""
    keys, (xv, yv) = align(x, y)
    if len(keys) < 4:
        raise StatsError("need >= 4 observations for leave-one-out")
    arr = np.asarray([_pearson_arrays(np.delete(xv, i), np.delete(yv, i)) for i in range(len(keys))])
    return LeaveOneOutResult(
        values=dict(zip(keys, arr.tolist())),
        min=float(arr.min()),
        max=float(arr.max()),
        sd=float(arr.std(ddof=1)),
    )
