"""Exact Shapley attributions for tree ensembles under path-dependent
conditioning [Lundberg et al. 2018, 2020].

Absent features are integrated out over each tree's training coverage counts:
the conditional expectation of a leaf path weights child branches by their
coverage fraction. The polynomial algorithm tracks, along each root-to-leaf
path, the proportion of feature subsets of every size that flow down the path:
it extends the fraction bookkeeping by each unique feature on the path, then
unwinds one feature at a time to read off its attribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forest import Forest, LEAF, Tree
from .series import StatsError
from . import forest as _forest_mod


@dataclass(frozen=True)
class AttributionResult:
    """Per-feature attributions in outcome units; base + sum = prediction."""

    values: np.ndarray  # per feature, or rows x features
    base_value: float


def _leaf_paths(tree: Tree) -> list[tuple[float, list[tuple[int, float, float, float]]]]:
    """Every leaf's value and the unique features on its root path.

    A feature split more than once along a path appears once, with the
    product of its cover fractions as the zero fraction and the intersection
    of its branch conditions as an interval (lo, hi]: a row's one fraction is
    1 when the feature falls inside, else 0. Features keep the order of their
    last split, as in the recursive algorithm.
    """
    # the walk runs on Python scalars
    feature, threshold, left, right, value, count = (column.tolist() for column in tree)
    leaves = []
    stack: list[tuple[int, dict[int, tuple[float, float, float]]]] = [(0, {})]
    while stack:
        node, path = stack.pop()
        f = feature[node]
        if f == LEAF:
            leaves.append((value[node], [(d, z, lo, hi) for d, (z, lo, hi) in path.items()]))
            continue
        path = dict(path)
        z, lo, hi = path.pop(f, (1.0, -math.inf, math.inf))
        cut = threshold[node]
        for child, bounds in ((left[node], (lo, min(hi, cut))), (right[node], (max(lo, cut), hi))):
            child_path = dict(path)
            child_path[f] = (z * count[child] / count[node], *bounds)
            stack.append((child, child_path))
    return leaves


# (rows x paths x path length) elements per batch: bounds each work array at ~2 MB
_SHAP_BLOCK = 1 << 18


def _paths_shap(X: np.ndarray, value: np.ndarray, feature: np.ndarray, zero: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, phi: np.ndarray) -> None:
    """Add the attributions of P leaf paths of one length D to ``phi`` (rows x p).

    ``feature``, ``zero``, ``lo`` and ``hi`` are (P x D). A row enters only
    through its 0/1 one fractions, so the extend and unwind recurrences of the
    polynomial algorithm run once per distinct pair of path and 0/1 pattern,
    and each pair's contributions are gathered back to its rows [Yang 2021].
    """
    rows = len(X)
    n_paths, depth = feature.shape
    inside = (X[:, feature] > lo) & (X[:, feature] <= hi)  # rows x P x D
    if depth + n_paths.bit_length() < 63:
        # each pair as one number: the path's index above the pattern's D bits
        packed = np.packbits(inside, axis=-1, bitorder="little")
        key = (np.arange(n_paths) << depth) + packed[..., 0]
        for b in range(1, packed.shape[-1]):
            key += packed[..., b].astype(np.int64) << 8 * b
        key, pair = np.unique(key.ravel(), return_inverse=True)
        path = key >> depth
        one = ((key[:, None] >> np.arange(depth)) & 1).astype(np.float64)
    else:  # no pair fits in one int64: each row and path is a pair of its own
        path, pair = np.tile(np.arange(n_paths), rows), slice(None)
        one = inside.reshape(-1, depth).astype(np.float64)
    zero = zero[path]
    # permutation weights of the path: the root entry, then each unique feature
    w = np.zeros((len(path), depth + 1))
    w[:, 0] = 1.0
    for k in range(1, depth + 1):
        j = np.arange(k + 1)
        old = w[:, : k + 1].copy()
        new = zero[:, k - 1, None] * old * (k - j) / (k + 1)
        new[:, 1:] += one[:, k - 1, None] * old[:, :-1] * j[1:] / (k + 1)
        w[:, : k + 1] = new
    # sum of the weights with entry i unwound, for every entry i at once
    sum_if_one = np.zeros((len(path), depth))
    sum_if_zero = np.zeros((len(path), depth))
    carry = np.repeat(w[:, depth, None], depth, axis=-1)
    for j in range(depth - 1, -1, -1):
        unwound = carry * (depth + 1) / (j + 1)
        sum_if_one += unwound
        carry = w[:, j, None] - unwound * zero * (depth - j) / (depth + 1)
        sum_if_zero += w[:, j, None] * (depth + 1) / (zero * (depth - j))
    unwound_sum = np.where(one == 1.0, sum_if_one, sum_if_zero)
    contribution = (unwound_sum * (one - zero) * value[path, None])[pair]  # rows x P x D, flattened
    slots = np.arange(rows)[:, None, None] * phi.shape[1] + feature
    phi += np.bincount(slots.ravel(), weights=contribution.ravel(), minlength=phi.size).reshape(phi.shape)


def tree_shap(forest: Forest, x: np.ndarray) -> AttributionResult:
    """Exact per-feature Shapley values for one input row, or for each row of a
    (rows x p) matrix.

    The base value is the coverage-weighted training mean (the root value,
    averaged over trees); local accuracy base + sum(values) = prediction holds
    by construction, per row. Attributions are averaged over trees, matching
    the ensemble's mean prediction. Leaf paths of all trees are grouped by
    their number of unique features and evaluated in batches of rows x paths,
    as in GPUTreeShap [Mitchell et al. 2022]; a batch evaluates each distinct
    0/1 pattern of a path once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != forest.n_features:
        raise StatsError(f"input has {x.shape[-1] if x.ndim else 0} features, forest expects {forest.n_features}")
    if not np.all(np.isfinite(x)):
        raise StatsError("non-finite values in the input rows")
    X = np.atleast_2d(x)
    by_depth: dict[int, list] = {}
    for tree in forest.trees:
        for value, path in _leaf_paths(tree):
            if path:
                by_depth.setdefault(len(path), []).append((value, path))
    phi = np.zeros((len(X), forest.n_features))
    for depth, leaves in sorted(by_depth.items()):
        value = np.asarray([v for v, _ in leaves])
        feature, zero, lo, hi = np.asarray([path for _, path in leaves]).transpose(2, 0, 1)
        feature = feature.astype(np.intp)
        step = max(1, _SHAP_BLOCK // (max(1, len(X)) * (depth + 1)))
        for start in range(0, len(leaves), step):
            part = slice(start, start + step)
            _paths_shap(X, value[part], feature[part], zero[part], lo[part], hi[part], phi)
    n_trees = len(forest.trees)
    base = sum(float(tree.value[0]) for tree in forest.trees)
    values = phi / n_trees
    return AttributionResult(values=values if x.ndim == 2 else values[0], base_value=base / n_trees)


@dataclass(frozen=True)
class ShapRanking:
    mean_abs: np.ndarray  # per feature, outcome units x 100
    order: tuple[int, ...]  # feature indices, descending importance
    seeds: tuple[int, ...]


def mean_abs_shap(
    X: np.ndarray,
    y: np.ndarray,
    params: _forest_mod.ForestParams = _forest_mod.ForestParams(),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
) -> ShapRanking:
    """Mean absolute attribution per feature over all rows and forest seeds,
    scaled x100 so magnitudes read as percentage points of the outcome."""
    if not seeds:
        raise StatsError("need at least one seed")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    per_seed = []
    for seed in seeds:
        forest = _forest_mod.fit_forest(X, y, params, seed=seed)
        per_seed.append(np.abs(tree_shap(forest, X).values).mean(axis=0))
    mean_abs = np.stack(per_seed).mean(axis=0) * 100.0
    order = tuple(sorted(range(X.shape[1]), key=lambda f: (-mean_abs[f], f)))
    return ShapRanking(mean_abs=mean_abs, order=order, seeds=tuple(seeds))
