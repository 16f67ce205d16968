"""Regression forest grown from scratch: bootstrap trees, variance-reduction
splits over random feature subsets, and permutation importance.

Trees store per-node training coverage counts, which the attribution code uses
as the conditioning distribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .series import StatsError
from .._rng import rng_for

LEAF = -1


class Tree(NamedTuple):
    """A binary regression tree as read-only node arrays, root first; rows x
    with x[feature] <= threshold go left. A leaf has ``feature == LEAF`` and
    is its own left and right child."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # training mean in node
    count: np.ndarray  # training coverage of node


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 500
    mtry: Optional[int] = None  # default ceil(p / 3)
    min_leaf: int = 2
    max_depth: Optional[int] = None


@dataclass(frozen=True, eq=False)
class Forest:
    trees: tuple[Tree, ...]
    n_features: int
    params: ForestParams
    seed: int
    constant_outcome: bool

    @functools.cached_property
    def _nodes(self) -> tuple[Tree, np.ndarray]:
        """The trees as one node table, each node array of every tree
        concatenated with child indices shifted by the tree's offset, and the
        index of each tree's root in it."""
        sizes = [len(tree.feature) for tree in self.trees]
        roots = np.cumsum([0, *sizes[:-1]])
        shift = np.repeat(roots, sizes)
        feature, threshold, left, right, value, count = map(np.concatenate, zip(*self.trees))
        return Tree(feature, threshold, left + shift, right + shift, value, count), roots

    def predict(self, X: np.ndarray) -> np.ndarray:
        nodes, roots = self._nodes
        X = np.asarray(X, dtype=np.float64)
        # every (row, tree) pair steps down until none moves: a leaf is its own child
        node = np.repeat(roots[None, :], len(X), axis=0)
        rows = np.arange(len(X))[:, None]
        while True:
            goes_left = X[rows, nodes.feature[node]] <= nodes.threshold[node]
            child = np.where(goes_left, nodes.left[node], nodes.right[node])
            if np.array_equal(child, node):
                break
            node = child
        # fsum over trees per row, in tree order: the same float as summing tree by tree
        return np.asarray([math.fsum(row) / len(self.trees) for row in nodes.value[node].tolist()], dtype=np.float64)


def _best_split(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, features: np.ndarray, min_leaf: int
) -> Optional[tuple[int, float]]:
    """Feature/threshold pair with the largest SSE reduction; ties keep the
    first candidate in (feature asc, threshold asc) order."""
    y_node = y[rows]
    n = len(rows)
    total = y_node.sum()
    best_gain = 0.0
    best: Optional[tuple[int, float]] = None
    for f in features:
        order = np.argsort(X[rows, f], kind="stable")
        xs = X[rows[order], f]
        ys = y_node[order]
        csum = np.cumsum(ys)
        for i in range(min_leaf - 1, n - min_leaf):
            if xs[i] == xs[i + 1]:
                continue
            left_n = i + 1
            right_n = n - left_n
            left_sum = csum[i]
            right_sum = total - left_sum
            # SSE reduction = sum_side n_side * mean_side^2 - n * mean^2
            gain = left_sum * left_sum / left_n + right_sum * right_sum / right_n - total * total / n
            if gain > best_gain + 1e-12 * max(1.0, abs(best_gain)):
                best_gain = gain
                best = (int(f), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _grow_tree(X: np.ndarray, y: np.ndarray, params: ForestParams, mtry: int, rng: np.random.Generator) -> Tree:
    n, p = X.shape
    size = 2 * n - 1  # the most nodes n rows can fill: every leaf holds a row
    feature = np.full(size, LEAF, dtype=np.intp)
    threshold = np.zeros(size)
    left, right = np.arange(size), np.arange(size)
    value, count = np.empty(size), np.empty(size, dtype=np.intp)
    value[0], count[0] = y.mean(), n
    n_nodes = 1
    stack = [(0, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        y_node = y[rows]
        if (
            len(rows) < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
            or np.all(y_node == y_node[0])
        ):
            continue
        features = np.sort(rng.choice(p, size=mtry, replace=False))
        split = _best_split(X, y, rows, features, params.min_leaf)
        if split is None:
            continue
        go_left = X[rows, split[0]] <= split[1]
        feature[node], threshold[node] = split
        left[node], right[node] = n_nodes, n_nodes + 1
        for child_rows in (rows[go_left], rows[~go_left]):
            value[n_nodes], count[n_nodes] = y[child_rows].mean(), len(child_rows)
            stack.append((n_nodes, child_rows, depth + 1))
            n_nodes += 1
    tree = Tree(*(column[:n_nodes].copy() for column in (feature, threshold, left, right, value, count)))
    for column in tree:
        column.flags.writeable = False
    return tree


def fit_forest(X: np.ndarray, y: np.ndarray, params: ForestParams = ForestParams(), seed: int = 0) -> Forest:
    """Bootstrap trees with the best variance-reduction split among ``mtry``
    uniformly drawn features per node; deterministic under the seed (tree t
    draws from a generator keyed by (seed, t))."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise StatsError("X must be 2-D with one row per outcome")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise StatsError("non-finite values in features or outcome")
    if not math.isfinite(float(((y - y.mean()) ** 2).sum())):  # the split gains would overflow too
        raise StatsError("outcome values are too large: their sum of squares overflows")
    if params.n_trees < 1 or params.min_leaf < 1 or (params.max_depth is not None and params.max_depth < 1):
        raise StatsError("forest parameters must be positive")
    n, p = X.shape
    if n < 2 * params.min_leaf:
        raise StatsError(f"need at least {2 * params.min_leaf} rows")
    mtry = params.mtry if params.mtry is not None else max(1, math.ceil(p / 3))
    if not (1 <= mtry <= p):
        raise StatsError(f"mtry must be in 1..{p}")
    constant = bool(np.all(y == y[0]))
    trees = []
    for t in range(params.n_trees):
        rng = rng_for(seed, t)
        idx = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[idx], y[idx], params, mtry, rng))
    return Forest(trees=tuple(trees), n_features=p, params=params, seed=seed, constant_outcome=constant)


def permutation_importance(
    forest: Forest, X: np.ndarray, y: np.ndarray, seed: int = 0, repeats: int = 5
) -> np.ndarray:
    """Mean squared-error increase when one feature column is permuted,
    averaged over seeded repeats."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    base_mse = float(((forest.predict(X) - y) ** 2).mean())
    importances = np.zeros(forest.n_features)
    for f in range(forest.n_features):
        increases = []
        for r in range(repeats):
            rng = rng_for(seed, f, r)
            shuffled = X.copy()
            shuffled[:, f] = X[rng.permutation(len(X)), f]
            mse = float(((forest.predict(shuffled) - y) ** 2).mean())
            increases.append(mse - base_mse)
        importances[f] = math.fsum(increases) / repeats
    return importances
