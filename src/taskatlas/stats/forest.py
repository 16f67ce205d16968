"""Regression forest grown from scratch: bootstrap trees, variance-reduction
splits over random feature subsets, and permutation importance.

Trees store per-node training coverage counts, which the attribution code uses
as the conditioning distribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .series import StatsError
from .._rng import rng_for

LEAF = -1


@dataclass
class Tree:
    """Array-encoded binary regression tree; rows x with x[f] <= threshold go left."""

    feature: list[int] = field(default_factory=list)  # LEAF marks leaves
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)  # training mean in node
    count: list[int] = field(default_factory=list)  # training coverage of node

    def add_node(self, value: float, count: int) -> int:
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.left.append(LEAF)
        self.right.append(LEAF)
        self.value.append(value)
        self.count.append(count)
        return len(self.feature) - 1

    def predict_one(self, x: np.ndarray) -> float:
        node = 0
        while self.feature[node] != LEAF:
            node = self.left[node] if x[self.feature[node]] <= self.threshold[node] else self.right[node]
        return self.value[node]

    def max_depth(self) -> int:
        depths = {0: 0}
        best = 0
        for node in range(len(self.feature)):
            if self.feature[node] != LEAF:
                depths[self.left[node]] = depths[node] + 1
                depths[self.right[node]] = depths[node] + 1
                best = max(best, depths[node] + 1)
        return best

    def features_used(self) -> set[int]:
        return {f for f in self.feature if f != LEAF}


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 500
    mtry: Optional[int] = None  # default ceil(p / 3)
    min_leaf: int = 2
    max_depth: Optional[int] = None


@dataclass(frozen=True)
class _NodeTable:
    """All trees of a forest in one flat node table; tree t starts at ``roots[t]``.

    Leaves test feature 0 and point both children at themselves, so a descent
    can step every (row, tree) pair until none moves.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @classmethod
    def compile(cls, trees: tuple[Tree, ...]) -> "_NodeTable":
        def flat(name: str, dtype) -> np.ndarray:
            return np.concatenate([np.asarray(getattr(tree, name), dtype=dtype) for tree in trees])

        sizes = [len(tree.feature) for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature = flat("feature", np.intp)
        leaf = feature == LEAF
        node = np.arange(len(feature))
        shift = np.repeat(roots, sizes)
        return cls(
            feature=np.where(leaf, 0, feature),
            threshold=flat("threshold", np.float64),
            left=np.where(leaf, node, flat("left", np.intp) + shift),
            right=np.where(leaf, node, flat("right", np.intp) + shift),
            value=flat("value", np.float64),
            roots=roots,
        )

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(rows x trees) value of the leaf each row reaches in each tree."""
        node = np.repeat(self.roots[None, :], len(X), axis=0)
        rows = np.arange(len(X))[:, None]
        while True:
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            child = np.where(goes_left, self.left[node], self.right[node])
            if np.array_equal(child, node):
                return self.value[node]
            node = child


@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...]
    n_features: int
    params: ForestParams
    seed: int
    constant_outcome: bool

    @functools.cached_property
    def _table(self) -> _NodeTable:
        # compiled on first use: trees are not modified once in a forest
        return _NodeTable.compile(self.trees)

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        values = self._table.leaf_values(np.asarray(X, dtype=np.float64))
        # fsum over trees per row, in tree order: the same float as summing tree by tree
        return np.asarray([math.fsum(row) / len(self.trees) for row in values.tolist()], dtype=np.float64)


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
    tree = Tree()
    p = X.shape[1]
    stack = [(tree.add_node(float(y.mean()), len(y)), np.arange(len(y)), 0)]
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
        f, threshold = split
        go_left = X[rows, f] <= threshold
        left_rows, right_rows = rows[go_left], rows[~go_left]
        left = tree.add_node(float(y[left_rows].mean()), len(left_rows))
        right = tree.add_node(float(y[right_rows].mean()), len(right_rows))
        tree.feature[node] = f
        tree.threshold[node] = threshold
        tree.left[node] = left
        tree.right[node] = right
        stack.append((left, left_rows, depth + 1))
        stack.append((right, right_rows, depth + 1))
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
