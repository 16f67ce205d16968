"""Regression forest grown from scratch: bootstrap trees, variance-reduction
splits over random feature subsets, and permutation importance.

The trees of a forest grow in lockstep, one node of each per step, so that a
step's split searches run as one batch; each tree is the one it would be grown
alone. Trees store per-node training coverage counts, which the attribution
code uses as the conditioning distribution.
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


# (nodes x features x rows) elements per split-search batch: bounds each work array at ~0.5 MB
_SPLIT_BLOCK = 1 << 16


def _runs(count: np.ndarray) -> list[tuple[int, int]]:
    """The (start, stop) of each run of equal values in ``count``."""
    if not len(count):
        return []
    edges = [0, *(np.flatnonzero(count[1:] != count[:-1]) + 1).tolist(), len(count)]
    return list(zip(edges[:-1], edges[1:]))


def _best_splits(xt: np.ndarray, yg: np.ndarray, rows: np.ndarray, count: np.ndarray, features: np.ndarray,
                 min_leaf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per node, the sum of its outcomes and the feature/threshold pair with
    the largest SSE reduction; ties keep the first candidate in (feature asc,
    threshold asc) order.

    ``rows`` (nodes x width) holds each node's ``count`` rows in the order
    of its tree's bootstrap draws, padded with a sentinel row whose features
    are ``+inf``; nodes come in descending ``count``. ``xt`` is features x
    rows and ``yg`` the outcome per row. Returns the sums, whether each node
    splits, and the feature and threshold of those that do.
    """
    k, m = features.shape
    width = rows.shape[1]
    # numpy reduces each row of a 2-D array as it reduces that row alone, so
    # summing a run of equal counts at once gives each node's 1-D sum
    y_rows = yg[rows]
    total = np.empty(k)
    for a, b in _runs(count):
        total[a:b] = np.add.reduce(y_rows[a:b, : count[a]], axis=1)
    xv = xt[features[:, :, None], rows[:, None, :]]  # nodes x features x rows; a stable sort puts the pads last
    order = np.argsort(xv, axis=2, kind="stable")
    xs = np.take(xv, order + np.arange(0, k * m * width, width).reshape(k, m, 1))
    csum = np.cumsum(np.take(y_rows, order + np.arange(0, k * width, width)[:, None, None]), axis=2)
    # threshold positions i with min_leaf rows on either side: left_n = i + 1
    lo, hi = min_leaf - 1, width - min_leaf
    left_n = np.arange(lo + 1, hi + 1)
    right_n = count[:, None, None] - left_n
    left_sum = csum[:, :, lo:hi]
    right_sum = total[:, None, None] - left_sum
    with np.errstate(all="ignore"):
        # SSE reduction = sum_side n_side * mean_side^2 - n * mean^2
        gain = left_sum * left_sum / left_n + right_sum * right_sum / right_n - (total * total / count)[:, None, None]
    ok = (xs[:, :, lo:hi] != xs[:, :, lo + 1:hi + 1]) & (right_n >= min_leaf)
    gain = np.where(ok, gain, -np.inf).reshape(k, -1)
    # the tie rule can raise the best gain only where a gain exceeds every one
    # before it (a NaN gain never does), and never where the gain is not positive
    rise = gain > 0.0
    rise[:, 1:] &= gain[:, 1:] > np.fmax.accumulate(gain, axis=1)[:, :-1]
    chosen = np.full(k, -1)
    node, best = -1, 0.0
    for i, j, g in zip(*(c.tolist() for c in np.nonzero(rise)), gain[rise].tolist()):
        if i != node:
            node, best = i, 0.0
        if g > best + 1e-12 * max(1.0, abs(best)):
            best, chosen[i] = g, j
    splits = chosen >= 0
    nodes, at = np.flatnonzero(splits), chosen[splits]
    which, position = np.divmod(at, hi - lo)
    position += lo
    threshold = (xs[nodes, which, position] + xs[nodes, which, position + 1]) / 2.0
    return total, splits, features[nodes, which], threshold


def _grow_forest(X: np.ndarray, y: np.ndarray, params: ForestParams, mtry: int, seed: int) -> tuple[Tree, ...]:
    """Every tree of the forest, grown in lockstep.

    Tree t draws its bootstrap and then, node by node in depth-first order,
    its features from ``rng_for(seed, t)``. Each step pops the next node of
    every tree and searches all of their splits as one batch. A node's rows
    are a segment of ``perm`` in the order of the bootstrap draws, and a
    split partitions the segment stably into its children. A child that
    cannot split (too few rows, the depth cap, or one outcome value) is never
    pushed, as it would draw no features; the values of such leaves come from
    one pass at the end.
    """
    n, p = X.shape
    n_trees, min_leaf, max_depth = params.n_trees, params.min_leaf, params.max_depth
    rngs = [rng_for(seed, t) for t in range(n_trees)]
    # tree t's bootstrap rows (indices into X) are perm[t * n:(t + 1) * n]
    perm = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    choose = [rng.choice for rng in rngs]
    pad = n  # the sentinel row: +inf features sort it last
    xt = np.concatenate([X.T, np.full((p, 1), np.inf)], axis=1)
    yg = np.append(y, 0.0)
    n_nodes = np.ones(n_trees, dtype=np.intp)
    # per batch: (tree, node, count, sum) of searched nodes, (tree, node, count, start) of nodes
    # never searched, and (tree, node, feature, threshold, left child) of splits
    searched: list[tuple[np.ndarray, ...]] = []
    unsearched: list[tuple[np.ndarray, ...]] = []
    splits: list[tuple[np.ndarray, ...]] = []
    # per tree, a depth-first stack of the nodes left to search: node, start, count, depth
    stack = np.zeros((4, n_trees, 16), dtype=np.intp)
    height = np.zeros(n_trees, dtype=np.intp)

    def add(tree, node, start, count, depth, constant, sides):
        """Push the new nodes that may split, listed as ``sides`` runs in which
        no tree repeats, run by run; keep the others aside as leaves."""
        nonlocal stack
        may_split = ~constant & (count >= 2 * min_leaf)
        if max_depth is not None:
            may_split &= depth < max_depth
        unsearched.append((tree[~may_split], node[~may_split], count[~may_split], start[~may_split]))
        if height.max() + 2 > stack.shape[2]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=2)
        for side in np.split(np.arange(len(tree)), sides):
            part = side[may_split[side]]
            t = tree[part]
            stack[:, t, height[t]] = node[part], start[part], count[part], depth[part]
            height[t] += 1

    trees = np.arange(n_trees)
    y_boot = yg[perm].reshape(n_trees, n)
    add(trees, np.zeros(n_trees, dtype=np.intp), trees * n, np.full(n_trees, n), np.zeros(n_trees, dtype=np.intp),
        y_boot.min(axis=1) == y_boot.max(axis=1), 1)
    while True:
        live = np.flatnonzero(height)
        if not len(live):
            break
        height[live] -= 1
        features = np.sort(np.array([choose[t](p, mtry, False) for t in live.tolist()]), axis=1)
        popped = (live, *stack[:, live, height[live]], features)
        # search in batches of nodes in descending row count, each padded to its first
        by_count = np.argsort(-popped[3], kind="stable")
        popped = [column[by_count] for column in popped]
        at = 0
        while at < len(live):
            width = int(popped[3][at])
            stop = at + max(1, _SPLIT_BLOCK // (mtry * width))
            part = slice(at, stop)
            at = stop
            tree, node, start, count, depth, features = (column[part] for column in popped)
            inside = np.arange(width) < count[:, None]
            rows = np.where(inside, perm[np.minimum(start[:, None] + np.arange(width), len(perm) - 1)], pad)
            total, split, feature, threshold = _best_splits(xt, yg, rows, count, features, min_leaf)
            searched.append((tree, node, count, total))
            if not len(feature):
                continue
            # partition each split node's segment stably: its left rows, then its right rows
            tree, node, start, count, depth = tree[split], node[split], start[split], count[split], depth[split] + 1
            rows, inside = rows[split], inside[split]
            go_left = xt[feature[:, None], rows] <= threshold[:, None]
            go_right = inside & ~go_left
            n_left = np.count_nonzero(go_left, axis=1)
            place = np.where(go_left, np.cumsum(go_left, axis=1) - 1, np.cumsum(go_right, axis=1) - 1 + n_left[:, None])
            perm[(start[:, None] + place)[inside]] = rows[inside]
            y_rows = yg[rows]
            constant = [np.where(side, y_rows, np.inf).min(axis=1) == np.where(side, y_rows, -np.inf).max(axis=1)
                        for side in (go_left, go_right)]
            left = n_nodes[tree]
            n_nodes[tree] += 2
            splits.append((tree, node, feature, threshold, left))
            add(np.concatenate([tree, tree]), np.concatenate([left, left + 1]), np.concatenate([start, start + n_left]),
                np.concatenate([n_left, count - n_left]), np.concatenate([depth, depth]), np.concatenate(constant), 2)
    # every tree's node arrays as slices of one table, children indexed within their tree
    first = np.cumsum(n_nodes) - n_nodes
    size = int(n_nodes.sum())
    local = np.arange(size) - np.repeat(first, n_nodes)
    feature, threshold, left, right = np.full(size, LEAF, dtype=np.intp), np.zeros(size), local, local.copy()
    total, count = np.empty(size), np.empty(size, dtype=np.intp)
    if searched:
        tree, node, count_, total_ = map(np.concatenate, zip(*searched))
        count[first[tree] + node], total[first[tree] + node] = count_, total_
    # a node never searched was never partitioned: its segment still holds its rows in bootstrap order
    tree, node, count_, start = map(np.concatenate, zip(*unsearched))
    by_count = np.argsort(-count_, kind="stable")
    at, count_, start = first[tree[by_count]] + node[by_count], count_[by_count], start[by_count]
    count[at] = count_
    for a, b in _runs(count_):
        total[at[a:b]] = np.add.reduce(yg[perm[start[a:b, None] + np.arange(count_[a])]], axis=1)
    if splits:
        tree, node, feature_, threshold_, left_ = map(np.concatenate, zip(*splits))
        at = first[tree] + node
        feature[at], threshold[at], left[at], right[at] = feature_, threshold_, left_, left_ + 1
    columns = (feature, threshold, left, right, total / count, count)
    for column in columns:
        column.flags.writeable = False
    return tuple(Tree(*(column[a:b] for column in columns)) for a, b in zip(first.tolist(), (first + n_nodes).tolist()))


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
    trees = _grow_forest(X, y, params, mtry, seed)
    return Forest(trees=trees, n_features=p, params=params, seed=seed, constant_outcome=constant)


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
