import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_force_shap, coverage_expectation, predict_one, reference_paths_shap, shap_total, tree_features_used,
)
from taskatlas.stats import ForestParams, StatsError, fit_forest, mean_abs_shap, tree_shap
from taskatlas.stats import treeshap
from taskatlas.stats.forest import LEAF, Tree


def tree_of(values, counts, splits=()) -> Tree:
    """A tree of ``len(values)`` nodes, root first; ``splits`` maps each
    internal node to its (feature, threshold, left, right), and every other
    node is a leaf."""
    size = len(values)
    feature, threshold, left, right = np.full(size, LEAF), np.zeros(size), np.arange(size), np.arange(size)
    for node, split in dict(splits).items():
        feature[node], threshold[node], left[node], right[node] = split
    return Tree(feature, threshold, left, right, np.asarray(values, dtype=np.float64), np.asarray(counts))


def leaf_tree(value: float, count: int = 10) -> Tree:
    return tree_of([value], [count])


def depth_one_tree(feature=0, threshold=0.5, left=(1.0, 3), right=(5.0, 7)) -> Tree:
    root = (left[0] * left[1] + right[0] * right[1]) / (left[1] + right[1])
    return tree_of([root, left[0], right[0]], [left[1] + right[1], left[1], right[1]], {0: (feature, threshold, 1, 2)})


def forest_of(trees, n_features):
    from taskatlas.stats.forest import Forest

    return Forest(trees=tuple(trees), n_features=n_features, params=ForestParams(n_trees=len(trees)),
                  seed=0, constant_outcome=False)


class TestTreeShapSmall:
    def test_single_leaf_all_zero(self):
        forest = forest_of([leaf_tree(4.2)], n_features=3)
        result = tree_shap(forest, np.zeros(3))
        assert np.allclose(result.values, 0.0)
        assert result.base_value == pytest.approx(4.2)

    def test_depth_one_two_subset_shapley_by_hand(self):
        tree = depth_one_tree(left=(1.0, 3), right=(5.0, 7))
        forest = forest_of([tree], n_features=2)
        x = np.asarray([0.2, 9.9])  # goes left
        result = tree_shap(forest, x)
        base = (1.0 * 3 + 5.0 * 7) / 10
        assert result.base_value == pytest.approx(base)
        assert result.values[0] == pytest.approx(1.0 - base)
        assert result.values[1] == 0.0

    def test_local_accuracy_on_hand_tree(self):
        forest = forest_of([depth_one_tree()], n_features=2)
        for x in (np.asarray([0.0, 0.0]), np.asarray([1.0, 0.0])):
            result = tree_shap(forest, x)
            assert shap_total(result) == pytest.approx(predict_one(forest, x), abs=1e-12)

    def test_dimension_mismatch(self):
        forest = forest_of([leaf_tree(1.0)], n_features=2)
        with pytest.raises(StatsError):
            tree_shap(forest, np.zeros(3))


def repeated_split_tree() -> Tree:
    """Feature 0 split twice along the same path, feature 1 once.

    Internal node values are the coverage-weighted means of their leaves, as in
    a grown tree.
    """
    a_value = (-2.0 * 5 + 0.5 * 3) / 8
    b_value = (0.25 * 4 + 1.75 * 4) / 8
    return tree_of(
        # root, a (x0 <= 0.5), b, a1 (x0 <= 0.2), a2 (0.2 < x0 <= 0.5), b1 (x1 <= 0.0), b2
        [(a_value * 8 + b_value * 8) / 16, a_value, b_value, -2.0, 0.5, 0.25, 1.75],
        [16, 8, 8, 5, 3, 4, 4],
        {0: (0, 0.5, 1, 2), 1: (0, 0.2, 3, 4), 2: (1, 0.0, 5, 6)},
    )


class TestTreeShapAgainstBruteForce:
    def test_repeated_feature_on_path_matches_brute_force(self):
        forest = forest_of([repeated_split_tree()], n_features=2)
        for x in (np.asarray([0.1, -1.0]), np.asarray([0.3, 2.0]), np.asarray([0.9, -0.5]), np.asarray([0.9, 0.5])):
            got = tree_shap(forest, x)
            expected = brute_force_shap(forest, x)
            assert np.allclose(got.values, expected, atol=1e-12)
            assert shap_total(got) == pytest.approx(predict_one(forest, x), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_subset_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 50, int(rng.integers(2, 5))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + 0.5 * rng.normal(size=n)
        forest = fit_forest(X, y, ForestParams(n_trees=4, min_leaf=3, max_depth=3), seed=seed)
        for row in X[:5]:
            got = tree_shap(forest, row).values
            expected = brute_force_shap(forest, row)
            assert np.allclose(got, expected, atol=1e-9)

    def test_local_accuracy_deep_forest(self, rng):
        X = rng.normal(size=(60, 5))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(size=60)
        forest = fit_forest(X, y, ForestParams(n_trees=12, min_leaf=2), seed=4)
        for row in X[:10]:
            result = tree_shap(forest, row)
            assert shap_total(result) == pytest.approx(predict_one(forest, row), abs=1e-9)

    def test_dummy_feature_gets_zero(self, rng):
        n = 60
        X = np.column_stack([rng.normal(size=n), np.zeros(n), rng.normal(size=n)])
        y = X[:, 0] + X[:, 2]
        forest = fit_forest(X, y, ForestParams(n_trees=10, min_leaf=2), seed=0)
        assert all(1 not in tree_features_used(tree) for tree in forest.trees)
        for row in X[:5]:
            assert tree_shap(forest, row).values[1] == 0.0

    def test_base_value_is_coverage_expectation_of_empty_set(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        forest = fit_forest(X, y, ForestParams(n_trees=5, min_leaf=2, max_depth=4), seed=1)
        expected = np.mean([coverage_expectation(t, X[0], frozenset()) for t in forest.trees])
        assert tree_shap(forest, X[0]).base_value == pytest.approx(expected, abs=1e-12)


class TestTreeShapMatrix:
    """A (rows x p) input gives each row's attributions in one call."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        p=st.integers(1, 4),
        n_trees=st.integers(1, 4),
        max_depth=st.integers(1, 5),
        rows=st.integers(1, 6),
        coarse=st.booleans(),
    )
    def test_rows_match_brute_force_on_random_forests(self, seed, p, n_trees, max_depth, rows, coarse):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, p))
        if coarse:
            X = np.round(X)  # ties, and rows sitting exactly on split thresholds
        y = X @ rng.normal(size=p) + X[:, 0] ** 2 + 0.3 * rng.normal(size=40)
        forest = fit_forest(X, y, ForestParams(n_trees=n_trees, min_leaf=2, max_depth=max_depth), seed=seed)
        queries = np.vstack([X[: rows // 2 + 1], rng.normal(size=(rows, p))])
        result = tree_shap(forest, queries)
        assert result.values.shape == queries.shape
        for row, values, total in zip(queries, result.values, shap_total(result)):
            assert np.allclose(values, brute_force_shap(forest, row), atol=1e-9)
            assert total == pytest.approx(predict_one(forest, row), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([-1.0, 0.1, 0.2, 0.3, 0.5, 0.9]), st.sampled_from([-1.0, 0.0, 0.5])),
            min_size=1,
            max_size=8,
        )
    )
    def test_rows_match_brute_force_on_repeated_split_tree(self, rows):
        forest = forest_of([repeated_split_tree()], n_features=2)
        queries = np.asarray(rows)
        result = tree_shap(forest, queries)
        for row, values, total in zip(queries, result.values, shap_total(result)):
            assert np.allclose(values, brute_force_shap(forest, row), atol=1e-9)
            assert total == pytest.approx(predict_one(forest, row), abs=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_error(self, rng, bad):
        X = rng.normal(size=(20, 2))
        forest = fit_forest(X, X[:, 0], ForestParams(n_trees=3), seed=0)
        X[4, 1] = bad
        with pytest.raises(StatsError, match="non-finite"):
            tree_shap(forest, X)


class TestPatternDeduplication:
    """Each distinct (leaf path, 0/1 pattern) pair is evaluated once; the
    attributions equal, bit for bit, those of every row evaluated on its own."""

    @staticmethod
    def every_row(forest, queries) -> np.ndarray:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(treeshap, "_paths_shap", reference_paths_shap)
            return tree_shap(forest, queries).values

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        p=st.integers(1, 6),
        n_trees=st.integers(1, 12),
        min_leaf=st.integers(1, 3),
        rows=st.integers(1, 30),
        coarse=st.booleans(),
    )
    def test_equals_every_row_evaluation(self, seed, p, n_trees, min_leaf, rows, coarse):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, p))
        if coarse:
            X = np.round(X * 2) / 2  # ties, so many rows share a pattern
        y = X @ rng.normal(size=p) + X[:, 0] ** 2 + 0.3 * rng.normal(size=60)
        forest = fit_forest(X, y, ForestParams(n_trees=n_trees, min_leaf=min_leaf), seed=seed)
        queries = np.vstack([X[:rows], rng.normal(size=(rows, p))])
        # rows sitting on split thresholds: a row equal to a threshold goes left
        for tree in forest.trees:
            for f, t in zip(tree.feature, tree.threshold):
                if f != LEAF:
                    queries[rng.integers(len(queries)), f] = t
        assert np.array_equal(tree_shap(forest, queries).values, self.every_row(forest, queries))

    def test_paths_too_long_for_one_key_are_evaluated_row_by_row(self, rng):
        """A chain of 64 splits on distinct features: the deepest paths hold more
        pattern bits than one int64 key can take beside the path index."""
        depth = 64
        # node 2i splits feature i: its left child 2i+1 is a leaf of one row, its right child 2i+2 goes on
        counts = np.ones(2 * depth + 1, dtype=np.intp)
        values = np.arange(2 * depth + 1, dtype=np.float64)
        for i in range(depth - 1, -1, -1):  # each split node's count and coverage-weighted mean
            counts[2 * i] = 1 + counts[2 * i + 2]
            values[2 * i] = (values[2 * i + 1] + values[2 * i + 2] * counts[2 * i + 2]) / counts[2 * i]
        tree = tree_of(values, counts, {2 * i: (i, 0.0, 2 * i + 1, 2 * i + 2) for i in range(depth)})
        forest = forest_of([tree], n_features=depth)
        queries = np.where(rng.random((5, depth)) < 0.9, 1.0, -1.0)
        queries[0] = 1.0  # reaches the deepest leaf
        assert np.array_equal(tree_shap(forest, queries).values, self.every_row(forest, queries))


class TestMeanAbsShap:
    def test_null_model_near_zero(self, rng):
        X = rng.normal(size=(40, 3))
        y = np.full(40, 2.0)
        ranking = mean_abs_shap(X, y, ForestParams(n_trees=10), seeds=(0,))
        assert np.allclose(ranking.mean_abs, 0.0, atol=1e-9)

    def test_signal_feature_ranks_first(self, rng):
        n = 80
        X = rng.normal(size=(n, 3))
        y = 4.0 * X[:, 1] + 0.05 * rng.normal(size=n)
        ranking = mean_abs_shap(X, y, ForestParams(n_trees=20, min_leaf=4), seeds=(0, 1))
        assert ranking.order[0] == 1

    def test_single_seed_equals_that_seed(self, rng):
        X = rng.normal(size=(30, 2))
        y = X[:, 0] + rng.normal(size=30)
        params = ForestParams(n_trees=10, min_leaf=3)
        single = mean_abs_shap(X, y, params, seeds=(7,))
        forest = fit_forest(X, y, params, seed=7)
        expected = np.stack([np.abs(tree_shap(forest, row).values) for row in X]).mean(axis=0) * 100
        assert np.allclose(single.mean_abs, expected, atol=1e-12)

    def test_scale_is_times_hundred(self, rng):
        X = rng.normal(size=(30, 2))
        y = X[:, 0]
        params = ForestParams(n_trees=5, min_leaf=3)
        ranking = mean_abs_shap(X, y, params, seeds=(0,))
        forest = fit_forest(X, y, params, seed=0)
        raw = np.stack([np.abs(tree_shap(forest, row).values) for row in X]).mean(axis=0)
        assert np.allclose(ranking.mean_abs, raw * 100.0)

    def test_no_seeds_errors(self, rng):
        with pytest.raises(StatsError):
            mean_abs_shap(rng.normal(size=(10, 2)), rng.normal(size=10), ForestParams(n_trees=2), seeds=())
