import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import predict_one, reference_forest, tree_features_used, tree_lists, tree_max_depth, tree_predict
from taskatlas.stats import ForestParams, StatsError, fit_forest, permutation_importance
from taskatlas.stats.forest import LEAF


class TestFitForest:
    def test_constant_outcome_constant_predictions(self, rng):
        X = rng.normal(size=(20, 3))
        forest = fit_forest(X, np.full(20, 1.25), ForestParams(n_trees=10), seed=0)
        assert forest.constant_outcome
        assert np.allclose(forest.predict(X), 1.25)

    def test_step_function_high_train_r2(self, rng):
        n = 120
        X = rng.uniform(0, 1, size=(n, 1))
        y = (X[:, 0] > 0.5).astype(float)
        forest = fit_forest(X, y, ForestParams(n_trees=50, min_leaf=2), seed=1)
        predictions = forest.predict(X)
        r2 = 1.0 - ((predictions - y) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        assert r2 > 0.95

    def test_same_seed_identical_forests(self, rng):
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        a, b, c = (fit_forest(X, y, ForestParams(n_trees=8), seed=seed) for seed in (9, 9, 10))
        assert list(map(tree_lists, a.trees)) == list(map(tree_lists, b.trees))
        assert list(map(tree_lists, a.trees)) != list(map(tree_lists, c.trees))

    def test_min_leaf_respected(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        forest = fit_forest(X, y, ForestParams(n_trees=5, min_leaf=5), seed=0)
        for tree in forest.trees:
            for node, feature in enumerate(tree.feature):
                if feature == -1:
                    assert tree.count[node] >= 5

    def test_max_depth_cap(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        forest = fit_forest(X, y, ForestParams(n_trees=5, max_depth=2), seed=0)
        assert all(tree_max_depth(tree) <= 2 for tree in forest.trees)

    def test_too_few_rows_errors(self):
        with pytest.raises(StatsError):
            fit_forest(np.zeros((3, 2)), np.zeros(3), ForestParams(min_leaf=2), seed=0)

    def test_prediction_is_mean_over_trees(self, rng):
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        forest = fit_forest(X, y, ForestParams(n_trees=7), seed=3)
        row = X[0]
        per_tree = [tree_predict(tree, row) for tree in forest.trees]
        assert predict_one(forest, row) == pytest.approx(np.mean(per_tree), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        p=st.integers(1, 5),
        n_trees=st.integers(1, 12),
        rows=st.integers(0, 25),
        on_thresholds=st.booleans(),
    )
    def test_predict_is_bitwise_fsum_of_tree_predictions(self, seed, p, n_trees, rows, on_thresholds):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, p))
        forest = fit_forest(X, X[:, 0] + rng.normal(size=30), ForestParams(n_trees=n_trees), seed=seed)
        queries = rng.normal(size=(rows, p))
        thresholds = [t for tree in forest.trees for t, f in zip(tree.threshold, tree.feature) if f != -1]
        if on_thresholds and thresholds and rows:
            queries[:, 0] = rng.choice(thresholds, size=rows)  # ties with split points go left
        expected = [math.fsum(tree_predict(tree, row) for tree in forest.trees) / n_trees for row in queries]
        assert np.array_equal(forest.predict(queries), np.asarray(expected, dtype=np.float64).reshape(rows))
        for row, value in zip(queries, expected):
            assert predict_one(forest, row) == value

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 40),
        p=st.integers(1, 4),
        n_trees=st.integers(1, 4),
        min_leaf=st.integers(1, 4),
        max_depth=st.one_of(st.none(), st.integers(1, 6)),
        mtry=st.integers(0, 4),
        levels=st.sampled_from([None, 2, 5]),
        constant=st.one_of(st.none(), st.integers(0, 3)),
    )
    def test_trees_equal_the_list_grower(self, seed, n, p, n_trees, min_leaf, max_depth, mtry, levels, constant):
        """Field for field, on data with tied values (few levels), a constant
        feature column and, at times, a constant or tied outcome."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = X[:, 0] + rng.normal(size=n)
        if levels is not None:
            X, y = np.round(X * levels / 4), np.round(y * levels / 4)
        if constant is not None:
            X[:, constant % p] = 1.5
        assume(n >= 2 * min_leaf)
        params = ForestParams(n_trees=n_trees, mtry=min(mtry, p) or None, min_leaf=min_leaf, max_depth=max_depth)
        forest = fit_forest(X, y, params, seed=seed)
        assert list(map(tree_lists, forest.trees)) == reference_forest(X, y, params, seed)
        for tree in forest.trees:
            leaf = tree.feature == LEAF
            nodes = np.arange(len(leaf))
            assert np.array_equal(tree.left[leaf], nodes[leaf]) and np.array_equal(tree.right[leaf], nodes[leaf])
            assert np.array_equal(tree.count[tree.left[~leaf]] + tree.count[tree.right[~leaf]], tree.count[~leaf])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(40, 300),
        p=st.integers(1, 6),
        n_trees=st.integers(10, 40),
        min_leaf=st.integers(1, 4),
        max_depth=st.one_of(st.none(), st.integers(1, 8)),
        mtry=st.integers(0, 6),
        levels=st.sampled_from([None, 2, 5]),
        constant=st.one_of(st.none(), st.integers(0, 5)),
        tied_outcome=st.booleans(),
        scale=st.sampled_from([1.0, 1e152]),
    )
    # roots and depth-1 leaves above numpy's 128-element pairwise-sum block
    @example(seed=5, n=300, p=3, n_trees=12, min_leaf=2, max_depth=1, mtry=0, levels=None, constant=None,
             tied_outcome=False, scale=1.0)
    @example(seed=6, n=300, p=4, n_trees=12, min_leaf=1, max_depth=None, mtry=2, levels=5, constant=1,
             tied_outcome=False, scale=1.0)
    def test_wide_forests_equal_the_list_grower(self, seed, n, p, n_trees, min_leaf, max_depth, mtry, levels,
                                                 constant, tied_outcome, scale):
        """Forests whose trees finish at different steps of the lockstep
        grower; tied feature values beside an outcome whose partial sums depend
        on the order of the ties; outcomes large enough that some split gains
        overflow to NaN, which never win a split; and nodes of more than 128
        rows, where numpy's pairwise sum splits recursively."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = X[:, 0] + rng.normal(size=n)
        if levels is not None:
            X = np.round(X * levels / 4)
            if tied_outcome:
                y = np.round(y * levels / 4)
        if constant is not None:
            X[:, constant % p] = 1.5
        params = ForestParams(n_trees=n_trees, mtry=min(mtry, p) or None, min_leaf=min_leaf, max_depth=max_depth)
        forest = fit_forest(X, y * scale, params, seed=seed)
        with np.errstate(over="ignore", invalid="ignore"):  # the reference's overflowing gains
            reference = reference_forest(X, y * scale, params, seed)
        assert list(map(tree_lists, forest.trees)) == reference

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_error(self, rng, bad):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        X[3, 0] = bad
        with pytest.raises(StatsError, match="non-finite"):
            fit_forest(X, y, ForestParams(n_trees=2), seed=0)
        y[0] = bad
        with pytest.raises(StatsError, match="non-finite"):
            fit_forest(X[:, [1]], y, ForestParams(n_trees=2), seed=0)


class TestPermutationImportance:
    def test_unused_feature_zero(self, rng):
        n = 80
        X = np.column_stack([rng.normal(size=n), np.zeros(n)])  # constant column never splits
        y = X[:, 0] * 2
        forest = fit_forest(X, y, ForestParams(n_trees=20), seed=0)
        assert all(1 not in tree_features_used(tree) for tree in forest.trees)
        importances = permutation_importance(forest, X, y, seed=0, repeats=3)
        assert importances[1] == 0.0

    def test_dominant_feature_dominates(self, rng):
        n = 100
        X = rng.normal(size=(n, 3))
        y = 3.0 * X[:, 0] + 0.01 * rng.normal(size=n)
        forest = fit_forest(X, y, ForestParams(n_trees=30), seed=2)
        importances = permutation_importance(forest, X, y, seed=0, repeats=3)
        assert importances[0] > importances[1] and importances[0] > importances[2]

    def test_deterministic_under_seed(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        forest = fit_forest(X, y, ForestParams(n_trees=10), seed=0)
        a = permutation_importance(forest, X, y, seed=5, repeats=4)
        b = permutation_importance(forest, X, y, seed=5, repeats=4)
        assert np.array_equal(a, b)
