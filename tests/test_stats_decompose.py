import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import factorial_shapley_r2, rank_deficient_subset_count
from taskatlas.stats import StatsError, shapley_r2, variance_decomposition


class TestVarianceDecomposition:
    def test_purely_additive_matrix_no_interaction(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        matrix = a[:, None] + b[None, :]
        shares = variance_decomposition(matrix)
        assert shares.interaction_share == pytest.approx(0.0, abs=1e-12)
        assert shares.row_share + shares.col_share == pytest.approx(1.0, abs=1e-9)

    def test_constant_matrix_degenerate(self):
        shares = variance_decomposition(np.full((3, 4), 2.0))
        assert shares.degenerate
        assert shares.row_share is None

    def test_shares_sum_to_one_on_random_matrices(self, rng):
        for _ in range(10):
            matrix = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 8))))
            shares = variance_decomposition(matrix)
            total = shares.row_share + shares.col_share + shares.interaction_share
            assert total == pytest.approx(1.0, abs=1e-9)
            assert shares.row_share >= 0 and shares.col_share >= 0 and shares.interaction_share >= 0

    def test_pure_interaction(self):
        matrix = np.asarray([[1.0, -1.0], [-1.0, 1.0]])
        shares = variance_decomposition(matrix)
        assert shares.interaction_share == pytest.approx(1.0)

    def test_missing_cells_flagged(self, rng):
        matrix = rng.normal(size=(4, 4))
        matrix[1, 2] = np.nan
        shares = variance_decomposition(matrix)
        assert not shares.complete

    def test_too_small_errors(self):
        with pytest.raises(StatsError):
            variance_decomposition(np.asarray([[1.0, 2.0]]))

    def test_component_sums_match_anova_identity(self, rng):
        matrix = rng.normal(size=(5, 7))
        shares = variance_decomposition(matrix)
        grand = matrix.mean()
        row_ss = 7 * ((matrix.mean(axis=1) - grand) ** 2).sum()
        col_ss = 5 * ((matrix.mean(axis=0) - grand) ** 2).sum()
        total = ((matrix - grand) ** 2).sum()
        assert shares.row_share == pytest.approx(row_ss / total, abs=1e-12)
        assert shares.col_share == pytest.approx(col_ss / total, abs=1e-12)


class TestShapleyR2:
    def test_single_predictor_contribution_is_its_r2(self, rng):
        x = rng.normal(size=30)
        y = 0.8 * x + rng.normal(size=30)
        result = shapley_r2(x[:, None], y)
        expected = np.corrcoef(x, y)[0, 1] ** 2
        assert result.contributions[0] == pytest.approx(expected, abs=1e-9)
        assert result.full_r2 == pytest.approx(expected, abs=1e-9)

    def test_orthogonal_predictors_get_marginal_r2(self, rng):
        n = 64
        x1 = np.tile([1.0, -1.0], n // 2)
        x2 = np.repeat([1.0, -1.0], n // 2)
        assert abs(x1 @ x2) < 1e-12
        y = 0.9 * x1 + 0.4 * x2 + rng.normal(scale=0.3, size=n)
        result = shapley_r2(np.column_stack([x1, x2]), y)
        for i, x in enumerate((x1, x2)):
            marginal = 1.0 - ((y - np.polyval(np.polyfit(x, y, 1), x)) ** 2).sum() / ((y - y.mean()) ** 2).sum()
            # exact for orthogonal designs with centered regressors
            assert result.contributions[i] == pytest.approx(marginal, abs=1e-6)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_factorial_ordering_brute_force(self, p):
        rng = np.random.default_rng(100 + p)
        X = rng.normal(size=(25, p))
        beta = rng.normal(size=p)
        y = X @ beta + rng.normal(size=25)
        result = shapley_r2(X, y)
        expected = factorial_shapley_r2(X, y)
        assert np.allclose(result.contributions, expected, atol=1e-9)

    def test_efficiency_sum_is_full_r2(self, rng):
        X = rng.normal(size=(40, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=40)
        result = shapley_r2(X, y)
        assert result.contributions.sum() == pytest.approx(result.full_r2, abs=1e-9)

    def test_duplicated_predictors_equal_contributions(self, rng):
        x = rng.normal(size=30)
        X = np.column_stack([x, x, rng.normal(size=30)])
        y = 2 * x + rng.normal(size=30)
        result = shapley_r2(X, y)
        assert result.contributions[0] == pytest.approx(result.contributions[1], abs=1e-9)
        assert result.rank_deficient_subsets > 0

    def test_p_cap(self, rng):
        X = rng.normal(size=(30, 21))
        with pytest.raises(StatsError, match="20"):
            shapley_r2(X, rng.normal(size=30))

    def test_constant_outcome_errors(self, rng):
        with pytest.raises(StatsError):
            shapley_r2(rng.normal(size=(10, 2)), np.ones(10))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        p=st.integers(1, 7),
        n=st.integers(3, 40),
        shape=st.sampled_from(["random", "duplicated", "collinear", "constant"]),
    )
    def test_matches_oracles_including_deficient_designs(self, seed, p, n, shape):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        if shape == "duplicated" and p >= 2:
            X[:, -1] = X[:, 0]
        elif shape == "collinear" and p >= 3:
            X[:, -1] = X[:, 0] - 2.0 * X[:, 1]
        elif shape == "constant":
            X[:, -1] = 3.0
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        result = shapley_r2(X, y)
        assert np.allclose(result.contributions, factorial_shapley_r2(X, y), atol=1e-9)
        assert result.rank_deficient_subsets == rank_deficient_subset_count(X)

    @pytest.mark.parametrize("exact_copy", [False, True])
    @pytest.mark.parametrize("scale", [0.0, 1e-17, 1e-12, 1e-6])
    def test_rank_count_follows_matrix_rank_tolerance(self, scale, exact_copy):
        # a near-copy of column 0: below the tolerance it counts as deficient, above it does not;
        # an exact copy elsewhere makes the full design deficient as well
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        X[:, 3] = X[:, 0] + scale * rng.normal(size=40)
        if exact_copy:
            X[:, 4] = X[:, 1]
        result = shapley_r2(X, X[:, 0] + X[:, 1] + rng.normal(size=40))
        assert result.rank_deficient_subsets == rank_deficient_subset_count(X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_error(self, rng, bad):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        X[2, 1] = bad
        with pytest.raises(StatsError, match="non-finite"):
            shapley_r2(X, y)
        with pytest.raises(StatsError, match="non-finite"):
            shapley_r2(X[:, [0]], np.where(np.arange(20) == 5, bad, y))
