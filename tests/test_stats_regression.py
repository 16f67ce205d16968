import numpy as np
import pytest

from oracles import dummy_fe_oracle
from taskatlas.stats import StatsError, fe_regression


def small_panel(rng, n_countries=4, n_cells=4, missing=0.1):
    rows, cols, y, x = [], [], [], []
    alpha = {f"c{i}": rng.normal() for i in range(n_countries)}
    gamma = {f"j{i}": rng.normal() for i in range(n_cells)}
    for c in sorted(alpha):
        for j in sorted(gamma):
            if rng.random() < missing:
                continue
            rows.append(c)
            cols.append(j)
            xv = rng.normal()
            x.append(xv)
            y.append(alpha[c] + gamma[j] + 0.7 * xv + 0.3 * rng.normal())
    return np.asarray(y), np.asarray(x), rows, cols


class TestFeRegression:
    def test_pure_fixed_effects_zero_beta(self, rng):
        rows, cols, y, x = [], [], [], []
        for c in range(4):
            for j in range(4):
                rows.append(f"c{c}")
                cols.append(f"j{j}")
                x.append(rng.normal())
                y.append(2.0 * c - 3.0 * j)  # exactly additive in the two effects
        result = fe_regression(y, x, rows, cols, rows)
        assert result.beta == pytest.approx(0.0, abs=1e-8)

    def test_matches_dummy_variable_oracle_small_fixture(self, rng):
        y, x, rows, cols = small_panel(rng, 3, 3, missing=0.0)
        result = fe_regression(y, x, rows, cols, rows)
        beta, se, k = dummy_fe_oracle(y, x, rows, cols, rows)
        assert result.beta == pytest.approx(beta, abs=1e-8)
        assert result.se == pytest.approx(se, abs=1e-8)
        assert result.k_effective == k

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_on_random_unbalanced_fixtures(self, seed):
        rng = np.random.default_rng(seed + 1000)
        y, x, rows, cols = small_panel(rng, int(rng.integers(3, 6)), int(rng.integers(3, 6)), missing=0.2)
        if len(y) > 50 or len(set(rows)) < 2:
            pytest.skip("fixture out of the <=50-row oracle regime")
        result = fe_regression(y, x, rows, cols, rows)
        beta, se, k = dummy_fe_oracle(y, x, rows, cols, rows)
        assert result.beta == pytest.approx(beta, abs=1e-8)
        assert result.se == pytest.approx(se, abs=1e-8)
        assert result.k_effective == k

    def test_cluster_on_other_dimension_matches_oracle(self, rng):
        y, x, rows, cols = small_panel(rng, 4, 5, missing=0.0)
        result = fe_regression(y, x, rows, cols, cols)
        beta, se, _ = dummy_fe_oracle(y, x, rows, cols, cols)
        assert result.beta == pytest.approx(beta, abs=1e-8)
        assert result.se == pytest.approx(se, abs=1e-8)

    def test_single_cluster_errors(self, rng):
        y, x, rows, cols = small_panel(rng, 2, 3, missing=0.0)
        with pytest.raises(StatsError, match="clusters"):
            fe_regression(y, x, rows, cols, ["only"] * len(y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_error(self, bad):
        rows, cols = ["a", "a", "b", "b"], ["x", "y", "x", "y"]
        with pytest.raises(StatsError, match="non-finite"):
            fe_regression([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0], rows, cols, rows)
        with pytest.raises(StatsError, match="non-finite"):
            fe_regression([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 5.0], rows, cols, rows)

    def test_absorbed_regressor_errors(self):
        rows = ["a", "a", "b", "b"]
        cols = ["x", "y", "x", "y"]
        x = [1.0, 1.0, 2.0, 2.0]  # constant within row groups
        y = [0.1, 0.2, 0.3, 0.4]
        with pytest.raises(StatsError, match="absorbed"):
            fe_regression(y, x, rows, cols, rows)

    @pytest.mark.parametrize("what", ["outcome", "regressor"])
    def test_non_convergence_from_magnitude_names_variable_and_scale(self, rng, what):
        # rounding residue of a 1e155 cell keeps every applied mean above the absolute tolerance
        y, x, rows, cols = small_panel(rng, 4, 4, missing=0.0)
        (y if what == "outcome" else x)[0] = 1e155
        with pytest.raises(StatsError, match=f"demeaning of the {what} did not converge.*reach 1e\\+155.*tolerance"):
            fe_regression(y, x, rows, cols, rows)

    def test_reported_shapes(self, rng):
        y, x, rows, cols = small_panel(rng, 4, 4, missing=0.0)
        result = fe_regression(y, x, rows, cols, rows)
        assert result.n == len(y)
        assert result.n_clusters == 4
        assert result.n_row_groups == 4
        assert result.n_col_groups == 4

    def test_disconnected_panel_matches_oracle(self, rng):
        # two blocks that never share a row or column group
        rows, cols, y, x = [], [], [], []
        for block, (row_ids, col_ids) in enumerate(
            ((("a", "b", "c"), ("p", "q", "r")), (("d", "e", "f"), ("s", "t", "u")))
        ):
            for r in row_ids:
                for c in col_ids:
                    rows.append(r)
                    cols.append(c)
                    xv = float(rng.normal())
                    x.append(xv)
                    y.append(0.6 * xv + block + float(rng.normal(scale=0.5)))
        result = fe_regression(y, x, rows, cols, rows)
        beta, se, k = dummy_fe_oracle(y, x, rows, cols, rows)
        assert result.beta == pytest.approx(beta, abs=1e-8)
        assert result.se == pytest.approx(se, abs=1e-8)
        assert result.k_effective == k  # one fewer free effect per extra component
