import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import pointwise_loess
from taskatlas._rng import rng_for
from taskatlas.stats import StatsError, bootstrap_band, loess


class TestLoess:
    def test_reproduces_linear_data_exactly(self, rng):
        x = np.sort(rng.uniform(0, 10, size=25))
        y = 3.0 * x - 1.5
        for span in (0.3, 0.6, 1.0):
            fit = loess(x, y, span=span)
            assert np.allclose(fit.values, 3.0 * fit.grid - 1.5, atol=1e-9)

    def test_constant_data_constant_fit(self, rng):
        x = rng.uniform(0, 1, size=15)
        y = np.full(15, 4.2)
        fit = loess(x, y, span=0.5)
        assert np.allclose(fit.values, 4.2, atol=1e-12)

    def test_seven_point_full_span_matches_hand_weighted_ols(self):
        x = np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.asarray([0.1, 0.9, 2.3, 2.8, 4.4, 4.9, 6.2])
        x0 = 2.0
        fit = loess(x, y, span=1.0, grid=[x0])
        # single-window reduction: tricube weights over all 7 points, then WLS
        dist = np.abs(x - x0)
        radius = dist.max()
        w = (1 - (dist / radius) ** 3) ** 3
        xw = (w * x).sum() / w.sum()
        yw = (w * y).sum() / w.sum()
        slope = (w * (x - xw) * (y - yw)).sum() / (w * (x - xw) ** 2).sum()
        expected = yw + slope * (x0 - xw)
        assert fit.values[0] == pytest.approx(expected, abs=1e-12)

    def test_degenerate_window_falls_back_to_mean(self):
        x = np.asarray([1.0, 1.0, 1.0, 2.0])
        y = np.asarray([0.0, 1.0, 2.0, 9.0])
        fit = loess(x, y, span=0.5, grid=[1.0])
        assert fit.fallback_points == (0,)
        assert fit.values[0] == pytest.approx(1.0)  # mean of the colocated points

    def test_window_all_at_radius_falls_back_to_window_mean(self):
        # every window point is at distance 1 = the radius, so every tricube weight is 0
        fit = loess([1.0, 3.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0], span=0.5, grid=[2.0])
        assert fit.values.tolist() == [1.5]
        assert fit.fallback_points == (0,)

    def test_span_bounds(self):
        with pytest.raises(StatsError):
            loess([1, 2, 3], [1, 2, 3], span=0.0)
        with pytest.raises(StatsError):
            loess([1, 2, 3], [1, 2, 3], span=1.5)

    def test_needs_enough_points(self):
        with pytest.raises(StatsError):
            loess([1.0, 2.0], [1.0, 2.0], span=1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        halves=st.lists(st.integers(0, 12), min_size=3, max_size=40),
        seed=st.integers(0, 2**16),
        span=st.floats(0.05, 1.0),
        grid_kind=st.sampled_from(["data", "every_other", "midpoints"]),
    )
    # a midpoint whose whole window sits at the radius: every tricube weight is 0
    @example(halves=[2, 6, 2, 6], seed=0, span=0.5, grid_kind="midpoints")
    def test_matches_pointwise_reference_with_ties(self, halves, seed, span, grid_kind):
        x = np.asarray(halves, dtype=np.float64) / 2.0  # small integer grid: many tied x
        y = np.random.default_rng(seed).normal(size=len(x))
        unique = np.unique(x)
        grid = {
            "data": None,
            "every_other": unique[::2],
            "midpoints": (unique[:-1] + unique[1:]) / 2.0 if len(unique) > 1 else unique,
        }[grid_kind]
        fit = loess(x, y, span=span, grid=grid)
        values, fallbacks = pointwise_loess(x, y, span, fit.grid)
        assert fit.fallback_points == fallbacks
        assert np.allclose(fit.values, values, rtol=1e-12, atol=1e-12)

    def test_grid_blocks_match_one_block(self, rng, monkeypatch):
        from taskatlas.stats import smooth

        x = rng.uniform(0, 5, size=30)
        y = np.sin(x) + rng.normal(scale=0.1, size=30)
        whole = loess(x, y, span=0.4)
        monkeypatch.setattr(smooth, "_GRID_BLOCK", 31)  # one grid point per block
        blocked = loess(x, y, span=0.4)
        assert np.array_equal(whole.values, blocked.values)
        assert whole.fallback_points == blocked.fallback_points

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_error(self, bad):
        with pytest.raises(StatsError, match="non-finite"):
            loess([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(StatsError, match="non-finite"):
            loess([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0])


class TestBootstrapBand:
    def test_zero_variance_data_zero_width(self):
        def fit(units):
            return np.asarray([5.0, 5.0])

        band = bootstrap_band(fit, units=list(range(10)), resamples=20, seed=1)
        assert np.allclose(band.lower, band.upper)

    def test_same_seed_identical_bands(self, rng):
        data = {i: float(v) for i, v in enumerate(rng.normal(size=12))}

        def fit(units):
            return np.asarray([np.mean([data[u] for u in units])])

        a = bootstrap_band(fit, list(data), resamples=50, seed=7)
        b = bootstrap_band(fit, list(data), resamples=50, seed=7)
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)
        c = bootstrap_band(fit, list(data), resamples=50, seed=8)
        assert not np.array_equal(a.lower, c.lower)

    def test_matches_seeded_resample_enumeration(self):
        units = ["a", "b", "c", "d", "e"]
        data = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 5.0}

        def fit(selected):
            return np.asarray([math.fsum(data[u] for u in selected) / len(selected)])

        band = bootstrap_band(fit, units, resamples=10, level=0.95, seed=42)
        # replay the per-replicate generators directly
        replicates = []
        for r in range(10):
            idx = rng_for(42, r).integers(0, 5, size=5)
            replicates.append(fit([units[i] for i in idx])[0])
        assert band.lower[0] == pytest.approx(np.percentile(replicates, 2.5))
        assert band.upper[0] == pytest.approx(np.percentile(replicates, 97.5))

    def test_needs_two_resamples(self):
        with pytest.raises(StatsError):
            bootstrap_band(lambda u: np.zeros(1), [1, 2], resamples=1)

    def test_loess_band_contains_true_line_mostly(self, rng):
        x = np.linspace(0, 1, 30)
        y = 2.0 * x + rng.normal(scale=0.05, size=30)
        fit = loess(x, y, span=0.8)

        def refit(unit_idx):
            idx = np.asarray(sorted(unit_idx))
            return loess(x[idx], y[idx], span=0.8, grid=fit.grid).values

        band = bootstrap_band(refit, list(range(30)), resamples=60, seed=5)
        truth = 2.0 * fit.grid
        covered = np.mean((band.lower - 0.05 <= truth) & (truth <= band.upper + 0.05))
        assert covered > 0.8
