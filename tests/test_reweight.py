import math

import pytest

from oracles import employment_table
from taskatlas.reweight import (
    EmploymentRow,
    ReweightError,
    Sex,
    ValueOverflowError,
    WeightVector,
    coverage_filter,
    employment_weighted_exposure,
    gender_fe_panel,
    gender_gap,
    tables,
)


def table(rows):
    return employment_table(EmploymentRow(*r) for r in rows)


def cells_for(iso3, year, sex, counts):
    return [(iso3, year, sex, f"isco{i + 1}", c) for i, c in enumerate(counts)]


class TestCoverageFilter:
    def test_latest_qualifying_year_wins(self):
        rows = cells_for("AAA", 2023, Sex.TOTAL, [10.0] * 9) + cells_for("AAA", 2024, Sex.TOTAL, [10.0] * 7)
        result = coverage_filter(table(rows))
        assert result.totals["AAA"].year == 2023

    def test_never_enough_groups_excluded(self):
        rows = cells_for("AAA", 2022, Sex.TOTAL, [5.0] * 7) + cells_for("AAA", 2023, Sex.TOTAL, [5.0] * 6)
        result = coverage_filter(table(rows))
        assert "AAA" not in result.totals
        assert ("AAA", "total") in result.excluded

    def test_latest_common_year_for_sex_pair(self):
        rows = (
            cells_for("AAA", 2021, Sex.FEMALE, [1.0] * 8)
            + cells_for("AAA", 2023, Sex.FEMALE, [1.0] * 8)
            + cells_for("AAA", 2021, Sex.MALE, [1.0] * 8)
            + cells_for("AAA", 2022, Sex.MALE, [1.0] * 8)
        )
        result = coverage_filter(table(rows))
        assert result.female["AAA"].year == 2021
        assert result.male["AAA"].year == 2021

    def test_window_respected(self):
        rows = cells_for("AAA", 2014, Sex.TOTAL, [9.0] * 9)
        assert "AAA" not in coverage_filter(table(rows), window=(2015, 2025)).totals

    def test_shares_sum_to_one(self):
        rows = cells_for("AAA", 2023, Sex.TOTAL, [float(i + 1) for i in range(9)])
        vector = coverage_filter(table(rows)).totals["AAA"]
        assert math.fsum(share for _, share in vector.cells) == pytest.approx(1.0, abs=1e-12)

    def test_zero_count_cells_do_not_qualify(self):
        rows = cells_for("AAA", 2023, Sex.TOTAL, [1.0] * 7 + [0.0, 0.0])
        assert "AAA" not in coverage_filter(table(rows), min_groups=8).totals

    def test_row_order_invariance(self):
        rows = cells_for("AAA", 2023, Sex.TOTAL, [float(i + 1) for i in range(9)])
        a = coverage_filter(table(rows))
        b = coverage_filter(table(list(reversed(rows))))
        assert a.totals == b.totals


class TestTables:
    @pytest.mark.parametrize(
        "rows, detail",
        [
            (cells_for("AAA", 2014, Sex.TOTAL, [9.0] * 9), "(1 exclusions; first: AAA (total): no year with >= 8"),
            (cells_for("AAA", 2023, Sex.TOTAL, [0.0] * 9), "(0 exclusions; no country has a positive count)"),
        ],
    )
    def test_coverage_without_a_vector_is_an_error(self, rows, detail):
        coverage = coverage_filter(table(rows))
        with pytest.raises(ReweightError, match="coverage kept no employment weight vector") as raised:
            tables(coverage, ("value",), {"AAA": {"isco1": {"value": 1.0}}})
        assert detail in str(raised.value)


def unit_vector(iso3="AAA", sex=Sex.TOTAL, year=2023, shares=None):
    shares = shares or {"c1": 0.5, "c2": 0.5}
    return WeightVector(iso3=iso3, sex=sex, year=year, cells=tuple(sorted(shares.items())))


class TestEmploymentWeighted:
    def test_uniform_weights_simple_mean(self):
        weights = unit_vector(shares={"c1": 0.25, "c2": 0.25, "c3": 0.25, "c4": 0.25})
        values = {"c1": 0.0, "c2": 1.0, "c3": 2.0, "c4": 3.0}
        assert employment_weighted_exposure(values, weights).value == pytest.approx(1.5)

    def test_degenerate_weight(self):
        weights = unit_vector(shares={"c1": 1.0})
        assert employment_weighted_exposure({"c1": 2.5}, weights).value == 2.5

    def test_missing_cells_dropped_with_renormalization(self):
        weights = unit_vector(shares={"c1": 0.5, "c2": 0.25, "gone": 0.25})
        result = employment_weighted_exposure({"c1": 1.0, "c2": 3.0}, weights)
        assert result.value == pytest.approx((0.5 * 1.0 + 0.25 * 3.0) / 0.75)
        assert result.dropped_share == pytest.approx(0.25)

    def test_zero_usable_mass_errors(self):
        weights = unit_vector(shares={"gone": 1.0})
        with pytest.raises(ReweightError):
            employment_weighted_exposure({"c1": 1.0}, weights)

    def test_adjustment_against_baseline(self):
        weights = unit_vector(shares={"c1": 0.9, "c2": 0.1})
        result = employment_weighted_exposure({"c1": 1.0, "c2": 0.0}, weights, baseline=0.5)
        assert result.adjustment == pytest.approx(0.4)

    def test_bounded_by_cell_values(self, rng):
        shares = rng.random(6)
        shares /= shares.sum()
        weights = unit_vector(shares={f"c{i}": float(s) for i, s in enumerate(shares)})
        values = {f"c{i}": float(v) for i, v in enumerate(rng.random(6) * 3)}
        got = employment_weighted_exposure(values, weights).value
        assert min(values.values()) - 1e-12 <= got <= max(values.values()) + 1e-12


MARGIN_VALUES = {
    "c1": {"substitute": 0.8, "augment": 0.1},
    "c2": {"substitute": 0.2, "augment": 0.3},
}


class TestGenderGap:
    def test_identical_shares_zero_gap(self):
        female = unit_vector(sex=Sex.FEMALE)
        male = unit_vector(sex=Sex.MALE)
        gaps = gender_gap(MARGIN_VALUES, female, male).gaps_pp
        assert gaps == {"substitute": 0.0, "augment": 0.0}

    def test_concentration_on_high_substitution_cell(self):
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": 0.9, "c2": 0.1})
        male = unit_vector(sex=Sex.MALE, shares={"c1": 0.5, "c2": 0.5})
        gaps = gender_gap(MARGIN_VALUES, female, male).gaps_pp
        # E_F,sub = .9*.8+.1*.2 = .74 ; E_M,sub = .5*.8+.5*.2 = .50 ; gap 24 pp
        assert gaps["substitute"] == pytest.approx(24.0)

    def test_antisymmetry(self, rng):
        fshares = rng.random(2)
        fshares /= fshares.sum()
        mshares = rng.random(2)
        mshares /= mshares.sum()
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": float(fshares[0]), "c2": float(fshares[1])})
        male = unit_vector(sex=Sex.MALE, shares={"c1": float(mshares[0]), "c2": float(mshares[1])})
        forward = gender_gap(MARGIN_VALUES, female, male).gaps_pp
        backward = gender_gap(MARGIN_VALUES, male, female).gaps_pp
        for margin in forward:
            assert forward[margin] == -backward[margin]

    def test_cell_scheme_mismatch_errors(self):
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": 1.0})
        male = unit_vector(sex=Sex.MALE, shares={"c2": 1.0})
        with pytest.raises(ReweightError, match="schemes differ"):
            gender_gap(MARGIN_VALUES, female, male)

    def test_overflowing_gap_errors(self):
        values = {"c1": {"m": 1e308}, "c2": {"m": -1e308}}
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": 0.9, "c2": 0.1})
        male = unit_vector(sex=Sex.MALE, shares={"c1": 0.1, "c2": 0.9})
        with pytest.raises(ValueOverflowError, match="m gap for AAA overflows"):
            gender_gap(values, female, male)


class TestGenderFePanel:
    def test_equal_shares_null_outcome(self):
        values = {"AAA": MARGIN_VALUES}
        female = {"AAA": unit_vector(sex=Sex.FEMALE)}
        male = {"AAA": unit_vector(sex=Sex.MALE)}
        rows = gender_fe_panel(values, female, male)
        assert all(row.y_pp == 0.0 for row in rows)

    def test_row_cardinality(self):
        three_cells = {"c1": {"m": 0.1}, "c2": {"m": 0.2}, "c3": {"m": 0.3}}
        values = {"AAA": three_cells, "BBB": three_cells}
        shares = {"c1": 0.2, "c2": 0.3, "c3": 0.5}
        female = {c: unit_vector(iso3=c, sex=Sex.FEMALE, shares=shares) for c in values}
        male = {c: unit_vector(iso3=c, sex=Sex.MALE, shares=shares) for c in values}
        assert len(gender_fe_panel(values, female, male)) == 6

    def test_regressor_scaled_per_ten_pp(self):
        values = {"AAA": {"c1": {"substitute": 0.37}, "c2": {"substitute": 0.4}}}
        female = {"AAA": unit_vector(sex=Sex.FEMALE)}
        male = {"AAA": unit_vector(sex=Sex.MALE)}
        rows = gender_fe_panel(values, female, male)
        assert rows[0].x["substitute"] == pytest.approx(3.7)

    def test_outcome_in_percentage_points(self):
        values = {"AAA": {"c1": {"m": 0.0}, "c2": {"m": 0.0}}}
        female = {"AAA": unit_vector(sex=Sex.FEMALE, shares={"c1": 0.6, "c2": 0.4})}
        male = {"AAA": unit_vector(sex=Sex.MALE, shares={"c1": 0.5, "c2": 0.5})}
        rows = {r.cell_id: r for r in gender_fe_panel(values, female, male)}
        assert rows["c1"].y_pp == pytest.approx(10.0)
        assert rows["c2"].y_pp == pytest.approx(-10.0)

    def test_overflowing_regressor_names_country_and_cell(self):
        values = {"AAA": {"c1": {"substitute": 0.3}, "c2": {"substitute": 1e308}}}
        female = {"AAA": unit_vector(sex=Sex.FEMALE)}
        male = {"AAA": unit_vector(sex=Sex.MALE)}
        with pytest.raises(ValueOverflowError, match="substitute value 1e\\+308 for AAA cell c2 overflows"):
            gender_fe_panel(values, female, male)
