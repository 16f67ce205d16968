import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from oracles import (
    employment_table,
    naive_coverage_filter,
    naive_load_cell_values,
    naive_load_employment,
    naive_reweight_tables,
)
from taskatlas.ingest import load_cell_values, load_employment
from taskatlas.reweight import (
    CellValues,
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

FIXTURES = Path(__file__).parent / "fixtures"


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
        assert math.fsum(vector.share.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_count_cells_do_not_qualify(self):
        rows = cells_for("AAA", 2023, Sex.TOTAL, [1.0] * 7 + [0.0, 0.0])
        assert "AAA" not in coverage_filter(table(rows), min_groups=8).totals

    def test_row_order_invariance(self):
        rows = cells_for("AAA", 2023, Sex.TOTAL, [float(i + 1) for i in range(9)])
        a = coverage_filter(table(rows))
        b = coverage_filter(table(list(reversed(rows))))
        assert a.cell_ids == b.cell_ids
        assert a.totals.keys() == b.totals.keys()
        for iso3, vector in a.totals.items():
            other = b.totals[iso3]
            assert (vector.iso3, vector.sex, vector.year) == (other.iso3, other.sex, other.year)
            assert vector.cell.tolist() == other.cell.tolist() and vector.share.tolist() == other.share.tolist()


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
            tables(coverage, coded_values({"AAA": {"c1": {"value": 1.0}}}))
        assert detail in str(raised.value)

    def test_padded_keys_read_as_unpadded(self, tmp_path):
        """Cell-value keys are stripped as employment keys are, so padding them changes no table."""
        lines = (FIXTURES / "cell_values.csv").read_text(encoding="utf-8").splitlines()
        padded = [lines[0]] + [f" {iso3},{cell} ,{rest}" for iso3, cell, rest in (line.split(",", 2) for line in lines[1:])]
        path = tmp_path / "cell_values.csv"
        path.write_text("\n".join(padded) + "\n", encoding="utf-8")
        coverage = coverage_filter(load_employment(str(FIXTURES / "employment.csv")))
        got = tables(coverage, load_cell_values(str(path)))
        assert got == tables(coverage, load_cell_values(str(FIXTURES / "cell_values.csv")))
        assert len(got["adjustments"][1][0]) == 3

    def test_values_matching_none_of_a_countrys_cells_count_as_no_values(self, tmp_path, capsys):
        """A country whose cell values name none of its employment cells is left
        out of every table, as a country without cell values is: renaming each
        AAA cell and deleting the AAA rows write the same files."""
        from taskatlas.cli import main

        header, *lines = (FIXTURES / "cell_values.csv").read_text(encoding="utf-8").splitlines()
        edits = {"renamed": [line.replace(",isco", ",zz", 1) if line.startswith("AAA,") else line for line in lines],
                 "deleted": [line for line in lines if not line.startswith("AAA,")]}
        written = []
        for name, rows in edits.items():
            values = tmp_path / f"{name}.csv"
            values.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            out = tmp_path / name
            assert main(["reweight", "--employment", str(FIXTURES / "employment.csv"), "--cell-values", str(values),
                         "--out", str(out)]) == 0
            assert capsys.readouterr().out.startswith("reweighted 2 countries, ")
            written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert written[0] == written[1]
        assert b"\nAAA," not in written[0]["adjustments.csv"] + written[0]["gender_gaps.csv"]


#: the cell scheme of the unit tests: each name's code is its index
CELLS = ("c0", "c1", "c2", "c3", "c4", "c5", "gone")


def coded_values(by_country, cell_ids=CELLS) -> CellValues:
    """CellValues over ``cell_ids`` from values per country, cell and metric."""
    metrics = tuple(dict.fromkeys(m for cells in by_country.values() for row in cells.values() for m in row))
    keys = sorted((iso3, cell_ids.index(cell)) for iso3, cells in by_country.items() for cell in cells)
    iso3s = tuple(sorted(by_country))
    matrix = [[by_country[iso3][cell_ids[cell]][m] for m in metrics] for iso3, cell in keys]
    return CellValues(
        metrics, iso3s, cell_ids, np.array([iso3s.index(iso3) for iso3, _ in keys], np.int64),
        np.array([cell for _, cell in keys], np.int64), np.array(matrix, float).reshape(len(keys), len(metrics)),
    )


def unit_vector(iso3="AAA", sex=Sex.TOTAL, year=2023, shares=None):
    shares = shares or {"c1": 0.5, "c2": 0.5}
    cells = sorted(shares)
    return WeightVector(iso3=iso3, sex=sex, year=year, cell=np.array([CELLS.index(c) for c in cells], np.int64),
                        share=np.array([shares[c] for c in cells], float))


def exposure_values(values):
    return coded_values({"AAA": {cell: {"value": v} for cell, v in values.items()}})


class TestEmploymentWeighted:
    def test_uniform_weights_simple_mean(self):
        weights = unit_vector(shares={"c1": 0.25, "c2": 0.25, "c3": 0.25, "c4": 0.25})
        values = exposure_values({"c1": 0.0, "c2": 1.0, "c3": 2.0, "c4": 3.0})
        assert employment_weighted_exposure(values, weights).value == pytest.approx(1.5)

    def test_degenerate_weight(self):
        weights = unit_vector(shares={"c1": 1.0})
        assert employment_weighted_exposure(exposure_values({"c1": 2.5}), weights).value == 2.5

    def test_missing_cells_dropped_with_renormalization(self):
        weights = unit_vector(shares={"c1": 0.5, "c2": 0.25, "gone": 0.25})
        result = employment_weighted_exposure(exposure_values({"c1": 1.0, "c2": 3.0}), weights)
        assert result.value == pytest.approx((0.5 * 1.0 + 0.25 * 3.0) / 0.75)
        assert result.dropped_share == pytest.approx(0.25)

    def test_zero_usable_mass_errors(self):
        weights = unit_vector(shares={"gone": 1.0})
        with pytest.raises(ReweightError):
            employment_weighted_exposure(exposure_values({"c1": 1.0}), weights)

    def test_adjustment_against_baseline(self):
        weights = unit_vector(shares={"c1": 0.9, "c2": 0.1})
        result = employment_weighted_exposure(exposure_values({"c1": 1.0, "c2": 0.0}), weights, baseline=0.5)
        assert result.adjustment == pytest.approx(0.4)

    def test_bounded_by_cell_values(self, rng):
        shares = rng.random(6)
        shares /= shares.sum()
        weights = unit_vector(shares={f"c{i}": float(s) for i, s in enumerate(shares)})
        values = {f"c{i}": float(v) for i, v in enumerate(rng.random(6) * 3)}
        got = employment_weighted_exposure(exposure_values(values), weights).value
        assert min(values.values()) - 1e-12 <= got <= max(values.values()) + 1e-12


MARGIN_VALUES = {
    "c1": {"substitute": 0.8, "augment": 0.1},
    "c2": {"substitute": 0.2, "augment": 0.3},
}


class TestGenderGap:
    def test_identical_shares_zero_gap(self):
        female = unit_vector(sex=Sex.FEMALE)
        male = unit_vector(sex=Sex.MALE)
        gaps = gender_gap(coded_values({"AAA": MARGIN_VALUES}), female, male).gaps_pp
        assert gaps == {"substitute": 0.0, "augment": 0.0}

    def test_concentration_on_high_substitution_cell(self):
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": 0.9, "c2": 0.1})
        male = unit_vector(sex=Sex.MALE, shares={"c1": 0.5, "c2": 0.5})
        gaps = gender_gap(coded_values({"AAA": MARGIN_VALUES}), female, male).gaps_pp
        # E_F,sub = .9*.8+.1*.2 = .74 ; E_M,sub = .5*.8+.5*.2 = .50 ; gap 24 pp
        assert gaps["substitute"] == pytest.approx(24.0)

    def test_antisymmetry(self, rng):
        fshares = rng.random(2)
        fshares /= fshares.sum()
        mshares = rng.random(2)
        mshares /= mshares.sum()
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": float(fshares[0]), "c2": float(fshares[1])})
        male = unit_vector(sex=Sex.MALE, shares={"c1": float(mshares[0]), "c2": float(mshares[1])})
        values = coded_values({"AAA": MARGIN_VALUES})
        forward = gender_gap(values, female, male).gaps_pp
        backward = gender_gap(values, male, female).gaps_pp
        for margin in forward:
            assert forward[margin] == -backward[margin]

    def test_cell_scheme_mismatch_errors(self):
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": 1.0})
        male = unit_vector(sex=Sex.MALE, shares={"c2": 1.0})
        with pytest.raises(ReweightError, match=r"schemes differ between sexes for AAA: \['c1', 'c2'\]"):
            gender_gap(coded_values({"AAA": MARGIN_VALUES}), female, male)

    def test_overflowing_gap_errors(self):
        values = coded_values({"AAA": {"c1": {"m": 1e308}, "c2": {"m": -1e308}}})
        female = unit_vector(sex=Sex.FEMALE, shares={"c1": 0.9, "c2": 0.1})
        male = unit_vector(sex=Sex.MALE, shares={"c1": 0.1, "c2": 0.9})
        with pytest.raises(ValueOverflowError, match="m gap for AAA overflows"):
            gender_gap(values, female, male)


class TestGenderFePanel:
    def test_equal_shares_null_outcome(self):
        values = coded_values({"AAA": MARGIN_VALUES})
        female = {"AAA": unit_vector(sex=Sex.FEMALE)}
        male = {"AAA": unit_vector(sex=Sex.MALE)}
        panel = gender_fe_panel(values, female, male)
        assert len(panel) == 2 and panel.metrics == ("y_pp", "x_substitute", "x_augment")
        assert panel.matrix[:, 0].tolist() == [0.0, 0.0]

    def test_row_cardinality(self):
        three_cells = {"c1": {"m": 0.1}, "c2": {"m": 0.2}, "c3": {"m": 0.3}}
        values = {"AAA": three_cells, "BBB": three_cells}
        shares = {"c1": 0.2, "c2": 0.3, "c3": 0.5}
        female = {c: unit_vector(iso3=c, sex=Sex.FEMALE, shares=shares) for c in values}
        male = {c: unit_vector(iso3=c, sex=Sex.MALE, shares=shares) for c in values}
        panel = gender_fe_panel(coded_values(values), female, male)
        assert len(panel) == 6 and [panel.iso3s[c] for c in panel.iso3.tolist()] == ["AAA"] * 3 + ["BBB"] * 3

    def test_regressor_scaled_per_ten_pp(self):
        values = coded_values({"AAA": {"c1": {"substitute": 0.37}, "c2": {"substitute": 0.4}}})
        female = {"AAA": unit_vector(sex=Sex.FEMALE)}
        male = {"AAA": unit_vector(sex=Sex.MALE)}
        panel = gender_fe_panel(values, female, male)
        assert panel.matrix[0, 1] == pytest.approx(3.7)

    def test_outcome_in_percentage_points(self):
        values = coded_values({"AAA": {"c1": {"m": 0.0}, "c2": {"m": 0.0}}})
        female = {"AAA": unit_vector(sex=Sex.FEMALE, shares={"c1": 0.6, "c2": 0.4})}
        male = {"AAA": unit_vector(sex=Sex.MALE, shares={"c1": 0.5, "c2": 0.5})}
        panel = gender_fe_panel(values, female, male)
        y_pp = dict(zip((CELLS[c] for c in panel.cell.tolist()), panel.matrix[:, 0].tolist()))
        assert y_pp["c1"] == pytest.approx(10.0)
        assert y_pp["c2"] == pytest.approx(-10.0)

    def test_overflowing_regressor_names_country_and_cell(self):
        values = coded_values({"AAA": {"c1": {"substitute": 0.3}, "c2": {"substitute": 1e308}}})
        female = {"AAA": unit_vector(sex=Sex.FEMALE)}
        male = {"AAA": unit_vector(sex=Sex.MALE)}
        with pytest.raises(ValueOverflowError, match="substitute value 1e\\+308 for AAA cell c2 overflows"):
            gender_fe_panel(values, female, male)


# --- the coded stage against the dict oracle ---------------------------------------

#: an employment count; zeros never qualify a cell, and 1e308 overflows a share's total
COUNT_TEXT = st.sampled_from(["7", "1", "2.5", "40", "3", "0", "0.0", "1e308"])
#: a cell value, near the float limit often enough to reach every overflow refusal
VALUE_TEXT = st.sampled_from(
    ["0.25", "1", "-3.5", "0", "-0.0", "1e-300", "1.5e307", "-1.5e307", "9e307", "1e308", "-1e308"]
)
#: a year of a group: mostly one inside the default window, sometimes one outside it
YEAR = st.sampled_from(["2016", "2016", "2018", "2014"])
#: metric columns of a cell-value table, in header order
METRICS = st.sampled_from([("value",), ("value", "substitute"), ("substitute", "augment", "value")])


@st.composite
def employment_groups(draw):
    """Per (country, year, sex) group, its counts by cell: a total group and a
    female and a male group of one year for each drawn country, plus a few
    groups of any country, year and sex."""
    counts = st.dictionaries(st.sampled_from(["c1", "c2", "c3", "c4"]), COUNT_TEXT, min_size=2)
    groups = {}
    for iso3 in draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC"]), min_size=1, unique=True)):
        total_year, pair_year = draw(YEAR), draw(YEAR)
        for year, sex in ((total_year, "total"), (pair_year, "female"), (pair_year, "male")):
            groups[(iso3, year, sex)] = draw(counts)
    keys = st.tuples(st.sampled_from(["AAA", "BBB", "CCC"]), YEAR, st.sampled_from(["female", "male", "total"]))
    return {**draw(st.dictionaries(keys, counts, max_size=3)), **groups}


@st.composite
def cell_values(draw):
    """Per (country, cell), its metric cells; DDD and c5 are never in the employment table."""
    cells = st.lists(st.sampled_from(["c1", "c2", "c3", "c5"]), min_size=2, unique=True)
    return {(iso3, cell): draw(st.lists(VALUE_TEXT, min_size=3, max_size=3))
            for iso3 in draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC", "DDD"]), min_size=2, unique=True))
            for cell in draw(cells)}


#: how the key cells of successive rows are written: unpadded, or padded on either side
PADDING = st.lists(st.sampled_from(["{}", " {}", "{} "]), min_size=1, max_size=5)
#: what the refusals of the reweight stage say, in the order in which the stage finds them
REFUSALS = ("overflow when summed", "no employment weight vector", "baseline", "no usable weight mass", "scaled by 10",
            "gap for")


def _outcome(compute):
    """What ``compute()`` returns, or the type and message of what it raises."""
    try:
        return "ok", compute()
    except Exception as exc:  # the comparison covers every error, not only input errors
        return type(exc).__name__, str(exc)


def _rows(tables_by_name):
    """Each table's field names and rows, from its columns."""
    return {name: (fields, list(zip(*columns))) for name, (fields, columns) in tables_by_name.items()}


@settings(max_examples=500, deadline=None)
@given(employment=employment_groups(), metrics=METRICS, values=cell_values(), min_groups=st.integers(1, 2),
       padding=PADDING)
# female and male vectors of different cell schemes: AAA's gap is skipped
@example(
    employment={("AAA", "2016", "female"): {"c1": "1", "c2": "3"}, ("AAA", "2016", "male"): {"c1": "1"}},
    metrics=("value",), values={("AAA", "c1"): ["0.5"], ("AAA", "c2"): ["0.25"]}, min_groups=1, padding=["{}"],
)
# two metrics overflow in one panel row: the refusal names the first by name, not by column
@example(
    employment={("AAA", "2016", sex): {"c1": "1", "c2": "3"} for sex in ("female", "male", "total")},
    metrics=("substitute", "augment", "value"), values={("AAA", "c1"): ["1e308", "1e308", "1"]}, min_groups=1,
    padding=["{}"],
)
# finite when scaled by 10 for the panel, but not as a gap in percentage points, in two margins
@example(
    employment={("AAA", "2016", sex): {"c1": a, "c2": b} for sex, a, b in
                (("female", "1", "9"), ("male", "9", "1"), ("total", "1", "1"))},
    metrics=("substitute", "augment", "value"),
    values={("AAA", "c1"): ["1.5e307", "1.5e307", "1"], ("AAA", "c2"): ["-1.5e307", "-1.5e307", "1"]},
    min_groups=1, padding=["{}"],
)
def test_tables_match_the_dict_oracle(employment, metrics, values, min_groups, padding):
    """``tables`` over the coded loaders and coverage equals the dict-based
    oracle cell for cell, or both raise the same error: cells on one side
    only, zero counts, sex vectors of different cell schemes, countries with
    values only, padded keys and values near the float limit included."""
    pads = itertools.cycle(padding)
    employment_text = "iso3,year,sex,cell_id,count\n" + "".join(
        f"{next(pads).format(iso3)},{year},{sex},{next(pads).format(cell)},{count}\n"
        for (iso3, year, sex), counts in employment.items() for cell, count in counts.items()
    )
    values_text = f"iso3,cell_id,{','.join(metrics)}\n" + "".join(
        f"{next(pads).format(iso3)},{next(pads).format(cell)},{','.join(row[:len(metrics)])}\n"
        for (iso3, cell), row in values.items()
    )
    with tempfile.TemporaryDirectory() as scratch:
        employment_path, values_path = Path(scratch) / "employment.csv", Path(scratch) / "cell_values.csv"
        employment_path.write_text(employment_text, encoding="utf-8")
        values_path.write_text(values_text, encoding="utf-8")
        window = (2015, 2025)
        coded = _outcome(lambda: _rows(tables(
            coverage_filter(load_employment(str(employment_path)), window, min_groups),
            load_cell_values(str(values_path)),
        )))
        oracle = _outcome(lambda: naive_reweight_tables(
            naive_coverage_filter(naive_load_employment(str(employment_path)), window, min_groups),
            *naive_load_cell_values(str(values_path)),
        ))
    if coded[0] == "ok":
        event(f"ok: {'a' if coded[1]['fe_panel'][1] else 'no'} panel, {'a' if coded[1]['gender_gaps'][1] else 'no'} gap")
    else:
        event(next((f"{coded[0]}: {phrase}" for phrase in REFUSALS if phrase in coded[1]), coded[0]))
    assert repr(coded) == repr(oracle)  # repr tells -0.0 from 0.0
