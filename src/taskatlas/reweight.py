"""Observed employment composition: coverage filtering, employment-weighted
exposure, and sex-specific gender-gap decompositions."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import InputError
from .files import columns_of
from .ingest import changes


class ReweightError(InputError):
    pass


class ValueOverflowError(ReweightError):
    """A finite input value whose scaled result is not finite."""


class Sex(str, Enum):
    TOTAL = "total"
    FEMALE = "female"
    MALE = "male"


@dataclass(frozen=True)
class EmploymentRow:
    iso3: str
    year: int
    sex: Sex
    cell_id: str
    count: float


#: the members behind the sex code column: a code is the member's index
SEXES = tuple(Sex)


@dataclass(frozen=True, eq=False)
class EmploymentTable:
    """Raw employment counts keyed by (iso3, year, sex, cell), as columns with
    one entry per input row: codes into the sorted distinct ``iso3s``,
    ``years`` and ``cell_ids``, a code into SEXES, and a float count.

    A negative count or a repeated key is an error naming its first row.
    ``rows`` builds EmploymentRow views on first use.
    """

    iso3s: tuple[str, ...]
    years: tuple[int, ...]
    cell_ids: tuple[str, ...]
    iso3: np.ndarray
    year: np.ndarray
    sex: np.ndarray
    cell: np.ndarray
    count: np.ndarray

    def __post_init__(self):
        keys = (self.iso3, self.year, self.sex, self.cell)
        order = np.lexsort((np.arange(len(self.count)), *reversed(keys)))
        same = np.all([key[order[1:]] == key[order[:-1]] for key in keys], axis=0)
        problems = np.r_[np.flatnonzero(self.count < 0), order[1:][same]]
        if len(problems):
            row = self.row(int(problems.min()))
            if row.count < 0:
                raise ReweightError(f"negative employment count {row.count} for {row.iso3} {row.cell_id}")
            raise ReweightError(f"duplicate employment cell {(row.iso3, row.year, row.sex, row.cell_id)}")

    def row(self, i: int) -> EmploymentRow:
        return EmploymentRow(
            self.iso3s[self.iso3[i]], self.years[self.year[i]], SEXES[self.sex[i]], self.cell_ids[self.cell[i]],
            float(self.count[i]),
        )

    @functools.cached_property
    def rows(self) -> tuple[EmploymentRow, ...]:
        return tuple(map(
            EmploymentRow,
            [self.iso3s[c] for c in self.iso3.tolist()], [self.years[c] for c in self.year.tolist()],
            [SEXES[c] for c in self.sex.tolist()], [self.cell_ids[c] for c in self.cell.tolist()], self.count.tolist(),
        ))


@dataclass(frozen=True)
class WeightVector:
    """Within-country employment shares for one sex in one year; shares sum to 1."""

    iso3: str
    sex: Sex
    year: int
    cells: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if any(share < 0 for _, share in self.cells):
            raise ReweightError(f"negative share in weight vector for {self.iso3}/{self.sex.value}")
        total = math.fsum(share for _, share in self.cells)
        if self.cells and abs(total - 1.0) > 1e-9:
            raise ReweightError(f"shares for {self.iso3}/{self.sex.value} sum to {total}, not 1")


@dataclass
class CoverageResult:
    totals: dict[str, WeightVector] = field(default_factory=dict)
    female: dict[str, WeightVector] = field(default_factory=dict)
    male: dict[str, WeightVector] = field(default_factory=dict)
    excluded: dict[tuple[str, str], str] = field(default_factory=dict)


def _share_vector(iso3: str, sex: Sex, year: int, cells: Sequence[str], counts: Sequence[float]) -> WeightVector:
    """Shares of ``counts``, given in ``cells`` order, which is sorted."""
    try:
        total = math.fsum(counts)
    except OverflowError:
        raise ValueOverflowError(f"{sex.value} employment counts for {iso3} in {year} overflow when summed") from None
    return WeightVector(iso3=iso3, sex=sex, year=year, cells=tuple(zip(cells, [count / total for count in counts])))


def coverage_filter(
    table: EmploymentTable,
    window: tuple[int, int] = (2015, 2025),
    min_groups: int = 8,
) -> CoverageResult:
    """Select usable country-years and renormalize counts into shares.

    Per (country, sex): the latest year inside the window with at least
    ``min_groups`` distinct positive-count cells. The female/male pair uses the
    latest year qualifying for both sexes. Countries failing the rule are
    excluded, not errors.
    """
    positive = np.flatnonzero(table.count > 0)
    # the positive rows grouped by (country, sex, year), each group's cells in order; keys are
    # unique, so a group's rows are its distinct cells
    order = positive[np.lexsort(tuple(codes[positive] for codes in (table.cell, table.year, table.sex, table.iso3)))]
    iso3, sex, year = table.iso3[order], table.sex[order], table.year[order]
    starts = np.flatnonzero(changes(iso3) | changes(sex) | changes(year))
    bounds = np.r_[starts, len(order)]
    in_window = np.array([window[0] <= y <= window[1] for y in table.years], bool)
    qualifies = (np.diff(bounds) >= min_groups) & in_window[year[starts]]

    # (country, sex) -> {year: group} over its qualifying years; {} when it has rows but none qualifies
    groups: dict[tuple[int, int], dict[int, int]] = {}
    for g, (c, s, y, ok) in enumerate(zip(iso3[starts].tolist(), sex[starts].tolist(), year[starts].tolist(),
                                          qualifies.tolist())):
        by_year = groups.setdefault((c, s), {})
        if ok:
            by_year[y] = g

    def vector(g: int) -> WeightVector:
        rows = order[bounds[g]:bounds[g + 1]]
        first = bounds[g]
        return _share_vector(
            table.iso3s[iso3[first]], SEXES[sex[first]], table.years[year[first]],
            [table.cell_ids[k] for k in table.cell[rows].tolist()], table.count[rows].tolist(),
        )

    result = CoverageResult()
    total, female, male = (SEXES.index(s) for s in (Sex.TOTAL, Sex.FEMALE, Sex.MALE))
    for c in sorted({c for c, _ in groups}):
        name = table.iso3s[c]
        totals = groups.get((c, total), {})
        if totals:
            result.totals[name] = vector(totals[max(totals)])
        elif (c, total) in groups:
            result.excluded[(name, Sex.TOTAL.value)] = f"no year with >= {min_groups} positive cells in {window}"
        females, males = groups.get((c, female), {}), groups.get((c, male), {})
        common = females.keys() & males.keys()
        if common:
            result.female[name] = vector(females[max(common)])
            result.male[name] = vector(males[max(common)])
        elif (c, female) in groups or (c, male) in groups:
            result.excluded[(name, "female/male")] = f"no common year with >= {min_groups} positive cells in {window}"
    return result


@dataclass(frozen=True)
class ReweightResult:
    value: float
    adjustment: Optional[float]
    dropped_share: float
    cells_used: tuple[str, ...]


def employment_weighted_exposure(
    cell_values: Mapping[str, float],
    weights: WeightVector,
    baseline: Optional[float] = None,
) -> ReweightResult:
    """Share-weighted combination of per-cell exposure values.

    Weighted cells without a value are dropped and the remaining shares
    renormalized; the dropped mass is reported. ``adjustment`` is the gap from
    the supplied linkage-weighted baseline, when given.
    """
    usable = [(cell, share) for cell, share in sorted(weights.cells) if cell in cell_values]
    usable_mass = math.fsum(share for _, share in usable)
    if usable_mass <= 0:
        raise ReweightError(f"no usable weight mass for {weights.iso3}/{weights.sex.value}")
    value = math.fsum(share * cell_values[cell] for cell, share in usable) / usable_mass
    return ReweightResult(
        value=value,
        adjustment=None if baseline is None else value - baseline,
        dropped_share=1.0 - usable_mass,
        cells_used=tuple(cell for cell, _ in usable),
    )


@dataclass(frozen=True)
class GenderGapResult:
    iso3: str
    year: int
    gaps_pp: dict[str, float]
    female_levels: dict[str, float]
    male_levels: dict[str, float]
    dropped_cells: tuple[str, ...]


def _sex_level(values: Mapping[str, Mapping[str, float]], weights: WeightVector, margin: str, cells: Sequence[str]) -> float:
    weight_map = dict(weights.cells)
    mass = math.fsum(weight_map[cell] for cell in cells)
    if mass <= 0:
        raise ReweightError(f"no employment mass on usable cells for {weights.iso3}/{weights.sex.value}")
    return math.fsum(weight_map[cell] / mass * values[cell][margin] for cell in cells)


def gender_gap(
    cell_margin_values: Mapping[str, Mapping[str, float]],
    female: WeightVector,
    male: WeightVector,
) -> GenderGapResult:
    """Female-minus-male employment-weighted exposure contribution per margin.

    Gaps are reported in percentage points; positive means the female-weighted
    exposure is higher. Both sex vectors must come from the same cell scheme
    and year; cells without values are dropped from both sides symmetrically.
    """
    female_cells = {cell for cell, _ in female.cells}
    male_cells = {cell for cell, _ in male.cells}
    if female_cells != male_cells:
        raise ReweightError(
            f"cell schemes differ between sexes for {female.iso3}: "
            f"{sorted(female_cells ^ male_cells)}"
        )
    if female.year != male.year:
        raise ReweightError(f"female year {female.year} != male year {male.year} for {female.iso3}")
    usable = sorted(cell for cell in female_cells if cell in cell_margin_values)
    dropped = tuple(sorted(female_cells - set(usable)))
    if not usable:
        raise ReweightError(f"no usable cells for {female.iso3}")
    margins = sorted({m for cell in usable for m in cell_margin_values[cell]})
    female_levels = {m: _sex_level(cell_margin_values, female, m, usable) for m in margins}
    male_levels = {m: _sex_level(cell_margin_values, male, m, usable) for m in margins}
    gaps = {m: (female_levels[m] - male_levels[m]) * 100.0 for m in margins}
    for margin, gap in gaps.items():
        if not math.isfinite(gap):
            raise ValueOverflowError(f"{margin} gap for {female.iso3} overflows in percentage points")
    return GenderGapResult(
        iso3=female.iso3,
        year=female.year,
        gaps_pp=gaps,
        female_levels=female_levels,
        male_levels=male_levels,
        dropped_cells=dropped,
    )


@dataclass(frozen=True)
class PanelRow:
    iso3: str
    cell_id: str
    y_pp: float  # female-minus-male employment share, percentage points
    x: dict[str, float]  # per-margin regressor, share x 10 (coefficients read per 10 pp)


def gender_fe_panel(
    cell_margin_values: Mapping[str, Mapping[str, Mapping[str, float]]],
    female: Mapping[str, WeightVector],
    male: Mapping[str, WeightVector],
) -> list[PanelRow]:
    """Country x cell rows for the fixed-effects gender-sorting regressions.

    One row per (country, cell) present for both sexes with exposure values:
    the outcome is the female-minus-male employment share in percentage points
    and each margin regressor is stored as share x 10, so a unit coefficient
    reads as the effect of a 10 percentage point increase. A value too large
    to scale to a finite number is an error naming its country and cell.
    """
    rows: list[PanelRow] = []
    for iso3 in sorted(set(female) & set(male) & set(cell_margin_values)):
        f_map = dict(female[iso3].cells)
        m_map = dict(male[iso3].cells)
        values = cell_margin_values[iso3]
        for cell in sorted(set(f_map) & set(m_map) & set(values)):
            x = {margin: values[cell][margin] * 10.0 for margin in sorted(values[cell])}
            for margin, scaled in x.items():
                if not math.isfinite(scaled):
                    raise ValueOverflowError(
                        f"{margin} value {values[cell][margin]!r} for {iso3} cell {cell} overflows when scaled by 10"
                    )
            rows.append(
                PanelRow(iso3=iso3, cell_id=cell, y_pp=(f_map[cell] - m_map[cell]) * 100.0, x=x)
            )
    return rows


def tables(
    coverage: CoverageResult,
    metrics: Sequence[str],
    values: Mapping[str, Mapping[str, Mapping[str, float]]],
) -> dict[str, tuple[tuple[str, ...], list[list]]]:
    """The weights, adjustments (the employment-weighted ``value`` against its
    equal-weight baseline), gender_gaps and fe_panel tables by name, each as
    its field names and one list of values per field, from a coverage result
    and the values per country, cell and metric. A country without a gap is
    left out, but an overflowing value is an error; the panel is built first,
    so such a cell is named by its FE regressor. A coverage result that kept
    no weight vector is an error."""
    if not (coverage.totals or coverage.female or coverage.male):
        excluded = [f"{iso3} ({sex}): {reason}" for (iso3, sex), reason in coverage.excluded.items()]
        detail = f"first: {excluded[0]}" if excluded else "no country has a positive count"
        raise ReweightError(f"coverage kept no employment weight vector ({len(excluded)} exclusions; {detail})")
    weights: list[list] = [[], [], [], [], []]  # iso3, sex, year, cell_id, share
    for kind, vectors in (("total", coverage.totals), ("female", coverage.female), ("male", coverage.male)):
        for iso3, vector in sorted(vectors.items()):
            n = len(vector.cells)
            for column, value in zip(weights, (iso3, kind, vector.year)):
                column += [value] * n
            weights[3] += [cell for cell, _ in vector.cells]
            weights[4] += [share for _, share in vector.cells]
    adjustments = ("iso3", "year", "baseline_equal_weight", "employment_weighted", "adjustment", "dropped_share")
    adjust_rows = []
    for iso3, vector in sorted(coverage.totals.items()):
        if iso3 not in values or "value" not in metrics:
            continue
        cell_values = {cell: cell_metrics["value"] for cell, cell_metrics in values[iso3].items()}
        try:
            baseline = math.fsum(cell_values[c] for c in sorted(cell_values)) / len(cell_values)
        except OverflowError:
            raise ValueOverflowError(f"equal-weight value baseline for {iso3} overflows") from None
        result = employment_weighted_exposure(cell_values, vector, baseline=baseline)
        adjust_rows.append((iso3, vector.year, baseline, result.value, result.adjustment, result.dropped_share))
    panel = gender_fe_panel(values, coverage.female, coverage.male)
    gaps = ("iso3", "year", "margin", "gap_pp")
    gap_rows = []
    for iso3 in sorted(set(coverage.female) & set(coverage.male) & set(values)):
        try:
            gap = gender_gap(values[iso3], coverage.female[iso3], coverage.male[iso3])
        except ValueOverflowError:  # a bad cell value, not a country without a gap
            raise
        except ReweightError:
            continue
        gap_rows += [(iso3, gap.year, margin, pp) for margin, pp in sorted(gap.gaps_pp.items())]
    panel_columns = [[row.iso3 for row in panel], [row.cell_id for row in panel], [row.y_pp for row in panel],
                     *([row.x.get(m) for row in panel] for m in metrics)]
    return {
        "weights": (("iso3", "sex", "year", "cell_id", "share"), weights),
        "adjustments": columns_of(adjustments, adjust_rows),
        "gender_gaps": columns_of(gaps, gap_rows),
        "fe_panel": (("iso3", "cell_id", "y_pp", *(f"x_{m}" for m in metrics)), panel_columns),
    }
