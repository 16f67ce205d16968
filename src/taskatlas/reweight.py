"""Observed employment composition: coverage filtering, employment-weighted
exposure, and sex-specific gender-gap decompositions."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

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
            row = self.rows[int(problems.min())]
            if row.count < 0:
                raise ReweightError(f"negative employment count {row.count} for {row.iso3} {row.cell_id}")
            raise ReweightError(f"duplicate employment cell {(row.iso3, row.year, row.sex, row.cell_id)}")

    @functools.cached_property
    def rows(self) -> tuple[EmploymentRow, ...]:
        return tuple(map(
            EmploymentRow,
            [self.iso3s[c] for c in self.iso3.tolist()], [self.years[c] for c in self.year.tolist()],
            [SEXES[c] for c in self.sex.tolist()], [self.cell_ids[c] for c in self.cell.tolist()], self.count.tolist(),
        ))


@dataclass(frozen=True, eq=False)
class CellValues:
    """Per-cell metrics keyed by (iso3, cell), as columns with one entry per
    row, rows in key order: codes into the sorted distinct ``iso3s`` and
    ``cell_ids``, and a rows x ``metrics`` float matrix."""

    metrics: tuple[str, ...]
    iso3s: tuple[str, ...]
    cell_ids: tuple[str, ...]
    iso3: np.ndarray
    cell: np.ndarray
    matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.cell)

    @functools.cached_property
    def spans(self) -> dict[str, tuple[int, int]]:
        """Per country, the bounds of its rows."""
        starts = np.flatnonzero(changes(self.iso3)).tolist()
        return {self.iso3s[self.iso3[lo]]: (lo, hi) for lo, hi in zip(starts, starts[1:] + [len(self)])}

    def join(self, iso3: str, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of ``cells`` (codes into ``cell_ids``) the country has a row for, and those rows."""
        lo, hi = self.spans.get(iso3, (0, 0))
        at = lo + np.searchsorted(self.cell[lo:hi], cells)
        hit = at < hi
        hit[hit] = self.cell[at[hit]] == cells[hit]
        return hit, at[hit]

    def over(self, cell_ids: tuple[str, ...]) -> "CellValues":
        """The rows of the cells that the sorted ``cell_ids`` name, their cells coded into it."""
        code_of = {cell: code for code, cell in enumerate(cell_ids)}
        code = np.array([code_of.get(cell, -1) for cell in self.cell_ids], np.int64)[self.cell]
        keep = code >= 0  # both vocabularies are sorted, so the rows stay in key order
        return CellValues(self.metrics, self.iso3s, cell_ids, self.iso3[keep], code[keep], self.matrix[keep])


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Within-country employment shares for one sex in one year, one per cell
    as codes into the employment table's ``cell_ids``, ascending; shares sum to 1."""

    iso3: str
    sex: Sex
    year: int
    cell: np.ndarray
    share: np.ndarray

    def __post_init__(self):
        if (self.share < 0).any():
            raise ReweightError(f"negative share in weight vector for {self.iso3}/{self.sex.value}")
        total = math.fsum(self.share.tolist())
        if len(self.share) and abs(total - 1.0) > 1e-9:
            raise ReweightError(f"shares for {self.iso3}/{self.sex.value} sum to {total}, not 1")


@dataclass
class CoverageResult:
    cell_ids: tuple[str, ...] = ()  # the names behind the weight vectors' cell codes
    totals: dict[str, WeightVector] = field(default_factory=dict)
    female: dict[str, WeightVector] = field(default_factory=dict)
    male: dict[str, WeightVector] = field(default_factory=dict)
    excluded: dict[tuple[str, str], str] = field(default_factory=dict)


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
        name, group_sex, group_year = table.iso3s[iso3[bounds[g]]], SEXES[sex[bounds[g]]], table.years[year[bounds[g]]]
        counts = table.count[rows]
        try:
            total = math.fsum(counts.tolist())
        except OverflowError:
            raise ValueOverflowError(
                f"{group_sex.value} employment counts for {name} in {group_year} overflow when summed"
            ) from None
        return WeightVector(iso3=name, sex=group_sex, year=group_year, cell=table.cell[rows], share=counts / total)

    result = CoverageResult(cell_ids=table.cell_ids)
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


def employment_weighted_exposure(
    values: CellValues,
    weights: WeightVector,
    baseline: Optional[float] = None,
) -> ReweightResult:
    """Share-weighted combination of the per-cell ``value`` metric, with
    ``values`` coded over the weights' cells (:meth:`CellValues.over`).

    Weighted cells without a value are dropped and the remaining shares
    renormalized; the dropped mass is reported. ``adjustment`` is the gap from
    the supplied linkage-weighted baseline, when given.
    """
    usable, rows = values.join(weights.iso3, weights.cell)
    share = weights.share[usable]
    usable_mass = math.fsum(share.tolist())
    if usable_mass <= 0:
        raise ReweightError(f"no usable weight mass for {weights.iso3}/{weights.sex.value}")
    value = math.fsum((share * values.matrix[rows, values.metrics.index("value")]).tolist()) / usable_mass
    return ReweightResult(
        value=value,
        adjustment=None if baseline is None else value - baseline,
        dropped_share=1.0 - usable_mass,
    )


@dataclass(frozen=True)
class GenderGapResult:
    year: int
    gaps_pp: dict[str, float]


def gender_gap(values: CellValues, female: WeightVector, male: WeightVector) -> GenderGapResult:
    """Female-minus-male employment-weighted exposure contribution per margin,
    with ``values`` coded over the weights' cells (:meth:`CellValues.over`).

    Gaps are reported in percentage points; positive means the female-weighted
    exposure is higher. Both sex vectors must come from the same cell scheme
    and year; cells without values are dropped from both sides symmetrically.
    """
    if not np.array_equal(female.cell, male.cell):
        differ = [values.cell_ids[c] for c in np.setxor1d(female.cell, male.cell).tolist()]
        raise ReweightError(f"cell schemes differ between sexes for {female.iso3}: {differ}")
    if female.year != male.year:
        raise ReweightError(f"female year {female.year} != male year {male.year} for {female.iso3}")
    usable, rows = values.join(female.iso3, female.cell)
    if not len(rows):
        raise ReweightError(f"no usable cells for {female.iso3}")
    levels = []
    for weights in (female, male):
        share = weights.share[usable]
        mass = math.fsum(share.tolist())
        if mass <= 0:
            raise ReweightError(f"no employment mass on usable cells for {weights.iso3}/{weights.sex.value}")
        levels.append([math.fsum(column) for column in ((share / mass)[:, None] * values.matrix[rows]).T.tolist()])
    gaps = {margin: (f - m) * 100.0 for margin, f, m in zip(values.metrics, *levels)}
    for margin, gap in sorted(gaps.items()):
        if not math.isfinite(gap):
            raise ValueOverflowError(f"{margin} gap for {female.iso3} overflows in percentage points")
    return GenderGapResult(year=female.year, gaps_pp=gaps)


def gender_fe_panel(
    values: CellValues,
    female: Mapping[str, WeightVector],
    male: Mapping[str, WeightVector],
) -> CellValues:
    """Country x cell rows for the fixed-effects gender-sorting regressions,
    with ``values`` coded over the weights' cells (:meth:`CellValues.over`).

    One row per (country, cell) present for both sexes with exposure values:
    ``y_pp``, the female-minus-male employment share in percentage points,
    and per metric ``x_<metric>``, its value x 10, so a unit coefficient reads
    as the effect of a 10 percentage point increase. A value too large to
    scale to a finite number is an error naming its country and cell.
    """
    rows, y_pp = [np.zeros(0, np.int64)], [np.zeros(0)]
    for iso3 in sorted(female.keys() & male.keys()):
        both, f, m = np.intersect1d(female[iso3].cell, male[iso3].cell, assume_unique=True, return_indices=True)
        usable, at = values.join(iso3, both)
        rows.append(at)
        y_pp.append((female[iso3].share[f[usable]] - male[iso3].share[m[usable]]) * 100.0)
    rows = np.concatenate(rows)
    with np.errstate(over="ignore"):  # an overflow is refused below, naming its cell
        x = values.matrix[rows] * 10.0
    overflow = ~np.isfinite(x)
    if overflow.any():
        first = np.flatnonzero(overflow.any(axis=1))[0]
        row, j = rows[first], min(np.flatnonzero(overflow[first]).tolist(), key=values.metrics.__getitem__)
        raise ValueOverflowError(
            f"{values.metrics[j]} value {values.matrix[row, j].item()!r} for {values.iso3s[values.iso3[row]]} "
            f"cell {values.cell_ids[values.cell[row]]} overflows when scaled by 10"
        )
    return CellValues(("y_pp", *(f"x_{m}" for m in values.metrics)), values.iso3s, values.cell_ids,
                      values.iso3[rows], values.cell[rows], np.column_stack([np.concatenate(y_pp), x]))


def tables(coverage: CoverageResult, values: CellValues) -> dict[str, tuple[tuple[str, ...], list[list]]]:
    """The weights, adjustments (the employment-weighted ``value`` against its
    equal-weight baseline), gender_gaps and fe_panel tables by name, each as its
    field names and one list of values per field, from a coverage result and the
    cell values. A country whose values hold none of its total vector's cells
    has no adjustment, and a country without a gap is left out, but an
    overflowing value is an error; the panel is built first, so such a cell is
    named by its FE regressor. A coverage result that kept no weight vector is
    an error."""
    if not (coverage.totals or coverage.female or coverage.male):
        excluded = [f"{iso3} ({sex}): {reason}" for (iso3, sex), reason in coverage.excluded.items()]
        detail = f"first: {excluded[0]}" if excluded else "no country has a positive count"
        raise ReweightError(f"coverage kept no employment weight vector ({len(excluded)} exclusions; {detail})")
    vectors = [(iso3, kind, vector.year, vector)
               for kind, by_iso3 in (("total", coverage.totals), ("female", coverage.female), ("male", coverage.male))
               for iso3, vector in sorted(by_iso3.items())]
    sizes = [len(vector.cell) for *_, vector in vectors]
    weights = [np.repeat(np.array(column, object), sizes).tolist() for column in list(zip(*vectors))[:3]]
    weights += [np.array(coverage.cell_ids, object)[np.concatenate([v.cell for *_, v in vectors])].tolist(),
                np.concatenate([v.share for *_, v in vectors]).tolist()]
    joined = values.over(coverage.cell_ids)
    adjustments = ("iso3", "year", "baseline_equal_weight", "employment_weighted", "adjustment", "dropped_share")
    adjust_rows = []
    for iso3, vector in sorted(coverage.totals.items()):
        if not joined.join(iso3, vector.cell)[0].any():  # no value for any of its cells, or no values at all
            continue
        lo, hi = values.spans[iso3]
        try:
            baseline = math.fsum(values.matrix[lo:hi, values.metrics.index("value")].tolist()) / (hi - lo)
        except OverflowError:
            raise ValueOverflowError(f"equal-weight value baseline for {iso3} overflows") from None
        result = employment_weighted_exposure(joined, vector, baseline=baseline)
        adjust_rows.append((iso3, vector.year, baseline, result.value, result.adjustment, result.dropped_share))
    panel = gender_fe_panel(joined, coverage.female, coverage.male)
    gaps = ("iso3", "year", "margin", "gap_pp")
    gap_rows = []
    for iso3 in sorted(coverage.female.keys() & coverage.male.keys() & set(values.iso3s)):
        try:
            gap = gender_gap(joined, coverage.female[iso3], coverage.male[iso3])
        except ValueOverflowError:  # a bad cell value, not a country without a gap
            raise
        except ReweightError:
            continue
        gap_rows += [(iso3, gap.year, margin, pp) for margin, pp in sorted(gap.gaps_pp.items())]
    return {
        "weights": (("iso3", "sex", "year", "cell_id", "share"), weights),
        "adjustments": columns_of(adjustments, adjust_rows),
        "gender_gaps": columns_of(gaps, gap_rows),
        "fe_panel": (("iso3", "cell_id", *panel.metrics), [[panel.iso3s[c] for c in panel.iso3.tolist()],
                     [panel.cell_ids[c] for c in panel.cell.tolist()], *panel.matrix.T.tolist()]),
    }
