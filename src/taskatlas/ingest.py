"""Parsers for label files, country registries, covariates, and employment tables,
plus deduplication of parsed rows into unique country x task records."""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .core import (
    AiFunction,
    CountryContext,
    CovariateRow,
    COVARIATE_BOUNDS,
    COVARIATE_NAMES,
    IncomeGroup,
    Margin,
    TaskLabelRecord,
    ValidationResult,
    is_exposed,
    validate_record,
)
from .reweight import EmploymentRow, EmploymentTable, ReweightError, Sex


class IngestError(Exception):
    """Unrecoverable input problem: unreadable stream, bad header, duplicate key."""


@dataclass
class ParseReport:
    rows_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    violations: list[tuple[int, str, str]] = field(default_factory=list)

    def reject(self, line: int, code: str, message: str) -> None:
        self.rows_rejected += 1
        self.violations.append((line, code, message))

    def to_dict(self) -> dict[str, Any]:
        return {
            "rows_read": self.rows_read,
            "rows_accepted": self.rows_accepted,
            "rows_rejected": self.rows_rejected,
            "violations": [{"line": l, "code": c, "message": m} for l, c, m in self.violations],
        }


@dataclass(frozen=True)
class LabelDataset:
    """Unique (country, task_id) -> record map, stored in key order, plus source provenance."""

    records: dict[tuple[str, str], TaskLabelRecord]
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # the one sort: every reader iterates ``records`` as stored
        object.__setattr__(self, "records", dict(sorted(self.records.items())))

    @functools.cached_property
    def _country_index(self) -> dict[str, tuple[TaskLabelRecord, ...]]:
        # built on first use: records are not modified once in a dataset
        buckets: dict[str, list[TaskLabelRecord]] = {}
        for (country, _), record in self.records.items():
            buckets.setdefault(country, []).append(record)
        return {country: tuple(records) for country, records in buckets.items()}

    def __len__(self) -> int:
        return len(self.records)

    def countries(self) -> list[str]:
        return list(self._country_index)

    def for_country(self, country: str) -> tuple[TaskLabelRecord, ...]:
        """The country's records in task order; empty for an unknown tag."""
        return self._country_index.get(country, ())

    def to_jsonl(self) -> str:
        return "".join(rec.to_json_line() + "\n" for rec in self.records.values())


def _as_text_stream(stream: Union[IO[bytes], IO[str], str, Path]):
    if isinstance(stream, (str, Path)):
        return open(stream, "r", encoding="utf-8-sig", newline="")
    if isinstance(stream, io.TextIOBase):
        return stream
    if hasattr(stream, "read"):
        return io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    raise IngestError(f"cannot read from {type(stream).__name__}")


def parse_labels(stream, fmt: str = "jsonl") -> tuple[list[tuple[int, dict]], ParseReport]:
    """Syntactic pass over a label stream.

    Returns (rows, report) where rows are ``(line_number, field_map)`` pairs in
    input order; malformed rows land in the report with their line numbers and
    never abort the run. Blank lines and ``#`` comment lines (the self-describing
    header block on pipeline outputs) are not counted as rows.
    """
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unknown label format {fmt!r} (expected 'jsonl' or 'csv')")
    report = ParseReport()
    rows: list[tuple[int, dict]] = []
    text = _as_text_stream(stream)
    try:
        if fmt == "jsonl":
            for line_no, line in enumerate(text, start=1):
                if line.strip() == "" or line.startswith("#"):
                    continue
                report.rows_read += 1
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    report.reject(line_no, "syntax", f"invalid JSON: {exc.msg}")
                    continue
                if not isinstance(obj, dict):
                    report.reject(line_no, "syntax", "row is not a JSON object")
                    continue
                report.rows_accepted += 1
                rows.append((line_no, obj))
        else:
            reader = csv.DictReader(text)
            if reader.fieldnames is None:
                raise IngestError("CSV label file has no header row")
            for row in reader:
                line_no = reader.line_num
                report.rows_read += 1
                if None in row or any(v is None for v in row.values()):
                    report.reject(line_no, "syntax", "row width does not match header")
                    continue
                report.rows_accepted += 1
                rows.append((line_no, dict(row)))
    except UnicodeDecodeError as exc:
        raise IngestError(f"label stream is not valid UTF-8: {exc}") from exc
    return rows, report


def validate_rows(rows: Iterable[tuple[int, Mapping[str, Any]]]) -> tuple[list[TaskLabelRecord], ParseReport]:
    """Schema pass: run record validation over parsed rows, collecting violations."""
    report = ParseReport()
    records: list[TaskLabelRecord] = []
    for line_no, raw in rows:
        report.rows_read += 1
        result: ValidationResult = validate_record(raw)
        if result.ok:
            report.rows_accepted += 1
            records.append(result.record)
        else:
            report.rows_rejected += 1
            for violation in result.violations:
                report.violations.append((line_no, violation.code, violation.message))
    return records, report


def read_labels(stream, fmt: str = "jsonl", source_name: str = "<stream>") -> tuple[LabelDataset, ParseReport]:
    """Parse, validate, and deduplicate a label file in one pass.

    The report counts every syntactic row once: accepted means the row survived
    both the syntactic and the schema pass.
    """
    if isinstance(stream, (str, Path)):
        data = Path(stream).read_bytes()
        # provenance is content-addressed; the basename is a label, not a location
        source_name = Path(stream).name
    else:
        data = stream.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    # decoded lazily inside parse_labels, whose guard turns bad bytes into an IngestError
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="\n")
    rows, parse_report = parse_labels(text, fmt)
    records, schema_report = validate_rows(rows)
    combined = ParseReport(
        rows_read=parse_report.rows_read,
        rows_accepted=schema_report.rows_accepted,
        rows_rejected=parse_report.rows_rejected + schema_report.rows_rejected,
        violations=sorted(parse_report.violations + schema_report.violations),
    )
    dataset = deduplicate(records, provenance=((source_name, digest),))
    return dataset, combined


# --- deduplication ----------------------------------------------------------


def _mode(values: Sequence, sort_key) -> Any:
    """Most frequent value; ties broken by the smallest sort key."""
    counts = Counter(values)
    return min(counts, key=lambda v: (-counts[v], sort_key(v)))


def _merge_group(records: Sequence[TaskLabelRecord]) -> TaskLabelRecord:
    """Collapse duplicate rows for one key to per-field modes.

    Tie rules: lowest exposure level; lexicographically smallest canonical name
    for non-ordinal enums and text; false before true for flags. Field-wise
    modes can disagree (e.g. a substitute margin next to a false path flag), so
    path flags are re-raised to cover the merged margin and the margin is
    re-normalized against the merged exposure.
    """
    if len(records) == 1:
        return records[0]
    exposure = _mode([r.exposure for r in records], int)
    channel = _mode([r.channel for r in records], lambda c: c.value)
    margin_raw = _mode([r.margin_raw for r in records], lambda m: m.value)
    ai_function = _mode([r.ai_function for r in records], lambda f: f.value)
    substitution_path = _mode([r.substitution_path for r in records], int)
    augmentation_path = _mode([r.augmentation_path for r in records], int)
    ai_material = _mode([r.ai_material for r in records], int)
    texts = {
        name: _mode([getattr(r, name) for r in records], str)
        for name in ("short_rationale", "substitution_summary", "augmentation_summary")
    }
    if margin_raw in (Margin.SUBSTITUTE, Margin.BOTH):
        substitution_path = True
    if margin_raw in (Margin.AUGMENT, Margin.BOTH):
        augmentation_path = True
    if not ai_material:
        ai_function = AiFunction.NONE
    margin = margin_raw if is_exposed(exposure) else Margin.UNCLEAR
    return TaskLabelRecord(
        task_id=records[0].task_id,
        country=records[0].country,
        exposure=exposure,
        channel=channel,
        substitution_path=substitution_path,
        augmentation_path=augmentation_path,
        margin=margin,
        margin_raw=margin_raw,
        ai_material=ai_material,
        ai_function=ai_function,
        short_rationale=texts["short_rationale"],
        substitution_summary=texts["substitution_summary"],
        augmentation_summary=texts["augmentation_summary"],
    )


def deduplicate(
    records: Iterable[TaskLabelRecord],
    provenance: tuple[tuple[str, str], ...] = (),
) -> LabelDataset:
    """One record per (country, task_id); duplicate rows collapse to field modes."""
    groups: dict[tuple[str, str], list[TaskLabelRecord]] = {}
    for record in records:
        groups.setdefault(record.key, []).append(record)
    merged = {key: _merge_group(group) for key, group in groups.items()}
    return LabelDataset(records=merged, provenance=provenance)


# --- CSV tables -------------------------------------------------------------


def read_table(path, *columns: Optional[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """The ``(data row number, cells)`` pairs of a CSV table, one at a time.

    A BOM and ``#`` comment lines (the header block on pipeline outputs) are
    skipped; data rows count from 1. The header must name every given column
    (None skips), and every data row must be as wide as the header.
    """
    with _as_text_stream(path) as text:
        reader = csv.DictReader(line for line in text if not line.startswith("#"))
        if reader.fieldnames is None:
            raise IngestError(f"{path} has no header row")
        missing = [c for c in columns if c is not None and c not in reader.fieldnames]
        if missing:
            raise IngestError(f"{path} has no column {', '.join(map(repr, missing))}")
        for row_no, row in enumerate(reader, start=1):
            if None in row or None in row.values():
                raise IngestError(f"{path}: data row {row_no} is not as wide as the header")
            yield row_no, row


def number(text: str, path, row: int, column: str, kind: type = float):
    """``text`` as a finite ``kind``; an IngestError names the file, column and data row otherwise."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        what = "non-numeric" if value is None else "non-finite"
        raise IngestError(f"{path}: column {column!r} has a {what} value {text!r} in data row {row}")
    return value


# --- country registry -------------------------------------------------------


def load_country_registry(path) -> dict[str, CountryContext]:
    """CSV with iso3, name, income_group, region (and optional gdp_per_capita)."""
    registry: dict[str, CountryContext] = {}
    for row_no, row in read_table(path, "iso3", "name", "income_group", "region"):
        iso3 = row["iso3"].strip()
        if iso3 in registry:
            raise IngestError(f"duplicate iso3 '{iso3}' in registry")
        group_text = row["income_group"].strip()
        if group_text == "":
            group = IncomeGroup.UNCLASSIFIED
        else:
            try:
                group = IncomeGroup(group_text)
            except ValueError:
                raise IngestError(f"unknown income group '{group_text}' for {iso3}") from None
        gdp_text = (row.get("gdp_per_capita") or "").strip()
        registry[iso3] = CountryContext(
            iso3=iso3,
            name=row["name"].strip(),
            income_group=group,
            region=row["region"].strip(),
            gdp_per_capita=number(gdp_text, path, row_no, "gdp_per_capita") if gdp_text else None,
        )
    return registry


# --- covariates --------------------------------------------------------------

#: per-variable year rule: ("fixed", year) or ("window",) meaning latest in the
#: window passed to :func:`load_covariates`
DEFAULT_YEAR_RULES: dict[str, tuple] = {
    "log_gdp_pc": ("fixed", 2024),
    "human_capital": ("fixed", 2019),
    "years_schooling": ("fixed", 2015),
    "capital_intensity": ("fixed", 2019),
    "investment_gdp": ("window",),
    "gov_effectiveness": ("fixed", 2024),
    "regulatory_quality": ("fixed", 2024),
    "internet_users": ("window",),
    "goods_trade_gdp": ("fixed", 2023),
}


def load_covariates(
    path,
    window: tuple[int, int] = (2018, 2024),
    year_rules: Optional[Mapping[str, tuple]] = None,
    bounds: Optional[Mapping[str, Optional[tuple[float, float]]]] = None,
) -> dict[str, CovariateRow]:
    """Long-format CSV (iso3, variable, year, value) -> one row per country.

    Per country and variable, keeps the most recent non-missing value allowed
    by the variable's year rule; fixed-year variables take exactly that year.
    """
    rules = dict(DEFAULT_YEAR_RULES)
    if year_rules:
        rules.update(year_rules)
    declared_bounds = dict(COVARIATE_BOUNDS)
    if bounds:
        declared_bounds.update(bounds)

    best: dict[tuple[str, str], tuple[int, float]] = {}
    for row_no, row in read_table(path, "iso3", "variable", "year", "value"):
        variable = row["variable"].strip()
        if variable not in COVARIATE_NAMES:
            raise IngestError(f"unknown covariate variable '{variable}'")
        if row["value"].strip() == "":
            continue
        year = number(row["year"], path, row_no, "year", int)
        value = number(row["value"], path, row_no, "value")
        bound = declared_bounds.get(variable)
        if bound is not None and not (bound[0] <= value <= bound[1]):
            raise IngestError(
                f"{variable} value {value} for {row['iso3']} outside declared bounds {bound}"
            )
        rule = rules[variable]
        if rule[0] == "fixed":
            if year != rule[1]:
                continue
        else:
            if not (window[0] <= year <= window[1]):
                continue
        key = (row["iso3"].strip(), variable)
        if key not in best or year > best[key][0]:
            best[key] = (year, value)

    rows: dict[str, dict[str, float]] = {}
    for (iso3, variable), (_, value) in sorted(best.items()):
        rows.setdefault(iso3, {})[variable] = value
    return {iso3: CovariateRow(iso3=iso3, **values) for iso3, values in rows.items()}


# --- employment ---------------------------------------------------------------


def load_employment(path) -> EmploymentTable:
    """CSV with iso3, year, sex, cell_id, count; raw counts, no filtering."""
    rows: list[EmploymentRow] = []
    for row_no, row in read_table(path, "iso3", "year", "sex", "cell_id", "count"):
        try:
            sex = Sex(row["sex"].strip())
        except ValueError:
            raise IngestError(f"unknown sex '{row['sex']}' (expected total/female/male)") from None
        rows.append(
            EmploymentRow(
                iso3=row["iso3"].strip(), year=number(row["year"], path, row_no, "year", int), sex=sex,
                cell_id=row["cell_id"].strip(), count=number(row["count"], path, row_no, "count"),
            )
        )
    try:
        return EmploymentTable(rows=tuple(rows))
    except ReweightError as exc:  # a negative count or a duplicate cell
        raise IngestError(str(exc)) from None


# --- output -------------------------------------------------------------------


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: it goes to a temp file in
    the same directory, which then replaces the target."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # gone already unless a step above failed
