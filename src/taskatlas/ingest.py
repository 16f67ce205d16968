"""Parsers for label files, country registries, covariates, and employment tables,
plus deduplication of parsed rows into unique country x task records."""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, IO, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .core import (
    AiFunction,
    Channel,
    CountryContext,
    CovariateRow,
    COVARIATE_BOUNDS,
    COVARIATE_NAMES,
    EXPOSED_THRESHOLD,
    EXPOSURE_LEVELS,
    IncomeGroup,
    InputError,
    Margin,
    RATIONALE_MAX_CHARS,
    REQUIRED_FIELDS,
    TaskLabelRecord,
    label_json_line,
    validate_record,
)

if TYPE_CHECKING:
    from .reweight import EmploymentTable


class IngestError(InputError):
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


# --- label columns ----------------------------------------------------------------

#: the members behind the int8 enum code columns: a code is the member's index
CHANNELS = tuple(Channel)
MARGINS = tuple(Margin)
AI_FUNCTIONS = tuple(AiFunction)

_CODES: dict[type, dict[Any, int]] = {
    enum: {member: code for code, member in enumerate(enum)} for enum in (Channel, Margin, AiFunction)
}
_SUBSTITUTE, _AUGMENT, _BOTH, _UNCLEAR = (
    _CODES[Margin][m] for m in (Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH, Margin.UNCLEAR)
)
_AI_NONE = _CODES[AiFunction][AiFunction.NONE]
_TEXTS = ("short_rationale", "substitution_summary", "augmentation_summary")


def _array(values: Sequence, dtype) -> np.ndarray:
    """A 1-D array of ``values``; an object array holds the values themselves."""
    array = np.empty(len(values), dtype)
    array[:] = values
    return array


@dataclass(frozen=True, eq=False)
class LabelColumns:
    """Label records as columns with the fields of :class:`TaskLabelRecord`, one
    row per record: int8 ``exposure`` levels, int8 codes for the enum fields (a
    code is the member's index in CHANNELS, MARGINS or AI_FUNCTIONS), bool
    flags, and object arrays of strings.

    Indexing with a slice, mask or index array selects rows (a slice is a
    view); iterating builds TaskLabelRecord row views.
    """

    task_id: np.ndarray
    country: np.ndarray
    exposure: np.ndarray
    channel: np.ndarray
    substitution_path: np.ndarray
    augmentation_path: np.ndarray
    margin: np.ndarray
    margin_raw: np.ndarray
    ai_material: np.ndarray
    ai_function: np.ndarray
    short_rationale: np.ndarray
    substitution_summary: np.ndarray
    augmentation_summary: np.ndarray

    def __len__(self) -> int:
        return len(self.task_id)

    def __getitem__(self, rows) -> "LabelColumns":
        return LabelColumns(*(column[rows] for column in vars(self).values()))

    def __iter__(self) -> Iterator[TaskLabelRecord]:
        return itertools.starmap(TaskLabelRecord, self.rows())

    def rows(self) -> Iterator[tuple]:
        """Each row's values in TaskLabelRecord field order, with enum members for codes."""
        for t, c, e, ch, s, a, m, mr, ai, f, r, ss, aus in zip(*(column.tolist() for column in vars(self).values())):
            yield t, c, e, CHANNELS[ch], s, a, MARGINS[m], MARGINS[mr], ai, AI_FUNCTIONS[f], r, ss, aus

    @property
    def exposed(self) -> np.ndarray:
        return self.exposure >= EXPOSED_THRESHOLD

    @classmethod
    def from_records(cls, records: Iterable[TaskLabelRecord]) -> "LabelColumns":
        rows = list(records)

        def values(name: str, dtype=object) -> np.ndarray:
            return _array([getattr(r, name) for r in rows], dtype)

        def codes(name: str, enum: type) -> np.ndarray:
            return _array([_CODES[enum][getattr(r, name)] for r in rows], np.int8)

        return cls(
            task_id=values("task_id"),
            country=values("country"),
            exposure=values("exposure", np.int8),
            channel=codes("channel", Channel),
            substitution_path=values("substitution_path", bool),
            augmentation_path=values("augmentation_path", bool),
            margin=codes("margin", Margin),
            margin_raw=codes("margin_raw", Margin),
            ai_material=values("ai_material", bool),
            ai_function=codes("ai_function", AiFunction),
            **{name: values(name) for name in _TEXTS},
        )

    @classmethod
    def concat(cls, parts: Sequence["LabelColumns"]) -> "LabelColumns":
        return cls(*(np.concatenate(columns) for columns in zip(*(vars(part).values() for part in parts))))


class LabelDataset:
    """Unique (country, task_id) label records as :class:`LabelColumns` in key
    order, plus source provenance.

    ``for_country`` returns a country's rows as a slice of the columns, found
    through per-country offsets. ``records`` builds TaskLabelRecord row views,
    keyed by (country, task_id), on first use; only the passes that read texts
    or join two datasets by key need them.
    """

    def __init__(self, columns: LabelColumns, provenance: tuple[tuple[str, str], ...] = ()):
        """A dataset over ``columns`` that are already unique and in key order;
        :func:`deduplicate` builds one from records."""
        self.columns = columns
        self.provenance = provenance

    @functools.cached_property
    def _country_offsets(self) -> dict[str, tuple[int, int]]:
        country = self.columns.country
        starts = np.flatnonzero(_changes(country)).tolist()
        return {country[lo]: (lo, hi) for lo, hi in zip(starts, starts[1:] + [len(country)])}

    @functools.cached_property
    def records(self) -> dict[tuple[str, str], TaskLabelRecord]:
        c = self.columns
        return dict(zip(zip(c.country.tolist(), c.task_id.tolist()), c))

    def __len__(self) -> int:
        return len(self.columns)

    def countries(self) -> list[str]:
        return list(self._country_offsets)

    def for_country(self, country: str) -> LabelColumns:
        """The country's rows in task order; no rows for an unknown tag."""
        lo, hi = self._country_offsets.get(country, (0, 0))
        return self.columns[lo:hi]

    def select(self, countries: Iterable[str]) -> "LabelDataset":
        """The dataset restricted to the given countries, with the same provenance."""
        wanted = set(countries)
        keep = np.fromiter((c in wanted for c in self.columns.country.tolist()), bool, len(self))
        return LabelDataset(self.columns[keep], self.provenance)

    def to_jsonl(self) -> str:
        """One JSON line per record, byte for byte ``TaskLabelRecord.to_json_line``."""
        return "".join(label_json_line(*row) + "\n" for row in self.columns.rows())


# --- label parsing and validation ---------------------------------------------------

#: the raw label fields validate_record reads
RAW_FIELDS = ("task_id", "task_text", "margin_raw", *REQUIRED_FIELDS)
#: parsed rows validated together, which bounds the raw cells held at once
_CHUNK_ROWS = 8192


def _as_text_stream(stream: Union[IO[bytes], IO[str], str, Path]):
    if isinstance(stream, (str, Path)):
        return open(stream, "r", encoding="utf-8-sig", newline="")
    if isinstance(stream, io.TextIOBase):
        return stream
    if hasattr(stream, "read"):
        return io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    raise IngestError(f"cannot read from {type(stream).__name__}")


def _parsed_rows(stream, fmt: str, report: ParseReport) -> Iterator[tuple[int, dict]]:
    """The syntactic pass, one ``(line_number, field_map)`` row at a time, in
    input order; malformed rows land in ``report`` with their line numbers."""
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unknown label format {fmt!r} (expected 'jsonl' or 'csv')")
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
                except ValueError as exc:  # an integer literal past int()'s digit limit
                    report.reject(line_no, "syntax", f"invalid JSON: {exc}")
                    continue
                except RecursionError:
                    report.reject(line_no, "syntax", "invalid JSON: nested too deeply")
                    continue
                if not isinstance(obj, dict):
                    report.reject(line_no, "syntax", "row is not a JSON object")
                    continue
                report.rows_accepted += 1
                yield line_no, obj
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
                yield line_no, dict(row)
    except UnicodeDecodeError as exc:
        raise IngestError(f"label stream is not valid UTF-8: {exc}") from exc


def parse_labels(stream, fmt: str = "jsonl") -> tuple[list[tuple[int, dict]], ParseReport]:
    """Syntactic pass over a label stream.

    Returns (rows, report) where rows are ``(line_number, field_map)`` pairs in
    input order; malformed rows land in the report with their line numbers and
    never abort the run. Blank lines and ``#`` comment lines (the self-describing
    header block on pipeline outputs) are not counted as rows.
    """
    report = ParseReport()
    rows = list(_parsed_rows(stream, fmt, report))
    return rows, report


def _encode(values: Sequence, types: frozenset, codes: Mapping[Any, int]) -> np.ndarray:
    """One int8 code per value, ``codes[value]``, or -1 for a value not in
    canonical form. A value counts only with one of ``types``, so True is not
    the level 1 and 2.0 is not the level 2 (values of different ``types`` never
    equal each other)."""
    found = (codes.get(v, -1) if v.__class__ in types else -1 for v in values)
    return np.fromiter(found, np.int8, len(values))


def _enum_cells(enum: type) -> tuple[frozenset, dict[str, int]]:
    return frozenset({str}), {member.value: code for member, code in _CODES[enum].items()}


_ABSENT = -2  # a margin_raw cell that is missing or empty: the margin stands in
#: (types, codes) of the canonical cells of each coded field
_EXPOSURE_CELLS = frozenset({int, str}), {**{level: level for level in EXPOSURE_LEVELS},
                                          **{str(level): level for level in EXPOSURE_LEVELS}}
_FLAG_CELLS = frozenset({bool, str}), {False: 0, True: 1, "false": 0, "true": 1}
_CHANNEL_CELLS, _MARGIN_CELLS, _AI_FUNCTION_CELLS = (_enum_cells(enum) for enum in (Channel, Margin, AiFunction))
_MARGIN_RAW_CELLS = frozenset({str, type(None)}), {None: _ABSENT, "": _ABSENT, **_MARGIN_CELLS[1]}


def _str_mask(values: Sequence, test: Callable[[Sequence[str]], Iterable]) -> np.ndarray:
    """The truth of each item ``test`` yields over ``values``. If any value is
    not a string, every row fails, and so goes to the oracle."""
    if not set(map(type, values)) <= {str}:
        return np.zeros(len(values), bool)
    return np.fromiter(map(bool, test(values)), bool, len(values))


def _not_blank(values: Sequence[str]) -> Iterable:
    return map(str.strip, values)


def _unpadded(values: Sequence[str]) -> Iterable:
    return map(operator.and_, map(bool, values), map(operator.eq, values, map(str.strip, values)))


def _within_limit(values: Sequence[str]) -> Iterable:
    return map(RATIONALE_MAX_CHARS.__ge__, map(len, values))


def validate_columns(lines: Sequence[int], cells: Mapping[str, Sequence]) -> tuple[LabelColumns, ParseReport]:
    """Schema pass over parsed rows held as columns: ``cells`` maps each of
    RAW_FIELDS to one value per row (None where the row lacks the field), and
    ``lines`` holds the rows' line numbers.

    Numpy masks accept a row whose cells are all in canonical form (an int or
    digit-string level 0..3; a bool or "true"/"false" flag; exact enum values,
    margin_raw also missing or empty; a non-blank task id; a country without
    surrounding blanks; texts within the length limit) and that keeps the
    margin/path and AI-materiality rules. Every other row goes through
    :func:`validate_record`, the oracle, which accepts it or names its
    violations. Returns the accepted rows, normalized, in input order.
    """
    exposure = _encode(cells["exposure_level"], *_EXPOSURE_CELLS)
    channel = _encode(cells["dominant_channel"], *_CHANNEL_CELLS)
    margin_given = _encode(cells["margin"], *_MARGIN_CELLS)
    margin_raw = _encode(cells["margin_raw"], *_MARGIN_RAW_CELLS)
    margin_raw = np.where(margin_raw == _ABSENT, margin_given, margin_raw)
    ai_function = _encode(cells["dominant_ai_function"], *_AI_FUNCTION_CELLS)
    flags = [
        _encode(cells[name], *_FLAG_CELLS) for name in ("substitution_path", "augmentation_path", "ai_materiality")
    ]
    canonical = (
        _str_mask(cells["task_id"], _not_blank)
        & _str_mask(cells["country"], _unpadded)
        & np.all([_str_mask(cells[name], _within_limit) for name in _TEXTS], axis=0)
        & np.all(np.stack([exposure, channel, margin_given, margin_raw, ai_function, *flags]) >= 0, axis=0)
    )
    sub, aug, ai = (flag == 1 for flag in flags)
    contradiction = (
        ((margin_raw == _SUBSTITUTE) & ~sub)
        | ((margin_raw == _AUGMENT) & ~aug)
        | ((margin_raw == _BOTH) & ~(sub & aug))
        | (~ai & (ai_function != _AI_NONE))
    )
    fast = canonical & ~contradiction

    report = ParseReport(rows_read=len(lines))
    oracle_rows: list[int] = []
    oracle_records: list[TaskLabelRecord] = []
    for i in np.flatnonzero(~fast).tolist():
        result = validate_record({name: column[i] for name, column in cells.items()})
        if result.ok:
            oracle_rows.append(i)
            oracle_records.append(result.record)
        else:
            report.rows_rejected += 1
            report.violations += [(lines[i], v.code, v.message) for v in result.violations]

    keep = fast.tolist()

    def objects(name: str) -> np.ndarray:
        return _array(list(itertools.compress(cells[name], keep)), object)

    accepted = LabelColumns(
        task_id=objects("task_id"),
        country=objects("country"),
        exposure=exposure[fast],
        channel=channel[fast],
        substitution_path=sub[fast],
        augmentation_path=aug[fast],
        margin=np.where(exposure >= EXPOSED_THRESHOLD, margin_raw, _UNCLEAR)[fast],
        margin_raw=margin_raw[fast],
        ai_material=ai[fast],
        ai_function=ai_function[fast],
        **{name: objects(name) for name in _TEXTS},
    )
    if oracle_rows:
        rows = np.concatenate([np.flatnonzero(fast), oracle_rows])
        accepted = LabelColumns.concat([accepted, LabelColumns.from_records(oracle_records)])[np.argsort(rows)]
    report.rows_accepted = len(accepted)
    return accepted, report


def read_labels(stream, fmt: str = "jsonl", source_name: str = "<stream>") -> tuple[LabelDataset, ParseReport]:
    """Parse, validate, and deduplicate a label file in one pass.

    Parsed rows go straight into columns, validated a chunk at a time. The
    report counts every syntactic row once: accepted means the row survived
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
    # decoded lazily by the row parser, whose guard turns bad bytes into an IngestError
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="\n")
    parse_report, schema_report = ParseReport(), ParseReport()
    parts = [LabelColumns.from_records(())]
    chunk: list[tuple] = []

    def validate_chunk() -> None:
        lines, *columns = zip(*chunk)
        accepted, report = validate_columns(lines, dict(zip(RAW_FIELDS, columns)))
        parts.append(accepted)
        schema_report.rows_accepted += report.rows_accepted
        schema_report.rows_rejected += report.rows_rejected
        schema_report.violations += report.violations
        chunk.clear()

    for line_no, raw in _parsed_rows(text, fmt, parse_report):
        chunk.append((line_no, *map(raw.get, RAW_FIELDS)))
        if len(chunk) == _CHUNK_ROWS:
            validate_chunk()
    if chunk:
        validate_chunk()
    combined = ParseReport(
        rows_read=parse_report.rows_read,
        rows_accepted=schema_report.rows_accepted,
        rows_rejected=parse_report.rows_rejected + schema_report.rows_rejected,
        violations=sorted(parse_report.violations + schema_report.violations),
    )
    columns = _merge_duplicates(LabelColumns.concat(parts))
    return LabelDataset(columns, ((source_name, digest),)), combined


# --- deduplication ----------------------------------------------------------


def _changes(values: np.ndarray) -> np.ndarray:
    """True where a row's value differs from the previous row's, and at the first row."""
    changed = np.ones(len(values), dtype=bool)
    changed[1:] = values[1:] != values[:-1]
    return changed


def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rank of each value among the distinct values, the distinct values in sorted order)."""
    index: dict[Any, int] = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values), np.int64, len(values))
    distinct = sorted(index)
    rank_of_code = np.empty(len(distinct), np.int64)
    rank_of_code[[index[v] for v in distinct]] = np.arange(len(distinct))
    return rank_of_code[codes], _array(distinct, object)


def _lex_ranks(members: tuple) -> np.ndarray:
    """Each member's rank by canonical name."""
    return np.argsort(np.argsort([m.value for m in members]))


#: per merged column: (number of codes, tie rank of each code; the smaller rank wins a tie)
_MODE_RULES = {
    "exposure": (len(EXPOSURE_LEVELS), np.arange(len(EXPOSURE_LEVELS))),  # lowest level
    "channel": (len(CHANNELS), _lex_ranks(CHANNELS)),
    "margin_raw": (len(MARGINS), _lex_ranks(MARGINS)),
    "ai_function": (len(AI_FUNCTIONS), _lex_ranks(AI_FUNCTIONS)),
    "substitution_path": (2, np.arange(2)),  # false before true
    "augmentation_path": (2, np.arange(2)),
    "ai_material": (2, np.arange(2)),
}


def _group_modes(
    values: np.ndarray, group: np.ndarray, n_groups: int, n_codes: int, tie_rank: np.ndarray
) -> np.ndarray:
    """Most frequent code per group; a tie goes to the smaller tie rank."""
    counts = np.bincount(group * n_codes + values, minlength=n_groups * n_codes).reshape(n_groups, n_codes)
    return (counts * n_codes + (n_codes - 1 - tie_rank)).argmax(axis=1)


def _text_mode(values: list[str]) -> str:
    """Most frequent text; ties broken by the smallest."""
    counts = Counter(values)
    return min(counts, key=lambda v: (-counts[v], v))


def _merge_duplicates(columns: LabelColumns) -> LabelColumns:
    """One row per (country, task_id), in key order.

    Duplicate rows collapse to per-field modes. Tie rules: lowest exposure
    level; lexicographically smallest canonical name for non-ordinal enums and
    text; false before true for flags. Field-wise modes can disagree (e.g. a
    substitute margin next to a false path flag), so a merged row's path flags
    are raised to cover its margin, its AI function is none unless AI is
    material, and its margin is re-normalized against the merged exposure. A
    key's only row is kept as it is.
    """
    country_rank, countries = _factorize(columns.country)
    task_rank, task_ids = _factorize(columns.task_id)
    order = np.lexsort((task_rank, country_rank))
    country_rank, task_rank = country_rank[order], task_rank[order]
    first = _changes(country_rank) | _changes(task_rank)
    starts = np.flatnonzero(first)
    merged = {name: column[order[starts]] for name, column in vars(columns).items()}
    # the distinct key strings, so rows share them
    merged["country"], merged["task_id"] = countries[country_rank[starts]], task_ids[task_rank[starts]]
    if len(starts) < len(order):
        group = np.cumsum(first) - 1
        for name, (n_codes, tie_rank) in _MODE_RULES.items():
            modes = _group_modes(getattr(columns, name)[order].astype(np.int64), group, len(starts), n_codes, tie_rank)
            merged[name] = modes.astype(merged[name].dtype)
        sizes = np.diff(np.r_[starts, len(order)])
        duplicated = sizes > 1
        for g in np.flatnonzero(duplicated).tolist():
            rows = order[starts[g]:starts[g] + sizes[g]]
            for name in _TEXTS:
                merged[name][g] = _text_mode(getattr(columns, name)[rows].tolist())
        margin_raw, material = merged["margin_raw"], merged["ai_material"]
        merged["substitution_path"] |= duplicated & np.isin(margin_raw, (_SUBSTITUTE, _BOTH))
        merged["augmentation_path"] |= duplicated & np.isin(margin_raw, (_AUGMENT, _BOTH))
        merged["ai_function"] = np.where(duplicated & ~material, _AI_NONE, merged["ai_function"]).astype(np.int8)
        normalized = np.where(merged["exposure"] >= EXPOSED_THRESHOLD, margin_raw, _UNCLEAR)
        merged["margin"] = np.where(duplicated, normalized, merged["margin"]).astype(np.int8)
    return LabelColumns(**merged)


def deduplicate(
    records: Iterable[TaskLabelRecord],
    provenance: tuple[tuple[str, str], ...] = (),
) -> LabelDataset:
    """One record per (country, task_id); duplicate rows collapse to field modes."""
    return LabelDataset(_merge_duplicates(LabelColumns.from_records(records)), provenance)


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
    from .reweight import EmploymentRow, EmploymentTable, ReweightError, Sex  # only the reweight stage needs them

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


def load_cell_values(path) -> tuple[tuple[str, ...], dict[str, dict[str, dict[str, float]]]]:
    """CSV with iso3, cell_id and one column per exposure metric, none blank:
    the metric names in header order, and the values per country, cell and
    metric. A (iso3, cell_id) pair may not repeat, and a table without rows is an error."""
    metrics: tuple[str, ...] = ()
    values: dict[str, dict[str, dict[str, float]]] = {}
    for row_no, row in read_table(path, "iso3", "cell_id"):
        metrics = tuple(c for c in row if c not in ("iso3", "cell_id"))
        cells = values.setdefault(row["iso3"], {})
        if row["cell_id"] in cells:
            raise IngestError(f"{path}: cell ({row['iso3']}, {row['cell_id']}) repeats in data row {row_no}")
        cells[row["cell_id"]] = {m: number(row[m], path, row_no, m) for m in metrics}
    if not values:
        raise IngestError(f"{path} has no data rows")
    return metrics, values


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
