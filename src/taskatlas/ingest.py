"""The label path (parse, mask validation, deduplication into a columnar
``LabelDataset``, the dataset file and its companion) and the loaders of the
country registry, employment and cell-value tables."""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import (
    AiFunction,
    Channel,
    CountryContext,
    EXPOSED_THRESHOLD,
    EXPOSURE_LEVELS,
    IncomeGroup,
    Margin,
    RATIONALE_MAX_CHARS,
    REQUIRED_FIELDS,
    TaskLabelRecord,
    label_json_line,
    validate_record,
)
from . import files
from .files import (
    IngestError, first_repeat, header_block, json_value, number, raise_first, read_columns, replacing, table_chunks,
)

if TYPE_CHECKING:
    from .reweight import CellValues, EmploymentTable


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
    view); one row index is refused, so the columns are not read row by row
    through indexing. :meth:`rows` gives each row's values to a writer.
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
        if isinstance(rows, (int, np.integer)):
            raise TypeError("LabelColumns selects rows by a slice, mask or index array, not by one index")
        return LabelColumns(*(column[rows] for column in vars(self).values()))

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
    through per-country offsets.
    """

    def __init__(self, columns: LabelColumns, provenance: tuple[tuple[str, str], ...] = ()):
        """A dataset over ``columns`` that are already unique and in key order."""
        self.columns = columns
        self.provenance = provenance

    @functools.cached_property
    def _country_offsets(self) -> dict[str, tuple[int, int]]:
        country = self.columns.country
        starts = np.flatnonzero(changes(country)).tolist()
        return {country[lo]: (lo, hi) for lo, hi in zip(starts, starts[1:] + [len(country)])}

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
        """One label-file JSON line per record, from ``core.label_json_line``."""
        return "".join(label_json_line(*row) + "\n" for row in self.columns.rows())


# --- label parsing and validation ---------------------------------------------------

#: the raw label fields validate_record reads
RAW_FIELDS = ("task_id", "task_text", "margin_raw", *REQUIRED_FIELDS)


def _parsed_rows(
    text: Iterable[str], fmt: str, report: ParseReport, name: str = "<stream>"
) -> Iterator[tuple[int, dict]]:
    """The syntactic pass over the lines of a text stream, one ``(line_number,
    field_map)`` row at a time, in input order; malformed rows land in
    ``report`` with their line numbers. ``#`` lines are skipped anywhere, and
    blank lines in JSONL anywhere, in CSV before the header. Line numbers count
    every physical line. Text that does not decode, or that ``csv`` cannot
    parse, raises an IngestError naming the stream as ``name``."""
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unknown label format {fmt!r} (expected 'jsonl' or 'csv')")
    try:
        if fmt == "jsonl":
            for line_no, line in enumerate(text, start=1):
                if line.strip() == "" or line.startswith("#"):
                    continue
                report.rows_read += 1
                try:
                    obj = json_value(line)
                except IngestError as exc:
                    report.reject(line_no, "syntax", str(exc))
                    continue
                if not isinstance(obj, dict):
                    report.reject(line_no, "syntax", "row is not a JSON object")
                    continue
                report.rows_accepted += 1
                yield line_no, obj
        else:
            line_no = 0  # of the last line handed to the reader

            def kept_lines() -> Iterator[str]:
                nonlocal line_no
                for line_no, line in enumerate(text, start=1):
                    if not line.startswith("#"):
                        yield line

            lines = kept_lines()
            for line in lines:  # blank lines before the header
                if line.strip():
                    lines = itertools.chain([line], lines)
                    break
            reader = csv.DictReader(lines)
            if reader.fieldnames is None:
                raise IngestError("CSV label file has no header row")
            for row in reader:  # each row ends on the last line the reader took
                report.rows_read += 1
                if None in row or any(v is None for v in row.values()):
                    report.reject(line_no, "syntax", "row width does not match header")
                    continue
                report.rows_accepted += 1
                yield line_no, dict(row)
    except UnicodeDecodeError as exc:
        raise IngestError(f"{name}: label stream is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # say a field past csv's size limit
        raise IngestError(f"{name}: CSV label file cannot be parsed: {exc}") from None


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
        where = str(stream)
        # provenance is content-addressed; the basename is a label, not a location
        source_name = Path(stream).name
    else:
        data = stream.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
        where = source_name
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

    for line_no, raw in _parsed_rows(text, fmt, parse_report, where):
        chunk.append((line_no, *map(raw.get, RAW_FIELDS)))
        if len(chunk) == files.CHUNK_ROWS:  # read on files, so one setting bounds both readers
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


def changes(values: np.ndarray) -> np.ndarray:
    """True where a row's value differs from the previous row's, and at the first row."""
    changed = np.ones(len(values), dtype=bool)
    changed[1:] = values[1:] != values[:-1]
    return changed


def factorize(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """(rank of each value among the distinct values, the distinct values in sorted order)."""
    index: dict[Any, int] = {}
    ranks, distinct = _ranked(_coded(index, values, len(values)), index)
    return ranks, _array(distinct, object)


def _coded(index: dict, values: Iterable, count: int) -> np.ndarray:
    """The code of each of ``count`` values in ``index``, which gives a value
    not in it yet the next code, in first-seen order."""
    return np.fromiter((index.setdefault(v, len(index)) for v in values), np.int64, count)


def _ranked(codes: np.ndarray, index: Mapping[Any, int]) -> tuple[np.ndarray, list]:
    """``codes`` into ``index`` as ranks among its values in sorted order, and those values sorted."""
    distinct = sorted(index)
    rank_of_code = np.empty(len(distinct), np.int64)
    rank_of_code[[index[v] for v in distinct]] = np.arange(len(distinct))
    return rank_of_code[codes], distinct


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
    country_rank, countries = factorize(columns.country)
    task_rank, task_ids = factorize(columns.task_id)
    order = np.lexsort((task_rank, country_rank))
    country_rank, task_rank = country_rank[order], task_rank[order]
    first = changes(country_rank) | changes(task_rank)
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


# --- dataset files ----------------------------------------------------------------
# A dataset file is label JSONL, the canonical artifact. Beside it,
# write_dataset puts a columnar companion from which load_dataset takes the
# same columns without parsing the JSONL again. The companion is an
# uncompressed npz: the int8 code and bool columns as they are, ``country``
# and ``task_id`` as int32 codes into tables of their distinct strings, each
# string column (the tables too) as one UTF-8 blob plus int64 offsets, the
# format version, and the sha256 of the JSONL bytes it was written with.

#: the companion format; a companion of another version is not read
COMPANION_VERSION = 1
#: per int8 code column, the number of codes
_CODE_LIMITS = {
    "exposure": len(EXPOSURE_LEVELS), "channel": len(CHANNELS), "margin": len(MARGINS), "margin_raw": len(MARGINS),
    "ai_function": len(AI_FUNCTIONS),
}
_FLAGS = ("substitution_path", "augmentation_path", "ai_material")
_KEYS = ("country", "task_id")
_STRINGS = (*(f"{key}_table" for key in _KEYS), *_TEXTS)
_COMPANION_MEMBERS = frozenset({
    "version", "digest", *_CODE_LIMITS, *_FLAGS, *_KEYS,
    *(f"{name}_{part}" for name in _STRINGS for part in ("utf8", "offsets")),
})


def companion_path(path) -> Path:
    """The columnar companion of the dataset file ``path``: ``dataset.jsonl`` -> ``dataset.columns.npz``."""
    path = Path(path)
    return path.with_name(f"{path.stem}.columns.npz")


def write_dataset(path, meta: Mapping[str, Any], dataset: LabelDataset) -> None:
    """Write ``dataset`` to ``path`` as label JSONL under one ``# key: value``
    line per ``meta`` item, then its columnar companion. Each file is written
    whole or not at all, and equal datasets give equal bytes."""
    data = (header_block(meta) + dataset.to_jsonl()).encode("utf-8")
    with replacing(path) as temp:
        temp.write_bytes(data)
    columns = dataset.columns
    arrays = {"version": np.array(COMPANION_VERSION, np.int64), "digest": np.array(hashlib.sha256(data).hexdigest())}
    arrays.update({name: getattr(columns, name) for name in (*_CODE_LIMITS, *_FLAGS)})
    for key in _KEYS:
        codes, table = factorize(getattr(columns, key))
        arrays[key] = codes.astype(np.int32)
        arrays.update(_utf8(f"{key}_table", table.tolist()))
    for name in _TEXTS:
        arrays.update(_utf8(name, getattr(columns, name).tolist()))
    with replacing(companion_path(path)) as temp:
        _write_npz(temp, arrays)


def _utf8(name: str, texts: Sequence[str]) -> dict[str, np.ndarray]:
    """``texts`` as one UTF-8 blob, ``<name>_utf8``, and the int64 offsets
    of their starts plus the blob's end, ``<name>_offsets``."""
    encoded = [text.encode("utf-8") for text in texts]
    offsets = np.zeros(len(encoded) + 1, np.int64)
    offsets[1:] = np.cumsum(np.fromiter(map(len, encoded), np.int64, len(encoded)))
    return {f"{name}_utf8": np.frombuffer(b"".join(encoded), np.uint8), f"{name}_offsets": offsets}


def _write_npz(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """``arrays`` as the archive an uncompressed ``np.savez`` writes, but with
    a fixed time stamp on every member (``np.savez`` stamps the current time)."""
    import zipfile  # only a companion write needs it

    with zipfile.ZipFile(path, "w") as archive:
        for name, array in arrays.items():
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(member, "w", force_zip64=True) as handle:
                np.lib.format.write_array(handle, array, allow_pickle=False)


def load_dataset(path) -> LabelDataset:
    """The dataset in the label JSONL file ``path``, which may hold no rejected
    row and must hold a record (an IngestError otherwise).

    The columns come from the companion beside it when it was written with
    the file's bytes as they are (same sha256, hashed a chunk at a time, same
    format version) and every array checks out; it is opened without
    unpickling. In any other case ``read_labels`` reads and parses the file,
    and digests what it parses. Both ways give the same dataset and provenance.
    """
    path = Path(path)
    companion = companion_path(path)
    # hashed here only when a companion may match: read_labels hashes the bytes itself
    digest = _file_sha256(path) if companion.is_file() else None
    columns = _companion_columns(companion, digest) if digest else None
    if columns is not None:
        dataset = LabelDataset(columns, ((path.name, digest),))
    else:
        dataset, report = read_labels(path)
        if report.rows_rejected:
            raise IngestError(f"{path}: {report.rows_rejected} rejected rows in an intermediate dataset")
    if not dataset:
        raise IngestError(f"{path}: dataset has no records")
    return dataset


def _file_sha256(path: Path) -> str:
    """The sha256 hex of the file at ``path``, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _companion_columns(path: Path, digest: str) -> Optional[LabelColumns]:
    """The columns of the companion at ``path`` if it is one of this format,
    written beside JSONL bytes of sha256 ``digest``, whose every array checks
    out; None otherwise, whatever the fault."""
    try:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as arrays:
            return _checked_columns(arrays, digest)
    except Exception:
        # damaged bytes make the zip and npy readers raise many types (BadZipFile,
        # ValueError, EOFError, NotImplementedError, RuntimeError, OSError,
        # tokenize.TokenError, ...); such a companion is a miss, as the JSONL is the artifact
        return None


def _checked_columns(arrays, digest: str) -> Optional[LabelColumns]:
    """The columns of an opened companion; None if it is not this format or
    was not written with JSONL bytes of sha256 ``digest``, and a ValueError if
    an array does not check out."""
    if set(arrays.files) != _COMPANION_MEMBERS:
        return None
    version, stored = arrays["version"], arrays["digest"]
    if version.dtype != np.int64 or version.shape or version != COMPANION_VERSION:
        return None
    if stored.dtype.kind != "U" or stored.shape or stored != digest:
        return None
    n = len(_member(arrays, "exposure", np.int8))
    columns = {name: _codes(arrays, name, np.int8, n, limit) for name, limit in _CODE_LIMITS.items()}
    columns.update({name: _member(arrays, name, np.bool_, n) for name in _FLAGS})
    for key in _KEYS:
        table = _array(_strings(arrays, f"{key}_table"), object)
        columns[key] = table[_codes(arrays, key, np.int32, n, len(table))]
    columns.update({name: _array(_strings(arrays, name, n), object) for name in _TEXTS})
    return LabelColumns(**columns)


def _member(arrays, name: str, dtype, length: Optional[int] = None) -> np.ndarray:
    """Companion member ``name``, which must be a 1-D ``dtype`` array (of ``length`` items, if given)."""
    array = arrays[name]
    if array.dtype != dtype or array.ndim != 1 or length not in (None, len(array)):
        raise ValueError(f"companion member {name} is not a 1-D {np.dtype(dtype)} array of {length} items")
    return array


def _codes(arrays, name: str, dtype, length: int, limit: int) -> np.ndarray:
    """Companion member ``name``: ``length`` codes of ``dtype``, each in ``range(limit)``."""
    codes = _member(arrays, name, dtype, length)
    if length and not (0 <= codes.min() and codes.max() < limit):
        raise ValueError(f"companion member {name} holds a code outside range({limit})")
    return codes


def _strings(arrays, name: str, length: Optional[int] = None) -> list[str]:
    """The strings of the blob ``<name>_utf8`` between the ``<name>_offsets``
    (``length`` of them, if given), which must rise from 0 to the blob's end."""
    blob = _member(arrays, f"{name}_utf8", np.uint8).tobytes()
    offsets = _member(arrays, f"{name}_offsets", np.int64, None if length is None else length + 1)
    if not len(offsets) or offsets[0] != 0 or offsets[-1] != len(blob) or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"companion member {name}_offsets does not split its blob")
    bounds = offsets.tolist()
    return [blob[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]


# --- country registry -------------------------------------------------------


def load_country_registry(path) -> dict[str, CountryContext]:
    """CSV with iso3, name, income_group, region (and optional gdp_per_capita)."""
    table = read_columns(path, "iso3", "name", "income_group", "region")
    registry: dict[str, CountryContext] = {}
    gdp = table.cells.get("gdp_per_capita", itertools.repeat(""))
    columns = (table.cells[name] for name in ("iso3", "name", "income_group", "region"))
    for row_no, iso3, name, group_text, region, gdp_text in zip(table.rows, *columns, gdp):
        iso3 = iso3.strip()
        if iso3 in registry:
            raise IngestError(f"duplicate iso3 '{iso3}' in registry")
        group_text = group_text.strip()
        if group_text == "":
            group = IncomeGroup.UNCLASSIFIED
        else:
            try:
                group = IncomeGroup(group_text)
            except ValueError:
                raise IngestError(f"unknown income group '{group_text}' for {iso3}") from None
        gdp_text = gdp_text.strip()
        registry[iso3] = CountryContext(
            iso3=iso3,
            name=name.strip(),
            income_group=group,
            region=region.strip(),
            gdp_per_capita=number(gdp_text, path, row_no, "gdp_per_capita") if gdp_text else None,
        )
    return registry


# --- employment ---------------------------------------------------------------


def load_employment(path) -> EmploymentTable:
    """CSV with iso3, year, sex, cell_id, count; raw counts, no filtering.

    The table is coded a chunk at a time, so no cell's text outlives its
    chunk: iso3 and cell_id (stripped) and year as codes into their sorted
    distinct values, sex as a code into SEXES, count as a float. The errors
    are a whole-table pass's: a malformed table first, then the first row
    with a refused cell (sex, then year, then count), then a table without
    rows, then a negative count or a repeated cell.
    """
    from .reweight import SEXES, EmploymentTable, ReweightError, Sex  # only the reweight stage needs them

    sex_codes = {sex.value: code for code, sex in enumerate(SEXES)}
    keys: dict[str, dict] = {"iso3": {}, "year": {}, "cell_id": {}}  # per key column, value -> first-seen code
    parts: dict[str, list[np.ndarray]] = {name: [] for name in ("iso3", "year", "sex", "cell_id", "count")}
    refused: Optional[str] = None  # the error of the first row with a refused cell, raised once the table is read

    def check_sex(text: str) -> None:
        try:
            Sex(text.strip())
        except ValueError:
            raise IngestError(f"unknown sex '{text}' (expected total/female/male)") from None

    for chunk in table_chunks(path, "iso3", "year", "sex", "cell_id", "count"):
        if refused is not None:
            continue  # read on only for a fault that makes the table malformed
        sex_texts = chunk.cells["sex"]
        sex = np.fromiter((sex_codes.get(text, -1) for text in map(str.strip, sex_texts)), np.int8, len(chunk))
        year_values, refused_year = chunk.parsed("year", int)
        counts, refused_count = chunk.parsed("count")
        unknown = np.flatnonzero(sex < 0)
        try:
            raise_first(
                [int(unknown[0]) if len(unknown) else None, refused_year, refused_count],
                [lambda i: check_sex(sex_texts[i]), lambda i: chunk.number(i, "year", int),
                 lambda i: chunk.number(i, "count")],
            )
        except IngestError as exc:
            refused = str(exc)
            continue
        for name, values in (("iso3", map(str.strip, chunk.cells["iso3"])), ("year", year_values),
                             ("cell_id", map(str.strip, chunk.cells["cell_id"]))):
            parts[name].append(_coded(keys[name], values, len(chunk)))
        parts["sex"].append(sex)
        parts["count"].append(np.array(counts, float))
    if refused is not None:
        raise IngestError(refused)
    if not sum(map(len, parts["count"])):
        raise IngestError(f"{path} has no data rows")
    (iso3, iso3s), (year, years), (cell, cell_ids) = (
        _ranked(np.concatenate(parts[name]), keys[name]) for name in ("iso3", "year", "cell_id")
    )
    try:
        return EmploymentTable(
            tuple(iso3s), tuple(years), tuple(cell_ids), iso3, year, np.concatenate(parts["sex"]), cell,
            np.concatenate(parts["count"]),
        )
    except ReweightError as exc:  # a negative count or a duplicate cell
        raise IngestError(str(exc)) from None


def load_cell_values(path) -> CellValues:
    """CSV with iso3, cell_id, value and one column per further exposure
    metric, none blank, as a :class:`reweight.CellValues` with the metrics in
    header order; iso3 and cell_id are stripped. A (iso3, cell_id) pair may not
    repeat, and a table without rows is an error."""
    from .reweight import CellValues  # only the reweight stage needs it

    table = read_columns(path, "iso3", "cell_id", "value")
    metrics = tuple(name for name in table.names if name not in ("iso3", "cell_id"))
    iso3, cell_id = ([text.strip() for text in table.cells[name]] for name in ("iso3", "cell_id"))
    keys = list(zip(iso3, cell_id))
    parsed = [table.parsed(metric) for metric in metrics]

    def check_repeat(row: int) -> None:
        if keys[row] in keys[:row]:
            raise IngestError(f"{path}: cell ({iso3[row]}, {cell_id[row]}) repeats in data row {table.rows[row]}")

    raise_first(
        [first_repeat(keys), *(refused for _, refused in parsed)],
        [check_repeat, *(functools.partial(table.number, name=metric) for metric in metrics)],
    )
    if not keys:
        raise IngestError(f"{path} has no data rows")
    (iso3, iso3s), (cell, cell_ids) = factorize(iso3), factorize(cell_id)
    order = np.lexsort((cell, iso3))
    matrix = np.array([column for column, _ in parsed], float).T
    return CellValues(metrics, tuple(iso3s), tuple(cell_ids), iso3[order], cell[order], matrix[order])

