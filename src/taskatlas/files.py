"""The pipeline's file formats: CSV tables and JSON in, CSV tables and JSON out.

Readers: :func:`read_columns` (and :func:`table_chunks` under it) reads every
CSV input table, :func:`number` converts a cell, and :func:`json_value` parses
every JSON input. Writers: every output is written whole or not at all
(:func:`replacing`), a CSV table under a ``# key: value`` header block
(:func:`header_block`), a JSON document as ``{"meta": ..., "data": ...}``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .core import InputError

# numpy loads inside the functions that use it, so `--version`, `--help` and a
# usage error, which import this module through the CLI, never load it.
if TYPE_CHECKING:
    import numpy as np


class IngestError(InputError):
    """Unrecoverable input problem: unreadable stream, bad header, duplicate key."""


# --- JSON in -------------------------------------------------------------------


def json_value(text: Union[str, bytes], where: Optional[str] = None) -> Any:
    """The value of a JSON text, or of UTF-8 bytes holding one. Anything else
    raises one IngestError, "<where> is not valid JSON: <why>" ("invalid JSON:
    <why>" without ``where``). A string escape of a lone surrogate counts as
    not JSON: no UTF-8 text holds one, so no output could write it."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        value = json.loads(text)
        if "\\u" not in text or _surrogate_free(value):
            return value
        why = "a string holds a lone surrogate"
    except json.JSONDecodeError as exc:
        why = exc.msg
    except RecursionError:
        why = "nested too deeply"
    except ValueError as exc:  # bytes that do not decode, or an integer literal past int()'s digit limit
        why = str(exc)
    raise IngestError(f"{where} is not valid JSON: {why}" if where else f"invalid JSON: {why}")


_SURROGATE = re.compile("[\ud800-\udfff]")


def _surrogate_free(value: Any) -> bool:
    """Whether no string in a parsed JSON value, keys included, holds a surrogate code point."""
    stack = [value]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            if _SURROGATE.search(item):
                return False
        elif item.__class__ is dict:
            stack += item
            stack += item.values()
        elif item.__class__ is list:
            stack += item
    return True


def finite_number(value: Any) -> bool:
    """Whether a JSON value is a number, not a bool, that a float holds finitely."""
    return value.__class__ in (int, float) and abs(value) <= sys.float_info.max


# --- CSV tables in -------------------------------------------------------------

#: CSV table rows read together, and parsed label rows validated together, which bounds the raw cells held at once
CHUNK_ROWS = 8192


@dataclass(frozen=True, eq=False)
class TextColumns:
    """The cells of a CSV table, or of one chunk of its rows, one sequence of
    strings per column, read by :func:`read_columns` (:func:`table_chunks`).

    ``names`` are the header names in order, each once (a repeated name reads
    its last column); ``rows`` holds each row's data row number.
    """

    path: Any
    names: tuple[str, ...]
    cells: dict[str, Sequence[str]]
    rows: Sequence[int]

    def __len__(self) -> int:
        return len(self.rows)

    def filled(self, *names: str) -> "TextColumns":
        """The rows whose cells in ``names`` are not empty."""
        keep = [i for i, cells in enumerate(zip(*(self.cells[name] for name in names))) if "" not in cells]
        return TextColumns(
            self.path, self.names, {name: [column[i] for i in keep] for name, column in self.cells.items()},
            [self.rows[i] for i in keep],
        )

    def keys(self, name: str) -> Sequence[str]:
        """Column ``name``, whose cells key the rows: a cell equal to an earlier
        one raises an IngestError naming the file, the key, the column and the
        data row."""
        keys = self.cells[name]
        row = first_repeat(keys)
        if row is not None:
            raise IngestError(f"{self.path}: key {keys[row]!r} in column {name!r} repeats in data row {self.rows[row]}")
        return keys

    def number(self, index: int, name: str, kind: type = float):
        """The cell of column ``name`` in row ``index`` through :func:`number`."""
        return number(self.cells[name][index], self.path, self.rows[index], name, kind)

    def parsed(self, name: str, kind: type = float) -> tuple[list, Optional[int]]:
        """Column ``name`` as ``kind`` values, and the index of the first cell
        :func:`number` refuses (None if it refuses none; only then are the
        values complete)."""
        return _parsed(self.cells[name], kind)

    def floats(self, name: str) -> np.ndarray:
        """Column ``name`` as finite floats; a refused cell raises :func:`number`'s error for the first one."""
        import numpy as np

        values, refused = self.parsed(name)
        raise_first([refused], [functools.partial(self.number, name=name)])
        return np.array(values, float)

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Columns ``names`` as a float matrix, an empty cell reading as NaN.
        A refused cell raises :func:`number`'s error for the first one in row
        order, and in ``names`` order within its row."""
        import numpy as np

        matrix = np.full((len(self), len(names)), np.nan)
        refusals = []
        for j, name in enumerate(names):
            filled = [i for i, text in enumerate(self.cells[name]) if text != ""]
            values, refused = _parsed([self.cells[name][i] for i in filled], float)
            refusals.append(None if refused is None else filled[refused])
            if refused is None:
                matrix[filled, j] = values
        raise_first(refusals, [functools.partial(self._filled_number, name) for name in names])
        return matrix

    def _filled_number(self, name: str, index: int) -> None:
        if self.cells[name][index] != "":
            self.number(index, name)


def _parsed(texts: Sequence[str], kind: type) -> tuple[list, Optional[int]]:
    """``texts`` as ``kind`` values in one pass, checked by one finiteness mask,
    and the index of the first text :func:`number` refuses, or None."""
    import numpy as np

    try:
        values = list(map(kind, texts))
        refused = np.flatnonzero(~np.isfinite(np.array(values, float)))
    except (ValueError, OverflowError):  # a non-numeric text, or an int past the float range
        return [], next(i for i, text in enumerate(texts) if _refused(text, kind))
    return values, (int(refused[0]) if len(refused) else None)


def _refused(text: str, kind: type) -> bool:
    try:
        number(text, "", 0, "", kind)
    except IngestError:
        return True
    return False


def raise_first(failures: Sequence[Optional[int]], checks: Sequence[Callable[[int], Any]]) -> None:
    """Raise the error a row-by-row pass would meet first.

    ``failures[k]`` is the first row that ``checks[k]`` raises for, or None.
    The checks run, in order, on the earliest of those rows, so the first one
    it fails raises.
    """
    rows = [row for row in failures if row is not None]
    if rows:
        row = min(rows)
        for check in checks:
            check(row)
        raise RuntimeError(f"row {row} failed a column check but passes every row check")


def table_chunks(path, *columns: Optional[str]) -> Iterator[TextColumns]:
    """A CSV table as :class:`TextColumns`, ``CHUNK_ROWS`` data rows at a
    time, read in one ``csv.reader`` pass. The first chunk comes even when
    the table has no data rows.

    A BOM, ``#`` comment lines and blank lines (before the header too) are
    skipped; data rows count from 1. A malformed table raises where the
    reader meets the fault: the header must name every given column (None
    skips), every data row must be as wide as the header, and the bytes must
    decode and parse as CSV. A row of another width raises before a fault
    later in its chunk.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as text:
            reader = csv.reader(line for line in text if not line.startswith("#"))
            header = next(filter(None, reader), None)
            if header is None:
                raise IngestError(f"{path} has no header row")
            missing = [c for c in columns if c is not None and c not in header]
            if missing:
                raise IngestError(f"{path} has no column {', '.join(map(repr, missing))}")
            index = {name: i for i, name in enumerate(header)}
            n_rows = 0
            more = True
            while more:
                rows: list[list[str]] = []
                fault: Optional[Exception] = None
                try:
                    rows.extend(itertools.islice(reader, CHUNK_ROWS))  # keeps the rows read before a fault
                except (UnicodeDecodeError, csv.Error) as exc:
                    fault = exc
                more = len(rows) == CHUNK_ROWS
                if set(map(len, rows)) - {len(header)}:  # a blank row, or one of another width
                    rows = [row for row in rows if row]
                    wrong = next((i for i, row in enumerate(rows) if len(row) != len(header)), None)
                    if wrong is not None:
                        raise IngestError(f"{path}: data row {n_rows + wrong + 1} is not as wide as the header")
                if fault is not None:
                    raise fault
                n_chunk, cells = len(rows), list(zip(*rows)) or [()] * len(header)
                del rows  # the chunk's cells are in ``cells``
                yield TextColumns(
                    path, tuple(index), {name: cells[i] for name, i in index.items()},
                    range(n_rows + 1, n_rows + n_chunk + 1),
                )
                n_rows += n_chunk
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"{path} cannot be read as a CSV table: {exc}") from None


def read_columns(path, *columns: Optional[str]) -> TextColumns:
    """A CSV table as :class:`TextColumns`: the chunks of :func:`table_chunks`
    joined, so a malformed table is refused before any of its cells is read,
    the first such fault in the file raising."""
    cells: dict[str, list[str]] = {}
    for chunk in table_chunks(path, *columns):
        for name, column in chunk.cells.items():
            cells.setdefault(name, []).extend(column)
    return TextColumns(path, chunk.names, cells, range(1, chunk.rows.stop))


def read_features(path, outcome: str, features: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The finite float feature matrix (one column per feature, in order) and
    outcome vector of a stats table. A malformed table raises first, then the
    first refused cell of each feature in turn, then of the outcome; a table
    without rows is an error."""
    import numpy as np

    table = read_columns(path, outcome, *features)
    if not len(table):
        raise IngestError(f"{path} has no data rows")
    return np.column_stack([table.floats(name) for name in features]), table.floats(outcome)


def read_series(path, key_col: str, *value_cols: str) -> list[dict[str, float]]:
    """Per value column of a table, its non-blank cells keyed by ``key_col``, which may not repeat."""
    table = read_columns(path, key_col, *value_cols)
    out: list[dict[str, float]] = [{} for _ in value_cols]
    for row_no, key, *cells in zip(table.rows, table.keys(key_col), *(table.cells[col] for col in value_cols)):
        for series, col, text in zip(out, value_cols, cells):
            if text != "":
                series[key] = number(text, path, row_no, col)
    return out


def number(text: str, path, row: int, column: str, kind: type = float):
    """``text`` as a finite ``kind``; an IngestError names the file, column and data row otherwise."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    try:
        finite = value is not None and math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        what = "non-numeric" if value is None else "non-finite"
        raise IngestError(f"{path}: column {column!r} has a {what} value {text!r} in data row {row}")
    return value


def first_repeat(keys: Sequence) -> Optional[int]:
    """The index of the first key equal to an earlier one, or None."""
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)
    return None


# --- CSV tables out ------------------------------------------------------------


def columns_of(fieldnames: Sequence[str], rows: Iterable[Sequence]) -> tuple[tuple[str, ...], list[list]]:
    """A table of ``rows``, each holding its values in ``fieldnames`` order,
    as a command writes it: the field names and one list of values per field."""
    fieldnames = tuple(fieldnames)
    return fieldnames, [list(column) for column in zip(*rows, strict=True)] or [[] for _ in fieldnames]


def header_block(meta: Mapping[str, Any]) -> str:
    """The ``# key: value`` lines that head every CSV and JSONL output, one per ``meta`` item."""
    return "".join(f"# {key}: {value}\n" for key, value in meta.items())


def _fmt(value, path: Path, column: str) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            # inputs are checked before any computation, so this is a bug: ValueError exits 3
            raise ValueError(f"{path}: column {column!r} would hold the non-finite value {value!r}")
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(
    path: Path,
    meta: Mapping[str, Any],
    fieldnames: Sequence[str],
    columns: Sequence[Sequence],
    extra_meta: Optional[Mapping[str, Any]] = None,
) -> None:
    """A table, one sequence of values per field, under the header block of
    ``meta`` and ``extra_meta``, each column formatted in one pass: as
    :func:`_fmt` formats each cell, and refusing the first non-finite float in
    row order, then in field order."""
    cells, refusals = [], []
    for name, values in zip(fieldnames, columns, strict=True):
        formatted, refused = _csv_cells(values, path, name)
        cells.append(formatted)
        refusals.append(refused)
    raise_first(
        refusals, [lambda i, name=name, values=values: _fmt(values[i], path, name)
                   for name, values in zip(fieldnames, columns)],
    )
    buf = io.StringIO()
    buf.write(header_block({**meta, **(extra_meta or {})}))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(zip(*cells))
    write_text_atomic(path, buf.getvalue())


def _csv_cells(values: Sequence, path: Path, column: str) -> tuple[list, Optional[int]]:
    """The CSV cells of one column, and the index of its first non-finite float
    (None if it has none; only then are the cells complete)."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        import numpy as np

        refused = np.flatnonzero(~np.isfinite(np.array(values, float)))
        if len(refused):
            return [], int(refused[0])
        return list(map(float.__repr__, values)), None
    if kinds == {str}:
        return values, None
    if kinds == {int}:
        return list(map(int.__repr__, values)), None
    cells = []
    for i, value in enumerate(values):
        try:
            cells.append(_fmt(value, path, column))
        except ValueError:
            return [], i
    return cells, None


def write_tables(out_dir: Path, meta: Mapping[str, Any], tables: Mapping[str, tuple]) -> None:
    """Each table, ``(fieldnames, columns[, extra meta])`` by name, as ``<name>.csv``
    in ``out_dir``: a command computes every table before it writes the first."""
    for name, table in tables.items():
        write_csv(out_dir / f"{name}.csv", meta, *table)


# --- JSON out ------------------------------------------------------------------


def _json_text(meta: Mapping[str, Any], payload: Any) -> str:
    return json.dumps({"meta": meta, "data": payload}, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: Path, meta: Mapping[str, Any], payload: Any) -> None:
    write_text_atomic(path, _json_text(meta, payload))


#: a scored pair of divergence.json, after the separator from the pair before
#: it, as json.dumps(indent=2, sort_keys=True) lays it out at its depth
_PAIR_JSON = (
    '%s      {\n        "cosine": %s,\n        "jaccard": %s,\n        "mentions_a": %s,\n        "mentions_b": %s\n      }'
)
_JSON_LITERALS = {None: "null", True: "true", False: "false"}
#: the stand-in for the pair list in the rest of the document; json.dumps writes it as "\u0000pairs"
_PAIRS_MARK = "\0pairs"


def _json_scalars(values: Sequence) -> Optional[Iterator[str]]:
    """Each value as json.dumps writes it, made when it is asked for, if all
    are finite floats, or all are None, True or False; None otherwise."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return map(float.__repr__, values) if all(map(math.isfinite, values)) else None
    if kinds <= {bool, type(None)}:
        return map(_JSON_LITERALS.__getitem__, values)
    return None


def write_divergence(path: Path, meta: Mapping[str, Any], report) -> None:
    """divergence.json: the bytes :func:`write_json` writes for
    ``report.to_dict()``. The rest of the document goes through json.dumps,
    and each pair is written from one template in the pair list's place. A
    pair column of other values (a non-finite float) takes ``write_json``'s
    path, and so its error."""
    columns = [_json_scalars(column) for column in zip(*report.pairs)]
    if None in columns:
        write_json(path, meta, report.to_dict())
        return
    jaccards, cosines, mentions_a, mentions_b = columns  # a report holds at least one scored pair
    head, tail = _json_text(meta, {**vars(report), "pairs": _PAIRS_MARK, "n_pairs": len(report.pairs)}).split(
        json.dumps(_PAIRS_MARK)
    )
    separators = itertools.chain(("",), itertools.repeat(",\n"))
    pairs = map(_PAIR_JSON.__mod__, zip(separators, cosines, jaccards, mentions_a, mentions_b))
    write_chunks_atomic(path, itertools.chain((head, "[\n"), pairs, ("\n    ]", tail)))


# --- atomic writes -------------------------------------------------------------


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all."""
    write_chunks_atomic(path, (text,))


def write_chunks_atomic(path, chunks: Iterable[str]) -> None:
    """Write the strings of ``chunks`` to ``path``, one after another and each
    when it is made, whole or not at all."""
    with replacing(path) as temp, open(temp, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


@contextlib.contextmanager
def replacing(path) -> Iterator[Path]:
    """A temp file in ``path``'s directory for the caller to write, which then
    replaces ``path``; the temp file is removed if a step fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield temp
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # gone already unless a step above failed
