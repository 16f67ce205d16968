import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from conftest import CELL_TEXT, UNPICKLED, Planted, make_record, random_records, resaved
from oracles import (
    cell_value_dicts,
    columns_load_employment,
    deduplicate,
    naive_deduplicate,
    naive_load_cell_values,
    naive_load_employment,
    naive_matrix,
    naive_read_soc_pairs,
    naive_read_features,
    naive_read_table,
    parse_labels,
    record_json_line,
    record_key,
    row_views,
    soc_pair_dict,
)
from taskatlas import files, ingest, linkage, validate
from taskatlas.core import AiFunction, Channel, IncomeGroup, Margin, TaskLabelRecord, validate_record
from taskatlas.cli import main
from taskatlas.files import IngestError, write_text_atomic
from taskatlas.ingest import (
    RAW_FIELDS,
    load_country_registry,
    load_employment,
    read_labels,
    validate_columns,
)
from taskatlas import reweight
from taskatlas.reweight import Sex

VALID_LINE = json.dumps(
    {
        "task_id": "t1",
        "country": "AAA",
        "exposure_level": 2,
        "dominant_channel": "rule_based_workflow",
        "substitution_path": True,
        "augmentation_path": True,
        "margin": "both",
        "ai_materiality": False,
        "dominant_ai_function": "none",
        "short_rationale": "r",
        "substitution_summary": "",
        "augmentation_summary": "",
    }
)


class TestParseLabels:
    def test_clean_jsonl(self):
        stream = io.StringIO("\n".join([VALID_LINE] * 3) + "\n")
        rows, report = parse_labels(stream, "jsonl")
        assert report.rows_read == 3
        assert report.rows_rejected == 0
        assert len(rows) == 3

    def test_truncated_line_rejected_with_line_number(self):
        stream = io.StringIO(VALID_LINE + "\n" + VALID_LINE[: len(VALID_LINE) // 2] + "\n" + VALID_LINE + "\n")
        rows, report = parse_labels(stream, "jsonl")
        assert len(rows) == 2
        assert report.rows_rejected == 1
        assert report.violations[0][0] == 2

    def test_rows_read_balance(self):
        stream = io.StringIO(VALID_LINE + "\nnot json\n\n" + VALID_LINE + "\n")
        _, report = parse_labels(stream, "jsonl")
        assert report.rows_read == report.rows_accepted + report.rows_rejected == 3

    def test_order_preserved(self):
        lines = []
        for i in range(5):
            obj = json.loads(VALID_LINE)
            obj["task_id"] = f"t{i}"
            lines.append(json.dumps(obj))
        rows, _ = parse_labels(io.StringIO("\n".join(lines)), "jsonl")
        assert [r[1]["task_id"] for r in rows] == [f"t{i}" for i in range(5)]

    def test_unknown_format(self):
        with pytest.raises(IngestError):
            parse_labels(io.StringIO(""), "parquet")

    def test_csv_round(self):
        csv_text = (
            "task_id,country,exposure_level,dominant_channel,substitution_path,augmentation_path,"
            "margin,ai_materiality,dominant_ai_function,short_rationale,substitution_summary,augmentation_summary\n"
            't1,AAA,2,rule_based_workflow,true,true,both,false,none,r,,\n'
        )
        rows, report = parse_labels(io.StringIO(csv_text), "csv")
        assert report.rows_accepted == 1
        assert rows[0][1]["margin"] == "both"

    @pytest.mark.parametrize("lead", ["\n", "# note\n", "\r\n# note\n\n"])
    def test_csv_blank_and_comment_lines_before_the_header_are_skipped(self, lead):
        header = ",".join(RAW_FIELDS[:1] + RAW_FIELDS[3:])
        rows = ["t1,AAA,2,rule_based_workflow,true,true,both,false,none,r,,", "t2,AAA,9,none,,,,,,,,", "t3,AAA"]
        text = "\n".join([header, *rows, ""])
        plain, plain_report = read_labels(io.StringIO(text), "csv")
        led, led_report = read_labels(io.StringIO(lead + text), "csv")
        assert row_views(led.columns) == row_views(plain.columns) and len(plain) == 1
        assert (led_report.rows_read, led_report.rows_accepted) == (plain_report.rows_read, plain_report.rows_accepted)
        shift = lead.count("\n")
        assert {line for line, *_ in plain_report.violations} == {3, 4}
        assert [(line - shift, *rest) for line, *rest in led_report.violations] == plain_report.violations

    def test_csv_comment_lines_after_the_header_are_skipped(self):
        """A ``#`` line anywhere is skipped, as in every other CSV table, and
        rejected rows keep their physical line numbers."""
        header = ",".join(RAW_FIELDS[:1] + RAW_FIELDS[3:])
        row = "t1,AAA,2,rule_based_workflow,true,true,both,false,none,r,,"
        plain, _ = read_labels(io.StringIO(f"{header}\n{row}\n"), "csv")
        text = "\n".join([header, "# note", row, "# note", "t2,AAA", "# note"])
        commented, report = read_labels(io.StringIO(text), "csv")
        assert row_views(commented.columns) == row_views(plain.columns) and len(plain) == 1
        assert (report.rows_read, report.rows_accepted) == (2, 1)
        assert report.violations == [(5, "syntax", "row width does not match header")]

    def test_comment_lines_skipped(self):
        stream = io.StringIO("# tool: something\n" + VALID_LINE + "\n")
        rows, report = parse_labels(stream, "jsonl")
        assert report.rows_read == 1
        assert len(rows) == 1

    def test_rows_read_equals_independent_line_count(self):
        # the shipped fixture file, counted with plain text tools
        path = Path(__file__).parent / "fixtures" / "labels.jsonl"
        text = path.read_text(encoding="utf-8")
        expected = sum(1 for line in text.splitlines() if line.strip() and not line.startswith("#"))
        _, report = parse_labels(io.StringIO(text), "jsonl")
        assert report.rows_read == expected


class TestJsonValue:
    @pytest.mark.parametrize("text", ['{"a": [1, 2.5, true]}', b'{"a": [1, 2.5, true]}', ' {"a":[1,2.5,true]}\n'])
    def test_text_or_utf8_bytes(self, text):
        assert files.json_value(text, "x.json") == {"a": [1, 2.5, True]}

    @pytest.mark.parametrize("text", [
        '"bad \\ud800 x"', '["\\udfff"]', '{"\\udc00": 1}', b'{"a": {"b": ["x", "\\uD834"]}}',
    ])
    def test_a_lone_surrogate_escape_is_not_json(self, text):
        """No UTF-8 text holds a lone surrogate, so no output could write one."""
        with pytest.raises(IngestError, match="^x.json is not valid JSON: a string holds a lone surrogate$"):
            files.json_value(text, "x.json")

    @pytest.mark.parametrize("text, value", [
        ('"\\ud83d\\ude00"', "\U0001F600"),  # a surrogate pair escapes one astral character
        ('"\\\\ud800"', "\\ud800"),  # an escaped backslash, then the letters
        ('"\\u00e9 \\u65e5"', "\u00e9 \u65e5"),
    ])
    def test_other_unicode_escapes_are_json(self, text, value):
        assert files.json_value(text) == value

    @pytest.mark.parametrize("text, why", [
        ("{not json", "Expecting property name enclosed in double quotes"),
        ("[1,]", "Expecting value"),
        ("9" * 5000, "digits"),  # an integer literal past int()'s digit limit
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        (b'["\xff"]', "'utf-8' codec can't decode byte 0xff"),
        (b'["\xed\xa0\x80"]', "'utf-8' codec can't decode"),  # an encoded surrogate
    ])
    def test_a_text_that_is_not_json_is_one_ingest_error(self, text, why):
        with pytest.raises(IngestError) as named:
            files.json_value(text, "x.json")
        assert str(named.value).startswith("x.json is not valid JSON: ") and why in str(named.value)
        with pytest.raises(IngestError) as unnamed:
            files.json_value(text)
        assert str(unnamed.value) == "invalid JSON: " + str(named.value).split(": ", 1)[1]

    @pytest.mark.parametrize("value, finite", [
        (0, True), (-1.5, True), (-0.0, True), (5e-324, True), (1.7976931348623157e308, True), (10**308, True),
        (10**400, False), (-(10**400), False), (math.nan, False), (math.inf, False), (-math.inf, False),
        (True, False), (False, False), (None, False), ("1", False), ([1.0], False),
    ])
    def test_finite_number(self, value, finite):
        assert files.finite_number(value) is finite


class TestReadLabels:
    def test_parse_serialize_parse_fixed_point(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(VALID_LINE + "\n", encoding="utf-8")
        dataset, report = read_labels(str(path))
        assert report.rows_accepted == 1
        serialized = dataset.to_jsonl()
        dataset2, _ = read_labels(io.StringIO(serialized))
        assert row_views(dataset2.columns) == row_views(dataset.columns)
        assert dataset2.to_jsonl() == serialized

    def test_schema_violation_counted(self, tmp_path):
        bad = json.loads(VALID_LINE)
        bad["margin"] = "augment"
        bad["augmentation_path"] = False
        path = tmp_path / "labels.jsonl"
        path.write_text(VALID_LINE + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        dataset, report = read_labels(str(path))
        assert report.rows_read == 2
        assert report.rows_rejected == 1  # margin-path contradiction
        assert len(dataset) == 1


#: a raw label row in canonical form; MUTANTS then replaces or drops some of its cells
CANONICAL_CELLS = {
    "task_id": st.sampled_from(["t1", "t2", " t3"]),
    "country": st.sampled_from(["AAA", "BBB", "income:low"]),
    "exposure_level": st.sampled_from([0, 1, 2, 3, "0", "3"]),
    "dominant_channel": st.sampled_from([c.value for c in Channel]),
    "substitution_path": st.sampled_from([True, False, "true", "false"]),
    "augmentation_path": st.sampled_from([True, False, "true", "false"]),
    "margin": st.sampled_from([m.value for m in Margin]),
    "margin_raw": st.sampled_from([None, "", *(m.value for m in Margin)]),
    "ai_materiality": st.sampled_from([True, False, "true", "false"]),
    "dominant_ai_function": st.sampled_from([f.value for f in AiFunction]),
    "short_rationale": st.text(max_size=6) | st.just("x" * 240),
    "substitution_summary": st.sampled_from(["", "Scripted workflow."]),
    "augmentation_summary": st.sampled_from(["", "Drafts for review."]),
}
DROP = object()
_FLAG_MUTANTS = [1, 0, 1.0, "True", " true", "yes", "", None, DROP]
_TEXT_MUTANTS = [5, None, ["x"], {"a": 1}, True, "x" * 241, DROP]
MUTANTS = {
    "task_id": [None, "", "  ", 5, DROP],
    "task_text": ["Weld the pipes", "", 7],
    "country": [" AAA", "AAA ", "", "  ", None, 123, DROP],
    "exposure_level": [True, False, 2.0, " 2", "+2", "02", "4", -1, 7, 10**20, "9" * 5000, "two", "", None, [2], DROP],
    "dominant_channel": [" none", "None", "teleportation", 5, "", None, DROP],
    "substitution_path": _FLAG_MUTANTS,
    "augmentation_path": _FLAG_MUTANTS,
    "margin": [" both", "Both", "x", 3, "", None, DROP],
    "margin_raw": ["  ", " both", "x", 1, [], DROP],
    "ai_materiality": _FLAG_MUTANTS,
    "dominant_ai_function": [" none", "NONE", "", None, DROP],
    "short_rationale": _TEXT_MUTANTS,
    "substitution_summary": _TEXT_MUTANTS,
    "augmentation_summary": _TEXT_MUTANTS,
}


@st.composite
def raw_rows(draw) -> dict:
    row = draw(st.fixed_dictionaries(CANONICAL_CELLS))
    if draw(st.booleans()):  # keep the margin/path and AI-materiality rules, so the row can pass
        margin = row["margin_raw"] or row["margin"]
        spelled = {True: True, False: False} if draw(st.booleans()) else {True: "true", False: "false"}
        row["substitution_path"] = spelled[margin in ("substitute", "both") or draw(st.booleans())]
        row["augmentation_path"] = spelled[margin in ("augment", "both") or draw(st.booleans())]
        if row["ai_materiality"] in (False, "false"):
            row["dominant_ai_function"] = "none"
    for name in draw(st.lists(st.sampled_from(sorted(MUTANTS)), max_size=3)):
        value = draw(st.sampled_from(MUTANTS[name]))
        if value is DROP:
            row.pop(name, None)
        else:
            row[name] = value
    return row


def valid_row(**cells) -> dict:
    row = json.loads(VALID_LINE)
    row.update(cells)
    return row


class TestValidateColumns:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(raw_rows(), max_size=12))
    @example(rows=[valid_row()])
    @example(rows=[valid_row(exposure_level=True), valid_row(exposure_level=2.0), valid_row(substitution_path=1)])
    @example(rows=[valid_row(exposure_level=" 2"), valid_row(exposure_level="+3"), valid_row(exposure_level="2")])
    @example(rows=[valid_row(dominant_channel=" none"), valid_row(margin="both "), valid_row(margin_raw=" both")])
    @example(rows=[valid_row(short_rationale=5), valid_row(augmentation_summary=None), valid_row(country=" AAA")])
    @example(rows=[valid_row(margin_raw=""), valid_row(margin_raw="  "), valid_row(margin_raw=None)])
    @example(rows=[valid_row(short_rationale="x" * 240), valid_row(short_rationale="x" * 241)])
    @example(rows=[valid_row(exposure_level="9" * 5000)])  # past int()'s digit limit
    def test_masks_agree_with_validate_record(self, rows):
        """Accept or reject, violation codes and messages in order, and the
        normalized record all match the per-row oracle."""
        lines = [10 * i + 1 for i in range(len(rows))]
        cells = {name: [row.get(name) for row in rows] for name in RAW_FIELDS}
        columns, report = validate_columns(lines, cells)
        records, violations = [], []
        for line, row in zip(lines, rows):
            result = validate_record(row)
            if result.ok:
                records.append(result.record)
            else:
                violations += [(line, v.code, v.message) for v in result.violations]
        assert [record_json_line(r) for r in row_views(columns)] == [record_json_line(r) for r in records]
        assert row_views(columns) == records
        assert report.violations == violations
        assert (report.rows_read, report.rows_accepted, report.rows_rejected) == (
            len(rows), len(records), len(rows) - len(records)
        )

    def test_only_rows_failing_a_mask_reach_the_oracle(self, monkeypatch):
        calls = []

        def counted(raw):
            calls.append(raw)
            return validate_record(raw)

        monkeypatch.setattr(ingest, "validate_record", counted)
        dataset, report = read_labels(str(Path(__file__).parent / "fixtures" / "labels.jsonl"))
        assert len(dataset) > 0
        assert len(calls) == report.rows_rejected

    def test_string_cells_of_a_csv_file_take_the_masks(self, monkeypatch):
        header = ",".join(RAW_FIELDS[:1] + RAW_FIELDS[3:])
        row = "t1,AAA,2,rule_based_workflow,true,true,both,false,none,r,,"
        monkeypatch.setattr(ingest, "validate_record", None)  # never called
        dataset, report = read_labels(io.StringIO(f"{header}\n{row}\n"), "csv")
        assert report.rows_accepted == 1
        assert [(record_key(r), r.exposure) for r in row_views(dataset.columns)] == [(("AAA", "t1"), 2)]


class TestLabelDataset:
    def test_key_order_and_country_index_from_reversed_dict(self):
        keys = [("AAA", "t1"), ("AAA", "t2"), ("BBB", "t1"), ("BBB", "t2")]
        records = {key: make_record(key[1], country=key[0]) for key in reversed(keys)}
        dataset = deduplicate(records.values())
        assert [record_key(r) for r in row_views(dataset.columns)] == keys
        assert dataset.countries() == ["AAA", "BBB"]
        assert [record_key(r) for r in row_views(dataset.for_country("BBB"))] == keys[2:]
        assert len(dataset.for_country("CCC")) == 0
        with pytest.raises(TypeError, match="not by one index"):
            list(dataset.columns)  # rows are read as columns, or through rows()
        assert dataset.to_jsonl() == "".join(record_json_line(records[key]) + "\n" for key in keys)

    def test_counts_tally_each_country_by_code(self):
        rng = np.random.default_rng(7)
        records = [r for country, n in (("CCC", 30), ("AAA", 20), ("BBB", 25))
                   for r in random_records(rng, n, country=country, unclear_rate=0.2)]
        dataset = deduplicate(records)
        columns = dataset.columns
        countries = [record.country for record in row_views(columns)]
        assert columns.country.tolist() == [dataset.countries().index(c) for c in countries]
        task_ids = [record.task_id for record in row_views(columns)]
        assert columns.task_ids[columns.task_id].tolist() == task_ids
        assert columns.task_ids.tolist() == sorted(set(task_ids))
        fields = ("ai_function", "exposure", "margin_raw", "ai_material")  # not in the table's own order
        table = dataset.counts(*fields)
        expected = np.zeros((3, len(AiFunction), 4, len(Margin), 2), np.int64)
        for country, *cell in zip(columns.country.tolist(), *(getattr(columns, f).tolist() for f in fields)):
            expected[(country, *map(int, cell))] += 1  # a bool index would be a mask
        assert np.array_equal(table, expected)


class TestWriteTextAtomic:
    def test_failed_replace_keeps_previous_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_text_atomic(target, "new\n")
        assert target.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


#: label texts: empty, non-ASCII, astral, control characters, at the length limit
LABEL_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", "é", "日本語の説明", "\U0001F600 astral", "a\x00b\nc", "x" * 240]
)
LABEL_KEY = st.sampled_from(["t1", "t2", "tâche", "\U0001F600", "AAA"])


@st.composite
def label_files(draw) -> str:
    """A label JSONL text of valid rows, repeated keys included, over one to three countries."""
    countries = draw(st.lists(st.sampled_from(["AAA", "BBB", "ÇÇÇ", "income:low", "\U0001F30D"]),
                              min_size=1, max_size=3, unique=True))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        margin = draw(st.sampled_from([m.value for m in Margin]))
        material = draw(st.booleans())
        row = valid_row(
            task_id=draw(LABEL_KEY), country=draw(st.sampled_from(countries)), exposure_level=draw(st.integers(0, 3)),
            dominant_channel=draw(st.sampled_from([c.value for c in Channel])), margin=margin,
            substitution_path=margin in ("substitute", "both") or draw(st.booleans()),
            augmentation_path=margin in ("augment", "both") or draw(st.booleans()),
            ai_materiality=material,
            dominant_ai_function=draw(st.sampled_from([f.value for f in AiFunction])) if material else "none",
            short_rationale=draw(LABEL_TEXT), substitution_summary=draw(LABEL_TEXT),
            augmentation_summary=draw(LABEL_TEXT),
        )
        lines.append(json.dumps(row, ensure_ascii=draw(st.booleans())))
    return "\n".join(lines) + "\n"


def written_dataset(directory: Path, labels: str) -> Path:
    """``labels`` read as ``ingest`` reads them and written with ``write_dataset``: the dataset file's path."""
    directory.mkdir(parents=True, exist_ok=True)
    source = directory / "labels.jsonl"
    source.write_text(labels, encoding="utf-8")
    dataset, _ = read_labels(str(source))
    path = directory / "out" / "dataset.jsonl"
    ingest.write_dataset(path, {"tool": "taskatlas", "seed": 0}, dataset)
    return path


def assert_same_dataset(loaded, expected) -> None:
    """Column for column equal, with the same provenance and the same ``to_jsonl`` bytes."""
    assert list(vars(loaded.columns)) == list(vars(expected.columns))
    for name, column in vars(expected.columns).items():
        other = getattr(loaded.columns, name)
        assert other.dtype == column.dtype and other.tolist() == column.tolist(), name
    assert loaded.provenance == expected.provenance
    assert loaded.to_jsonl() == expected.to_jsonl()


def parses(path: Path):
    """``load_dataset(path)`` and whether it called ``read_labels``."""
    with mock.patch.object(ingest, "read_labels", wraps=ingest.read_labels) as parse:
        dataset = ingest.load_dataset(path)
    return dataset, parse.called


def npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def flipped(companion: Path, index: int, mask: int) -> None:
    data = bytearray(companion.read_bytes())
    data[index] ^= mask
    companion.write_bytes(bytes(data))


def companion_strings(arrays, name: str) -> list[str]:
    """The strings of the companion blob ``<name>_utf8`` between its offsets."""
    blob, offsets = arrays[f"{name}_utf8"].tobytes(), arrays[f"{name}_offsets"].tolist()
    return [blob[lo:hi].decode("utf-8") for lo, hi in zip(offsets, offsets[1:])]


#: the companion members with one entry per row, texts aside
ROW_MEMBERS = ("exposure", "channel", "margin", "margin_raw", "ai_function", "substitution_path", "augmentation_path",
               "ai_material", "country", "task_id")


def reordered(arrays, order: np.ndarray) -> dict[str, np.ndarray]:
    """The companion members of ``arrays`` with their rows taken in ``order``."""
    members = {**arrays, **{name: arrays[name][order] for name in ROW_MEMBERS}}
    for name in ("short_rationale", "substitution_summary", "augmentation_summary"):
        texts = companion_strings(arrays, name)
        members.update(ingest._utf8(name, [texts[i] for i in order.tolist()]))
    return members


def rows_reversed(arrays) -> dict[str, np.ndarray]:
    """Every row where it is, but in reverse key order."""
    return reordered(arrays, np.arange(len(arrays["exposure"]))[::-1])


def country_table_reversed(arrays) -> dict[str, np.ndarray]:
    """The country table in decreasing order, the codes following it and the rows in increasing code order."""
    table = companion_strings(arrays, "country_table")
    country = (len(table) - 1 - arrays["country"]).astype(np.int32)
    members = reordered({**arrays, "country": country}, np.lexsort((arrays["task_id"], country)))
    return {**members, **ingest._utf8("country_table", table[::-1])}


def country_no_row_has(arrays) -> dict[str, np.ndarray]:
    """One more country at the end of the table, which no row has."""
    table = companion_strings(arrays, "country_table")
    return {**arrays, **ingest._utf8("country_table", [*table, table[-1] + "~"])}


def task_no_row_has(arrays) -> dict[str, np.ndarray]:
    """One more task id, the empty string, at the start of the table, which no row has."""
    table = companion_strings(arrays, "task_id_table")
    return {**arrays, **ingest._utf8("task_id_table", ["", *table]), "task_id": arrays["task_id"] + np.int32(1)}


FIXTURE_LABELS = Path(__file__).parent / "fixtures" / "labels.jsonl"


class TestDatasetFiles:
    @settings(max_examples=150, deadline=None)
    @given(labels=label_files())
    def test_a_companion_load_equals_read_labels(self, labels):
        with tempfile.TemporaryDirectory() as scratch:
            path = written_dataset(Path(scratch), labels)
            expected, report = read_labels(str(path))
            assert report.rows_rejected == 0
            with mock.patch.object(ingest, "read_labels", side_effect=AssertionError("the JSONL was parsed")):
                if len(expected):
                    assert_same_dataset(ingest.load_dataset(path), expected)
                else:
                    with pytest.raises(IngestError, match="dataset has no records"):
                        ingest.load_dataset(path)

    def test_one_row_one_country(self, tmp_path):
        path = written_dataset(tmp_path, json.dumps(valid_row(short_rationale="\U0001F600")) + "\n")
        loaded, parsed = parses(path)
        assert not parsed and len(loaded) == 1
        assert_same_dataset(loaded, read_labels(str(path))[0])

    def test_equal_datasets_give_equal_companion_bytes(self, tmp_path):
        first = written_dataset(tmp_path / "a", FIXTURE_LABELS.read_text(encoding="utf-8"))
        second = written_dataset(tmp_path / "b", FIXTURE_LABELS.read_text(encoding="utf-8"))
        assert ingest.companion_path(first).read_bytes() == ingest.companion_path(second).read_bytes()
        assert ingest.companion_path(first).name == "dataset.columns.npz"

    def test_a_stale_companion_is_not_read(self, tmp_path):
        path = written_dataset(tmp_path, FIXTURE_LABELS.read_text(encoding="utf-8"))
        path.write_bytes(path.read_bytes().replace(b"# seed: 0", b"# seed: 1"))
        loaded, parsed = parses(path)
        assert parsed
        assert_same_dataset(loaded, read_labels(str(path))[0])

    #: per damage, how to do it to a companion of the fixture dataset (240 records)
    DAMAGE = {
        "missing": lambda c: c.unlink(),
        "empty": lambda c: c.write_bytes(b""),
        "truncated": lambda c: c.write_bytes(c.read_bytes()[:-100]),
        "text byte flipped": lambda c: flipped(c, c.read_bytes().index(b"Deployment conditions in Alandia"), 0x20),
        "wrong version": lambda c: resaved(c, version=np.array(ingest.COMPANION_VERSION + 1)),
        "wrong digest": lambda c: resaved(c, digest=np.array("0" * 64)),
        "planted object array": lambda c: resaved(c, short_rationale_utf8=np.array([Planted()], object)),
        "extra object array": lambda c: resaved(c, planted=np.array([Planted()], object)),
        "code out of range": lambda c: resaved(c, exposure=np.full(240, 4, np.int8)),
        "code of another type": lambda c: resaved(c, exposure=np.zeros(240, np.int16)),
        "short column": lambda c: resaved(c, ai_material=np.zeros(239, bool)),
        "offsets past the blob": lambda c: resaved(c, short_rationale_offsets=np.arange(241, dtype=np.int64) * 10**6),
        "offsets splitting a character": lambda c: resaved(
            c, country_table_utf8=np.frombuffer("ÅAA".encode("utf-8"), np.uint8),
            country_table_offsets=np.array([0, 1, 4], np.int64)),
        "a plain npy file": lambda c: c.write_bytes(npy_bytes(np.arange(3))),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_a_damaged_companion_is_a_miss(self, tmp_path, damage):
        """The JSONL is parsed instead, and nothing in the companion is unpickled."""
        path = written_dataset(tmp_path, FIXTURE_LABELS.read_text(encoding="utf-8"))
        expected = read_labels(str(path))[0]
        assert len(expected) == 240
        self.DAMAGE[damage](ingest.companion_path(path))
        loaded, parsed = parses(path)
        assert parsed and not UNPICKLED
        assert_same_dataset(loaded, expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_one_flipped_byte_gives_a_miss_or_the_same_columns(self, data):
        """The member CRCs catch a flip in any array's bytes, which no range check could."""
        with tempfile.TemporaryDirectory() as scratch:
            path = written_dataset(Path(scratch), data.draw(label_files(), label="labels"))
            expected = read_labels(str(path))[0]
            companion = ingest.companion_path(path)
            at = data.draw(st.integers(0, companion.stat().st_size - 1), label="byte")
            flipped(companion, at, data.draw(st.integers(1, 255), label="mask"))
            columns = ingest._companion_columns(companion, expected.provenance[0][1])
            if columns is not None:
                assert_same_dataset(ingest.LabelDataset(columns, expected.provenance), expected)


    @pytest.mark.parametrize("fault", [rows_reversed, country_table_reversed, country_no_row_has, task_no_row_has],
                             ids=lambda fault: fault.__name__)
    def test_a_companion_that_breaks_the_key_order_is_a_miss(self, tmp_path, fault):
        """A companion with the right digest and the right records, but whose
        rows or key tables break the order the key lookup relies on, is not
        read: the load is the parse's, and ``summarize`` writes its bytes."""
        path = written_dataset(tmp_path, FIXTURE_LABELS.read_text(encoding="utf-8"))
        expected = read_labels(str(path))[0]
        companion = ingest.companion_path(path)
        with np.load(companion) as arrays:
            members = fault({name: arrays[name] for name in arrays.files})
        ingest._write_npz(companion, members)
        loaded, parsed = parses(path)
        assert parsed
        assert_same_dataset(loaded, expected)
        assert main(["summarize", "--dataset", str(path), "--out", str(tmp_path / "planted")]) == 0
        companion.unlink()
        assert main(["summarize", "--dataset", str(path), "--out", str(tmp_path / "parsed")]) == 0
        written = sorted(path.name for path in (tmp_path / "parsed").iterdir())
        assert sorted(path.name for path in (tmp_path / "planted").iterdir()) == written
        for name in written:
            assert (tmp_path / "planted" / name).read_bytes() == (tmp_path / "parsed" / name).read_bytes(), name


class TestDeduplicate:
    def test_identical_rows_collapse_unchanged(self):
        record = make_record("t1")
        dataset = deduplicate([record, record])
        assert len(dataset) == 1
        assert row_views(dataset.columns) == [record]

    def test_mode_wins(self):
        records = [
            make_record("t1", exposure=2),
            make_record("t1", exposure=2),
            make_record("t1", exposure=3),
        ]
        assert [r.exposure for r in row_views(deduplicate(records).columns)] == [2]

    def test_exposure_tie_breaks_low(self):
        records = [make_record("t1", exposure=2), make_record("t1", exposure=3)]
        assert [r.exposure for r in row_views(deduplicate(records).columns)] == [2]

    def test_enum_tie_breaks_lexicographic(self):
        records = [
            make_record("t1", channel=Channel.RULE_BASED_WORKFLOW),
            make_record("t1", channel=Channel.INFERENCE_SCORING),
        ]
        assert [r.channel for r in row_views(deduplicate(records).columns)] == [Channel.INFERENCE_SCORING]

    def test_merged_record_remains_consistent(self):
        records = [
            make_record("t1", exposure=2, margin=Margin.SUBSTITUTE),
            make_record("t1", exposure=2, margin=Margin.SUBSTITUTE),
            make_record("t1", exposure=1, margin=Margin.AUGMENT),
        ]
        [merged] = row_views(deduplicate(records).columns)
        assert merged.margin_raw is Margin.SUBSTITUTE
        assert merged.substitution_path is True

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        records = random_records(rng, 30, country="AAA")
        # duplicate a few task ids with fresh draws
        records += random_records(rng, 10, country="AAA")
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert row_views(deduplicate(records).columns) == row_views(deduplicate(shuffled).columns)

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.builds(
                TaskLabelRecord,
                task_id=st.sampled_from(["t1", "t2", "t3"]),
                country=st.sampled_from(["AAA", "BBB"]),
                exposure=st.integers(0, 3),
                channel=st.sampled_from(list(Channel)),
                substitution_path=st.booleans(),
                augmentation_path=st.booleans(),
                margin=st.sampled_from(list(Margin)),
                margin_raw=st.sampled_from(list(Margin)),
                ai_material=st.booleans(),
                ai_function=st.sampled_from(list(AiFunction)),
                short_rationale=st.sampled_from(["a", "b", "ab", ""]),
                substitution_summary=st.sampled_from(["", "s"]),
                augmentation_summary=st.sampled_from(["", "a"]),
            ),
            max_size=30,
        )
    )
    def test_columnar_merge_matches_row_merge(self, records):
        """Duplicate groups with ties collapse exactly as the row-by-row merge does."""
        dataset = deduplicate(records)
        expected = naive_deduplicate(records)
        assert row_views(dataset.columns) == list(expected.values())
        assert dataset.to_jsonl() == "".join(record_json_line(r) + "\n" for r in expected.values())


class TestRegistry:
    def test_load(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text(
            "iso3,name,income_group,region\n"
            "AAA,Alandia,low,Sub-Saharan Africa\n"
            "BBB,Borduria,high,Europe & Central Asia\n"
            "CCC,Villanueva,,Latin America & Caribbean\n",
            encoding="utf-8",
        )
        registry = load_country_registry(str(path))
        assert len(registry) == 3
        assert registry["AAA"].income_group is IncomeGroup.LOW
        assert registry["CCC"].income_group is IncomeGroup.UNCLASSIFIED

    def test_duplicate_iso3_rejected(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("iso3,name,income_group,region\nAAA,A,low,X\nAAA,A2,high,X\n", encoding="utf-8")
        with pytest.raises(IngestError, match="duplicate iso3"):
            load_country_registry(str(path))

    def test_unknown_income_group_rejected(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("iso3,name,income_group,region\nAAA,A,middling,X\n", encoding="utf-8")
        with pytest.raises(IngestError, match="unknown income group"):
            load_country_registry(str(path))

    def test_utf8_bom(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("iso3,name,income_group,region\nAAA,A,low,X\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_country_registry(str(path))["AAA"].income_group is IncomeGroup.LOW

    def test_empty_file(self, tmp_path):
        path = tmp_path / "registry.csv"
        path.write_text("iso3,name,income_group,region\n", encoding="utf-8")
        assert load_country_registry(str(path)) == {}


class TestEmployment:
    def test_clean_fixture_accepted(self, tmp_path):
        lines = ["iso3,year,sex,cell_id,count"]
        for g in range(1, 10):
            lines.append(f"AAA,2023,total,isco{g},10{g}")
        path = tmp_path / "emp.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = load_employment(str(path))
        assert len(table.rows) == 9
        assert table.rows[0].sex is Sex.TOTAL

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text("iso3,year,sex,cell_id,count\nAAA,2023,total,isco1,-4\n", encoding="utf-8")
        with pytest.raises(IngestError, match="negative"):
            load_employment(str(path))

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text(
            "iso3,year,sex,cell_id,count\nAAA,2023,total,isco1,4\nAAA,2023,total,isco1,5\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="duplicate"):
            load_employment(str(path))

    def test_duplicate_after_a_bad_cell_in_a_later_row_names_the_bad_cell(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text(
            "iso3,year,sex,cell_id,count\nAAA,2023,total,isco1,4\nAAA,2023,total,isco1,5\nAAA,2023,total,isco2,x\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="'count' has a non-numeric value 'x' in data row 3"):
            load_employment(str(path))

    def test_row_view_is_built_on_first_use(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text("iso3,year,sex,cell_id,count\nAAA,2023,female,isco1,4\n", encoding="utf-8")
        table = load_employment(str(path))
        assert "rows" not in vars(table)
        assert table.rows == (reweight.EmploymentRow("AAA", 2023, Sex.FEMALE, "isco1", 4.0),)


# --- the column reader against the row-by-row loops ---------------------------------

NUMBER_TEXT = st.floats(-1e6, 1e6).map(repr) | st.integers(-50, 50).map(str)
#: a task weight or bridge share: mostly values that can sum to 1 over a SOC's rows
SHARE_TEXT = st.just("1") | st.sampled_from(["1.0", "0.5", " 0.25", "0.75", "0", "-0.5", "1.5", "1e308"]) | NUMBER_TEXT

#: per table: header, one strategy per column for a data row's cells, and how
#: many leading columns form a key that the drawn rows do not repeat
TABLES = {
    "employment": (
        ("iso3", "year", "sex", "cell_id", "count"),
        (
            st.sampled_from(["AAA", "BBB", " AAA"]),
            st.sampled_from(["2020", "2021", " 2022", "+2023", "2_024"]),
            st.sampled_from(["total", "female", "male", " male"]),
            st.sampled_from(["c1", "c2", "c3 "]),
            st.floats(0, 1e6).map(repr) | st.sampled_from(["-0.0", "0", "1e308", "7"]),
        ),
        4,
    ),
    "cell_values": (
        ("iso3", "cell_id", "value", "substitute"),
        (st.sampled_from(["AAA", "BBB", "AAA "]), st.sampled_from(["c1", "c2", "c3"]), NUMBER_TEXT, NUMBER_TEXT),
        2,
    ),
    "task_weights": (
        ("soc", "task_id", "weight"),
        (st.sampled_from(["s1", "s2", " s1"]), st.sampled_from(["t1", "t2", "t3 "]), SHARE_TEXT),
        2,
    ),
    "bridge": (
        ("soc", "isco", "share"),
        (st.sampled_from(["s1", "s2", "s2 "]), st.sampled_from(["g1", " g2", "g3"]), SHARE_TEXT),
        2,
    ),
    "stats": (
        ("unit", "x", "z", "y"),
        (st.sampled_from(["u1", "u2"]), NUMBER_TEXT, NUMBER_TEXT | st.just(""), NUMBER_TEXT),
        0,
    ),
}
#: a replaced cell: besides CELL_TEXT, a sex in the wrong case or unknown, and negative counts
EDIT_TEXT = CELL_TEXT | st.sampled_from(["Male", "other", " total", "-4", "-0.5"])


def _columnar_matrix(path):
    table = files.read_columns(path)
    if not len(table):
        raise IngestError(f"{path} has no data rows")
    key, *columns = table.names
    return key, columns, table.matrix(columns).tolist()


def _features(read):
    return lambda path: tuple(array.tolist() for array in read(path, "y", ["x", "z"]))


LOADERS = {
    "employment": [(lambda path: list(load_employment(path).rows), naive_load_employment)],
    "cell_values": [(lambda path: cell_value_dicts(ingest.load_cell_values(path)), naive_load_cell_values)],
    "task_weights": [(lambda path: soc_pair_dict(linkage.load_soc_pairs(path, "task weight")),
                      lambda path: naive_read_soc_pairs(path, "task weight"))],
    "bridge": [(lambda path: soc_pair_dict(linkage.load_soc_pairs(path, "bridge share")),
                lambda path: naive_read_soc_pairs(path, "bridge share"))],
    "stats": [(_features(files.read_features), _features(naive_read_features)), (_columnar_matrix, naive_matrix)],
}


def _outcome(load, path):
    """What ``load(path)`` returns, or the type and message of what it raises."""
    try:
        return "ok", repr(load(path))
    except Exception as exc:  # the comparison covers every error, not only input errors
        return type(exc).__name__, str(exc)


def _mutated_table(data, header, cells, key_width) -> str:
    """A table of drawn rows with up to four edits: a cell or every cell of a
    row replaced, a cell dropped or added, a row repeated later on, a blank or
    comment line inserted; maybe a BOM."""
    key = (lambda row: tuple(cell.strip() for cell in row[:key_width])) if key_width else (lambda row: object())
    rows = data.draw(st.lists(st.tuples(*cells), max_size=8, unique_by=key), label="rows")
    lines: list = [list(header)] + [list(row) for row in rows]
    for _ in range(data.draw(st.integers(0, 4), label="edits")):
        action = data.draw(st.sampled_from(["cell", "row", "drop", "add", "repeat", "blank", "comment"]), label="action")
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        row = lines[at]
        if action == "cell" and isinstance(row, list) and row:
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(EDIT_TEXT, label="text")
        elif action == "row" and at > 0 and isinstance(row, list):
            row[:] = [data.draw(EDIT_TEXT, label="text") if data.draw(st.booleans()) else cell for cell in row]
        elif action == "drop" and isinstance(row, list) and row:
            del row[data.draw(st.integers(0, len(row) - 1))]
        elif action == "add" and isinstance(row, list):
            row.append(data.draw(CELL_TEXT, label="text"))
        elif action == "repeat" and at > 0:
            lines.insert(data.draw(st.integers(at + 1, len(lines))), list(row) if isinstance(row, list) else row)
        elif action == "blank":  # before the header too
            lines.insert(data.draw(st.integers(0, len(lines)), label="blank at"), "")
        elif action == "comment":
            lines.insert(at, "# " + data.draw(CELL_TEXT))
    text = "\n".join(",".join(line) if isinstance(line, list) else line for line in lines) + "\n"
    return ("\ufeff" if data.draw(st.booleans(), label="bom") else "") + text


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_columnar_loaders_match_row_by_row_loops(data):
    """On mutated tables, the column reader and every loader on it accept what
    the row-by-row loop accepts, with the same values, and otherwise raise the
    same error with the same message."""
    name = data.draw(st.sampled_from(sorted(TABLES)), label="table")
    header, cells, key_width = TABLES[name]
    text = _mutated_table(data, header, cells, key_width)
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / f"{name}.csv")
        Path(path).write_text(text, encoding="utf-8")

        # the reader refuses a malformed table at once, so it is compared with all of the rows or the error
        rows = _outcome(lambda p: _columnar_rows(p, *header[:2]), path)
        assert rows == _outcome(lambda p: list(naive_read_table(p, *header[:2])), path)
        for columnar, row_by_row in LOADERS[name]:
            outcome = _outcome(columnar, path)
            event(f"{name}: {outcome[0]}")
            assert outcome == _outcome(row_by_row, path)


def _columnar_rows(path, *columns):
    """The numbered rows read_columns reads, as cell maps."""
    table = files.read_columns(path, *columns)
    rows = [dict(zip(table.names, row)) for row in zip(*(table.cells[name] for name in table.names))]
    return list(zip(table.rows, rows))


@pytest.mark.parametrize(
    "name, text, fragment",
    [
        ("employment", "AAA,20x5,Total,isco1,abc", "unknown sex 'Total'"),
        ("employment", "AAA,20x5,total,isco1,abc", "'year' has a non-numeric value '20x5' in data row 1"),
        ("employment", "AAA,2023,total,isco1,4\nAAA,2023,total,isco2,-1\nAAA,2023,total,isco1,5",
         "negative employment count -1.0 for AAA isco2"),
        ("employment", "AAA,2023,total,isco1,4\n AAA,2023,total,isco1 ,5\nAAA,2023,total,isco2,-1",
         "duplicate employment cell ('AAA', 2023, <Sex.TOTAL: 'total'>, 'isco1')"),
        ("cell_values", "AAA,c1,1,2\nAAA,c1,x,y", "cell (AAA, c1) repeats in data row 2"),
        ("cell_values", "AAA,c1,1,2\nAAA,c1,1,2\nAAA,c2,x,y", "cell (AAA, c1) repeats in data row 2"),
        ("cell_values", "AAA,c1,1,2\nAAA,c2,x,y", "'value' has a non-numeric value 'x' in data row 2"),
        ("task_weights", "s1,t1,0.5\n s1,t1 ,x\ns1,t2,0.5", "(soc, task_id) pair (s1, t1) repeats in data row 2"),
        ("task_weights", "s1,t1,0.5\ns1,t2,x\ns1,t2,0.5", "'weight' has a non-numeric value 'x' in data row 2"),
        ("task_weights", "s2,t1,1\ns1,t1,-0.5\ns1,t2,1.5", "negative task weight for occupation s1"),
        ("bridge", "s1,g1,0.5\ns1,g2,0.25\ns1,g1,0.25", "(soc, isco) pair (s1, g1) repeats in data row 3"),
        ("bridge", "s2,g1,0.5\ns1,g2,0.25", "bridge shares for occupation s1 sum to 0.25, not 1"),
        ("stats", "u1,1,z1,1\nu2,x2,,1", "'z' has a non-numeric value 'z1' in data row 1"),  # the matrix: row order
        ("stats", "u1,1,z1,1\nu2,x2,,1", "'x' has a non-numeric value 'x2' in data row 2"),  # features: column order
        ("stats", "u1,x1,z1,y1", "'x' has a non-numeric value 'x1' in data row 1"),
    ],
)
def test_the_first_failing_row_raises_its_first_failing_check(tmp_path, name, text, fragment):
    """With several failing cells, each loader raises the error its row-by-row
    loop raises first, and the loaders of a table agree with their loops."""
    path = tmp_path / f"{name}.csv"
    path.write_text(",".join(TABLES[name][0]) + "\n" + text + "\n", encoding="utf-8")
    outcomes = [(_outcome(columnar, str(path)), _outcome(row_by_row, str(path))) for columnar, row_by_row in LOADERS[name]]
    assert all(columnar == row_by_row for columnar, row_by_row in outcomes)
    assert any(fragment in columnar[1] for columnar, _ in outcomes)


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("prefix", ["\n", "# comment\n\n", "\ufeff\r\n\r\n# comment\r\n\r\n"],
                         ids=["blank", "comment-blank", "bom-crlf"])
@pytest.mark.parametrize(
    "name, load",
    [
        ("registry.csv", load_country_registry),
        ("employment.csv", lambda path: list(load_employment(path).rows)),
        ("cell_values.csv", lambda path: cell_value_dicts(ingest.load_cell_values(path))),
        ("task_weights.csv", lambda path: soc_pair_dict(linkage.load_soc_pairs(path, "task weight"))),
        ("bridge.csv", lambda path: soc_pair_dict(linkage.load_soc_pairs(path, "bridge share"))),
        ("tasks.csv", lambda path: linkage.load_texts(path, "task_id")),
        ("pairs.csv", validate.load_pairs),
        ("stats_table.csv", lambda path: files.read_series(path, "unit", "x", "y", "z")),
        ("stats_table.csv", lambda path: [array.tolist() for array in files.read_features(path, "y", ["x", "z", "w"])]),
        ("matrix.csv", lambda path: files.read_columns(path).cells),
    ],
    ids=["registry", "employment", "cell-values", "task-weights", "bridge", "texts", "pairs", "series", "features",
         "matrix"],
)
def test_blank_lines_before_the_header_are_skipped(tmp_path, prefix, name, load):
    """Each loader reads a table that starts with blank lines (among comment
    lines) as it reads the table without them."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    path = tmp_path / name
    path.write_text(prefix + text, encoding="utf-8", newline="")
    assert load(str(path)) == load(str(FIXTURES / name))


# --- the streamed employment loader against the whole-table loader ----------------------------


def _employment_outcome(load, path):
    """What ``load(path)`` returns, field by field (each array as its dtype and
    values), or the type and message of what it raises."""
    try:
        table = load(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    fields = [getattr(table, f.name) for f in dataclasses.fields(table)]
    return "ok", [(v.dtype.str, v.tolist()) if isinstance(v, np.ndarray) else v for v in fields]


def _streamed_and_whole(path, chunk_rows: int):
    """The outcomes of the streamed loader and of the whole-table oracle, ``chunk_rows`` rows to a chunk."""
    with mock.patch.object(files, "CHUNK_ROWS", chunk_rows):
        return _employment_outcome(load_employment, path), _employment_outcome(columns_load_employment, path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_streamed_employment_loader_matches_the_whole_table_loader(data):
    """Coded a few rows at a time, the employment table equals the one the
    whole-table loader codes from every cell at once, or the loader raises the
    same error: a malformed table anywhere before a refused cell, a refused
    cell before no rows, no rows before a negative count or a repeated cell.
    The drawn tables may repeat a header name, end lines with CRLF and hold
    bytes that are not UTF-8; without those bytes, the table's rows are the
    row-by-row loop's too."""
    header, cells, key_width = TABLES["employment"]
    if data.draw(st.booleans(), label="repeated header name"):
        repeated = data.draw(st.sampled_from(header), label="name")
        header, cells = (*header, repeated), (*cells, cells[header.index(repeated)])
    text = _mutated_table(data, header, cells, key_width)
    if data.draw(st.booleans(), label="crlf"):
        text = text.replace("\n", "\r\n")
    raw = text.encode("utf-8")
    undecodable = data.draw(st.booleans(), label="undecodable")
    if undecodable:
        at = data.draw(st.integers(0, len(raw)), label="at")
        raw = raw[:at] + b"\xff\xfe" + raw[at:]
    chunk_rows = data.draw(st.integers(1, 4), label="chunk rows")
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "employment.csv")
        Path(path).write_bytes(raw)
        streamed, whole = _streamed_and_whole(path, chunk_rows)
        event(f"employment: {streamed[0]}")
        assert streamed == whole
        if not undecodable:
            with mock.patch.object(files, "CHUNK_ROWS", chunk_rows):
                assert _outcome(lambda p: list(load_employment(p).rows), path) == _outcome(naive_load_employment, path)


HEADER = "iso3,year,sex,cell_id,count"
GOOD = ["AAA,2023,total,isco1,4", "AAA,2023,total,isco2,5", "AAA,2023,female,isco1,2", "AAA,2023,male,isco1,2"]


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ([GOOD[0], "AAA,2023,Total,isco2,5", *GOOD[1:], "AAA,2023,total,isco3,6,7"], "data row 6 is not as wide"),
        (["AAA,20x5,total,isco1,4", *GOOD[1:], "AAA,2023,total"], "data row 5 is not as wide"),
        (["AAA,2023,total,isco1,x", *GOOD[1:], "AAA,2023,total,isco3," + "6" * 200_000],
         "cannot be read as a CSV table: field larger than field limit"),
        ([*GOOD[:3], "AAA,20x5,Total,isco3,abc"], "unknown sex 'Total'"),
        ([*GOOD[:3], "AAA,20x5,total,isco3,abc"], "'year' has a non-numeric value '20x5' in data row 4"),
        ([*GOOD[:3], "AAA,2023,total,isco3,inf"], "'count' has a non-finite value 'inf' in data row 4"),
        ([*GOOD[:3], "AAA,2023,total,isco3,x", "AAA,2023,total,isco4,-1"], "'count' has a non-numeric value 'x'"),
        ([GOOD[0], "AAA,2023,total,isco2,-1", *GOOD[2:], " AAA,2023,total,isco1 ,5"],
         "negative employment count -1.0 for AAA isco2"),
        ([*GOOD, " AAA,2023,total,isco1 ,5", "AAA,2023,total,isco3,-1"],
         "duplicate employment cell ('AAA', 2023, <Sex.TOTAL: 'total'>, 'isco1')"),
    ],
    ids=["bad-sex-then-wide-row", "bad-year-then-short-row", "bad-count-then-oversized-field", "two-bad-cells-in-a-row",
         "bad-year-and-count-in-a-row", "non-finite-count", "bad-cell-before-negative-count",
         "negative-count-chunks-before-duplicate", "duplicate-chunks-before-negative-count"],
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_streamed_employment_errors_follow_the_whole_table_order(tmp_path, rows, fragment, chunk_rows):
    """A fault in a later chunk than a refused cell still raises first when it
    makes the table malformed, and a negative count and a repeated cell are
    named in row order across chunks, as the whole-table loader names them."""
    path = tmp_path / "employment.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    streamed, whole = _streamed_and_whole(str(path), chunk_rows)
    assert streamed == whole
    assert streamed[0] == "IngestError" and fragment in streamed[1]


def test_streamed_employment_reads_undecodable_bytes_after_a_refused_cell_as_a_malformed_table(tmp_path):
    path = tmp_path / "employment.csv"
    path.write_bytes("\n".join([HEADER, "AAA,2023,other,isco1,4", *GOOD[1:]]).encode() + b"\nAAA,2023,total,\xff,1\n")
    streamed, whole = _streamed_and_whole(str(path), 1)
    assert streamed == whole
    assert "cannot be read as a CSV table" in streamed[1]
