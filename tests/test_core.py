import json

import pytest
from hypothesis import given, strategies as st

from oracles import record_json_line
from taskatlas.core import (
    AI_FUNCTION_WITHOUT_MATERIALITY,
    EXPOSURE_OUT_OF_RANGE,
    IncomeGroup,
    Margin,
    MARGIN_PATH_CONTRADICTION,
    MISSING_FIELD,
    RATIONALE_TOO_LONG,
    UNKNOWN_ENUM,
    country_tags,
    derive_task_id,
    income_tag,
    is_exposed,
    validate_record,
)

BASE_ROW = {
    "task_id": "t1",
    "country": "USA",
    "exposure_level": 3,
    "dominant_channel": "rule_based_workflow",
    "substitution_path": True,
    "augmentation_path": False,
    "margin": "substitute",
    "ai_materiality": False,
    "dominant_ai_function": "none",
    "short_rationale": "deterministic workflow",
    "substitution_summary": "scripted execution",
    "augmentation_summary": "",
}


def row(**overrides):
    merged = dict(BASE_ROW)
    merged.update(overrides)
    return merged


class TestIsExposed:
    def test_level_two_exposed(self):
        assert is_exposed(2) is True

    def test_level_zero_not_exposed(self):
        assert is_exposed(0) is False

    def test_level_three_exposed(self):
        assert is_exposed(3) is True

    def test_level_one_not_exposed(self):
        assert is_exposed(1) is False


class TestValidateRecord:
    def test_consistent_record_accepted(self):
        result = validate_record(row())
        assert result.ok
        assert result.record.margin is Margin.SUBSTITUTE
        assert is_exposed(result.record.exposure)

    def test_margin_path_contradiction(self):
        result = validate_record(row(margin="augment", augmentation_path=False))
        assert not result.ok
        assert [v.code for v in result.violations] == [MARGIN_PATH_CONTRADICTION]

    def test_both_margin_needs_both_paths(self):
        result = validate_record(row(margin="both", substitution_path=True, augmentation_path=False))
        assert any(v.code == MARGIN_PATH_CONTRADICTION for v in result.violations)

    def test_low_exposure_margin_normalized_with_note(self):
        result = validate_record(row(exposure_level=1, margin="substitute"))
        assert result.ok
        assert result.record.margin is Margin.UNCLEAR
        assert result.record.margin_raw is Margin.SUBSTITUTE
        assert result.notes and "normalized" in result.notes[0]

    def test_missing_field_reported(self):
        bad = row()
        del bad["dominant_channel"]
        result = validate_record(bad)
        assert [v.code for v in result.violations] == [MISSING_FIELD]
        assert result.violations[0].field == "dominant_channel"

    def test_unknown_enum_rejected_not_coerced(self):
        result = validate_record(row(dominant_channel="robotics"))
        assert [v.code for v in result.violations] == [UNKNOWN_ENUM]

    def test_exposure_out_of_range(self):
        result = validate_record(row(exposure_level=4))
        assert [v.code for v in result.violations] == [EXPOSURE_OUT_OF_RANGE]

    def test_rationale_over_length(self):
        result = validate_record(row(short_rationale="x" * 241))
        assert [v.code for v in result.violations] == [RATIONALE_TOO_LONG]

    def test_ai_function_without_materiality(self):
        result = validate_record(row(dominant_ai_function="state_inference"))
        assert [v.code for v in result.violations] == [AI_FUNCTION_WITHOUT_MATERIALITY]

    def test_ai_function_with_materiality_ok(self):
        result = validate_record(row(ai_materiality=True, dominant_ai_function="content_transformation"))
        assert result.ok

    def test_csv_style_strings_coerced(self):
        result = validate_record(
            row(exposure_level="3", substitution_path="true", augmentation_path="false", ai_materiality="false")
        )
        assert result.ok
        assert result.record.exposure == 3

    def test_task_id_derived_from_text(self):
        no_id = row()
        del no_id["task_id"]
        no_id["task_text"] = "  Operate  FORKLIFTS safely "
        result = validate_record(no_id)
        assert result.ok
        assert result.record.task_id == derive_task_id("operate forklifts safely")

    def test_exposed_channel_none_allowed(self):
        result = validate_record(row(dominant_channel="none"))
        assert result.ok


class TestRoundTrip:
    def test_serialization_round_trips_bit_identically(self):
        record = validate_record(row(exposure_level=1, margin="substitute")).record
        line = record_json_line(record)
        reparsed = validate_record(json.loads(line)).record
        assert reparsed == record
        assert record_json_line(reparsed) == line

    def test_json_line_is_compact_json_in_file_field_order(self):
        record = validate_record(row(short_rationale='a "quoted" \\ é \ttab', country="ÅÅÅ")).record
        line = record_json_line(record)
        parsed = json.loads(line)
        assert json.dumps(parsed, ensure_ascii=False, separators=(",", ":")) == line
        assert list(parsed) == [
            "task_id", "country", "exposure_level", "dominant_channel", "substitution_path",
            "augmentation_path", "margin", "margin_raw", "ai_materiality", "dominant_ai_function",
            "short_rationale", "substitution_summary", "augmentation_summary",
        ]

    def test_validation_idempotent_on_normalized_record(self):
        first = validate_record(row(exposure_level=0, margin="both", augmentation_path=True))
        again = validate_record(json.loads(record_json_line(first.record)))
        assert again.ok
        assert again.violations == []
        assert again.record == first.record
        assert again.notes == []


@given(
    levels=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=200)
)
def test_exposed_count_matches_level_counts(levels):
    exposed = sum(1 for lvl in levels if is_exposed(lvl))
    assert exposed == levels.count(2) + levels.count(3)


class TestBenchmarkContext:
    def test_income_tag_round_trip(self):
        assert income_tag(IncomeGroup.LOW) == "income:low"
        assert country_tags([income_tag(group) for group in IncomeGroup]) == []

    def test_context_free_tag(self):
        assert country_tags(["context_free", "KEN"]) == ["KEN"]

    def test_country_tag(self):
        assert country_tags(["KEN", "income:high", "JPN"]) == ["KEN", "JPN"]
