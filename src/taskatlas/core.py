"""Domain types, enumerations, and record-level validation for task exposure labels."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, Optional

EXPOSURE_LEVELS = (0, 1, 2, 3)
EXPOSED_THRESHOLD = 2
RATIONALE_MAX_CHARS = 240


class InputError(Exception):
    """An input the pipeline cannot use; the CLI exits 2 with its message.

    Every module's input error derives from it, so one class decides what
    counts as bad input, and the CLI need not import a module to catch its errors.
    """


class Channel(str, Enum):
    """Dominant technology channel producing the task's economically relevant output."""

    PHYSICAL_EXECUTION = "physical_execution"
    RULE_BASED_WORKFLOW = "rule_based_workflow"
    PLANNING_CONTROL = "planning_control"
    INFERENCE_SCORING = "inference_scoring"
    INFORMATIONAL_TRANSFORMATION = "informational_transformation"
    NONE = "none"


class Margin(str, Enum):
    """Labour-reallocation route for economically exposed work."""

    SUBSTITUTE = "substitute"
    AUGMENT = "augment"
    BOTH = "both"
    UNCLEAR = "unclear"


class AiFunction(str, Enum):
    """Role played by learned models when AI is material to the automation route."""

    NONE = "none"
    STATE_INFERENCE = "state_inference"
    CONTENT_TRANSFORMATION = "content_transformation"
    RECOMMENDATION_DECISION_SUPPORT = "recommendation_decision_support"
    ADAPTIVE_CONTROL = "adaptive_control"


class IncomeGroup(str, Enum):
    LOW = "low"
    LOWER_MIDDLE = "lower_middle"
    UPPER_MIDDLE = "upper_middle"
    HIGH = "high"
    UNCLASSIFIED = "unclassified"


#: margins with a definite labour-reallocation route (everything except unclear)
DEFINITE_MARGINS = (Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH)
#: channels describing an actual automation mechanism (everything except none)
ACTIVE_CHANNELS = tuple(c for c in Channel if c is not Channel.NONE)
#: AI functions recorded when AI is material (everything except none)
ACTIVE_AI_FUNCTIONS = tuple(f for f in AiFunction if f is not AiFunction.NONE)


def is_exposed(level: int) -> bool:
    """True iff the exposure level is 2 or 3 (the economically exposed band)."""
    return EXPOSED_THRESHOLD <= level <= 3


# --- violation codes -------------------------------------------------------

MISSING_FIELD = "missing_field"
INVALID_VALUE = "invalid_value"
EXPOSURE_OUT_OF_RANGE = "exposure_out_of_range"
UNKNOWN_ENUM = "unknown_enum"
RATIONALE_TOO_LONG = "rationale_too_long"
MARGIN_PATH_CONTRADICTION = "margin_path_contradiction"
AI_FUNCTION_WITHOUT_MATERIALITY = "ai_function_without_materiality"


@dataclass(frozen=True)
class Violation:
    code: str
    field: str
    message: str


@dataclass(frozen=True)
class TaskLabelRecord:
    """One (country, task) classification across the five label dimensions.

    ``margin`` is the normalized margin used by all downstream aggregation
    (records below the exposure threshold carry ``unclear``); ``margin_raw``
    preserves the margin as labelled.
    """

    task_id: str
    country: str
    exposure: int
    channel: Channel
    substitution_path: bool
    augmentation_path: bool
    margin: Margin
    margin_raw: Margin
    ai_material: bool
    ai_function: AiFunction
    short_rationale: str
    substitution_summary: str
    augmentation_summary: str


#: encodes one string as ``json.dumps(..., ensure_ascii=False)`` does
_JSON_TEXT = json.JSONEncoder(ensure_ascii=False).encode
_JSON_FLAG = ("false", "true")


def label_json_line(
    task_id: str,
    country: str,
    exposure: int,
    channel: Channel,
    substitution_path: bool,
    augmentation_path: bool,
    margin: Margin,
    margin_raw: Margin,
    ai_material: bool,
    ai_function: AiFunction,
    short_rationale: str,
    substitution_summary: str,
    augmentation_summary: str,
) -> str:
    """One label-file JSON line, without its line end, from the fields of a
    TaskLabelRecord in order: the file's field names, in its canonical order,
    with enums by value."""
    text = _JSON_TEXT
    return (
        f'{{"task_id":{text(task_id)},"country":{text(country)},"exposure_level":{exposure},'
        f'"dominant_channel":"{channel.value}","substitution_path":{_JSON_FLAG[substitution_path]},'
        f'"augmentation_path":{_JSON_FLAG[augmentation_path]},"margin":"{margin.value}",'
        f'"margin_raw":"{margin_raw.value}","ai_materiality":{_JSON_FLAG[ai_material]},'
        f'"dominant_ai_function":"{ai_function.value}","short_rationale":{text(short_rationale)},'
        f'"substitution_summary":{text(substitution_summary)},'
        f'"augmentation_summary":{text(augmentation_summary)}}}'
    )


#: file fields that must be present in every raw row (margin_raw is optional)
REQUIRED_FIELDS = (
    "country",
    "exposure_level",
    "dominant_channel",
    "substitution_path",
    "augmentation_path",
    "margin",
    "ai_materiality",
    "dominant_ai_function",
    "short_rationale",
    "substitution_summary",
    "augmentation_summary",
)

_WS_RE = re.compile(r"\s+")


def derive_task_id(task_text: str) -> str:
    """Stable identifier from a task statement: hash of the normalized text."""
    normalized = _WS_RE.sub(" ", task_text.strip().lower())
    return "t" + hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


@dataclass
class ValidationResult:
    record: Optional[TaskLabelRecord]
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.record is not None


def _coerce_bool(value: Any) -> Optional[bool]:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
    return None


def _coerce_int(value: Any) -> Optional[int]:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        stripped = value.strip()
        if re.fullmatch(r"[+-]?\d+", stripped):
            try:
                return int(stripped)
            except ValueError:  # more digits than int() converts
                return None
    return None


def validate_record(raw: Mapping[str, Any]) -> ValidationResult:
    """Validate and normalize one raw field map into a :class:`TaskLabelRecord`.

    Returns a result holding either the normalized record or a non-empty list
    of violations, one per failed schema rule. Normalization notes (e.g. the
    margin reset on sub-threshold exposure) are reported separately; they are
    not violations.
    """
    violations: list[Violation] = []
    notes: list[str] = []

    def missing(name: str) -> None:
        violations.append(Violation(MISSING_FIELD, name, f"required field '{name}' is missing"))

    present: dict[str, Any] = {}
    for name in REQUIRED_FIELDS:
        value = raw.get(name)
        if value is None or (isinstance(value, str) and name not in _TEXT_FIELDS and value.strip() == ""):
            missing(name)
        else:
            present[name] = value

    task_id = raw.get("task_id")
    if task_id is None or (isinstance(task_id, str) and task_id.strip() == ""):
        task_text = raw.get("task_text")
        if isinstance(task_text, str) and task_text.strip():
            task_id = derive_task_id(task_text)
        else:
            missing("task_id")
            task_id = None
    else:
        task_id = str(task_id)

    if violations:
        return ValidationResult(None, violations, notes)

    exposure = _coerce_int(present["exposure_level"])
    if exposure is None:
        violations.append(
            Violation(INVALID_VALUE, "exposure_level", f"exposure_level {present['exposure_level']!r} is not an integer")
        )
    elif exposure not in EXPOSURE_LEVELS:
        violations.append(
            Violation(EXPOSURE_OUT_OF_RANGE, "exposure_level", f"exposure_level {exposure} outside 0..3")
        )

    def parse_enum(enum_cls, name: str):
        value = present[name]
        if isinstance(value, enum_cls):
            return value
        try:
            return enum_cls(str(value).strip())
        except ValueError:
            allowed = ", ".join(m.value for m in enum_cls)
            violations.append(Violation(UNKNOWN_ENUM, name, f"{name} {value!r} not one of: {allowed}"))
            return None

    channel = parse_enum(Channel, "dominant_channel")
    margin_given = parse_enum(Margin, "margin")
    ai_function = parse_enum(AiFunction, "dominant_ai_function")

    margin_raw_value = raw.get("margin_raw")
    margin_raw: Optional[Margin]
    if margin_raw_value is None or (isinstance(margin_raw_value, str) and margin_raw_value.strip() == ""):
        margin_raw = margin_given
    elif isinstance(margin_raw_value, Margin):
        margin_raw = margin_raw_value
    else:
        try:
            margin_raw = Margin(str(margin_raw_value).strip())
        except ValueError:
            allowed = ", ".join(m.value for m in Margin)
            violations.append(Violation(UNKNOWN_ENUM, "margin_raw", f"margin_raw {margin_raw_value!r} not one of: {allowed}"))
            margin_raw = None

    def parse_flag(name: str) -> Optional[bool]:
        flag = _coerce_bool(present[name])
        if flag is None:
            violations.append(Violation(INVALID_VALUE, name, f"{name} {present[name]!r} is not a boolean"))
        return flag

    substitution_path = parse_flag("substitution_path")
    augmentation_path = parse_flag("augmentation_path")
    ai_material = parse_flag("ai_materiality")

    texts: dict[str, str] = {}
    for name in _TEXT_FIELDS:
        text = present[name]
        if not isinstance(text, str):
            violations.append(Violation(INVALID_VALUE, name, f"{name} must be text"))
            continue
        if len(text) > RATIONALE_MAX_CHARS:
            violations.append(
                Violation(RATIONALE_TOO_LONG, name, f"{name} has {len(text)} chars, limit {RATIONALE_MAX_CHARS}")
            )
        texts[name] = text

    if violations:
        return ValidationResult(None, violations, notes)

    # semantic rules, applied to the as-given (raw) margin
    assert margin_raw is not None
    if margin_raw is Margin.SUBSTITUTE and not substitution_path:
        violations.append(
            Violation(MARGIN_PATH_CONTRADICTION, "margin", "margin 'substitute' requires substitution_path=true")
        )
    if margin_raw is Margin.AUGMENT and not augmentation_path:
        violations.append(
            Violation(MARGIN_PATH_CONTRADICTION, "margin", "margin 'augment' requires augmentation_path=true")
        )
    if margin_raw is Margin.BOTH and not (substitution_path and augmentation_path):
        violations.append(
            Violation(MARGIN_PATH_CONTRADICTION, "margin", "margin 'both' requires both path flags true")
        )
    if not ai_material and ai_function is not AiFunction.NONE:
        violations.append(
            Violation(
                AI_FUNCTION_WITHOUT_MATERIALITY,
                "dominant_ai_function",
                f"ai_materiality=false requires dominant_ai_function 'none', got '{ai_function.value}'",
            )
        )

    if violations:
        return ValidationResult(None, violations, notes)

    # normalization: margin is only defined on exposed records
    assert exposure is not None and channel is not None and ai_function is not None
    if is_exposed(exposure):
        margin = margin_raw
    else:
        margin = Margin.UNCLEAR
        if margin_given is not Margin.UNCLEAR:
            notes.append(f"margin '{margin_raw.value}' normalized to 'unclear' at exposure level {exposure}")

    record = TaskLabelRecord(
        task_id=task_id,
        country=str(present["country"]).strip(),
        exposure=exposure,
        channel=channel,
        substitution_path=bool(substitution_path),
        augmentation_path=bool(augmentation_path),
        margin=margin,
        margin_raw=margin_raw,
        ai_material=bool(ai_material),
        ai_function=ai_function,
        short_rationale=texts["short_rationale"],
        substitution_summary=texts["substitution_summary"],
        augmentation_summary=texts["augmentation_summary"],
    )
    return ValidationResult(record, [], notes)


_TEXT_FIELDS = ("short_rationale", "substitution_summary", "augmentation_summary")


# --- country registry types -------------------------------------------------

@dataclass(frozen=True)
class CountryContext:
    iso3: str
    name: str
    income_group: IncomeGroup
    region: str
    gdp_per_capita: Optional[float] = None


# Benchmark runs share the record ``country`` column with countries, by tag:
# ``income:<group>`` for an income-group benchmark, ``context_free`` for the
# context-free one, and a bare ISO3 code for a country.
CONTEXT_FREE_TAG = "context_free"
INCOME_PREFIX = "income:"


def income_tag(group: IncomeGroup) -> str:
    """The ``country`` tag of the benchmark run for ``group``."""
    return f"{INCOME_PREFIX}{group.value}"


def country_tags(tags: Iterable[str]) -> list[str]:
    """The tags among ``tags`` that name countries rather than benchmark contexts."""
    return [tag for tag in tags if tag != CONTEXT_FREE_TAG and not tag.startswith(INCOME_PREFIX)]
