from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from taskatlas.core import AiFunction, Channel, Margin, TaskLabelRecord
from oracles import deduplicate
from taskatlas.ingest import LabelDataset

CHANNELS = [c for c in Channel if c is not Channel.NONE]
FUNCTIONS = [f for f in AiFunction if f is not AiFunction.NONE]

#: one CSV cell's text: numbers at and past the float limits, words, blanks and short random text
CELL_TEXT = st.sampled_from(
    ["", "nan", "inf", "-inf", "1e400", "abc", "0", "-1", "1e-300", "1e308", "-1e308", "1.5e307"]
) | st.text(
    alphabet=st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)), max_size=6
)


def make_record(
    task_id: str,
    country: str = "AAA",
    exposure: int = 2,
    channel: Channel = Channel.RULE_BASED_WORKFLOW,
    margin: Margin = Margin.BOTH,
    ai_material: bool = False,
    ai_function: AiFunction = AiFunction.NONE,
    rationale: str = "routine structured workflow",
) -> TaskLabelRecord:
    """Consistent record; path flags and normalization derived from the inputs."""
    sub = margin in (Margin.SUBSTITUTE, Margin.BOTH)
    aug = margin in (Margin.AUGMENT, Margin.BOTH)
    if ai_material and ai_function is AiFunction.NONE:
        ai_function = AiFunction.STATE_INFERENCE
    return TaskLabelRecord(
        task_id=task_id,
        country=country,
        exposure=exposure,
        channel=channel,
        substitution_path=sub,
        augmentation_path=aug,
        margin=margin if exposure >= 2 else Margin.UNCLEAR,
        margin_raw=margin,
        ai_material=ai_material,
        ai_function=ai_function if ai_material else AiFunction.NONE,
        short_rationale=rationale,
        substitution_summary="",
        augmentation_summary="",
    )


def random_records(
    rng: np.random.Generator,
    n: int,
    country: str = "AAA",
    unclear_rate: float = 0.0,
    prefix: str = "t",
) -> list[TaskLabelRecord]:
    """Random but schema-consistent records; exposed margins are definite unless
    unclear_rate asks otherwise."""
    records = []
    for i in range(n):
        exposure = int(rng.integers(0, 4))
        if exposure >= 2:
            if unclear_rate > 0 and rng.random() < unclear_rate:
                margin = Margin.UNCLEAR
            else:
                margin = [Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH][int(rng.integers(0, 3))]
            channel = CHANNELS[int(rng.integers(0, len(CHANNELS)))]
        else:
            margin = [Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH, Margin.UNCLEAR][int(rng.integers(0, 4))]
            channel = Channel.NONE if rng.random() < 0.7 else CHANNELS[int(rng.integers(0, len(CHANNELS)))]
        ai = bool(rng.random() < 0.4) and exposure >= 2
        records.append(
            make_record(
                task_id=f"{prefix}{i:04d}",
                country=country,
                exposure=exposure,
                channel=channel,
                margin=margin,
                ai_material=ai,
                ai_function=FUNCTIONS[int(rng.integers(0, len(FUNCTIONS)))] if ai else AiFunction.NONE,
            )
        )
    return records


def random_dataset(rng: np.random.Generator, countries: dict[str, int], unclear_rate: float = 0.0) -> LabelDataset:
    records = []
    for country, n in sorted(countries.items()):
        records.extend(random_records(rng, n, country=country, unclear_rate=unclear_rate))
    return deduplicate(records)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


#: a planted object array records here if it is ever unpickled (an exception raised instead could be caught)
UNPICKLED = []


def _unpickled() -> str:
    UNPICKLED.append(True)
    return "unpickled"


class Planted:
    """An object that records it if it is ever unpickled."""

    def __reduce__(self):
        return _unpickled, ()


def resaved(companion: Path, **changes) -> None:
    """Rewrite the dataset companion ``companion`` with ``np.savez``, members replaced (or added) by ``changes``."""
    with np.load(companion) as arrays:
        members = {name: arrays[name] for name in arrays.files}
    np.savez(companion, **{**members, **changes})
