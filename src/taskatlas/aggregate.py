"""Country-level and group summaries, pathway states, transition matrices,
polarisation/tilt, and benchmark-ladder deviations."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    ACTIVE_AI_FUNCTIONS,
    ACTIVE_CHANNELS,
    AiFunction,
    Channel,
    CountryContext,
    DEFINITE_MARGINS,
    IncomeGroup,
    InputError,
    Margin,
    income_tag,
)
from .files import columns_of
from .ingest import AI_FUNCTIONS, CHANNELS, MARGINS, LabelColumns, LabelDataset


class AggregateError(InputError):
    pass


@dataclass(frozen=True)
class CountrySummary:
    """Per-country shares under explicit denominators.

    ``margin_shares_all`` uses the full task universe; ``margin_shares_within``
    renormalizes over exposed tasks with a definite margin (exposed records with
    an unclear margin stay in ``exposed_share`` but are excluded here, surfaced
    via ``n_unclear_exposed``). Channel and AI shares condition on exposed
    tasks; the AI function mix conditions on AI-material exposed tasks.
    """

    iso3: str
    n_tasks: int
    n_exposed: int
    n_margin_known_exposed: int
    n_unclear_exposed: int
    n_ai_material_exposed: int
    margin_counts_exposed: dict[Margin, int]
    exposed_share: float
    high_share: float
    margin_shares_all: dict[Margin, float]
    margin_shares_within: Optional[dict[Margin, float]]
    channel_shares_exposed: Optional[dict[Channel, float]]
    channel_none_exposed_share: Optional[float]
    ai_material_share_exposed: Optional[float]
    ai_function_mix: Optional[dict[AiFunction, float]]


def summarize_records(iso3: str, records: LabelColumns) -> CountrySummary:
    """Counting summary of one country's rows: ``np.bincount`` over the code
    columns, with every share an exact ratio of integer counts."""
    n = len(records)
    exposed = records.exposed
    n_exposed = int(exposed.sum())
    n_high = int((records.exposure == 3).sum())
    margin_counts = dict(zip(MARGINS, np.bincount(records.margin[exposed], minlength=len(MARGINS)).tolist()))
    n_known = sum(margin_counts[m] for m in DEFINITE_MARGINS)
    n_unclear_exposed = margin_counts[Margin.UNCLEAR]
    channel_counts = dict(zip(CHANNELS, np.bincount(records.channel[exposed], minlength=len(CHANNELS)).tolist()))
    ai_exposed = exposed & records.ai_material
    n_ai_exposed = int(ai_exposed.sum())
    function_counts = dict(
        zip(AI_FUNCTIONS, np.bincount(records.ai_function[ai_exposed], minlength=len(AI_FUNCTIONS)).tolist())
    )
    n_function = sum(function_counts[f] for f in ACTIVE_AI_FUNCTIONS)

    margin_all = {m: margin_counts[m] / n for m in DEFINITE_MARGINS}
    margin_within = (
        {m: margin_counts[m] / n_known for m in DEFINITE_MARGINS} if n_known > 0 else None
    )
    channel_shares = (
        {c: channel_counts[c] / n_exposed for c in ACTIVE_CHANNELS} if n_exposed > 0 else None
    )
    return CountrySummary(
        iso3=iso3,
        n_tasks=n,
        n_exposed=n_exposed,
        n_margin_known_exposed=n_known,
        n_unclear_exposed=n_unclear_exposed,
        n_ai_material_exposed=n_ai_exposed,
        margin_counts_exposed={m: margin_counts[m] for m in Margin},
        exposed_share=n_exposed / n,
        high_share=n_high / n,
        margin_shares_all=margin_all,
        margin_shares_within=margin_within,
        channel_shares_exposed=channel_shares,
        channel_none_exposed_share=(channel_counts[Channel.NONE] / n_exposed) if n_exposed > 0 else None,
        ai_material_share_exposed=(n_ai_exposed / n_exposed) if n_exposed > 0 else None,
        ai_function_mix=(
            {f: function_counts[f] / n_function for f in ACTIVE_AI_FUNCTIONS} if n_function > 0 else None
        ),
    )


def summarize_all(dataset: LabelDataset) -> dict[str, CountrySummary]:
    """Summaries for every country, in sorted country order."""
    return {iso3: summarize_records(iso3, dataset.for_country(iso3)) for iso3 in dataset.countries()}


# --- group summaries ----------------------------------------------------------


@dataclass(frozen=True)
class GroupSummary:
    group: str
    n_countries: int
    means: dict[str, float]
    field_counts: dict[str, int]


def _share_in(mapping: str, key: Enum) -> Callable[[CountrySummary], Optional[float]]:
    """The share ``key`` of a summary's ``mapping``; None where the mapping is None (an empty denominator)."""
    return lambda summary: getattr(summary, mapping)[key] if getattr(summary, mapping) else None


#: the per-country share columns of country_summary.csv, in order, each with its value in a summary
_SHARES: dict[str, Callable[[CountrySummary], Optional[float]]] = {
    "exposed_share": operator.attrgetter("exposed_share"),
    "high_share": operator.attrgetter("high_share"),
    **{f"margin_all_{m.value}": _share_in("margin_shares_all", m) for m in DEFINITE_MARGINS},
    **{f"margin_within_{m.value}": _share_in("margin_shares_within", m) for m in DEFINITE_MARGINS},
    **{f"channel_{c.value}": _share_in("channel_shares_exposed", c) for c in ACTIVE_CHANNELS},
    "channel_none_exposed_share": operator.attrgetter("channel_none_exposed_share"),
    "ai_material_share_exposed": operator.attrgetter("ai_material_share_exposed"),
    **{f"ai_function_{f.value}": _share_in("ai_function_mix", f) for f in ACTIVE_AI_FUNCTIONS},
}
#: the shares that group summaries do not average
_UNGROUPED = ("channel_none_exposed_share",)
_COUNTS = ("n_tasks", "n_exposed", "n_margin_known_exposed", "n_unclear_exposed")
_SUMMARY_COLUMNS = ("iso3", *_COUNTS, *_SHARES, "polarisation_p", "tilt_t")


def summary_fields(summary: CountrySummary) -> dict[str, Optional[float]]:
    """The per-country shares that group summaries average, by column name;
    None where a share's denominator is empty."""
    return {name: share(summary) for name, share in _SHARES.items() if name not in _UNGROUPED}


def summary_rows(summaries: Mapping[str, CountrySummary]) -> tuple[tuple[str, ...], list[list]]:
    """country_summary.csv as columns: per country in sorted order, its counts,
    shares, and polarisation and tilt where it has exposed tasks with a
    definite margin."""
    ordered = [summary for _, summary in sorted(summaries.items())]
    pols = [polarisation(s) if s.n_margin_known_exposed > 0 else None for s in ordered]
    return _SUMMARY_COLUMNS, [
        [s.iso3 for s in ordered],
        *([getattr(s, name) for s in ordered] for name in _COUNTS),
        *([share(s) for s in ordered] for share in _SHARES.values()),
        [None if pol is None else pol.p for pol in pols],
        [None if pol is None else pol.tilt for pol in pols],
    ]


def group_summary(
    summaries: Iterable[CountrySummary],
    registry: Mapping[str, CountryContext],
    group_field: str = "income_group",
) -> dict[str, GroupSummary]:
    """Unweighted mean of each per-country share within each registry group."""
    if group_field not in ("income_group", "region"):
        raise AggregateError(f"unknown grouping field {group_field!r}")
    grouped: dict[str, list[CountrySummary]] = {}
    for summary in sorted(summaries, key=lambda s: s.iso3):
        context = registry.get(summary.iso3)
        if context is None:
            raise AggregateError(f"country {summary.iso3} is not registered")
        value = getattr(context, group_field)
        key = value.value if isinstance(value, Enum) else str(value)
        grouped.setdefault(key, []).append(summary)

    out: dict[str, GroupSummary] = {}
    for key in sorted(grouped):
        members = grouped[key]
        field_values: dict[str, list[float]] = {}
        for summary in members:
            for name, value in summary_fields(summary).items():
                if value is not None:
                    field_values.setdefault(name, []).append(value)
        means = {name: math.fsum(vals) / len(vals) for name, vals in sorted(field_values.items())}
        counts = {name: len(vals) for name, vals in sorted(field_values.items())}
        out[key] = GroupSummary(group=key, n_countries=len(members), means=means, field_counts=counts)
    return out


def _registered(countries: Iterable[str], registry: Mapping[str, CountryContext]) -> list[str]:
    """The countries the registry names, in the given order; an error when it names none of them."""
    countries = list(countries)
    found = [c for c in countries if c in registry]
    if not found:
        raise AggregateError(f"the registry names none of the dataset's {len(countries)} countries")
    return found


def group_rows(
    summaries: Mapping[str, CountrySummary], registry: Mapping[str, CountryContext], group_field: str
) -> tuple[tuple[str, ...], list[list]]:
    """group_summary_<field>.csv: per group of the registered countries, its
    size and the mean of every share that some member has, as columns."""
    registered = [summaries[c] for c in _registered(summaries, registry)]
    groups = list(group_summary(registered, registry, group_field).values())
    means = sorted({name for g in groups for name in g.means})
    columns = [[g.group for g in groups], [g.n_countries for g in groups]]
    return ("group", "n_countries", *means), columns + [[g.means.get(name) for g in groups] for name in means]


# --- pathway states and transitions -------------------------------------------


class PathwayState(str, Enum):
    NOT_EXPOSED = "not_exposed"
    SUBSTITUTE = "substitute"
    AUGMENT = "augment"
    BOTH = "both"


STATE_ORDER = (PathwayState.NOT_EXPOSED, PathwayState.SUBSTITUTE, PathwayState.AUGMENT, PathwayState.BOTH)

_MARGIN_TO_STATE = {
    Margin.SUBSTITUTE: PathwayState.SUBSTITUTE,
    Margin.AUGMENT: PathwayState.AUGMENT,
    Margin.BOTH: PathwayState.BOTH,
}


#: per margin code, the state index of an exposed record (-1: the anomaly bucket)
_EXPOSED_STATES = np.array([STATE_ORDER.index(_MARGIN_TO_STATE[m]) if m in _MARGIN_TO_STATE else -1 for m in MARGINS])


def modal_pathway_states(
    dataset: LabelDataset, countries: Sequence[str]
) -> tuple[dict[str, PathwayState], int]:
    """Per-task modal state across a country group; returns (states, anomaly count).

    A sub-threshold record is not_exposed and an exposed one follows its
    margin; an exposed record with an unclear margin is an anomaly, counted
    and left out of the votes. Ties break to the lexicographically smallest
    state name, matching the deduplication tie rule; tasks whose every record
    is anomalous are dropped.
    """
    votes: dict[str, list[int]] = {}
    anomalies = 0
    for iso3 in sorted(countries):
        rows = dataset.for_country(iso3)
        states = np.where(rows.exposed, _EXPOSED_STATES[rows.margin], STATE_ORDER.index(PathwayState.NOT_EXPOSED))
        anomalies += int((states < 0).sum())
        for task_id, state in zip(rows.task_id.tolist(), states.tolist()):
            if state >= 0:
                votes.setdefault(task_id, [0] * len(STATE_ORDER))[state] += 1
    modal: dict[str, PathwayState] = {}
    for task_id in sorted(votes):
        counts = votes[task_id]
        modal[task_id] = STATE_ORDER[min(range(len(STATE_ORDER)), key=lambda i: (-counts[i], STATE_ORDER[i].value))]
    return modal, anomalies


#: income groups from the poorest up; transitions run between neighbours that have countries
_INCOME_LADDER = (IncomeGroup.LOW, IncomeGroup.LOWER_MIDDLE, IncomeGroup.UPPER_MIDDLE, IncomeGroup.HIGH)
#: the tie rule of modal_pathway_states, for the header of the transitions table
MODAL_TIE_RULE = "mode per task within group; ties to the smallest state name"
_TRANSITION_COLUMNS = ("from_group", "to_group", "source_state", "dest_state", "count", "share")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 4x4 share matrix over pathway states (rows = source)."""

    states: tuple[PathwayState, ...]
    counts: np.ndarray  # (4, 4) integer counts
    shares: np.ndarray  # (4, 4) rows sum to 1 where the source state is occupied


def transition_matrix(
    states_a: Mapping[str, PathwayState], states_b: Mapping[str, PathwayState]
) -> TransitionMatrix:
    """Share of tasks in source state i under A that are in state j under B."""
    if set(states_a) != set(states_b):
        missing = sorted(set(states_a) ^ set(states_b))
        raise AggregateError(f"mismatched task sets ({len(missing)} tasks differ, e.g. {missing[:3]})")
    index = {state: i for i, state in enumerate(STATE_ORDER)}
    counts = np.zeros((4, 4), dtype=np.int64)
    for task_id in sorted(states_a):
        counts[index[states_a[task_id]], index[states_b[task_id]]] += 1
    shares = np.zeros((4, 4), dtype=np.float64)
    for i in range(4):
        row_total = counts[i].sum()
        if row_total > 0:
            shares[i] = counts[i] / row_total
    return TransitionMatrix(states=STATE_ORDER, counts=counts, shares=shares)


def transition_rows(dataset: LabelDataset, registry: Mapping[str, CountryContext]) -> tuple[tuple[str, ...], list[list]]:
    """transitions.csv: each income group's modal pathway state per task
    (:func:`modal_pathway_states` over its countries), and per pair of
    neighbouring groups on the ladder, the transition matrix over their shared
    tasks, one row per (source, destination) state, as columns. Fewer than
    two groups with countries is an error."""
    group_of = {c: registry[c].income_group for c in _registered(dataset.countries(), registry)}
    members = {g: [c for c, group in group_of.items() if group is g] for g in _INCOME_LADDER}
    modal = {g: modal_pathway_states(dataset, members[g])[0] for g in _INCOME_LADDER if members[g]}
    rows = []
    ladder = [g for g in _INCOME_LADDER if g in modal]
    if len(ladder) < 2:
        found = ", ".join(g.value for g in ladder) or "none"
        raise AggregateError(f"transitions need countries in at least two income groups; found {found}")
    for src, dst in zip(ladder, ladder[1:]):
        common = sorted(set(modal[src]) & set(modal[dst]))
        matrix = transition_matrix({t: modal[src][t] for t in common}, {t: modal[dst][t] for t in common})
        for (i, s_from), (j, s_to) in itertools.product(enumerate(matrix.states), repeat=2):
            rows.append((src.value, dst.value, s_from.value, s_to.value, int(matrix.counts[i, j]),
                         float(matrix.shares[i, j])))
    return columns_of(_TRANSITION_COLUMNS, rows)


# --- polarisation ----------------------------------------------------------------


@dataclass(frozen=True)
class Polarisation:
    """Mass outside balanced-both within exposed work (P) and its substitution
    tilt T = sub/(sub+aug); T is undefined when P = 0."""

    p: float
    tilt: Optional[float]


def polarisation(summary: CountrySummary) -> Polarisation:
    n_known = summary.n_margin_known_exposed
    if n_known == 0:
        raise AggregateError(f"no exposed tasks with a definite margin for {summary.iso3}")
    n_sub = summary.margin_counts_exposed[Margin.SUBSTITUTE]
    n_aug = summary.margin_counts_exposed[Margin.AUGMENT]
    polarised = n_sub + n_aug
    p = polarised / n_known
    tilt = (n_sub / polarised) if polarised > 0 else None
    return Polarisation(p=p, tilt=tilt)


# --- benchmark-ladder deviation ---------------------------------------------------


@dataclass(frozen=True)
class DeviationResult:
    iso3: str
    mean_deviation: float
    n_shared_tasks: int


def benchmark_deviation(
    country_labels: LabelDataset,
    benchmark_labels: LabelDataset,
    income_groups: Mapping[str, IncomeGroup],
) -> dict[str, DeviationResult]:
    """Per country, the mean task-level exposure gap to its matched benchmark.

    The benchmark dataset is keyed by income-group context tags; each country's
    records are differenced task by task against the benchmark run for its
    income group, in exposure-level units.
    """
    results: dict[str, DeviationResult] = {}
    for iso3 in country_labels.countries():
        group = income_groups.get(iso3)
        if group is None or group is IncomeGroup.UNCLASSIFIED:
            raise AggregateError(f"country {iso3} has no classified income group")
        tag = income_tag(group)
        bench = benchmark_labels.for_country(tag)
        benchmark = dict(zip(bench.task_id.tolist(), bench.exposure.tolist()))
        if not benchmark:
            raise AggregateError(f"benchmark labels missing for income group '{group.value}'")
        rows = country_labels.for_country(iso3)
        diffs = [
            level - benchmark[task_id]
            for task_id, level in zip(rows.task_id.tolist(), rows.exposure.tolist())
            if task_id in benchmark
        ]
        if not diffs:
            raise AggregateError(f"no task overlap between {iso3} and its benchmark")
        results[iso3] = DeviationResult(
            iso3=iso3, mean_deviation=math.fsum(diffs) / len(diffs), n_shared_tasks=len(diffs)
        )
    return results


def deviation_rows(
    dataset: LabelDataset, benchmark: LabelDataset, registry: Mapping[str, CountryContext]
) -> tuple[tuple[str, ...], list[list]]:
    """benchmark_deviation.csv: :func:`benchmark_deviation` of every country
    with a classified income group, in sorted order, as columns; having none
    is an error."""
    registered = _registered(dataset.countries(), registry)
    groups = {iso3: c.income_group for iso3, c in registry.items() if c.income_group is not IncomeGroup.UNCLASSIFIED}
    if not groups.keys() & set(registered):
        raise AggregateError(f"no registered country of the dataset ({len(registered)}) has a classified income group")
    deviations = benchmark_deviation(dataset.select(groups), benchmark, groups)
    rows = [(d.iso3, d.mean_deviation, d.n_shared_tasks) for _, d in sorted(deviations.items())]
    return columns_of(("iso3", "mean_deviation", "n_shared_tasks"), rows)
