"""Country and group summaries, pathway states and transitions between income
groups, polarisation and tilt, and benchmark-ladder deviations, each an array
expression over the dataset's count table (``LabelDataset.counts``) or its
task codes."""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ACTIVE_AI_FUNCTIONS,
    ACTIVE_CHANNELS,
    Channel,
    CountryContext,
    DEFINITE_MARGINS,
    EXPOSED_THRESHOLD,
    IncomeGroup,
    InputError,
    Margin,
    income_tag,
    registry_groups,
)
from .files import columns_of
from .ingest import AI_FUNCTIONS, CHANNELS, MARGINS, LabelDataset, factorize


class AggregateError(InputError):
    pass


_DEFINITE = [MARGINS.index(m) for m in DEFINITE_MARGINS]
_SUBSTITUTE, _AUGMENT, _UNCLEAR = (MARGINS.index(m) for m in (Margin.SUBSTITUTE, Margin.AUGMENT, Margin.UNCLEAR))
_ACTIVE_CHANNELS = [CHANNELS.index(c) for c in ACTIVE_CHANNELS]
_ACTIVE_FUNCTIONS = [AI_FUNCTIONS.index(f) for f in ACTIVE_AI_FUNCTIONS]

_COUNTS = ("n_tasks", "n_exposed", "n_margin_known_exposed", "n_unclear_exposed")
#: country_summary.csv's columns after iso3, the columns of summarize_all's matrix
SUMMARY_COLUMNS = (
    *_COUNTS,
    "exposed_share",
    "high_share",
    *(f"margin_all_{m.value}" for m in DEFINITE_MARGINS),
    *(f"margin_within_{m.value}" for m in DEFINITE_MARGINS),
    *(f"channel_{c.value}" for c in ACTIVE_CHANNELS),
    "channel_none_exposed_share",
    "ai_material_share_exposed",
    *(f"ai_function_{f.value}" for f in ACTIVE_AI_FUNCTIONS),
    "polarisation_p",
    "tilt_t",
)
#: the columns that group summaries do not average
_UNGROUPED = (*_COUNTS, "channel_none_exposed_share", "polarisation_p", "tilt_t")


def summarize_all(dataset: LabelDataset) -> np.ndarray:
    """country_summary.csv's numbers for every country of the dataset, in
    sorted order: a countries x SUMMARY_COLUMNS float matrix of counts and
    shares, each share an exact ratio of integer counts and NaN where its
    denominator is 0.

    ``margin_all_*`` use the full task universe; ``margin_within_*``
    renormalize over exposed tasks with a definite margin (an exposed task
    with an unclear margin counts in ``exposed_share`` and
    ``n_unclear_exposed`` only). Channel and AI shares condition on exposed
    tasks; the AI function mix conditions on AI-material exposed tasks.
    Polarisation P is the mass outside balanced-both within exposed tasks with
    a definite margin, and its substitution tilt T = sub/(sub+aug) is
    undefined when P = 0.
    """
    counts = dataset.counts("exposure", "margin", "channel", "ai_material", "ai_function")
    by_level = counts.sum(axis=(2, 3, 4, 5))
    exposed = counts[:, EXPOSED_THRESHOLD:].sum(axis=1)  # countries x margin x channel x AI materiality x function
    margins, channels = exposed.sum(axis=(2, 3, 4)), exposed.sum(axis=(1, 3, 4))
    functions = exposed[:, :, :, 1].sum(axis=(1, 2))
    active_functions = functions[:, _ACTIVE_FUNCTIONS]
    n_tasks, n_exposed = by_level.sum(axis=1), margins.sum(axis=1)
    definite = margins[:, _DEFINITE]
    n_known = definite.sum(axis=1)
    polarised = margins[:, _SUBSTITUTE] + margins[:, _AUGMENT]
    with np.errstate(invalid="ignore"):  # 0 / 0, an empty denominator, is NaN
        return np.column_stack([
            n_tasks, n_exposed, n_known, margins[:, _UNCLEAR],
            n_exposed / n_tasks,
            by_level[:, 3] / n_tasks,
            definite / n_tasks[:, None],
            definite / n_known[:, None],
            channels[:, _ACTIVE_CHANNELS] / n_exposed[:, None],
            channels[:, CHANNELS.index(Channel.NONE)] / n_exposed,
            functions.sum(axis=1) / n_exposed,
            active_functions / active_functions.sum(axis=1, keepdims=True),
            polarised / n_known,
            margins[:, _SUBSTITUTE] / polarised,
        ])


def _values(column: np.ndarray) -> list:
    """The column as Python floats, None for NaN."""
    return [None if math.isnan(value) else value for value in column.tolist()]


def summary_rows(countries: Sequence[str], summaries: np.ndarray) -> tuple[tuple[str, ...], list[list]]:
    """country_summary.csv as columns: per country, :func:`summarize_all`'s
    counts and shares, None for an undefined share."""
    n_counts = len(_COUNTS)
    return ("iso3", *SUMMARY_COLUMNS), [
        list(countries),
        *summaries[:, :n_counts].astype(np.int64).T.tolist(),
        *map(_values, summaries[:, n_counts:].T),
    ]


# --- group summaries ----------------------------------------------------------


def group_summary(
    countries: Sequence[str],
    summaries: np.ndarray,
    registry: Mapping[str, CountryContext],
    group_field: str = "income_group",
) -> tuple[tuple[str, ...], list[list]]:
    """Unweighted mean of each per-country share of ``summaries`` (rows in
    ``countries`` order) within each registry group, as columns: per group in
    sorted order, its number of countries and, for every share that some
    member has, the ``math.fsum`` of the members' values over their number.
    A country the registry does not name is an error."""
    names = registry_groups(countries, registry, group_field)
    unregistered = sorted(c for c, name in zip(countries, names) if name is None)
    if unregistered:
        raise AggregateError(f"country {unregistered[0]} is not registered")
    group, groups = factorize(names)
    header, columns = ["group", "n_countries"], [groups.tolist(), np.bincount(group).tolist()]
    for name in sorted(set(SUMMARY_COLUMNS) - set(_UNGROUPED)):
        shares = summaries[:, SUMMARY_COLUMNS.index(name)]
        members = [[s for s in shares[group == g].tolist() if not math.isnan(s)] for g in range(len(groups))]
        if any(members):
            header.append(name)
            columns.append([math.fsum(values) / len(values) if values else None for values in members])
    return tuple(header), columns


def _registered(countries: Sequence[str], registry: Mapping[str, CountryContext]) -> np.ndarray:
    """Which of the countries the registry names; an error when it names none of them."""
    found = np.array([c in registry for c in countries], bool)
    if not found.any():
        raise AggregateError(f"the registry names none of the dataset's {len(countries)} countries")
    return found


def group_rows(
    countries: Sequence[str], summaries: np.ndarray, registry: Mapping[str, CountryContext], group_field: str
) -> tuple[tuple[str, ...], list[list]]:
    """group_summary_<field>.csv: :func:`group_summary` of the registered countries."""
    found = _registered(countries, registry)
    return group_summary(list(itertools.compress(countries, found)), summaries[found], registry, group_field)


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
#: the state indexes in state name order
_BY_NAME = np.argsort([state.value for state in STATE_ORDER])


def modal_pathway_states(dataset: LabelDataset, countries: Sequence[str]) -> tuple[np.ndarray, int]:
    """Per task of the dataset (a code of its ``task_ids``), its modal state
    across a country group, as an index into STATE_ORDER, -1 for a task with
    no vote; and the number of anomalies.

    A sub-threshold record is not_exposed and an exposed one follows its
    margin; an exposed record with an unclear margin is an anomaly, counted
    and left out of the votes. Ties break to the lexicographically smallest
    state name, matching the deduplication tie rule.
    """
    columns = dataset.columns
    rows = np.isin(columns.country, dataset.codes("country", countries))
    states = np.where(
        columns.exposed[rows], _EXPOSED_STATES[columns.margin[rows]], STATE_ORDER.index(PathwayState.NOT_EXPOSED)
    )
    voted, n = states >= 0, len(STATE_ORDER)
    votes = np.bincount(columns.task_id[rows][voted] * n + states[voted], minlength=len(columns.task_ids) * n)
    votes = votes.reshape(-1, n)
    modal = _BY_NAME[votes[:, _BY_NAME].argmax(axis=1)]
    return np.where(votes.any(axis=1), modal, -1), int((~voted).sum())


#: income groups from the poorest up; transitions run between neighbours that have countries
_INCOME_LADDER = (IncomeGroup.LOW, IncomeGroup.LOWER_MIDDLE, IncomeGroup.UPPER_MIDDLE, IncomeGroup.HIGH)
#: the tie rule of modal_pathway_states, for the header of the transitions table
MODAL_TIE_RULE = "mode per task within group; ties to the smallest state name"
_TRANSITION_COLUMNS = ("from_group", "to_group", "source_state", "dest_state", "count", "share")


def transition_rows(dataset: LabelDataset, registry: Mapping[str, CountryContext]) -> tuple[tuple[str, ...], list[list]]:
    """transitions.csv: each income group's modal pathway state per task
    (:func:`modal_pathway_states` over its countries), and per pair of
    neighbouring groups on the ladder, the row-stochastic matrix of the tasks
    with a state in both (the share of tasks in source state i under the
    first that are in state j under the second), one row per (source,
    destination) state, as columns. Fewer than two groups with countries is an
    error."""
    countries = dataset.countries()
    found = _registered(countries, registry)
    group_of = {c: registry[c].income_group for c in itertools.compress(countries, found)}
    ladder = [g for g in _INCOME_LADDER if g in group_of.values()]
    if len(ladder) < 2:
        present = ", ".join(g.value for g in ladder) or "none"
        raise AggregateError(f"transitions need countries in at least two income groups; found {present}")
    modal = {g: modal_pathway_states(dataset, [c for c, group in group_of.items() if group is g])[0] for g in ladder}
    n = len(STATE_ORDER)
    rows = []
    for src, dst in zip(ladder, ladder[1:]):
        shared = (modal[src] >= 0) & (modal[dst] >= 0)
        counts = np.bincount(n * modal[src][shared] + modal[dst][shared], minlength=n * n).reshape(n, n)
        totals = counts.sum(axis=1, keepdims=True)
        shares = np.divide(counts, totals, out=np.zeros((n, n)), where=totals > 0)
        for (s_from, s_to), count, share in zip(
            itertools.product(STATE_ORDER, repeat=2), counts.ravel().tolist(), shares.ravel().tolist()
        ):
            rows.append((src.value, dst.value, s_from.value, s_to.value, count, share))
    return columns_of(_TRANSITION_COLUMNS, rows)


# --- benchmark-ladder deviation ---------------------------------------------------


def benchmark_deviation(
    dataset: LabelDataset,
    benchmark: LabelDataset,
    income_groups: Mapping[str, IncomeGroup],
) -> list[list]:
    """Per country of the dataset that ``income_groups`` names, in sorted
    order, the mean task-level exposure gap to the benchmark run for its
    income group (the benchmark's rows tagged ``income:<group>``), in
    exposure-level units, and the number of tasks the two share, as the
    columns iso3, mean deviation, shared tasks. The first such country without
    a classified group, without benchmark labels for its group, or without a
    task in common with them is an error."""
    columns, countries = dataset.columns, dataset.countries()
    chosen = [(k, c, income_groups[c]) for k, c in enumerate(countries) if c in income_groups]
    # in the benchmark, per country its group's tag and per row the label of its task there; -1 for none
    tag_of = np.full(len(countries), -1)
    tag_of[[k for k, _, _ in chosen]] = benchmark.codes("country", [income_tag(group) for _, _, group in chosen])
    ref = benchmark.rows_of(tag_of[columns.country], benchmark.codes("task_id", columns.task_ids)[columns.task_id])
    shared = ref >= 0
    code = columns.country[shared]
    n_shared = np.bincount(code, minlength=len(countries))
    gaps = np.bincount(code, columns.exposure[shared] - benchmark.columns.exposure[ref[shared]],
                       minlength=len(countries))
    for k, iso3, group in chosen:
        if group is IncomeGroup.UNCLASSIFIED:
            raise AggregateError(f"country {iso3} has no classified income group")
        if tag_of[k] < 0:
            raise AggregateError(f"benchmark labels missing for income group '{group.value}'")
        if not n_shared[k]:
            raise AggregateError(f"no task overlap between {iso3} and its benchmark")
    kept = [k for k, _, _ in chosen]
    # integer sums, exact in float64: the same bits as math.fsum of the gaps
    return [[c for _, c, _ in chosen], (gaps[kept] / n_shared[kept]).tolist(), n_shared[kept].tolist()]


def deviation_rows(
    dataset: LabelDataset, benchmark: LabelDataset, registry: Mapping[str, CountryContext]
) -> tuple[tuple[str, ...], list[list]]:
    """benchmark_deviation.csv: :func:`benchmark_deviation` of every country
    with a classified income group, in sorted order, as columns; having none
    is an error."""
    countries = dataset.countries()
    found = _registered(countries, registry)
    groups = {c: registry[c].income_group for c in itertools.compress(countries, found)}
    classified = {c: g for c, g in groups.items() if g is not IncomeGroup.UNCLASSIFIED}
    if not classified:
        raise AggregateError(f"no registered country of the dataset ({len(groups)}) has a classified income group")
    return ("iso3", "mean_deviation", "n_shared_tasks"), benchmark_deviation(dataset, benchmark, classified)
