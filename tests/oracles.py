"""Independent brute-force oracles used to pin expected values.

Each oracle stays deliberately naive (enumeration, dummy variables, direct
counting) and never shares code with the implementation it checks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations, product
from pathlib import Path
from typing import Optional

import numpy as np

from taskatlas import ingest
from taskatlas._rng import rng_for
from taskatlas.aggregate import STATE_ORDER, AggregateError, PathwayState, summarize_all, summary_rows
from taskatlas.core import (
    ACTIVE_AI_FUNCTIONS, ACTIVE_CHANNELS, DEFINITE_MARGINS, AiFunction, Channel, IncomeGroup, Margin, TaskLabelRecord,
    income_tag, is_exposed, label_json_line,
)
from taskatlas.files import IngestError, columns_of, number, raise_first, read_columns
from taskatlas.ingest import AI_FUNCTIONS, CHANNELS, MARGINS, LabelColumns, LabelDataset, ParseReport, factorize
from taskatlas.linkage import (
    SOC_TABLES, EdgeColumns, IndustryGraph, LinkageError, ProviderError, PruneResult, SocPairs, prune_edges,
)
from taskatlas.reweight import (
    SEXES, CellValues, EmploymentRow, EmploymentTable, ReweightError, Sex, ValueOverflowError,
)
from taskatlas.stats.forest import Forest, LEAF, Tree
from taskatlas.stats.treeshap import AttributionResult
from taskatlas.validate import ValidateError


# --- row views -------------------------------------------------------------------


def row_views(columns: LabelColumns) -> list[TaskLabelRecord]:
    """Each row of ``columns`` as a TaskLabelRecord, in row order."""
    return [TaskLabelRecord(*row) for row in columns.rows()]


def record_key(record: TaskLabelRecord) -> tuple[str, str]:
    return (record.country, record.task_id)


def record_json_line(record: TaskLabelRecord) -> str:
    """The record's label-file JSON line, without its line end."""
    return label_json_line(*vars(record).values())


def _by_key(dataset) -> dict:
    return {record_key(record): record for record in row_views(dataset.columns)}


# --- counting oracle for country summaries -------------------------------------


def naive_counts(records) -> dict:
    n = len(records)
    exposed = [r for r in records if r.exposure in (2, 3)]
    out = {
        "n": n,
        "exposed_share": len(exposed) / n,
        "high_share": sum(1 for r in records if r.exposure == 3) / n,
    }
    for margin in ("substitute", "augment", "both"):
        out[f"all_{margin}"] = sum(1 for r in exposed if r.margin.value == margin) / n
    known = [r for r in exposed if r.margin.value != "unclear"]
    for margin in ("substitute", "augment", "both"):
        out[f"within_{margin}"] = (
            sum(1 for r in known if r.margin.value == margin) / len(known) if known else None
        )
    out["ai_share"] = sum(1 for r in exposed if r.ai_material) / len(exposed) if exposed else None
    for channel in (
        "physical_execution",
        "rule_based_workflow",
        "planning_control",
        "inference_scoring",
        "informational_transformation",
    ):
        out[f"channel_{channel}"] = (
            sum(1 for r in exposed if r.channel.value == channel) / len(exposed) if exposed else None
        )
    return out


# --- the summarize, report and validate distribution tables over per-country dicts -----------


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
    channel_counts = dict(zip(CHANNELS, np.bincount(records.channel[exposed], minlength=len(CHANNELS)).tolist()))
    ai_exposed = exposed & records.ai_material
    n_ai_exposed = int(ai_exposed.sum())
    function_counts = dict(
        zip(AI_FUNCTIONS, np.bincount(records.ai_function[ai_exposed], minlength=len(AI_FUNCTIONS)).tolist())
    )
    n_function = sum(function_counts[f] for f in ACTIVE_AI_FUNCTIONS)
    return CountrySummary(
        iso3=iso3,
        n_tasks=n,
        n_exposed=n_exposed,
        n_margin_known_exposed=n_known,
        n_unclear_exposed=margin_counts[Margin.UNCLEAR],
        n_ai_material_exposed=n_ai_exposed,
        margin_counts_exposed={m: margin_counts[m] for m in Margin},
        exposed_share=n_exposed / n,
        high_share=n_high / n,
        margin_shares_all={m: margin_counts[m] / n for m in DEFINITE_MARGINS},
        margin_shares_within={m: margin_counts[m] / n_known for m in DEFINITE_MARGINS} if n_known > 0 else None,
        channel_shares_exposed=(
            {c: channel_counts[c] / n_exposed for c in ACTIVE_CHANNELS} if n_exposed > 0 else None
        ),
        channel_none_exposed_share=(channel_counts[Channel.NONE] / n_exposed) if n_exposed > 0 else None,
        ai_material_share_exposed=(n_ai_exposed / n_exposed) if n_exposed > 0 else None,
        ai_function_mix=(
            {f: function_counts[f] / n_function for f in ACTIVE_AI_FUNCTIONS} if n_function > 0 else None
        ),
    )


def country_summary(dataset: LabelDataset, iso3: str) -> CountrySummary:
    """The counting summary of one country of the dataset."""
    return summarize_records(iso3, dataset.for_country(iso3))


def reference_summaries(dataset: LabelDataset) -> dict[str, CountrySummary]:
    """Summaries for every country, in sorted country order."""
    return {iso3: country_summary(dataset, iso3) for iso3 in dataset.countries()}


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
    return Polarisation(p=polarised / n_known, tilt=(n_sub / polarised) if polarised > 0 else None)


def _share_in(mapping: str, key):
    """The share ``key`` of a summary's ``mapping``; None where the mapping is None (an empty denominator)."""
    return lambda summary: getattr(summary, mapping)[key] if getattr(summary, mapping) else None


#: the per-country share columns of country_summary.csv, in order, each with its value in a summary
REFERENCE_SHARES = {
    "exposed_share": lambda s: s.exposed_share,
    "high_share": lambda s: s.high_share,
    **{f"margin_all_{m.value}": _share_in("margin_shares_all", m) for m in DEFINITE_MARGINS},
    **{f"margin_within_{m.value}": _share_in("margin_shares_within", m) for m in DEFINITE_MARGINS},
    **{f"channel_{c.value}": _share_in("channel_shares_exposed", c) for c in ACTIVE_CHANNELS},
    "channel_none_exposed_share": lambda s: s.channel_none_exposed_share,
    "ai_material_share_exposed": lambda s: s.ai_material_share_exposed,
    **{f"ai_function_{f.value}": _share_in("ai_function_mix", f) for f in ACTIVE_AI_FUNCTIONS},
}
_REFERENCE_COUNTS = ("n_tasks", "n_exposed", "n_margin_known_exposed", "n_unclear_exposed")


def reference_summary_rows(summaries) -> tuple:
    """country_summary.csv as columns, from a {iso3: CountrySummary} map."""
    ordered = [summary for _, summary in sorted(summaries.items())]
    pols = [polarisation(s) if s.n_margin_known_exposed > 0 else None for s in ordered]
    return ("iso3", *_REFERENCE_COUNTS, *REFERENCE_SHARES, "polarisation_p", "tilt_t"), [
        [s.iso3 for s in ordered],
        *([getattr(s, name) for s in ordered] for name in _REFERENCE_COUNTS),
        *([share(s) for s in ordered] for share in REFERENCE_SHARES.values()),
        [None if pol is None else pol.p for pol in pols],
        [None if pol is None else pol.tilt for pol in pols],
    ]


def _reference_registered(countries, registry) -> list:
    countries = list(countries)
    found = [c for c in countries if c in registry]
    if not found:
        raise AggregateError(f"the registry names none of the dataset's {len(countries)} countries")
    return found


def reference_group_summary(summaries, registry, group_field: str = "income_group") -> dict:
    """{group: (n_countries, {share: mean})} over CountrySummary objects, one
    list of values per share, each mean the fsum of the members' values over their number."""
    if group_field not in ("income_group", "region"):
        raise AggregateError(f"unknown grouping field {group_field!r}")
    grouped: dict = {}
    for summary in sorted(summaries, key=lambda s: s.iso3):
        context = registry.get(summary.iso3)
        if context is None:
            raise AggregateError(f"country {summary.iso3} is not registered")
        value = getattr(context, group_field)
        grouped.setdefault(value.value if isinstance(value, Enum) else str(value), []).append(summary)
    out = {}
    for key in sorted(grouped):
        field_values: dict = {}
        for summary in grouped[key]:
            for name, share in REFERENCE_SHARES.items():
                value = share(summary)
                if name != "channel_none_exposed_share" and value is not None:
                    field_values.setdefault(name, []).append(value)
        out[key] = (len(grouped[key]), {name: math.fsum(v) / len(v) for name, v in sorted(field_values.items())})
    return out


def reference_group_rows(summaries, registry, group_field: str) -> tuple:
    registered = [summaries[c] for c in _reference_registered(summaries, registry)]
    groups = reference_group_summary(registered, registry, group_field)
    means = sorted({name for _, group_means in groups.values() for name in group_means})
    columns = [list(groups), [size for size, _ in groups.values()]]
    return ("group", "n_countries", *means), columns + [[m.get(name) for _, m in groups.values()] for name in means]


def reference_modal_pathway_states(dataset: LabelDataset, countries) -> tuple[dict, int]:
    """Per task, its modal PathwayState across the countries, voted row by
    row; ties to the smallest state name, an exposed record with an unclear
    margin an anomaly left out of the votes. Returns (states, anomaly count)."""
    votes: dict[str, list[int]] = {}
    anomalies = 0
    for iso3 in sorted(countries):
        for record in row_views(dataset.for_country(iso3)):
            if not is_exposed(record.exposure):
                state = PathwayState.NOT_EXPOSED
            elif record.margin is Margin.UNCLEAR:
                anomalies += 1
                continue
            else:
                state = PathwayState(record.margin.value)
            votes.setdefault(record.task_id, [0] * len(STATE_ORDER))[STATE_ORDER.index(state)] += 1
    modal = {}
    for task_id in sorted(votes):
        counts = votes[task_id]
        modal[task_id] = STATE_ORDER[min(range(len(STATE_ORDER)), key=lambda i: (-counts[i], STATE_ORDER[i].value))]
    return modal, anomalies


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 4x4 share matrix over pathway states (rows = source)."""

    counts: np.ndarray  # (4, 4) integer counts
    shares: np.ndarray  # (4, 4) rows sum to 1 where the source state is occupied


def transition_matrix(states_a, states_b) -> TransitionMatrix:
    """Share of tasks in source state i under A that are in state j under B."""
    if set(states_a) != set(states_b):
        missing = sorted(set(states_a) ^ set(states_b))
        raise AggregateError(f"mismatched task sets ({len(missing)} tasks differ, e.g. {missing[:3]})")
    counts = np.zeros((4, 4), dtype=np.int64)
    for task_id in sorted(states_a):
        counts[STATE_ORDER.index(states_a[task_id]), STATE_ORDER.index(states_b[task_id])] += 1
    shares = np.zeros((4, 4), dtype=np.float64)
    for i in range(4):
        row_total = counts[i].sum()
        if row_total > 0:
            shares[i] = counts[i] / row_total
    return TransitionMatrix(counts=counts, shares=shares)


_REFERENCE_LADDER = (IncomeGroup.LOW, IncomeGroup.LOWER_MIDDLE, IncomeGroup.UPPER_MIDDLE, IncomeGroup.HIGH)


def reference_transition_rows(dataset: LabelDataset, registry) -> tuple:
    group_of = {c: registry[c].income_group for c in _reference_registered(dataset.countries(), registry)}
    members = {g: [c for c, group in group_of.items() if group is g] for g in _REFERENCE_LADDER}
    modal = {g: reference_modal_pathway_states(dataset, members[g])[0] for g in _REFERENCE_LADDER if members[g]}
    ladder = [g for g in _REFERENCE_LADDER if g in modal]
    if len(ladder) < 2:
        found = ", ".join(g.value for g in ladder) or "none"
        raise AggregateError(f"transitions need countries in at least two income groups; found {found}")
    rows = []
    for src, dst in zip(ladder, ladder[1:]):
        common = sorted(set(modal[src]) & set(modal[dst]))
        matrix = transition_matrix({t: modal[src][t] for t in common}, {t: modal[dst][t] for t in common})
        for (i, s_from), (j, s_to) in product(enumerate(STATE_ORDER), repeat=2):
            rows.append((src.value, dst.value, s_from.value, s_to.value, int(matrix.counts[i, j]),
                         float(matrix.shares[i, j])))
    return columns_of(("from_group", "to_group", "source_state", "dest_state", "count", "share"), rows)


def select(dataset: LabelDataset, countries) -> LabelDataset:
    """The dataset restricted to the given countries, with the same provenance."""
    wanted = set(countries)
    columns = dataset.columns
    keep = np.fromiter((c in wanted for c in columns.countries[columns.country].tolist()), bool, len(dataset))
    # rebuilt from its records, so that its key tables hold only the kept keys
    return LabelDataset(ingest._merge_duplicates(LabelColumns.from_records(row_views(columns[keep]))),
                        dataset.provenance)


def reference_benchmark_deviation(country_labels: LabelDataset, benchmark_labels: LabelDataset, income_groups) -> dict:
    """Per country, (mean task-level exposure gap to its income group's
    benchmark run, shared task count), one dict per benchmark."""
    results = {}
    for iso3 in country_labels.countries():
        group = income_groups.get(iso3)
        if group is None or group is IncomeGroup.UNCLASSIFIED:
            raise AggregateError(f"country {iso3} has no classified income group")
        bench = benchmark_labels.for_country(income_tag(group))
        benchmark = dict(zip(bench.task_ids[bench.task_id].tolist(), bench.exposure.tolist()))
        if not benchmark:
            raise AggregateError(f"benchmark labels missing for income group '{group.value}'")
        rows = country_labels.for_country(iso3)
        tasks = rows.task_ids[rows.task_id].tolist()
        diffs = [level - benchmark[task] for task, level in zip(tasks, rows.exposure.tolist()) if task in benchmark]
        if not diffs:
            raise AggregateError(f"no task overlap between {iso3} and its benchmark")
        results[iso3] = (math.fsum(diffs) / len(diffs), len(diffs))
    return results


def reference_deviation_rows(dataset: LabelDataset, benchmark: LabelDataset, registry) -> tuple:
    registered = _reference_registered(dataset.countries(), registry)
    groups = {iso3: c.income_group for iso3, c in registry.items() if c.income_group is not IncomeGroup.UNCLASSIFIED}
    if not groups.keys() & set(registered):
        raise AggregateError(f"no registered country of the dataset ({len(registered)}) has a classified income group")
    deviations = reference_benchmark_deviation(select(dataset, groups), benchmark, groups)
    return columns_of(("iso3", "mean_deviation", "n_shared_tasks"),
                      [(iso3, mean, n) for iso3, (mean, n) in sorted(deviations.items())])


def reference_distribution_check(dataset: LabelDataset, registry=None, group_by=None) -> dict:
    """{"groups": group -> field -> category -> share, "group_sizes": group ->
    rows}, each group's rows sliced out of the columns by a per-row lookup of
    its country's group."""
    if group_by is not None and group_by not in ("income_group", "region"):
        raise ValidateError(f"unknown grouping field {group_by!r}")

    def group_of(country: str) -> str:
        if group_by is None:
            return "overall"
        context = registry.get(country) if registry else None
        if context is None:
            return "unregistered"
        value = getattr(context, group_by)
        return value.value if hasattr(value, "value") else str(value)

    columns = dataset.columns
    row_group = [group_of(c) for c in columns.countries[columns.country].tolist()]
    tables, sizes = {}, {}
    for group in sorted(set(row_group)):
        rows = columns[np.array([g == group for g in row_group], bool)]
        n = sizes[group] = len(rows)

        def share_table(codes, names) -> dict:
            counts = Counter(codes.tolist())
            return {names[i]: counts[i] / n for i in sorted(range(len(names)), key=names.__getitem__) if counts[i]}

        tables[group] = {
            "exposure_level": share_table(rows.exposure, [str(level) for level in (0, 1, 2, 3)]),
            "dominant_channel": share_table(rows.channel, [c.value for c in CHANNELS]),
            "margin": share_table(rows.margin, [m.value for m in MARGINS]),
            "margin_raw": share_table(rows.margin_raw, [m.value for m in MARGINS]),
            "ai_materiality": share_table(rows.ai_material.astype(np.int64), [str(False), str(True)]),
        }
    return {"groups": tables, "group_sizes": sizes}


# --- row-by-row deduplication -----------------------------------------------------


def _mode(values, sort_key):
    """Most frequent value; ties broken by the smallest sort key."""
    counts = Counter(values)
    return min(counts, key=lambda v: (-counts[v], sort_key(v)))


def _merge_group(records):
    """Collapse duplicate rows for one key to per-field modes.

    Tie rules: lowest exposure level; lexicographically smallest canonical name
    for non-ordinal enums and text; false before true for flags. Path flags are
    re-raised to cover the merged margin and the margin is re-normalized
    against the merged exposure.
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
        **texts,
    )


def naive_deduplicate(records) -> dict:
    """(country, task_id) -> merged record, in key order: the row-object
    deduplication that the columnar one replaced."""
    groups: dict = {}
    for record in records:
        groups.setdefault(record_key(record), []).append(record)
    return {key: _merge_group(groups[key]) for key in sorted(groups)}


# --- list-based tree grower and one-row tree readers ---------------------------------


def reference_best_split(X, y, rows, features, min_leaf):
    """Feature/threshold pair with the largest SSE reduction, one threshold at a
    time; ties keep the first candidate in (feature asc, threshold asc) order."""
    y_node = y[rows]
    n = len(rows)
    total = y_node.sum()
    best_gain = 0.0
    best = None
    for f in features:
        order = np.argsort(X[rows, f], kind="stable")
        xs = X[rows[order], f]
        ys = y_node[order]
        csum = np.cumsum(ys)
        for i in range(min_leaf - 1, n - min_leaf):
            if xs[i] == xs[i + 1]:
                continue
            left_n = i + 1
            right_n = n - left_n
            left_sum = csum[i]
            right_sum = total - left_sum
            gain = left_sum * left_sum / left_n + right_sum * right_sum / right_n - total * total / n
            if gain > best_gain + 1e-12 * max(1.0, abs(best_gain)):
                best_gain = gain
                best = (int(f), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def reference_grow_tree(X, y, params, mtry, rng) -> dict[str, list]:
    """One tree grown into node lists, depth first, children appended in pairs;
    a leaf's children are LEAF."""
    tree = {name: [] for name in Tree._fields}

    def add_node(value, count):
        for name, cell in zip(Tree._fields, (LEAF, 0.0, LEAF, LEAF, value, count)):
            tree[name].append(cell)
        return len(tree["feature"]) - 1

    stack = [(add_node(float(y.mean()), len(y)), np.arange(len(y)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        y_node = y[rows]
        if (
            len(rows) < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
            or np.all(y_node == y_node[0])
        ):
            continue
        features = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
        split = reference_best_split(X, y, rows, features, params.min_leaf)
        if split is None:
            continue
        f, threshold = split
        go_left = X[rows, f] <= threshold
        left_rows, right_rows = rows[go_left], rows[~go_left]
        left = add_node(float(y[left_rows].mean()), len(left_rows))
        right = add_node(float(y[right_rows].mean()), len(right_rows))
        tree["feature"][node], tree["threshold"][node] = f, threshold
        tree["left"][node], tree["right"][node] = left, right
        stack.append((left, left_rows, depth + 1))
        stack.append((right, right_rows, depth + 1))
    return tree


def reference_forest(X, y, params, seed) -> list[dict[str, list]]:
    """The node lists of each tree ``fit_forest`` grows, from the same bootstrap
    and generator, with a leaf's LEAF children read as the leaf itself."""
    n, p = X.shape
    mtry = params.mtry if params.mtry is not None else max(1, math.ceil(p / 3))
    trees = []
    for t in range(params.n_trees):
        rng = rng_for(seed, t)
        idx = rng.integers(0, n, size=n)
        tree = reference_grow_tree(X[idx], y[idx], params, mtry, rng)
        for side in ("left", "right"):
            tree[side] = [node if child == LEAF else child for node, child in enumerate(tree[side])]
        trees.append(tree)
    return trees


def tree_lists(tree: Tree) -> dict[str, list]:
    """A tree's node arrays as lists, by field name."""
    return {name: column.tolist() for name, column in zip(Tree._fields, tree)}


def tree_predict(tree: Tree, x: np.ndarray) -> float:
    """The value of the leaf that one row reaches."""
    node = 0
    while tree.feature[node] != LEAF:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return float(tree.value[node])


def tree_max_depth(tree: Tree) -> int:
    """The number of splits on the longest root-to-leaf path."""

    def depth(node: int) -> int:
        if tree.feature[node] == LEAF:
            return 0
        return 1 + max(depth(tree.left[node]), depth(tree.right[node]))

    return depth(0)


def tree_features_used(tree: Tree) -> set[int]:
    return {int(f) for f in tree.feature if f != LEAF}


# --- path-conditional expectation + subset-enumeration Shapley -------------------


def coverage_expectation(tree: Tree, x: np.ndarray, subset: frozenset) -> float:
    """Conditional expectation with absent features integrated over coverage."""

    def walk(node: int) -> float:
        if tree.feature[node] == LEAF:
            return tree.value[node]
        f = tree.feature[node]
        if f in subset:
            child = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
            return walk(child)
        left, right = tree.left[node], tree.right[node]
        return (tree.count[left] * walk(left) + tree.count[right] * walk(right)) / tree.count[node]

    return walk(0)


def brute_force_shap(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Shapley values via 2^p subset enumeration of coverage expectations."""
    p = forest.n_features
    phi = np.zeros(p)
    for i in range(p):
        others = [j for j in range(p) if j != i]
        for size in range(p):
            weight = math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
            for subset in combinations(others, size):
                base = frozenset(subset)
                gain = 0.0
                for tree in forest.trees:
                    gain += coverage_expectation(tree, x, base | {i}) - coverage_expectation(tree, x, base)
                phi[i] += weight * gain / len(forest.trees)
    return phi


def reference_paths_shap(X, value, feature, zero, lo, hi, phi) -> None:
    """``treeshap._paths_shap`` without the pattern deduplication: the extend
    and unwind recurrences run for every row and path, rows x paths x D."""
    rows = len(X)
    n_paths, depth = feature.shape
    one = ((X[:, feature] > lo) & (X[:, feature] <= hi)).astype(np.float64)
    w = np.zeros((rows, n_paths, depth + 1))
    w[..., 0] = 1.0
    for k in range(1, depth + 1):
        j = np.arange(k + 1)
        old = w[..., : k + 1].copy()
        new = zero[:, k - 1, None] * old * (k - j) / (k + 1)
        new[..., 1:] += one[..., k - 1, None] * old[..., :-1] * j[1:] / (k + 1)
        w[..., : k + 1] = new
    sum_if_one = np.zeros((rows, n_paths, depth))
    sum_if_zero = np.zeros((rows, n_paths, depth))
    carry = np.repeat(w[..., depth, None], depth, axis=-1)
    for j in range(depth - 1, -1, -1):
        unwound = carry * (depth + 1) / (j + 1)
        sum_if_one += unwound
        carry = w[..., j, None] - unwound * zero * (depth - j) / (depth + 1)
        sum_if_zero += w[..., j, None] * (depth + 1) / (zero * (depth - j))
    unwound_sum = np.where(one == 1.0, sum_if_one, sum_if_zero)
    contribution = unwound_sum * (one - zero) * value[:, None]
    slots = np.arange(rows)[:, None, None] * phi.shape[1] + feature
    phi += np.bincount(slots.ravel(), weights=contribution.ravel(), minlength=phi.size).reshape(phi.shape)


# --- dummy-variable FE regression with clustered errors ---------------------------


def dummy_fe_oracle(y, x, rows, cols, clusters) -> tuple[float, float, int]:
    """Full dummy-variable OLS with cluster-robust errors; returns (beta, se, k)."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = len(y)
    columns = [np.ones(n), x]
    for r in sorted(set(rows))[1:]:
        columns.append(np.asarray([1.0 if v == r else 0.0 for v in rows]))
    for c in sorted(set(cols))[1:]:
        columns.append(np.asarray([1.0 if v == c else 0.0 for v in cols]))
    X = np.column_stack(columns)
    keep: list[int] = []
    for j in range(X.shape[1]):
        if np.linalg.matrix_rank(X[:, keep + [j]]) == len(keep) + 1:
            keep.append(j)
    X = X[:, keep]
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    residuals = y - X @ beta
    bread = np.linalg.inv(X.T @ X)
    meat = np.zeros((X.shape[1], X.shape[1]))
    for c in sorted(set(clusters)):
        idx = [i for i, v in enumerate(clusters) if v == c]
        score = X[idx].T @ residuals[idx]
        meat += np.outer(score, score)
    G = len(set(clusters))
    k = X.shape[1]
    correction = G / (G - 1) * (n - 1) / (n - k)
    vcov = correction * bread @ meat @ bread
    return float(beta[1]), float(np.sqrt(vcov[1, 1])), k


# --- factorial-ordering dominance analysis -----------------------------------------


def _r2(X: np.ndarray, y: np.ndarray, cols: tuple[int, ...]) -> float:
    design = np.column_stack([np.ones(len(y))] + [X[:, j] for j in cols]) if cols else np.ones((len(y), 1))
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    residuals = y - design @ beta
    sst = float(((y - y.mean()) ** 2).sum())
    return 1.0 - float((residuals**2).sum()) / sst


def factorial_shapley_r2(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Average incremental R^2 over all p! predictor orderings."""
    p = X.shape[1]
    contributions = np.zeros(p)
    orderings = list(permutations(range(p)))
    fitted: dict[tuple[int, ...], float] = {}  # each subset is fit once, however many orderings reach it
    for order in orderings:
        used: tuple[int, ...] = ()
        prev = 0.0
        for j in order:
            cols = tuple(sorted(used + (j,)))
            if cols not in fitted:
                fitted[cols] = _r2(X, y, cols)
            current = fitted[cols]
            contributions[j] += current - prev
            used = used + (j,)
            prev = current
    return contributions / len(orderings)


def rank_deficient_subset_count(X: np.ndarray) -> int:
    """Subsets S whose design [1, X_S] has numerical rank below its column count."""
    n, p = X.shape
    count = 0
    for size in range(p + 1):
        for cols in combinations(range(p), size):
            design = np.column_stack([np.ones(n)] + [X[:, j] for j in cols])
            count += int(np.linalg.matrix_rank(design) < design.shape[1])
    return count


# --- LOESS one grid point at a time ----------------------------------------------------


def pointwise_loess(x: np.ndarray, y: np.ndarray, span: float, grid: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Tricube-weighted local line at each grid point in turn; (values, fallback indices)."""
    n = len(x)
    q = min(n, max(3, int(math.ceil(span * n))))
    values = []
    fallbacks = []
    for gi, x0 in enumerate(grid):
        dist = np.abs(x - x0)
        radius = np.sort(dist)[q - 1]
        if radius == 0.0:
            w = (dist == 0.0).astype(np.float64)
        else:
            w = (1.0 - np.clip(dist / radius, 0.0, 1.0) ** 3) ** 3
        all_at_radius = w.sum() == 0.0
        if all_at_radius:
            w = (dist <= radius).astype(np.float64)  # unweighted mean over the window
        xw = float(w @ x) / w.sum()
        yw = float(w @ y) / w.sum()
        sxx = float(w @ (x - xw) ** 2)
        if sxx <= 0.0 or all_at_radius:
            values.append(yw)
            fallbacks.append(gi)
        else:
            values.append(yw + float(w @ ((x - xw) * (y - yw))) / sxx * (x0 - xw))
    return np.asarray(values), tuple(fallbacks)


# --- record-based agreement and paraphrase passes ----------------------------------------
# The pair-by-pair passes over TaskLabelRecord row views that the array joins
# replaced. Each returns ``dataclasses.asdict`` of the report it stands for.


def _naive_marginal(values) -> dict:
    counts = Counter(values)
    total = len(values)
    return {k: counts[k] / total for k in sorted(counts, key=str)}


def _naive_chance_baseline(marginal_a, marginal_b) -> float:
    keys = sorted(set(marginal_a) | set(marginal_b), key=str)
    return math.fsum(marginal_a.get(k, 0.0) * marginal_b.get(k, 0.0) for k in keys)


def naive_paired_agreement(pairs) -> dict:
    """Agreement of (record, record) pairs."""
    n = len(pairs)
    exact = sum(1 for a, b in pairs if a.exposure == b.exposure) / n
    confusion = [[0] * 4 for _ in range(4)]
    for a, b in pairs:
        confusion[a.exposure][b.exposure] += 1
    exposed_pairs = [(a, b) for a, b in pairs if is_exposed(a.exposure) and is_exposed(b.exposure)]

    def share(same) -> float:
        return sum(1 for a, b in pairs if same(a, b)) / n

    def baseline(scored, value) -> float:
        return _naive_chance_baseline(
            _naive_marginal([value(a) for a, _ in scored]), _naive_marginal([value(b) for _, b in scored])
        )

    baselines = {
        "exposure_level": baseline(pairs, lambda r: r.exposure),
        "binary_exposed": baseline(pairs, lambda r: is_exposed(r.exposure)),
        "dominant_channel": baseline(pairs, lambda r: r.channel),
        "ai_materiality": baseline(pairs, lambda r: r.ai_material),
    }
    if exposed_pairs:
        baselines["margin_exposed"] = baseline(exposed_pairs, lambda r: r.margin)
    return {
        "n": n,
        "exact_level": exact,
        "within_one_level": share(lambda a, b: abs(a.exposure - b.exposure) <= 1),
        "binary_exposed": share(lambda a, b: is_exposed(a.exposure) == is_exposed(b.exposure)),
        "per_field": {
            "exposure_level": exact,
            "dominant_channel": share(lambda a, b: a.channel is b.channel),
            "margin_exposed": (
                sum(1 for a, b in exposed_pairs if a.margin is b.margin) / len(exposed_pairs) if exposed_pairs else None
            ),
            "ai_materiality": share(lambda a, b: a.ai_material == b.ai_material),
        },
        "confusion": tuple(tuple(row) for row in confusion),
        "baselines": baselines,
    }


def naive_agreement_suite(run_a, run_b):
    """The report's fields, or None where the runs share no key."""
    a, b = _by_key(run_a), _by_key(run_b)
    keys = [k for k in a if k in b]
    if not keys:
        return None
    return naive_paired_agreement([(a[k], b[k]) for k in keys])


def naive_paraphrase_stability(original, variants):
    """The report's fields, or None where no key is common to every run."""
    base, variants = _by_key(original), [_by_key(variant) for variant in variants]
    keys = [k for k in base if all(k in variant for variant in variants)]
    if not keys:
        return None
    per_variant = tuple(naive_paired_agreement([(base[k], variant[k]) for k in keys]) for variant in variants)
    v = len(variants)
    pairwise = [[1.0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            share = sum(1 for k in keys if abs(variants[i][k].exposure - variants[j][k].exposure) <= 1) / len(keys)
            pairwise[i][j] = pairwise[j][i] = share
    joint = sum(
        1
        for k in keys
        if max(variant[k].exposure for variant in variants) - min(variant[k].exposure for variant in variants) <= 1
    ) / len(keys)
    return {
        "n": len(keys),
        "per_variant": per_variant,
        "pairwise_within_one": tuple(tuple(row) for row in pairwise),
        "joint_within_one": joint,
    }


# --- record-based consistency screen ----------------------------------------------------------
# The record-by-record loop that the column pass replaced. It returns
# ScreenReport's fields as ``dataclasses.asdict`` gives them.


def _naive_rule_eligible(rule_id: str, record) -> bool:
    if rule_id == "r1_level3_denies":
        return record.exposure == 3
    if rule_id == "r2_level0_describes":
        return record.exposure == 0
    if rule_id == "r3_augment_replaces":
        return record.margin is Margin.AUGMENT
    if rule_id == "r4_substitute_assistive":
        return record.margin is Margin.SUBSTITUTE
    if rule_id == "r5_notai_invokes_ai":
        return not record.ai_material
    raise ValueError(f"unknown rule {rule_id!r}")


def _naive_phrase(phrase: str) -> re.Pattern:
    return re.compile(r"\b" + r"\s+".join(re.escape(w) for w in phrase.split()) + r"\b", re.IGNORECASE)


def _naive_unnegated(sentence: str, phrase_re: re.Pattern, negator_res) -> bool:
    """The phrase matches, and every negator hit in the sentence overlaps that match."""
    match = phrase_re.search(sentence)
    if match is None:
        return False
    return all(
        hit.start() < match.end() and match.start() < hit.end()
        for negator_re in negator_res
        for hit in negator_re.finditer(sentence)
    )


def naive_consistency_screen(dataset, lexicon: dict, negators) -> dict:
    lex = {rule: list(phrases) for rule, phrases in lexicon.items()}
    digest_src = json.dumps({"lexicon": dict(sorted(lex.items())), "negators": list(negators)}, sort_keys=True)
    negator_res = [_naive_phrase(n) for n in negators]
    flags = []
    eligible = {rule: 0 for rule in lex}
    flagged = {rule: 0 for rule in lex}
    flagged_keys = set()
    for key, record in _by_key(dataset).items():
        sentences = [s for s in re.split(r"(?<=[.!?;])\s+", record.short_rationale) if s.strip()]
        for rule_id in sorted(lex):
            if not _naive_rule_eligible(rule_id, record):
                continue
            eligible[rule_id] += 1
            hits = [
                (sentence, phrase)
                for sentence in sentences
                for phrase in lex[rule_id]
                if _naive_unnegated(sentence, _naive_phrase(phrase), negator_res)
            ]
            if hits:
                flagged[rule_id] += 1
                flagged_keys.add(key)
                flags.append({"key": key, "rule_id": rule_id, "sentence": hits[0][0], "phrase": hits[0][1]})
    n = len(dataset)
    return {
        "flags": tuple(flags),
        "per_rule": {rule: {"eligible": eligible[rule], "flagged": flagged[rule]} for rule in sorted(lex)},
        "n_records": n,
        "n_flagged_records": len(flagged_keys),
        "union_share": len(flagged_keys) / n if n else 0.0,
        "lexicon_digest": hashlib.sha256(digest_src.encode("utf-8")).hexdigest(),
    }


# --- rationale divergence one regex search and one seeded generator at a time ----------------


def naive_content_tokens(text: str, stopwords: frozenset) -> frozenset:
    """Lowercased alphabetic tokens of length >= 2, minus stopwords."""
    return frozenset(
        t for t in (m.group(0).lower() for m in re.finditer(r"[a-zA-Z]+", text)) if len(t) >= 2 and t not in stopwords
    )


def naive_mentions(text: str, country):
    if country is None:
        return None
    return re.search(r"(?<!\w)" + re.escape(country) + r"(?!\w)", text, re.IGNORECASE) is not None


class NaiveHashEmbedder:
    """Standard normals from ``rng_for`` of the text's SHA-256 prefix, over ``np.linalg.norm``."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        vec = rng_for(seed).standard_normal(self.dim)
        return vec / np.linalg.norm(vec)


def naive_divergence_payload(pairs, stopwords: frozenset, embedder, jaccard_threshold: float,
                             cosine_threshold: float):
    """divergence.json's payload, or None where no pair is scored."""
    metrics = []
    skipped = 0
    for pair in pairs:
        tokens_a = naive_content_tokens(pair.text_a, stopwords)
        tokens_b = naive_content_tokens(pair.text_b, stopwords)
        if not tokens_a or not tokens_b:
            skipped += 1
            continue
        cosine = None
        if embedder is not None:
            va = np.asarray(embedder.embed(pair.text_a), dtype=np.float64)
            vb = np.asarray(embedder.embed(pair.text_b), dtype=np.float64)
            cosine = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
        metrics.append({
            "jaccard": len(tokens_a & tokens_b) / len(tokens_a | tokens_b),
            "cosine": cosine,
            "mentions_a": naive_mentions(pair.text_a, pair.country_a),
            "mentions_b": naive_mentions(pair.text_b, pair.country_b),
        })
    if not metrics:
        return None
    quadrants = None
    if embedder is not None:
        counts = Counter(
            ("high" if m["jaccard"] >= jaccard_threshold else "low") + "_jaccard/"
            + ("high" if (m["cosine"] or 0.0) >= cosine_threshold else "low") + "_cosine"
            for m in metrics
        )
        quadrants = {
            f"{j}_jaccard/{c}_cosine": counts[f"{j}_jaccard/{c}_cosine"] / len(metrics)
            for j in ("low", "high") for c in ("low", "high")
        }
    return {
        "pairs": metrics,
        "n_skipped": skipped,
        "quadrant_shares": quadrants,
        "jaccard_threshold": jaccard_threshold,
        "cosine_threshold": cosine_threshold,
        "stopword_digest": hashlib.sha256(json.dumps(sorted(stopwords)).encode("utf-8")).hexdigest(),
        "n_pairs": len(metrics),
    }


# --- row-by-row CSV tables ----------------------------------------------------


def naive_read_table(path, *columns):
    """``(data row number, cells)`` pairs through ``csv.DictReader``, one at a
    time; blank lines before the header are skipped."""
    with open(path, encoding="utf-8-sig", newline="") as text:
        lines = (line for line in text if not line.startswith("#"))
        header = next((row for row in csv.reader(lines) if row), None)
        if header is None:
            raise IngestError(f"{path} has no header row")
        reader = csv.DictReader(lines, fieldnames=header)
        missing = [c for c in columns if c is not None and c not in reader.fieldnames]
        if missing:
            raise IngestError(f"{path} has no column {', '.join(map(repr, missing))}")
        for row_no, row in enumerate(reader, start=1):
            if None in row or None in row.values():
                raise IngestError(f"{path}: data row {row_no} is not as wide as the header")
            yield row_no, row


def naive_load_employment(path) -> list:
    """Employment rows built one at a time, then checked: at least one row, and
    one at a time for a negative count and a repeated (iso3, year, sex, cell) key."""
    rows = []
    for row_no, row in list(naive_read_table(path, "iso3", "year", "sex", "cell_id", "count")):
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
    if not rows:
        raise IngestError(f"{path} has no data rows")
    seen = set()
    for row in rows:
        if row.count < 0:
            raise IngestError(f"negative employment count {row.count} for {row.iso3} {row.cell_id}")
        key = (row.iso3, row.year, row.sex, row.cell_id)
        if key in seen:
            raise IngestError(f"duplicate employment cell {key}")
        seen.add(key)
    return rows


def naive_load_cell_values(path):
    """(metric names, values per country, cell and metric in key order), one
    row at a time, keys stripped; the ``value`` column is required."""
    metrics = ()
    values = {}
    for row_no, row in list(naive_read_table(path, "iso3", "cell_id", "value")):
        metrics = tuple(c for c in row if c not in ("iso3", "cell_id"))
        iso3, cell = row["iso3"].strip(), row["cell_id"].strip()
        cells = values.setdefault(iso3, {})
        if cell in cells:
            raise IngestError(f"{path}: cell ({iso3}, {cell}) repeats in data row {row_no}")
        cells[cell] = {m: number(row[m], path, row_no, m) for m in metrics}
    if not values:
        raise IngestError(f"{path} has no data rows")
    return metrics, {iso3: dict(sorted(cells.items())) for iso3, cells in sorted(values.items())}


def cell_value_dicts(values: CellValues):
    """(metric names, values per country, cell and metric in key order) of a coded CellValues."""
    nested = {}
    for iso3, cell, row in zip(values.iso3.tolist(), values.cell.tolist(), values.matrix.tolist()):
        nested.setdefault(values.iso3s[iso3], {})[values.cell_ids[cell]] = dict(zip(values.metrics, row))
    return values.metrics, nested


# --- the reweight stage over dicts and (cell, share) tuples ---------------------------


@dataclass(frozen=True)
class NaiveVector:
    iso3: str
    sex: Sex
    year: int
    cells: tuple  # (cell_id, share) pairs in cell order


def naive_coverage_filter(rows, window=(2015, 2025), min_groups=8):
    """(totals, female, male, excluded) of the coverage rule over employment
    rows, one at a time: per (country, sex) the latest year in the window with
    at least ``min_groups`` positive cells, and for the female/male pair the
    latest such year common to both."""
    groups = {}  # (iso3, sex) -> {year: {cell: count}} over positive counts
    for row in rows:
        if row.count > 0:
            groups.setdefault((row.iso3, row.sex), {}).setdefault(row.year, {})[row.cell_id] = row.count

    def qualifying(iso3, sex):
        return {year: cells for year, cells in groups.get((iso3, sex), {}).items()
                if window[0] <= year <= window[1] and len(cells) >= min_groups}

    def vector(iso3, sex, year, cells):
        names = sorted(cells)
        try:
            total = math.fsum(cells[cell] for cell in names)
        except OverflowError:
            raise ValueOverflowError(f"{sex.value} employment counts for {iso3} in {year} overflow when summed") from None
        return NaiveVector(iso3, sex, year, tuple((cell, cells[cell] / total) for cell in names))

    totals, female, male, excluded = {}, {}, {}, {}
    for iso3 in sorted({iso3 for iso3, _ in groups}):
        years = qualifying(iso3, Sex.TOTAL)
        if years:
            totals[iso3] = vector(iso3, Sex.TOTAL, max(years), years[max(years)])
        elif (iso3, Sex.TOTAL) in groups:
            excluded[(iso3, "total")] = f"no year with >= {min_groups} positive cells in {window}"
        f_years, m_years = qualifying(iso3, Sex.FEMALE), qualifying(iso3, Sex.MALE)
        common = f_years.keys() & m_years.keys()
        if common:
            year = max(common)
            female[iso3] = vector(iso3, Sex.FEMALE, year, f_years[year])
            male[iso3] = vector(iso3, Sex.MALE, year, m_years[year])
        elif (iso3, Sex.FEMALE) in groups or (iso3, Sex.MALE) in groups:
            excluded[(iso3, "female/male")] = f"no common year with >= {min_groups} positive cells in {window}"
    return totals, female, male, excluded


def naive_employment_weighted_exposure(cell_values, weights, baseline=None):
    """(value, adjustment, dropped share) over a {cell: value} map."""
    usable = [(cell, share) for cell, share in sorted(weights.cells) if cell in cell_values]
    usable_mass = math.fsum(share for _, share in usable)
    if usable_mass <= 0:
        raise ReweightError(f"no usable weight mass for {weights.iso3}/{weights.sex.value}")
    value = math.fsum(share * cell_values[cell] for cell, share in usable) / usable_mass
    return value, None if baseline is None else value - baseline, 1.0 - usable_mass


def naive_gender_gap(cell_margin_values, female, male):
    """The gap per margin in percentage points over a {cell: {margin: value}} map."""
    female_cells = {cell for cell, _ in female.cells}
    male_cells = {cell for cell, _ in male.cells}
    if female_cells != male_cells:
        raise ReweightError(
            f"cell schemes differ between sexes for {female.iso3}: {sorted(female_cells ^ male_cells)}"
        )
    if female.year != male.year:
        raise ReweightError(f"female year {female.year} != male year {male.year} for {female.iso3}")
    usable = sorted(cell for cell in female_cells if cell in cell_margin_values)
    if not usable:
        raise ReweightError(f"no usable cells for {female.iso3}")

    def level(weights, margin):
        weight_map = dict(weights.cells)
        mass = math.fsum(weight_map[cell] for cell in usable)
        if mass <= 0:
            raise ReweightError(f"no employment mass on usable cells for {weights.iso3}/{weights.sex.value}")
        return math.fsum(weight_map[cell] / mass * cell_margin_values[cell][margin] for cell in usable)

    margins = sorted({m for cell in usable for m in cell_margin_values[cell]})
    female_levels = {m: level(female, m) for m in margins}
    male_levels = {m: level(male, m) for m in margins}
    gaps = {m: (female_levels[m] - male_levels[m]) * 100.0 for m in margins}
    for margin, gap in gaps.items():
        if not math.isfinite(gap):
            raise ValueOverflowError(f"{margin} gap for {female.iso3} overflows in percentage points")
    return gaps


def naive_gender_fe_panel(cell_margin_values, female, male):
    """(iso3, cell, y_pp, {margin: value x 10}) rows, one (country, cell) at a time."""
    rows = []
    for iso3 in sorted(set(female) & set(male) & set(cell_margin_values)):
        f_map, m_map, values = dict(female[iso3].cells), dict(male[iso3].cells), cell_margin_values[iso3]
        for cell in sorted(set(f_map) & set(m_map) & set(values)):
            x = {margin: values[cell][margin] * 10.0 for margin in sorted(values[cell])}
            for margin, scaled in x.items():
                if not math.isfinite(scaled):
                    raise ValueOverflowError(
                        f"{margin} value {values[cell][margin]!r} for {iso3} cell {cell} overflows when scaled by 10"
                    )
            rows.append((iso3, cell, (f_map[cell] - m_map[cell]) * 100.0, x))
    return rows


def naive_reweight_tables(coverage, metrics, values):
    """The four reweight tables from ``naive_coverage_filter``'s result and ``naive_load_cell_values``'."""
    totals, female, male, excluded = coverage
    if not (totals or female or male):
        excluded = [f"{iso3} ({sex}): {reason}" for (iso3, sex), reason in excluded.items()]
        detail = f"first: {excluded[0]}" if excluded else "no country has a positive count"
        raise ReweightError(f"coverage kept no employment weight vector ({len(excluded)} exclusions; {detail})")
    weights = [
        (iso3, kind, vector.year, cell, share)
        for kind, vectors in (("total", totals), ("female", female), ("male", male))
        for iso3, vector in sorted(vectors.items()) for cell, share in vector.cells
    ]
    adjust_rows = []
    for iso3, vector in sorted(totals.items()):
        if not any(cell in values.get(iso3, {}) for cell, _ in vector.cells):
            continue
        cell_values = {cell: cell_metrics["value"] for cell, cell_metrics in values[iso3].items()}
        try:
            baseline = math.fsum(cell_values[c] for c in sorted(cell_values)) / len(cell_values)
        except OverflowError:
            raise ValueOverflowError(f"equal-weight value baseline for {iso3} overflows") from None
        value, adjustment, dropped = naive_employment_weighted_exposure(cell_values, vector, baseline=baseline)
        adjust_rows.append((iso3, vector.year, baseline, value, adjustment, dropped))
    panel = naive_gender_fe_panel(values, female, male)
    gap_rows = []
    for iso3 in sorted(set(female) & set(male) & set(values)):
        try:
            gaps = naive_gender_gap(values[iso3], female[iso3], male[iso3])
        except ValueOverflowError:
            raise
        except ReweightError:
            continue
        gap_rows += [(iso3, female[iso3].year, margin, pp) for margin, pp in sorted(gaps.items())]
    panel_rows = [(iso3, cell, y_pp, *(x[m] for m in metrics)) for iso3, cell, y_pp, x in panel]
    return {
        "weights": (("iso3", "sex", "year", "cell_id", "share"), weights),
        "adjustments": (("iso3", "year", "baseline_equal_weight", "employment_weighted", "adjustment",
                         "dropped_share"), adjust_rows),
        "gender_gaps": (("iso3", "year", "margin", "gap_pp"), gap_rows),
        "fe_panel": (("iso3", "cell_id", "y_pp", *(f"x_{m}" for m in metrics)), panel_rows),
    }


def naive_read_features(path, outcome, features):
    """All rows first, then each feature column and the outcome, a cell at a time; no row is an error."""
    rows = list(naive_read_table(path, outcome, *features))
    if not rows:
        raise IngestError(f"{path} has no data rows")

    def column(name):
        return np.asarray([number(row[name], path, row_no, name) for row_no, row in rows], dtype=float)

    return np.column_stack([column(name) for name in features]), column(outcome)


def naive_matrix(path):
    """(key column, value columns, rows of floats with NaN for empty cells), a row at a time."""
    rows = list(naive_read_table(path))
    if not rows:
        raise IngestError(f"{path} has no data rows")
    key, *columns = rows[0][1]
    return key, columns, [[number(row[c], path, n, c) if row[c] != "" else math.nan for c in columns] for n, row in rows]


def naive_write_csv(fieldnames, rows, fmt, path) -> str:
    """The CSV text of ``rows`` through ``csv.DictWriter``, each cell through ``fmt``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: fmt(row.get(k), path, k) for k in fieldnames})
    return buf.getvalue()


# --- whole-table employment loading -------------------------------------------------------


def employment_table_from_columns(iso3, year, sex, cell_id, count) -> EmploymentTable:
    """An EmploymentTable from one value per row, sex as a code into SEXES,
    each key column factorized as a whole."""
    (iso3_codes, iso3s), (year_codes, years), (cell_codes, cell_ids) = map(factorize, (iso3, year, cell_id))
    return EmploymentTable(
        tuple(iso3s.tolist()), tuple(years.tolist()), tuple(cell_ids.tolist()),
        iso3_codes, year_codes, np.asarray(sex, np.int8), cell_codes, np.asarray(count, float),
    )


def employment_table(rows) -> EmploymentTable:
    """An EmploymentTable of EmploymentRow values."""
    rows = list(rows)
    return employment_table_from_columns(
        [r.iso3 for r in rows], [r.year for r in rows], [SEXES.index(r.sex) for r in rows],
        [r.cell_id for r in rows], [r.count for r in rows],
    )


def columns_load_employment(path) -> EmploymentTable:
    """The employment loader over the whole table's text columns: every cell
    read by ``read_columns`` first, then checked and coded column by column."""
    table = read_columns(path, "iso3", "year", "sex", "cell_id", "count")
    sex_texts = table.cells["sex"]
    codes = {sex.value: code for code, sex in enumerate(SEXES)}
    sex = np.fromiter((codes.get(text, -1) for text in map(str.strip, sex_texts)), np.int8, len(table))
    years, refused_year = table.parsed("year", int)
    counts, refused_count = table.parsed("count")

    def check_sex(row: int) -> None:
        try:
            Sex(sex_texts[row].strip())
        except ValueError:
            raise IngestError(f"unknown sex '{sex_texts[row]}' (expected total/female/male)") from None

    unknown = np.flatnonzero(sex < 0)
    raise_first(
        [int(unknown[0]) if len(unknown) else None, refused_year, refused_count],
        [check_sex, lambda row: table.number(row, "year", int), lambda row: table.number(row, "count")],
    )
    if not len(table):
        raise IngestError(f"{path} has no data rows")
    try:
        return employment_table_from_columns(
            list(map(str.strip, table.cells["iso3"])), years, sex, list(map(str.strip, table.cells["cell_id"])), counts
        )
    except ReweightError as exc:
        raise IngestError(str(exc)) from None


# --- helpers that only tests call ------------------------------------------------------------


def parse_labels(stream, fmt: str = "jsonl"):
    """(rows, report) of the syntactic pass over a label stream: ``(line_number,
    field_map)`` pairs in input order, malformed rows in the report."""
    report = ParseReport()
    rows = list(ingest._parsed_rows(stream, fmt, report))
    return rows, report


def deduplicate(records, provenance: tuple[tuple[str, str], ...] = ()) -> LabelDataset:
    """One record per (country, task_id); duplicate rows collapse to field modes."""
    return LabelDataset(ingest._merge_duplicates(LabelColumns.from_records(records)), provenance)


def summary_by_country(dataset: LabelDataset) -> dict[str, dict]:
    """Each country's row of country_summary.csv by column name, from ``aggregate.summary_rows``."""
    header, columns = summary_rows(dataset.countries(), summarize_all(dataset))
    return {row[0]: dict(zip(header, row)) for row in zip(*columns)}


def predict_one(forest: Forest, x) -> float:
    """The forest's prediction for one row."""
    return float(forest.predict(np.asarray(x, dtype=np.float64)[None, :])[0])


def shap_total(result: AttributionResult):
    """base + sum of values: a float for one row, one per row for a matrix."""
    return result.base_value + result.values.sum(axis=-1)


def graph_divisions(graph: IndustryGraph) -> list[str]:
    """The graph's ISIC divisions, sorted."""
    return sorted({graph.division(c) for c in set(graph.edges.isic4)})


#: the columns of industry_summary.csv after iso3 and division
REFERENCE_INDUSTRY_COLUMNS = (
    "value", "exposed_share", "margin_within_substitute", "margin_within_augment", "margin_within_both",
    "ai_material_share_exposed", "n_tasks",
)


def reference_industry_rows(dataset: LabelDataset, countries, graph: IndustryGraph) -> tuple:
    """industry_summary.csv as (field names, rows), one edge and one record
    at a time: per country in the given order, per division (the class's
    ``division_map`` entry, else its first two characters) with a class that
    some of the country's labelled tasks link to, in sorted order, the
    ``math.fsum`` mean over those classes of each class share that is
    defined, None where none is, and the division's linked-task count."""
    override = graph.provenance.get("division_map", {})
    rows = []
    for iso3 in countries:
        if not len(graph.edges):
            raise LinkageError("industry graph has no retained edges")
        labels = {record.task_id: record for record in row_views(dataset.for_country(iso3))}
        if not labels:
            raise LinkageError(f"no labels for country {iso3!r}")
        linked: dict[str, list] = {}  # class -> the records of its labelled tasks
        for task_id, isic4 in zip(graph.edges.task_id, graph.edges.isic4):
            if task_id in labels:
                linked.setdefault(isic4, []).append(labels[task_id])
        divisions: dict[str, list] = {}  # division -> the cells of its linked classes
        for isic4, records in sorted(linked.items()):
            exposed = [r for r in records if is_exposed(r.exposure)]
            known = [r for r in exposed if r.margin is not Margin.UNCLEAR]
            divisions.setdefault(override.get(isic4, isic4[:2]), []).append({
                "value": math.fsum(r.exposure for r in records) / len(records),
                "exposed_share": len(exposed) / len(records),
                **{f"margin_within_{m.value}": sum(r.margin is m for r in known) / len(known) if known else None
                   for m in (Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH)},
                "ai_material_share_exposed": sum(r.ai_material for r in exposed) / len(exposed) if exposed else None,
                "n_tasks": len(records),
            })
        if not divisions:
            raise LinkageError(f"no division has a retained class with labels for {iso3}")
        for division, cells in sorted(divisions.items()):
            means = []
            for name in REFERENCE_INDUSTRY_COLUMNS[:-1]:
                values = [cell[name] for cell in cells if cell[name] is not None]
                means.append(math.fsum(values) / len(values) if values else None)
            rows.append((iso3, division, *means, sum(cell["n_tasks"] for cell in cells)))
    return ("iso3", "division", *REFERENCE_INDUSTRY_COLUMNS), rows

def _fixture_path(fixture_dir, *parts: str) -> Path:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return Path(fixture_dir) / f"{digest}.json"


def record_embedding(fixture_dir, text: str, vector) -> None:
    """A replay embedding fixture: ``<sha256 of the text>.json`` holding the vector."""
    _fixture_path(fixture_dir, text).write_text(json.dumps([float(v) for v in vector]), encoding="utf-8")


def record_vote(fixture_dir, task_text: str, activity_text: str, ballot: int, valid: bool) -> None:
    """A replay vote fixture, keyed by the sha256 of the texts and the ballot index joined by 0x1f."""
    _fixture_path(fixture_dir, task_text, activity_text, str(ballot)).write_text(
        json.dumps(bool(valid)), encoding="utf-8"
    )


def uniform_weights(tasks_by_occupation) -> SocPairs:
    """Equal weights over each occupation's tasks."""
    weights = {}
    for soc in sorted(tasks_by_occupation):
        tasks = sorted(tasks_by_occupation[soc])
        weights[soc] = tuple((t, 1.0 / len(tasks)) for t in tasks)
    return soc_pairs("task weight", weights)


# --- the occupation path over dicts of (member, value) pairs ---------------------------------


def soc_pairs(what: str, pairs_by_soc) -> SocPairs:
    """The coded SocPairs of a {soc: ((member, value), ...)} map, whose members do not repeat within a SOC."""
    socs = sorted(pairs_by_soc)
    members = sorted({member for pairs in pairs_by_soc.values() for member, _ in pairs})
    rows = sorted((socs.index(soc), members.index(member), value)
                  for soc, pairs in pairs_by_soc.items() for member, value in pairs)
    soc, member, value = (np.array([row[k] for row in rows], dtype)
                          for k, dtype in enumerate((np.int64, np.int64, float)))
    return SocPairs(what, tuple(socs), tuple(members), soc, member, value)


def soc_pair_dict(pairs: SocPairs) -> dict:
    """The {soc: ((member, value), ...)} view of a coded SocPairs, SOCs and members in sorted order."""
    view = {}
    for soc, member, value in zip(pairs.soc.tolist(), pairs.member.tolist(), pairs.value.tolist()):
        view.setdefault(pairs.socs[soc], []).append((pairs.members[member], value))
    return {soc: tuple(members) for soc, members in view.items()}


def reference_check_pairs(what: str, pairs_by_soc) -> None:
    """SocPairs' checks over a {soc: pairs} map in SOC order: a task weight
    map must have a SOC, and each SOC's values must be non-negative and sum to 1."""
    if not pairs_by_soc and what == "task weight":
        raise LinkageError("task weight map has no occupations")
    for soc, pairs in pairs_by_soc.items():
        if any(v < 0 for _, v in pairs):
            raise LinkageError(f"negative {what} for occupation {soc}")
        try:
            total = math.fsum(v for _, v in pairs)
        except OverflowError:
            total = math.inf
        if abs(total - 1.0) > 1e-9:
            raise LinkageError(f"{what}s for occupation {soc} sum to {total}, not 1")


def naive_read_soc_pairs(path, what: str) -> dict:
    """A soc, member, value table as a {soc: ((member, value), ...)} map in
    sorted order, read one row at a time with keys stripped; a repeated (SOC,
    member) pair is refused before a value in its row, and the map is then
    checked by ``reference_check_pairs``."""
    member, value = SOC_TABLES[what]
    pairs = {}
    for row_no, row in list(naive_read_table(path, "soc", member, value)):
        soc, key = row["soc"].strip(), row[member].strip()
        values = pairs.setdefault(soc, {})
        if key in values:
            raise IngestError(f"{path}: (soc, {member}) pair ({soc}, {key}) repeats in data row {row_no}")
        values[key] = number(row[value], path, row_no, value)
    pairs = {soc: tuple(sorted(values.items())) for soc, values in sorted(pairs.items())}
    reference_check_pairs(what, pairs)
    return pairs


def reference_modal(bridge) -> dict:
    """Each SOC's largest-share group at 1.0, ties to the smallest group id."""
    return {soc: ((min(pairs, key=lambda p: (-p[1], p[0]))[0], 1.0),) for soc, pairs in bridge.items()}


#: the columns of occupation_summary.csv after iso3 and soc, and those carried into ISCO groups
REFERENCE_SOC_COLUMNS = (
    "value", "exposed_share", "high_share", "margin_substitute", "margin_augment", "margin_both",
    *(f"channel_{c.value}" for c in Channel if c is not Channel.NONE), "ai_material_share", "dropped_weight",
)
REFERENCE_ISCO_METRICS = ("value", "exposed_share", "margin_substitute", "margin_augment", "margin_both")


def reference_soc_cells(dataset, iso3: str, weights) -> dict:
    """Per SOC of a {soc: pairs} map in sorted order, its cell by column name,
    one (task, weight) pair at a time; a task without a label weighs nothing."""
    labels = {record.task_id: record for record in row_views(dataset.for_country(iso3))}
    if not labels:
        raise LinkageError(f"no labels for country {iso3!r}")
    tests = {
        "value": lambda r: r.exposure,
        "exposed_share": lambda r: is_exposed(r.exposure),
        "high_share": lambda r: r.exposure == 3,
        **{f"margin_{m.value}": (lambda r, m=m: r.margin is m)
           for m in (Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH)},
        **{f"channel_{c.value}": (lambda r, c=c: r.channel is c) for c in Channel if c is not Channel.NONE},
        "ai_material_share": lambda r: r.ai_material and is_exposed(r.exposure),
    }
    cells = {}
    for soc, pairs in sorted(weights.items()):
        present = [(labels[task], w) for task, w in pairs if task in labels]
        usable = math.fsum(w for _, w in present)
        if usable <= 0:
            raise LinkageError(f"occupation {soc} has zero usable weight mass for {iso3}")
        cells[soc] = {name: math.fsum(w * test(r) for r, w in present) / usable for name, test in tests.items()}
        cells[soc]["dropped_weight"] = 1.0 - usable
    return cells


def reference_isco(soc_values, bridge) -> dict:
    """Per ISCO group reached by a positive share, in sorted order: the
    share-weighted mean of its incoming SOC values."""
    incoming = {}
    for soc in sorted(soc_values):
        if soc not in bridge:
            raise LinkageError(f"occupation {soc} has no bridge row")
        for isco, share in bridge[soc]:
            if share > 0:
                incoming.setdefault(isco, []).append((soc, share))
    return {isco: math.fsum(share * soc_values[soc] for soc, share in pairs) / math.fsum(s for _, s in pairs)
            for isco, pairs in sorted(incoming.items())}


def reference_occupation_tables(dataset, countries, weights, bridge=None, top_pockets=None) -> dict:
    """``link apply``'s occupation tables by name, as (field names, rows),
    from {soc: pairs} maps: the SOC cells per country, then through a bridge
    each ISCO metric per country and group, and the pockets per margin
    ranked by exposed x within-exposed margin share, ties on the group id."""
    reference_check_pairs("task weight", weights)
    cells = {iso3: reference_soc_cells(dataset, iso3, weights) for iso3 in countries}
    tables = {"occupation_summary": (("iso3", "soc", *REFERENCE_SOC_COLUMNS), [
        (iso3, soc, *(cell[name] for name in REFERENCE_SOC_COLUMNS))
        for iso3 in countries for soc, cell in cells[iso3].items()
    ])}
    if bridge is None:
        return tables
    isco = {}  # iso3 -> group -> metric -> value
    for iso3 in countries:
        by_metric = {name: reference_isco({soc: cell[name] for soc, cell in cells[iso3].items()}, bridge)
                     for name in REFERENCE_ISCO_METRICS}
        isco[iso3] = {g: {name: by_metric[name][g] for name in REFERENCE_ISCO_METRICS} for g in by_metric["value"]}
    tables["isco_summary"] = (("iso3", "isco", *REFERENCE_ISCO_METRICS), [
        (iso3, g, *metrics.values()) for iso3, groups in isco.items() for g, metrics in groups.items()
    ])
    pockets = []
    for margin in ("augment", "substitute"):
        ranked = []
        for g in sorted({g for groups in isco.values() for g in groups}):
            rows = [groups[g] for groups in isco.values() if g in groups]
            within = [r[f"margin_{margin}"] / r["exposed_share"] for r in rows if r["exposed_share"] > 0]
            if within:
                exposed = math.fsum(r["exposed_share"] for r in rows) / len(rows)
                ranked.append((g, exposed, math.fsum(within) / len(within)))
        ranked.sort(key=lambda p: (-(p[1] * p[2]), p[0]))
        if top_pockets is not None:
            ranked = ranked[:top_pockets]
        pockets += [(margin, rank, g, e, m, e * m) for rank, (g, e, m) in enumerate(ranked, start=1)]
    tables["pockets_occupation"] = (
        ("margin", "rank", "isco", "exposed_share", "margin_share", "product"), pockets)
    return tables


# --- link artifacts and pruning, one object per edge ----------------------------------------


@dataclass(frozen=True)
class ReferenceCandidate:
    task_id: str
    isic4: str
    similarity: float


@dataclass(frozen=True)
class ReferenceEdge:
    task_id: str
    isic4: str
    similarity: float
    votes: tuple[bool, ...]

    @property
    def agreement(self) -> float:
        valid = sum(self.votes)
        return max(valid, len(self.votes) - valid) / len(self.votes)

    @property
    def retained(self) -> bool:
        return sum(self.votes) * 2 > len(self.votes)


def edge_records(edges: EdgeColumns) -> list:
    """Each edge of ``edges`` as a ReferenceCandidate, or a ReferenceEdge when it holds ballots."""
    rows = zip(edges.task_id, edges.isic4, edges.similarity.tolist())
    if edges.votes is None:
        return [ReferenceCandidate(*row) for row in rows]
    return [ReferenceEdge(*row, tuple(votes)) for row, votes in zip(rows, edges.votes.tolist())]


def reference_write_edges(path, meta, records) -> None:
    """A link artifact as json.dumps writes it: a meta line, then each record's fields."""
    lines = [json.dumps({"meta": meta}, sort_keys=True, separators=(",", ":"), allow_nan=False)]
    lines += [json.dumps(vars(record), separators=(",", ":"), allow_nan=False) for record in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_REFERENCE_STRING = ("str", lambda value: isinstance(value, str))
_REFERENCE_NUMBER = (
    "finite number", lambda value: value.__class__ in (int, float) and abs(value) <= sys.float_info.max
)
_REFERENCE_FIELDS = {"task_id": _REFERENCE_STRING, "isic4": _REFERENCE_STRING, "similarity": _REFERENCE_NUMBER}
_REFERENCE_VOTES = ("list of bool", lambda value: isinstance(value, list) and all(v.__class__ is bool for v in value))
_REFERENCE_META = {
    "top_k": _REFERENCE_NUMBER, "floor": _REFERENCE_NUMBER, "embedder": _REFERENCE_STRING,
    "division_map": (
        "object of str", lambda value: isinstance(value, dict) and all(isinstance(v, str) for v in value.values())
    ),
}


def reference_read_edges(path, graph: bool) -> tuple[dict, list]:
    """The meta object and the records of a candidates file (a graph file with
    ``graph``), read line by line: each line through json_value, then each
    field through its test."""
    from taskatlas.files import json_value

    fields = {**_REFERENCE_FIELDS, "votes": _REFERENCE_VOTES} if graph else _REFERENCE_FIELDS
    meta_names = ("division_map",) if graph else ("top_k", "floor", "embedder")
    meta: Optional[dict] = None
    records = []
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            obj = json_value(line, f"{path}: line {line_no}")
            if meta is None:
                meta = obj.get("meta") if isinstance(obj, dict) else None
                if not isinstance(meta, dict):
                    raise LinkageError(f"{path}: line {line_no} is not a meta line")
                obj, checks = meta, {name: _REFERENCE_META[name] for name in meta_names if name in meta}
            else:
                records.append(obj)
                checks = fields
            for name, (kind, test) in checks.items():
                if not test(obj.get(name) if isinstance(obj, dict) else None):
                    raise LinkageError(f"{path}: line {line_no} has no valid {name!r} ({kind})")
    if meta is None:
        raise LinkageError(f"{path} has no meta line")
    if not graph:
        return meta, [ReferenceCandidate(r["task_id"], r["isic4"], float(r["similarity"])) for r in records]
    edges = [ReferenceEdge(r["task_id"], r["isic4"], float(r["similarity"]), tuple(r["votes"])) for r in records]
    if len({(e.task_id, e.isic4) for e in edges}) != len(edges):
        raise LinkageError("duplicate edges in industry graph")
    return meta, edges


@dataclass(frozen=True)
class Tally:
    """Every voted edge of a prune, in class then task order."""

    voted: tuple[ReferenceEdge, ...]

    def __post_init__(self):
        if len({(e.task_id, e.isic4) for e in self.retained}) != self.n_retained:
            raise LinkageError("duplicate edges in industry graph")

    @property
    def retained(self) -> tuple[ReferenceEdge, ...]:
        return tuple(e for e in self.voted if e.retained)

    @property
    def n_candidates(self) -> int:
        return len(self.voted)

    @property
    def n_retained(self) -> int:
        return len(self.retained)

    @property
    def mean_agreement(self) -> float:
        return math.fsum(e.agreement for e in self.voted) / len(self.voted) if self.voted else 0.0


def reference_prune(candidates, voter, task_texts, activity_texts, votes_per_edge: int = 3, retries: int = 2) -> Tally:
    """Majority-vote pruning one edge object at a time: per candidate in
    (class, task) order, its texts looked up, then each ballot asked for, a
    ProviderError retried up to ``retries`` times."""
    if votes_per_edge < 1 or votes_per_edge % 2 == 0:
        raise LinkageError("votes_per_edge must be an odd count >= 1")
    voted = []
    for edge in sorted(candidates, key=lambda e: (e.isic4, e.task_id)):
        if edge.task_id not in task_texts or edge.isic4 not in activity_texts:
            raise LinkageError(f"candidate edge ({edge.task_id}, {edge.isic4}) has no task or activity text")
        ballots = []
        for ballot in range(votes_per_edge):
            errors = []
            while len(errors) <= retries:
                try:
                    ballots.append(bool(voter.vote(task_texts[edge.task_id], activity_texts[edge.isic4], ballot)))
                    break
                except ProviderError as exc:
                    errors.append(exc)
            else:
                raise ProviderError(f"voter failed {retries + 1} times on edge ({edge.task_id}, {edge.isic4}): {errors[-1]}")
        voted.append(ReferenceEdge(edge.task_id, edge.isic4, edge.similarity, tuple(ballots)))
    return Tally(tuple(voted))


def tally_votes(vote_log, similarities=None) -> PruneResult:
    """Prune from an existing vote log of (task_id, isic4, ballots) triples:
    :func:`prune_edges` replays the log, each id standing for its own text and
    each ballot answered from the log."""
    ballots_of = {(task_id, isic4): [bool(b) for b in ballots] for task_id, isic4, ballots in vote_log}
    if not ballots_of:
        raise LinkageError("empty vote log")
    if len(ballots_of) != len(vote_log) or len({len(ballots) for ballots in ballots_of.values()}) != 1:
        raise LinkageError("a vote log holds each edge once, all with as many ballots")

    class LoggedVoter:
        def vote(self, task_text, activity_text, ballot):
            return ballots_of[task_text, activity_text][ballot]

    keys = list(ballots_of)
    sims = [similarities.get(key, math.nan) if similarities else math.nan for key in keys]
    candidates = EdgeColumns([t for t, _ in keys], [c for _, c in keys], np.array(sims, dtype=np.float64))
    texts = {key: key for key in candidates.task_id + candidates.isic4}
    return prune_edges(candidates, LoggedVoter(), texts, texts, votes_per_edge=len(ballots_of[keys[0]]), retries=0)


def margin_known_exposed_share(summary) -> float:
    """The share of a country's tasks that are exposed with a definite margin, from its country_summary.csv row."""
    return summary["n_margin_known_exposed"] / summary["n_tasks"] if summary["n_tasks"] else 0.0
