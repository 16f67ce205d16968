import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record, random_dataset, random_records
from oracles import (
    deduplicate,
    margin_known_exposed_share,
    naive_counts,
    reference_deviation_rows,
    reference_distribution_check,
    reference_group_rows,
    reference_summaries,
    reference_summary_rows,
    reference_transition_rows,
    row_views,
    summary_by_country,
)
from taskatlas.aggregate import (
    STATE_ORDER,
    AggregateError,
    PathwayState,
    benchmark_deviation,
    deviation_rows,
    group_rows,
    group_summary,
    modal_pathway_states,
    summarize_all,
    summary_rows,
    transition_rows,
)
from taskatlas.core import AiFunction, Channel, CountryContext, IncomeGroup, InputError, Margin, income_tag
from taskatlas.validate import distribution_check

DEFINITE = ("substitute", "augment", "both")


def ten_task_fixture():
    # 4 exposed: 2 substitute, 1 both, 1 augment; 6 below threshold
    records = [
        make_record("t0", exposure=2, margin=Margin.SUBSTITUTE),
        make_record("t1", exposure=3, margin=Margin.SUBSTITUTE),
        make_record("t2", exposure=2, margin=Margin.BOTH),
        make_record("t3", exposure=2, margin=Margin.AUGMENT),
    ] + [make_record(f"t{i}", exposure=i % 2, channel=Channel.NONE) for i in range(4, 10)]
    return deduplicate(records)


def shares(summary, prefix, names):
    return {name: summary[f"{prefix}{name}"] for name in names}


class TestCountrySummary:
    def test_hand_counted_fixture(self):
        summary = summary_by_country(ten_task_fixture())["AAA"]
        assert summary["exposed_share"] == pytest.approx(0.4)
        assert summary["margin_within_substitute"] == pytest.approx(0.5)
        assert summary["margin_within_both"] == pytest.approx(0.25)
        assert summary["margin_within_augment"] == pytest.approx(0.25)

    def test_all_level_zero(self):
        dataset = deduplicate([make_record(f"t{i}", exposure=0, channel=Channel.NONE) for i in range(5)])
        summary = summary_by_country(dataset)["AAA"]
        assert summary["exposed_share"] == 0.0
        assert set(shares(summary, "margin_within_", DEFINITE).values()) == {None}
        assert {summary[f"channel_{c.value}"] for c in Channel if c is not Channel.NONE} == {None}

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_naive_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dataset = deduplicate(random_records(rng, int(rng.integers(5, 100)), unclear_rate=0.2))
        summary = summary_by_country(dataset)["AAA"]
        oracle = naive_counts(row_views(dataset.for_country("AAA")))
        assert summary["exposed_share"] == oracle["exposed_share"]
        assert summary["high_share"] == oracle["high_share"]
        for margin in DEFINITE:
            assert summary[f"margin_all_{margin}"] == oracle[f"all_{margin}"]
            assert summary[f"margin_within_{margin}"] == oracle[f"within_{margin}"]
        assert summary["ai_material_share_exposed"] == oracle["ai_share"]
        for channel in Channel:
            if channel is not Channel.NONE:
                assert summary[f"channel_{channel.value}"] == oracle[f"channel_{channel.value}"]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_denominator_identity(self, seed):
        # margin_all = margin-known exposed share x within share, exactly
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, {"AAA": 60}, unclear_rate=0.25)
        summary = summary_by_country(dataset)["AAA"]
        if summary["margin_within_both"] is None:
            return
        for margin in DEFINITE:
            assert summary[f"margin_all_{margin}"] == pytest.approx(
                margin_known_exposed_share(summary) * summary[f"margin_within_{margin}"], abs=1e-12
            )

    def test_within_shares_sum_to_one(self, rng):
        dataset = random_dataset(rng, {"AAA": 80}, unclear_rate=0.3)
        summary = summary_by_country(dataset)["AAA"]
        assert abs(math.fsum(shares(summary, "margin_within_", DEFINITE).values()) - 1.0) < 1e-9

    def test_channel_shares_at_most_one(self, rng):
        dataset = random_dataset(rng, {"AAA": 80})
        summary = summary_by_country(dataset)["AAA"]
        active = [c.value for c in Channel if c is not Channel.NONE]
        assert math.fsum(shares(summary, "channel_", active).values()) <= 1.0 + 1e-9

    def test_ai_function_mix_sums_to_one(self, rng):
        dataset = random_dataset(rng, {"AAA": 120})
        summary = summary_by_country(dataset)["AAA"]
        mix = shares(summary, "ai_function_", [f.value for f in AiFunction if f is not AiFunction.NONE])
        if None not in mix.values():
            assert abs(math.fsum(mix.values()) - 1.0) < 1e-9

    def test_summarize_all_matches_per_country_scan(self, rng):
        dataset = random_dataset(rng, {"CCC": 40, "AAA": 40, "BBB": 40})
        summaries = summarize_all(dataset)
        assert len(summaries) == 3
        assert list(summary_by_country(dataset)) == ["AAA", "BBB", "CCC"]
        expected = reference_summary_rows(reference_summaries(dataset))
        assert repr(summary_rows(dataset.countries(), summaries)) == repr(expected)


REGISTRY = {
    "AAA": CountryContext("AAA", "A", IncomeGroup.LOW, "Sub-Saharan Africa"),
    "BBB": CountryContext("BBB", "B", IncomeGroup.LOW, "Sub-Saharan Africa"),
    "CCC": CountryContext("CCC", "C", IncomeGroup.HIGH, "North America"),
}


class TestGroupSummary:
    def _dataset(self, exposed_shares):
        records = []
        for iso3, share in exposed_shares.items():
            n_exposed = int(share * 10)
            records += [
                make_record(f"t{i}", country=iso3, exposure=2, margin=Margin.BOTH) for i in range(n_exposed)
            ] + [
                make_record(f"t{i}", country=iso3, exposure=0, channel=Channel.NONE) for i in range(n_exposed, 10)
            ]
        return deduplicate(records)

    def _groups(self, exposed_shares, reverse=False):
        """group_summary of the countries (in reverse order if asked) as {group: {column: value}}."""
        dataset = self._dataset(exposed_shares)
        countries, summaries = dataset.countries(), summarize_all(dataset)
        if reverse:
            countries, summaries = countries[::-1], summaries[::-1]
        header, columns = group_summary(countries, summaries, REGISTRY)
        return {row[0]: dict(zip(header, row)) for row in zip(*columns)}

    def test_mean_of_two(self):
        groups = self._groups({"AAA": 0.2, "BBB": 0.4})
        assert groups["low"]["exposed_share"] == pytest.approx(0.3)
        assert groups["low"]["n_countries"] == 2

    def test_singleton_identity(self):
        groups = self._groups({"CCC": 0.7})
        assert groups["high"]["exposed_share"] == pytest.approx(0.7)

    def test_unregistered_country_errors(self):
        with pytest.raises(AggregateError, match="country ZZZ is not registered"):
            self._groups({"ZZZ": 0.2})

    def test_order_invariance(self):
        exposed_shares = {"AAA": 0.2, "BBB": 0.4, "CCC": 0.6}
        assert self._groups(exposed_shares) == self._groups(exposed_shares, reverse=True)


def test_unknown_grouping_field_is_refused():
    dataset = ten_task_fixture()
    for call in (lambda: group_summary(dataset.countries(), summarize_all(dataset), REGISTRY, "gdp_per_capita"),
                 lambda: distribution_check(dataset, REGISTRY, "gdp_per_capita")):
        with pytest.raises(InputError, match="unknown grouping field 'gdp_per_capita'"):
            call()


def modal_states(dataset, countries):
    """modal_pathway_states as ({task_id: PathwayState}, anomalies), tasks without a vote left out."""
    states, anomalies = modal_pathway_states(dataset, countries)
    task_ids = dataset.columns.task_ids
    return {task: STATE_ORDER[s] for task, s in zip(task_ids.tolist(), states.tolist()) if s >= 0}, anomalies


class TestPathwayState:
    @pytest.mark.parametrize(
        "exposure, margin, state",
        [
            (1, Margin.SUBSTITUTE, PathwayState.NOT_EXPOSED),
            (0, Margin.UNCLEAR, PathwayState.NOT_EXPOSED),
            (2, Margin.SUBSTITUTE, PathwayState.SUBSTITUTE),
            (3, Margin.AUGMENT, PathwayState.AUGMENT),
            (3, Margin.BOTH, PathwayState.BOTH),
        ],
    )
    def test_one_record_state(self, exposure, margin, state):
        dataset = deduplicate([make_record("t", exposure=exposure, margin=margin)])
        assert modal_states(dataset, ["AAA"]) == ({"t": state}, 0)

    def test_exposed_unclear_is_anomaly(self):
        dataset = deduplicate([make_record("t", exposure=2, margin=Margin.UNCLEAR)])
        states, anomalies = modal_pathway_states(dataset, ["AAA"])
        assert states.tolist() == [-1] and anomalies == 1


class TestUnregisteredDataset:
    """A registry that names none of the dataset's countries is an error, not an empty table."""

    DATASET = deduplicate([make_record("t", country="ZZZ")])
    CALLS = {
        "group_rows": lambda dataset: group_rows(dataset.countries(), summarize_all(dataset), REGISTRY, "income_group"),
        "transition_rows": lambda dataset: transition_rows(dataset, REGISTRY),
        "deviation_rows": lambda dataset: deviation_rows(dataset, dataset, REGISTRY),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_raises(self, call):
        with pytest.raises(AggregateError, match="names none of the dataset's 1 countries"):
            self.CALLS[call](self.DATASET)


def transitions(states_a, states_b):
    """transitions.csv's (counts, shares) matrices between AAA (low) with the
    per-task states ``states_a`` and CCC (high) with ``states_b``, each task's
    state given by its one record."""

    def record(task, country, state):
        if state is PathwayState.NOT_EXPOSED:
            return make_record(task, country=country, exposure=0, channel=Channel.NONE)
        return make_record(task, country=country, exposure=2, margin=Margin(state.value))

    records = [record(t, "AAA", s) for t, s in states_a.items()] + [record(t, "CCC", s) for t, s in states_b.items()]
    _, columns = transition_rows(deduplicate(records), REGISTRY)
    counts, shares = np.zeros((4, 4), np.int64), np.zeros((4, 4))
    for src, dst, s_from, s_to, count, share in zip(*columns):
        assert (src, dst) == ("low", "high")
        counts[STATE_ORDER.index(s_from), STATE_ORDER.index(s_to)] = count
        shares[STATE_ORDER.index(s_from), STATE_ORDER.index(s_to)] = share
    return counts, shares


class TestTransitionMatrix:
    def test_identity_on_identical_inputs(self):
        states = {
            "t1": PathwayState.NOT_EXPOSED,
            "t2": PathwayState.SUBSTITUTE,
            "t3": PathwayState.BOTH,
        }
        _, shares = transitions(states, states)
        occupied = {PathwayState.NOT_EXPOSED: 0, PathwayState.SUBSTITUTE: 1, PathwayState.BOTH: 3}
        for state, i in occupied.items():
            assert shares[i, i] == 1.0
        assert shares[2].sum() == 0.0  # augment row empty

    def test_hand_computed_four_tasks(self):
        a = {
            "t1": PathwayState.NOT_EXPOSED,
            "t2": PathwayState.NOT_EXPOSED,
            "t3": PathwayState.SUBSTITUTE,
            "t4": PathwayState.BOTH,
        }
        b = dict(a)
        b["t2"] = PathwayState.SUBSTITUTE
        _, shares = transitions(a, b)
        assert shares[0, 0] == pytest.approx(0.5)
        assert shares[0, 1] == pytest.approx(0.5)
        assert shares[1, 1] == 1.0
        assert shares[3, 3] == 1.0

    def test_rows_sum_to_one_for_occupied_sources(self, rng):
        tasks = [f"t{i}" for i in range(50)]
        a = {t: STATE_ORDER[int(rng.integers(0, 4))] for t in tasks}
        b = {t: STATE_ORDER[int(rng.integers(0, 4))] for t in tasks}
        counts, shares = transitions(a, b)
        assert counts.sum() == 50
        for i in range(4):
            if counts[i].sum() > 0:
                assert shares[i].sum() == pytest.approx(1.0, abs=1e-9)

    def test_permuted_task_order_same_matrix(self, rng):
        tasks = [f"t{i}" for i in range(20)]
        a = {t: STATE_ORDER[int(rng.integers(0, 4))] for t in tasks}
        b = {t: STATE_ORDER[int(rng.integers(0, 4))] for t in tasks}
        shuffled_a = dict(sorted(a.items(), reverse=True))
        assert np.array_equal(transitions(a, b)[1], transitions(shuffled_a, b)[1])

    def test_tasks_without_a_state_in_both_groups_are_left_out(self):
        counts, _ = transitions({"t1": PathwayState.BOTH, "t3": PathwayState.AUGMENT},
                                {"t2": PathwayState.BOTH, "t3": PathwayState.SUBSTITUTE})
        assert counts.sum() == 1 and counts[2, 1] == 1

    def test_modal_states_tie_break(self):
        records = [
            make_record("t1", country="AAA", exposure=2, margin=Margin.SUBSTITUTE),
            make_record("t1", country="BBB", exposure=2, margin=Margin.AUGMENT),
        ]
        modal, _ = modal_states(deduplicate(records), ["AAA", "BBB"])
        assert modal["t1"] is PathwayState.AUGMENT  # "augment" < "substitute"


class TestPolarisation:
    def test_formula_substitution(self):
        # within shares (sub, aug, both) = (0.3, 0.2, 0.5)
        records = (
            [make_record(f"s{i}", exposure=2, margin=Margin.SUBSTITUTE) for i in range(3)]
            + [make_record(f"a{i}", exposure=2, margin=Margin.AUGMENT) for i in range(2)]
            + [make_record(f"b{i}", exposure=2, margin=Margin.BOTH) for i in range(5)]
        )
        summary = summary_by_country(deduplicate(records))["AAA"]
        assert summary["polarisation_p"] == pytest.approx(0.5)
        assert summary["tilt_t"] == pytest.approx(0.6)

    def test_all_both_boundary(self):
        records = [make_record(f"b{i}", exposure=2, margin=Margin.BOTH) for i in range(4)]
        summary = summary_by_country(deduplicate(records))["AAA"]
        assert summary["polarisation_p"] == 0.0
        assert summary["tilt_t"] is None

    def test_no_exposed_has_no_polarisation(self):
        dataset = deduplicate([make_record("t", exposure=0, channel=Channel.NONE)])
        summary = summary_by_country(dataset)["AAA"]
        assert summary["polarisation_p"] is None and summary["tilt_t"] is None

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_identity_p_plus_both_equals_one(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, {"AAA": 50}, unclear_rate=0.2)
        summary = summary_by_country(dataset)["AAA"]
        if summary["n_margin_known_exposed"] == 0:
            return
        p = summary["polarisation_p"]
        assert abs(p + summary["margin_within_both"] - 1.0) < 1e-12
        assert p == pytest.approx(summary["margin_within_substitute"] + summary["margin_within_augment"], abs=1e-12)


class TestBenchmarkDeviation:
    def _benchmark(self, exposures):
        return deduplicate(
            [make_record(f"t{i}", country="income:low", exposure=e, margin=Margin.BOTH if e >= 2 else Margin.UNCLEAR)
             for i, e in enumerate(exposures)]
        )

    def _country(self, exposures):
        return deduplicate(
            [make_record(f"t{i}", country="AAA", exposure=e, margin=Margin.BOTH if e >= 2 else Margin.UNCLEAR)
             for i, e in enumerate(exposures)]
        )

    GROUPS = {"AAA": IncomeGroup.LOW}

    def _deviation(self, country, benchmark, groups=GROUPS):
        """benchmark_deviation as {iso3: (mean deviation, shared tasks)}."""
        iso3s, means, shared = benchmark_deviation(country, benchmark, groups)
        return dict(zip(iso3s, zip(means, shared)))

    def test_identical_runs_zero(self):
        assert self._deviation(self._country([0, 2, 3]), self._benchmark([0, 2, 3]))["AAA"][0] == 0.0

    def test_symmetric_differences_cancel(self):
        assert self._deviation(self._country([3, 2, 1]), self._benchmark([2, 2, 2]))["AAA"][0] == 0.0

    def test_hand_mean(self):
        mean, shared = self._deviation(self._country([3, 3, 2]), self._benchmark([2, 2, 2]))["AAA"]
        assert mean == pytest.approx(2 / 3)
        assert shared == 3

    def test_unclassified_country_errors(self):
        with pytest.raises(AggregateError, match="income group"):
            self._deviation(self._country([2]), self._benchmark([2]), {"AAA": IncomeGroup.UNCLASSIFIED})

    def test_empty_overlap_errors(self):
        benchmark = deduplicate([make_record("other", country="income:low", exposure=2)])
        with pytest.raises(AggregateError, match="overlap"):
            self._deviation(self._country([2]), benchmark)


# --- every summarize, report and validate distribution table against the dict-based reference ------------

COUNTRIES = ("AAA", "BBB", "CCC", "DDD", "income:low", "context_free")
TASKS = ("t0", "t1", "t2", "t3")
REGIONS = ("North", "South", "")  # a blank region is a group of its own


@st.composite
def label_sets(draw, countries, tasks):
    """Records over a random subset of the (country, task) keys, every field drawn."""
    keys = draw(st.lists(st.tuples(st.sampled_from(countries), st.sampled_from(tasks)), unique=True, min_size=1,
                         max_size=20))
    return deduplicate(
        make_record(
            task, country=country, exposure=draw(st.integers(0, 3)), channel=draw(st.sampled_from(list(Channel))),
            margin=draw(st.sampled_from(list(Margin))), ai_material=draw(st.booleans()),
            ai_function=draw(st.sampled_from(list(AiFunction))),
        )
        for country, task in keys
    )


@st.composite
def registries(draw):
    """A registry of most of AAA..DDD (EEE never), income groups unclassified included."""
    registry = {}
    for iso3 in ("AAA", "BBB", "CCC", "DDD"):
        if draw(st.integers(0, 3)):
            group, region = draw(st.sampled_from(list(IncomeGroup))), draw(st.sampled_from(REGIONS))
            registry[iso3] = CountryContext(iso3, iso3.lower(), group, region)
    return registry


def outcome(call) -> str:
    """The repr of what ``call`` returns, or the class and message of the input error it raises."""
    try:
        return repr(call())
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"


def distribution_payload(dataset, registry=None, group_by=None):
    tables = distribution_check(dataset, registry=registry, group_by=group_by)
    return {"groups": tables.groups, "group_sizes": tables.group_sizes}


@settings(max_examples=300, deadline=None)
@given(
    dataset=label_sets(COUNTRIES + ("EEE",), TASKS),
    registry=registries(),
    benchmark=label_sets(tuple(income_tag(g) for g in IncomeGroup if g is not IncomeGroup.UNCLASSIFIED),
                         TASKS + ("b0", "b1")),
)
def test_tables_match_the_dict_reference(dataset, registry, benchmark):
    """Drawn over few keys, so modal ties, unclear-margin anomalies, countries
    with no exposed task, unregistered and unclassified countries, one-country
    groups, benchmark tags in the dataset and benchmarks that lack a group or
    share no task all occur."""
    countries, summaries = dataset.countries(), summarize_all(dataset)
    assert len(summaries) == len(countries)
    reference = reference_summaries(dataset)
    assert outcome(lambda: summary_rows(countries, summaries)) == outcome(lambda: reference_summary_rows(reference))
    for field in ("income_group", "region"):
        assert outcome(lambda: group_rows(countries, summaries, registry, field)) == outcome(
            lambda: reference_group_rows(reference, registry, field))
    assert outcome(lambda: transition_rows(dataset, registry)) == outcome(
        lambda: reference_transition_rows(dataset, registry))
    assert outcome(lambda: deviation_rows(dataset, benchmark, registry)) == outcome(
        lambda: reference_deviation_rows(dataset, benchmark, registry))
    # report's two payloads, then validate distribution's three groupings
    assert repr(distribution_check(dataset).groups["overall"]) == repr(
        reference_distribution_check(dataset)["groups"]["overall"])
    assert repr(distribution_check(dataset, registry, "income_group").groups) == repr(
        reference_distribution_check(dataset, registry, "income_group")["groups"])
    for group_by in (None, "income_group", "region"):
        given_registry = None if group_by is None else registry
        assert repr(distribution_payload(dataset, given_registry, group_by)) == repr(
            reference_distribution_check(dataset, given_registry, group_by))
