import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record, random_dataset, random_records
from oracles import country_summary, deduplicate, margin_known_exposed_share, naive_counts, row_views
from taskatlas.aggregate import (
    AggregateError,
    PathwayState,
    benchmark_deviation,
    deviation_rows,
    group_rows,
    group_summary,
    modal_pathway_states,
    polarisation,
    summarize_all,
    transition_matrix,
    transition_rows,
)
from taskatlas.core import Channel, CountryContext, IncomeGroup, Margin


def ten_task_fixture():
    # 4 exposed: 2 substitute, 1 both, 1 augment; 6 below threshold
    records = [
        make_record("t0", exposure=2, margin=Margin.SUBSTITUTE),
        make_record("t1", exposure=3, margin=Margin.SUBSTITUTE),
        make_record("t2", exposure=2, margin=Margin.BOTH),
        make_record("t3", exposure=2, margin=Margin.AUGMENT),
    ] + [make_record(f"t{i}", exposure=i % 2, channel=Channel.NONE) for i in range(4, 10)]
    return deduplicate(records)


class TestCountrySummary:
    def test_hand_counted_fixture(self):
        summary = country_summary(ten_task_fixture(), "AAA")
        assert summary.exposed_share == pytest.approx(0.4)
        assert summary.margin_shares_within[Margin.SUBSTITUTE] == pytest.approx(0.5)
        assert summary.margin_shares_within[Margin.BOTH] == pytest.approx(0.25)
        assert summary.margin_shares_within[Margin.AUGMENT] == pytest.approx(0.25)

    def test_all_level_zero(self):
        dataset = deduplicate([make_record(f"t{i}", exposure=0, channel=Channel.NONE) for i in range(5)])
        summary = country_summary(dataset, "AAA")
        assert summary.exposed_share == 0.0
        assert summary.margin_shares_within is None
        assert summary.channel_shares_exposed is None

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_naive_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dataset = deduplicate(random_records(rng, int(rng.integers(5, 100)), unclear_rate=0.2))
        summary = country_summary(dataset, "AAA")
        oracle = naive_counts(row_views(dataset.for_country("AAA")))
        assert summary.exposed_share == oracle["exposed_share"]
        assert summary.high_share == oracle["high_share"]
        for margin in (Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH):
            assert summary.margin_shares_all[margin] == oracle[f"all_{margin.value}"]
            expected = oracle[f"within_{margin.value}"]
            got = summary.margin_shares_within[margin] if summary.margin_shares_within else None
            assert got == expected
        got_ai = summary.ai_material_share_exposed
        assert got_ai == oracle["ai_share"]
        for channel, share in (summary.channel_shares_exposed or {}).items():
            assert share == oracle[f"channel_{channel.value}"]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_denominator_identity(self, seed):
        # margin_shares_all = margin-known exposed share x within share, exactly
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, {"AAA": 60}, unclear_rate=0.25)
        summary = country_summary(dataset, "AAA")
        if summary.margin_shares_within is None:
            return
        for margin in (Margin.SUBSTITUTE, Margin.AUGMENT, Margin.BOTH):
            assert summary.margin_shares_all[margin] == pytest.approx(
                margin_known_exposed_share(summary) * summary.margin_shares_within[margin], abs=1e-12
            )

    def test_within_shares_sum_to_one(self, rng):
        dataset = random_dataset(rng, {"AAA": 80}, unclear_rate=0.3)
        summary = country_summary(dataset, "AAA")
        total = math.fsum(summary.margin_shares_within.values())
        assert abs(total - 1.0) < 1e-9

    def test_channel_shares_at_most_one(self, rng):
        dataset = random_dataset(rng, {"AAA": 80})
        summary = country_summary(dataset, "AAA")
        assert math.fsum(summary.channel_shares_exposed.values()) <= 1.0 + 1e-9

    def test_ai_function_mix_sums_to_one(self, rng):
        dataset = random_dataset(rng, {"AAA": 120})
        summary = country_summary(dataset, "AAA")
        if summary.ai_function_mix is not None:
            assert abs(math.fsum(summary.ai_function_mix.values()) - 1.0) < 1e-9

    def test_summarize_all_matches_per_country_scan(self, rng):
        dataset = random_dataset(rng, {"CCC": 40, "AAA": 40, "BBB": 40})
        summaries = summarize_all(dataset)
        assert list(summaries) == ["AAA", "BBB", "CCC"]
        assert summaries == {iso3: country_summary(dataset, iso3) for iso3 in dataset.countries()}


REGISTRY = {
    "AAA": CountryContext("AAA", "A", IncomeGroup.LOW, "Sub-Saharan Africa"),
    "BBB": CountryContext("BBB", "B", IncomeGroup.LOW, "Sub-Saharan Africa"),
    "CCC": CountryContext("CCC", "C", IncomeGroup.HIGH, "North America"),
}


class TestGroupSummary:
    def _summaries(self, shares):
        out = []
        for iso3, share in shares.items():
            n_exposed = int(share * 10)
            records = [
                make_record(f"t{i}", country=iso3, exposure=2, margin=Margin.BOTH) for i in range(n_exposed)
            ] + [
                make_record(f"t{i}", country=iso3, exposure=0, channel=Channel.NONE)
                for i in range(n_exposed, 10)
            ]
            out.append(country_summary(deduplicate(records), iso3))
        return out

    def test_mean_of_two(self):
        groups = group_summary(self._summaries({"AAA": 0.2, "BBB": 0.4}), REGISTRY)
        assert groups["low"].means["exposed_share"] == pytest.approx(0.3)
        assert groups["low"].n_countries == 2

    def test_singleton_identity(self):
        groups = group_summary(self._summaries({"CCC": 0.7}), REGISTRY)
        assert groups["high"].means["exposed_share"] == pytest.approx(0.7)

    def test_unregistered_country_errors(self):
        with pytest.raises(AggregateError):
            group_summary(self._summaries({"ZZZ": 0.2}), REGISTRY)

    def test_order_invariance(self):
        summaries = self._summaries({"AAA": 0.2, "BBB": 0.4, "CCC": 0.6})
        assert group_summary(summaries, REGISTRY) == group_summary(list(reversed(summaries)), REGISTRY)


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
        assert modal_pathway_states(dataset, ["AAA"]) == ({"t": state}, 0)

    def test_exposed_unclear_is_anomaly(self):
        dataset = deduplicate([make_record("t", exposure=2, margin=Margin.UNCLEAR)])
        states, anomalies = modal_pathway_states(dataset, ["AAA"])
        assert states == {} and anomalies == 1


class TestUnregisteredDataset:
    """A registry that names none of the dataset's countries is an error, not an empty table."""

    DATASET = deduplicate([make_record("t", country="ZZZ")])
    CALLS = {
        "group_rows": lambda dataset: group_rows(summarize_all(dataset), REGISTRY, "income_group"),
        "transition_rows": lambda dataset: transition_rows(dataset, REGISTRY),
        "deviation_rows": lambda dataset: deviation_rows(dataset, dataset, REGISTRY),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_raises(self, call):
        with pytest.raises(AggregateError, match="names none of the dataset's 1 countries"):
            self.CALLS[call](self.DATASET)


class TestTransitionMatrix:
    def test_identity_on_identical_inputs(self):
        states = {
            "t1": PathwayState.NOT_EXPOSED,
            "t2": PathwayState.SUBSTITUTE,
            "t3": PathwayState.BOTH,
        }
        matrix = transition_matrix(states, states)
        occupied = {PathwayState.NOT_EXPOSED: 0, PathwayState.SUBSTITUTE: 1, PathwayState.BOTH: 3}
        for state, i in occupied.items():
            assert matrix.shares[i, i] == 1.0
        assert matrix.shares[2].sum() == 0.0  # augment row empty

    def test_hand_computed_four_tasks(self):
        a = {
            "t1": PathwayState.NOT_EXPOSED,
            "t2": PathwayState.NOT_EXPOSED,
            "t3": PathwayState.SUBSTITUTE,
            "t4": PathwayState.BOTH,
        }
        b = dict(a)
        b["t2"] = PathwayState.SUBSTITUTE
        matrix = transition_matrix(a, b)
        assert matrix.shares[0, 0] == pytest.approx(0.5)
        assert matrix.shares[0, 1] == pytest.approx(0.5)
        assert matrix.shares[1, 1] == 1.0
        assert matrix.shares[3, 3] == 1.0

    def test_rows_sum_to_one_for_occupied_sources(self, rng):
        tasks = [f"t{i}" for i in range(50)]
        states_list = list(PathwayState)
        a = {t: states_list[int(rng.integers(0, 4))] for t in tasks}
        b = {t: states_list[int(rng.integers(0, 4))] for t in tasks}
        matrix = transition_matrix(a, b)
        for i in range(4):
            if matrix.counts[i].sum() > 0:
                assert matrix.shares[i].sum() == pytest.approx(1.0, abs=1e-9)

    def test_permuted_task_order_same_matrix(self, rng):
        tasks = [f"t{i}" for i in range(20)]
        states_list = list(PathwayState)
        a = {t: states_list[int(rng.integers(0, 4))] for t in tasks}
        b = {t: states_list[int(rng.integers(0, 4))] for t in tasks}
        shuffled_a = dict(sorted(a.items(), reverse=True))
        assert np.array_equal(transition_matrix(a, b).shares, transition_matrix(shuffled_a, b).shares)

    def test_mismatched_task_sets(self):
        with pytest.raises(AggregateError, match="mismatched"):
            transition_matrix({"t1": PathwayState.BOTH}, {"t2": PathwayState.BOTH})

    def test_modal_states_tie_break(self):
        records = [
            make_record("t1", country="AAA", exposure=2, margin=Margin.SUBSTITUTE),
            make_record("t1", country="BBB", exposure=2, margin=Margin.AUGMENT),
        ]
        modal, _ = modal_pathway_states(deduplicate(records), ["AAA", "BBB"])
        assert modal["t1"] is PathwayState.AUGMENT  # "augment" < "substitute"


class TestPolarisation:
    def test_formula_substitution(self):
        # within shares (sub, aug, both) = (0.3, 0.2, 0.5)
        records = (
            [make_record(f"s{i}", exposure=2, margin=Margin.SUBSTITUTE) for i in range(3)]
            + [make_record(f"a{i}", exposure=2, margin=Margin.AUGMENT) for i in range(2)]
            + [make_record(f"b{i}", exposure=2, margin=Margin.BOTH) for i in range(5)]
        )
        pol = polarisation(country_summary(deduplicate(records), "AAA"))
        assert pol.p == pytest.approx(0.5)
        assert pol.tilt == pytest.approx(0.6)

    def test_all_both_boundary(self):
        records = [make_record(f"b{i}", exposure=2, margin=Margin.BOTH) for i in range(4)]
        pol = polarisation(country_summary(deduplicate(records), "AAA"))
        assert pol.p == 0.0
        assert pol.tilt is None

    def test_no_exposed_errors(self):
        dataset = deduplicate([make_record("t", exposure=0, channel=Channel.NONE)])
        with pytest.raises(AggregateError):
            polarisation(country_summary(dataset, "AAA"))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_identity_p_plus_both_equals_one(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, {"AAA": 50}, unclear_rate=0.2)
        summary = country_summary(dataset, "AAA")
        if summary.n_margin_known_exposed == 0:
            return
        pol = polarisation(summary)
        assert abs(pol.p + summary.margin_shares_within[Margin.BOTH] - 1.0) < 1e-12
        within = summary.margin_shares_within
        assert pol.p == pytest.approx(within[Margin.SUBSTITUTE] + within[Margin.AUGMENT], abs=1e-12)


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

    def test_identical_runs_zero(self):
        result = benchmark_deviation(self._country([0, 2, 3]), self._benchmark([0, 2, 3]), self.GROUPS)
        assert result["AAA"].mean_deviation == 0.0

    def test_symmetric_differences_cancel(self):
        result = benchmark_deviation(self._country([3, 2, 1]), self._benchmark([2, 2, 2]), self.GROUPS)
        assert result["AAA"].mean_deviation == 0.0

    def test_hand_mean(self):
        result = benchmark_deviation(self._country([3, 3, 2]), self._benchmark([2, 2, 2]), self.GROUPS)
        assert result["AAA"].mean_deviation == pytest.approx(2 / 3)
        assert result["AAA"].n_shared_tasks == 3

    def test_unclassified_country_errors(self):
        with pytest.raises(AggregateError, match="income group"):
            benchmark_deviation(self._country([2]), self._benchmark([2]), {"AAA": IncomeGroup.UNCLASSIFIED})

    def test_empty_overlap_errors(self):
        benchmark = deduplicate([make_record("other", country="income:low", exposure=2)])
        with pytest.raises(AggregateError, match="overlap"):
            benchmark_deviation(self._country([2]), benchmark, self.GROUPS)
