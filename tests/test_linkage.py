import itertools

import numpy as np
import pytest

from conftest import make_record
from oracles import tally_votes, uniform_weights
from taskatlas.core import Channel, Margin
from taskatlas.ingest import deduplicate
from taskatlas.linkage import (
    BridgeShares,
    CandidateEdge,
    EdgeRecord,
    HashEmbedder,
    HashVoter,
    IndustryGraph,
    LinkageError,
    ProviderError,
    ReplayEmbedder,
    ReplayVoter,
    TaskWeightMap,
    build_candidates,
    call_provider,
    industry_summary,
    isco_summary,
    load_graph,
    margin_pockets,
    occupation_summary,
    prune_edges,
    save_candidates,
    save_graph,
    scaled_norm,
    soc_summary,
)


def dataset_with_levels(levels: dict[str, int], country="AAA"):
    records = [
        make_record(t, country=country, exposure=lvl, margin=Margin.BOTH if lvl >= 2 else Margin.UNCLEAR)
        for t, lvl in levels.items()
    ]
    return deduplicate(records)


class TestSocSummary:
    def test_single_task_degenerate(self):
        dataset = dataset_with_levels({"t1": 3})
        weights = TaskWeightMap({"soc1": (("t1", 1.0),)})
        cells = soc_summary(dataset, "AAA", weights)
        assert cells["soc1"].value == 3.0

    def test_convex_combination(self):
        dataset = dataset_with_levels({"t1": 1, "t2": 3})
        weights = TaskWeightMap({"soc1": (("t1", 0.5), ("t2", 0.5))})
        assert soc_summary(dataset, "AAA", weights)["soc1"].value == pytest.approx(2.0)

    def test_three_task_dot_product(self):
        dataset = dataset_with_levels({"t1": 0, "t2": 2, "t3": 3})
        weights = TaskWeightMap({"soc1": (("t1", 0.2), ("t2", 0.3), ("t3", 0.5))})
        # hand computation: 0.2*0 + 0.3*2 + 0.5*3 = 2.1
        assert soc_summary(dataset, "AAA", weights)["soc1"].value == pytest.approx(2.1)

    def test_missing_task_renormalized_and_reported(self):
        dataset = dataset_with_levels({"t1": 2})
        weights = TaskWeightMap({"soc1": (("t1", 0.5), ("missing", 0.5))})
        cell = soc_summary(dataset, "AAA", weights)["soc1"]
        assert cell.value == pytest.approx(2.0)
        assert cell.dropped_weight == pytest.approx(0.5)

    def test_zero_usable_mass_errors(self):
        dataset = dataset_with_levels({"t1": 2})
        weights = TaskWeightMap({"soc1": (("missing", 1.0),)})
        with pytest.raises(LinkageError, match="zero usable weight"):
            soc_summary(dataset, "AAA", weights)

    def test_convexity_bounds(self, rng):
        levels = {f"t{i}": int(rng.integers(0, 4)) for i in range(12)}
        dataset = dataset_with_levels(levels)
        raw = rng.random(12)
        raw /= raw.sum()
        weights = TaskWeightMap({"soc1": tuple((f"t{i}", float(w)) for i, w in enumerate(raw))})
        value = soc_summary(dataset, "AAA", weights)["soc1"].value
        assert min(levels.values()) <= value <= max(levels.values())

    def test_weight_normalization_enforced(self):
        with pytest.raises(LinkageError, match="sum to"):
            TaskWeightMap({"soc1": (("t1", 0.7),)})

    def test_no_occupations_rejected(self):
        with pytest.raises(LinkageError, match="no occupations"):
            TaskWeightMap({})

    def test_channel_shares_weighted(self):
        records = [
            make_record("t1", exposure=2, margin=Margin.BOTH, channel=Channel.RULE_BASED_WORKFLOW),
            make_record("t2", exposure=3, margin=Margin.BOTH, channel=Channel.PHYSICAL_EXECUTION),
            make_record("t3", exposure=0, margin=Margin.UNCLEAR, channel=Channel.NONE),
        ]
        dataset = deduplicate(records)
        weights = TaskWeightMap({"soc1": (("t1", 0.5), ("t2", 0.3), ("t3", 0.2))})
        cell = soc_summary(dataset, "AAA", weights)["soc1"]
        assert cell.channel_shares[Channel.RULE_BASED_WORKFLOW] == pytest.approx(0.5)
        assert cell.channel_shares[Channel.PHYSICAL_EXECUTION] == pytest.approx(0.3)
        assert cell.channel_shares[Channel.INFERENCE_SCORING] == 0.0


class TestIscoSummary:
    def test_identity_bridge_pass_through(self):
        bridge = BridgeShares({"soc1": (("isco1", 1.0),), "soc2": (("isco2", 1.0),)})
        values = {"soc1": 1.25, "soc2": 2.5}
        assert isco_summary(values, bridge) == {"isco1": 1.25, "isco2": 2.5}

    def test_fifty_fifty_average(self):
        bridge = BridgeShares({
            "soc1": (("iscoX", 0.5), ("iscoY", 0.5)),
            "soc2": (("iscoX", 0.5), ("iscoZ", 0.5)),
        })
        out = isco_summary({"soc1": 1.0, "soc2": 3.0}, bridge)
        assert out["iscoX"] == pytest.approx(2.0)

    def test_modal_variant_takes_modal_soc_alone(self):
        weighted = BridgeShares({
            "soc1": (("iscoX", 0.6), ("iscoY", 0.4)),
            "soc2": (("iscoX", 0.4), ("iscoY", 0.6)),
        })
        modal = weighted.to_modal()
        out = isco_summary({"soc1": 1.0, "soc2": 3.0}, modal)
        assert out["iscoX"] == 1.0  # only soc1's modal group is X
        assert out["iscoY"] == 3.0

    def test_modal_tie_breaks_to_smallest_group(self):
        modal = BridgeShares({"soc1": (("iscoA", 0.5), ("iscoB", 0.5))}).to_modal()
        assert modal.shares["soc1"] == (("iscoA", 1.0),)

    def test_missing_bridge_row_errors(self):
        bridge = BridgeShares({"soc1": (("isco1", 1.0),)})
        with pytest.raises(LinkageError, match="no bridge row"):
            isco_summary({"soc1": 1.0, "soc9": 2.0}, bridge)

    def test_identity_equals_soc_summary_exactly(self, rng):
        dataset = dataset_with_levels({f"t{i}": int(rng.integers(0, 4)) for i in range(9)})
        weights = uniform_weights({"soc1": ["t0", "t1", "t2"], "soc2": ["t3", "t4"], "soc3": ["t5", "t6", "t7", "t8"]})
        cells = soc_summary(dataset, "AAA", weights)
        bridge = BridgeShares({soc: ((f"isco_{soc}", 1.0),) for soc in cells})
        out = isco_summary({s: c.value for s, c in cells.items()}, bridge)
        for soc, cell in cells.items():
            assert out[f"isco_{soc}"] == cell.value


class _StubEmbedder:
    def __init__(self, vectors):
        self.vectors = vectors

    def embed_many(self, texts):
        return (np.asarray(self.vectors[text], dtype=np.float64) for text in texts)


class TestBuildCandidates:
    def test_identical_text_ranks_first_with_similarity_one(self):
        tasks = {"t1": "weld metal parts", "t2": "file tax returns"}
        activities = {"2410": "weld metal parts"}
        edges = build_candidates(tasks, activities, HashEmbedder(), top_k=1, floor=0.0)
        assert edges == [CandidateEdge("t1", "2410", pytest.approx(1.0))]

    def test_orthogonal_embeddings_below_floor(self):
        vectors = {"a": [1.0, 0.0], "b": [0.0, 1.0], "act": [1.0, 0.0]}
        tasks = {"t1": "b"}
        activities = {"0101": "act"}
        edges = build_candidates(tasks, activities, _StubEmbedder(vectors), top_k=5, floor=0.5)
        assert edges == []

    def test_matches_exhaustive_cosine_ranking(self):
        provider = HashEmbedder(dim=16)
        tasks = {f"t{i}": f"task text number {i}" for i in range(3)}
        activities = {f"010{j}": f"activity description {j}" for j in range(2)}
        edges = build_candidates(tasks, activities, provider, top_k=2, floor=-1.0)
        # brute force all pairwise cosines
        texts = [*tasks.values(), *activities.values()]
        embedded = dict(zip(texts, provider.embed_many(texts)))
        expected = []
        for isic4, a_text in sorted(activities.items()):
            av = embedded[a_text]
            sims = []
            for task_id, t_text in sorted(tasks.items()):
                tv = embedded[t_text]
                sims.append((task_id, float(av @ tv / (np.linalg.norm(av) * np.linalg.norm(tv)))))
            sims.sort(key=lambda p: (-p[1], p[0]))
            expected.extend(CandidateEdge(t, isic4, s) for t, s in sims[:2])
        assert [(e.task_id, e.isic4) for e in edges] == [(e.task_id, e.isic4) for e in expected]
        for got, want in zip(edges, expected):
            assert got.similarity == pytest.approx(want.similarity, abs=1e-12)

    def test_zero_norm_embedding_errors(self):
        vectors = {"z": [0.0, 0.0], "act": [1.0, 0.0]}
        with pytest.raises(LinkageError, match="zero-norm"):
            build_candidates({"t1": "z"}, {"0101": "act"}, _StubEmbedder(vectors), top_k=1, floor=0.0)

    def test_scaled_norm_keeps_an_ordinary_vector_as_it_is(self, rng):
        for _ in range(50):
            vec = rng.standard_normal(int(rng.integers(1, 20))) * 10.0 ** rng.integers(-100, 100)
            scaled, norm = scaled_norm(vec)
            assert scaled.tobytes() == vec.tobytes() and norm == np.linalg.norm(vec)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324])
    def test_scaled_norm_of_a_vector_near_the_float_range(self, scale):
        with np.errstate(over="ignore"):  # as every caller of scaled_norm does
            scaled, norm = scaled_norm(np.array([3.0, -4.0]) * scale)
        assert scaled / norm == pytest.approx([0.6, -0.8], rel=1e-15)

    def test_scaled_norm_of_the_zero_vector_is_zero(self):
        assert scaled_norm([0.0, 0.0])[1] == 0 and scaled_norm([])[1] == 0

    def test_no_task_texts_errors(self):
        with pytest.raises(LinkageError, match="no task texts"):
            build_candidates({}, {"0101": "act"}, HashEmbedder(), top_k=1, floor=0.0)

    def test_replay_fixture_matches_brute_force(self, tmp_path):
        provider = ReplayEmbedder(tmp_path)
        tasks = {"t1": "alpha", "t2": "beta", "t3": "gamma"}
        activities = {"0101": "delta", "0102": "epsilon"}
        vectors = {
            "alpha": [1.0, 0.0, 0.0],
            "beta": [0.8, 0.6, 0.0],
            "gamma": [0.0, 0.0, 1.0],
            "delta": [0.6, 0.8, 0.0],
            "epsilon": [0.0, 1.0, 0.0],
        }
        for text, vec in vectors.items():
            provider.record(text, vec)
        edges = build_candidates(tasks, activities, provider, top_k=2, floor=0.0)
        # brute-force cosines: delta pairs -> t1 .6, t2 .96, t3 0 ; epsilon -> t1 0, t2 .6, t3 0
        by_activity = {}
        for edge in edges:
            by_activity.setdefault(edge.isic4, []).append((edge.task_id, round(edge.similarity, 6)))
        assert by_activity["0101"] == [("t2", 0.96), ("t1", 0.6)]
        # inclusive floor keeps the 0-similarity pair; the t1/t3 tie breaks by task id
        assert by_activity["0102"] == [("t2", 0.6), ("t1", 0.0)]


class _ScriptedVoter:
    """Votes looked up from {(task_text, activity_text, ballot): bool}."""

    def __init__(self, script, fail_first=0):
        self.script = script
        self.failures_left = fail_first
        self.calls = 0

    def vote(self, task_text, activity_text, ballot):
        self.calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise ProviderError("scripted failure")
        return self.script[(task_text, activity_text, ballot)]


class TestPruneEdges:
    TASKS = {"t1": "task one", "t2": "task two"}
    ACTS = {"0101": "activity one"}

    def _candidates(self):
        return [CandidateEdge("t1", "0101", 0.9), CandidateEdge("t2", "0101", 0.8)]

    def test_majority_retains(self):
        script = {
            ("task one", "activity one", 0): True,
            ("task one", "activity one", 1): True,
            ("task one", "activity one", 2): False,
            ("task two", "activity one", 0): False,
            ("task two", "activity one", 1): False,
            ("task two", "activity one", 2): False,
        }
        result = prune_edges(self._candidates(), _ScriptedVoter(script), self.TASKS, self.ACTS, votes_per_edge=3)
        assert result.n_retained == 1
        retained = result.graph.edges[0]
        assert retained.task_id == "t1"
        assert retained.agreement == pytest.approx(2 / 3)
        # unanimous invalid edge has agreement 1
        assert result.mean_agreement == pytest.approx((2 / 3 + 1.0) / 2)

    def test_even_votes_rejected(self):
        with pytest.raises(LinkageError, match="odd"):
            prune_edges(self._candidates(), HashVoter(), self.TASKS, self.ACTS, votes_per_edge=2)

    def test_retry_then_succeed(self):
        script = {("task one", "activity one", b): True for b in range(3)}
        script.update({("task two", "activity one", b): True for b in range(3)})
        voter = _ScriptedVoter(script, fail_first=2)
        result = prune_edges(self._candidates(), voter, self.TASKS, self.ACTS, votes_per_edge=3, retries=2)
        assert result.n_retained == 2

    def test_failure_beyond_retries(self):
        voter = _ScriptedVoter({}, fail_first=100)
        with pytest.raises(ProviderError, match="failed"):
            prune_edges(self._candidates(), voter, self.TASKS, self.ACTS, votes_per_edge=3, retries=1)

    def test_majority_rule_matches_enumeration(self):
        # all 8 vote triples, checked against explicit majority counting
        for votes in itertools.product([True, False], repeat=3):
            record = EdgeRecord("t", "0101", 0.5, votes)
            assert record.retained == (sum(votes) >= 2)
            assert record.agreement == max(sum(votes), 3 - sum(votes)) / 3

    def test_retention_monotone_in_valid_votes(self):
        for votes in itertools.product([True, False], repeat=3):
            if EdgeRecord("t", "a", 0.0, votes).retained:
                for i in range(3):
                    flipped = list(votes)
                    flipped[i] = True
                    assert EdgeRecord("t", "a", 0.0, tuple(flipped)).retained

    def test_tally_votes_counts(self):
        log = [("t1", "0101", [True, True, False]), ("t2", "0101", [False, False, True])]
        result = tally_votes(log)
        assert result.n_candidates == 2
        assert result.n_retained == 1
        assert result.mean_agreement == pytest.approx(2 / 3)


class TestReplayProviders:
    def test_replay_embedder_round_trip(self, tmp_path):
        provider = ReplayEmbedder(tmp_path)
        provider.record("some text", [0.1, 0.2])
        assert np.allclose(next(provider.embed_many(["some text"])), [0.1, 0.2])
        with pytest.raises(ProviderError):
            list(provider.embed_many(["unseen text"]))

    @pytest.mark.parametrize("fixture", ['{"a": 1}', '["x", 1]', "[[1], [2, 3]]", "[NaN]", "[true]"])
    def test_replay_embedder_rejects_a_fixture_that_is_not_a_vector(self, tmp_path, fixture):
        provider = ReplayEmbedder(tmp_path)
        provider.record("some text", [0.1])
        next(tmp_path.iterdir()).write_text(fixture, encoding="utf-8")
        with pytest.raises(ProviderError, match="not a vector of finite numbers"):
            list(provider.embed_many(["some text"]))

    def test_replay_embedder_rejects_a_second_dimension(self, tmp_path):
        provider = ReplayEmbedder(tmp_path)
        provider.record("one", [0.1, 0.2])
        provider.record("two", [0.1, 0.2, 0.3])
        vectors = provider.embed_many(["one", "two"])
        assert np.allclose(next(vectors), [0.1, 0.2])
        with pytest.raises(ProviderError, match="3 dimensions, not 2"):
            next(vectors)

    def test_replay_voter_round_trip(self, tmp_path):
        voter = ReplayVoter(tmp_path)
        voter.record("task", "act", 0, True)
        voter.record("task", "act", 1, False)
        assert voter.vote("task", "act", 0) is True
        assert voter.vote("task", "act", 1) is False
        with pytest.raises(ProviderError):
            voter.vote("task", "act", 2)

    @pytest.mark.parametrize("fixture", ['"false"', "0", "1", "null", "[true]", '{"valid": true}'])
    def test_replay_voter_rejects_a_fixture_that_is_not_a_boolean(self, tmp_path, fixture):
        voter = ReplayVoter(tmp_path)
        voter.record("task", "act", 0, False)
        path = next(tmp_path.iterdir())
        path.write_text(fixture, encoding="utf-8")
        with pytest.raises(ProviderError, match=f"vote fixture {path.name} is not a JSON boolean"):
            voter.vote("task", "act", 0)

    def test_hash_voter_deterministic(self):
        voter = HashVoter(valid_rate=0.7)
        votes = [voter.vote("task", "act", b) for b in range(5)]
        assert votes == [voter.vote("task", "act", b) for b in range(5)]


class TestGraphPersistence:
    def _graph(self):
        edges = (
            EdgeRecord("t1", "0111", 0.91234, (True, True, False)),
            EdgeRecord("t2", "2410", 0.7, (True, True, True)),
        )
        return IndustryGraph(edges=edges, provenance={"top_k": 60, "floor": 0.3})

    def test_round_trip_bit_identical(self, tmp_path):
        graph = self._graph()
        path = tmp_path / "graph.jsonl"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded == graph
        second = tmp_path / "graph2.jsonl"
        save_graph(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("votes", ['["no", 0, {}]', "[1, 1, 0]", "[true, null]", '"true"'])
    def test_a_vote_that_is_not_a_boolean_is_refused(self, tmp_path, votes):
        path = tmp_path / "graph.jsonl"
        path.write_text('{"meta":{}}\n{"task_id":"t1","isic4":"0111","similarity":0.5,"votes":%s}\n' % votes,
                        encoding="utf-8")
        with pytest.raises(LinkageError, match="line 2 has no valid 'votes'"):
            load_graph(path)

    def test_a_non_finite_meta_value_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_candidates([], {"floor": float("nan")}, tmp_path / "candidates.jsonl")
        assert not (tmp_path / "candidates.jsonl").exists()

    def test_duplicate_edges_rejected(self):
        edges = (EdgeRecord("t1", "0111", 0.9, (True,)), EdgeRecord("t1", "0111", 0.8, (True,)))
        with pytest.raises(LinkageError, match="duplicate"):
            IndustryGraph(edges=edges)

    def test_division_is_two_digit_prefix(self):
        assert self._graph().division("0111") == "01"
        assert self._graph().divisions() == ["01", "24"]


class TestIndustrySummary:
    def _graph(self, links):
        edges = tuple(EdgeRecord(t, c, 1.0, (True,)) for c, tasks in links.items() for t in tasks)
        return IndustryGraph(edges=edges)

    def test_chain_of_singletons(self):
        dataset = dataset_with_levels({"t1": 3})
        summary = industry_summary(dataset, "AAA", self._graph({"0111": ["t1"]}))
        assert summary.classes["0111"].value == 3.0
        assert summary.divisions["01"].value == 3.0

    def test_division_equal_weighting(self):
        dataset = dataset_with_levels({"t1": 0, "t2": 2, "t3": 1, "t4": 3})
        # class 0111 mean (t1,t2) = 1.0 ; class 0112 mean (t3,t4) = 2.0 ; division 01 = 1.5
        graph = self._graph({"0111": ["t1", "t2"], "0112": ["t3", "t4"]})
        summary = industry_summary(dataset, "AAA", graph)
        assert summary.divisions["01"].value == pytest.approx(1.5)

    def test_matches_fully_enumerated_oracle(self, rng):
        levels_a = {f"t{i}": int(rng.integers(0, 4)) for i in range(8)}
        levels_b = {f"t{i}": int(rng.integers(0, 4)) for i in range(8)}
        graph = self._graph({"0111": ["t0", "t1", "t2"], "0112": ["t3", "t4"], "2410": ["t5", "t6", "t7"]})
        for country, levels in (("AAA", levels_a), ("BBB", levels_b)):
            dataset = dataset_with_levels(levels, country=country)
            summary = industry_summary(dataset, country, graph)
            class_means = {
                "0111": sum(levels[t] for t in ["t0", "t1", "t2"]) / 3,
                "0112": sum(levels[t] for t in ["t3", "t4"]) / 2,
                "2410": sum(levels[t] for t in ["t5", "t6", "t7"]) / 3,
            }
            assert summary.classes["0111"].value == pytest.approx(class_means["0111"])
            assert summary.divisions["01"].value == pytest.approx((class_means["0111"] + class_means["0112"]) / 2)
            assert summary.divisions["24"].value == pytest.approx(class_means["2410"])

    def test_enumeration_order_invariant(self):
        dataset = dataset_with_levels({"t1": 2, "t2": 3, "t3": 0})
        links = {"0111": ["t1", "t2"], "0112": ["t3"]}
        reversed_links = {"0112": ["t3"], "0111": ["t2", "t1"]}
        a = industry_summary(dataset, "AAA", self._graph(links))
        b = industry_summary(dataset, "AAA", self._graph(reversed_links))
        assert a.divisions == b.divisions


class TestCallProvider:
    def test_provider_errors_retried_then_raised_as_given_error(self):
        calls = []

        def flaky():
            calls.append(1)
            raise ProviderError("down")

        with pytest.raises(LinkageError, match=r"^voter failed 3 times on edge \(t1, 0101\): down$"):
            call_provider(flaky, 2, "voter", "edge (t1, 0101)", LinkageError)
        assert len(calls) == 3

    def test_returns_first_success(self):
        outcomes = iter([ProviderError("down"), "ok"])

        def once_flaky():
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        assert call_provider(once_flaky, 1, "voter", "edge") == "ok"

    def test_other_errors_propagate_from_first_attempt(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("bug")

        with pytest.raises(KeyError):
            call_provider(broken, 5, "voter", "edge")
        assert len(calls) == 1


def _pocket_dataset():
    # soc1 = t1 + t2 (half each) -> isco1; soc2 = t3 -> isco2, never exposed
    rows = {
        "AAA": [("t1", 3, Margin.SUBSTITUTE), ("t2", 0, Margin.UNCLEAR), ("t3", 1, Margin.UNCLEAR)],
        "BBB": [("t1", 2, Margin.AUGMENT), ("t2", 2, Margin.SUBSTITUTE), ("t3", 0, Margin.UNCLEAR)],
        "CCC": [("t1", 0, Margin.UNCLEAR), ("t2", 1, Margin.UNCLEAR), ("t3", 1, Margin.UNCLEAR)],
    }
    records = [
        make_record(task, country=iso3, exposure=level, margin=margin)
        for iso3, tasks in rows.items()
        for task, level, margin in tasks
    ]
    weights = TaskWeightMap({"soc1": (("t1", 0.5), ("t2", 0.5)), "soc2": (("t3", 1.0),)})
    bridge = BridgeShares({"soc1": (("isco1", 1.0),), "soc2": (("isco2", 1.0),)})
    return deduplicate(records), weights, bridge


class TestOccupationSummary:
    def test_pockets_average_across_countries(self):
        dataset, weights, bridge = _pocket_dataset()
        summary = occupation_summary(dataset, ["AAA", "BBB", "CCC"], weights, bridge)
        assert list(summary.pockets) == ["substitute", "augment"]
        # exposed share of isco1: AAA 0.5, BBB 1.0, CCC 0 -> mean 0.5
        # substitute / exposed: AAA 0.5/0.5, BBB 0.5/1.0, CCC unexposed and left out -> mean 0.75
        (sub,) = summary.pockets["substitute"]
        assert (sub.unit, sub.exposed_share, sub.margin_share) == ("isco1", 0.5, 0.75)
        # augment / exposed: AAA 0, BBB 0.5 -> mean 0.25
        (aug,) = summary.pockets["augment"]
        assert (aug.unit, aug.exposed_share, aug.margin_share) == ("isco1", 0.5, 0.25)

    def test_cells_and_isco_rows_per_country(self):
        dataset, weights, bridge = _pocket_dataset()
        summary = occupation_summary(dataset, ["BBB", "AAA"], weights, bridge)
        assert list(summary.soc) == list(summary.isco) == ["BBB", "AAA"]
        for iso3, cells in summary.soc.items():
            assert cells == soc_summary(dataset, iso3, weights)
            groups = summary.isco[iso3]
            assert list(groups) == ["isco1", "isco2"]
            assert groups["isco1"]["value"] == cells["soc1"].value
            assert groups["isco2"]["exposed_share"] == cells["soc2"].exposed_share
            assert list(groups["isco1"]) == ["value", "exposed_share", "margin_substitute", "margin_augment", "margin_both"]

    def test_top_pockets_and_no_bridge(self):
        dataset, weights, bridge = _pocket_dataset()
        bridge = BridgeShares({"soc1": (("isco1", 1.0),), "soc2": (("isco1", 1.0),)})
        summary = occupation_summary(dataset, ["AAA", "BBB"], weights, bridge, top_pockets=0)
        assert summary.pockets == {"substitute": [], "augment": []}
        plain = occupation_summary(dataset, ["AAA", "BBB"], weights)
        assert plain.isco == {} and plain.pockets == {}
        assert plain.soc == summary.soc


class TestMarginPockets:
    def test_product_order(self):
        units = {"u1": (0.9, 0.8), "u2": (0.5, 0.9)}
        ranked = margin_pockets(units)
        assert [p.unit for p in ranked] == ["u1", "u2"]
        assert ranked[0].product == pytest.approx(0.72)

    def test_zero_margin_ranks_last(self):
        units = {"u1": (0.9, 0.0), "u2": (0.1, 0.1)}
        assert [p.unit for p in margin_pockets(units)] == ["u2", "u1"]

    def test_five_unit_hand_sort(self):
        units = {
            "u1": (0.5, 0.5),
            "u2": (0.9, 0.1),
            "u3": (0.3, 0.9),
            "u4": (0.8, 0.4),
            "u5": (0.25, 1.0),
        }
        products = {u: e * m for u, (e, m) in units.items()}
        expected = sorted(units, key=lambda u: (-products[u], u))
        assert [p.unit for p in margin_pockets(units)] == expected

    def test_tie_breaks_on_unit_id(self):
        units = {"b": (0.5, 0.4), "a": (0.4, 0.5)}
        assert [p.unit for p in margin_pockets(units)] == ["a", "b"]

    def test_top_n(self):
        units = {f"u{i}": (0.1 * i, 0.5) for i in range(1, 6)}
        assert len(margin_pockets(units, top_n=2)) == 2
