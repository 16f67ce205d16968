import itertools

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import make_record
from oracles import (
    REFERENCE_SOC_COLUMNS, ReferenceCandidate, ReferenceEdge, deduplicate, edge_records, graph_divisions,
    record_embedding, record_vote, reference_modal, reference_occupation_tables, reference_prune,
    reference_read_edges, reference_write_edges, soc_pair_dict, soc_pairs, tally_votes, uniform_weights,
)
from taskatlas import linkage
from taskatlas.core import Channel, InputError, Margin
from taskatlas.linkage import (
    EdgeColumns,
    HashEmbedder,
    HashVoter,
    IndustryGraph,
    LinkageError,
    ProviderError,
    ReplayEmbedder,
    ReplayVoter,
    SocPairs,
    bridge_routes,
    build_candidates,
    call_provider,
    industry_summary,
    isco_summary,
    load_candidates,
    load_graph,
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


def weights_of(pairs_by_soc) -> SocPairs:
    return soc_pairs("task weight", pairs_by_soc)


def bridge_of(pairs_by_soc) -> SocPairs:
    return soc_pairs("bridge share", pairs_by_soc)


def soc_cells(dataset, iso3, weights) -> dict:
    """soc_summary's matrix by SOC and column name."""
    return {soc: dict(zip(REFERENCE_SOC_COLUMNS, row))
            for soc, row in zip(weights.socs, soc_summary(dataset, iso3, weights).tolist())}


def isco_values(soc_values: dict, bridge) -> dict:
    """isco_summary of one metric by SOC, by ISCO group."""
    socs = sorted(soc_values)
    routes = bridge_routes(bridge, socs)
    groups = isco_summary(np.array([[soc_values[soc]] for soc in socs]), routes)
    return dict(zip(routes.groups, groups[:, 0].tolist()))


class TestSocSummary:
    def test_single_task_degenerate(self):
        dataset = dataset_with_levels({"t1": 3})
        cells = soc_cells(dataset, "AAA", weights_of({"soc1": (("t1", 1.0),)}))
        assert cells["soc1"]["value"] == 3.0

    def test_convex_combination(self):
        dataset = dataset_with_levels({"t1": 1, "t2": 3})
        weights = weights_of({"soc1": (("t1", 0.5), ("t2", 0.5))})
        assert soc_cells(dataset, "AAA", weights)["soc1"]["value"] == pytest.approx(2.0)

    def test_three_task_dot_product(self):
        dataset = dataset_with_levels({"t1": 0, "t2": 2, "t3": 3})
        weights = weights_of({"soc1": (("t1", 0.2), ("t2", 0.3), ("t3", 0.5))})
        # hand computation: 0.2*0 + 0.3*2 + 0.5*3 = 2.1
        assert soc_cells(dataset, "AAA", weights)["soc1"]["value"] == pytest.approx(2.1)

    def test_missing_task_renormalized_and_reported(self):
        dataset = dataset_with_levels({"t1": 2})
        cell = soc_cells(dataset, "AAA", weights_of({"soc1": (("t1", 0.5), ("missing", 0.5))}))["soc1"]
        assert cell["value"] == pytest.approx(2.0)
        assert cell["dropped_weight"] == pytest.approx(0.5)

    def test_zero_usable_mass_errors(self):
        dataset = dataset_with_levels({"t1": 2})
        weights = weights_of({"soc1": (("missing", 1.0),)})
        with pytest.raises(LinkageError, match="zero usable weight"):
            soc_summary(dataset, "AAA", weights)

    def test_convexity_bounds(self, rng):
        levels = {f"t{i}": int(rng.integers(0, 4)) for i in range(12)}
        dataset = dataset_with_levels(levels)
        raw = rng.random(12)
        raw /= raw.sum()
        weights = weights_of({"soc1": tuple((f"t{i}", float(w)) for i, w in enumerate(raw))})
        value = soc_cells(dataset, "AAA", weights)["soc1"]["value"]
        assert min(levels.values()) <= value <= max(levels.values())

    def test_weight_normalization_enforced(self):
        with pytest.raises(LinkageError, match="sum to"):
            weights_of({"soc1": (("t1", 0.7),)})

    def test_no_occupations_rejected(self):
        with pytest.raises(LinkageError, match="no occupations"):
            weights_of({})
        assert bridge_of({}).socs == ()  # an empty bridge is refused by the first occupation it lacks

    def test_negative_value_before_a_bad_sum(self):
        with pytest.raises(LinkageError, match="negative bridge share for occupation soc2"):
            bridge_of({"soc1": (("g1", 1.0),), "soc2": (("g1", -0.5), ("g2", 1.5)), "soc3": (("g1", 0.2),)})
        with pytest.raises(LinkageError, match="task weights for occupation soc1 sum to inf, not 1"):
            weights_of({"soc1": (("t1", 1e308), ("t2", 1e308))})

    def test_channel_shares_weighted(self):
        records = [
            make_record("t1", exposure=2, margin=Margin.BOTH, channel=Channel.RULE_BASED_WORKFLOW),
            make_record("t2", exposure=3, margin=Margin.BOTH, channel=Channel.PHYSICAL_EXECUTION),
            make_record("t3", exposure=0, margin=Margin.UNCLEAR, channel=Channel.NONE),
        ]
        dataset = deduplicate(records)
        weights = weights_of({"soc1": (("t1", 0.5), ("t2", 0.3), ("t3", 0.2))})
        cell = soc_cells(dataset, "AAA", weights)["soc1"]
        assert cell[f"channel_{Channel.RULE_BASED_WORKFLOW.value}"] == pytest.approx(0.5)
        assert cell[f"channel_{Channel.PHYSICAL_EXECUTION.value}"] == pytest.approx(0.3)
        assert cell[f"channel_{Channel.INFERENCE_SCORING.value}"] == 0.0

    def test_one_row_per_occupation_in_sorted_order(self):
        dataset = dataset_with_levels({"t1": 1, "t2": 3})
        weights = weights_of({"soc2": (("t2", 1.0),), "soc1": (("t1", 1.0),)})
        cells = soc_summary(dataset, "AAA", weights)
        assert weights.socs == ("soc1", "soc2")
        assert cells.shape == (2, len(REFERENCE_SOC_COLUMNS))
        assert cells[:, 0].tolist() == [1.0, 3.0]


class TestIscoSummary:
    def test_identity_bridge_pass_through(self):
        bridge = bridge_of({"soc1": (("isco1", 1.0),), "soc2": (("isco2", 1.0),)})
        assert isco_values({"soc1": 1.25, "soc2": 2.5}, bridge) == {"isco1": 1.25, "isco2": 2.5}

    def test_fifty_fifty_average(self):
        bridge = bridge_of({
            "soc1": (("iscoX", 0.5), ("iscoY", 0.5)),
            "soc2": (("iscoX", 0.5), ("iscoZ", 0.5)),
        })
        assert isco_values({"soc1": 1.0, "soc2": 3.0}, bridge)["iscoX"] == pytest.approx(2.0)

    def test_modal_variant_takes_modal_soc_alone(self):
        weighted = bridge_of({
            "soc1": (("iscoX", 0.6), ("iscoY", 0.4)),
            "soc2": (("iscoX", 0.4), ("iscoY", 0.6)),
        })
        out = isco_values({"soc1": 1.0, "soc2": 3.0}, weighted.modal())
        assert out["iscoX"] == 1.0  # only soc1's modal group is X
        assert out["iscoY"] == 3.0

    def test_modal_tie_breaks_to_smallest_group(self):
        modal = bridge_of({"soc1": (("iscoB", 0.5), ("iscoA", 0.5))}).modal()
        assert soc_pair_dict(modal) == {"soc1": (("iscoA", 1.0),)}

    def test_missing_bridge_row_errors(self):
        bridge = bridge_of({"soc1": (("isco1", 1.0),)})
        with pytest.raises(LinkageError, match="occupation soc3 has no bridge row"):
            isco_values({"soc1": 1.0, "soc9": 2.0, "soc3": 2.0}, bridge)

    def test_groups_reached_by_zero_shares_or_other_socs_are_left_out(self):
        bridge = bridge_of({
            "soc1": (("isco1", 1.0), ("isco2", 0.0)),
            "soc2": (("isco1", 0.25), ("isco3", 0.75)),
            "soc9": (("isco4", 1.0),),
        })
        out = isco_values({"soc1": 1.0, "soc2": 3.0}, bridge)
        assert out == {"isco1": (1.0 + 0.25 * 3.0) / 1.25, "isco3": 3.0}

    def test_identity_equals_soc_summary_exactly(self, rng):
        dataset = dataset_with_levels({f"t{i}": int(rng.integers(0, 4)) for i in range(9)})
        weights = uniform_weights({"soc1": ["t0", "t1", "t2"], "soc2": ["t3", "t4"], "soc3": ["t5", "t6", "t7", "t8"]})
        cells = soc_summary(dataset, "AAA", weights)
        routes = bridge_routes(bridge_of({soc: ((f"isco_{soc}", 1.0),) for soc in weights.socs}), weights.socs)
        assert routes.groups == tuple(f"isco_{soc}" for soc in weights.socs)
        assert isco_summary(cells, routes).tolist() == cells.tolist()


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
        assert edge_records(edges) == [ReferenceCandidate("t1", "2410", pytest.approx(1.0))]

    def test_orthogonal_embeddings_below_floor(self):
        vectors = {"a": [1.0, 0.0], "b": [0.0, 1.0], "act": [1.0, 0.0]}
        tasks = {"t1": "b"}
        activities = {"0101": "act"}
        edges = build_candidates(tasks, activities, _StubEmbedder(vectors), top_k=5, floor=0.5)
        assert edge_records(edges) == []

    def test_matches_exhaustive_cosine_ranking(self):
        provider = HashEmbedder(dim=16)
        tasks = {f"t{i}": f"task text number {i}" for i in range(3)}
        activities = {f"010{j}": f"activity description {j}" for j in range(2)}
        edges = edge_records(build_candidates(tasks, activities, provider, top_k=2, floor=-1.0))
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
            expected.extend(ReferenceCandidate(t, isic4, s) for t, s in sims[:2])
        assert [(e.task_id, e.isic4) for e in edges] == [(e.task_id, e.isic4) for e in expected]
        for got, want in zip(edges, expected):
            assert got.similarity == pytest.approx(want.similarity, abs=1e-12)

    def test_tied_similarities_rank_in_task_id_order(self):
        # 40 tasks with four texts in turn: each activity ties the tasks of each text
        texts = ["first text", "second text", "third text", "fourth text"]
        tasks = {f"t{i:02d}": texts[i % 4] for i in range(40)}
        edges = build_candidates(tasks, {"0101": "first text"}, HashEmbedder(dim=8), top_k=40, floor=-1.0)
        ranked = sorted(tasks, key=lambda t: (-float(edges.similarity[list(edges.task_id).index(t)]), t))
        assert list(edges.task_id) == ranked
        assert list(edges.task_id[:10]) == [f"t{i:02d}" for i in range(0, 40, 4)]

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
            record_embedding(tmp_path, text, vec)
        edges = edge_records(build_candidates(tasks, activities, provider, top_k=2, floor=0.0))
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
        return EdgeColumns(["t1", "t2"], ["0101", "0101"], np.array([0.9, 0.8]))

    def _one_edge(self, votes):
        """``prune_edges`` of one candidate whose ballots are ``votes``."""
        script = {("task one", "activity one", b): valid for b, valid in enumerate(votes)}
        candidate = EdgeColumns(["t1"], ["0101"], np.array([0.5]))
        return prune_edges(candidate, _ScriptedVoter(script), self.TASKS, self.ACTS, votes_per_edge=len(votes))

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
        [retained] = edge_records(result.graph.edges)
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
            result = self._one_edge(votes)
            assert result.n_retained == (sum(votes) >= 2)
            assert result.mean_agreement == max(sum(votes), 3 - sum(votes)) / 3
            if result.n_retained:
                assert edge_records(result.graph.edges) == [ReferenceEdge("t1", "0101", 0.5, votes)]

    def test_retention_monotone_in_valid_votes(self):
        for votes in itertools.product([True, False], repeat=3):
            if self._one_edge(votes).n_retained:
                for i in range(3):
                    flipped = list(votes)
                    flipped[i] = True
                    assert self._one_edge(flipped).n_retained

    def test_tally_votes_counts(self):
        log = [("t1", "0101", [True, True, False]), ("t2", "0101", [False, False, True])]
        result = tally_votes(log)
        assert result.n_candidates == 2
        assert result.n_retained == 1
        assert result.mean_agreement == pytest.approx(2 / 3)


class TestReplayProviders:
    def test_replay_embedder_round_trip(self, tmp_path):
        provider = ReplayEmbedder(tmp_path)
        record_embedding(tmp_path, "some text", [0.1, 0.2])
        assert np.allclose(next(provider.embed_many(["some text"])), [0.1, 0.2])
        with pytest.raises(ProviderError):
            list(provider.embed_many(["unseen text"]))

    @pytest.mark.parametrize("fixture", ['{"a": 1}', '["x", 1]', "[[1], [2, 3]]", "[NaN]", "[true]"])
    def test_replay_embedder_rejects_a_fixture_that_is_not_a_vector(self, tmp_path, fixture):
        provider = ReplayEmbedder(tmp_path)
        record_embedding(tmp_path, "some text", [0.1])
        next(tmp_path.iterdir()).write_text(fixture, encoding="utf-8")
        with pytest.raises(ProviderError, match="not a vector of finite numbers"):
            list(provider.embed_many(["some text"]))

    def test_replay_embedder_rejects_a_second_dimension(self, tmp_path):
        provider = ReplayEmbedder(tmp_path)
        record_embedding(tmp_path, "one", [0.1, 0.2])
        record_embedding(tmp_path, "two", [0.1, 0.2, 0.3])
        vectors = provider.embed_many(["one", "two"])
        assert np.allclose(next(vectors), [0.1, 0.2])
        with pytest.raises(ProviderError, match="3 dimensions, not 2"):
            next(vectors)

    def test_replay_voter_round_trip(self, tmp_path):
        voter = ReplayVoter(tmp_path)
        record_vote(tmp_path, "task", "act", 0, True)
        record_vote(tmp_path, "task", "act", 1, False)
        assert voter.vote("task", "act", 0) is True
        assert voter.vote("task", "act", 1) is False
        with pytest.raises(ProviderError):
            voter.vote("task", "act", 2)

    @pytest.mark.parametrize("fixture", ['"false"', "0", "1", "null", "[true]", '{"valid": true}'])
    def test_replay_voter_rejects_a_fixture_that_is_not_a_boolean(self, tmp_path, fixture):
        voter = ReplayVoter(tmp_path)
        record_vote(tmp_path, "task", "act", 0, False)
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
        edges = EdgeColumns(["t1", "t2"], ["0111", "2410"], np.array([0.91234, 0.7]),
                            np.array([[True, True, False], [True, True, True]]))
        return IndustryGraph(edges=edges, provenance={"top_k": 60, "floor": 0.3})

    def test_round_trip_bit_identical(self, tmp_path):
        graph = self._graph()
        path = tmp_path / "graph.jsonl"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert edge_records(loaded.edges) == edge_records(graph.edges)
        assert loaded.provenance == graph.provenance
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
            save_candidates(EdgeColumns([], [], np.empty(0)), {"floor": float("nan")}, tmp_path / "candidates.jsonl")
        assert not (tmp_path / "candidates.jsonl").exists()

    def test_duplicate_edges_rejected(self):
        edges = EdgeColumns(["t1", "t1"], ["0111", "0111"], np.array([0.9, 0.8]), np.ones((2, 1), bool))
        with pytest.raises(LinkageError, match="duplicate"):
            IndustryGraph(edges=edges)

    def test_division_is_two_digit_prefix(self):
        assert self._graph().division("0111") == "01"
        assert graph_divisions(self._graph()) == ["01", "24"]


#: ids with quotes, backslashes, control characters, non-ASCII letters, a line
#: separator, a character outside the Basic Multilingual Plane and a lone
#: surrogate (which both readers refuse)
EDGE_IDS = st.text(st.sampled_from('t0"\\\x00\x1f\x7f/é中\u2028\U0001f916\ud800'), max_size=5)
#: floats json.dumps writes in its own ways: signed zero, subnormals, the top
#: of the range and integral values
SIMILARITIES = st.sampled_from([-0.0, 0.0, 5e-324, 2.2e-308, 1e308, -1e308, 1.0, -3.0, 0.1 + 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False
)
#: a well-formed edge line, with room for more fields
GOOD = '{"task_id":"t1","isic4":"0111","similarity":0.5%s}'
META_VALUES = st.none() | st.booleans() | st.integers(-10, 10) | SIMILARITIES | EDGE_IDS


def outcome(read, path):
    """What reading ``path`` gives: the meta object and the edges, or the
    type and message of the error it raises."""
    try:
        return read(path)
    except Exception as exc:  # compared between two readers, whatever it is
        return type(exc), str(exc)


def read_edges(path, graph: bool):
    """The meta object and the edges of a candidates (or ``graph``) file, as the linkage reader reads them."""
    if graph:
        loaded = load_graph(path)
        return loaded.provenance, edge_records(loaded.edges)
    edges, meta = load_candidates(path)
    return meta, edge_records(edges)


class TestEdgeCodec:
    """The link artifacts are written with json.dumps's bytes, and read back as
    json_value and a test of each field read them, one line at a time."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), graph=st.booleans(), width=st.integers(1, 5))
    def test_bytes_and_columns_equal_the_per_record_codec(self, tmp_path_factory, data, graph, width):
        tmp = tmp_path_factory.mktemp("codec")
        keys = data.draw(st.lists(st.tuples(EDGE_IDS, EDGE_IDS), max_size=8, unique=graph))
        similarity = [data.draw(SIMILARITIES) for _ in keys]
        meta = data.draw(st.dictionaries(EDGE_IDS, META_VALUES, max_size=3))
        if graph:
            votes = [tuple(data.draw(st.lists(st.booleans(), min_size=width, max_size=width))) for _ in keys]
            records = [ReferenceEdge(t, c, s, v) for (t, c), s, v in zip(keys, similarity, votes)]
            save_graph(IndustryGraph(EdgeColumns(
                [t for t, _ in keys], [c for _, c in keys], np.array(similarity, float),
                np.array(votes, bool).reshape(len(keys), width),
            ), provenance=meta), tmp / "new.jsonl")
            records.sort(key=lambda e: (e.isic4, e.task_id))
        else:
            records = [ReferenceCandidate(t, c, s) for (t, c), s in zip(keys, similarity)]
            save_candidates(EdgeColumns([t for t, _ in keys], [c for _, c in keys], np.array(similarity, float)),
                            meta, tmp / "new.jsonl")
        reference_write_edges(tmp / "reference.jsonl", meta, records)
        assert (tmp / "new.jsonl").read_bytes() == (tmp / "reference.jsonl").read_bytes()
        # both readers read the same file, whose name an error holds
        expected = outcome(lambda path: reference_read_edges(path, graph), tmp / "new.jsonl")
        assert outcome(lambda path: read_edges(path, graph), tmp / "new.jsonl") == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("graph", [False, True], ids=["candidates", "graph"])
    def test_a_non_finite_similarity_is_refused_as_json_dumps_refuses_it(self, tmp_path, graph, bad):
        votes = np.ones((2, 1), bool) if graph else None
        edges = EdgeColumns(["t1", "t2"], ["0111", "0111"], np.array([0.5, bad]), votes)
        records = edge_records(edges)
        with pytest.raises(ValueError) as expected:
            reference_write_edges(tmp_path / "reference.jsonl", {}, records)
        with pytest.raises(ValueError) as got:
            if graph:
                save_graph(IndustryGraph(edges), tmp_path / "new.jsonl")
            else:
                save_candidates(edges, {}, tmp_path / "new.jsonl")
        assert str(got.value) == str(expected.value)
        assert not (tmp_path / "new.jsonl").exists()

    #: per case: whether the file is a graph, and the lines after the meta line
    MALFORMED = {
        "not_json": (False, ['{"task_id":"t1",']),
        "not_an_object": (False, ['["t1","0111",0.5]']),
        "a_string": (False, ['"t1"']),
        "missing_field": (False, ['{"task_id":"t1","isic4":"0111"}']),
        "nan_similarity": (False, ['{"task_id":"t1","isic4":"0111","similarity":NaN}']),
        "infinite_similarity": (False, ['{"task_id":"t1","isic4":"0111","similarity":-Infinity}']),
        "similarity_past_float_range": (False, ['{"task_id":"t1","isic4":"0111","similarity":1%s}' % ("0" * 400)]),
        "bool_similarity": (False, ['{"task_id":"t1","isic4":"0111","similarity":true}']),
        "integer_similarity": (False, ['{"task_id":"t1","isic4":"0111","similarity":1}']),
        "number_task_id": (False, ['{"task_id":7,"isic4":"0111","similarity":0.5}']),
        "huge_integer_field": (False, ['{"task_id":"t1","isic4":"0111","similarity":0.5,"n":%s}' % ("9" * 5000)]),
        "lone_surrogate": (False, ['{"task_id":"\\ud800","isic4":"0111","similarity":0.5}']),
        "lone_surrogate_in_a_key": (False, ['{"task_id":"t1","isic4":"0111","similarity":0.5,"\\udfff":1}']),
        "surrogate_pair": (False, ['{"task_id":"\\ud83e\\udd16","isic4":"0111","similarity":0.5}']),
        "invalid_utf8": (False, [b'{"task_id":"t\xff","isic4":"0111","similarity":0.5}']),
        "byte_order_mark": (False, ["﻿" + GOOD % ""]),
        "white_space_around": (False, ["  " + GOOD % "" + " \t"]),
        "trailing_data": (False, [GOOD % "" + "{}"]),
        "crlf_line_ends": (False, [GOOD % "" + "\r"]),
        "blank_lines": (False, ["", " ", "\t\x0b\x0c\r", GOOD % ""]),
        "duplicate_key": (False, ['{"task_id":"t1","isic4":"0111","similarity":"x","similarity":0.5}']),
        "a_second_meta_line": (False, ['{"meta":{}}']),
        "field_fault_before_bad_json": (False, ['{"task_id":"t1","isic4":"0111","similarity":NaN}', "{oops"]),
        "bad_json_before_field_fault": (False, ["{oops", '{"task_id":"t1","isic4":"0111","similarity":NaN}']),
        "votes_not_a_list": (True, [GOOD % ',"votes":"true"']),
        "vote_of_one": (True, [GOOD % ',"votes":[true,1,false]']),
        "vote_of_null": (True, [GOOD % ',"votes":[true,null]']),
        "no_votes": (True, [GOOD % ""]),
        "duplicate_edge": (True, [GOOD % ',"votes":[true,true,true]', GOOD % ',"votes":[false,true,false]']),
        "graph_crlf_line_ends": (True, [GOOD % ',"votes":[true,false,true]\r']),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_line_is_read_as_the_per_record_reader_reads_it(self, tmp_path, case):
        graph, lines = self.MALFORMED[case]
        votes = ',"votes":[true,true,false]' if graph else ""
        before, after = (GOOD % votes).replace("t1", "t0"), (GOOD % votes).replace("t1", "t9")
        text = [line.encode("utf-8") if isinstance(line, str) else line
                for line in ['{"meta":{"floor":0.3}}', before, *lines, after]]
        path = tmp_path / "edges.jsonl"
        path.write_bytes(b"\n".join(text) + b"\n")
        assert outcome(lambda p: read_edges(p, graph), path) == outcome(lambda p: reference_read_edges(p, graph), path)

    def test_edges_holding_unequal_ballot_counts_are_refused(self, tmp_path):
        path = tmp_path / "graph.jsonl"
        edge = '{"task_id":"%s","isic4":"0111","similarity":0.5,"votes":%s}'
        path.write_text("\n".join(['{"meta":{}}', edge % ("t1", "[true,true,false]"), "",
                                   edge % ("t2", "[true]")]) + "\n", encoding="utf-8")
        with pytest.raises(LinkageError, match=r"graph.jsonl: line 4 has 1 votes, not 3 as line 2$"):
            load_graph(path)


class _LoggedVoter:
    """Votes from a script of outcomes, True, False or "fail" (a ProviderError),
    repeated; each call is logged."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def vote(self, task_text, activity_text, ballot):
        outcome = self.script[len(self.calls) % len(self.script)]
        self.calls.append((task_text, activity_text, ballot))
        if outcome == "fail":
            raise ProviderError("scripted failure")
        return outcome


class TestPruneMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.lists(st.tuples(st.sampled_from(["t0", "t1", "t2", "t3"]), st.sampled_from(["0101", "0102", "2410"])),
                      max_size=8),
        texts=st.sets(st.sampled_from(["t0", "t1", "t2", "t3", "0101", "0102", "2410"])),
        script=st.lists(st.sampled_from([True, False, "fail"]), min_size=1, max_size=7),
        votes=st.sampled_from([1, 3, 5]),
        retries=st.integers(0, 2),
    )
    def test_same_ballots_in_the_same_order_and_the_same_outcome(self, keys, texts, script, votes, retries):
        """Missing texts, provider failures and duplicate candidates included."""
        similarity = [0.5 + i / 16 for i in range(len(keys))]
        task_texts = {t: f"task {t}" for t in ("t0", "t1", "t2", "t3") if t in texts}
        activity_texts = {c: f"activity {c}" for c in ("0101", "0102", "2410") if c in texts}
        results = []
        for prune, candidates in (
            (prune_edges, EdgeColumns([t for t, _ in keys], [c for _, c in keys], np.array(similarity))),
            (reference_prune, [ReferenceCandidate(t, c, s) for (t, c), s in zip(keys, similarity)]),
        ):
            voter = _LoggedVoter(script)
            try:
                result = prune(candidates, voter, task_texts, activity_texts, votes_per_edge=votes, retries=retries)
                retained = result.graph.edges if prune is prune_edges else result.retained
                results.append((voter.calls, list(retained if prune is reference_prune else edge_records(retained)),
                                result.n_candidates, result.n_retained, result.mean_agreement))
            except InputError as exc:  # LinkageError or ProviderError
                results.append((voter.calls, type(exc), str(exc)))
        assert results[0] == results[1]


class TestIndustrySummary:
    def _graph(self, links):
        pairs = [(t, c) for c, tasks in links.items() for t in tasks]
        return IndustryGraph(edges=EdgeColumns(
            [t for t, _ in pairs], [c for _, c in pairs], np.ones(len(pairs)), np.ones((len(pairs), 1), bool),
        ))

    @staticmethod
    def values(cells, name="value"):
        """Column ``name`` of industry cells by unit."""
        return dict(zip(cells.units, cells.columns[name]))

    def test_chain_of_singletons(self):
        dataset = dataset_with_levels({"t1": 3})
        summary = industry_summary(dataset, "AAA", self._graph({"0111": ["t1"]}))
        assert self.values(summary.classes)["0111"] == 3.0
        assert self.values(summary.divisions)["01"] == 3.0

    def test_division_equal_weighting(self):
        dataset = dataset_with_levels({"t1": 0, "t2": 2, "t3": 1, "t4": 3})
        # class 0111 mean (t1,t2) = 1.0 ; class 0112 mean (t3,t4) = 2.0 ; division 01 = 1.5
        graph = self._graph({"0111": ["t1", "t2"], "0112": ["t3", "t4"]})
        summary = industry_summary(dataset, "AAA", graph)
        assert self.values(summary.divisions)["01"] == pytest.approx(1.5)

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
            assert self.values(summary.classes)["0111"] == pytest.approx(class_means["0111"])
            divisions = self.values(summary.divisions)
            assert divisions["01"] == pytest.approx((class_means["0111"] + class_means["0112"]) / 2)
            assert divisions["24"] == pytest.approx(class_means["2410"])

    def test_enumeration_order_invariant(self):
        dataset = dataset_with_levels({"t1": 2, "t2": 3, "t3": 0})
        links = {"0111": ["t1", "t2"], "0112": ["t3"]}
        reversed_links = {"0112": ["t3"], "0111": ["t2", "t1"]}
        a = industry_summary(dataset, "AAA", self._graph(links))
        b = industry_summary(dataset, "AAA", self._graph(reversed_links))
        assert a.divisions == b.divisions


class TestCallProvider:
    def test_provider_errors_retried_then_raised(self):
        calls = []

        def flaky():
            calls.append(1)
            raise ProviderError("down")

        with pytest.raises(ProviderError, match=r"^voter failed 3 times on edge \(t1, 0101\): down$"):
            call_provider(flaky, 2, "voter", "edge (t1, 0101)")
        assert len(calls) == 3

    def test_returns_first_success(self):
        outcomes = iter([ProviderError("down"), "ok"])

        def once_flaky():
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        assert call_provider(once_flaky, 1, "voter", "edge") == "ok"

    def test_a_callable_name_is_called_only_on_failure(self):
        named = []

        def name():
            named.append(1)
            return "edge (t1, 0101)"

        def down():
            raise ProviderError("down")

        assert call_provider(lambda: "ok", 2, "voter", name) == "ok"
        assert not named
        with pytest.raises(ProviderError, match=r"^voter failed 1 times on edge \(t1, 0101\): down$"):
            call_provider(down, 0, "voter", name)
        assert named == [1]

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
    weights = weights_of({"soc1": (("t1", 0.5), ("t2", 0.5)), "soc2": (("t3", 1.0),)})
    bridge = bridge_of({"soc1": (("isco1", 1.0),), "soc2": (("isco2", 1.0),)})
    return deduplicate(records), weights, bridge


def table_rows(tables) -> dict:
    """Each table of ``occupation_summary`` as its field names and rows."""
    return {name: (fields, list(zip(*columns))) for name, (fields, columns) in tables.items()}


class TestOccupationSummary:
    def test_pockets_average_across_countries(self):
        dataset, weights, bridge = _pocket_dataset()
        tables = table_rows(occupation_summary(dataset, ["AAA", "BBB", "CCC"], weights, bridge))
        assert tables["pockets_occupation"] == (
            ("margin", "rank", "isco", "exposed_share", "margin_share", "product"),
            [
                # augment / exposed: AAA 0, BBB 0.5 -> mean 0.25
                ("augment", 1, "isco1", 0.5, 0.25, 0.125),
                # exposed share of isco1: AAA 0.5, BBB 1.0, CCC 0 -> mean 0.5
                # substitute / exposed: AAA 0.5/0.5, BBB 0.5/1.0, CCC unexposed and left out -> mean 0.75
                ("substitute", 1, "isco1", 0.5, 0.75, 0.375),
            ],
        )

    def test_cells_and_isco_rows_per_country(self):
        dataset, weights, bridge = _pocket_dataset()
        tables = table_rows(occupation_summary(dataset, ["BBB", "AAA"], weights, bridge))
        fields, rows = tables["occupation_summary"]
        assert fields == ("iso3", "soc", *REFERENCE_SOC_COLUMNS)
        assert [row[:2] for row in rows] == [("BBB", "soc1"), ("BBB", "soc2"), ("AAA", "soc1"), ("AAA", "soc2")]
        fields, groups = tables["isco_summary"]
        assert fields == ("iso3", "isco", "value", "exposed_share", "margin_substitute", "margin_augment",
                          "margin_both")
        assert [row[:2] for row in groups] == [("BBB", "isco1"), ("BBB", "isco2"), ("AAA", "isco1"), ("AAA", "isco2")]
        for iso3, start in (("BBB", 0), ("AAA", 2)):
            cells = soc_cells(dataset, iso3, weights)
            assert list(rows[start][2:]) == list(cells["soc1"].values())
            assert groups[start][2] == cells["soc1"]["value"]
            assert groups[start + 1][3] == cells["soc2"]["exposed_share"]
        assert all(type(value) is float for _, columns in tables.values() for row in columns for value in row[3:])

    def test_top_pockets_and_no_bridge(self):
        dataset, weights, _ = _pocket_dataset()
        bridge = bridge_of({"soc1": (("isco1", 1.0),), "soc2": (("isco1", 1.0),)})
        summary = occupation_summary(dataset, ["AAA", "BBB"], weights, bridge, top_pockets=0)
        assert summary["pockets_occupation"][1] == [[] for _ in range(6)]
        plain = occupation_summary(dataset, ["AAA", "BBB"], weights)
        assert list(plain) == ["occupation_summary"]
        assert plain["occupation_summary"] == summary["occupation_summary"]

    def test_no_countries_writes_empty_tables(self):
        dataset, weights, _ = _pocket_dataset()
        bridge = bridge_of({"soc1": (("isco1", 1.0),)})  # no row for soc2, but no country to route
        tables = occupation_summary(dataset, [], weights, bridge)
        assert [len(columns[0]) for _, columns in tables.values()] == [0, 0, 0]

    def test_one_summary_call_of_each_per_country(self, monkeypatch):
        dataset, weights, bridge = _pocket_dataset()
        calls = []
        for name in ("soc_summary", "isco_summary"):
            function = getattr(linkage, name)
            monkeypatch.setattr(linkage, name, lambda *args, f=function, n=name: calls.append(n) or f(*args))
        occupation_summary(dataset, ["AAA", "BBB", "CCC"], weights, bridge)
        assert calls == ["soc_summary"] * 3 + ["isco_summary"] * 3


def _ranked(units: dict, top_pockets=None) -> list:
    """The substitute pockets of one country whose ISCO groups each hold one
    SOC of three tasks: exposed with margin substitute, exposed with margin
    augment and unexposed, weighted so that the group's exposed share and
    within-exposed substitute share are those of ``units``."""
    records, weights, bridge = [], {}, {}
    for unit, (exposed, within) in units.items():
        tasks = {f"{unit}_sub": (3, Margin.SUBSTITUTE, exposed * within),
                 f"{unit}_aug": (3, Margin.AUGMENT, exposed - exposed * within),
                 f"{unit}_none": (0, Margin.UNCLEAR, 1.0 - exposed)}
        records += [make_record(task, exposure=level, margin=margin) for task, (level, margin, _) in tasks.items()]
        weights[f"soc_{unit}"] = tuple((task, w) for task, (*_, w) in tasks.items())
        bridge[f"soc_{unit}"] = ((unit, 1.0),)
    tables = occupation_summary(deduplicate(records), ["AAA"], weights_of(weights), bridge_of(bridge), top_pockets)
    return [row for row in table_rows(tables)["pockets_occupation"][1] if row[0] == "substitute"]


class TestMarginPockets:
    def test_product_order(self):
        ranked = _ranked({"u1": (0.9, 0.8), "u2": (0.5, 0.9)})
        assert [row[2] for row in ranked] == ["u1", "u2"]
        assert ranked[0][5] == pytest.approx(0.72)

    def test_zero_margin_ranks_last(self):
        assert [row[2] for row in _ranked({"u1": (0.9, 0.0), "u2": (0.125, 0.125)})] == ["u2", "u1"]

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
        assert [row[2] for row in _ranked(units)] == expected

    def test_tie_breaks_on_unit_id(self):
        ranked = _ranked({"b": (0.5, 0.25), "a": (0.25, 0.5)})
        assert [row[2] for row in ranked] == ["a", "b"]
        assert ranked[0][5] == ranked[1][5] == 0.125

    def test_top_n(self):
        units = {f"u{i}": (0.125 * i, 0.5) for i in range(0, 6)}
        assert [row[2] for row in _ranked(units)] == ["u5", "u4", "u3", "u2", "u1"]  # u0 is exposed nowhere, unranked
        assert [(row[1], row[2]) for row in _ranked(units, top_pockets=2)] == [(1, "u5"), (2, "u4")]


#: the labels a country may hold for a task: (exposure, margin, channel, AI material)
LABELS = st.tuples(st.integers(0, 3), st.sampled_from(list(Margin)), st.sampled_from(list(Channel)), st.booleans())


def _normalized(data, members, label):
    """(member, share) pairs over distinct ``members``, drawn as small integers
    over their total: zeros and ties are common."""
    chosen = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3, unique=True), label=label)
    counts = data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=len(chosen), max_size=len(chosen)),
                       label=f"{label} counts")
    counts[0] += not sum(counts)
    return tuple((member, count / sum(counts)) for member, count in zip(chosen, counts))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_occupation_summary_matches_the_dict_reference(data):
    """The coded tables equal the dict-based reference cell for cell, or both
    raise the same error: over tasks missing from a country's labels, zero
    weights up to an occupation with zero usable mass, zero bridge shares,
    SOCs with no bridge row and bridge SOCs outside the weights, the modal
    bridge's ties, and every ``top_pockets``."""
    tasks = [f"t{i}" for i in range(6)]
    countries = data.draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC"]), max_size=3, unique=True), label="countries")
    records = []
    for iso3 in countries:
        missing = data.draw(st.lists(st.sampled_from(tasks), max_size=3, unique=True), label=f"{iso3} missing")
        for task in sorted(set(tasks).difference(missing)):
            exposure, margin, channel, ai = data.draw(LABELS, label=f"{iso3} {task}")
            records.append(make_record(task, country=iso3, exposure=exposure, margin=margin, channel=channel,
                                       ai_material=ai))
    dataset = deduplicate(records)
    socs = data.draw(st.lists(st.sampled_from(["s0", "s1", "s2", "s3"]), min_size=1, max_size=4, unique=True),
                     label="socs")
    weights = {soc: _normalized(data, tasks, f"{soc} weights") for soc in socs}
    bridge = modal = None
    if data.draw(st.booleans(), label="bridge"):
        bridged = [soc for soc in [*socs, "s9"] if data.draw(st.integers(0, 9), label=f"{soc} bridged")]
        bridge = {soc: _normalized(data, ["g0", "g1", "g2", "g3"], f"{soc} shares") for soc in bridged}
        modal = data.draw(st.booleans(), label="modal")
    top_pockets = data.draw(st.none() | st.integers(0, 4), label="top pockets")

    def coded(_):
        coded_bridge = None if bridge is None else bridge_of(bridge).modal() if modal else bridge_of(bridge)
        return table_rows(occupation_summary(dataset, countries, weights_of(weights), coded_bridge, top_pockets))

    def reference(_):
        reference_bridge = reference_modal(bridge) if modal else bridge
        return reference_occupation_tables(dataset, countries, weights, reference_bridge, top_pockets)

    expected = outcome(reference, None)
    event(f"occupation summary: {'ok' if isinstance(expected, dict) else expected[0].__name__}")
    assert outcome(coded, None) == expected
