import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record, random_dataset
from oracles import (
    NaiveHashEmbedder,
    deduplicate,
    naive_agreement_suite,
    naive_consistency_screen,
    naive_content_tokens,
    naive_divergence_payload,
    naive_mentions,
    naive_paraphrase_stability,
    record_embedding,
    row_views,
)
from taskatlas.aggregate import modal_pathway_states, summarize_all
from taskatlas.core import Channel, Margin, TaskLabelRecord
from taskatlas.linkage import HashEmbedder, ProviderError, ReplayEmbedder
from taskatlas.validate import (
    DEFAULT_LEXICON,
    DEFAULT_NEGATORS,
    DEFAULT_STOPWORDS,
    PairMetrics,
    RationalePair,
    ValidateError,
    agreement_suite,
    chance_baseline,
    consistency_screen,
    content_tokens,
    distribution_check,
    jaccard,
    paraphrase_stability,
    rationale_divergence,
)


def dataset_with_levels(levels, country="AAA", prefix="t"):
    records = [
        make_record(f"{prefix}{i}", country=country, exposure=lvl,
                    margin=Margin.BOTH if lvl >= 2 else Margin.UNCLEAR,
                    channel=Channel.RULE_BASED_WORKFLOW if lvl >= 2 else Channel.NONE)
        for i, lvl in enumerate(levels)
    ]
    return deduplicate(records)


class TestAgreementSuite:
    def test_self_comparison_is_one_everywhere(self, rng):
        dataset = random_dataset(rng, {"AAA": 60}, unclear_rate=0.1)
        report = agreement_suite(dataset, dataset)
        assert report.exact_level == 1.0
        assert report.within_one_level == 1.0
        assert report.binary_exposed == 1.0
        for field, value in report.per_field.items():
            if value is not None:
                assert value == 1.0
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert report.confusion[i][j] == 0

    def test_four_record_fixture(self):
        run_a = dataset_with_levels([0, 2, 3, 0])
        run_b = dataset_with_levels([1, 2, 2, 3])
        report = agreement_suite(run_a, run_b)
        assert report.exact_level == pytest.approx(0.25)
        assert report.within_one_level == pytest.approx(0.75)
        assert report.binary_exposed == pytest.approx(0.75)
        assert sum(sum(row) for row in report.confusion) == report.n == 4

    def test_ordering_invariants(self, rng):
        a = random_dataset(rng, {"AAA": 80}, unclear_rate=0.2)
        b = random_dataset(np.random.default_rng(99), {"AAA": 80}, unclear_rate=0.2)
        report = agreement_suite(a, b)
        assert report.exact_level <= report.within_one_level <= 1.0
        assert report.exact_level <= report.binary_exposed

    def test_margin_unscored_when_no_key_is_exposed_in_both_runs(self):
        run_a = dataset_with_levels([2, 0, 3, 1])
        run_b = dataset_with_levels([1, 2, 0, 3])
        report = agreement_suite(run_a, run_b)
        assert report.per_field["margin_exposed"] is None
        assert "margin_exposed" not in report.baselines
        assert report.per_field["dominant_channel"] == 0.0
        assert report.binary_exposed == 0.0

    def test_four_record_fixture_field_shares_and_confusion(self):
        run_a = deduplicate([
            make_record("t0", exposure=0, margin=Margin.UNCLEAR, channel=Channel.NONE),
            make_record("t1", exposure=2, margin=Margin.BOTH, ai_material=True),
            make_record("t2", exposure=3, margin=Margin.SUBSTITUTE, ai_material=True),
            make_record("t3", exposure=0, margin=Margin.UNCLEAR, channel=Channel.NONE),
        ])
        run_b = deduplicate([
            make_record("t0", exposure=1, margin=Margin.UNCLEAR, channel=Channel.NONE, ai_material=True),
            make_record("t1", exposure=2, margin=Margin.BOTH),
            make_record("t2", exposure=2, margin=Margin.AUGMENT, ai_material=True),
            make_record("t3", exposure=3, margin=Margin.AUGMENT),
        ])
        report = agreement_suite(run_a, run_b)
        # rows are run_a levels, columns run_b levels: (0, 1), (2, 2), (3, 2), (0, 3)
        assert report.confusion == ((0, 1, 0, 1), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0))
        assert report.per_field["dominant_channel"] == 0.75
        assert report.per_field["ai_materiality"] == 0.5
        # t1 and t2 are exposed in both runs; only t1 keeps its margin
        assert report.per_field["margin_exposed"] == 0.5
        assert "margin_exposed" in report.baselines

    def test_margin_scored_only_over_keys_exposed_in_both_runs(self):
        run_a = deduplicate([
            make_record("t0", exposure=2, margin=Margin.AUGMENT),
            make_record("t1", exposure=3, margin=Margin.AUGMENT),
            make_record("t2", exposure=3, margin=Margin.SUBSTITUTE),
        ])
        run_b = deduplicate([
            make_record("t0", exposure=2, margin=Margin.AUGMENT),
            make_record("t1", exposure=1, margin=Margin.AUGMENT),
            make_record("t2", exposure=0, margin=Margin.AUGMENT),
        ])
        report = agreement_suite(run_a, run_b)
        # t1 and t2 are exposed in run_a only, so neither counts for or against the margin
        assert report.per_field["margin_exposed"] == 1.0
        assert report.baselines["margin_exposed"] == 1.0
        assert report.binary_exposed == pytest.approx(1 / 3)

    def test_only_shared_keys_are_scored(self):
        run_a = dataset_with_levels([0, 1, 2, 3])
        run_b = deduplicate([
            make_record("t2", exposure=2), make_record("t3", exposure=2), make_record("u0", exposure=3),
        ])
        report = agreement_suite(run_a, run_b)
        # t0, t1 and u0 are in one run each; t2 agrees exactly, t3 within one level
        assert report.n == 2
        assert report.exact_level == 0.5
        assert report.within_one_level == 1.0
        assert report.binary_exposed == 1.0
        assert sum(sum(row) for row in report.confusion) == 2

    def test_empty_intersection_errors(self):
        run_a = dataset_with_levels([2], country="AAA")
        run_b = dataset_with_levels([2], country="BBB")
        with pytest.raises(ValidateError):
            agreement_suite(run_a, run_b)


class TestChanceBaseline:
    def test_uniform_five_categories(self):
        uniform = {c: 0.2 for c in "abcde"}
        assert chance_baseline(uniform, uniform) == pytest.approx(0.2)

    def test_point_masses_agree(self):
        assert chance_baseline({"x": 1.0}, {"x": 1.0}) == 1.0

    def test_hand_computed(self):
        assert chance_baseline({"a": 0.5, "b": 0.5}, {"a": 0.8, "b": 0.2}) == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(
        pa=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        pb=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    )
    def test_bounded(self, pa, pb):
        size = min(len(pa), len(pb))
        pa, pb = pa[:size], pb[:size]
        ma = {str(i): v / sum(pa) for i, v in enumerate(pa)}
        mb = {str(i): v / sum(pb) for i, v in enumerate(pb)}
        value = chance_baseline(ma, mb)
        assert 0.0 <= value <= 1.0 + 1e-12

    def test_one_only_for_matching_point_masses(self):
        assert chance_baseline({"a": 1.0}, {"b": 1.0}) == 0.0
        assert chance_baseline({"a": 0.9, "b": 0.1}, {"a": 0.9, "b": 0.1}) < 1.0


class TestParaphraseStability:
    def test_identical_variants_joint_one(self, rng):
        original = random_dataset(rng, {"AAA": 40})
        report = paraphrase_stability(original, [original, original, original])
        assert report.joint_within_one == 1.0
        assert all(r.exact_level == 1.0 for r in report.per_variant)

    def test_range_one_counts_as_stable(self):
        original = dataset_with_levels([2])
        variants = [dataset_with_levels([2]), dataset_with_levels([3]), dataset_with_levels([2])]
        report = paraphrase_stability(original, variants)
        assert report.joint_within_one == 1.0

    def test_range_two_not_stable(self):
        original = dataset_with_levels([2])
        variants = [dataset_with_levels([1]), dataset_with_levels([3])]
        report = paraphrase_stability(original, variants)
        assert report.joint_within_one == 0.0

    def test_pairwise_and_joint_hand_computed(self):
        original = dataset_with_levels([2, 2])
        variants = [dataset_with_levels([0, 2]), dataset_with_levels([1, 3]), dataset_with_levels([2, 2])]
        report = paraphrase_stability(original, variants)
        assert report.n == 2
        assert report.pairwise_within_one == ((1.0, 1.0, 0.5), (1.0, 1.0, 1.0), (0.5, 1.0, 1.0))
        # t0 ranges over levels 0..2 across the variants, t1 over 2..3
        assert report.joint_within_one == 0.5
        assert [r.exact_level for r in report.per_variant] == [0.5, 0.0, 1.0]

    def test_margin_unscored_for_a_variant_with_no_key_exposed_in_both_runs(self):
        original = dataset_with_levels([2, 0])
        variants = [dataset_with_levels([1, 3]), dataset_with_levels([3, 1])]
        report = paraphrase_stability(original, variants)
        assert report.per_variant[0].per_field["margin_exposed"] is None
        assert "margin_exposed" not in report.per_variant[0].baselines
        assert report.per_variant[1].per_field["margin_exposed"] == 1.0

    def test_needs_two_variants(self):
        original = dataset_with_levels([2])
        with pytest.raises(ValidateError):
            paraphrase_stability(original, [original])


class TestConsistencyScreen:
    def _dataset(self, rationale, exposure=3, margin=Margin.BOTH):
        record = make_record("t1", exposure=exposure, margin=margin, rationale=rationale)
        return deduplicate([record])

    def test_direct_contradiction_flagged(self):
        report = consistency_screen(self._dataset("Automation is not possible here."))
        assert report.n_flagged_records == 1
        assert report.flags[0].rule_id == "r1_level3_denies"

    def test_negator_outside_phrase_suppresses(self):
        report = consistency_screen(self._dataset("It is wrong to say automation is not possible."))
        assert report.n_flagged_records == 0

    def test_rule_eligibility_respected(self):
        # same denial phrase on a level-0 record is not an r1 conflict
        report = consistency_screen(self._dataset("Automation is not possible here.", exposure=0))
        assert all(f.rule_id != "r1_level3_denies" for f in report.flags)

    def test_ai_invocation_on_not_material(self):
        record = make_record("t1", exposure=2, margin=Margin.BOTH, ai_material=False,
                             rationale="An LLM could draft this text end to end.")
        report = consistency_screen(deduplicate([record]))
        assert any(f.rule_id == "r5_notai_invokes_ai" for f in report.flags)

    def test_sentence_boundary_isolates_negator(self):
        # negator in a different sentence does not suppress
        text = "This is never trivial. Automation is not possible here."
        report = consistency_screen(self._dataset(text))
        assert report.n_flagged_records == 1

    def test_monotone_in_lexicon(self, rng):
        dataset = random_dataset(rng, {"AAA": 50})
        small = {"r1_level3_denies": ("cannot be automated",)}
        large = {"r1_level3_denies": ("cannot be automated", "routine structured workflow")}
        flags_small = {f.key for f in consistency_screen(dataset, lexicon=small).flags}
        flags_large = {f.key for f in consistency_screen(dataset, lexicon=large).flags}
        assert flags_small <= flags_large

    def test_eligibility_counts(self, rng):
        dataset = random_dataset(rng, {"AAA": 60})
        report = consistency_screen(dataset)
        level3 = sum(1 for r in row_views(dataset.columns) if r.exposure == 3)
        assert report.per_rule["r1_level3_denies"].eligible == level3

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValidateError):
            consistency_screen(self._dataset("x"), lexicon={})
        with pytest.raises(ValidateError):
            consistency_screen(self._dataset("x"), lexicon={"r1_level3_denies": ()})

    def test_word_boundary_matching(self):
        # "ai" must not match inside "said"
        record = make_record("t1", exposure=2, margin=Margin.BOTH, ai_material=False,
                             rationale="The supervisor said this is manual work.")
        report = consistency_screen(deduplicate([record]))
        assert report.n_flagged_records == 0


class TestRationaleDivergence:
    def test_identical_texts_jaccard_one(self):
        pairs = [RationalePair("manual welding of pipes", "manual welding of pipes")]
        report = rationale_divergence(pairs)
        assert report.pairs[0].jaccard == 1.0

    def test_hand_computed_half(self):
        assert jaccard(frozenset("abc"), frozenset("bcd")) == pytest.approx(0.5)

    def test_disjoint_zero(self):
        pairs = [RationalePair("alpha beta gamma", "delta epsilon zeta")]
        assert rationale_divergence(pairs).pairs[0].jaccard == 0.0

    def test_empty_token_pair_skipped(self):
        pairs = [RationalePair("the of and", "welding pipes"), RationalePair("welding pipes", "welding pipes")]
        report = rationale_divergence(pairs)
        assert report.n_skipped == 1
        assert len(report.pairs) == 1

    @pytest.mark.parametrize("pairs", [[], [RationalePair("the of and", "welding pipes")]])
    def test_nothing_scored_is_an_error(self, pairs):
        with pytest.raises(ValidateError, match="no rationale pair was scored"):
            rationale_divergence(pairs)

    def test_token_rules(self):
        tokens = content_tokens("The 99 robots; a welder's torch!")
        assert "robots" in tokens and "torch" in tokens
        assert "99" not in tokens and "the" not in tokens and "a" not in tokens

    def test_cosine_and_quadrants(self):
        provider = HashEmbedder(dim=32)
        pairs = [RationalePair("welding pipes daily", "welding pipes daily")]
        report = rationale_divergence(pairs, embedder=provider)
        assert report.pairs[0].cosine == pytest.approx(1.0, abs=1e-9)
        assert report.quadrant_shares["high_jaccard/high_cosine"] == 1.0

    def test_country_mention_flag(self):
        pairs = [RationalePair("In Kenya this is manual.", "Automated everywhere.", "Kenya", "Japan")]
        metrics = rationale_divergence(pairs).pairs[0]
        assert metrics.mentions_a is True
        assert metrics.mentions_b is False

    @pytest.mark.parametrize("name", ["Korea, Rep.", "Congo, Dem. Rep.", "Micronesia, Fed. Sts."])
    def test_names_that_end_in_a_period_are_mentioned(self, name):
        texts = {
            f"Clerks file claims by hand in {name}": True,  # the end of a sentence
            f"Clerks file claims by hand in {name} Software is rare.": True,
            f"In {name}, clerks file claims by hand": True,  # before a comma
            f"In {name.upper()} clerks file claims by hand": True,
            f"In x{name} clerks file claims by hand": False,  # inside a longer word
            f"In {name}x clerks file claims by hand": False,
        }
        pairs = [RationalePair(text, "Software files the claims", name, name) for text in texts]
        metrics = rationale_divergence(pairs).pairs
        assert [m.mentions_a for m in metrics] == list(texts.values())
        assert [m.mentions_b for m in metrics] == [False] * len(texts)
        assert [naive_mentions(p.text_a, name) for p in pairs] == list(texts.values())

    def test_jaccard_symmetric_bounded(self, rng):
        for _ in range(20):
            a = frozenset(f"w{i}" for i in rng.integers(0, 30, size=rng.integers(1, 10)))
            b = frozenset(f"w{i}" for i in rng.integers(0, 30, size=rng.integers(1, 10)))
            assert jaccard(a, b) == jaccard(b, a)
            assert 0.0 <= jaccard(a, b) <= 1.0


class TestDistributionCheck:
    def test_singleton_point_mass(self):
        dataset = deduplicate([make_record("t1", exposure=2, margin=Margin.BOTH)])
        tables = distribution_check(dataset).groups["overall"]
        assert tables["exposure_level"] == {"2": 1.0}
        assert tables["margin"] == {"both": 1.0}

    def test_tables_sum_to_one(self, rng):
        dataset = random_dataset(rng, {"AAA": 70, "BBB": 50}, unclear_rate=0.15)
        tables = distribution_check(dataset).groups["overall"]
        for field, table in tables.items():
            assert abs(math.fsum(table.values()) - 1.0) < 1e-12

    def test_margin_raw_vs_normalized(self):
        # a sub-threshold record with a raw margin shows up only in margin_raw
        record = make_record("t1", exposure=1, margin=Margin.SUBSTITUTE)
        tables = distribution_check(deduplicate([record])).groups["overall"]
        assert tables["margin"] == {"unclear": 1.0}
        assert tables["margin_raw"] == {"substitute": 1.0}


# --- the array passes against the record-based oracles ---------------------------------------


def same_fields(report_fields, oracle_fields) -> bool:
    """Equal values, and equal bytes once written as JSON (no numpy scalar, no float drift)."""
    return report_fields == oracle_fields and json.dumps(report_fields, sort_keys=True) == json.dumps(
        oracle_fields, sort_keys=True
    )


KEYS = [(country, f"t{i}") for country in ("AAA", "BBB") for i in range(5)]


@st.composite
def datasets(draw):
    """Runs over a random subset of one key universe, so two runs overlap partly."""
    keys = draw(st.lists(st.sampled_from(KEYS), unique=True, min_size=1))
    return deduplicate(
        make_record(
            task_id, country=country, exposure=draw(st.integers(0, 3)), channel=draw(st.sampled_from(list(Channel))),
            margin=draw(st.sampled_from(list(Margin))), ai_material=draw(st.booleans()),
        )
        for country, task_id in keys
    )


class TestArrayPassesMatchRecordOracles:
    @settings(max_examples=150, deadline=None)
    @given(run_a=datasets(), run_b=datasets())
    def test_agreement_suite(self, run_a, run_b):
        expected = naive_agreement_suite(run_a, run_b)
        if expected is None:
            with pytest.raises(ValidateError, match="share no"):
                agreement_suite(run_a, run_b)
        else:
            assert same_fields(dataclasses.asdict(agreement_suite(run_a, run_b)), expected)

    @settings(max_examples=100, deadline=None)
    @given(original=datasets(), variants=st.lists(datasets(), min_size=2, max_size=3))
    def test_paraphrase_stability(self, original, variants):
        expected = naive_paraphrase_stability(original, variants)
        if expected is None:
            with pytest.raises(ValidateError, match="no common"):
                paraphrase_stability(original, variants)
        else:
            assert same_fields(dataclasses.asdict(paraphrase_stability(original, variants)), expected)

    def test_passes_build_no_row_view(self, rng, monkeypatch):
        dataset = random_dataset(rng, {"AAA": 40, "BBB": 30}, unclear_rate=0.2)
        other = random_dataset(rng, {"AAA": 25, "CCC": 10})

        def refuse(self, *args, **kwargs):
            raise AssertionError("a TaskLabelRecord row view was built")

        monkeypatch.setattr(TaskLabelRecord, "__init__", refuse)
        summarize_all(dataset)
        modal_pathway_states(dataset, dataset.countries())
        agreement_suite(dataset, other)
        paraphrase_stability(dataset, [other, dataset])
        consistency_screen(dataset)
        distribution_check(dataset)


PHRASES = sorted({phrase for phrases in DEFAULT_LEXICON.values() for phrase in phrases} | {"robot arm", "not"})
NEGATORS = [*DEFAULT_NEGATORS, "hardly", "ai"]


@st.composite
def screened_datasets(draw):
    """Datasets whose rationales are runs of rule phrases, negators, filler words
    and sentence breaks, over one key universe."""
    words = st.sampled_from([*PHRASES, *NEGATORS, "the task", "LLM-based", "Automation"])
    breaks = st.sampled_from([" ", " ", ". ", "; ", "! ", "? ", ".", ", "])
    keys = draw(st.lists(st.sampled_from(KEYS), unique=True, min_size=1))
    return deduplicate(
        make_record(
            task_id, country=country, exposure=draw(st.integers(0, 3)), margin=draw(st.sampled_from(list(Margin))),
            ai_material=draw(st.booleans()),
            rationale="".join(w + b for w, b in draw(st.lists(st.tuples(words, breaks), max_size=8))),
        )
        for country, task_id in keys
    )


lexicons = st.dictionaries(
    st.sampled_from(sorted(DEFAULT_LEXICON)), st.lists(st.sampled_from(PHRASES), min_size=1, max_size=4), min_size=1
)


class TestColumnPassesMatchRecordOracles:
    @settings(max_examples=200, deadline=None)
    @given(
        dataset=screened_datasets(), lexicon=st.one_of(st.none(), lexicons),
        negators=st.lists(st.sampled_from(NEGATORS), max_size=4),
    )
    def test_screen(self, dataset, lexicon, negators):
        report = consistency_screen(dataset, lexicon=lexicon, negators=negators)
        expected = naive_consistency_screen(dataset, lexicon or DEFAULT_LEXICON, negators)
        assert same_fields(dataclasses.asdict(report), expected)


# letters that regex and str.lower treat unlike ASCII: dotted capital I, the
# Kelvin sign (lowers to ASCII k), sharp s; plus digits, apostrophes and one-letter words
TEXTS = st.one_of(
    st.text(alphabet="abzAZ\u0130\u212a\u00df\u00e9079' .,-"),
    st.lists(
        st.sampled_from(["a", "I", "the", "of", "AI", "don't", "x9y", "\u212aelvin", "\u0130stanbul", "stra\u00dfe",
                         "Kenya", "welding", "pipes", "Welding", "ok"]),
    ).map(" ".join),
)
COUNTRIES = st.one_of(
    st.none(), st.sampled_from(["Kenya", "C\u00f4te d'Ivoire"]), st.text(alphabet="aK.*+?()[]{}|^$\\ \u212a", min_size=1)
)


#: lists of texts to embed, empty ones, non-ASCII ones and repeats among them
EMBEDDED_TEXTS = st.lists(
    st.one_of(st.sampled_from(["", "welding pipes", "stra\u00dfe", "\u65e5\u672c\u8a9e", "\U0001f916 robot"]),
              st.text(st.characters(blacklist_categories=("Cs",)))),
    max_size=8,
).map(lambda texts: texts + texts[::2])


@st.composite
def rationale_pairs(draw):
    country_a, country_b = draw(COUNTRIES), draw(COUNTRIES)
    text_a = draw(TEXTS) + (f" in {country_a}" if country_a and draw(st.booleans()) else "")
    text_b = draw(TEXTS) + (f" for {country_b}." if country_b and draw(st.booleans()) else "")
    return RationalePair(text_a, text_b, country_a, country_b)


class TestDivergenceMatchesOracles:
    @settings(max_examples=300, deadline=None)
    @given(text=TEXTS)
    def test_content_tokens(self, text):
        assert content_tokens(text) == naive_content_tokens(text, DEFAULT_STOPWORDS)

    @settings(max_examples=100, deadline=None)
    @given(texts=EMBEDDED_TEXTS, dim=st.integers(1, 80))
    def test_hash_embedding_bits(self, texts, dim):
        got = [vector.tobytes() for vector in HashEmbedder(dim).embed_many(texts)]
        assert got == [NaiveHashEmbedder(dim).embed(text).tobytes() for text in texts]

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(rationale_pairs(), max_size=6), cosine=st.booleans(),
           thresholds=st.tuples(st.floats(0, 1), st.floats(-1, 1)))
    def test_payload(self, pairs, cosine, thresholds):
        expected = naive_divergence_payload(
            pairs, DEFAULT_STOPWORDS, NaiveHashEmbedder(16) if cosine else None, *thresholds
        )
        embedder = HashEmbedder(16) if cosine else None
        if expected is None:
            with pytest.raises(ValidateError, match="no rationale pair was scored"):
                rationale_divergence(pairs, embedder=embedder, jaccard_threshold=thresholds[0],
                                     cosine_threshold=thresholds[1])
            return
        report = rationale_divergence(pairs, embedder=embedder, jaccard_threshold=thresholds[0],
                                      cosine_threshold=thresholds[1])
        assert same_fields(report.to_dict(), expected)
        pair_dicts = [dict(zip(PairMetrics._fields, m)) for m in report.pairs]
        as_written = json.dumps(
            {**dataclasses.asdict(report), "pairs": pair_dicts, "n_pairs": len(report.pairs)}, sort_keys=True
        )
        assert json.dumps(report.to_dict(), sort_keys=True) == as_written
        scored = [p for p in pairs if content_tokens(p.text_a) and content_tokens(p.text_b)]
        assert [(m.mentions_a, m.mentions_b) for m in report.pairs] == [
            (naive_mentions(p.text_a, p.country_a), naive_mentions(p.text_b, p.country_b)) for p in scored
        ]

    @pytest.mark.parametrize("dim", [64, 8, None], ids=["hash", "hash:8", "no-embedder"])
    def test_many_pairs(self, dim):
        """1,200 pairs, some skipped, with ASCII and non-ASCII texts and countries."""
        pairs = many_pairs(1200)
        expected = naive_divergence_payload(pairs, DEFAULT_STOPWORDS, dim and NaiveHashEmbedder(dim), 0.4, 0.55)
        report = rationale_divergence(pairs, embedder=dim and HashEmbedder(dim))
        assert 0 < report.n_skipped < len(pairs) // 5
        assert same_fields(report.to_dict(), expected)

    @pytest.mark.parametrize("first", ["zero", "missing"])
    @pytest.mark.parametrize("at", [0, 4, 8], ids=["start", "middle", "end"])
    def test_replay_errors_in_pair_order(self, tmp_path, first, at):
        """A zero-norm vector at pair ``at`` and a missing fixture at pair
        ``at + 1``, or the reverse: the earlier pair's error is raised."""
        pairs = [RationalePair(f"welding pipes {word}", f"sorting mail {word}") for word in "abcdefghij"]
        for pair in pairs:
            for text in pair[:2]:
                record_embedding(tmp_path, text, [1.0, 2.0, 3.0])
        zero, missing = (at, at + 1) if first == "zero" else (at + 1, at)
        record_embedding(tmp_path, pairs[zero].text_a, [0.0, 0.0, 0.0])
        (tmp_path / f"{_digest(pairs[missing].text_b)}.json").unlink()
        message = "zero-norm rationale embedding" if first == "zero" else "no embedding fixture"
        with pytest.raises(ProviderError, match=message):
            rationale_divergence(pairs, embedder=ReplayEmbedder(tmp_path))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: words of the generated pairs: stopwords, words that lower unlike ASCII, a
#: digit run, and plain content words
WORDS = ("the", "of", "and", "AI", "x9y", "don't", "\u212aelvin", "\u0130stanbul", "stra\u00dfe", "\u65e5\u672c\u8a9e",
         "Kenya", "welding", "Welding", "pipes", "sorting", "mail", "robots", "ledger", "audit", "claims")


def many_pairs(n: int) -> list:
    """``n`` seeded rationale pairs, about a tenth of them with no content token on one side."""
    rng = random.Random(20)
    countries = [None, "Kenya", "C\u00f4te d'Ivoire", "\u212aenya", "a.b"]

    def text() -> str:
        if rng.random() < 0.025:
            return " ".join(rng.choices(("the", "of", "and", "a"), k=3))
        return " ".join(rng.choices(WORDS, k=rng.randint(1, 12)))

    return [RationalePair(text(), text(), rng.choice(countries), rng.choice(countries)) for _ in range(n)]
