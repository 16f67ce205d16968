"""Internal-validity suite: run-pair agreement, paraphrase stability, the
rationale predictability harness, consistency screens with negation filtering,
rationale divergence, and distributional checks."""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Protocol, Sequence

import numpy as np

from .core import EXPOSED_THRESHOLD, EXPOSURE_LEVELS, Channel, CountryContext, InputError, Margin, TaskLabelRecord
from .ingest import CHANNELS, MARGINS, LabelColumns, LabelDataset
from .linkage import EmbeddingProvider, ProviderError, call_provider
from ._rng import rng_for


class ValidateError(InputError):
    pass


# --- agreement ------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    n: int
    exact_level: float
    within_one_level: float
    binary_exposed: float
    per_field: dict[str, Optional[float]]
    confusion: tuple[tuple[int, ...], ...]  # 4x4 level counts, rows = first run
    baselines: dict[str, float]


def _marginal(codes: np.ndarray, keys: Sequence) -> dict:
    """Share of each key among the rows, over the keys that occur; row i holds
    ``keys[codes[i]]``."""
    counts = np.bincount(codes, minlength=len(keys)).tolist()
    return {key: count / len(codes) for key, count in zip(keys, counts) if count}


def chance_baseline(marginal_a: Mapping, marginal_b: Mapping) -> float:
    """Expected agreement of two independent draws with the given marginals."""
    keys = sorted(set(marginal_a) | set(marginal_b), key=str)
    return math.fsum(marginal_a.get(k, 0.0) * marginal_b.get(k, 0.0) for k in keys)


@dataclass(frozen=True)
class _Labels:
    """Aligned label arrays of one side of a pairing: a record's codes, or a
    prediction's, where -1 is an unanswered field (None), -2 an answer that is
    no member, and a level may lie outside 0..3."""

    exposure: np.ndarray
    channel: np.ndarray
    margin: np.ndarray
    ai_material: np.ndarray  # int8 code in (False, True)

    @classmethod
    def of(cls, columns: LabelColumns) -> "_Labels":
        return cls(columns.exposure, columns.channel, columns.margin, columns.ai_material.astype(np.int8))

    @property
    def exposed(self) -> np.ndarray:
        return (self.exposure >= EXPOSED_THRESHOLD) & (self.exposure <= 3)


def _share(same: np.ndarray, scored: np.ndarray) -> Optional[float]:
    n = np.count_nonzero(scored)
    return np.count_nonzero(same & scored) / n if n else None


def _score_pairs(a: _Labels, b: _Labels) -> dict[str, Any]:
    """Agreement of the row pairs of ``a`` (records) and ``b`` (records or
    predicted labels): the fields AgreementReport and HarnessReport share, as
    keyword arguments.

    A field is scored over the pairs whose ``b`` side has a value for it (the
    margin also needs both sides exposed); a confusion cell is counted only for
    ``b`` levels 0..3.
    """
    n = len(a.exposure)
    exact = np.count_nonzero(a.exposure == b.exposure) / n
    in_range = (b.exposure >= 0) & (b.exposure <= 3)
    cells = a.exposure[in_range].astype(np.intp) * 4 + b.exposure[in_range]
    confusion = np.bincount(cells, minlength=16).reshape(4, 4).tolist()
    a_exposed, b_exposed = a.exposed, b.exposed
    return {
        "n": n,
        "exact_level": exact,
        "within_one_level": np.count_nonzero(np.abs(a.exposure - b.exposure) <= 1) / n,
        "binary_exposed": np.count_nonzero(a_exposed == b_exposed) / n,
        "per_field": {
            "exposure_level": exact,
            "dominant_channel": _share(a.channel == b.channel, b.channel >= 0),
            "margin_exposed": _share(a.margin == b.margin, (b.margin >= 0) & a_exposed & b_exposed),
            "ai_materiality": _share(a.ai_material == b.ai_material, b.ai_material >= 0),
        },
        "confusion": tuple(map(tuple, confusion)),
    }


_BOOLS = (False, True)


def _paired_agreement(a: _Labels, b: _Labels) -> AgreementReport:
    def baseline(codes_a: np.ndarray, codes_b: np.ndarray, keys: Sequence) -> float:
        return chance_baseline(_marginal(codes_a, keys), _marginal(codes_b, keys))

    a_exposed, b_exposed = a.exposed, b.exposed
    baselines = {
        "exposure_level": baseline(a.exposure, b.exposure, EXPOSURE_LEVELS),
        "binary_exposed": baseline(a_exposed, b_exposed, _BOOLS),
        "dominant_channel": baseline(a.channel, b.channel, CHANNELS),
        "ai_materiality": baseline(a.ai_material, b.ai_material, _BOOLS),
    }
    both_exposed = a_exposed & b_exposed
    if both_exposed.any():
        baselines["margin_exposed"] = baseline(a.margin[both_exposed], b.margin[both_exposed], MARGINS)
    return AgreementReport(**_score_pairs(a, b), baselines=baselines)


def _joined_rows(datasets: Sequence[LabelDataset]) -> list[np.ndarray]:
    """One index array per dataset, aligned: the rows of the (country, task_id)
    keys that every dataset holds, in the first dataset's key order."""

    def keys(dataset: LabelDataset):
        return zip(dataset.columns.country.tolist(), dataset.columns.task_id.tolist())

    first, *others = datasets
    lookups = [dict(zip(keys(dataset), range(len(dataset)))) for dataset in others]
    joined = []
    for row, key in enumerate(keys(first)):
        rows = [lookup.get(key) for lookup in lookups]
        if None not in rows:
            joined.append((row, *rows))
    return [np.array(rows, dtype=np.intp) for rows in zip(*joined)]


def agreement_suite(run_a: LabelDataset, run_b: LabelDataset) -> AgreementReport:
    """Field-by-field agreement over the key intersection of two labelling runs.

    Within-one uses |level difference| <= 1; binary compares the exposed band;
    the margin comparison conditions on records exposed in both runs. Chance
    baselines pair each run's empirical marginals under independence.
    """
    rows = _joined_rows([run_a, run_b])
    if not rows:
        raise ValidateError("runs share no (country, task) keys")
    rows_a, rows_b = rows
    return _paired_agreement(_Labels.of(run_a.columns[rows_a]), _Labels.of(run_b.columns[rows_b]))


# --- paraphrase stability ----------------------------------------------------------


@dataclass(frozen=True)
class ParaphraseReport:
    n: int
    per_variant: tuple[AgreementReport, ...]
    pairwise_within_one: tuple[tuple[float, ...], ...]
    joint_within_one: float


def paraphrase_stability(original: LabelDataset, variants: Sequence[LabelDataset]) -> ParaphraseReport:
    """Stability of labels under prompt variants.

    All metrics are computed on the task keys common to the original and every
    variant: per-variant agreement against the original, pairwise within-one
    agreement among variants, and the joint share of tasks whose level range
    across all variants stays within one.
    """
    if len(variants) < 2:
        raise ValidateError("need at least two variants")
    rows = _joined_rows([original, *variants])
    if not rows:
        raise ValidateError("no common (country, task) keys across runs")
    base = _Labels.of(original.columns[rows[0]])
    labels = [_Labels.of(variant.columns[variant_rows]) for variant, variant_rows in zip(variants, rows[1:])]
    n = len(rows[0])

    per_variant = tuple(_paired_agreement(base, variant) for variant in labels)
    v = len(variants)
    pairwise = [[1.0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            share = np.count_nonzero(np.abs(labels[i].exposure - labels[j].exposure) <= 1) / n
            pairwise[i][j] = pairwise[j][i] = share
    levels = np.stack([variant.exposure for variant in labels])
    joint = np.count_nonzero(levels.max(axis=0) - levels.min(axis=0) <= 1) / n
    return ParaphraseReport(
        n=n,
        per_variant=per_variant,
        pairwise_within_one=tuple(tuple(row) for row in pairwise),
        joint_within_one=joint,
    )


# --- consistency screen ---------------------------------------------------------------

RULE_IDS = (
    "r1_level3_denies",
    "r2_level0_describes",
    "r3_augment_replaces",
    "r4_substitute_assistive",
    "r5_notai_invokes_ai",
)

#: shipped rule phrases; callers can pass their own lexicon
DEFAULT_LEXICON: dict[str, tuple[str, ...]] = {
    "r1_level3_denies": (
        "automation is not possible",
        "cannot be automated",
        "cannot be meaningfully automated",
        "no credible automation",
        "no automation margin",
        "not automatable",
    ),
    "r2_level0_describes": (
        "already automated",
        "routinely automated",
        "standard software automates",
        "widely deployed automation",
        "reliably automated",
    ),
    "r3_augment_replaces": (
        "fully replaces the worker",
        "replaces human labour",
        "replaces human labor",
        "eliminates the need for human",
        "removes the human from the task",
    ),
    "r4_substitute_assistive": (
        "assistive only",
        "only assists",
        "merely assists",
        "does not reduce human labour",
        "does not reduce human labor",
        "humans remain fully central",
    ),
    "r5_notai_invokes_ai": (
        "ai",
        "machine learning",
        "learned model",
        "llm",
        "large language model",
        "neural network",
    ),
}

DEFAULT_NEGATORS: tuple[str, ...] = (
    "not",
    "no",
    "cannot",
    "lacks",
    "without",
    "rather than",
    "wrong to say",
    "never",
)

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?;])\s+")


def _phrase_pattern(phrase: str) -> re.Pattern:
    words = [re.escape(w) for w in phrase.split()]
    return re.compile(r"\b" + r"\s+".join(words) + r"\b", re.IGNORECASE)


@dataclass(frozen=True)
class ConsistencyFlag:
    key: tuple[str, str]
    rule_id: str
    sentence: str
    phrase: str


@dataclass(frozen=True)
class RuleStats:
    eligible: int
    flagged: int

    @property
    def share(self) -> float:
        return self.flagged / self.eligible if self.eligible else 0.0


@dataclass(frozen=True)
class ScreenReport:
    flags: tuple[ConsistencyFlag, ...]
    per_rule: dict[str, RuleStats]
    n_records: int
    n_flagged_records: int
    union_share: float
    lexicon_digest: str

    def flag_rows(self) -> tuple[tuple[str, ...], list[dict]]:
        """screen_flags.csv: one row per flag, in screening order."""
        columns = ("country", "task_id", "rule_id", "phrase", "sentence")
        return columns, [dict(zip(columns, (*f.key, f.rule_id, f.phrase, f.sentence))) for f in self.flags]


def _rule_eligible(rule_id: str, record: TaskLabelRecord) -> bool:
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
    raise ValidateError(f"unknown rule {rule_id!r}")


def _match_sentence(sentence: str, phrase_re: re.Pattern, negator_res: Sequence[re.Pattern]) -> Optional[re.Match]:
    """First phrase match with no negator elsewhere in the sentence.

    Negator occurrences inside the matched phrase span do not suppress: rule
    phrases themselves legitimately contain negation words.
    """
    match = phrase_re.search(sentence)
    if match is None:
        return None
    for negator_re in negator_res:
        for hit in negator_re.finditer(sentence):
            overlaps = hit.start() < match.end() and match.start() < hit.end()
            if not overlaps:
                return None
    return match


def load_lexicon(path) -> dict[str, list[str]]:
    """A JSON lexicon file: an object mapping rule ids to lists of phrases."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lexicon = json.load(handle)
        except RecursionError:
            raise ValidateError(f"lexicon file {path} is not valid JSON: nested too deeply") from None
    if not isinstance(lexicon, dict) or not all(
        isinstance(phrases, list) and all(isinstance(p, str) for p in phrases) for phrases in lexicon.values()
    ):
        raise ValidateError(f"lexicon file {path} must hold a JSON object of string lists")
    return lexicon


def consistency_screen(
    dataset: LabelDataset,
    lexicon: Optional[Mapping[str, Sequence[str]]] = None,
    negators: Sequence[str] = DEFAULT_NEGATORS,
) -> ScreenReport:
    """Flag records whose rationale sentence matches a rule phrase without a
    same-sentence negator, under that rule's label eligibility."""
    if lexicon is None:
        lexicon = DEFAULT_LEXICON
    lex = {rule: tuple(phrases) for rule, phrases in lexicon.items()}
    for rule_id in lex:
        if rule_id not in RULE_IDS:
            raise ValidateError(f"unknown rule {rule_id!r}")
        if not lex[rule_id]:
            raise ValidateError(f"rule {rule_id} has an empty phrase list")
    if not lex:
        raise ValidateError("empty lexicon")
    digest_src = json.dumps({"lexicon": {k: list(v) for k, v in sorted(lex.items())}, "negators": list(negators)}, sort_keys=True)
    digest = hashlib.sha256(digest_src.encode("utf-8")).hexdigest()

    phrase_res = {rule: [_phrase_pattern(p) for p in phrases] for rule, phrases in lex.items()}
    negator_res = [_phrase_pattern(n) for n in negators]

    flags: list[ConsistencyFlag] = []
    eligible_counts = {rule: 0 for rule in lex}
    flagged_counts = {rule: 0 for rule in lex}
    flagged_keys: set[tuple[str, str]] = set()
    for key, record in dataset.records.items():
        sentences = [s for s in _SENTENCE_SPLIT.split(record.short_rationale) if s.strip()]
        for rule_id in sorted(lex):
            if not _rule_eligible(rule_id, record):
                continue
            eligible_counts[rule_id] += 1
            hit = None
            for sentence in sentences:
                for phrase, phrase_re in zip(lex[rule_id], phrase_res[rule_id]):
                    if _match_sentence(sentence, phrase_re, negator_res) is not None:
                        hit = (sentence, phrase)
                        break
                if hit:
                    break
            if hit:
                flagged_counts[rule_id] += 1
                flagged_keys.add(key)
                flags.append(ConsistencyFlag(key=key, rule_id=rule_id, sentence=hit[0], phrase=hit[1]))
    n = len(dataset)
    return ScreenReport(
        flags=tuple(flags),
        per_rule={rule: RuleStats(eligible_counts[rule], flagged_counts[rule]) for rule in sorted(lex)},
        n_records=n,
        n_flagged_records=len(flagged_keys),
        union_share=len(flagged_keys) / n if n else 0.0,
        lexicon_digest=digest,
    )


# --- rationale divergence -----------------------------------------------------------

DEFAULT_STOPWORDS: frozenset = frozenset(
    """a an and are as at be because been but by can could do does for from had has have
    if in into is it its may more most not of on or should so such than that the their
    then there these they this to was were which while will with would""".split()
)

_TOKEN_RE = re.compile(r"[a-zA-Z]{2,}")


def content_tokens(text: str, stopwords: frozenset = DEFAULT_STOPWORDS) -> frozenset:
    """Lowercased alphabetic tokens of length >= 2, minus stopwords.

    The letter class is ASCII without IGNORECASE, so every maximal run of two
    or more letters is matched whole, and lowering it keeps it ASCII.
    """
    return frozenset(map(str.lower, _TOKEN_RE.findall(text))) - stopwords


def jaccard(tokens_a: frozenset, tokens_b: frozenset) -> float:
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    return len(tokens_a & tokens_b) / len(union)


@dataclass(frozen=True)
class RationalePair:
    text_a: str
    text_b: str
    country_a: Optional[str] = None
    country_b: Optional[str] = None


@dataclass(frozen=True)
class PairMetrics:
    jaccard: float
    cosine: Optional[float]
    mentions_a: Optional[bool]
    mentions_b: Optional[bool]


@dataclass(frozen=True)
class DivergenceReport:
    pairs: tuple[PairMetrics, ...]
    n_skipped: int
    quadrant_shares: Optional[dict[str, float]]
    jaccard_threshold: float
    cosine_threshold: float
    stopword_digest: str

    def to_dict(self) -> dict[str, Any]:
        """divergence.json's payload: the keys and values of
        ``dataclasses.asdict(self)`` plus ``n_pairs``, without deep-copying
        every pair (the pair dicts are the pairs' own attribute dicts)."""
        return {**vars(self), "pairs": [vars(m) for m in self.pairs], "n_pairs": len(self.pairs)}


def rationale_divergence(
    pairs: Sequence[RationalePair],
    stopwords: frozenset = DEFAULT_STOPWORDS,
    embedder: Optional[EmbeddingProvider] = None,
    jaccard_threshold: float = 0.40,
    cosine_threshold: float = 0.55,
) -> DivergenceReport:
    """Token-overlap and semantic-similarity metrics over rationale pairs.

    Jaccard runs over stopword-filtered content tokens; cosine runs over
    embeddings when an embedder is supplied. Pairs with an empty token set on
    either side are skipped and counted; a run that scores no pair at all is an
    error. Quadrant shares classify pairs against the configured thresholds
    (only when cosine is enabled). A country is mentioned where its name
    occurs as a whole word, in any case.
    """
    mention_res: dict[str, re.Pattern] = {}

    def mentions(text: str, country: Optional[str]) -> Optional[bool]:
        if country is None:
            return None
        pattern = mention_res.get(country)
        if pattern is None:
            pattern = mention_res[country] = re.compile(r"\b" + re.escape(country) + r"\b", re.IGNORECASE)
        return pattern.search(text) is not None

    metrics: list[PairMetrics] = []
    skipped = 0
    for pair in pairs:
        tokens_a = content_tokens(pair.text_a, stopwords)
        tokens_b = content_tokens(pair.text_b, stopwords)
        if not tokens_a or not tokens_b:
            skipped += 1
            continue
        cosine: Optional[float] = None
        if embedder is not None:
            va = np.asarray(embedder.embed(pair.text_a), dtype=np.float64)
            vb = np.asarray(embedder.embed(pair.text_b), dtype=np.float64)
            na, nb = np.sqrt(va.dot(va)), np.sqrt(vb.dot(vb))  # np.linalg.norm of a vector
            if na == 0 or nb == 0:
                raise ProviderError("zero-norm rationale embedding")
            cosine = float(va @ vb / (na * nb))
        metrics.append(
            PairMetrics(
                jaccard=jaccard(tokens_a, tokens_b),
                cosine=cosine,
                mentions_a=mentions(pair.text_a, pair.country_a),
                mentions_b=mentions(pair.text_b, pair.country_b),
            )
        )

    if not metrics:
        raise ValidateError(f"no rationale pair was scored ({len(pairs)} given, {skipped} without content tokens)")
    quadrants: Optional[dict[str, float]] = None
    if embedder is not None:
        counts = Counter()
        for m in metrics:
            jac_high = m.jaccard >= jaccard_threshold
            cos_high = (m.cosine or 0.0) >= cosine_threshold
            counts[("high" if jac_high else "low") + "_jaccard/" + ("high" if cos_high else "low") + "_cosine"] += 1
        quadrants = {
            name: counts[name] / len(metrics)
            for name in (
                "low_jaccard/low_cosine",
                "low_jaccard/high_cosine",
                "high_jaccard/low_cosine",
                "high_jaccard/high_cosine",
            )
        }
    stopword_digest = hashlib.sha256(json.dumps(sorted(stopwords)).encode("utf-8")).hexdigest()
    return DivergenceReport(
        pairs=tuple(metrics),
        n_skipped=skipped,
        quadrant_shares=quadrants,
        jaccard_threshold=jaccard_threshold,
        cosine_threshold=cosine_threshold,
        stopword_digest=stopword_digest,
    )


# --- rationale predictability harness --------------------------------------------------


@dataclass(frozen=True)
class PredictedLabel:
    exposure: int
    channel: Optional[Channel] = None
    margin: Optional[Margin] = None
    ai_material: Optional[bool] = None


class LabelPredictor(Protocol):
    def predict(self, task_id: str, country: str, rationale: str) -> PredictedLabel: ...


@dataclass(frozen=True)
class HarnessReport:
    n: int
    exact_level: float
    within_one_level: float
    binary_exposed: float
    per_field: dict[str, Optional[float]]
    confusion: tuple[tuple[int, ...], ...]
    seed: int
    sample_keys: tuple[tuple[str, str], ...]


def stratified_sample(dataset: LabelDataset, per_level: int, seed: int) -> list[TaskLabelRecord]:
    """Equal counts per exposure level, drawn without replacement, seeded."""
    by_level: dict[int, list[TaskLabelRecord]] = {0: [], 1: [], 2: [], 3: []}
    for record in dataset.records.values():
        by_level[record.exposure].append(record)
    sample: list[TaskLabelRecord] = []
    for level in range(4):
        pool = by_level[level]
        if len(pool) < per_level:
            raise ValidateError(f"level {level} has only {len(pool)} records, need {per_level}")
        idx = rng_for(seed, level).choice(len(pool), size=per_level, replace=False)
        sample.extend(pool[i] for i in sorted(idx.tolist()))
    return sample


def rationale_harness(
    dataset: LabelDataset,
    predictor: LabelPredictor,
    per_level: int,
    seed: int,
    retries: int = 2,
) -> HarnessReport:
    """Predict withheld labels from rationales on a stratified sample and score
    the agreement between predicted and original labels."""
    sample = stratified_sample(dataset, per_level, seed)
    predictions = [
        call_provider(
            lambda: predictor.predict(record.task_id, record.country, record.short_rationale),
            retries, "predictor", str(record.key), ValidateError,
        )
        for record in sample
    ]

    sampled = _Labels.of(LabelColumns.from_records(sample))
    return HarnessReport(
        **_score_pairs(sampled, _predicted(predictions)), seed=seed, sample_keys=tuple(r.key for r in sample)
    )


def _member_code(value, members: Sequence) -> int:
    """-1 for no answer, else the index of the member that ``value`` is, or -2."""
    if value is None:
        return -1
    return next((code for code, member in enumerate(members) if member is value), -2)


def _predicted(predictions: Sequence[PredictedLabel]) -> _Labels:
    """Predicted labels as arrays. A level is clipped to -2..5, which leaves
    each of its comparisons with the levels 0..3 as it was."""

    def codes(name: str, members: Sequence) -> np.ndarray:
        return np.array([_member_code(getattr(p, name), members) for p in predictions], dtype=np.int8)

    return _Labels(
        exposure=np.array([min(max(p.exposure, -2), 5) for p in predictions], dtype=np.int8),
        channel=codes("channel", CHANNELS),
        margin=codes("margin", MARGINS),
        ai_material=codes("ai_material", _BOOLS),
    )


# --- distributional checks --------------------------------------------------------------


@dataclass(frozen=True)
class DistributionTables:
    groups: dict[str, dict[str, dict[str, float]]]  # group -> field -> category -> share
    group_sizes: dict[str, int]


def distribution_check(
    dataset: LabelDataset,
    registry: Optional[Mapping[str, CountryContext]] = None,
    group_by: Optional[str] = None,
) -> DistributionTables:
    """Marginal share tables per field (and per registry group when asked).

    Each table is an exact count ratio and sums to 1. The margin table uses the
    normalized margin; a raw-margin table is included alongside, since the two
    differ below the exposure threshold.
    """
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
    of_country = {country: group_of(country) for country in dataset.countries()}
    groups = sorted(set(of_country.values()))
    index = {country: groups.index(group) for country, group in of_country.items()}
    row_group = np.fromiter((index[c] for c in columns.country.tolist()), np.int64, len(columns))

    tables: dict[str, dict[str, dict[str, float]]] = {}
    sizes: dict[str, int] = {}
    for g, group in enumerate(groups):
        rows = columns[row_group == g]
        n = len(rows)
        sizes[group] = n

        def share_table(codes: np.ndarray, names: Sequence[str]) -> dict[str, float]:
            counts = np.bincount(codes, minlength=len(names)).tolist()
            return {names[i]: counts[i] / n for i in sorted(range(len(names)), key=names.__getitem__) if counts[i]}

        tables[group] = {
            "exposure_level": share_table(rows.exposure, [str(level) for level in EXPOSURE_LEVELS]),
            "dominant_channel": share_table(rows.channel, [c.value for c in CHANNELS]),
            "margin": share_table(rows.margin, [m.value for m in MARGINS]),
            "margin_raw": share_table(rows.margin_raw, [m.value for m in MARGINS]),
            "ai_materiality": share_table(rows.ai_material.astype(np.int64), [str(False), str(True)]),
        }
    return DistributionTables(groups=tables, group_sizes=sizes)
