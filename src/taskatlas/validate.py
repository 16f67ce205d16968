"""Internal-validity suite: run-pair agreement, paraphrase stability,
consistency screens with negation filtering, rationale divergence, and
distributional checks."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import EXPOSURE_LEVELS, CountryContext, InputError, Margin, registry_groups
from .files import columns_of, json_value, read_columns
from .ingest import CHANNELS, MARGINS, LabelColumns, LabelDataset, factorize

# linkage loads only where divergence scoring with an embedder needs it
if TYPE_CHECKING:
    from .linkage import EmbeddingProvider


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


_BOOLS = (False, True)


def _paired_agreement(a: LabelColumns, b: LabelColumns) -> AgreementReport:
    """Agreement of the aligned rows of two runs: row i of ``a`` and row i of
    ``b`` label the same (country, task) key."""

    def baseline(codes_a: np.ndarray, codes_b: np.ndarray, keys: Sequence) -> float:
        return chance_baseline(_marginal(codes_a, keys), _marginal(codes_b, keys))

    n = len(a)
    a_exposed, b_exposed = a.exposed, b.exposed
    both_exposed = a_exposed & b_exposed
    n_both_exposed = np.count_nonzero(both_exposed)
    exact = np.count_nonzero(a.exposure == b.exposure) / n
    confusion = np.bincount(a.exposure.astype(np.intp) * 4 + b.exposure, minlength=16).reshape(4, 4).tolist()
    baselines = {
        "exposure_level": baseline(a.exposure, b.exposure, EXPOSURE_LEVELS),
        "binary_exposed": baseline(a_exposed, b_exposed, _BOOLS),
        "dominant_channel": baseline(a.channel, b.channel, CHANNELS),
        "ai_materiality": baseline(a.ai_material, b.ai_material, _BOOLS),
    }
    if n_both_exposed:
        baselines["margin_exposed"] = baseline(a.margin[both_exposed], b.margin[both_exposed], MARGINS)
    return AgreementReport(
        n=n,
        exact_level=exact,
        within_one_level=np.count_nonzero(np.abs(a.exposure - b.exposure) <= 1) / n,
        binary_exposed=np.count_nonzero(a_exposed == b_exposed) / n,
        per_field={
            "exposure_level": exact,
            "dominant_channel": np.count_nonzero(a.channel == b.channel) / n,
            "margin_exposed": (
                np.count_nonzero(both_exposed & (a.margin == b.margin)) / n_both_exposed if n_both_exposed else None
            ),
            "ai_materiality": np.count_nonzero(a.ai_material == b.ai_material) / n,
        },
        confusion=tuple(map(tuple, confusion)),
        baselines=baselines,
    )


def _joined_rows(datasets: Sequence[LabelDataset]) -> list[np.ndarray]:
    """One index array per dataset, aligned: the rows of the (country, task_id)
    keys that every dataset holds, in the first dataset's key order (none if no key is in all)."""
    first, *others = datasets
    columns = first.columns
    rows = [np.arange(len(first))]
    for other in others:
        country, task = other.codes("country", columns.countries), other.codes("task_id", columns.task_ids)
        rows.append(other.rows_of(country[columns.country], task[columns.task_id]))
    joined = np.all([other_rows >= 0 for other_rows in rows], axis=0)
    return [dataset_rows[joined] for dataset_rows in rows] if joined.any() else []


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
    return _paired_agreement(run_a.columns[rows_a], run_b.columns[rows_b])


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
    base = original.columns[rows[0]]
    labels = [variant.columns[variant_rows] for variant, variant_rows in zip(variants, rows[1:])]
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

_AUGMENT, _SUBSTITUTE = MARGINS.index(Margin.AUGMENT), MARGINS.index(Margin.SUBSTITUTE)

#: per rule id, the rows the rule screens: its label eligibility as a mask over the columns
_ELIGIBLE: dict[str, Callable[[LabelColumns], np.ndarray]] = {
    "r1_level3_denies": lambda columns: columns.exposure == 3,
    "r2_level0_describes": lambda columns: columns.exposure == 0,
    "r3_augment_replaces": lambda columns: columns.margin == _AUGMENT,
    "r4_substitute_assistive": lambda columns: columns.margin == _SUBSTITUTE,
    "r5_notai_invokes_ai": lambda columns: ~columns.ai_material,
}

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

    def flag_rows(self) -> tuple[tuple[str, ...], list[list]]:
        """screen_flags.csv as columns: one row per flag, in screening order."""
        rows = ((*f.key, f.rule_id, f.phrase, f.sentence) for f in self.flags)
        return columns_of(("country", "task_id", "rule_id", "phrase", "sentence"), rows)


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
    lexicon = json_value(Path(path).read_bytes(), f"lexicon file {path}")
    if not isinstance(lexicon, dict) or not all(
        isinstance(phrases, list) and all(isinstance(p, str) for p in phrases) for phrases in lexicon.values()
    ):
        raise ValidateError(f"lexicon file {path} must hold a JSON object of string lists")
    return lexicon


def load_pairs(path) -> list[RationalePair]:
    """The pairs of a CSV text_a,text_b[,country_a,country_b] table; a blank country is None."""
    table = read_columns(path, "text_a", "text_b")
    columns = (table.cells.get(name, itertools.repeat("")) for name in ("text_a", "text_b", "country_a", "country_b"))
    return [RationalePair(a, b, ca or None, cb or None) for a, b, ca, cb in zip(*columns)]


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
        if rule_id not in _ELIGIBLE:
            raise ValidateError(f"unknown rule {rule_id!r}")
        if not lex[rule_id]:
            raise ValidateError(f"rule {rule_id} has an empty phrase list")
        blank = next((phrase for phrase in lex[rule_id] if not phrase.split()), None)
        if blank is not None:
            # a phrase of no word would match every sentence: its pattern is \b\b
            raise ValidateError(f"rule {rule_id} has the phrase {blank!r}, which holds no word")
    if not lex:
        raise ValidateError("empty lexicon")
    digest_src = json.dumps({"lexicon": {k: list(v) for k, v in sorted(lex.items())}, "negators": list(negators)}, sort_keys=True)
    digest = hashlib.sha256(digest_src.encode("utf-8")).hexdigest()

    phrase_res = {rule: [(p, _phrase_pattern(p)) for p in phrases] for rule, phrases in lex.items()}
    negator_res = [_phrase_pattern(n) for n in negators]

    def first_hit(sentences: Sequence[str], rule_id: str) -> Optional[tuple[str, str]]:
        for sentence in sentences:
            for phrase, phrase_re in phrase_res[rule_id]:
                if _match_sentence(sentence, phrase_re, negator_res) is not None:
                    return sentence, phrase
        return None

    columns = dataset.columns
    rules = sorted(lex)
    eligible = [_ELIGIBLE[rule](columns) for rule in rules]
    # only the rows some rule screens have their rationale split into sentences
    rows = np.flatnonzero(np.logical_or.reduce(eligible))
    keys = zip(columns.countries[columns.country[rows]].tolist(), columns.task_ids[columns.task_id[rows]].tolist())
    texts = columns.short_rationale[rows].tolist()
    flags: list[ConsistencyFlag] = []
    flagged_counts = dict.fromkeys(rules, 0)
    n_flagged = 0
    for key, text, *row_eligible in zip(keys, texts, *(mask[rows].tolist() for mask in eligible)):
        sentences = [s for s in _SENTENCE_SPLIT.split(text) if s.strip()]
        flagged = False
        for rule_id, is_eligible in zip(rules, row_eligible):
            hit = first_hit(sentences, rule_id) if is_eligible else None
            if hit:
                flagged_counts[rule_id] += 1
                flags.append(ConsistencyFlag(key=key, rule_id=rule_id, sentence=hit[0], phrase=hit[1]))
                flagged = True
        n_flagged += flagged
    n = len(dataset)
    return ScreenReport(
        flags=tuple(flags),
        per_rule={rule: RuleStats(int(mask.sum()), flagged_counts[rule]) for rule, mask in zip(rules, eligible)},
        n_records=n,
        n_flagged_records=n_flagged,
        union_share=n_flagged / n if n else 0.0,
        lexicon_digest=digest,
    )


# --- rationale divergence -----------------------------------------------------------

DEFAULT_STOPWORDS: frozenset = frozenset(
    """a an and are as at be because been but by can could do does for from had has have
    if in into is it its may more most not of on or should so such than that the their
    then there these they this to was were which while will with would""".split()
)

_TOKEN_RE = re.compile(r"[a-zA-Z]{2,}")
_LOWER_TOKEN_RE = re.compile(r"[a-z]{2,}")


def content_tokens(text: str, stopwords: frozenset = DEFAULT_STOPWORDS) -> frozenset:
    """Lowercased alphabetic tokens of length >= 2, minus stopwords.

    The letter class is ASCII without IGNORECASE, so every maximal run of two
    or more letters is matched whole, and lowering it keeps it ASCII. An ASCII
    text is lowered before it is matched, which finds the same runs; any other
    text is matched first, because lowering it may make a letter ASCII (the
    Kelvin sign lowers to ``k``) or change its length (``İ``).
    """
    if text.isascii():
        return frozenset(_LOWER_TOKEN_RE.findall(text.lower())) - stopwords
    return frozenset(map(str.lower, _TOKEN_RE.findall(text))) - stopwords


def jaccard(tokens_a: frozenset, tokens_b: frozenset) -> float:
    common = len(tokens_a & tokens_b)
    union = len(tokens_a) + len(tokens_b) - common
    return common / union if union else 0.0


class RationalePair(NamedTuple):
    text_a: str
    text_b: str
    country_a: Optional[str] = None
    country_b: Optional[str] = None


class PairMetrics(NamedTuple):
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
        """divergence.json's payload: the report's fields, each pair as a dict
        of its fields, and ``n_pairs``."""
        return {**vars(self), "pairs": [m._asdict() for m in self.pairs], "n_pairs": len(self.pairs)}


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
    occurs, in any case, with no word character just before or after it, so a
    name may end in a period ("Korea, Rep.") or start with a bracket.
    """
    scored: list[RationalePair] = []
    jaccards: list[float] = []
    for pair in pairs:
        tokens_a = content_tokens(pair.text_a, stopwords)
        tokens_b = content_tokens(pair.text_b, stopwords) if tokens_a else None
        if tokens_b:
            scored.append(pair)
            jaccards.append(jaccard(tokens_a, tokens_b))
    skipped = len(pairs) - len(scored)
    if not scored:
        raise ValidateError(f"no rationale pair was scored ({len(pairs)} given, {skipped} without content tokens)")

    cosines = None if embedder is None else _cosines(embedder, scored)
    mention_res: dict[str, re.Pattern] = {}

    def mentions(text: str, country: Optional[str]) -> Optional[bool]:
        if country is None:
            return None
        pattern = mention_res.get(country)
        if pattern is None:
            pattern = mention_res[country] = re.compile(r"(?<!\w)" + re.escape(country) + r"(?!\w)", re.IGNORECASE)
        return pattern.search(text) is not None

    mentions_a = [mentions(text, country) for text, _, country, _ in scored]
    mentions_b = [mentions(text, country) for _, text, _, country in scored]
    quadrants: Optional[dict[str, float]] = None
    if cosines is not None:
        high = Counter(zip([j >= jaccard_threshold for j in jaccards], [c >= cosine_threshold for c in cosines]))
        quadrants = {
            f"{jac}_jaccard/{cos}_cosine": high[jac == "high", cos == "high"] / len(scored)
            for jac in ("low", "high")
            for cos in ("low", "high")
        }
    stopword_digest = hashlib.sha256(json.dumps(sorted(stopwords)).encode("utf-8")).hexdigest()
    return DivergenceReport(
        pairs=tuple(map(PairMetrics._make, zip(jaccards, cosines or itertools.repeat(None), mentions_a, mentions_b))),
        n_skipped=skipped,
        quadrant_shares=quadrants,
        jaccard_threshold=jaccard_threshold,
        cosine_threshold=cosine_threshold,
        stopword_digest=stopword_digest,
    )


def _cosines(embedder: EmbeddingProvider, pairs: Sequence[RationalePair]) -> list[float]:
    """The cosine of each pair's embeddings. One stream embeds the pairs'
    texts, a then b, and each pair's vectors are checked before the next
    pair's are made."""
    from .linkage import ProviderError, scaled_norm

    vectors = embedder.embed_many(text for pair in pairs for text in (pair.text_a, pair.text_b))
    cosines = []
    with np.errstate(over="ignore"):  # for scaled_norm
        for va, vb in zip(vectors, vectors):
            va, na = scaled_norm(va)
            vb, nb = scaled_norm(vb)
            if na == 0 or nb == 0:
                raise ProviderError("zero-norm rationale embedding")
            cosines.append(float(va @ vb / (na * nb)))
    return cosines


# --- distributional checks --------------------------------------------------------------


@dataclass(frozen=True)
class DistributionTables:
    groups: dict[str, dict[str, dict[str, float]]]  # group -> field -> category -> share
    group_sizes: dict[str, int]


#: per distribution table, the count-table field it tallies and the category name of each of its codes
_DISTRIBUTIONS = {
    "exposure_level": ("exposure", [str(level) for level in EXPOSURE_LEVELS]),
    "dominant_channel": ("channel", [c.value for c in CHANNELS]),
    "margin": ("margin", [m.value for m in MARGINS]),
    "margin_raw": ("margin_raw", [m.value for m in MARGINS]),
    "ai_materiality": ("ai_material", [str(False), str(True)]),
}


def distribution_check(
    dataset: LabelDataset,
    registry: Optional[Mapping[str, CountryContext]] = None,
    group_by: Optional[str] = None,
) -> DistributionTables:
    """Marginal share tables per field (and per registry group when asked; a
    country the registry does not name is in the group ``unregistered``).

    Each table is an exact count ratio and sums to 1; its counts are the sum
    over the group's countries of the dataset's count table. The margin table
    uses the normalized margin; a raw-margin table is included alongside,
    since the two differ below the exposure threshold.
    """
    countries = dataset.countries()
    if group_by is None:
        names = ["overall"] * len(countries)
    else:
        names = ["unregistered" if g is None else g for g in registry_groups(countries, registry or {}, group_by)]
    group, groups = factorize(names)
    member = (group == np.arange(len(groups))[:, None]).astype(np.int64)  # groups x countries
    counts = {table: (member @ dataset.counts(field)).tolist() for table, (field, _) in _DISTRIBUTIONS.items()}
    tables: dict[str, dict[str, dict[str, float]]] = {}
    sizes: dict[str, int] = {}
    for g, name in enumerate(groups.tolist()):
        n = sizes[name] = sum(counts["ai_materiality"][g])
        tables[name] = {
            table: {category: counts[table][g][i] / n
                    for i, category in sorted(enumerate(categories), key=lambda item: item[1]) if counts[table][g][i]}
            for table, (_, categories) in _DISTRIBUTIONS.items()
        }
    return DistributionTables(groups=tables, group_sizes=sizes)
