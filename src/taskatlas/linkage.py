"""Occupation bridge (task -> SOC -> ISCO) and industry graph (task -> ISIC4
candidate-then-prune), with occupation- and industry-level exposure summaries."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Protocol, Sequence, TypeVar

import numpy as np

from .core import ACTIVE_CHANNELS, Channel, DEFINITE_MARGINS, EXPOSED_THRESHOLD, InputError, Margin
from .ingest import CHANNELS, MARGINS, LabelDataset, number, read_table, write_text_atomic


class LinkageError(InputError):
    pass


class ProviderError(InputError):
    """An embedding or voting provider failed (missing fixture, bad output)."""


T = TypeVar("T")


def call_provider(
    call: Callable[[], T], retries: int, who: str, what: str, error: type[Exception] = ProviderError
) -> T:
    """``call()``, retried up to ``retries`` times on a ``ProviderError``.

    When every attempt fails, raises ``error`` naming ``who`` failed on
    ``what``, how often, and the last provider message. Any other exception is
    a bug, not a provider failure, and propagates from the first attempt.
    """
    for _ in range(retries + 1):
        try:
            return call()
        except ProviderError as exc:
            last_error = exc
    raise error(f"{who} failed {retries + 1} times on {what}: {last_error}")


# --- weights and bridges -------------------------------------------------------


def _check_sums_to_one(what: str, pairs_by_soc: Mapping[str, Sequence[tuple[str, float]]]) -> None:
    """Every occupation's ``what`` values are non-negative and sum to 1."""
    for soc, pairs in pairs_by_soc.items():
        if any(v < 0 for _, v in pairs):
            raise LinkageError(f"negative {what} for occupation {soc}")
        try:
            total = math.fsum(v for _, v in pairs)
        except OverflowError:  # finite values whose sum is not finite
            total = math.inf
        if abs(total - 1.0) > 1e-9:
            raise LinkageError(f"{what}s for occupation {soc} sum to {total}, not 1")


@dataclass(frozen=True)
class TaskWeightMap:
    """Per SOC occupation: normalized (task_id, weight) pairs."""

    weights: dict[str, tuple[tuple[str, float], ...]]

    def __post_init__(self):
        if not self.weights:
            raise LinkageError("task weight map has no occupations")
        _check_sums_to_one("task weight", self.weights)

    def occupations(self) -> list[str]:
        return sorted(self.weights)

    @functools.cached_property
    def _pairs(self) -> tuple[list[tuple[str, int, int]], list[str], np.ndarray]:
        """Every (task_id, weight) pair in occupation order, flat: ((soc, start,
        end) per occupation, task ids, weights)."""
        spans, task_ids, weights = [], [], []
        for soc in self.occupations():
            spans.append((soc, len(task_ids), len(task_ids) + len(self.weights[soc])))
            for task_id, weight in self.weights[soc]:
                task_ids.append(task_id)
                weights.append(weight)
        return spans, task_ids, np.asarray(weights, dtype=np.float64)


def uniform_weights(tasks_by_occupation: Mapping[str, Sequence[str]]) -> TaskWeightMap:
    weights = {}
    for soc in sorted(tasks_by_occupation):
        tasks = sorted(tasks_by_occupation[soc])
        weights[soc] = tuple((t, 1.0 / len(tasks)) for t in tasks)
    return TaskWeightMap(weights=weights)


def _read_soc_pairs(path, member: str, value: str) -> dict[str, tuple[tuple[str, float], ...]]:
    """Per SOC occupation, its sorted (member, value) pairs from a CSV with soc, member, value columns."""
    grouped: dict[str, list[tuple[str, float]]] = {}
    for row_no, row in read_table(path, "soc", member, value):
        pair = (row[member].strip(), number(row[value], path, row_no, value))
        grouped.setdefault(row["soc"].strip(), []).append(pair)
    return {soc: tuple(sorted(pairs)) for soc, pairs in sorted(grouped.items())}


def load_task_weights(path) -> TaskWeightMap:
    """CSV with soc, task_id, weight columns."""
    return TaskWeightMap(weights=_read_soc_pairs(path, "task_id", "weight"))


@dataclass(frozen=True)
class BridgeShares:
    """Per SOC occupation: (ISCO group, share) pairs; weighted or modal variant."""

    shares: dict[str, tuple[tuple[str, float], ...]]
    variant: str = "weighted"

    def __post_init__(self):
        if self.variant not in ("weighted", "modal"):
            raise LinkageError(f"unknown bridge variant {self.variant!r}")
        _check_sums_to_one("bridge share", self.shares)
        for soc, pairs in self.shares.items():
            if self.variant == "modal" and [s for _, s in pairs if s > 0] != [1.0]:
                raise LinkageError(f"modal bridge must map occupation {soc} to exactly one group")

    def to_modal(self) -> "BridgeShares":
        """Collapse each occupation onto its largest-share group (ties: smallest id)."""
        modal = {}
        for soc, pairs in self.shares.items():
            best = min(pairs, key=lambda p: (-p[1], p[0]))[0]
            modal[soc] = ((best, 1.0),)
        return BridgeShares(shares=modal, variant="modal")


def load_bridge(path, variant: str = "weighted") -> BridgeShares:
    """CSV with soc, isco, share columns."""
    bridge = BridgeShares(shares=_read_soc_pairs(path, "isco", "share"))
    return bridge.to_modal() if variant == "modal" else bridge


# --- occupation summaries --------------------------------------------------------


_MARGIN_COLUMNS = tuple(f"margin_{m.value}" for m in DEFINITE_MARGINS)
#: the fields of a SOC cell by column name, in occupation_summary.csv order
_SOC_COLUMNS = (
    "value", "exposed_share", "high_share", *_MARGIN_COLUMNS,
    *(f"channel_{c.value}" for c in ACTIVE_CHANNELS), "ai_material_share", "dropped_weight",
)


@dataclass(frozen=True)
class SocCell:
    """Weighted task aggregates for one occupation in one country."""

    value: float  # weighted mean exposure level
    exposed_share: float
    high_share: float
    margin_shares: dict[Margin, float]  # weighted share of tasks per definite margin
    channel_shares: dict[Channel, float]  # weighted share of tasks per active channel
    ai_material_share: float
    dropped_weight: float  # weight mass on tasks missing from the country's labels

    def fields(self) -> dict[str, float]:
        """The cell by occupation_summary.csv column name."""
        return dict(zip(_SOC_COLUMNS, (
            self.value, self.exposed_share, self.high_share,
            *(self.margin_shares[m] for m in DEFINITE_MARGINS),
            *(self.channel_shares[c] for c in ACTIVE_CHANNELS),
            self.ai_material_share, self.dropped_weight,
        )))


def soc_summary(
    dataset: LabelDataset,
    iso3: str,
    weights: TaskWeightMap,
) -> dict[str, SocCell]:
    """Per-occupation weighted exposure for one country.

    Weights over tasks missing from the country's labels are renormalized away
    and the dropped mass reported per occupation; an occupation with zero
    usable mass is an error.
    """
    rows = dataset.for_country(iso3)
    if not len(rows):
        raise LinkageError(f"no labels for country {iso3!r}")
    spans, task_ids, weights = weights._pairs
    position = dict(zip(rows.task_id.tolist(), range(len(rows))))
    row = np.fromiter((position.get(t, -1) for t in task_ids), np.int64, len(task_ids))
    # a pair whose task has no label weighs nothing; the row it reads is a placeholder
    w = np.where(row >= 0, weights, 0.0)
    exposure, margin, channel = rows.exposure[row], rows.margin[row], rows.channel[row]
    exposed = exposure >= EXPOSED_THRESHOLD
    terms = {
        "usable": w,
        "value": w * exposure,
        "exposed": w * exposed,
        "high": w * (exposure == 3),
        **{m: w * (margin == MARGINS.index(m)) for m in DEFINITE_MARGINS},
        **{c: w * (channel == CHANNELS.index(c)) for c in ACTIVE_CHANNELS},
        "ai": w * (rows.ai_material[row] & exposed),
    }
    terms = {name: values.tolist() for name, values in terms.items()}
    out: dict[str, SocCell] = {}
    for soc, lo, hi in spans:
        sums = {name: math.fsum(values[lo:hi]) for name, values in terms.items()}
        usable = sums["usable"]
        if usable <= 0:
            raise LinkageError(f"occupation {soc} has zero usable weight mass for {iso3}")
        out[soc] = SocCell(
            value=sums["value"] / usable,
            exposed_share=sums["exposed"] / usable,
            high_share=sums["high"] / usable,
            margin_shares={m: sums[m] / usable for m in DEFINITE_MARGINS},
            channel_shares={c: sums[c] / usable for c in ACTIVE_CHANNELS},
            ai_material_share=sums["ai"] / usable,
            dropped_weight=1.0 - usable,
        )
    return out


def isco_summary(soc_values: Mapping[str, float], bridge: BridgeShares) -> dict[str, float]:
    """Combine per-SOC values into ISCO groups under bridge shares.

    Incoming SOC mass per group is renormalized so results stay in the units of
    the inputs (an identity bridge is an exact pass-through).
    """
    incoming: dict[str, list[tuple[str, float]]] = {}
    for soc in sorted(soc_values):
        if soc not in bridge.shares:
            raise LinkageError(f"occupation {soc} has no bridge row")
        for isco, share in bridge.shares[soc]:
            if share > 0:
                incoming.setdefault(isco, []).append((soc, share))
    out: dict[str, float] = {}
    for isco in sorted(incoming):
        pairs = incoming[isco]
        mass = math.fsum(share for _, share in pairs)
        out[isco] = math.fsum(share * soc_values[soc] for soc, share in pairs) / mass
    return out


# --- providers -------------------------------------------------------------------


class EmbeddingProvider(Protocol):
    def embed(self, text: str) -> np.ndarray: ...


class EdgeVoter(Protocol):
    def vote(self, task_text: str, activity_text: str, ballot: int) -> bool: ...


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


class HashEmbedder:
    """Deterministic test double: ``dim`` standard normals from PCG64 seeded by
    the first 8 bytes (big-endian) of the text's UTF-8 SHA-256, normalized to
    unit length."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        # the stream of rng_for(seed): PCG64 seeded by SeedSequence(seed), without the wrapper
        vec = np.random.Generator(np.random.PCG64(seed)).standard_normal(self.dim)
        return vec / np.sqrt(vec.dot(vec))  # np.linalg.norm of a vector


class HashVoter:
    """Deterministic test double: pseudo-random ballots with a fixed valid rate."""

    def __init__(self, valid_rate: float = 0.9):
        self.valid_rate = valid_rate

    def vote(self, task_text: str, activity_text: str, ballot: int) -> bool:
        digest = _digest(task_text, activity_text, str(ballot))
        draw = int(digest[:13], 16) / 16**13
        return draw < self.valid_rate


class ReplayEmbedder:
    """Content-addressed replay fixtures: <dir>/<sha256(text)>.json holds the vector.

    ``dim`` is the length of the first vector served; every later one must match it.
    """

    def __init__(self, fixture_dir):
        self.fixture_dir = Path(fixture_dir)
        self.dim: Optional[int] = None

    def embed(self, text: str) -> np.ndarray:
        path = self.fixture_dir / f"{_digest(text)}.json"
        if not path.exists():
            raise ProviderError(f"no embedding fixture for input digest {_digest(text)[:12]}...")
        values = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(values, list) or not all(_is_finite_number(v) for v in values):
            raise ProviderError(f"embedding fixture {path.name} is not a vector of finite numbers")
        if self.dim is None:
            self.dim = len(values)
        elif len(values) != self.dim:
            raise ProviderError(f"embedding fixture {path.name} has {len(values)} dimensions, not {self.dim}")
        return np.asarray(values, dtype=np.float64)

    def record(self, text: str, vector: Sequence[float]) -> None:
        path = self.fixture_dir / f"{_digest(text)}.json"
        path.write_text(json.dumps([float(v) for v in vector]), encoding="utf-8")


class ReplayVoter:
    """Replay fixtures keyed by (task text, activity text, ballot index)."""

    def __init__(self, fixture_dir):
        self.fixture_dir = Path(fixture_dir)

    def _path(self, task_text: str, activity_text: str, ballot: int) -> Path:
        return self.fixture_dir / f"{_digest(task_text, activity_text, str(ballot))}.json"

    def vote(self, task_text: str, activity_text: str, ballot: int) -> bool:
        path = self._path(task_text, activity_text, ballot)
        if not path.exists():
            raise ProviderError(f"no vote fixture for ballot {ballot} on digest {path.stem[:12]}...")
        return bool(json.loads(path.read_text(encoding="utf-8")))

    def record(self, task_text: str, activity_text: str, ballot: int, valid: bool) -> None:
        self._path(task_text, activity_text, ballot).write_text(json.dumps(bool(valid)), encoding="utf-8")


# --- candidate generation and pruning ----------------------------------------------


@dataclass(frozen=True)
class CandidateEdge:
    task_id: str
    isic4: str
    similarity: float


def build_candidates(
    task_texts: Mapping[str, str],
    activity_texts: Mapping[str, str],
    provider: EmbeddingProvider,
    top_k: int = 60,
    floor: float = 0.30,
) -> list[CandidateEdge]:
    """Embedding-retrieved candidate edges: per activity, the ``top_k`` most
    cosine-similar tasks at or above the similarity floor."""
    if top_k < 1:
        raise LinkageError("top_k must be >= 1")
    if not task_texts:
        raise LinkageError("no task texts to link")
    task_ids = sorted(task_texts)
    vectors = []
    for task_id in task_ids:
        vec = np.asarray(provider.embed(task_texts[task_id]), dtype=np.float64)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise LinkageError(f"zero-norm embedding for task {task_id}")
        vectors.append(vec / norm)
    matrix = np.stack(vectors)

    edges: list[CandidateEdge] = []
    for isic4 in sorted(activity_texts):
        vec = np.asarray(provider.embed(activity_texts[isic4]), dtype=np.float64)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise LinkageError(f"zero-norm embedding for activity {isic4}")
        sims = matrix @ (vec / norm)
        ranked = sorted(zip(task_ids, sims.tolist()), key=lambda p: (-p[1], p[0]))
        for task_id, sim in ranked[:top_k]:
            if sim >= floor:
                edges.append(CandidateEdge(task_id=task_id, isic4=isic4, similarity=sim))
    return edges


@dataclass(frozen=True)
class EdgeRecord:
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


@dataclass(frozen=True)
class IndustryGraph:
    """Retained task -> ISIC4 class edges with their vote records."""

    edges: tuple[EdgeRecord, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = [(e.task_id, e.isic4) for e in self.edges]
        if len(keys) != len(set(keys)):
            raise LinkageError("duplicate edges in industry graph")

    def division(self, isic4: str) -> str:
        override = self.provenance.get("division_map", {})
        return override.get(isic4, isic4[:2])

    def classes(self) -> list[str]:
        return sorted({e.isic4 for e in self.edges})

    def divisions(self) -> list[str]:
        return sorted({self.division(c) for c in self.classes()})

    @functools.cached_property
    def _class_edges(self) -> tuple[list[str], np.ndarray, dict[str, int], np.ndarray, dict[str, list[int]]]:
        """The edges grouped by class once per graph: (classes in sorted order,
        class index per edge, task index per distinct task id, task index per
        edge, class indices per division)."""
        classes = self.classes()
        class_index = {isic4: i for i, isic4 in enumerate(classes)}
        tasks: dict[str, int] = {}
        edge_class = np.asarray([class_index[e.isic4] for e in self.edges], dtype=np.int64)
        edge_task = np.asarray([tasks.setdefault(e.task_id, len(tasks)) for e in self.edges], dtype=np.int64)
        by_division: dict[str, list[int]] = {}
        for i, isic4 in enumerate(classes):
            by_division.setdefault(self.division(isic4), []).append(i)
        return classes, edge_class, tasks, edge_task, by_division


@dataclass(frozen=True)
class PruneResult:
    graph: IndustryGraph
    n_candidates: int
    n_retained: int
    mean_agreement: float


def prune_edges(
    candidates: Sequence[CandidateEdge],
    voter: EdgeVoter,
    task_texts: Mapping[str, str],
    activity_texts: Mapping[str, str],
    votes_per_edge: int = 3,
    retries: int = 2,
    provenance: Optional[dict] = None,
) -> PruneResult:
    """Majority-vote pruning of candidate edges.

    An edge is retained iff a strict majority of its ballots is valid; per-edge
    agreement is max(valid, invalid)/votes, and the mean over all candidates is
    reported. A provider failure is retried up to ``retries`` times per ballot.
    """
    if votes_per_edge < 1 or votes_per_edge % 2 == 0:
        raise LinkageError("votes_per_edge must be an odd count >= 1")
    records: list[EdgeRecord] = []
    ordered = sorted(candidates, key=lambda e: (e.isic4, e.task_id))
    for edge in ordered:
        if edge.task_id not in task_texts or edge.isic4 not in activity_texts:
            raise LinkageError(f"candidate edge ({edge.task_id}, {edge.isic4}) has no task or activity text")
        task_text, activity_text = task_texts[edge.task_id], activity_texts[edge.isic4]
        votes = tuple(
            bool(
                call_provider(
                    lambda: voter.vote(task_text, activity_text, ballot),
                    retries, "voter", f"edge ({edge.task_id}, {edge.isic4})",
                )
            )
            for ballot in range(votes_per_edge)
        )
        records.append(EdgeRecord(edge.task_id, edge.isic4, edge.similarity, votes))
    mean_agreement = math.fsum(r.agreement for r in records) / len(records) if records else 0.0
    retained = tuple(r for r in records if r.retained)
    meta = dict(provenance or {})
    meta.update({"votes_per_edge": votes_per_edge, "n_candidates": len(records), "n_retained": len(retained)})
    return PruneResult(
        graph=IndustryGraph(edges=retained, provenance=meta),
        n_candidates=len(records),
        n_retained=len(retained),
        mean_agreement=mean_agreement,
    )


def tally_votes(
    vote_log: Sequence[tuple[str, str, Sequence[bool]]],
    similarities: Optional[Mapping[tuple[str, str], float]] = None,
    provenance: Optional[dict] = None,
) -> PruneResult:
    """Prune from an existing vote log of (task_id, isic4, ballots) triples."""
    records = []
    for task_id, isic4, ballots in sorted(vote_log, key=lambda e: (e[1], e[0])):
        sim = similarities.get((task_id, isic4), float("nan")) if similarities else float("nan")
        records.append(EdgeRecord(task_id, isic4, sim, tuple(bool(b) for b in ballots)))
    if not records:
        raise LinkageError("empty vote log")
    mean_agreement = math.fsum(r.agreement for r in records) / len(records)
    retained = tuple(r for r in records if r.retained)
    meta = dict(provenance or {})
    meta.update({"n_candidates": len(records), "n_retained": len(retained)})
    return PruneResult(
        graph=IndustryGraph(edges=retained, provenance=meta),
        n_candidates=len(records),
        n_retained=len(retained),
        mean_agreement=mean_agreement,
    )


# --- meta-line JSONL artifacts: candidates and graphs ------------------------------------

#: record fields of each artifact and their JSON types
_CANDIDATE_FIELDS = {"task_id": str, "isic4": str, "similarity": float}
_EDGE_FIELDS = {**_CANDIDATE_FIELDS, "votes": list}


def _is_finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _write_artifact(path, meta: Mapping, records: Sequence) -> None:
    """A meta line, then one JSON object per record dataclass: ``vars`` holds its
    fields in declaration order, and reading it copies nothing."""
    lines = [json.dumps({"meta": meta}, sort_keys=True, separators=(",", ":"))]
    lines += [json.dumps(vars(record), separators=(",", ":")) for record in records]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _read_artifact(path, fields: Mapping[str, type]) -> tuple[dict, list[dict]]:
    """The meta object and the records of a JSONL artifact: a ``{"meta": {...}}``
    line, then one object per line whose ``fields`` have the given JSON types
    (a float must be finite). Blank lines are skipped."""
    meta: Optional[dict] = None
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LinkageError(f"{path}: line {line_no} is not valid JSON: {exc.msg}") from None
            except RecursionError:
                raise LinkageError(f"{path}: line {line_no} is not valid JSON: nested too deeply") from None
            if meta is None:
                meta = obj.get("meta") if isinstance(obj, dict) else None
                if not isinstance(meta, dict):
                    raise LinkageError(f"{path}: line {line_no} is not a meta line")
                division_map = meta.get("division_map", {})
                if not (isinstance(division_map, dict) and all(isinstance(v, str) for v in division_map.values())):
                    raise LinkageError(f"{path}: line {line_no} has a 'division_map' that is not an object of strings")
                continue
            for name, kind in fields.items():
                value = obj.get(name) if isinstance(obj, dict) else None
                if not (_is_finite_number(value) if kind is float else isinstance(value, kind)):
                    raise LinkageError(f"{path}: line {line_no} has no valid {name!r} ({kind.__name__})")
            records.append(obj)
    if meta is None:
        raise LinkageError(f"{path} has no meta line")
    return meta, records


def save_candidates(edges: Sequence[CandidateEdge], meta: Mapping, path) -> None:
    """Candidate edges in retrieval order, after a meta line."""
    _write_artifact(path, meta, edges)


def load_candidates(path) -> tuple[list[CandidateEdge], dict]:
    """The candidate edges and the meta object of a candidates file."""
    meta, records = _read_artifact(path, _CANDIDATE_FIELDS)
    return [CandidateEdge(r["task_id"], r["isic4"], float(r["similarity"])) for r in records], meta


def save_graph(graph: IndustryGraph, path) -> None:
    _write_artifact(path, graph.provenance, sorted(graph.edges, key=lambda e: (e.isic4, e.task_id)))


def load_graph(path) -> IndustryGraph:
    meta, records = _read_artifact(path, _EDGE_FIELDS)
    edges = tuple(
        EdgeRecord(r["task_id"], r["isic4"], float(r["similarity"]), tuple(bool(v) for v in r["votes"]))
        for r in records
    )
    return IndustryGraph(edges=edges, provenance=meta)


# --- industry summaries -----------------------------------------------------------------


@dataclass(frozen=True)
class IndustryCell:
    value: float
    exposed_share: float
    margin_shares_within: Optional[dict[Margin, float]]
    ai_material_share_exposed: Optional[float]
    n_tasks: int


@dataclass(frozen=True)
class IndustrySummary:
    classes: dict[str, IndustryCell]
    divisions: dict[str, IndustryCell]
    missing_tasks: int
    skipped_classes: tuple[str, ...]
    skipped_divisions: tuple[str, ...]


def industry_summary(dataset: LabelDataset, iso3: str, graph: IndustryGraph) -> IndustrySummary:
    """Class values are unweighted means over linked tasks; division values are
    unweighted means over the division's retained classes."""
    if not graph.edges:
        raise LinkageError("industry graph has no retained edges")
    rows = dataset.for_country(iso3)
    if not len(rows):
        raise LinkageError(f"no labels for country {iso3!r}")
    class_names, edge_class, tasks, edge_task, by_division = graph._class_edges

    # the label row of every edge's task, -1 where the country has no label for it
    task_row = np.full(len(tasks), -1, dtype=np.int64)
    for i, task_id in enumerate(rows.task_id.tolist()):
        if task_id in tasks:
            task_row[tasks[task_id]] = i
    row = task_row[edge_task]
    present = row >= 0
    row, linked = row[present], edge_class[present]
    exposed = rows.exposed[row]
    margin = rows.margin[row]

    def per_class(mask: np.ndarray) -> list[int]:
        return np.bincount(linked[mask], minlength=len(class_names)).tolist()

    n_tasks = np.bincount(linked, minlength=len(class_names)).tolist()
    # sums of small integer levels are exact in float64, so level_sums[c] / n is fsum(levels) / n
    level_sums = np.bincount(linked, weights=rows.exposure[row], minlength=len(class_names)).tolist()
    n_exposed = per_class(exposed)
    n_margin = {m: per_class(exposed & (margin == MARGINS.index(m))) for m in DEFINITE_MARGINS}
    n_ai = per_class(exposed & rows.ai_material[row])

    classes: dict[str, IndustryCell] = {}
    skipped_classes = []
    for c, isic4 in enumerate(class_names):
        n = n_tasks[c]
        if n == 0:
            skipped_classes.append(isic4)
            continue
        n_known = sum(n_margin[m][c] for m in DEFINITE_MARGINS)
        classes[isic4] = IndustryCell(
            value=level_sums[c] / n,
            exposed_share=n_exposed[c] / n,
            margin_shares_within={m: n_margin[m][c] / n_known for m in DEFINITE_MARGINS} if n_known else None,
            ai_material_share_exposed=n_ai[c] / n_exposed[c] if n_exposed[c] else None,
            n_tasks=n,
        )

    divisions: dict[str, IndustryCell] = {}
    skipped_divisions = []
    for division in sorted(by_division):
        cells = [classes[class_names[c]] for c in by_division[division] if class_names[c] in classes]
        if not cells:
            skipped_divisions.append(division)
            continue
        divisions[division] = _mean_cell(cells)
    if not divisions:
        raise LinkageError(f"no division has a retained class with labels for {iso3}")
    return IndustrySummary(
        classes=classes,
        divisions=divisions,
        missing_tasks=int(len(edge_task) - present.sum()),
        skipped_classes=tuple(skipped_classes),
        skipped_divisions=tuple(skipped_divisions),
    )


#: the fields of an industry division cell by column name, in industry_summary.csv order
_INDUSTRY_COLUMNS = (
    "value", "exposed_share", *(f"margin_within_{m.value}" for m in DEFINITE_MARGINS),
    "ai_material_share_exposed", "n_tasks",
)


def industry_rows(
    dataset: LabelDataset, countries: Sequence[str], graph: IndustryGraph
) -> tuple[tuple[str, ...], list[dict]]:
    """industry_summary.csv: per country in the given order, the division cells
    of its :func:`industry_summary` in sorted order."""
    rows = []
    for iso3 in countries:
        for division, cell in sorted(industry_summary(dataset, iso3, graph).divisions.items()):
            within = cell.margin_shares_within
            values = (
                cell.value, cell.exposed_share, *(within[m] if within else None for m in DEFINITE_MARGINS),
                cell.ai_material_share_exposed, cell.n_tasks,
            )
            rows.append({"iso3": iso3, "division": division, **dict(zip(_INDUSTRY_COLUMNS, values))})
    return ("iso3", "division", *_INDUSTRY_COLUMNS), rows


def _mean_cell(cells: Sequence[IndustryCell]) -> IndustryCell:
    def mean_of(values: list[float]) -> Optional[float]:
        return math.fsum(values) / len(values) if values else None

    within_lists = {m: [c.margin_shares_within[m] for c in cells if c.margin_shares_within] for m in DEFINITE_MARGINS}
    any_within = any(within_lists[m] for m in DEFINITE_MARGINS)
    ai_values = [c.ai_material_share_exposed for c in cells if c.ai_material_share_exposed is not None]
    return IndustryCell(
        value=math.fsum(c.value for c in cells) / len(cells),
        exposed_share=math.fsum(c.exposed_share for c in cells) / len(cells),
        margin_shares_within=({m: mean_of(within_lists[m]) for m in DEFINITE_MARGINS} if any_within else None),
        ai_material_share_exposed=mean_of(ai_values),
        n_tasks=sum(c.n_tasks for c in cells),
    )


# --- margin pockets --------------------------------------------------------------------


@dataclass(frozen=True)
class Pocket:
    unit: str
    exposed_share: float
    margin_share: float

    @property
    def product(self) -> float:
        return self.exposed_share * self.margin_share


def margin_pockets(
    units: Mapping[str, tuple[float, float]],
    top_n: Optional[int] = None,
) -> list[Pocket]:
    """Rank units by exposed share x within-exposed margin share, descending;
    ties break on the unit id."""
    pockets = [Pocket(unit, exp, margin) for unit, (exp, margin) in units.items()]
    pockets.sort(key=lambda p: (-p.product, p.unit))
    return pockets if top_n is None else pockets[:top_n]


# --- occupation summaries across countries -----------------------------------------------

#: per-SOC values carried through the bridge into ISCO groups
ISCO_METRICS = ("value", "exposed_share", *_MARGIN_COLUMNS)
#: margins ranked into occupation pockets
POCKET_MARGINS = (Margin.SUBSTITUTE, Margin.AUGMENT)


@dataclass(frozen=True)
class OccupationSummary:
    soc: dict[str, dict[str, SocCell]]  # country -> SOC occupation -> cell
    isco: dict[str, dict[str, dict[str, float]]]  # country -> ISCO group -> ISCO_METRICS name -> value
    pockets: dict[str, list[Pocket]]  # margin value -> ranked ISCO pockets; empty without a bridge

    def soc_rows(self) -> tuple[tuple[str, ...], list[dict]]:
        """occupation_summary.csv: per country, its SOC cells in sorted order."""
        rows = [
            {"iso3": iso3, "soc": soc, **cell.fields()}
            for iso3, cells in self.soc.items()
            for soc, cell in sorted(cells.items())
        ]
        return ("iso3", "soc", *_SOC_COLUMNS), rows

    def isco_rows(self) -> tuple[tuple[str, ...], list[dict]]:
        """isco_summary.csv: per country and ISCO group, its ISCO_METRICS."""
        rows = [
            {"iso3": iso3, "isco": isco, **metrics}
            for iso3, groups in self.isco.items()
            for isco, metrics in groups.items()
        ]
        return ("iso3", "isco", *ISCO_METRICS), rows

    def pocket_rows(self) -> tuple[tuple[str, ...], list[dict]]:
        """pockets_occupation.csv: per margin in sorted order, its ranked ISCO pockets."""
        columns = ("margin", "rank", "isco", "exposed_share", "margin_share", "product")
        rows = [
            dict(zip(columns, (margin, rank, p.unit, p.exposed_share, p.margin_share, p.product)))
            for margin, pockets in sorted(self.pockets.items())
            for rank, p in enumerate(pockets, start=1)
        ]
        return columns, rows


def occupation_summary(
    dataset: LabelDataset,
    countries: Sequence[str],
    weights: TaskWeightMap,
    bridge: Optional[BridgeShares] = None,
    top_pockets: Optional[int] = None,
) -> OccupationSummary:
    """SOC cells per country and, through a bridge, their ISCO aggregates and
    the margin pockets ranked across countries.

    A pocket's exposed share is the group's mean exposed share over countries;
    its margin share is the mean of margin/exposed share over the countries
    where the group is exposed at all. A group exposed nowhere is not ranked.
    """
    soc = {iso3: soc_summary(dataset, iso3, weights) for iso3 in countries}
    if bridge is None:
        return OccupationSummary(soc=soc, isco={}, pockets={})
    isco: dict[str, dict[str, dict[str, float]]] = {}
    for iso3, cells in soc.items():
        values = {s: c.fields() for s, c in cells.items()}
        by_metric = {name: isco_summary({s: v[name] for s, v in values.items()}, bridge) for name in ISCO_METRICS}
        isco[iso3] = {g: {name: by_metric[name][g] for name in ISCO_METRICS} for g in sorted(by_metric["value"])}

    def mean(xs: list[float]) -> float:
        return math.fsum(xs) / len(xs)

    pockets = {}
    for m in POCKET_MARGINS:
        units = {}
        for g in sorted({g for groups in isco.values() for g in groups}):
            rows = [groups[g] for groups in isco.values() if g in groups]
            within = [r[f"margin_{m.value}"] / r["exposed_share"] for r in rows if r["exposed_share"] > 0]
            if within:
                units[g] = (mean([r["exposed_share"] for r in rows]), mean(within))
        pockets[m.value] = margin_pockets(units, top_pockets)
    return OccupationSummary(soc=soc, isco=isco, pockets=pockets)
