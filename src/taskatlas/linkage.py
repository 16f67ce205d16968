"""Occupation bridge (task -> SOC -> ISCO) and industry graph (task -> ISIC4
candidate-then-prune), with occupation- and industry-level exposure summaries."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Protocol, Sequence, TypeVar, Union

import numpy as np

from .core import ACTIVE_CHANNELS, DEFINITE_MARGINS, EXPOSED_THRESHOLD, InputError, Margin
from .files import (
    IngestError, columns_of, finite_number, first_repeat, json_value, raise_first, read_columns, write_chunks_atomic,
)
from .ingest import CHANNELS, MARGINS, LabelDataset, changes, factorize


class LinkageError(InputError):
    pass


class ProviderError(InputError):
    """An embedding or voting provider failed (missing fixture, bad output)."""


T = TypeVar("T")


def call_provider(call: Callable[[], T], retries: int, who: str, what: Union[str, Callable[[], str]]) -> T:
    """``call()``, retried up to ``retries`` times on a ``ProviderError``.

    When every attempt fails, raises a ``ProviderError`` naming ``who`` failed on
    ``what`` (or on ``what()``, so a caller names its item only on failure),
    how often, and the last provider message. Any other exception is a bug,
    not a provider failure, and propagates from the first attempt.
    """
    for _ in range(retries + 1):
        try:
            return call()
        except ProviderError as exc:
            last_error = exc
    raise ProviderError(f"{who} failed {retries + 1} times on {what() if callable(what) else what}: {last_error}")


# --- weights and bridges -------------------------------------------------------

#: per kind of (SOC occupation, member) table, by the noun its errors use: its member and value columns
SOC_TABLES = {"task weight": ("task_id", "weight"), "bridge share": ("isco", "share")}


def _runs(codes: np.ndarray) -> list[tuple[int, int]]:
    """The bounds of each run of equal codes, in order."""
    starts = np.flatnonzero(changes(codes)).tolist()
    return list(zip(starts, starts[1:] + [len(codes)]))


@dataclass(frozen=True, eq=False)
class SocPairs:
    """Per SOC occupation, its members' values (task weights, or ISCO bridge
    shares), as columns with one entry per row, rows in (SOC, member) order:
    codes into the sorted distinct ``socs`` and ``members``, and a float value.

    ``what`` names the values in errors: each occupation's values must be
    non-negative and sum to 1, and a task weight table must have a row (an
    empty bridge is refused by the first occupation it has no row for).
    """

    what: str
    socs: tuple[str, ...]
    members: tuple[str, ...]
    soc: np.ndarray
    member: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        if not len(self.value) and self.what == "task weight":
            raise LinkageError("task weight map has no occupations")
        values, negative = self.value.tolist(), self.value < 0
        for soc, (lo, hi) in zip(self.socs, self.spans):
            if negative[lo:hi].any():
                raise LinkageError(f"negative {self.what} for occupation {soc}")
            try:
                total = math.fsum(values[lo:hi])
            except OverflowError:  # finite values whose sum is not finite
                total = math.inf
            if abs(total - 1.0) > 1e-9:
                raise LinkageError(f"{self.what}s for occupation {soc} sum to {total}, not 1")

    @functools.cached_property
    def spans(self) -> list[tuple[int, int]]:
        """Per occupation in ``socs`` order, the bounds of its rows."""
        return _runs(self.soc)

    def modal(self) -> "SocPairs":
        """Each occupation's first row with its largest value, at 1.0: as
        members are coded in sorted order, the smallest of the tied ids."""
        first = np.lexsort((-self.value, self.soc))[[lo for lo, _ in self.spans]]
        return SocPairs(self.what, self.socs, self.members, self.soc[first], self.member[first], np.ones(len(first)))


def load_soc_pairs(path, what: str) -> SocPairs:
    """A CSV with soc and the member and value columns of ``what`` in
    :data:`SOC_TABLES`, keys stripped. A malformed table raises first, then
    the first row that repeats a (SOC, member) pair or holds a refused value,
    then :class:`SocPairs`' checks."""
    member, value = SOC_TABLES[what]
    table = read_columns(path, "soc", member, value)
    socs, members = ([text.strip() for text in table.cells[name]] for name in ("soc", member))
    keys = list(zip(socs, members))
    values, refused = table.parsed(value)

    def check_repeat(row: int) -> None:
        if keys[row] in keys[:row]:
            raise IngestError(f"{path}: (soc, {member}) pair ({socs[row]}, {members[row]}) repeats in data row "
                              f"{table.rows[row]}")

    raise_first([first_repeat(keys), refused], [check_repeat, functools.partial(table.number, name=value)])
    (soc, soc_names), (member_code, member_names) = factorize(socs), factorize(members)
    order = np.lexsort((member_code, soc))
    return SocPairs(what, tuple(soc_names), tuple(member_names), soc[order], member_code[order],
                    np.array(values, float)[order])


def load_texts(path, id_col: str) -> dict[str, str]:
    """The ``text`` column of a table keyed by ``id_col``, which may not repeat."""
    table = read_columns(path, id_col, "text")
    return dict(zip(table.keys(id_col), table.cells["text"]))


# --- occupation summaries --------------------------------------------------------


_MARGIN_COLUMNS = tuple(f"margin_{m.value}" for m in DEFINITE_MARGINS)
#: the columns of a SOC cell, in occupation_summary.csv order
_SOC_COLUMNS = (
    "value", "exposed_share", "high_share", *_MARGIN_COLUMNS,
    *(f"channel_{c.value}" for c in ACTIVE_CHANNELS), "ai_material_share", "dropped_weight",
)


def soc_summary(dataset: LabelDataset, iso3: str, weights: SocPairs) -> np.ndarray:
    """Per-occupation weighted exposure for one country: per occupation in
    ``weights.socs`` order, its cell in :data:`_SOC_COLUMNS` order.

    Weights over tasks missing from the country's labels are renormalized away
    and the dropped mass reported per occupation; an occupation with zero
    usable mass is an error.
    """
    rows = dataset.for_country(iso3)
    if not len(rows):
        raise LinkageError(f"no labels for country {iso3!r}")
    position = dict(zip(rows.task_id.tolist(), range(len(rows))))
    row = np.fromiter((position.get(t, -1) for t in weights.members), np.int64, len(weights.members))[weights.member]
    # a pair whose task has no label weighs nothing; the row it reads is a placeholder
    w = np.where(row >= 0, weights.value, 0.0)
    exposure, margin, channel = rows.exposure[row], rows.margin[row], rows.channel[row]
    exposed = exposure >= EXPOSED_THRESHOLD
    terms = np.stack([
        w, w * exposure, w * exposed, w * (exposure == 3),
        *(w * (margin == MARGINS.index(m)) for m in DEFINITE_MARGINS),
        *(w * (channel == CHANNELS.index(c)) for c in ACTIVE_CHANNELS),
        w * (rows.ai_material[row] & exposed),
    ]).tolist()
    cells = np.empty((len(weights.socs), len(_SOC_COLUMNS)))
    for code, (lo, hi) in enumerate(weights.spans):
        usable, *sums = (math.fsum(term[lo:hi]) for term in terms)
        if usable <= 0:
            raise LinkageError(f"occupation {weights.socs[code]} has zero usable weight mass for {iso3}")
        cells[code] = [total / usable for total in sums] + [1.0 - usable]
    return cells


@dataclass(frozen=True, eq=False)
class BridgeRoutes:
    """A bridge over the occupations of a summary: per ISCO group that a
    positive share reaches, in sorted ``groups`` order, its incoming rows
    within ``spans`` (``soc``, an index into those occupations, and its
    ``share``) and its share ``mass``."""

    groups: tuple[str, ...]
    spans: list[tuple[int, int]]
    soc: np.ndarray
    share: np.ndarray
    mass: list[float]


def bridge_routes(bridge: SocPairs, socs: Sequence[str]) -> BridgeRoutes:
    """The routes of ``bridge`` from the sorted ``socs``, each of which it must have a row for."""
    index = {soc: i for i, soc in enumerate(socs)}
    missing = set(socs).difference(bridge.socs)
    if missing:
        raise LinkageError(f"occupation {min(missing)} has no bridge row")
    soc = np.array([index.get(soc, -1) for soc in bridge.socs], np.int64)[bridge.soc]
    keep = np.flatnonzero((soc >= 0) & (bridge.value > 0))
    keep = keep[np.lexsort((soc[keep], bridge.member[keep]))]
    group, share = bridge.member[keep], bridge.value[keep]
    spans, shares = _runs(group), share.tolist()
    return BridgeRoutes(tuple(bridge.members[group[lo]] for lo, _ in spans), spans, soc[keep], share,
                        [math.fsum(shares[lo:hi]) for lo, hi in spans])


def isco_summary(values: np.ndarray, routes: BridgeRoutes) -> np.ndarray:
    """Combine per-SOC values (one row per occupation of the routes, one column
    per metric) into ISCO groups: one row per group of ``routes.groups``.

    Incoming SOC mass per group is renormalized so results stay in the units of
    the inputs (an identity bridge is an exact pass-through).
    """
    terms = (routes.share[:, None] * values[routes.soc]).T.tolist()
    groups = np.empty((len(routes.groups), values.shape[1]))
    for g, ((lo, hi), mass) in enumerate(zip(routes.spans, routes.mass)):
        groups[g] = [math.fsum(term[lo:hi]) / mass for term in terms]
    return groups


# --- providers -------------------------------------------------------------------


class EmbeddingProvider(Protocol):
    def embed_many(self, texts: Iterable[str]) -> Iterator[np.ndarray]:
        """One vector per text of ``texts``, in order, each made when it is asked for."""


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

    def embed_many(self, texts: Iterable[str]) -> Iterator[np.ndarray]:
        from ._rng import pcg64_streams  # numpy.random loads only where a stage draws

        prefixes = b"".join(hashlib.sha256(text.encode("utf-8")).digest()[:8] for text in texts)
        # the stream of rng_for(seed): PCG64 seeded by SeedSequence(seed), without the wrapper
        for generator in pcg64_streams(np.frombuffer(prefixes, ">u8")):
            vec = generator.standard_normal(self.dim)
            yield vec / np.sqrt(vec.dot(vec))  # np.linalg.norm of a vector


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

    def embed_many(self, texts: Iterable[str]) -> Iterator[np.ndarray]:
        for text in texts:
            path = self.fixture_dir / f"{_digest(text)}.json"
            if not path.exists():
                raise ProviderError(f"no embedding fixture for input digest {_digest(text)[:12]}...")
            values = json_value(path.read_bytes(), f"embedding fixture {path}")
            if not isinstance(values, list) or not all(map(finite_number, values)):
                raise ProviderError(f"embedding fixture {path.name} is not a vector of finite numbers")
            if self.dim is None:
                self.dim = len(values)
            elif len(values) != self.dim:
                raise ProviderError(f"embedding fixture {path.name} has {len(values)} dimensions, not {self.dim}")
            yield np.asarray(values, dtype=np.float64)


class ReplayVoter:
    """Replay fixtures keyed by (task text, activity text, ballot index)."""

    def __init__(self, fixture_dir):
        self.fixture_dir = Path(fixture_dir)

    def vote(self, task_text: str, activity_text: str, ballot: int) -> bool:
        path = self.fixture_dir / f"{_digest(task_text, activity_text, str(ballot))}.json"
        if not path.exists():
            raise ProviderError(f"no vote fixture for ballot {ballot} on digest {path.stem[:12]}...")
        valid = json_value(path.read_bytes(), f"vote fixture {path}")
        if valid.__class__ is not bool:
            raise ProviderError(f"vote fixture {path.name} is not a JSON boolean")
        return valid


_SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal


def scaled_norm(vec) -> tuple[np.ndarray, np.float64]:
    """``vec`` as floats and its Euclidean norm, so that dividing the one by
    the other gives its unit vector. When the squared norm is not a positive
    normal float (it overflows, or underflows towards 0), the vector is first
    divided by its largest absolute component; the norm is then 0 only for the
    zero vector, and an ordinary vector comes back as it is. The squared norm
    may overflow, so a caller silences that with ``np.errstate(over="ignore")``,
    entered once around its loop rather than once per vector."""
    vec = np.asarray(vec, dtype=np.float64)
    squared = vec.dot(vec)
    if not _SMALLEST_NORMAL <= squared < math.inf:
        top = np.abs(vec).max(initial=0.0)
        if top > 0:
            vec = vec / top
            squared = vec.dot(vec)
    return vec, np.sqrt(squared)


# --- candidate generation and pruning ----------------------------------------------


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """Task -> ISIC4 class edges as columns, one entry per edge in each: the
    task ids, the class ids, the cosine similarities (float64) and, for the
    edges of a graph, their ballots as an edges x ballots bool matrix (None
    for candidates)."""

    task_id: Sequence[str]
    isic4: Sequence[str]
    similarity: np.ndarray
    votes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.task_id)

    def take(self, index: Sequence[int]) -> "EdgeColumns":
        """The edges at ``index``, in that order."""
        rows = np.asarray(index, dtype=np.intp)
        return EdgeColumns(
            [self.task_id[i] for i in index], [self.isic4[i] for i in index], self.similarity[rows],
            None if self.votes is None else self.votes[rows],
        )

    def by_class(self) -> "EdgeColumns":
        """The edges ordered by class, then task (ties keep their order)."""
        return self.take([i for *_, i in sorted(zip(self.isic4, self.task_id, range(len(self))))])


def build_candidates(
    task_texts: Mapping[str, str],
    activity_texts: Mapping[str, str],
    provider: EmbeddingProvider,
    top_k: int = 60,
    floor: float = 0.30,
) -> EdgeColumns:
    """Embedding-retrieved candidate edges: per activity, the ``top_k`` most
    cosine-similar tasks at or above the similarity floor."""
    if top_k < 1:
        raise LinkageError("top_k must be >= 1")
    if not task_texts:
        raise LinkageError("no task texts to link")
    task_ids, isic4s = sorted(task_texts), sorted(activity_texts)
    # one stream, tasks first: each vector is made and checked in this order
    embedded = provider.embed_many([*(task_texts[t] for t in task_ids), *(activity_texts[a] for a in isic4s)])
    vectors = []
    edge_tasks: list[str] = []
    edge_classes: list[str] = []
    similarities = [np.empty(0)]
    with np.errstate(over="ignore"):  # for scaled_norm
        for task_id, vec in zip(task_ids, embedded):
            vec, norm = scaled_norm(vec)
            if norm == 0:
                raise LinkageError(f"zero-norm embedding for task {task_id}")
            vectors.append(vec / norm)
        matrix = np.stack(vectors)

        for isic4, vec in zip(isic4s, embedded):
            vec, norm = scaled_norm(vec)
            if norm == 0:
                raise LinkageError(f"zero-norm embedding for activity {isic4}")
            sims = matrix @ (vec / norm)
            # the most similar first; a stable sort keeps ties in task id order, as task_ids is sorted
            top = np.argsort(-sims, kind="stable")[:top_k]
            top = top[sims[top] >= floor]
            edge_tasks += map(task_ids.__getitem__, top.tolist())
            edge_classes += [isic4] * len(top)
            similarities.append(sims[top])
    return EdgeColumns(edge_tasks, edge_classes, np.concatenate(similarities))


@dataclass(frozen=True, eq=False)
class IndustryGraph:
    """Retained task -> ISIC4 class edges with their ballots."""

    edges: EdgeColumns
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(set(zip(self.edges.task_id, self.edges.isic4))) != len(self.edges):
            raise LinkageError("duplicate edges in industry graph")

    def division(self, isic4: str) -> str:
        override = self.provenance.get("division_map", {})
        return override.get(isic4, isic4[:2])

    def classes(self) -> list[str]:
        return sorted(set(self.edges.isic4))

    @functools.cached_property
    def _class_edges(self) -> tuple[list[str], np.ndarray, dict[str, int], np.ndarray, dict[str, list[int]]]:
        """The edges grouped by class once per graph: (classes in sorted order,
        class index per edge, task index per distinct task id, task index per
        edge, class indices per division)."""
        classes = self.classes()
        class_index = {isic4: i for i, isic4 in enumerate(classes)}
        tasks = {task_id: i for i, task_id in enumerate(dict.fromkeys(self.edges.task_id))}
        n = len(self.edges)
        edge_class = np.fromiter(map(class_index.__getitem__, self.edges.isic4), np.int64, n)
        edge_task = np.fromiter(map(tasks.__getitem__, self.edges.task_id), np.int64, n)
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
    candidates: EdgeColumns,
    voter: EdgeVoter,
    task_texts: Mapping[str, str],
    activity_texts: Mapping[str, str],
    votes_per_edge: int = 3,
    retries: int = 2,
    provenance: Optional[dict] = None,
) -> PruneResult:
    """Majority-vote pruning of candidate edges, in class then task order.

    An edge is retained iff a strict majority of its ballots is valid; per-edge
    agreement is max(valid, invalid)/votes, and the mean over all candidates is
    reported. A provider failure is retried up to ``retries`` times per ballot.
    """
    if votes_per_edge < 1 or votes_per_edge % 2 == 0:
        raise LinkageError("votes_per_edge must be an odd count >= 1")
    ordered = candidates.by_class()
    vote = voter.vote
    ballots: list[bool] = []
    for task_id, isic4 in zip(ordered.task_id, ordered.isic4):
        if task_id not in task_texts or isic4 not in activity_texts:
            raise LinkageError(f"candidate edge ({task_id}, {isic4}) has no task or activity text")
        task_text, activity_text = task_texts[task_id], activity_texts[isic4]
        edge = functools.partial("edge ({}, {})".format, task_id, isic4)  # formatted only when a ballot fails
        for ballot in range(votes_per_edge):
            valid = call_provider(functools.partial(vote, task_text, activity_text, ballot), retries, "voter", edge)
            ballots.append(bool(valid))
    n = len(ordered)
    votes = np.array(ballots, dtype=bool).reshape(n, votes_per_edge)
    n_valid = votes.sum(axis=1)
    kept = np.flatnonzero(n_valid * 2 > votes_per_edge)
    agreement = np.maximum(n_valid, votes_per_edge - n_valid) / votes_per_edge
    meta = dict(provenance or {})
    meta.update({"votes_per_edge": votes_per_edge, "n_candidates": n, "n_retained": len(kept)})
    voted = EdgeColumns(ordered.task_id, ordered.isic4, ordered.similarity, votes)
    return PruneResult(
        graph=IndustryGraph(edges=voted.take(kept.tolist()), provenance=meta),
        n_candidates=n,
        n_retained=len(kept),
        mean_agreement=math.fsum(agreement.tolist()) / n if n else 0.0,
    )


# --- meta-line JSONL artifacts: candidates and graphs ------------------------------------

#: the record fields of each artifact, and the meta fields read from it (the
#: retrieval parameters ``link prune`` carries into a graph, a graph's division
#: map): per field, the JSON type an error names and its test
_STRING = ("str", lambda value: isinstance(value, str))
_NUMBER = ("finite number", finite_number)
_BOOLS = ("list of bool", lambda value: isinstance(value, list) and all(v.__class__ is bool for v in value))
_STRINGS = ("object of str", lambda value: isinstance(value, dict) and all(isinstance(v, str) for v in value.values()))
_CANDIDATE_FIELDS = {"task_id": _STRING, "isic4": _STRING, "similarity": _NUMBER}
_EDGE_FIELDS = {**_CANDIDATE_FIELDS, "votes": _BOOLS}
_CANDIDATE_META = {"top_k": _NUMBER, "floor": _NUMBER, "embedder": _STRING}
_GRAPH_META = {"division_map": _STRINGS}

#: the line of a candidate, and of a graph edge with its ballots, as
#: json.dumps(<its fields>, separators=(",", ":"), allow_nan=False) writes it
_CANDIDATE_LINE = '{"task_id":%s,"isic4":%s,"similarity":%s}\n'
_EDGE_LINE = '{"task_id":%s,"isic4":%s,"similarity":%s,"votes":[%s]}\n'
_JSON_ID = json.encoder.encode_basestring_ascii
_JSON_BALLOTS = np.array(["false", "true"])


def _write_edges(path, meta: Mapping, edges: EdgeColumns) -> None:
    """A meta line, then one JSON object per edge, each written from one
    template: the ids through json's ASCII string encoder and the similarity
    through ``float.__repr__``, as json.dumps writes them. A non-finite
    similarity is refused with json.dumps's error."""
    head = json.dumps({"meta": meta}, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    similarities = edges.similarity.tolist()
    if not np.isfinite(edges.similarity).all():
        json.dumps(similarities, allow_nan=False)  # raises json.dumps's ValueError for the first one
    columns = [map(_JSON_ID, edges.task_id), map(_JSON_ID, edges.isic4), map(float.__repr__, similarities)]
    if edges.votes is not None:
        columns.append(map(",".join, _JSON_BALLOTS[edges.votes.astype(np.intp)].tolist()))
    template = _CANDIDATE_LINE if edges.votes is None else _EDGE_LINE
    write_chunks_atomic(path, itertools.chain((head,), map(template.__mod__, zip(*columns))))


def _check_fields(path, line_no: int, obj, fields: Mapping[str, tuple]) -> None:
    """Raise for the first of ``fields`` whose test the value of ``obj`` fails."""
    for name, (kind, test) in fields.items():
        if not test(obj.get(name) if isinstance(obj, dict) else None):
            raise LinkageError(f"{path}: line {line_no} has no valid {name!r} ({kind})")


def _read_edges(path, fields: Mapping[str, tuple], meta_fields: Mapping[str, tuple]) -> tuple[dict, EdgeColumns]:
    """The meta object and the edges of a JSONL artifact: a ``{"meta": {...}}``
    line whose ``meta_fields`` pass their tests where present, then one object
    per line whose ``fields`` pass theirs. Blank lines are skipped. A graph's
    edges must each hold as many ballots as its first."""
    meta: Optional[dict] = None
    records: list[dict] = []
    first_line = 0
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            obj = json_value(line, f"{path}: line {line_no}")
            if meta is None:
                meta = obj.get("meta") if isinstance(obj, dict) else None
                if not isinstance(meta, dict):
                    raise LinkageError(f"{path}: line {line_no} is not a meta line")
                _check_fields(path, line_no, meta, {name: check for name, check in meta_fields.items() if name in meta})
                continue
            _check_fields(path, line_no, obj, fields)
            if not records:
                first_line = line_no
            elif "votes" in fields and len(obj["votes"]) != len(records[0]["votes"]):
                raise LinkageError(
                    f"{path}: line {line_no} has {len(obj['votes'])} votes, not {len(records[0]['votes'])} as line {first_line}"
                )
            records.append(obj)
    if meta is None:
        raise LinkageError(f"{path} has no meta line")
    votes = None
    if "votes" in fields:
        width = len(records[0]["votes"]) if records else 0
        votes = np.array([r["votes"] for r in records], dtype=bool).reshape(len(records), width)
    return meta, EdgeColumns(
        [r["task_id"] for r in records], [r["isic4"] for r in records],
        np.array([r["similarity"] for r in records], dtype=np.float64), votes,
    )


def save_candidates(edges: EdgeColumns, meta: Mapping, path) -> None:
    """Candidate edges in retrieval order, after a meta line."""
    _write_edges(path, meta, edges)


def load_candidates(path) -> tuple[EdgeColumns, dict]:
    """The candidate edges and the meta object of a candidates file."""
    meta, edges = _read_edges(path, _CANDIDATE_FIELDS, _CANDIDATE_META)
    return edges, meta


def save_graph(graph: IndustryGraph, path) -> None:
    _write_edges(path, graph.provenance, graph.edges.by_class())


def load_graph(path) -> IndustryGraph:
    meta, edges = _read_edges(path, _EDGE_FIELDS, _GRAPH_META)
    return IndustryGraph(edges=edges, provenance=meta)


# --- industry summaries -----------------------------------------------------------------

#: the fields of an industry cell by column name, in industry_summary.csv order
_INDUSTRY_COLUMNS = (
    "value", "exposed_share", *(f"margin_within_{m.value}" for m in DEFINITE_MARGINS),
    "ai_material_share_exposed", "n_tasks",
)


@dataclass(frozen=True)
class IndustryCells:
    """Industry cells as columns: per unit (an ISIC4 class or a division) in
    ``units`` order, its value in each column of :data:`_INDUSTRY_COLUMNS`.
    A margin share within exposed tasks is None where no linked task is
    exposed with a definite margin, and the AI-material share of exposed tasks
    where none is exposed."""

    units: list[str]
    columns: dict[str, list]


@dataclass(frozen=True)
class IndustrySummary:
    classes: IndustryCells
    divisions: IndustryCells
    missing_tasks: int
    skipped_classes: tuple[str, ...]
    skipped_divisions: tuple[str, ...]


def _division_means(column: list[Optional[float]], groups: list[list[int]]) -> list[Optional[float]]:
    """Per group of positions, the mean (through math.fsum) of the values of
    ``column`` there that are not None, or None where none is."""
    means = []
    for members in groups:
        present = [column[j] for j in members if column[j] is not None]
        means.append(math.fsum(present) / len(present) if present else None)
    return means


def industry_summary(dataset: LabelDataset, iso3: str, graph: IndustryGraph) -> IndustrySummary:
    """Class values are unweighted means over linked tasks; division values are
    unweighted means over the division's retained classes."""
    if not len(graph.edges):
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
    n_known = [sum(counts) for counts in zip(*n_margin.values())]
    n_ai = per_class(exposed & rows.ai_material[row])

    linked_classes = [c for c, n in enumerate(n_tasks) if n]
    class_columns = dict(zip(_INDUSTRY_COLUMNS, (
        [level_sums[c] / n_tasks[c] for c in linked_classes],
        [n_exposed[c] / n_tasks[c] for c in linked_classes],
        *([n_margin[m][c] / n_known[c] if n_known[c] else None for c in linked_classes] for m in DEFINITE_MARGINS),
        [n_ai[c] / n_exposed[c] if n_exposed[c] else None for c in linked_classes],
        [n_tasks[c] for c in linked_classes],
    )))
    position = {c: j for j, c in enumerate(linked_classes)}

    # per division with a linked class, the positions of its linked classes in class_columns
    division_units, groups, skipped_divisions = [], [], []
    for division in sorted(by_division):
        members = [position[c] for c in by_division[division] if c in position]
        if members:
            division_units.append(division)
            groups.append(members)
        else:
            skipped_divisions.append(division)
    if not division_units:
        raise LinkageError(f"no division has a retained class with labels for {iso3}")
    division_columns = {
        name: _division_means(class_columns[name], groups) for name in _INDUSTRY_COLUMNS if name != "n_tasks"
    }
    division_columns["n_tasks"] = [sum([class_columns["n_tasks"][j] for j in members]) for members in groups]
    return IndustrySummary(
        classes=IndustryCells([class_names[c] for c in linked_classes], class_columns),
        divisions=IndustryCells(division_units, division_columns),
        missing_tasks=int(len(edge_task) - present.sum()),
        skipped_classes=tuple(class_names[c] for c, n in enumerate(n_tasks) if not n),
        skipped_divisions=tuple(skipped_divisions),
    )


def industry_rows(
    dataset: LabelDataset, countries: Sequence[str], graph: IndustryGraph
) -> tuple[tuple[str, ...], list[list]]:
    """industry_summary.csv: per country in the given order, the division cells
    of its :func:`industry_summary` in sorted order, as columns."""
    columns: dict[str, list] = {name: [] for name in ("iso3", "division", *_INDUSTRY_COLUMNS)}
    for iso3 in countries:
        divisions = industry_summary(dataset, iso3, graph).divisions
        columns["iso3"] += [iso3] * len(divisions.units)
        columns["division"] += divisions.units
        for name in _INDUSTRY_COLUMNS:
            columns[name] += divisions.columns[name]
    return tuple(columns), list(columns.values())


# --- occupation summaries across countries -----------------------------------------------

#: per-SOC values carried through the bridge into ISCO groups
ISCO_METRICS = ("value", "exposed_share", *_MARGIN_COLUMNS)
#: margins ranked into occupation pockets, in pockets_occupation.csv order
POCKET_MARGINS = (Margin.AUGMENT, Margin.SUBSTITUTE)


def _mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / len(values)


def _per_country(countries: Sequence[str], unit: str, units: Sequence[str], columns: tuple[str, ...],
                 cells: np.ndarray) -> tuple[tuple[str, ...], list[list]]:
    """A table of the countries x units x columns ``cells``: a row per country and unit, in that order."""
    return ("iso3", unit, *columns), [
        [iso3 for iso3 in countries for _ in units], list(units) * len(countries),
        *cells.reshape(-1, len(columns)).T.tolist(),
    ]


def occupation_summary(
    dataset: LabelDataset,
    countries: Sequence[str],
    weights: SocPairs,
    bridge: Optional[SocPairs] = None,
    top_pockets: Optional[int] = None,
) -> dict[str, tuple[tuple[str, ...], list[list]]]:
    """The tables of ``link apply``'s occupation path by name, each as its
    field names and one list of values per field: occupation_summary (per
    country in the given order, its SOC cells) and, through a bridge,
    isco_summary (per country, its ISCO aggregates) and pockets_occupation
    (per pocket margin, the ISCO groups ranked across countries, at most
    ``top_pockets`` of them).

    A pocket's exposed share is the group's mean exposed share over countries;
    its margin share is the mean of margin/exposed share over the countries
    where the group is exposed at all. A group exposed nowhere is not ranked;
    the rest rank by exposed x margin share, descending, ties on the group id.
    """
    soc = np.array([soc_summary(dataset, iso3, weights) for iso3 in countries]).reshape(
        len(countries), len(weights.socs), len(_SOC_COLUMNS))
    tables = {"occupation_summary": _per_country(countries, "soc", weights.socs, _SOC_COLUMNS, soc)}
    if bridge is None:
        return tables
    # with no country there is nothing to route, so no occupation lacks a bridge row
    routes = bridge_routes(bridge, weights.socs if len(countries) else ())
    metrics = [_SOC_COLUMNS.index(name) for name in ISCO_METRICS]
    isco = np.array([isco_summary(cells[:, metrics], routes) for cells in soc]).reshape(
        len(countries), len(routes.groups), len(ISCO_METRICS))
    tables["isco_summary"] = _per_country(countries, "isco", routes.groups, ISCO_METRICS, isco)

    exposed = isco[:, :, ISCO_METRICS.index("exposed_share")].T
    pockets = []
    for m in POCKET_MARGINS:
        margin = isco[:, :, ISCO_METRICS.index(f"margin_{m.value}")].T
        ranked = []
        for group, shares, margins in zip(routes.groups, exposed, margin):
            hit = shares > 0
            if hit.any():
                share, within = _mean(shares), _mean(margins[hit] / shares[hit])
                ranked.append((-(share * within), group, share, within))
        ranked.sort()
        pockets += [(m.value, rank, group, share, within, share * within)
                    for rank, (_, group, share, within) in enumerate(ranked[:top_pockets], start=1)]
    tables["pockets_occupation"] = columns_of(
        ("margin", "rank", "isco", "exposed_share", "margin_share", "product"), pockets)
    return tables
