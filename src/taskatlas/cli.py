"""Command-line pipeline runner: configured, reproducible runs over label files.

Config resolution: the seed is --seed, else the ATLAS_SEED environment
variable, else the JSON config file's seed, else 0. The config's other keys
only enter the config digest, where the command's options replace them. The
digest covers every option except input and output locations, each under its
flag name; an unset option or a flag left off adds no key. Every output file
carries a header block with the config digest and seed.
Exit codes: 0 success, 1 usage, 2 input error, 3 internal error.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import click
import numpy as np

# Each command imports the library modules it calls, so a stage loads only the
# code it runs; every module's input error derives from core.InputError.
from . import __version__, ingest
from .core import BenchmarkContext, InputError
from .ingest import IngestError

INPUT_ERRORS = (FileNotFoundError, IsADirectoryError, PermissionError, InputError)


def _deferred(name: str):
    """A stand-in for ``stats.<name>`` that imports its module on the first call.

    Commands look these names up on this module when they run, so a caller can
    replace one here (the traced benchmark launcher wraps each in a span).
    """

    def call(*args, **kwargs):
        from . import stats

        return getattr(stats, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


fit_forest = _deferred("fit_forest")
permutation_importance = _deferred("permutation_importance")
ale_1d = _deferred("ale_1d")
fe_regression = _deferred("fe_regression")
shapley_r2 = _deferred("shapley_r2")
loess = _deferred("loess")
bootstrap_band = _deferred("bootstrap_band")
pearson = _deferred("pearson")
spearman = _deferred("spearman")
partial_correlation = _deferred("partial_correlation")
leave_one_out = _deferred("leave_one_out")
variance_decomposition = _deferred("variance_decomposition")

# the options that name input and output locations, by flag name: the digest
# captures what was computed (parameters, seed), not where files happened to live
_VOLATILE_KEYS = frozenset(
    {
        "out", "labels", "dataset", "registry", "benchmark", "run_a", "run_b", "original", "variant",
        "candidates", "tasks", "activities", "graph", "weights", "bridge", "employment",
        "cell_values", "pairs", "lexicon", "table", "matrix",
    }
)


@dataclass
class RunContext:
    seed: int
    digest: str

    def meta(self) -> dict:
        return {"tool": f"taskatlas {__version__}", "config_digest": self.digest, "seed": self.seed}


def _resolve(config_path: Optional[str], seed_flag: Optional[int], **overrides) -> RunContext:
    config: dict = {}
    if config_path:
        config = ingest.json_value(_require(config_path).read_bytes(), f"config file {config_path}")
        if not isinstance(config, dict):
            raise IngestError(f"config file {config_path} must hold a JSON object")
    for key, value in overrides.items():
        if key in ("embedder", "voter") and value.startswith("replay:"):
            value = "replay"  # the rest of a provider spec names its fixture directory, a location
        if value is not None and value is not False and value != ():
            config[key] = value
    seed = config.get("seed", 0) if seed_flag is None else seed_flag
    if seed.__class__ is not int or seed < 0:
        raise IngestError(f"config file {config_path}: seed {seed!r} is not a non-negative integer")
    config["seed"] = seed
    stable = {k: v for k, v in config.items() if k not in _VOLATILE_KEYS}
    digest = hashlib.sha256(json.dumps(stable, sort_keys=True, default=str).encode("utf-8")).hexdigest()[:16]
    return RunContext(seed=seed, digest=digest)


def _require(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {p}")
    return p


def _fmt(value, path: Path, column: str) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            # inputs are checked before any computation, so this is a bug: ValueError exits 3
            raise ValueError(f"{path}: column {column!r} would hold the non-finite value {value!r}")
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_csv(
    path: Path,
    ctx: RunContext,
    fieldnames: Sequence[str],
    rows: Sequence[Mapping[str, Any]],
    extra_meta: Optional[Mapping[str, Any]] = None,
) -> None:
    """The rows under a header block, each column formatted in one pass: as
    :func:`_fmt` formats each cell, and refusing the first non-finite float
    in row order."""
    columns, refusals = [], []
    for name in fieldnames:
        cells, refused = _csv_cells([row.get(name) for row in rows], path, name)
        columns.append(cells)
        refusals.append(refused)
    ingest.raise_first(refusals, [lambda i, name=name: _fmt(rows[i].get(name), path, name) for name in fieldnames])
    buf = io.StringIO()
    meta = dict(ctx.meta())
    meta.update(extra_meta or {})
    for key, value in meta.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(zip(*columns))
    ingest.write_text_atomic(path, buf.getvalue())


def _csv_cells(values: list, path: Path, column: str) -> tuple[list, Optional[int]]:
    """The CSV cells of one column, and the index of its first non-finite float
    (None if it has none; only then are the cells complete)."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        refused = np.flatnonzero(~np.isfinite(np.array(values, float)))
        if len(refused):
            return [], int(refused[0])
        return list(map(float.__repr__, values)), None
    if kinds == {str}:
        return values, None
    if kinds == {int}:
        return list(map(int.__repr__, values)), None
    cells = []
    for i, value in enumerate(values):
        try:
            cells.append(_fmt(value, path, column))
        except ValueError:
            return [], i
    return cells, None


def _write_json(path: Path, ctx: RunContext, payload: Any) -> None:
    doc = {"meta": ctx.meta(), "data": payload}
    ingest.write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_dataset(path: Path, ctx: RunContext, dataset: ingest.LabelDataset) -> None:
    lines = [f"# {key}: {value}" for key, value in ctx.meta().items()]
    ingest.write_text_atomic(path, "\n".join(lines) + "\n" + dataset.to_jsonl())


def _load_dataset(path) -> ingest.LabelDataset:
    dataset, report = ingest.read_labels(str(_require(path)), fmt="jsonl")
    if report.rows_rejected:
        raise IngestError(f"{path}: {report.rows_rejected} rejected rows in an intermediate dataset")
    if not dataset:
        raise IngestError(f"{path}: dataset has no records")
    return dataset


def _series(path, key_col: str, *value_cols: str) -> list[dict[str, float]]:
    """Per value column of a table, its non-blank cells keyed by ``key_col``, which may not repeat."""
    table = ingest.read_columns(_require(path), key_col, *value_cols)
    out: list[dict[str, float]] = [{} for _ in value_cols]
    for row_no, key, *cells in zip(table.rows, table.keys(key_col), *(table.cells[col] for col in value_cols)):
        for series, col, text in zip(out, value_cols, cells):
            if text != "":
                series[key] = ingest.number(text, path, row_no, col)
    return out


def _names(spec: str) -> list[str]:
    """The names of a comma-separated list, without blanks."""
    return [name.strip() for name in spec.split(",") if name.strip()]


def _features(spec: str) -> list[str]:
    """The ``--features`` names; naming none is a usage error."""
    names = _names(spec)
    if not names:
        raise click.BadParameter(f"{spec!r} names no column", param_hint=["--features"])
    return names


def _parse(value, kind: click.ParamType, option: str):
    """``value`` converted by the click type ``kind``; a bad value is a usage error naming ``option``."""
    try:
        return kind.convert(value, None, None)
    except click.BadParameter as exc:
        raise click.BadParameter(exc.message, param_hint=[option]) from None


class _FiniteFloat(click.FloatRange):
    """A float in the range (if any), which may not be NaN or infinite: a
    ``FloatRange`` alone lets NaN through, and ``float`` takes both."""

    name = "float"

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number

    def _describe_range(self) -> str:
        return "" if self.min is None and self.max is None else super()._describe_range()


_FINITE = _FiniteFloat()


def _embedder(spec: str):
    from . import linkage

    if spec == "hash":
        return linkage.HashEmbedder()
    if spec.startswith("hash:"):
        return linkage.HashEmbedder(dim=_parse(spec.split(":", 1)[1], click.IntRange(min=1), "--embedder"))
    if spec.startswith("replay:"):
        return linkage.ReplayEmbedder(_require(spec.split(":", 1)[1]))
    raise IngestError(f"unknown embedder spec {spec!r} (use hash, hash:<dim>, or replay:<dir>)")


def _voter(spec: str):
    from . import linkage

    if spec == "hash":
        return linkage.HashVoter()
    if spec.startswith("hash:"):
        return linkage.HashVoter(valid_rate=_parse(spec.split(":", 1)[1], _FINITE, "--voter"))
    if spec.startswith("replay:"):
        return linkage.ReplayVoter(_require(spec.split(":", 1)[1]))
    raise IngestError(f"unknown voter spec {spec!r} (use hash, hash:<rate>, or replay:<dir>)")


def _run_options(command):
    """The --config/--seed pair every command takes. The command is called with
    the :class:`RunContext` of those and of its own options, keyed by flag name
    (``--top-k`` is ``top_k``), as ``ctx``, then with its own options."""

    @functools.wraps(command)
    def run(config_path, seed, **options):
        flags = {param.name: param.opts[0].lstrip("-").replace("-", "_") for param in click.get_current_context().command.params}
        return command(_resolve(config_path, seed, **{flags[name]: value for name, value in options.items()}), **options)

    run = click.option("--seed", type=click.IntRange(min=0), default=None, envvar="ATLAS_SEED")(run)
    return click.option("--config", "config_path", default=None)(run)


@click.group()
@click.version_option(version=__version__, prog_name="taskatlas")
def cli() -> None:
    """Task exposure pipeline: ingest, summarize, link, reweight, validate, stats."""


# --- ingest ---------------------------------------------------------------------


@cli.command("ingest")
@click.option("--labels", required=True, help="Label file (JSONL or CSV).")
@click.option("--format", "fmt", default="jsonl", type=click.Choice(["jsonl", "csv"]))
@click.option("--out", required=True, help="Output directory.")
@click.option("--strict", is_flag=True, help="Exit non-zero when any row is rejected.")
@_run_options
def cmd_ingest(ctx, labels, fmt, out, strict):
    """Parse, validate, deduplicate a label file; write the normalized dataset."""
    dataset, report = ingest.read_labels(str(_require(labels)), fmt=fmt)
    out_dir = Path(out)
    _write_dataset(out_dir / "dataset.jsonl", ctx, dataset)
    _write_json(out_dir / "parse_report.json", ctx, report.to_dict())
    click.echo(
        f"read {report.rows_read} rows: {report.rows_accepted} accepted, "
        f"{report.rows_rejected} rejected; {len(dataset)} unique (country, task) records"
    )
    if not dataset:
        raise IngestError(f"{labels}: no row was accepted")
    if strict and report.rows_rejected:
        raise IngestError(f"--strict: {report.rows_rejected} rows rejected")


# --- summarize -------------------------------------------------------------------

@cli.command("summarize")
@click.option("--dataset", "dataset_path", required=True)
@click.option("--registry", "registry_path", default=None)
@click.option("--benchmark", "benchmark_path", default=None, help="Benchmark labels for ladder deviations.")
@click.option("--transitions", is_flag=True, help="Emit income-group modal pathway transitions.")
@click.option("--out", required=True)
@click.option("--jobs", type=int, default=None, expose_value=False, help="Accepted for compatibility; has no effect.")
@_run_options
def cmd_summarize(ctx, dataset_path, registry_path, benchmark_path, transitions, out):
    """Country and group summary tables (and optional ladder deviations)."""
    from . import aggregate

    dataset = _load_dataset(dataset_path)
    out_dir = Path(out)
    summaries = aggregate.summarize_all(dataset)
    _write_csv(out_dir / "country_summary.csv", ctx, *aggregate.summary_rows(summaries))

    if registry_path:
        registry = ingest.load_country_registry(str(_require(registry_path)))
        for field in ("income_group", "region"):
            _write_csv(out_dir / f"group_summary_{field}.csv", ctx, *aggregate.group_rows(summaries, registry, field))
        if transitions:
            _write_csv(
                out_dir / "transitions.csv", ctx, *aggregate.transition_rows(dataset, registry),
                extra_meta={"modal_tie_rule": aggregate.MODAL_TIE_RULE},
            )

    if benchmark_path:
        if not registry_path:
            raise IngestError("--benchmark needs --registry for income-group matching")
        benchmark = _load_dataset(benchmark_path)
        _write_csv(out_dir / "benchmark_deviation.csv", ctx, *aggregate.deviation_rows(dataset, benchmark, registry))
    click.echo(f"summarized {len(summaries)} countries -> {out_dir}")


# --- link -----------------------------------------------------------------------


@cli.group("link")
def cmd_link() -> None:
    """Industry-graph construction and occupation/industry summaries."""


def _load_texts(path, id_col: str) -> dict[str, str]:
    """The ``text`` column of a table keyed by ``id_col``, which may not repeat."""
    table = ingest.read_columns(_require(path), id_col, "text")
    return dict(zip(table.keys(id_col), table.cells["text"]))


@cmd_link.command("candidates")
@click.option("--tasks", "tasks_path", required=True, help="CSV with task_id,text.")
@click.option("--activities", "activities_path", required=True, help="CSV with isic4,text.")
@click.option("--embedder", "embedder_spec", default="hash")
@click.option("--top-k", type=int, default=60, show_default=True)
@click.option("--floor", type=_FINITE, default=0.30, show_default=True)
@click.option("--out", required=True, help="Output candidates JSONL.")
@_run_options
def cmd_link_candidates(ctx, tasks_path, activities_path, embedder_spec, top_k, floor, out):
    """Embedding-retrieved candidate edges per activity."""
    from . import linkage

    tasks = _load_texts(tasks_path, "task_id")
    activities = _load_texts(activities_path, "isic4")
    edges = linkage.build_candidates(tasks, activities, _embedder(embedder_spec), top_k=top_k, floor=floor)
    linkage.save_candidates(edges, {**ctx.meta(), "top_k": top_k, "floor": floor, "embedder": embedder_spec}, out)
    click.echo(f"{len(edges)} candidate edges -> {Path(out)}")


@cmd_link.command("prune")
@click.option("--candidates", "candidates_path", required=True)
@click.option("--tasks", "tasks_path", required=True)
@click.option("--activities", "activities_path", required=True)
@click.option("--voter", "voter_spec", default="hash")
@click.option("--votes", "votes_per_edge", type=int, default=3, show_default=True)
@click.option("--out", required=True, help="Output graph JSONL.")
@_run_options
def cmd_link_prune(ctx, candidates_path, tasks_path, activities_path, voter_spec, votes_per_edge, out):
    """Majority-vote pruning of candidate edges into the retained graph."""
    from . import linkage

    candidates, candidate_meta = linkage.load_candidates(_require(candidates_path))
    # carry the retrieval parameters into the graph provenance
    retrieval = {k: v for k, v in candidate_meta.items() if k in ("top_k", "floor", "embedder")}
    tasks = _load_texts(tasks_path, "task_id")
    activities = _load_texts(activities_path, "isic4")
    result = linkage.prune_edges(
        candidates,
        _voter(voter_spec),
        tasks,
        activities,
        votes_per_edge=votes_per_edge,
        provenance={**ctx.meta(), **retrieval, "voter": voter_spec},
    )
    linkage.save_graph(result.graph, out)
    click.echo(
        f"retained {result.n_retained} of {result.n_candidates} candidates, "
        f"mean vote agreement {result.mean_agreement:.4f} -> {out}"
    )


@cmd_link.command("apply")
@click.option("--dataset", "dataset_path", required=True)
@click.option("--graph", "graph_path", default=None)
@click.option("--weights", "weights_path", default=None, help="CSV soc,task_id,weight.")
@click.option("--bridge", "bridge_path", default=None, help="CSV soc,isco,share.")
@click.option("--bridge-variant", type=click.Choice(["weighted", "modal"]), default="weighted")
@click.option("--out", required=True)
@click.option("--top-pockets", type=int, default=10, show_default=True)
@_run_options
def cmd_link_apply(ctx, dataset_path, graph_path, weights_path, bridge_path, bridge_variant, out, top_pockets):
    """Occupation and industry exposure summaries through the linkage artifacts."""
    from . import linkage

    dataset = _load_dataset(dataset_path)
    out_dir = Path(out)
    countries = BenchmarkContext.countries(dataset.countries())

    if weights_path:
        weights = linkage.load_task_weights(str(_require(weights_path)))
        bridge = linkage.load_bridge(str(_require(bridge_path)), variant=bridge_variant) if bridge_path else None
        summary = linkage.occupation_summary(dataset, countries, weights, bridge, top_pockets)
        _write_csv(out_dir / "occupation_summary.csv", ctx, *summary.soc_rows())
        if bridge:
            _write_csv(out_dir / "isco_summary.csv", ctx, *summary.isco_rows())
            _write_csv(out_dir / "pockets_occupation.csv", ctx, *summary.pocket_rows())

    if graph_path:
        graph = linkage.load_graph(str(_require(graph_path)))
        _write_csv(out_dir / "industry_summary.csv", ctx, *linkage.industry_rows(dataset, countries, graph))
    click.echo(f"linkage summaries -> {out_dir}")


# --- reweight ----------------------------------------------------------------------


@cli.command("reweight")
@click.option("--employment", "employment_path", required=True)
@click.option("--cell-values", "cell_values_path", required=True,
              help="CSV iso3,cell_id,value[,substitute,augment,both] with per-cell exposure metrics.")
@click.option("--window", default="2015:2025", show_default=True)
@click.option("--min-groups", type=int, default=8, show_default=True)
@click.option("--out", required=True)
@_run_options
def cmd_reweight(ctx, employment_path, cell_values_path, window, min_groups, out):
    """Employment-weighted exposure, gender gaps, and the FE panel."""
    from . import reweight

    lo, hi = _parse(window.split(":"), click.Tuple([int, int]), "--window")
    table = ingest.load_employment(str(_require(employment_path)))
    coverage = reweight.coverage_filter(table, window=(lo, hi), min_groups=min_groups)
    metrics, values = ingest.load_cell_values(str(_require(cell_values_path)))
    tables = reweight.tables(coverage, metrics, values)
    out_dir = Path(out)
    for name, (columns, rows) in tables.items():
        _write_csv(out_dir / f"{name}.csv", ctx, columns, rows)
    click.echo(
        f"reweighted {len(tables['adjustments'][1])} countries, {len(tables['gender_gaps'][1])} gap rows, "
        f"{len(tables['fe_panel'][1])} panel rows -> {out_dir}"
    )


# --- validate -----------------------------------------------------------------------


@cli.group("validate")
def cmd_validate() -> None:
    """Internal-validity checks over labelling runs."""


@cmd_validate.command("agreement")
@click.option("--run-a", "run_a_path", required=True)
@click.option("--run-b", "run_b_path", required=True)
@click.option("--out", required=True)
@_run_options
def cmd_validate_agreement(ctx, run_a_path, run_b_path, out):
    from . import validate

    report = validate.agreement_suite(_load_dataset(run_a_path), _load_dataset(run_b_path))
    _write_json(Path(out), ctx, dataclasses.asdict(report))
    click.echo(
        f"n={report.n} exact={report.exact_level:.4f} within_one={report.within_one_level:.4f} "
        f"binary={report.binary_exposed:.4f}"
    )


@cmd_validate.command("paraphrase")
@click.option("--original", "original_path", required=True)
@click.option("--variant", "variant_paths", multiple=True, required=True)
@click.option("--out", required=True)
@_run_options
def cmd_validate_paraphrase(ctx, original_path, variant_paths, out):
    from . import validate

    report = validate.paraphrase_stability(
        _load_dataset(original_path), [_load_dataset(p) for p in variant_paths]
    )
    _write_json(Path(out), ctx, dataclasses.asdict(report))
    click.echo(f"n={report.n} joint_within_one={report.joint_within_one:.4f}")


@cmd_validate.command("screen")
@click.option("--dataset", "dataset_path", required=True)
@click.option("--lexicon", "lexicon_path", default=None, help="JSON {rule_id: [phrases]}.")
@click.option("--out", required=True, help="Output directory.")
@_run_options
def cmd_validate_screen(ctx, dataset_path, lexicon_path, out):
    from . import validate

    lexicon = validate.load_lexicon(_require(lexicon_path)) if lexicon_path else None
    report = validate.consistency_screen(_load_dataset(dataset_path), lexicon=lexicon)
    out_dir = Path(out)
    _write_csv(out_dir / "screen_flags.csv", ctx, *report.flag_rows())
    _write_json(
        out_dir / "screen_stats.json", ctx,
        {
            "n_records": report.n_records,
            "n_flagged_records": report.n_flagged_records,
            "union_share": report.union_share,
            "lexicon_digest": report.lexicon_digest,
            "per_rule": {
                rule: {"eligible": s.eligible, "flagged": s.flagged, "share": s.share}
                for rule, s in sorted(report.per_rule.items())
            },
        },
    )
    click.echo(f"flagged {report.n_flagged_records} of {report.n_records} records ({report.union_share:.4%})")


@cmd_validate.command("divergence")
@click.option("--pairs", "pairs_path", required=True, help="CSV text_a,text_b[,country_a,country_b].")
@click.option("--embedder", "embedder_spec", default="hash")
@click.option("--no-cosine", is_flag=True, help="Disable the embedding route.")
@click.option("--jaccard-threshold", type=_FINITE, default=0.40, show_default=True)
@click.option("--cosine-threshold", type=_FINITE, default=0.55, show_default=True)
@click.option("--out", required=True)
@_run_options
def cmd_validate_divergence(ctx, pairs_path, embedder_spec, no_cosine, jaccard_threshold, cosine_threshold, out):
    from . import validate

    report = validate.rationale_divergence(
        _rationale_pairs(pairs_path),
        embedder=None if no_cosine else _embedder(embedder_spec),
        jaccard_threshold=jaccard_threshold,
        cosine_threshold=cosine_threshold,
    )
    _write_json(Path(out), ctx, report.to_dict())
    click.echo(f"{len(report.pairs)} pairs scored, {report.n_skipped} skipped")


def _rationale_pairs(path) -> list:
    """The pairs of a CSV text_a,text_b[,country_a,country_b] table; a blank country is None."""
    from . import validate

    table = ingest.read_columns(_require(path), "text_a", "text_b")
    columns = (table.cells.get(name, itertools.repeat("")) for name in ("text_a", "text_b", "country_a", "country_b"))
    return [validate.RationalePair(a, b, ca or None, cb or None) for a, b, ca, cb in zip(*columns)]


@cmd_validate.command("distribution")
@click.option("--dataset", "dataset_path", required=True)
@click.option("--registry", "registry_path", default=None)
@click.option("--group-by", "group_by", type=click.Choice(["income_group", "region"]), default=None)
@click.option("--out", required=True)
@_run_options
def cmd_validate_distribution(ctx, dataset_path, registry_path, group_by, out):
    from . import validate

    registry = ingest.load_country_registry(str(_require(registry_path))) if registry_path else None
    tables = validate.distribution_check(_load_dataset(dataset_path), registry=registry, group_by=group_by)
    _write_json(Path(out), ctx, {"groups": tables.groups, "group_sizes": tables.group_sizes})
    click.echo(f"distribution tables for {len(tables.groups)} group(s) -> {out}")


# --- stats -------------------------------------------------------------------------


@cli.group("stats")
def cmd_stats() -> None:
    """Statistical procedures over CSV tables."""


@cmd_stats.command("corr")
@click.option("--table", "table_path", required=True)
@click.option("--key-column", default="iso3", show_default=True)
@click.option("--x", "x_col", required=True)
@click.option("--y", "y_col", required=True)
@click.option("--controls", default=None, help="Comma-separated control columns (partial correlation).")
@click.option("--method", type=click.Choice(["pearson", "spearman"]), default="pearson", show_default=True)
@click.option("--loo", is_flag=True, help="Leave-one-out stability of the Pearson correlation.")
@click.option("--out", required=True)
@_run_options
def cmd_stats_corr(ctx, table_path, key_column, x_col, y_col, controls, method, loo, out):
    names = _names(controls) if controls else []
    x, y, *control_series = _series(table_path, key_column, x_col, y_col, *names)
    payload: dict[str, Any] = {"x": x_col, "y": y_col, "method": method}
    if controls:
        result = partial_correlation(x, y, control_series)
        payload.update({"partial": True, "controls": names, "value": result.value, "n": result.n})
    else:
        result = (pearson if method == "pearson" else spearman)(x, y)
        payload.update({"partial": False, "value": result.value, "n": result.n})
    if loo:
        stability = leave_one_out(x, y)
        payload["leave_one_out"] = {"min": stability.min, "max": stability.max, "sd": stability.sd}
    _write_json(Path(out), ctx, payload)
    click.echo(f"{method}{' partial' if controls else ''} = {payload['value']:.6f} (n={payload['n']})")


@cmd_stats.command("loess")
@click.option("--table", "table_path", required=True)
@click.option("--x", "x_col", required=True)
@click.option("--y", "y_col", required=True)
@click.option("--span", type=_FINITE, default=0.75, show_default=True)
@click.option("--resamples", type=int, default=200, show_default=True)
@click.option("--level", type=_FiniteFloat(0.0, 1.0, min_open=True, max_open=True), default=0.95, show_default=True)
@click.option("--out", required=True)
@_run_options
def cmd_stats_loess(ctx, table_path, x_col, y_col, span, resamples, level, out):
    """LOESS fit with a percentile bootstrap band over row resamples."""
    table = ingest.read_columns(_require(table_path), x_col, y_col)
    x, y = table.floats(x_col), table.floats(y_col)
    fit = loess(x, y, span=span)

    def refit(units):
        idx = list(units)
        return loess(x[idx], y[idx], span=span, grid=fit.grid).values

    band = bootstrap_band(refit, list(range(len(x))), resamples=resamples, level=level, seed=ctx.seed)
    _write_json(
        Path(out), ctx,
        {
            "span": span, "grid": fit.grid.tolist(), "fitted": fit.values.tolist(),
            "lower": band.lower.tolist(), "upper": band.upper.tolist(),
            "level": level, "resamples": resamples,
        },
    )
    click.echo(f"loess fit on {len(x)} points, {resamples} resamples -> {out}")


@cmd_stats.command("vardecomp")
@click.option("--matrix", "matrix_path", required=True, help="CSV: first column row id, rest numeric.")
@click.option("--out", required=True)
@_run_options
def cmd_stats_vardecomp(ctx, matrix_path, out):
    table = ingest.read_columns(_require(matrix_path))
    if not len(table):
        raise IngestError(f"{matrix_path} has no data rows")
    key_col, *columns = table.names
    shares = variance_decomposition(table.matrix(columns))
    _write_json(
        Path(out), ctx,
        {
            "row_share": shares.row_share, "col_share": shares.col_share,
            "interaction_share": shares.interaction_share, "total_ss": shares.total_ss,
            "complete": shares.complete, "degenerate": shares.degenerate,
            "n_rows": len(table), "n_cols": len(columns), "row_key": key_col,
        },
    )
    click.echo(
        f"rows {shares.row_share} cols {shares.col_share} interaction {shares.interaction_share}"
    )


@cmd_stats.command("fe")
@click.option("--table", "table_path", required=True)
@click.option("--y", "y_col", required=True)
@click.option("--x", "x_col", required=True)
@click.option("--row-fe", "row_col", required=True)
@click.option("--col-fe", "col_col", required=True)
@click.option("--cluster", "cluster_col", default=None, help="Defaults to the row-FE column.")
@click.option("--out", required=True)
@_run_options
def cmd_stats_fe(ctx, table_path, y_col, x_col, row_col, col_col, cluster_col, out):
    """Two-way fixed-effects regression with country-clustered errors."""
    table = ingest.read_columns(_require(table_path), y_col, x_col, row_col, col_col, cluster_col)
    table = table.filled(y_col, x_col)
    result = fe_regression(
        table.floats(y_col), table.floats(x_col),
        table.cells[row_col], table.cells[col_col], table.cells[cluster_col or row_col],
    )
    _write_json(
        Path(out), ctx,
        {
            "beta": result.beta, "se": result.se, "n": result.n,
            "n_clusters": result.n_clusters, "n_row_groups": result.n_row_groups,
            "n_col_groups": result.n_col_groups, "k_effective": result.k_effective,
        },
    )
    table_row = {
        "outcome": y_col, "regressor": x_col, "beta": result.beta, "se": result.se,
        "n": result.n, "n_clusters": result.n_clusters,
        "n_row_groups": result.n_row_groups, "n_col_groups": result.n_col_groups,
        "row_fe": "yes", "col_fe": "yes", "cluster": cluster_col or row_col,
    }
    _write_csv(Path(out).with_suffix(".csv"), ctx, list(table_row), [table_row])
    click.echo(f"beta={result.beta:.6f} se={result.se:.6f} n={result.n} clusters={result.n_clusters}")


@cmd_stats.command("forest")
@click.option("--table", "table_path", required=True)
@click.option("--y", "y_col", required=True)
@click.option("--features", required=True, help="Comma-separated feature columns.")
@click.option("--trees", type=int, default=500, show_default=True)
@click.option("--min-leaf", type=int, default=2, show_default=True)
@click.option("--mtry", type=int, default=None)
@click.option("--max-depth", type=int, default=None)
@click.option("--repeats", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--out", required=True)
@_run_options
def cmd_stats_forest(ctx, table_path, y_col, features, trees, min_leaf, mtry, max_depth, repeats, out):
    """Fit a regression forest and report permutation importances."""
    from . import stats

    names = _features(features)
    X, y = ingest.read_features(_require(table_path), y_col, names)
    params = stats.ForestParams(n_trees=trees, mtry=mtry, min_leaf=min_leaf, max_depth=max_depth)
    forest = fit_forest(X, y, params, seed=ctx.seed)
    predictions = forest.predict(X)
    sst = float(((y - y.mean()) ** 2).sum())
    train_r2 = 1.0 - float(((predictions - y) ** 2).sum()) / sst if sst > 0 else None
    importances = permutation_importance(forest, X, y, seed=ctx.seed, repeats=repeats)
    _write_json(
        Path(out), ctx,
        {
            "features": names, "n": len(y), "train_r2": train_r2,
            "constant_outcome": forest.constant_outcome,
            "permutation_importance": {name: float(v) for name, v in zip(names, importances)},
            "params": {"n_trees": trees, "mtry": mtry, "min_leaf": min_leaf, "max_depth": max_depth},
        },
    )
    click.echo(f"forest fit on {len(y)} rows, train R2 {train_r2}")


@cmd_stats.command("shap")
@click.option("--table", "table_path", required=True)
@click.option("--y", "y_col", required=True)
@click.option("--features", required=True)
@click.option("--trees", type=int, default=500, show_default=True)
@click.option("--min-leaf", type=int, default=2, show_default=True)
@click.option("--mtry", type=int, default=None)
@click.option("--max-depth", type=int, default=None)
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--out", required=True)
@_run_options
def cmd_stats_shap(ctx, table_path, y_col, features, trees, min_leaf, mtry, max_depth, seeds, out):
    """Mean absolute attribution ranking (outcome units x 100) across seeds."""
    from . import stats

    names = _features(features)
    X, y = ingest.read_features(_require(table_path), y_col, names)
    seed_list = tuple(_parse(s, click.IntRange(min=0), "--seeds") for s in seeds.split(","))
    params = stats.ForestParams(n_trees=trees, mtry=mtry, min_leaf=min_leaf, max_depth=max_depth)
    ranking = stats.mean_abs_shap(X, y, params, seeds=seed_list)
    _write_json(
        Path(out), ctx,
        {
            "features": names,
            "mean_abs_shap_x100": {name: float(v) for name, v in zip(names, ranking.mean_abs)},
            "ranking": [names[i] for i in ranking.order],
            "seeds": list(seed_list),
        },
    )
    click.echo("ranking: " + ", ".join(names[i] for i in ranking.order))


@cmd_stats.command("ale")
@click.option("--table", "table_path", required=True)
@click.option("--y", "y_col", required=True)
@click.option("--features", required=True)
@click.option("--feature", "target_feature", required=True, help="Feature whose effect to accumulate.")
@click.option("--bins", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--trees", type=int, default=500, show_default=True)
@click.option("--min-leaf", type=int, default=2, show_default=True)
@click.option("--out", required=True)
@_run_options
def cmd_stats_ale(ctx, table_path, y_col, features, target_feature, bins, trees, min_leaf, out):
    """Fit a forest, then the 1-D accumulated local effect of one feature."""
    from . import stats

    names = _features(features)
    X, y = ingest.read_features(_require(table_path), y_col, names)
    if target_feature not in names:
        raise IngestError(f"--feature {target_feature!r} is not among --features")
    forest = fit_forest(X, y, stats.ForestParams(n_trees=trees, min_leaf=min_leaf), seed=ctx.seed)
    result = ale_1d(forest.predict, X, names.index(target_feature), n_bins=bins)
    _write_json(
        Path(out), ctx,
        {
            "feature": target_feature, "grid": result.grid.tolist(), "ale": result.values.tolist(),
            "direction": result.direction, "bin_counts": result.bin_counts.tolist(),
            "merged_bins": result.merged_bins,
        },
    )
    click.echo(f"ALE direction for {target_feature}: {result.direction:+d}")


@cmd_stats.command("dominance")
@click.option("--table", "table_path", required=True)
@click.option("--y", "y_col", required=True)
@click.option("--features", required=True)
@click.option("--out", required=True)
@_run_options
def cmd_stats_dominance(ctx, table_path, y_col, features, out):
    """Exact Shapley R^2 decomposition over all predictor orderings."""
    names = _features(features)
    X, y = ingest.read_features(_require(table_path), y_col, names)
    result = shapley_r2(X, y, names=names)
    _write_json(
        Path(out), ctx,
        {
            "features": names,
            "contributions": {name: float(v) for name, v in zip(names, result.contributions)},
            "full_r2": result.full_r2,
            "rank_deficient_subsets": result.rank_deficient_subsets,
        },
    )
    click.echo(f"full R2 {result.full_r2:.6f}; contributions sum {float(result.contributions.sum()):.6f}")


# --- report ------------------------------------------------------------------------


@cli.command("report")
@click.option("--dataset", "dataset_path", required=True)
@click.option("--registry", "registry_path", default=None)
@click.option("--out", required=True)
@_run_options
def cmd_report(ctx, dataset_path, registry_path, out):
    """Headline diagnostics for a dataset: counts, shares, distribution tables."""
    from . import validate

    dataset = _load_dataset(dataset_path)
    registry = ingest.load_country_registry(str(_require(registry_path))) if registry_path else None
    n = len(dataset)
    exposed = int(dataset.columns.exposed.sum())
    tables = validate.distribution_check(dataset)
    by_income = (
        validate.distribution_check(dataset, registry=registry, group_by="income_group").groups
        if registry
        else None
    )
    _write_json(
        Path(out), ctx,
        {
            "n_records": n,
            "n_countries": len(dataset.countries()),
            "exposed_share": exposed / n,
            "provenance": [list(p) for p in dataset.provenance],
            "distribution": tables.groups["overall"],
            "distribution_by_income_group": by_income,
        },
    )
    click.echo(f"{n} records across {len(dataset.countries())} countries -> {out}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except INPUT_ERRORS as exc:
        click.echo(f"input error: {exc}", err=True)
        return 2
    except Exception as exc:  # invariant violations and bugs
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
