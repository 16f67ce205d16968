"""Command-line pipeline runner: configured, reproducible runs over label files.

Each option is declared once; its flag name (``--top-k`` is ``top_k``) is its
parameter, its config key and its digest key. Its value is the flag, else (for
``--seed``) ATLAS_SEED, else that key of the ``--config`` JSON object (click's
``default_map``, through the option's JSON type and click type), else the
default. A config key that names no option of the command exits 2, so a config
shared across stages holds only keys every stage takes, such as ``seed``. The
digest hashes every option but the locations (``_PATH``). Every output file
carries a header block with the digest and seed.
Exit codes: 0 success, 1 usage, 2 input error, 3 internal error.
"""

from __future__ import annotations

import os

# Each stage is one short process whose largest arrays are far too small for a
# second BLAS thread to pay, so BLAS runs on one thread unless the caller sets
# a count. This must run before anything loads numpy: OpenBLAS reads the count
# once, when it loads, and starts its pool then.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

import dataclasses
import functools
import gc
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NoReturn, Optional, Sequence

import click

# Each command imports the library modules it calls, so a stage loads only the
# code it runs; every module's input error derives from core.InputError.
from . import __version__
from .core import InputError, country_tags
from .files import (
    IngestError, json_value, read_columns, read_features, read_series, write_csv, write_divergence, write_json,
    write_tables,
)

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

@dataclass
class RunContext:
    seed: int
    digest: str

    def meta(self) -> dict:
        return {"tool": f"taskatlas {__version__}", "config_digest": self.digest, "seed": self.seed}


def _require(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {p}")
    return p


def _names(spec: str) -> list[str]:
    """The names of a comma-separated list, without blanks."""
    return [name.strip() for name in spec.split(",") if name.strip()]


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


class _Location(click.types.StringParamType):
    """The type of an option that names an input or output file or directory."""

    name = "path"


_PATH = _Location()
_COUNT = click.IntRange(min=1)


class _OddCount(click.IntRange):
    """An odd count: a majority of that many ballots always exists."""

    def convert(self, value, param, ctx):
        count = super().convert(value, param, ctx)
        if count % 2 == 0:
            self.fail(f"{count} is not an odd count.", param, ctx)
        return count


# the forest options of stats forest, shap and ale
_TREES = click.option("--trees", type=_COUNT, default=500, show_default=True)
_MIN_LEAF = click.option("--min-leaf", type=_COUNT, default=2, show_default=True)
_MTRY = click.option("--mtry", type=_COUNT, default=None, help="Features tried per split; at most their number.")
_MAX_DEPTH = click.option("--max-depth", type=_COUNT, default=None)


class _Text(click.ParamType):
    """A text option whose command reads it through :meth:`parse`. The flag
    and the config key are checked with the same parse, and the text itself
    stays the value, so the digest holds it as given."""

    def convert(self, value, param, ctx):
        self.parse(value)
        return value

    def parse(self, text: str):
        raise NotImplementedError

    def once_each(self, text: str, items: Sequence, noun: str) -> None:
        """Fail when ``items``, parsed from ``text``, hold one item twice."""
        repeated = next((item for i, item in enumerate(items) if item in items[:i]), None)
        if repeated is not None:
            self.fail(f"{text!r} names {noun} {repeated!r} twice")


class _Window(_Text):
    """Years ``first:last``."""

    name = "window"

    def parse(self, text: str) -> tuple[int, int]:
        first, last = click.Tuple([int, int]).convert(text.split(":"), None, None)
        if first > last:
            self.fail(f"first year {first} is after last year {last}")
        return first, last


class _Seeds(_Text):
    """Comma-separated seeds."""

    name = "seeds"

    def parse(self, text: str) -> tuple[int, ...]:
        seeds = tuple(_SEED.convert(seed, None, None) for seed in text.split(","))
        self.once_each(text, seeds, "seed")  # a repeated seed would weigh its forest twice in the mean
        return seeds


class _Columns(_Text):
    """Comma-separated column names, at least one."""

    name = "columns"

    def parse(self, text: str) -> list[str]:
        names = _names(text)
        if not names:
            self.fail(f"{text!r} names no column")
        self.once_each(text, names, "column")  # each names one result
        return names


class _Provider(_Text):
    """An embedder or voter: ``hash``, ``hash:<argument>`` or ``replay:<fixture directory>``."""

    name = "spec"

    def __init__(self, argument: str, number: click.ParamType, domain: click.ParamType):
        self.argument, self.number, self.domain = argument, number, domain

    def parse(self, text: str) -> tuple[str, Any]:
        """``("hash", None)``, ``("hash", <argument>)`` or ``("replay", <directory>)``."""
        kind, colon, rest = text.partition(":")
        if kind == "hash" and colon:
            try:
                return kind, self.domain.convert(self.number.convert(rest, None, None), None, None)
            except click.BadParameter as exc:
                self.fail(exc.message)
        if kind == "hash" or (kind == "replay" and rest):
            return kind, rest or None
        self.fail(f"{text!r} is not hash, hash:<{self.argument}> or replay:<dir>.")


_SEED = click.IntRange(min=0)
_WINDOW, _SEEDS, _FEATURES = _Window(), _Seeds(), _Columns()
_EMBEDDER = _Provider("dim", click.INT, click.IntRange(1, 4096))
_VOTER = _Provider("rate", _FINITE, _FINITE)


def _provider(spec: str, kind: _Provider):
    """The embedder (``kind`` is ``_EMBEDDER``) or voter (``_VOTER``) that ``spec`` names."""
    from . import linkage

    hashed, replayed = {
        _EMBEDDER: (linkage.HashEmbedder, linkage.ReplayEmbedder), _VOTER: (linkage.HashVoter, linkage.ReplayVoter),
    }[kind]
    name, argument = kind.parse(spec)
    if name == "replay":
        return replayed(_require(argument))
    return hashed() if argument is None else hashed(argument)


#: per click type, the classes json gives a config value of an option of that type; a str otherwise
_JSON_CLASSES = (
    (click.types.BoolParamType, (bool,)), (click.types.IntParamType, (int,)), (click.types.FloatParamType, (int, float))
)


def _read_config(ctx: click.Context, param: click.Parameter, path: Optional[str]) -> None:
    """Make the JSON object in ``path`` the command's ``default_map``: each key
    names an option of the command, and its value passes the option's type."""
    if path is None:
        return
    config = json_value(_require(path).read_bytes(), f"config file {path}")
    if not isinstance(config, dict):
        raise IngestError(f"config file {path} must hold a JSON object")
    for key, value in config.items():
        option = next((option for option in ctx.command.params if option.name == key and option is not param), None)
        if option is None:
            raise IngestError(f"config file {path}: {key!r} is not an option of this command")
        classes = next((classes for kind, classes in _JSON_CLASSES if isinstance(option.type, kind)), (str,))
        items = value if option.multiple and value.__class__ is list else [value]
        if not all(item.__class__ in classes for item in items):
            kind = "/".join(c.__name__ for c in classes) + (" list" if option.multiple else "")
            raise IngestError(f"config file {path}: {key} {value!r} is not a JSON {kind}")
        try:
            config[key] = option.type_cast_value(ctx, value)
        except (click.BadParameter, OverflowError) as exc:  # OverflowError: an integer past the float range
            raise IngestError(f"config file {path}: {key} {value!r}: {getattr(exc, 'message', exc)}") from None
    ctx.default_map = config


def _given(*names: str) -> list[str]:
    """The flags of the named options that the command line or the config
    set, at their default value or not."""
    ctx = click.get_current_context()
    return [f"--{name.replace('_', '-')}" for name in names
            if ctx.get_parameter_source(name) is not click.core.ParameterSource.DEFAULT]


def _run_options(command):
    """The --out/--seed/--config options of every command, which is called with the
    :class:`RunContext` of its options as ``ctx``, then with its options but the seed."""

    @functools.wraps(command)
    def run(seed, **options):
        stable = {"seed": seed}
        for param in click.get_current_context().command.params:
            value = options.get(param.name)
            if isinstance(param.type, _Provider) and value.startswith("replay:"):
                value = "replay"  # the rest of a provider spec names its fixture directory, a location
            if not isinstance(param.type, _Location) and value is not None and value is not False and value != ():
                stable[param.name] = value
        digest = hashlib.sha256(json.dumps(stable, sort_keys=True, default=str).encode("utf-8")).hexdigest()[:16]
        return command(RunContext(seed=seed, digest=digest), **options)

    run = click.option("--out", type=_PATH, required=True, help="Output file or directory.")(run)
    run = click.option("--seed", type=_SEED, default=0, envvar="ATLAS_SEED")(run)
    return click.option("--config", type=_PATH, callback=_read_config, expose_value=False, is_eager=True)(run)


@click.group()
@click.version_option(version=__version__, prog_name="taskatlas")
def cli() -> None:
    """Task exposure pipeline: ingest, summarize, link, reweight, validate, stats."""


# --- ingest ---------------------------------------------------------------------


@cli.command("ingest")
@click.option("--labels", type=_PATH, required=True, help="Label file (JSONL or CSV).")
@click.option("--format", default="jsonl", type=click.Choice(["jsonl", "csv"]))
@click.option("--strict", is_flag=True, help="Exit non-zero when any row is rejected.")
@_run_options
def cmd_ingest(ctx, labels, format, out, strict):
    """Parse, validate, deduplicate a label file; write the normalized dataset."""
    from . import ingest

    dataset, report = ingest.read_labels(str(_require(labels)), fmt=format)
    out_dir = Path(out)
    ingest.write_dataset(out_dir / "dataset.jsonl", ctx.meta(), dataset)
    write_json(out_dir / "parse_report.json", ctx.meta(), report.to_dict())
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
@click.option("--dataset", type=_PATH, required=True)
@click.option("--registry", type=_PATH, default=None)
@click.option("--benchmark", type=_PATH, default=None, help="Benchmark labels for ladder deviations.")
@click.option("--transitions", is_flag=True, help="Emit income-group modal pathway transitions.")
@_run_options
def cmd_summarize(ctx, dataset, registry, benchmark, transitions, out):
    """Country and group summary tables (and optional ladder deviations)."""
    from . import aggregate, ingest

    if benchmark and not registry:
        raise IngestError("--benchmark needs --registry for income-group matching")
    if transitions and not registry:
        raise IngestError("--transitions needs --registry: transitions run between income groups")
    dataset = ingest.load_dataset(_require(dataset))
    registry = ingest.load_country_registry(str(_require(registry))) if registry else None
    countries, summaries = dataset.countries(), aggregate.summarize_all(dataset)
    tables = {"country_summary": aggregate.summary_rows(countries, summaries)}
    if registry is not None:
        for field in ("income_group", "region"):
            tables[f"group_summary_{field}"] = aggregate.group_rows(countries, summaries, registry, field)
        if transitions:
            tie_rule = {"modal_tie_rule": aggregate.MODAL_TIE_RULE}
            tables["transitions"] = (*aggregate.transition_rows(dataset, registry), tie_rule)
    if benchmark:
        benchmark = ingest.load_dataset(_require(benchmark))
        tables["benchmark_deviation"] = aggregate.deviation_rows(dataset, benchmark, registry)
    write_tables(Path(out), ctx.meta(), tables)
    click.echo(f"summarized {len(summaries)} countries -> {Path(out)}")


# --- link -----------------------------------------------------------------------


@cli.group("link")
def cmd_link() -> None:
    """Industry-graph construction and occupation/industry summaries."""


@cmd_link.command("candidates")
@click.option("--tasks", type=_PATH, required=True, help="CSV with task_id,text.")
@click.option("--activities", type=_PATH, required=True, help="CSV with isic4,text.")
@click.option("--embedder", type=_EMBEDDER, default="hash")
@click.option("--top-k", type=_COUNT, default=60, show_default=True)
@click.option("--floor", type=_FINITE, default=0.30, show_default=True)
@_run_options
def cmd_link_candidates(ctx, tasks, activities, embedder, top_k, floor, out):
    """Embedding-retrieved candidate edges per activity."""
    from . import linkage

    texts = linkage.load_texts(_require(tasks), "task_id"), linkage.load_texts(_require(activities), "isic4")
    edges = linkage.build_candidates(*texts, _provider(embedder, _EMBEDDER), top_k=top_k, floor=floor)
    if not edges:
        raise IngestError(f"no candidate edge at --floor {floor} among any activity's --top-k {top_k} nearest tasks")
    linkage.save_candidates(edges, {**ctx.meta(), "top_k": top_k, "floor": floor, "embedder": embedder}, out)
    click.echo(f"{len(edges)} candidate edges -> {Path(out)}")


@cmd_link.command("prune")
@click.option("--candidates", type=_PATH, required=True)
@click.option("--tasks", type=_PATH, required=True)
@click.option("--activities", type=_PATH, required=True)
@click.option("--voter", type=_VOTER, default="hash")
@click.option("--votes", type=_OddCount(min=1), default=3, show_default=True)
@_run_options
def cmd_link_prune(ctx, candidates, tasks, activities, voter, votes, out):
    """Majority-vote pruning of candidate edges into the retained graph."""
    from . import linkage

    candidates, candidate_meta = linkage.load_candidates(_require(candidates))
    # carry the retrieval parameters into the graph provenance
    retrieval = {k: v for k, v in candidate_meta.items() if k in ("top_k", "floor", "embedder")}
    result = linkage.prune_edges(
        candidates,
        _provider(voter, _VOTER),
        linkage.load_texts(_require(tasks), "task_id"),
        linkage.load_texts(_require(activities), "isic4"),
        votes_per_edge=votes,
        provenance={**ctx.meta(), **retrieval, "voter": voter},
    )
    if not result.n_retained:
        raise IngestError(f"--voter {voter} at --votes {votes} retained none of {result.n_candidates} candidates")
    linkage.save_graph(result.graph, out)
    click.echo(
        f"retained {result.n_retained} of {result.n_candidates} candidates, "
        f"mean vote agreement {result.mean_agreement:.4f} -> {out}"
    )


@cmd_link.command("apply")
@click.option("--dataset", type=_PATH, required=True)
@click.option("--graph", type=_PATH, default=None)
@click.option("--weights", type=_PATH, default=None, help="CSV soc,task_id,weight.")
@click.option("--bridge", type=_PATH, default=None, help="CSV soc,isco,share.")
@click.option("--bridge-variant", type=click.Choice(["weighted", "modal"]), default="weighted")
@click.option("--top-pockets", type=_COUNT, default=10, show_default=True)
@_run_options
def cmd_link_apply(ctx, dataset, graph, weights, bridge, bridge_variant, out, top_pockets):
    """Occupation and industry exposure summaries through the linkage artifacts."""
    from . import ingest, linkage

    if not weights and not graph:
        raise IngestError("link apply needs --weights, --graph or both: with neither it writes no table")
    if bridge and not weights:
        raise IngestError("--bridge needs --weights: it maps the occupation summary into ISCO groups")
    unbridged = _given("bridge_variant", "top_pockets")
    if unbridged and not bridge:
        verb = "needs" if len(unbridged) == 1 else "need"
        raise IngestError(f"{' and '.join(unbridged)} {verb} --bridge: only the ISCO tables and pockets use it")
    dataset_path = _require(dataset)
    dataset = ingest.load_dataset(dataset_path)
    countries = country_tags(dataset.countries())
    if not countries:
        raise IngestError(f"{dataset_path}: dataset has no country, only benchmark contexts")
    tables = {}
    if weights:
        weights = linkage.load_soc_pairs(str(_require(weights)), "task weight")
        bridge = linkage.load_soc_pairs(str(_require(bridge)), "bridge share") if bridge else None
        if bridge and bridge_variant == "modal":
            bridge = bridge.modal()
        tables.update(linkage.occupation_summary(dataset, countries, weights, bridge, top_pockets))
    if graph:
        graph = linkage.load_graph(str(_require(graph)))
        tables["industry_summary"] = linkage.industry_rows(dataset, countries, graph)
    write_tables(Path(out), ctx.meta(), tables)
    click.echo(f"linkage summaries -> {Path(out)}")


# --- reweight ----------------------------------------------------------------------


@cli.command("reweight")
@click.option("--employment", type=_PATH, required=True)
@click.option("--cell-values", type=_PATH, required=True,
              help="CSV iso3,cell_id,value[,substitute,augment,both] with per-cell exposure metrics.")
@click.option("--window", type=_WINDOW, default="2015:2025", show_default=True)
@click.option("--min-groups", type=_COUNT, default=8, show_default=True)
@_run_options
def cmd_reweight(ctx, employment, cell_values, window, min_groups, out):
    """Employment-weighted exposure, gender gaps, and the FE panel."""
    from . import ingest, reweight

    lo, hi = _WINDOW.parse(window)
    table = ingest.load_employment(str(_require(employment)))
    coverage = reweight.coverage_filter(table, window=(lo, hi), min_groups=min_groups)
    values = ingest.load_cell_values(str(_require(cell_values)))
    tables = reweight.tables(coverage, values)
    write_tables(Path(out), ctx.meta(), tables)
    countries, gaps, panel = (len(tables[name][1][0]) for name in ("adjustments", "gender_gaps", "fe_panel"))
    click.echo(f"reweighted {countries} countries, {gaps} gap rows, {panel} panel rows -> {Path(out)}")


# --- validate -----------------------------------------------------------------------


@cli.group("validate")
def cmd_validate() -> None:
    """Internal-validity checks over labelling runs."""


@cmd_validate.command("agreement")
@click.option("--run-a", type=_PATH, required=True)
@click.option("--run-b", type=_PATH, required=True)
@_run_options
def cmd_validate_agreement(ctx, run_a, run_b, out):
    from . import ingest, validate

    run_a, run_b = (ingest.load_dataset(_require(path)) for path in (run_a, run_b))
    report = validate.agreement_suite(run_a, run_b)
    write_json(Path(out), ctx.meta(), dataclasses.asdict(report))
    click.echo(
        f"n={report.n} exact={report.exact_level:.4f} within_one={report.within_one_level:.4f} "
        f"binary={report.binary_exposed:.4f}"
    )


@cmd_validate.command("paraphrase")
@click.option("--original", type=_PATH, required=True)
@click.option("--variant", type=_PATH, multiple=True, required=True)
@_run_options
def cmd_validate_paraphrase(ctx, original, variant, out):
    from . import ingest, validate

    original, *variants = (ingest.load_dataset(_require(path)) for path in (original, *variant))
    report = validate.paraphrase_stability(original, variants)
    write_json(Path(out), ctx.meta(), dataclasses.asdict(report))
    click.echo(f"n={report.n} joint_within_one={report.joint_within_one:.4f}")


@cmd_validate.command("screen")
@click.option("--dataset", type=_PATH, required=True)
@click.option("--lexicon", type=_PATH, default=None, help="JSON {rule_id: [phrases]}.")
@_run_options
def cmd_validate_screen(ctx, dataset, lexicon, out):
    from . import ingest, validate

    lexicon = validate.load_lexicon(_require(lexicon)) if lexicon else None
    report = validate.consistency_screen(ingest.load_dataset(_require(dataset)), lexicon=lexicon)
    out_dir = Path(out)
    write_csv(out_dir / "screen_flags.csv", ctx.meta(), *report.flag_rows())
    write_json(
        out_dir / "screen_stats.json", ctx.meta(),
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
@click.option("--pairs", type=_PATH, required=True, help="CSV text_a,text_b[,country_a,country_b].")
@click.option("--embedder", type=_EMBEDDER, default="hash")
@click.option("--no-cosine", is_flag=True, help="Disable the embedding route.")
@click.option("--jaccard-threshold", type=_FINITE, default=0.40, show_default=True)
@click.option("--cosine-threshold", type=_FINITE, default=0.55, show_default=True)
@_run_options
def cmd_validate_divergence(ctx, pairs, embedder, no_cosine, jaccard_threshold, cosine_threshold, out):
    from . import validate

    report = validate.rationale_divergence(
        validate.load_pairs(_require(pairs)),
        embedder=None if no_cosine else _provider(embedder, _EMBEDDER),
        jaccard_threshold=jaccard_threshold,
        cosine_threshold=cosine_threshold,
    )
    write_divergence(Path(out), ctx.meta(), report)
    click.echo(f"{len(report.pairs)} pairs scored, {report.n_skipped} skipped")


@cmd_validate.command("distribution")
@click.option("--dataset", type=_PATH, required=True)
@click.option("--registry", type=_PATH, default=None)
@click.option("--group-by", type=click.Choice(["income_group", "region"]), default=None)
@_run_options
def cmd_validate_distribution(ctx, dataset, registry, group_by, out):
    from . import ingest, validate

    if bool(registry) != bool(group_by):
        raise IngestError("--group-by and --registry go together: the registry gives each country its group")
    registry = ingest.load_country_registry(str(_require(registry))) if registry else None
    dataset = ingest.load_dataset(_require(dataset))
    tables = validate.distribution_check(dataset, registry=registry, group_by=group_by)
    write_json(Path(out), ctx.meta(), {"groups": tables.groups, "group_sizes": tables.group_sizes})
    click.echo(f"distribution tables for {len(tables.groups)} group(s) -> {out}")


# --- stats -------------------------------------------------------------------------


@cli.group("stats")
def cmd_stats() -> None:
    """Statistical procedures over CSV tables."""


@cmd_stats.command("corr")
@click.option("--table", type=_PATH, required=True)
@click.option("--key-column", default="iso3", show_default=True)
@click.option("--x", required=True)
@click.option("--y", required=True)
@click.option("--controls", default=None, help="Comma-separated control columns (partial correlation).")
@click.option("--method", type=click.Choice(["pearson", "spearman"]), default="pearson", show_default=True)
@click.option("--loo", is_flag=True, help="Leave-one-out stability of the Pearson correlation.")
@_run_options
def cmd_stats_corr(ctx, table, key_column, x, y, controls, method, loo, out):
    names = _names(controls) if controls else []
    xs, ys, *control_series = read_series(_require(table), key_column, x, y, *names)
    payload: dict[str, Any] = {"x": x, "y": y, "method": method}
    if controls:
        result = partial_correlation(xs, ys, control_series)
        payload.update({"partial": True, "controls": names, "value": result.value, "n": result.n})
    else:
        result = (pearson if method == "pearson" else spearman)(xs, ys)
        payload.update({"partial": False, "value": result.value, "n": result.n})
    if loo:
        stability = leave_one_out(xs, ys)
        payload["leave_one_out"] = {"min": stability.min, "max": stability.max, "sd": stability.sd}
    write_json(Path(out), ctx.meta(), payload)
    click.echo(f"{method}{' partial' if controls else ''} = {payload['value']:.6f} (n={payload['n']})")


@cmd_stats.command("loess")
@click.option("--table", type=_PATH, required=True)
@click.option("--x", required=True)
@click.option("--y", required=True)
@click.option("--span", type=_FiniteFloat(0.0, 1.0, min_open=True), default=0.75, show_default=True)
@click.option("--resamples", type=click.IntRange(min=2), default=200, show_default=True)
@click.option("--level", type=_FiniteFloat(0.0, 1.0, min_open=True, max_open=True), default=0.95, show_default=True)
@_run_options
def cmd_stats_loess(ctx, table, x, y, span, resamples, level, out):
    """LOESS fit with a percentile bootstrap band over row resamples."""
    columns = read_columns(_require(table), x, y)
    xs, ys = columns.floats(x), columns.floats(y)
    fit = loess(xs, ys, span=span)

    def refit(units):
        idx = list(units)
        return loess(xs[idx], ys[idx], span=span, grid=fit.grid).values

    band = bootstrap_band(refit, list(range(len(xs))), resamples=resamples, level=level, seed=ctx.seed)
    write_json(
        Path(out), ctx.meta(),
        {
            "span": span, "grid": fit.grid.tolist(), "fitted": fit.values.tolist(),
            "lower": band.lower.tolist(), "upper": band.upper.tolist(),
            "level": level, "resamples": resamples,
        },
    )
    click.echo(f"loess fit on {len(xs)} points, {resamples} resamples -> {out}")


@cmd_stats.command("vardecomp")
@click.option("--matrix", type=_PATH, required=True, help="CSV: first column row id, rest numeric.")
@_run_options
def cmd_stats_vardecomp(ctx, matrix, out):
    table = read_columns(_require(matrix))
    if not len(table):
        raise IngestError(f"{matrix} has no data rows")
    key_col, *columns = table.names
    shares = variance_decomposition(table.matrix(columns))
    write_json(
        Path(out), ctx.meta(),
        {
            "row_share": shares.row_share, "col_share": shares.col_share,
            "interaction_share": shares.interaction_share, "total_ss": shares.total_ss,
            "complete": shares.complete, "degenerate": shares.degenerate,
            "n_rows": len(table), "n_cols": len(columns), "row_key": key_col,
        },
    )
    click.echo(f"rows {shares.row_share} cols {shares.col_share} interaction {shares.interaction_share}")


@cmd_stats.command("fe")
@click.option("--table", type=_PATH, required=True)
@click.option("--y", required=True)
@click.option("--x", required=True)
@click.option("--row-fe", required=True)
@click.option("--col-fe", required=True)
@click.option("--cluster", default=None, help="Defaults to the row-FE column.")
@_run_options
def cmd_stats_fe(ctx, table, y, x, row_fe, col_fe, cluster, out):
    """Two-way fixed-effects regression with country-clustered errors."""
    columns = read_columns(_require(table), y, x, row_fe, col_fe, cluster).filled(y, x)
    cluster = cluster or row_fe
    result = fe_regression(
        columns.floats(y), columns.floats(x), columns.cells[row_fe], columns.cells[col_fe], columns.cells[cluster],
    )
    write_json(
        Path(out), ctx.meta(),
        {
            "beta": result.beta, "se": result.se, "n": result.n,
            "n_clusters": result.n_clusters, "n_row_groups": result.n_row_groups,
            "n_col_groups": result.n_col_groups, "k_effective": result.k_effective,
        },
    )
    table_row = {
        "outcome": y, "regressor": x, "beta": result.beta, "se": result.se,
        "n": result.n, "n_clusters": result.n_clusters,
        "n_row_groups": result.n_row_groups, "n_col_groups": result.n_col_groups,
        "row_fe": "yes", "col_fe": "yes", "cluster": cluster,
    }
    write_csv(Path(out).with_suffix(".csv"), ctx.meta(), list(table_row), [[value] for value in table_row.values()])
    click.echo(f"beta={result.beta:.6f} se={result.se:.6f} n={result.n} clusters={result.n_clusters}")


@cmd_stats.command("forest")
@click.option("--table", type=_PATH, required=True)
@click.option("--y", required=True)
@click.option("--features", type=_FEATURES, required=True, help="Comma-separated feature columns.")
@_TREES
@_MIN_LEAF
@_MTRY
@_MAX_DEPTH
@click.option("--repeats", type=_COUNT, default=5, show_default=True)
@_run_options
def cmd_stats_forest(ctx, table, y, features, trees, min_leaf, mtry, max_depth, repeats, out):
    """Fit a regression forest and report permutation importances."""
    from . import stats

    names = _FEATURES.parse(features)
    X, ys = read_features(_require(table), y, names)
    params = stats.ForestParams(n_trees=trees, mtry=mtry, min_leaf=min_leaf, max_depth=max_depth)
    forest = fit_forest(X, ys, params, seed=ctx.seed)
    predictions = forest.predict(X)
    sst = float(((ys - ys.mean()) ** 2).sum())
    train_r2 = 1.0 - float(((predictions - ys) ** 2).sum()) / sst if sst > 0 else None
    importances = permutation_importance(forest, X, ys, seed=ctx.seed, repeats=repeats)
    write_json(
        Path(out), ctx.meta(),
        {
            "features": names, "n": len(ys), "train_r2": train_r2,
            "constant_outcome": forest.constant_outcome,
            "permutation_importance": {name: float(v) for name, v in zip(names, importances)},
            "params": {"n_trees": trees, "mtry": mtry, "min_leaf": min_leaf, "max_depth": max_depth},
        },
    )
    click.echo(f"forest fit on {len(ys)} rows, train R2 {train_r2}")


@cmd_stats.command("shap")
@click.option("--table", type=_PATH, required=True)
@click.option("--y", required=True)
@click.option("--features", type=_FEATURES, required=True)
@_TREES
@_MIN_LEAF
@_MTRY
@_MAX_DEPTH
@click.option("--seeds", type=_SEEDS, default="0,1,2,3,4", show_default=True)
@_run_options
def cmd_stats_shap(ctx, table, y, features, trees, min_leaf, mtry, max_depth, seeds, out):
    """Mean absolute attribution ranking (outcome units x 100) across seeds."""
    from . import stats

    names = _FEATURES.parse(features)
    X, ys = read_features(_require(table), y, names)
    seed_list = _SEEDS.parse(seeds)
    params = stats.ForestParams(n_trees=trees, mtry=mtry, min_leaf=min_leaf, max_depth=max_depth)
    ranking = stats.mean_abs_shap(X, ys, params, seeds=seed_list)
    write_json(
        Path(out), ctx.meta(),
        {
            "features": names,
            "mean_abs_shap_x100": {name: float(v) for name, v in zip(names, ranking.mean_abs)},
            "ranking": [names[i] for i in ranking.order],
            "seeds": list(seed_list),
        },
    )
    click.echo("ranking: " + ", ".join(names[i] for i in ranking.order))


@cmd_stats.command("ale")
@click.option("--table", type=_PATH, required=True)
@click.option("--y", required=True)
@click.option("--features", type=_FEATURES, required=True)
@click.option("--feature", required=True, help="Feature whose effect to accumulate.")
@click.option("--bins", type=_COUNT, default=10, show_default=True)
@_TREES
@_MIN_LEAF
@_run_options
def cmd_stats_ale(ctx, table, y, features, feature, bins, trees, min_leaf, out):
    """Fit a forest, then the 1-D accumulated local effect of one feature."""
    from . import stats

    names = _FEATURES.parse(features)
    X, ys = read_features(_require(table), y, names)
    if feature not in names:
        raise IngestError(f"--feature {feature!r} is not among --features")
    forest = fit_forest(X, ys, stats.ForestParams(n_trees=trees, min_leaf=min_leaf), seed=ctx.seed)
    result = ale_1d(forest.predict, X, names.index(feature), n_bins=bins)
    write_json(
        Path(out), ctx.meta(),
        {
            "feature": feature, "grid": result.grid.tolist(), "ale": result.values.tolist(),
            "direction": result.direction, "bin_counts": result.bin_counts.tolist(),
            "merged_bins": result.merged_bins,
        },
    )
    click.echo(f"ALE direction for {feature}: {result.direction:+d}")


@cmd_stats.command("dominance")
@click.option("--table", type=_PATH, required=True)
@click.option("--y", required=True)
@click.option("--features", type=_FEATURES, required=True)
@_run_options
def cmd_stats_dominance(ctx, table, y, features, out):
    """Exact Shapley R^2 decomposition over all predictor orderings."""
    names = _FEATURES.parse(features)
    X, ys = read_features(_require(table), y, names)
    result = shapley_r2(X, ys, names=names)
    write_json(
        Path(out), ctx.meta(),
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
@click.option("--dataset", type=_PATH, required=True)
@click.option("--registry", type=_PATH, default=None)
@_run_options
def cmd_report(ctx, dataset, registry, out):
    """Headline diagnostics for a dataset: counts, shares, distribution tables."""
    from . import ingest, validate

    dataset = ingest.load_dataset(_require(dataset))
    registry = ingest.load_country_registry(str(_require(registry))) if registry else None
    n = len(dataset)
    exposed = int(dataset.columns.exposed.sum())
    tables = validate.distribution_check(dataset)
    by_income = (validate.distribution_check(dataset, registry=registry, group_by="income_group").groups
                 if registry else None)
    write_json(
        Path(out), ctx.meta(),
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


def run() -> NoReturn:
    """The process entry of ``python -m taskatlas.cli`` and the ``taskatlas``
    script: :func:`main`, then an exit without interpreter teardown.

    Every output is closed before ``main`` returns, so once stdout and stderr
    are flushed nothing is left for teardown to do but free objects one by one.
    A flush that fails (stdout closed early) falls back to ``sys.exit``, whose
    teardown reports it as it always has.

    The process runs without the cyclic collector: a stage frees nothing that
    it must reclaim before it exits, so each collection pass would only walk
    its live objects. ``main`` itself leaves the collector as it finds it.
    """
    gc.disable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
