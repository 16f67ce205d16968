"""Run one taskatlas CLI stage with in-memory spans around each layer's public functions.

Usage: python bench/trace_launcher.py <spans.json> <taskatlas arguments...>

The launcher patches each traced function where the CLI (or the library
function calling it) looks it up, calls ``taskatlas.cli.main`` and, when the
stage ends, writes ``{"spans": [[name, start, end, parent, hook_s], ...],
"counts": {...}, "maxima": {...}}``. ``parent`` is the index of the enclosing
span, or -1. The root span ``cli.main`` covers the whole command; its self
time is the time the stage spent outside every layer span. A span's
``hook_s`` is the time spent inside it deriving counts from the arguments and
results of the spans it encloses (a count hook runs after its own span has
closed); ``run.py`` takes it out of that span's self time.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter

from taskatlas import aggregate, cli, ingest, linkage, reweight, validate
from taskatlas.ingest import LabelDataset
from taskatlas.stats import forest as forest_mod
from taskatlas.stats import treeshap as treeshap_mod


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Span around ``fn``; ``on_result(counts, args, kwargs, result)`` and
        ``on_error(counts, exc)`` record counts outside the span; their time
        is charged to the enclosing span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, 0.0]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = time.perf_counter()
                self.stack.pop()
                if on_error is not None:
                    on_error(self.counts, exc)
                    self._charge_hook(parent, span[2])
                raise
            span[2] = time.perf_counter()
            self.stack.pop()
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
                self._charge_hook(parent, span[2])
            return result

        return traced

    def _charge_hook(self, parent: int, hook_start: float) -> None:
        if parent >= 0:
            self.spans[parent][4] += time.perf_counter() - hook_start

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "maxima": self.maxima}, handle)


def _count(name):
    def hook(counts, args, kwargs, result):
        counts[name] += 1

    return hook


def install(tracer: Tracer) -> None:
    """Patch every traced function where its callers look it up."""
    wrap = tracer.wrap

    # core: validate_record is looked up in ingest's namespace by validate_rows
    ingest.validate_record = wrap("core.validate_record", ingest.validate_record, _count("core.records_validated"))

    read_labels = ingest.read_labels

    def read_labels_rss(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        dataset, report = read_labels(*args, **kwargs)
        grown_b = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
        if report.rows_read:
            per_record = grown_b / report.rows_read
            tracer.maxima["ingest.rss_per_record_b"] = max(tracer.maxima.get("ingest.rss_per_record_b", 0.0), per_record)
        return dataset, report

    def on_labels(counts, args, kwargs, result):
        dataset, report = result
        counts["ingest.read_labels_calls"] += 1
        counts["ingest.rows_read"] += report.rows_read
        counts["ingest.rows_accepted"] += report.rows_accepted
        counts["ingest.rows_rejected"] += report.rows_rejected
        counts["ingest.records_unique"] += len(dataset)

    ingest.read_labels = wrap("ingest.read_labels", functools.wraps(read_labels)(read_labels_rss), on_labels)
    LabelDataset.to_jsonl = wrap("ingest.to_jsonl", LabelDataset.to_jsonl)
    LabelDataset.for_country = wrap("ingest.for_country", LabelDataset.for_country, _count("ingest.for_country_calls"))

    def on_employment(counts, args, kwargs, result):
        counts["ingest.employment_rows"] += len(result.rows)

    ingest.load_employment = wrap("ingest.load_employment", ingest.load_employment, on_employment)

    def on_summaries(counts, args, kwargs, result):
        counts["aggregate.countries"] += len(result)

    aggregate.summarize_all = wrap("aggregate.summarize_all", aggregate.summarize_all, on_summaries)
    for name in ("modal_pathway_states", "benchmark_deviation", "group_summary"):
        setattr(aggregate, name, wrap(f"aggregate.{name}", getattr(aggregate, name)))

    def on_candidates(counts, args, kwargs, result):
        counts["linkage.candidates"] += len(result)

    def on_prune(counts, args, kwargs, result):
        counts["linkage.votes"] += result.n_candidates * kwargs.get("votes_per_edge", 3)
        counts["linkage.pruned_candidates"] += result.n_candidates
        counts["linkage.retained"] += result.n_retained

    linkage.build_candidates = wrap("linkage.build_candidates", linkage.build_candidates, on_candidates)
    linkage.prune_edges = wrap("linkage.prune_edges", linkage.prune_edges, on_prune)
    linkage.soc_summary = wrap("linkage.soc_summary", linkage.soc_summary, _count("linkage.soc_summary_calls"))
    linkage.isco_summary = wrap("linkage.isco_summary", linkage.isco_summary)
    linkage.industry_summary = wrap(
        "linkage.industry_summary", linkage.industry_summary, _count("linkage.industry_summary_calls")
    )

    def on_coverage(counts, args, kwargs, result):
        counts["reweight.countries_in_table"] += len({row.iso3 for row in args[0].rows})
        counts["reweight.countries_kept"] += len(result.totals)

    def on_gap_error(counts, exc):
        if isinstance(exc, reweight.ReweightError):
            counts["reweight.gender_gap_skipped"] += 1

    def on_panel(counts, args, kwargs, result):
        counts["reweight.panel_rows"] += len(result)

    reweight.coverage_filter = wrap("reweight.coverage_filter", reweight.coverage_filter, on_coverage)
    reweight.employment_weighted_exposure = wrap(
        "reweight.employment_weighted_exposure", reweight.employment_weighted_exposure
    )
    reweight.gender_gap = wrap("reweight.gender_gap", reweight.gender_gap, on_error=on_gap_error)
    reweight.gender_fe_panel = wrap("reweight.gender_fe_panel", reweight.gender_fe_panel, on_panel)

    def on_screen(counts, args, kwargs, result):
        counts["validate.records_screened"] += result.n_records
        counts["validate.flags"] += len(result.flags)

    def on_divergence(counts, args, kwargs, result):
        counts["validate.pairs"] += len(args[0])
        counts["validate.pairs_scored"] += len(result.pairs)

    validate.agreement_suite = wrap("validate.agreement_suite", validate.agreement_suite)
    validate.paraphrase_stability = wrap("validate.paraphrase_stability", validate.paraphrase_stability)
    validate.consistency_screen = wrap("validate.consistency_screen", validate.consistency_screen, on_screen)
    validate.rationale_divergence = wrap("validate.rationale_divergence", validate.rationale_divergence, on_divergence)
    validate.distribution_check = wrap("validate.distribution_check", validate.distribution_check)

    # stats: the CLI imported these names into its own namespace; mean_abs_shap
    # looks up fit_forest in the forest module and tree_shap in its own module
    def on_forest(counts, args, kwargs, result):
        counts["stats.tree_nodes"] += sum(len(tree.feature) for tree in result.trees)

    fit_forest = wrap("stats.fit_forest", forest_mod.fit_forest, on_forest)
    cli.fit_forest = forest_mod.fit_forest = fit_forest
    treeshap_mod.tree_shap = wrap("stats.tree_shap", treeshap_mod.tree_shap, _count("stats.tree_shap_calls"))
    forest_mod.Forest.predict = wrap("stats.predict", forest_mod.Forest.predict, _count("stats.predict_calls"))
    cli.permutation_importance = wrap("stats.permutation_importance", cli.permutation_importance)
    cli.ale_1d = wrap("stats.ale_1d", cli.ale_1d)

    def on_fe(counts, args, kwargs, result):
        counts["stats.fe_sweeps"] += result.sweeps
        counts["stats.fe_rows"] += result.n

    def on_shapley(counts, args, kwargs, result):
        counts["stats.subsets_fit"] += 2 ** len(result.contributions)
        counts["stats.rank_deficient_subsets"] += result.rank_deficient_subsets

    def on_loess(counts, args, kwargs, result):
        counts["stats.loess_calls"] += 1
        counts["stats.loess_fallback_points"] += len(result.fallback_points)

    cli.fe_regression = wrap("stats.fe_regression", cli.fe_regression, on_fe)
    cli.shapley_r2 = wrap("stats.shapley_r2", cli.shapley_r2, on_shapley)
    cli.loess = wrap("stats.loess", cli.loess, on_loess)
    cli.bootstrap_band = wrap("stats.bootstrap_band", cli.bootstrap_band)
    for name in ("pearson", "spearman", "partial_correlation", "leave_one_out"):
        setattr(cli, name, wrap("stats.corr", getattr(cli, name)))
    cli.variance_decomposition = wrap("stats.variance_decomposition", cli.variance_decomposition)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
