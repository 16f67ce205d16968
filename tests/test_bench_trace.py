"""The traced benchmark launcher still finds the library functions it patches."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from taskatlas.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def traced(tmp_path: Path, name: str, *args) -> tuple[set[str], dict]:
    """The span names and the counts of one CLI command run through ``bench/trace_launcher.py``."""
    spans = tmp_path / f"{name}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_launcher.py"), str(spans), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    return {span[0] for span in doc["spans"]}, doc["counts"]


def test_traced_link_apply_counts_soc_summary_calls(tmp_path):
    _, counts = traced(
        tmp_path, "apply",
        "link", "apply", "--dataset", FIXTURES / "labels.jsonl",
        "--weights", FIXTURES / "task_weights.csv", "--bridge", FIXTURES / "bridge.csv", "--out", tmp_path / "link",
    )
    assert counts["linkage.soc_summary_calls"] > 0
    assert (tmp_path / "link" / "pockets_occupation.csv").exists()


def test_traced_label_path_counts(tmp_path):
    """ingest, summarize and link apply --graph reach the patched label-path functions."""
    _, ingested = traced(tmp_path, "ingest", "ingest", "--labels", FIXTURES / "labels.jsonl", "--out", tmp_path)
    assert ingested["ingest.read_labels_calls"] == 1
    assert ingested["ingest.rows_read"] > 0

    names, summarized = traced(
        tmp_path, "summarize",
        "summarize", "--dataset", tmp_path / "dataset.jsonl", "--registry", FIXTURES / "registry.csv",
        "--transitions", "--out", tmp_path / "summary",
    )
    assert summarized["ingest.read_labels_calls"] == 1
    assert summarized["ingest.for_country_calls"] > 0
    assert summarized["aggregate.countries"] > 0
    assert "aggregate.modal_pathway_states" in names

    fx = {name: str(FIXTURES / f"{name}.csv") for name in ("tasks", "activities")}
    assert main(["link", "candidates", "--tasks", fx["tasks"], "--activities", fx["activities"],
                 "--top-k", "3", "--floor", "-1.0", "--out", str(tmp_path / "candidates.jsonl")]) == 0
    assert main(["link", "prune", "--candidates", str(tmp_path / "candidates.jsonl"), "--tasks", fx["tasks"],
                 "--activities", fx["activities"], "--voter", "hash:0.8", "--out", str(tmp_path / "graph.jsonl")]) == 0
    _, applied = traced(
        tmp_path, "apply",
        "link", "apply", "--dataset", tmp_path / "dataset.jsonl", "--graph", tmp_path / "graph.jsonl",
        "--out", tmp_path / "link",
    )
    assert applied["ingest.for_country_calls"] > 0
    assert applied["linkage.industry_summary_calls"] > 0


def test_traced_reweight_spans(tmp_path):
    """reweight's tables reach the patched weighting, gap and panel functions."""
    names, counts = traced(
        tmp_path, "reweight",
        "reweight", "--employment", FIXTURES / "employment.csv", "--cell-values", FIXTURES / "cell_values.csv",
        "--out", tmp_path / "reweight",
    )
    assert {"reweight.employment_weighted_exposure", "reweight.gender_gap", "reweight.gender_fe_panel"} <= names
    assert counts["reweight.panel_rows"] > 0


def test_traced_validate_spans(tmp_path):
    """validate agreement, paraphrase and divergence reach the patched validate functions."""
    labels = FIXTURES / "labels.jsonl"
    names, _ = traced(
        tmp_path, "agreement",
        "validate", "agreement", "--run-a", labels, "--run-b", labels, "--out", tmp_path / "agreement.json",
    )
    assert "validate.agreement_suite" in names
    names, _ = traced(
        tmp_path, "paraphrase",
        "validate", "paraphrase", "--original", labels, "--variant", labels, "--variant", labels,
        "--out", tmp_path / "paraphrase.json",
    )
    assert "validate.paraphrase_stability" in names
    pairs = FIXTURES / "pairs.csv"
    names, counts = traced(
        tmp_path, "divergence",
        "validate", "divergence", "--pairs", pairs, "--embedder", "hash", "--out", tmp_path / "divergence.json",
    )
    assert "validate.rationale_divergence" in names
    with open(pairs, encoding="utf-8", newline="") as handle:
        assert counts["validate.pairs"] == len(list(csv.DictReader(handle)))


def test_traced_stats_spans(tmp_path):
    """Every stats command reaches the stats names the launcher patches on ``cli``
    (and in the forest and TreeSHAP modules), although the CLI imports each stats
    module only when a command first calls it."""
    table = FIXTURES / "stats_table.csv"
    assert main(["reweight", "--employment", str(FIXTURES / "employment.csv"),
                 "--cell-values", str(FIXTURES / "cell_values.csv"), "--out", str(tmp_path / "reweight")]) == 0
    forest = ["--table", table, "--y", "y", "--features", "x,z,w", "--trees", "4"]
    commands = {
        "corr": ["corr", "--table", table, "--key-column", "unit", "--x", "x", "--y", "y", "--loo"],
        "loess": ["loess", "--table", table, "--x", "x", "--y", "y", "--resamples", "5"],
        "vardecomp": ["vardecomp", "--matrix", FIXTURES / "matrix.csv"],
        "fe": ["fe", "--table", tmp_path / "reweight" / "fe_panel.csv", "--y", "y_pp", "--x", "x_substitute",
               "--row-fe", "iso3", "--col-fe", "cell_id"],
        "forest": ["forest", *forest, "--repeats", "1"],
        "shap": ["shap", *forest, "--seeds", "0"],
        "ale": ["ale", *forest, "--feature", "x"],
        "dominance": ["dominance", "--table", table, "--y", "y", "--features", "x,z,w"],
    }
    names: set[str] = set()
    counts: dict = {}
    for command, args in commands.items():
        spans, stage_counts = traced(tmp_path, command, "stats", *args, "--out", tmp_path / f"{command}.json")
        names |= spans
        for name, value in stage_counts.items():
            counts[name] = counts.get(name, 0) + value
    assert {
        "stats.corr", "stats.loess", "stats.bootstrap_band", "stats.variance_decomposition", "stats.fe_regression",
        "stats.fit_forest", "stats.predict", "stats.permutation_importance", "stats.tree_shap", "stats.ale_1d",
        "stats.shapley_r2",
    } <= names
    for name in ("stats.tree_shap_calls", "stats.predict_calls", "stats.fe_rows", "stats.subsets_fit",
                 "stats.loess_calls"):
        assert counts[name] > 0, name
