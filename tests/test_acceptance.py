"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Quantitative targets that require the released replication data run only when
ATLAS_REPLICATION_DIR points at a directory with the documented files:

    labels.jsonl                       full country-task label set
    runs/cross_model_a.jsonl           main labelling run (shared task keys)
    runs/cross_model_b.jsonl           independent-model run
    runs/paraphrase_original.jsonl     original-prompt labels for the sample
    runs/paraphrase_v{1,2,3}.jsonl     three paraphrase runs
    votes.jsonl                        {"task_id","isic4","votes":[bool,...]} per candidate
    country_scores.csv                 iso3,ai_material_share,aipi,log_gdp_pc
    occupation_matrix.csv              row key iso3, one numeric column per occupation
    gender_panel_occupation.csv        iso3,cell_id,y_pp,x_substitute
    gender_panel_industry.csv          iso3,cell_id,y_pp,x_substitute

Without that directory the documented property fallbacks run instead; both
paths live here so the gate is the same module either way.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_dataset, random_records
from oracles import (
    brute_force_shap, deduplicate, dummy_fe_oracle, factorial_shapley_r2, margin_known_exposed_share, predict_one,
    row_views, shap_total, summary_by_country, tally_votes,
)
from test_cli import run_pipeline, tree_bytes
from taskatlas.ingest import load_country_registry, read_labels
from taskatlas.stats import (
    ForestParams,
    fe_regression,
    fit_forest,
    leave_one_out,
    partial_correlation,
    pearson,
    shapley_r2,
    tree_shap,
    variance_decomposition,
)
from taskatlas.validate import agreement_suite, distribution_check, paraphrase_stability

REPLICATION_DIR = os.environ.get("ATLAS_REPLICATION_DIR")
REPLICATION = Path(REPLICATION_DIR) if REPLICATION_DIR and Path(REPLICATION_DIR).is_dir() else None
needs_replication = pytest.mark.skipif(
    REPLICATION is None, reason="ATLAS_REPLICATION_DIR not set; property fallback covers this criterion"
)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return decorate


def load_replication_labels(name: str):
    dataset, report = read_labels(str(REPLICATION / name))
    assert report.rows_rejected == 0, f"{name}: {report.rows_rejected} rejected rows"
    return dataset


# --- C1 schema diagnostics -----------------------------------------------------


@criterion("C1 schema diagnostics (oracle fallback)")
def test_c01_distribution_matches_counting_oracle_exactly():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        records = random_records(rng, 1000, unclear_rate=0.2)
        dataset = deduplicate(records)
        tables = distribution_check(dataset).groups["overall"]
        kept = row_views(dataset.for_country("AAA"))
        n = len(kept)
        from collections import Counter

        level_counts = Counter(r.exposure for r in kept)
        for level, share in tables["exposure_level"].items():
            assert share == level_counts[int(level)] / n  # exact, no tolerance
        margin_counts = Counter(r.margin.value for r in kept)
        for margin, share in tables["margin"].items():
            assert share == margin_counts[margin] / n
        channel_counts = Counter(r.channel.value for r in kept)
        for channel, share in tables["dominant_channel"].items():
            assert share == channel_counts[channel] / n
        assert abs(math.fsum(tables["exposure_level"].values()) - 1.0) < 1e-12


@needs_replication
@criterion("C1 schema diagnostics (replication)")
def test_c01_replication_level_shares():
    dataset = load_replication_labels("labels.jsonl")
    tables = distribution_check(dataset).groups["overall"]
    levels = tables["exposure_level"]
    assert levels["0"] == pytest.approx(0.338, abs=0.001)
    assert levels["1"] == pytest.approx(0.248, abs=0.001)
    assert levels["2"] == pytest.approx(0.341, abs=0.001)
    assert levels["3"] == pytest.approx(0.073, abs=0.001)
    exposed = levels["2"] + levels["3"]
    assert exposed == pytest.approx(0.414, abs=0.001)
    assert tables["margin_raw"]["unclear"] == pytest.approx(0.584, abs=0.001)


# --- C2 country extremes ----------------------------------------------------------


@criterion("C2 denominator identities (property fallback)")
def test_c02_denominator_identities_on_fifty_fixtures():
    margins = ("substitute", "augment", "both")
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        dataset = random_dataset(rng, {"AAA": int(rng.integers(20, 80))}, unclear_rate=0.0)
        summary = summary_by_country(dataset)["AAA"]
        if summary["margin_within_both"] is None:
            continue
        for margin in margins:
            literal = summary["exposed_share"] * summary[f"margin_within_{margin}"]
            assert abs(summary[f"margin_all_{margin}"] - literal) < 1e-9
        # generalized identity under unclear-margin mass
        mixed = random_dataset(rng, {"BBB": 60}, unclear_rate=0.3)
        mixed_summary = summary_by_country(mixed)["BBB"]
        if mixed_summary["margin_within_both"] is None:
            continue
        for margin in margins:
            general = margin_known_exposed_share(mixed_summary) * mixed_summary[f"margin_within_{margin}"]
            assert abs(mixed_summary[f"margin_all_{margin}"] - general) < 1e-9


@needs_replication
@criterion("C2 country extremes (replication)")
def test_c02_replication_country_extremes():
    summaries = summary_by_country(load_replication_labels("labels.jsonl"))
    assert summaries["SSD"]["exposed_share"] == pytest.approx(0.033, abs=0.0005)
    assert summaries["CHN"]["exposed_share"] == pytest.approx(0.616, abs=0.0005)


# --- C3 polarisation identity ------------------------------------------------------


@criterion("C3 polarisation identity")
def test_c03_polarisation_identity_everywhere():
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        dataset = random_dataset(
            rng, {c: int(rng.integers(30, 90)) for c in ("AAA", "BBB", "CCC")}, unclear_rate=0.25
        )
        for summary in summary_by_country(dataset).values():
            if summary["n_margin_known_exposed"] == 0:
                assert summary["polarisation_p"] is None
                continue
            assert abs(summary["polarisation_p"] + summary["margin_within_both"] - 1.0) < 1e-12


@needs_replication
@criterion("C3 polarisation income-group means (replication)")
def test_c03_replication_group_means():
    dataset = load_replication_labels("labels.jsonl")
    registry = load_country_registry(str(REPLICATION / "registry.csv"))
    by_group: dict[str, list[float]] = {}
    for iso3, summary in summary_by_country(dataset).items():
        if iso3 not in registry or summary["n_margin_known_exposed"] == 0:
            continue
        by_group.setdefault(registry[iso3].income_group.value, []).append(summary["polarisation_p"])
    low = math.fsum(by_group["low"]) / len(by_group["low"])
    lower_middle = math.fsum(by_group["lower_middle"]) / len(by_group["lower_middle"])
    assert low == pytest.approx(0.50, abs=0.02)
    assert lower_middle == pytest.approx(0.43, abs=0.02)


# --- C4 agreement metrics ------------------------------------------------------------


@criterion("C4 self-agreement is exactly one")
def test_c04_self_agreement_on_twenty_datasets():
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        dataset = random_dataset(rng, {"AAA": int(rng.integers(20, 120))}, unclear_rate=0.2)
        report = agreement_suite(dataset, dataset)
        assert report.exact_level == 1.0
        assert report.within_one_level == 1.0
        assert report.binary_exposed == 1.0
        assert all(v == 1.0 for v in report.per_field.values() if v is not None)


@needs_replication
@criterion("C4 cross-model agreement (replication)")
def test_c04_replication_cross_model():
    run_a = load_replication_labels("runs/cross_model_a.jsonl")
    run_b = load_replication_labels("runs/cross_model_b.jsonl")
    report = agreement_suite(run_a, run_b)
    assert report.within_one_level == pytest.approx(0.950, abs=0.002)
    assert report.binary_exposed == pytest.approx(0.751, abs=0.002)
    assert report.exact_level == pytest.approx(0.481, abs=0.002)


# --- C5 paraphrase stability -----------------------------------------------------------


@criterion("C5 paraphrase stability (property fallback)")
def test_c05_identical_variants_joint_share_one():
    for seed in range(5):
        rng = np.random.default_rng(4000 + seed)
        original = random_dataset(rng, {"AAA": 60})
        report = paraphrase_stability(original, [original, original, original])
        assert report.joint_within_one == 1.0


@needs_replication
@criterion("C5 paraphrase stability (replication)")
def test_c05_replication_paraphrases():
    original = load_replication_labels("runs/paraphrase_original.jsonl")
    variants = [load_replication_labels(f"runs/paraphrase_v{i}.jsonl") for i in (1, 2, 3)]
    report = paraphrase_stability(original, variants)
    assert report.joint_within_one == pytest.approx(0.998, abs=0.002)
    binaries = [r.binary_exposed for r in report.per_variant]
    for got, want in zip(binaries, (0.887, 0.870, 0.843)):
        assert got == pytest.approx(want, abs=0.003)


# --- C6 FE regression oracle -------------------------------------------------------------


@criterion("C6 fixed-effects equals dummy-variable oracle")
def test_c06_fe_matches_dummy_oracle():
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(5000 + seed)
        n_rows, n_cols = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        rows, cols, y, x = [], [], [], []
        for r in range(n_rows):
            for c in range(n_cols):
                if rng.random() < 0.15:
                    continue
                rows.append(f"r{r}")
                cols.append(f"c{c}")
                xv = float(rng.normal())
                x.append(xv)
                y.append(0.4 * xv + 0.8 * r - 0.5 * c + float(rng.normal()))
        if len(y) > 50 or len(set(rows)) < 2 or len(set(cols)) < 2:
            continue
        if len(y) < len(set(rows)) + len(set(cols)) + 3:  # saturated design, no residual dof
            continue
        result = fe_regression(y, x, rows, cols, rows)
        beta, se, k = dummy_fe_oracle(y, x, rows, cols, rows)
        assert abs(result.beta - beta) < 1e-8
        assert abs(result.se - se) < 1e-8
        assert result.k_effective == k
        checked += 1
    assert checked >= 20


@needs_replication
@criterion("C6 gender-panel coefficients (replication)")
def test_c06_replication_gender_panels():
    import csv

    for name, want_beta, want_se in (
        ("gender_panel_occupation.csv", -0.351, 0.119),
        ("gender_panel_industry.csv", -0.219, 0.041),
    ):
        with open(REPLICATION / name, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        result = fe_regression(
            [float(r["y_pp"]) for r in rows],
            [float(r["x_substitute"]) for r in rows],
            [r["iso3"] for r in rows],
            [r["cell_id"] for r in rows],
            [r["iso3"] for r in rows],
        )
        assert result.beta == pytest.approx(want_beta, abs=0.005)
        assert result.se == pytest.approx(want_se, abs=0.01)
    occupation_rows = sum(1 for _ in open(REPLICATION / "gender_panel_occupation.csv")) - 1
    assert occupation_rows == 3084


# --- C7 TreeSHAP exactness ------------------------------------------------------------------


@criterion("C7 TreeSHAP equals subset enumeration; local accuracy holds")
def test_c07_treeshap_exactness_and_runtime():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for trial in range(100):
        p = int(rng.integers(2, 5))  # <= 4 features
        n = int(rng.integers(20, 45))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + 0.5 * rng.normal(size=n)
        forest = fit_forest(X, y, ForestParams(n_trees=3, min_leaf=2, max_depth=3), seed=trial)
        probe = X[int(rng.integers(0, n))]
        expected = brute_force_shap(forest, probe)
        got = tree_shap(forest, probe)
        assert np.max(np.abs(got.values - expected)) < 1e-9
        for row in X:  # local accuracy for every row of every fitted forest
            result = tree_shap(forest, row)
            assert abs(shap_total(result) - predict_one(forest, row)) < 1e-9
    # a deeper, wider forest exercises local accuracy beyond the oracle regime
    X = rng.normal(size=(60, 6))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(size=60)
    forest = fit_forest(X, y, ForestParams(n_trees=15, min_leaf=2), seed=123)
    for row in X:
        assert abs(shap_total(tree_shap(forest, row)) - predict_one(forest, row)) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion runtime {elapsed:.1f}s exceeds the one-minute budget"


# --- C8 dominance analysis -------------------------------------------------------------------


@criterion("C8 dominance analysis exactness")
def test_c08_dominance_properties():
    rng = np.random.default_rng(88)
    for p in (2, 3, 4):
        X = rng.normal(size=(30, p))
        y = X @ rng.normal(size=p) + rng.normal(size=30)
        result = shapley_r2(X, y)
        assert abs(result.contributions.sum() - result.full_r2) < 1e-9
        assert np.max(np.abs(result.contributions - factorial_shapley_r2(X, y))) < 1e-9
    # duplicated predictors split their contribution equally
    x = rng.normal(size=40)
    X = np.column_stack([x, x, rng.normal(size=40)])
    y = 1.5 * x + rng.normal(size=40)
    result = shapley_r2(X, y)
    assert abs(result.contributions[0] - result.contributions[1]) < 1e-9
    assert abs(result.contributions.sum() - result.full_r2) < 1e-9


# --- C9 variance decomposition ------------------------------------------------------------------


@criterion("C9 variance decomposition shares sum to one")
def test_c09_variance_shares_sum():
    rng = np.random.default_rng(99)
    for _ in range(25):
        matrix = rng.normal(size=(int(rng.integers(2, 12)), int(rng.integers(2, 12))))
        shares = variance_decomposition(matrix)
        total = shares.row_share + shares.col_share + shares.interaction_share
        assert abs(total - 1.0) < 1e-9
        assert min(shares.row_share, shares.col_share, shares.interaction_share) >= 0.0


@needs_replication
@criterion("C9 country x occupation decomposition (replication)")
def test_c09_replication_matrix():
    import csv

    with open(REPLICATION / "occupation_matrix.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    columns = [c for c in rows[0] if c != "iso3"]
    matrix = np.asarray(
        [[float(r[c]) if r[c] != "" else np.nan for c in columns] for r in rows]
    )
    shares = variance_decomposition(matrix)
    assert shares.col_share == pytest.approx(0.488, abs=0.005)  # occupations
    assert shares.row_share == pytest.approx(0.439, abs=0.005)  # countries
    assert shares.interaction_share == pytest.approx(0.073, abs=0.005)


# --- C10 linkage arithmetic -----------------------------------------------------------------------


@criterion("C10 majority retention matches exhaustive enumeration")
def test_c10_vote_majority_enumeration():
    rng = np.random.default_rng(1010)
    log = []
    for i in range(1000):
        votes = [bool(rng.random() < 0.75) for _ in range(3)]
        log.append((f"task{i:04d}", f"{int(rng.integers(100, 9999)):04d}-{i}", votes))
    result = tally_votes(log)
    expected_retained = sum(1 for _, _, votes in log if sum(votes) >= 2)
    expected_agreement = math.fsum(max(sum(v), 3 - sum(v)) / 3 for _, _, v in log) / len(log)
    assert result.n_retained == expected_retained
    assert result.n_candidates == 1000
    assert result.mean_agreement == pytest.approx(expected_agreement, abs=1e-12)
    # the full 2^3 ballot space, by hand
    for votes in itertools.product([True, False], repeat=3):
        single = tally_votes([("t", "0001", list(votes))])
        assert (single.n_retained == 1) == (sum(votes) >= 2)


@needs_replication
@criterion("C10 vote-log retention counts (replication)")
def test_c10_replication_vote_log():
    import json

    log = []
    with open(REPLICATION / "votes.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                obj = json.loads(line)
                log.append((obj["task_id"], obj["isic4"], obj["votes"]))
    result = tally_votes(log)
    assert result.n_candidates == 18968
    assert result.n_retained == 12294
    assert result.mean_agreement == pytest.approx(0.966, abs=0.001)


# --- C11 correlation suite -------------------------------------------------------------------------


@criterion("C11 partial-correlation properties (fallback)")
def test_c11_correlation_properties():
    rng = np.random.default_rng(1111)
    n = 60
    x = rng.normal(size=n)
    y = 0.7 * x + rng.normal(size=n)
    # control orthogonalized against [1, x, y]: removing it must not move Pearson
    basis = np.column_stack([np.ones(n), x, y])
    z = rng.normal(size=n)
    z -= basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
    xs = {f"u{i}": float(v) for i, v in enumerate(x)}
    ys = {f"u{i}": float(v) for i, v in enumerate(y)}
    zs = {f"u{i}": float(v) for i, v in enumerate(z)}
    plain = pearson(xs, ys).value
    partial = partial_correlation(xs, ys, [zs]).value
    assert abs(partial - plain) < 1e-9
    # perfect absorption: y an exact affine function of the control
    absorbed = {key: 2.0 * v + 1.0 for key, v in zs.items()}
    assert abs(partial_correlation(xs, absorbed, [zs]).value) < 1e-9


@needs_replication
@criterion("C11 readiness-index correlations (replication)")
def test_c11_replication_country_scores():
    import csv

    with open(REPLICATION / "country_scores.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    ai = {r["iso3"]: float(r["ai_material_share"]) for r in rows}
    aipi = {r["iso3"]: float(r["aipi"]) for r in rows}
    gdp = {r["iso3"]: float(r["log_gdp_pc"]) for r in rows}
    partial = partial_correlation(ai, aipi, [gdp])
    assert partial.value == pytest.approx(0.417, abs=0.01)
    stability = leave_one_out(ai, aipi)
    assert stability.min >= 0.895 and stability.max <= 0.907


# --- C12 determinism ---------------------------------------------------------------------------------


@criterion("C12 pipeline byte-identical across runs")
def test_c12_pipeline_determinism(tmp_path):
    runs = {}
    for name in ("first", "second", "third"):
        out = tmp_path / name
        run_pipeline(out)
        runs[name] = tree_bytes(out)
    assert runs["first"] == runs["second"]
    assert runs["first"] == runs["third"]
