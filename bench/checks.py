"""Output checks against the generator's ground truth.

Each check takes the stage's output directory and the workload's truth dict
and raises ``CheckError`` on the first mismatch. JSON outputs are parsed with
NaN and infinities rejected; CSV numbers must be finite.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


class CheckError(Exception):
    pass


def _reject_constant(token: str):
    raise CheckError(f"non-finite JSON number {token}")


def load_json(path: Path):
    """The ``data`` block of a CLI JSON output, with NaN and infinities rejected."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)["data"]


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    for row in rows:
        for key, value in row.items():
            if value not in ("", None) and value.lower() in ("nan", "inf", "-inf", "infinity", "-infinity"):
                raise CheckError(f"{path.name}: non-finite {key}={value}")
    return rows


def data_lines(path: Path) -> list[str]:
    """Lines of a JSONL output that are neither blank nor header comments."""
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip() and not line.startswith("#")]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def equal(what: str, got, want) -> None:
    expect(got == want, f"{what}: got {got!r}, want {want!r}")


def _exposed(level: int) -> bool:
    return level >= 2


# --- atlas -------------------------------------------------------------------------


def check_ingest(out: Path, t: dict) -> None:
    report = load_json(out / "parse_report.json")
    equal("rows_read", report["rows_read"], t["n_rows"])
    equal("rows_rejected", report["rows_rejected"], t["n_invalid"])
    equal("rejected lines", len({v["line"] for v in report["violations"]}), t["n_invalid"])
    unique = len(data_lines(out / "dataset.jsonl"))
    equal("unique records", unique, t["n_unique"])
    equal("duplicate rows", report["rows_accepted"] - unique, t["n_duplicates"])


def check_summarize(out: Path, t: dict) -> None:
    tags = t["tags"]
    rows = read_csv(out / "summary" / "country_summary.csv")
    equal("summarized countries", sorted(r["iso3"] for r in rows), sorted(tags))
    for row in rows:
        levels = list(tags[row["iso3"]]["exposures"].values())
        n_exposed = sum(1 for level in levels if _exposed(level))
        equal(f"{row['iso3']} n_tasks", int(row["n_tasks"]), len(levels))
        equal(f"{row['iso3']} n_exposed", int(row["n_exposed"]), n_exposed)
        equal(f"{row['iso3']} exposed_share", float(row["exposed_share"]), n_exposed / len(levels))

    groups = read_csv(out / "summary" / "group_summary_income_group.csv")
    want = {}
    for iso3 in t["countries"]:
        want[tags[iso3]["group"]] = want.get(tags[iso3]["group"], 0) + 1
    equal("income-group sizes", {g["group"]: int(g["n_countries"]) for g in groups}, want)

    deviations = read_csv(out / "summary" / "benchmark_deviation.csv")
    equal("deviation rows", len(deviations), len(t["countries"]))
    for row in deviations:
        own = tags[row["iso3"]]["exposures"]
        bench = tags["income:" + tags[row["iso3"]]["group"]]["exposures"]
        diffs = [level - bench[task] for task, level in own.items()]
        equal(f"{row['iso3']} n_shared_tasks", int(row["n_shared_tasks"]), len(diffs))
        equal(f"{row['iso3']} mean_deviation", float(row["mean_deviation"]), math.fsum(diffs) / len(diffs))

    transitions = read_csv(out / "summary" / "transitions.csv")
    equal("transition rows", len(transitions), 3 * 16)
    for src in {(r["from_group"], r["source_state"]) for r in transitions}:
        cells = [r for r in transitions if (r["from_group"], r["source_state"]) == src]
        shares = math.fsum(float(r["share"]) for r in cells)
        total = sum(int(r["count"]) for r in cells)
        expect(abs(shares - (1.0 if total else 0.0)) <= 1e-12, f"transition row {src} shares sum to {shares}")


def check_link_candidates(out: Path, t: dict) -> None:
    lines = data_lines(out / "candidates.jsonl")
    equal("candidate edges", len(lines) - 1, t["n_activities"] * min(t["top_k"], t["n_tasks"]))
    for line in lines[1:]:
        sim = json.loads(line, parse_constant=_reject_constant)["similarity"]
        expect(-1.0 - 1e-9 <= sim <= 1.0 + 1e-9, f"similarity {sim} outside [-1, 1]")


def check_link_prune(out: Path, t: dict) -> None:
    lines = data_lines(out / "graph.jsonl")
    meta = json.loads(lines[0])["meta"]
    equal("pruned candidates", meta["n_candidates"], t["n_activities"] * min(t["top_k"], t["n_tasks"]))
    equal("retained edges", meta["n_retained"], len(lines) - 1)
    for line in lines[1:]:
        votes = json.loads(line)["votes"]
        equal("ballots per edge", len(votes), 3)
        expect(sum(votes) * 2 > len(votes), f"edge without a vote majority retained: {line}")


def check_link_apply(out: Path, t: dict) -> None:
    countries, socs = t["countries"], t["socs"]
    occupation = read_csv(out / "link" / "occupation_summary.csv")
    equal("occupation rows", len(occupation), len(countries) * len(socs))
    for row in occupation:
        want = t["dropped_weight"][(row["iso3"], row["soc"])]
        got = float(row["dropped_weight"])
        expect(abs(got - want) <= 1e-12, f"{row['iso3']}/{row['soc']} dropped_weight {got} != {want}")
    isco = read_csv(out / "link" / "isco_summary.csv")
    equal("isco rows", len(isco), len(countries) * len(t["iscos_reached"]))
    pockets = read_csv(out / "link" / "pockets_occupation.csv")
    equal("pocket rows", len(pockets), 2 * min(10, len(t["iscos_reached"])))
    divisions = {json.loads(line)["isic4"][:2] for line in data_lines(out / "graph.jsonl")[1:]}
    industry = read_csv(out / "link" / "industry_summary.csv")
    equal("industry rows", len(industry), len(countries) * len(divisions))
    expect(all(int(r["n_tasks"]) > 0 for r in industry), "industry cell without tasks")


def check_report(out: Path, t: dict) -> None:
    report = load_json(out / "report.json")
    levels = [level for tag in t["tags"].values() for level in tag["exposures"].values()]
    n = len(levels)
    equal("report n_records", report["n_records"], n)
    equal("report n_countries", report["n_countries"], len(t["tags"]))
    equal("report exposed_share", report["exposed_share"], sum(1 for v in levels if _exposed(v)) / n)
    want = {str(k): levels.count(k) / n for k in sorted(set(levels))}
    equal("report exposure distribution", report["distribution"]["exposure_level"], want)


# --- audit -------------------------------------------------------------------------


def _check_agreement(what: str, got: dict, want: dict) -> None:
    for key in ("n", "exact_level", "within_one_level", "binary_exposed", "confusion"):
        equal(f"{what} {key}", got[key], want[key])


def check_agreement(out: Path, t: dict) -> None:
    _check_agreement("agreement", load_json(out / "agreement.json"), t["agreement"])


def check_paraphrase(out: Path, t: dict) -> None:
    report = load_json(out / "paraphrase.json")
    equal("paraphrase n", report["n"], t["n_records"])
    equal("joint_within_one", report["joint_within_one"], t["variant_within_one"])
    equal("pairwise_within_one", report["pairwise_within_one"][0][1], t["variant_within_one"])
    for i, want in enumerate(t["variants"]):
        _check_agreement(f"variant {i + 1}", report["per_variant"][i], want)


def check_screen(out: Path, t: dict) -> None:
    stats = load_json(out / "screen" / "screen_stats.json")
    truth = t["screen"]
    equal("screened records", stats["n_records"], t["n_records"])
    equal("flagged records", stats["n_flagged_records"], truth["flagged_records"])
    for rule, counts in stats["per_rule"].items():
        equal(f"{rule} eligible", counts["eligible"], truth["eligible"][rule])
        equal(f"{rule} flagged", counts["flagged"], truth["flagged"][rule])
    flags = read_csv(out / "screen" / "screen_flags.csv")
    equal("flag rows", len(flags), sum(truth["flagged"].values()))


def check_divergence(out: Path, t: dict) -> None:
    report = load_json(out / "divergence.json")
    truth = t["pairs"]
    equal("skipped pairs", report["n_skipped"], truth["skipped"])
    equal("scored pairs", report["n_pairs"], truth["n"] - truth["skipped"])
    for i, (pair, jac, mention) in enumerate(zip(report["pairs"], truth["jaccard"], truth["mentions"])):
        equal(f"pair {i} jaccard", pair["jaccard"], jac)
        equal(f"pair {i} mentions", (pair["mentions_a"], pair["mentions_b"]), mention)
        expect(-1.0 - 1e-9 <= pair["cosine"] <= 1.0 + 1e-9, f"pair {i} cosine {pair['cosine']} outside [-1, 1]")
    shares = math.fsum(report["quadrant_shares"].values())
    expect(abs(shares - 1.0) <= 1e-12, f"quadrant shares sum to {shares}")


def check_distribution(out: Path, t: dict) -> None:
    tables = load_json(out / "distribution.json")
    equal("group sizes", tables["group_sizes"], t["group_sizes"])
    for group, shares in t["group_level_shares"].items():
        equal(f"{group} exposure shares", tables["groups"][group]["exposure_level"], shares)


# --- attribution -------------------------------------------------------------------


def check_reweight(out: Path, t: dict) -> None:
    equal("adjustment rows", len(read_csv(out / "reweight" / "adjustments.csv")), t["kept"])
    equal("gender gap rows", len(read_csv(out / "reweight" / "gender_gaps.csv")), 4 * t["gap_countries"])
    equal("panel rows", len(read_csv(out / "reweight" / "fe_panel.csv")), t["panel_rows"])
    read_csv(out / "reweight" / "weights.csv")


def check_fe(out: Path, t: dict) -> None:
    fe = load_json(out / "fe.json")
    equal("fe n", fe["n"], t["panel_rows"])
    equal("fe clusters", fe["n_clusters"], t["kept"])
    expect(fe["se"] > 0, f"fe se {fe['se']} not positive")
    gap = abs(fe["beta"] - t["fe_slope"])
    expect(gap <= 4 * fe["se"], f"fe beta {fe['beta']} misses planted slope {t['fe_slope']} by {gap / fe['se']:.1f} SE")


def check_corr(out: Path, t: dict) -> None:
    corr = load_json(out / "corr.json")
    equal("corr n", corr["n"], t["table_rows"])
    loo = corr["leave_one_out"]
    expect(0.0 < corr["value"] <= 1.0, f"corr {corr['value']} not positive for the planted slope")
    expect(loo["min"] <= corr["value"] <= loo["max"], f"corr {corr['value']} outside its leave-one-out range")


def check_loess(out: Path, t: dict) -> None:
    fit = load_json(out / "loess.json")
    equal("loess grid", len(fit["grid"]), t["table_rows"])
    expect(all(lo <= hi for lo, hi in zip(fit["lower"], fit["upper"])), "loess band lower above upper")


def check_vardecomp(out: Path, t: dict) -> None:
    shares = load_json(out / "vardecomp.json")
    equal("matrix shape", (shares["n_rows"], shares["n_cols"]), tuple(t["matrix_shape"]))
    equal("matrix complete", shares["complete"], True)
    total = shares["row_share"] + shares["col_share"] + shares["interaction_share"]
    expect(abs(total - 1.0) <= 1e-9, f"variance shares sum to {total}")


def check_forest(out: Path, t: dict) -> None:
    forest = load_json(out / "forest.json")
    equal("forest n", forest["n"], t["table_rows"])
    importance = forest["permutation_importance"]
    equal("top permutation importance", max(importance, key=importance.get), t["top_feature"])


def check_shap(out: Path, t: dict) -> None:
    equal("top attribution", load_json(out / "shap.json")["ranking"][0], t["top_feature"])


def check_ale(out: Path, t: dict) -> None:
    equal("ALE direction of the planted slope", load_json(out / "ale.json")["direction"], 1)


def check_dominance(name: str):
    def check(out: Path, t: dict) -> None:
        result = load_json(out / f"{name}.json")
        total = math.fsum(result["contributions"].values())
        expect(abs(total - result["full_r2"]) <= 1e-9, f"{name}: contributions sum {total} != full_r2 {result['full_r2']}")
        equal(f"{name} rank-deficient subsets", result["rank_deficient_subsets"], 0)

    return check
