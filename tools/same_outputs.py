"""Check that two checkouts of taskatlas write the same bytes.

    python3 tools/same_outputs.py BASE HEAD [--seed 1 ...] [--workload audit ...]

BASE and HEAD are two checkouts of this repository. The inputs of the
benchmark workloads come from ``bench/gen.py`` (``GENERATORS``) and their
stages from ``bench/run.py`` (``WORKLOADS``) of the checkout this script lives
in, imported rather than copied. The ``fixtures`` workload is defined here: the
README's full run over that checkout's ``tests/fixtures`` plus every
``validate`` and ``stats`` command, each stage with ``--config config.json``,
a config that holds the ``--seed`` of the run; ``link candidates`` and
``validate divergence`` also run under ``--embedder hash:8`` and under
``--embedder replay:<dir>``, over embedding fixtures that this script writes
from the fixture texts with ``hashlib`` alone, and ``validate divergence``
also runs under ``--embedder hash:8`` and ``--no-cosine`` over a pairs table
of non-ASCII texts that this script writes with ``csv`` alone. ``link prune``
also runs under ``--voter replay:<dir>``, over vote fixtures that this script
writes with ``hashlib`` alone (``write_votes``), and ``link apply`` also runs
under ``--bridge-variant modal``, under ``--top-pockets 2`` (fewer than the
fixtures' three ISCO groups) and with ``--weights`` alone (no bridge, no
graph). ``summarize`` and ``report`` also run without ``--registry``, and
``validate distribution`` also runs without grouping and ``--group-by
region``. ``stats forest``, ``shap`` and ``ale`` also
run at 120 trees (``shap`` over 3 seeds) with non-default ``--mtry``,
``--min-leaf`` and ``--max-depth`` where the command takes them. ``reweight``
also runs over an employment table longer than one read chunk of the loader
(``write_long_employment``). ``validate agreement`` and ``validate
paraphrase`` also run over a label file that shares only part of its keys
with the fixture labels, and ``summarize --benchmark`` over that file with a
benchmark whose task ids partly differ (``write_partial_run``), so every
cross-run join also meets keys that one side lacks. The ``fixtures`` workload also holds refusal
stages (``refusal_stages``), each over a malformed input that this script
writes with ``csv`` or as plain text, each of which must exit 2; among them
``summarize`` over a registry with one income group (``--transitions``), and
over a benchmark that lacks a group's labels or shares no task with the
dataset (``--benchmark``), so stderr pins each message and the order in
which the errors are found. Every stage of
every workload runs as ``python -m taskatlas.cli`` against BASE's sources,
then against HEAD's, on the same inputs and at the same output path. The script exits 1
when ``diff -r`` finds any difference between the two output trees, the two
stdout logs or the two stderr logs, and 2 when a stage's exit code differs
between the sides or from the code it must exit with (0, or 2 for a refusal
stage). A difference is reported as every differing file with its number of
differing lines, then the last 4,000 characters of ``diff -r``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from gen import GENERATORS  # noqa: E402
from run import WORKLOADS  # noqa: E402

ALL_WORKLOADS = sorted([*WORKLOADS, "fixtures"])

#: a custom lexicon for ``validate screen --lexicon``, with phrases that the
#: fixture rationales hold under some rules and not under others
LEXICON = {
    "r1_level3_denies": ["keep this work manual"],
    "r2_level0_describes": ["keep this work manual", "standard software"],
    "r3_augment_replaces": ["covers much of this task"],
    "r4_substitute_assistive": ["in Cascadia"],
    "r5_notai_invokes_ai": ["standard software"],
}


#: a ``validate divergence`` pairs table for the token path of non-ASCII texts:
#: letters that lower unlike ASCII (dotted capital I, the Kelvin sign, sharp s),
#: another script and an emoji, beside ASCII texts, a text of stopwords only
#: (a skipped pair), blank countries and a country of regex metacharacters
NON_ASCII_PAIRS = [
    ("text_a", "text_b", "country_a", "country_b"),
    ("\u0130stanbul port clerks sort cargo manifests", "Cargo manifests in \u0130STANBUL are sorted by software",
     "T\u00fcrkiye", "\u0130stanbul"),
    ("\u212aelvin-scale sensors log kiln temperatures", "Kiln logs are kept in kelvin by hand", "", "Kelvin"),
    ("Stra\u00dfe crews repair road signs", "STRASSE crews: road signs repaired", "Deutschland", "Stra\u00dfe"),
    ("\u65e5\u672c\u8a9e documents are translated by staff", "Staff translate \u65e5\u672c\u8a9e letters",
     "\u65e5\u672c", "Japan"),
    ("\U0001f916 robots weld seams \U0001f916", "Welders weld seams by hand", "", ""),
    ("the of and", "a pair with stopwords only on one side", "Kenya", ""),
    ("Clerks file claims (a.k.a. forms) in C++ shops", "Claims are filed in C++ (a.k.a. [x]) ^$ shops",
     "C++ (a.k.a. [x]) ^$", "C++ (a.k.a. [x]) ^$"),
    ("Plain ASCII rationale about ledgers in Kenya", "Ledgers reconciled by plain ASCII software", "Kenya", "kenya"),
]


def write_embeddings(directory: Path, tables: list, columns: tuple) -> None:
    """A replay embedding fixture in ``directory`` for each text in ``columns``
    of the CSV ``tables``: ``<sha256 of the text>.json`` holding 8 numbers made
    from that digest's first 8 bytes, none of them 0."""
    directory.mkdir()
    for table in tables:
        with open(table, encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                for text in (row[column] for column in columns if column in row):
                    digest = hashlib.sha256(text.encode("utf-8"))
                    vector = [(byte - 127.5) / 128 for byte in digest.digest()[:8]]
                    (directory / f"{digest.hexdigest()}.json").write_text(json.dumps(vector), encoding="utf-8")


def write_votes(directory: Path, tasks: Path, activities: Path, ballots: int = 3) -> None:
    """A replay vote fixture in ``directory`` for each ballot of each (task,
    activity) pair of the CSV tables ``tasks`` and ``activities``:
    ``<sha256 of task text, 0x1f, activity text, 0x1f, ballot>.json`` holding
    ``true`` where that digest's first byte is below 205 (about 80%)."""
    directory.mkdir()
    texts = []
    for table in (tasks, activities):
        with open(table, encoding="utf-8", newline="") as handle:
            texts.append([row["text"] for row in csv.DictReader(handle)])
    for task in texts[0]:
        for activity in texts[1]:
            for ballot in range(ballots):
                digest = hashlib.sha256("\x1f".join((task, activity, str(ballot))).encode("utf-8"))
                valid = digest.digest()[0] < 205
                (directory / f"{digest.hexdigest()}.json").write_text(json.dumps(valid), encoding="utf-8")


#: copies of the fixture employment rows, each with its years shifted 4 earlier than the copy before, so no key repeats
EMPLOYMENT_COPIES = 51


def write_long_employment(fixture: Path, path: Path) -> None:
    """The fixture employment table at ``path`` ``EMPLOYMENT_COPIES`` times
    over (8,262 data rows, more than the loader reads in one chunk), written
    with ``csv``: a BOM, CRLF line ends, a ``#`` line before the header and
    every 1,000 rows, and a blank line every 700 rows."""
    with open(fixture, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    year = header.index("year")
    with open(path, "w", encoding="utf-8-sig", newline="") as handle:
        handle.write("# fixture employment rows, years shifted\r\n")
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        for i, row in enumerate(
            (*row[:year], str(int(row[year]) - 4 * copy), *row[year + 1:])
            for copy in range(EMPLOYMENT_COPIES) for row in rows
        ):
            if i and i % 1000 == 0:
                handle.write(f"# row {i}\r\n")
            if i and i % 700 == 0:
                handle.write("\r\n")
            writer.writerow(row)


def label_rows(path: Path) -> list[dict]:
    """The rows of the JSONL label file ``path``, blank and ``#`` lines skipped."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip() and not line.startswith("#")]


def write_label_rows(path: Path, rows: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(row) + "\n" for row in rows)


def write_partial_run(labels: Path, run: Path, benchmark: Path) -> None:
    """Two label files that share only part of their keys with the fixture
    labels, written with ``json``: ``run`` drops country BBB and every task
    whose number is 3 mod 4, raises the level of every task whose number is 0
    mod 5 by one (4 wraps to 0), and adds country DDD (a copy of AAA's rows)
    and tasks u0000-u0004 for AAA and DDD (copies of t0000-t0004);
    ``benchmark`` is the fixture labels with the task ids of the income-group
    rows whose number is 0 mod 3 renamed from t to b."""
    rows = label_rows(labels)
    kept = []
    for row in rows:
        number = int(row["task_id"][1:])
        if row["country"] != "BBB" and number % 4 != 3:
            kept.append({**row, "exposure_level": (row["exposure_level"] + (number % 5 == 0)) % 4})
    kept += [{**row, "country": "DDD"} for row in kept if row["country"] == "AAA"]
    kept += [{**row, "task_id": "u" + row["task_id"][1:]} for row in kept
             if row["country"] in ("AAA", "DDD") and int(row["task_id"][1:]) < 5]
    write_label_rows(run, kept)
    write_label_rows(benchmark, [
        {**row, "task_id": "b" + row["task_id"][1:]}
        if row["country"].startswith("income:") and int(row["task_id"][1:]) % 3 == 0 else row for row in rows
    ])

def rewritten(source: Path, path: Path, row: int, edit) -> Path:
    """The CSV table ``source`` written to ``path`` with ``csv``, its row
    ``row`` (0 is the header) replaced by ``edit`` of that row."""
    with open(source, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row] = edit(rows[row])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


def fe_panel(path: Path, x: str, y: str) -> Path:
    """A 3-country x 3-cell panel of numbers, but with ``x`` in the regressor
    cell and ``y`` in the outcome cell of data row 2."""
    rows = [("iso3", "cell_id", "x", "y")]
    rows += [(f"C{i}", f"k{j}", str((7 * i + 3 * j) % 5), str(2 * i + j)) for i in range(3) for j in range(3)]
    rows[2] = (*rows[2][:2], x, y)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


def refusal_stages(f: dict, inputs: Path, out: Path, seed: int) -> list:
    """Stages that must exit 2, each over one malformed input written into
    ``inputs``, as ``(name, arguments)`` pairs."""
    table = f["stats_table.csv"]
    too_wide = rewritten(table, inputs / "refuse_too_wide.csv", 3, lambda row: [*row, "1.0"])
    repeated = rewritten(table, inputs / "refuse_repeated_key.csv", 2, lambda row: ["u00", *row[1:]])
    no_text = rewritten(f["tasks.csv"], inputs / "refuse_no_text.csv", 0, lambda row: [row[0], "words"])
    bad_key = inputs / "refuse_config.json"
    bad_key.write_text(json.dumps({"seed": seed, "top_k": 3}) + "\n", encoding="utf-8")
    lexicon = inputs / "refuse_lexicon.json"
    lexicon.write_text('{"r1_level3_denies": ["keep this work manual"],\n', encoding="utf-8")
    candidate = '{"task_id":"t0000","isic4":"0111","similarity":%s}\n'
    not_json = inputs / "refuse_candidates_not_json.jsonl"
    not_json.write_text('{"meta":{}}\n' + candidate % "0.5" + '{"task_id":"t0001",\n', encoding="utf-8")
    nan = inputs / "refuse_candidates_nan.jsonl"
    nan.write_text('{"meta":{}}\n' + candidate % "0.5" + candidate.replace("t0000", "t0001") % "NaN", encoding="utf-8")
    vote = inputs / "refuse_graph_vote.jsonl"
    vote.write_text('{"meta":{}}\n{"task_id":"t0000","isic4":"0111","similarity":0.5,"votes":[true,1,true]}\n',
                    encoding="utf-8")
    cell_values = inputs / "refuse_cell_values.csv"
    lines = f["cell_values.csv"].read_bytes().split(b"\n")
    cell_values.write_bytes(b"\n".join([*lines[:5], lines[5] + b"\xff\xfe", *lines[6:]]))
    one_group = inputs / "refuse_registry_one_group.csv"
    for row in (1, 2, 3):
        rewritten(one_group if row > 1 else f["registry.csv"], one_group, row, lambda r: [*r[:2], "low", *r[3:]])
    labels = f["labels.jsonl"].read_text(encoding="utf-8")
    no_high = inputs / "refuse_benchmark_no_high.jsonl"
    no_high.write_text("".join(line for line in labels.splitlines(True) if '"country":"income:high"' not in line),
                       encoding="utf-8")
    no_overlap = inputs / "refuse_benchmark_no_overlap.jsonl"
    no_overlap.write_text(labels.replace('"task_id":"t0', '"task_id":"b0'), encoding="utf-8")
    summarize = ["summarize", "--dataset", out / "dataset.jsonl", "--out", out / "refused_summary"]
    corr = ["stats", "corr", "--key-column", "unit", "--x", "x", "--y", "y"]
    prune = ["link", "prune", "--tasks", f["tasks.csv"], "--activities", f["activities.csv"]]
    fe = ["stats", "fe", "--y", "y", "--x", "x", "--row-fe", "iso3", "--col-fe", "cell_id"]
    return [
        ("refuse_too_wide_row", [*corr, "--table", too_wide, "--out", out / "refused_corr.json"]),
        ("refuse_repeated_key", [*corr, "--table", repeated, "--out", out / "refused_corr.json"]),
        ("refuse_fe_non_numeric", [*fe, "--table", fe_panel(inputs / "refuse_fe_text.csv", "n/a", "4"),
                                   "--out", out / "refused_fe.json"]),
        ("refuse_fe_non_finite", [*fe, "--table", fe_panel(inputs / "refuse_fe_inf.csv", "2", "inf"),
                                  "--out", out / "refused_fe.json"]),
        ("refuse_missing_column", ["link", "candidates", "--tasks", no_text, "--activities", f["activities.csv"],
                                   "--out", out / "refused_candidates.jsonl"]),
        ("refuse_config_key", [*corr, "--table", table, "--out", out / "refused_corr.json", "--config", bad_key]),
        ("refuse_lexicon_not_json", ["validate", "screen", "--dataset", out / "dataset.jsonl", "--lexicon", lexicon,
                                     "--out", out / "refused_screen"]),
        ("refuse_cell_values_not_utf8", ["reweight", "--employment", f["employment.csv"], "--cell-values",
                                         cell_values, "--out", out / "refused_reweight"]),
        *((name, [*prune, "--candidates", path, "--out", out / "refused_graph.jsonl"])
          for name, path in (("refuse_candidates_not_json", not_json), ("refuse_candidate_nan", nan))),
        ("refuse_graph_vote_not_bool", ["link", "apply", "--dataset", out / "dataset.jsonl", "--graph", vote,
                                        "--out", out / "refused_link"]),
        ("refuse_transitions_one_group", [*summarize, "--registry", one_group, "--transitions"]),
        *((name, [*summarize, "--registry", f["registry.csv"], "--benchmark", benchmark])
          for name, benchmark in (("refuse_benchmark_missing_group", no_high),
                                  ("refuse_benchmark_no_overlap", no_overlap))),
    ]


def fixture_stages(inputs: Path, out: Path, seed: int) -> list:
    """The shipped fixtures copied into ``inputs`` with a config.json setting
    ``seed`` and a lexicon, and the stages that read them, as
    ``(name, arguments, exit code)`` triples: the refusal stages last."""
    for path in (ROOT / "tests" / "fixtures").iterdir():
        if path.suffix != ".py":
            shutil.copy(path, inputs / path.name)
    (inputs / "config.json").write_text(json.dumps({"seed": seed}) + "\n", encoding="utf-8")
    (inputs / "lexicon.json").write_text(json.dumps(LEXICON) + "\n", encoding="utf-8")
    with open(inputs / "pairs_non_ascii.csv", "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(NON_ASCII_PAIRS)
    write_long_employment(inputs / "employment.csv", inputs / "employment_long.csv")
    write_partial_run(inputs / "labels.jsonl", inputs / "labels_partial.jsonl", inputs / "benchmark_partial.jsonl")
    f = {path.name: path for path in inputs.iterdir()}
    embeddings = inputs / "embeddings"
    write_embeddings(embeddings, [f["tasks.csv"], f["activities.csv"], f["pairs.csv"]], ("text", "text_a", "text_b"))
    votes = inputs / "votes"
    write_votes(votes, f["tasks.csv"], f["activities.csv"])
    dataset, table = out / "dataset.jsonl", f["stats_table.csv"]
    candidates = ["link", "candidates", "--tasks", f["tasks.csv"], "--activities", f["activities.csv"], "--top-k", "3",
                  "--floor", "-1.0"]
    corr = ["stats", "corr", "--table", table, "--key-column", "unit", "--x", "x", "--y", "y"]
    stages = [
        ("ingest", ["ingest", "--labels", f["labels.jsonl"], "--out", out]),
        ("summarize", ["summarize", "--dataset", dataset, "--registry", f["registry.csv"], "--benchmark",
                       f["labels.jsonl"], "--transitions", "--out", out / "summary"]),
        ("summarize_no_registry", ["summarize", "--dataset", dataset, "--out", out / "summary_no_registry"]),
        ("link_candidates", [*candidates, "--embedder", "hash", "--out", out / "candidates.jsonl"]),
        ("link_candidates_hash8", [*candidates, "--embedder", "hash:8", "--out", out / "candidates_hash8.jsonl"]),
        ("link_candidates_replay", [*candidates, "--embedder", f"replay:{embeddings}",
                                    "--out", out / "candidates_replay.jsonl"]),
        ("link_prune", ["link", "prune", "--candidates", out / "candidates.jsonl", "--tasks", f["tasks.csv"],
                        "--activities", f["activities.csv"], "--voter", "hash:0.8", "--votes", "3",
                        "--out", out / "graph.jsonl"]),
        ("link_prune_replay", ["link", "prune", "--candidates", out / "candidates.jsonl", "--tasks", f["tasks.csv"],
                               "--activities", f["activities.csv"], "--voter", f"replay:{votes}",
                               "--out", out / "graph_replay.jsonl"]),
        ("link_apply", ["link", "apply", "--dataset", dataset, "--graph", out / "graph.jsonl", "--weights",
                        f["task_weights.csv"], "--bridge", f["bridge.csv"], "--out", out / "link"]),
        ("link_apply_modal", ["link", "apply", "--dataset", dataset, "--weights", f["task_weights.csv"], "--bridge",
                              f["bridge.csv"], "--bridge-variant", "modal", "--out", out / "link_modal"]),
        ("link_apply_top_pockets", ["link", "apply", "--dataset", dataset, "--weights", f["task_weights.csv"],
                                    "--bridge", f["bridge.csv"], "--top-pockets", "2",
                                    "--out", out / "link_top_pockets"]),
        ("link_apply_weights_only", ["link", "apply", "--dataset", dataset, "--weights", f["task_weights.csv"],
                                     "--out", out / "link_weights_only"]),
        ("reweight", ["reweight", "--employment", f["employment.csv"], "--cell-values", f["cell_values.csv"],
                      "--out", out / "reweight"]),
        ("reweight_long_employment", ["reweight", "--employment", f["employment_long.csv"], "--cell-values",
                                      f["cell_values.csv"], "--out", out / "reweight_long_employment"]),
        ("validate_distribution", ["validate", "distribution", "--dataset", dataset, "--registry", f["registry.csv"],
                                   "--group-by", "income_group", "--out", out / "distribution.json"]),
        ("validate_distribution_overall", ["validate", "distribution", "--dataset", dataset,
                                           "--out", out / "distribution_overall.json"]),
        ("validate_distribution_region", ["validate", "distribution", "--dataset", dataset, "--registry",
                                          f["registry.csv"], "--group-by", "region",
                                          "--out", out / "distribution_region.json"]),
        ("validate_agreement", ["validate", "agreement", "--run-a", dataset, "--run-b", f["labels.jsonl"],
                                "--out", out / "agreement.json"]),
        ("validate_paraphrase", ["validate", "paraphrase", "--original", dataset, "--variant", f["labels.jsonl"],
                                 "--variant", dataset, "--out", out / "paraphrase.json"]),
        ("validate_agreement_partial", ["validate", "agreement", "--run-a", dataset, "--run-b",
                                        f["labels_partial.jsonl"], "--out", out / "agreement_partial.json"]),
        ("validate_paraphrase_partial", ["validate", "paraphrase", "--original", f["labels_partial.jsonl"],
                                         "--variant", dataset, "--variant", f["labels.jsonl"],
                                         "--out", out / "paraphrase_partial.json"]),
        ("summarize_partial_benchmark", ["summarize", "--dataset", f["labels_partial.jsonl"], "--registry",
                                         f["registry.csv"], "--benchmark", f["benchmark_partial.jsonl"],
                                         "--transitions", "--out", out / "summary_partial"]),
        ("validate_screen", ["validate", "screen", "--dataset", dataset, "--out", out / "screen"]),
        ("validate_screen_lexicon", ["validate", "screen", "--dataset", dataset, "--lexicon", f["lexicon.json"],
                                     "--out", out / "screen_lexicon"]),
        ("validate_divergence", ["validate", "divergence", "--pairs", f["pairs.csv"], "--embedder", "hash",
                                 "--out", out / "divergence.json"]),
        ("validate_divergence_hash8", ["validate", "divergence", "--pairs", f["pairs.csv"], "--embedder", "hash:8",
                                       "--out", out / "divergence_hash8.json"]),
        ("validate_divergence_replay", ["validate", "divergence", "--pairs", f["pairs.csv"],
                                        "--embedder", f"replay:{embeddings}", "--out", out / "divergence_replay.json"]),
        ("validate_divergence_no_cosine", ["validate", "divergence", "--pairs", f["pairs.csv"], "--no-cosine",
                                           "--out", out / "divergence_no_cosine.json"]),
        ("validate_divergence_non_ascii_hash8", ["validate", "divergence", "--pairs", f["pairs_non_ascii.csv"],
                                                 "--embedder", "hash:8", "--out", out / "divergence_non_ascii_hash8.json"]),
        ("validate_divergence_non_ascii_no_cosine", ["validate", "divergence", "--pairs", f["pairs_non_ascii.csv"],
                                                     "--no-cosine", "--out", out / "divergence_non_ascii_no_cosine.json"]),
        ("stats_corr", [*corr, "--loo", "--out", out / "corr.json"]),
        ("stats_corr_spearman", [*corr, "--method", "spearman", "--out", out / "spearman.json"]),
        ("stats_corr_partial", [*corr, "--controls", "z", "--out", out / "partial.json"]),
        ("stats_loess", ["stats", "loess", "--table", table, "--x", "x", "--y", "y", "--resamples", "25",
                         "--out", out / "loess.json"]),
        ("stats_vardecomp", ["stats", "vardecomp", "--matrix", f["matrix.csv"], "--out", out / "vardecomp.json"]),
        ("stats_fe", ["stats", "fe", "--table", out / "reweight" / "fe_panel.csv", "--y", "y_pp", "--x",
                      "x_substitute", "--row-fe", "iso3", "--col-fe", "cell_id", "--out", out / "fe.json"]),
        ("stats_forest", ["stats", "forest", "--table", table, "--y", "y", "--features", "x,z,w", "--trees", "20",
                          "--out", out / "forest.json"]),
        ("stats_shap", ["stats", "shap", "--table", table, "--y", "y", "--features", "x,z,w", "--trees", "15",
                        "--seeds", "0,1", "--out", out / "shap.json"]),
        ("stats_ale", ["stats", "ale", "--table", table, "--y", "y", "--features", "x,z,w", "--feature", "x",
                       "--trees", "15", "--out", out / "ale.json"]),
        # wider lockstep batches than the benchmark's, under every forest option
        ("stats_forest_wide", ["stats", "forest", "--table", table, "--y", "y", "--features", "x,z,w", "--trees",
                               "120", "--mtry", "2", "--min-leaf", "3", "--max-depth", "6",
                               "--out", out / "forest_wide.json"]),
        ("stats_shap_wide", ["stats", "shap", "--table", table, "--y", "y", "--features", "x,z,w", "--trees", "120",
                             "--seeds", "0,1,2", "--mtry", "2", "--min-leaf", "1", "--max-depth", "5",
                             "--out", out / "shap_wide.json"]),
        ("stats_ale_wide", ["stats", "ale", "--table", table, "--y", "y", "--features", "x,z,w", "--feature", "z",
                            "--trees", "120", "--min-leaf", "3", "--out", out / "ale_wide.json"]),
        ("stats_dominance", ["stats", "dominance", "--table", table, "--y", "y", "--features", "x,z,w",
                             "--out", out / "dominance.json"]),
        ("report", ["report", "--dataset", dataset, "--registry", f["registry.csv"], "--out", out / "report.json"]),
        ("report_no_registry", ["report", "--dataset", dataset, "--out", out / "report_no_registry.json"]),
    ]
    config = ["--config", f["config.json"]]
    return [
        *((name, [*args, *config], 0) for name, args in stages),
        *((name, args if "--config" in args else [*args, *config], 2)
          for name, args in refusal_stages(f, inputs, out, seed)),
    ]


def run_side(checkout: Path, stages: list, out: Path, keep: Path) -> list[int]:
    """Run every ``(name, arguments, exit code)`` stage against ``checkout``'s
    sources, then move the output tree to ``keep/out``; the stages' stdout and
    stderr go to ``keep/stdout`` and ``keep/stderr``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (keep / "stdout").mkdir(parents=True)
    (keep / "stderr").mkdir(parents=True)
    codes = []
    for name, args, expected in stages:
        done = subprocess.run([sys.executable, "-m", "taskatlas.cli", *map(str, args)], env=env, cwd=out.parent,
                              capture_output=True)
        (keep / "stdout" / f"{name}.txt").write_bytes(done.stdout)
        (keep / "stderr" / f"{name}.txt").write_bytes(done.stderr)
        codes.append(done.returncode)
        if done.returncode != expected:
            sys.stderr.write(f"{checkout}: {name} exited {done.returncode}, not {expected}\n"
                             f"{done.stderr.decode(errors='replace')}")
    shutil.move(str(out), str(keep / "out"))
    return codes


def differing_files(diff: str, base: Path, head: Path) -> list[str]:
    """One line per file that ``diff -r base head`` reports: its path under
    ``base`` and how many lines ``diff`` marks ``<`` or ``>`` in it, or
    ``diff``'s own line for a file on one side only or a binary file."""
    files: list[list] = []
    for line in diff.splitlines():
        if line.startswith("diff -r "):
            pair = line[len(f"diff -r {base}/"):]  # "<name> <head>/<name>"
            files.append([pair[: (len(pair) - len(f" {head}/")) // 2], 0])
        elif line.startswith(("<", ">")):
            files[-1][1] += 1
        elif line.startswith(("Only in ", "Binary files ")):
            files.append([line, None])
    return [name if count is None else f"{name}: {count} differing lines" for name, count in files]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seed", type=int, action="append", help="input seed (repeatable; default 1)")
    parser.add_argument("--workload", action="append", choices=ALL_WORKLOADS, help="default: all")
    args = parser.parse_args()

    status = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for seed in args.seed or [1]:
            for workload in args.workload or ALL_WORKLOADS:
                work = Path(tmp) / f"{workload}-{seed}"
                inputs = work / "inputs"
                inputs.mkdir(parents=True)
                out = work / "out"
                if workload == "fixtures":
                    stages = fixture_stages(inputs, out, seed)
                else:
                    truth = GENERATORS[workload](inputs, seed)
                    stages = [(name, stage_args, 0) for name, stage_args, *_ in
                              WORKLOADS[workload](truth["files"], out, truth)]
                codes = {side: run_side(path.resolve(), stages, out, work / side)
                         for side, path in (("base", args.base), ("head", args.head))}
                expected = [code for _, _, code in stages]
                if codes["base"] != codes["head"] or codes["base"] != expected:
                    print(f"{workload} seed {seed}: exit codes differ: {dict(codes, expected=expected)}")
                    status = 2
                diff = subprocess.run(["diff", "-r", str(work / "base"), str(work / "head")], capture_output=True,
                                      text=True)
                if diff.returncode != 0:
                    files = differing_files(diff.stdout, work / "base", work / "head")
                    print(f"{workload} seed {seed}: outputs differ in {len(files)} files")
                    print("".join(f"  {line}\n" for line in files) + f"{diff.stdout[-4000:]}{diff.stderr}")
                    status = status or 1
                else:
                    print(f"{workload} seed {seed}: {len(stages)} stages, outputs, stdout and stderr identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
