"""taskatlas benchmark: drive the real CLI, stage by stage, on seeded inputs.

    python3 bench/run.py --workload atlas --seed 1 --seconds 32 --trace 0

Each stage runs in a fresh ``python -m taskatlas.cli`` process with ``src`` on
the path, one after another: a closed loop with one client. The run generates
its inputs from ``--seed`` (not timed), then repeats the workload's stage
sequence ("a pass") at least twice, and again while a typical pass still ends
within ``--seconds``. Before every stage it times a fresh ``--version`` start
(set-up time) and a fixed piece of its own work (the reference). Every stage's
outputs are checked against the generator's ground truth. The reported figures
are means over the passes, except set-up time, the median of its samples.
The last stdout line is the JSON result; the line before it records the
environment, the input sizes and the per-pass figures.

With ``--trace 1`` the run makes one untraced and one traced pass instead.
The traced pass starts each stage through ``trace_launcher.py``, and the
result holds the per-layer metrics (self times, counts, ratios).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from gen import GENERATORS  # noqa: E402

RUN_LIMIT_S = 165.0  # every stage is killed past this point, so a run ends within 180 s
RUN_LIMIT_MARGIN_S = 20.0  # no pass starts unless a typical one ends this long before the limit
MIN_PASSES = 2

# --- workloads ---------------------------------------------------------------------
# A stage is (name, cli arguments, input files read, check). The name becomes
# the per-layer metric cli.stage.<name>_s.


def atlas_stages(f: dict, out: Path, t: dict) -> list:
    dataset = out / "dataset.jsonl"
    return [
        ("ingest", ["ingest", "--labels", f["labels"], "--out", out], [f["labels"]], checks.check_ingest),
        (
            "summarize",
            ["summarize", "--dataset", dataset, "--registry", f["registry"], "--benchmark", dataset,
             "--transitions", "--out", out / "summary"],
            [dataset, f["registry"], dataset],
            checks.check_summarize,
        ),
        (
            "link_candidates",
            ["link", "candidates", "--tasks", f["tasks"], "--activities", f["activities"], "--embedder", "hash",
             "--top-k", str(t["top_k"]), "--floor", "-1.0", "--out", out / "candidates.jsonl"],
            [f["tasks"], f["activities"]],
            checks.check_link_candidates,
        ),
        (
            "link_prune",
            ["link", "prune", "--candidates", out / "candidates.jsonl", "--tasks", f["tasks"],
             "--activities", f["activities"], "--voter", "hash", "--votes", "3", "--out", out / "graph.jsonl"],
            [out / "candidates.jsonl", f["tasks"], f["activities"]],
            checks.check_link_prune,
        ),
        (
            "link_apply",
            ["link", "apply", "--dataset", dataset, "--graph", out / "graph.jsonl", "--weights", f["weights"],
             "--bridge", f["bridge"], "--out", out / "link"],
            [dataset, out / "graph.jsonl", f["weights"], f["bridge"]],
            checks.check_link_apply,
        ),
        (
            "report",
            ["report", "--dataset", dataset, "--registry", f["registry"], "--out", out / "report.json"],
            [dataset, f["registry"]],
            checks.check_report,
        ),
    ]


def audit_stages(f: dict, out: Path, t: dict) -> list:
    return [
        (
            "validate_agreement",
            ["validate", "agreement", "--run-a", f["run_a"], "--run-b", f["run_b"], "--out", out / "agreement.json"],
            [f["run_a"], f["run_b"]],
            checks.check_agreement,
        ),
        (
            "validate_paraphrase",
            ["validate", "paraphrase", "--original", f["run_a"], "--variant", f["variant_1"],
             "--variant", f["variant_2"], "--out", out / "paraphrase.json"],
            [f["run_a"], f["variant_1"], f["variant_2"]],
            checks.check_paraphrase,
        ),
        (
            "validate_screen",
            ["validate", "screen", "--dataset", f["run_a"], "--out", out / "screen"],
            [f["run_a"]],
            checks.check_screen,
        ),
        (
            "validate_divergence",
            ["validate", "divergence", "--pairs", f["pairs"], "--embedder", "hash", "--out", out / "divergence.json"],
            [f["pairs"]],
            checks.check_divergence,
        ),
        (
            "validate_distribution",
            ["validate", "distribution", "--dataset", f["run_a"], "--registry", f["registry"],
             "--group-by", "income_group", "--out", out / "distribution.json"],
            [f["run_a"], f["registry"]],
            checks.check_distribution,
        ),
    ]


def attribution_stages(f: dict, out: Path, t: dict) -> list:
    table = f["countries"]
    p9 = ",".join(t["features"][:9])
    p14 = ",".join(t["features"][:14])
    panel = out / "reweight" / "fe_panel.csv"
    return [
        (
            "reweight",
            ["reweight", "--employment", f["employment"], "--cell-values", f["cell_values"], "--out", out / "reweight"],
            [f["employment"], f["cell_values"]],
            checks.check_reweight,
        ),
        (
            "stats_fe",
            ["stats", "fe", "--table", panel, "--y", "y_pp", "--x", "x_substitute", "--row-fe", "iso3",
             "--col-fe", "cell_id", "--out", out / "fe.json"],
            [panel],
            checks.check_fe,
        ),
        (
            "stats_corr",
            ["stats", "corr", "--table", table, "--x", "x01", "--y", "y", "--loo", "--out", out / "corr.json"],
            [table],
            checks.check_corr,
        ),
        (
            "stats_loess",
            ["stats", "loess", "--table", table, "--x", "x01", "--y", "y", "--resamples", "200",
             "--out", out / "loess.json"],
            [table],
            checks.check_loess,
        ),
        (
            "stats_vardecomp",
            ["stats", "vardecomp", "--matrix", f["matrix"], "--out", out / "vardecomp.json"],
            [f["matrix"]],
            checks.check_vardecomp,
        ),
        (
            "stats_forest",
            ["stats", "forest", "--table", table, "--y", "y", "--features", p14, "--trees", "40", "--repeats", "5",
             "--out", out / "forest.json"],
            [table],
            checks.check_forest,
        ),
        (
            "stats_shap",
            ["stats", "shap", "--table", table, "--y", "y", "--features", p9, "--trees", "16", "--seeds", "0",
             "--out", out / "shap.json"],
            [table],
            checks.check_shap,
        ),
        (
            "stats_ale",
            ["stats", "ale", "--table", table, "--y", "y", "--features", p9, "--feature", "x01", "--trees", "30",
             "--out", out / "ale.json"],
            [table],
            checks.check_ale,
        ),
        (
            "stats_dominance_p9",
            ["stats", "dominance", "--table", table, "--y", "y", "--features", p9, "--out", out / "dominance_p9.json"],
            [table],
            checks.check_dominance("dominance_p9"),
        ),
        (
            "stats_dominance_p14",
            ["stats", "dominance", "--table", table, "--y", "y", "--features", p14, "--out", out / "dominance_p14.json"],
            [table],
            checks.check_dominance("dominance_p14"),
        ),
    ]


WORKLOADS = {"atlas": atlas_stages, "audit": audit_stages, "attribution": attribution_stages}

# --- per-layer metrics ---------------------------------------------------------------

TIMED_SPANS = {
    "core": ["validate_record"],
    "ingest": ["read_labels", "to_jsonl", "for_country", "load_employment"],
    "aggregate": ["summarize_all", "modal_pathway_states", "benchmark_deviation", "group_summary"],
    "linkage": ["build_candidates", "prune_edges", "soc_summary", "isco_summary", "industry_summary"],
    "reweight": ["coverage_filter", "employment_weighted_exposure", "gender_gap", "gender_fe_panel"],
    "validate": ["agreement_suite", "paraphrase_stability", "consistency_screen", "rationale_divergence",
                 "distribution_check"],
    "stats": ["fit_forest", "tree_shap", "predict", "permutation_importance", "ale_1d", "fe_regression",
              "shapley_r2", "loess", "bootstrap_band", "corr", "variance_decomposition"],
}
COUNTS = [
    "core.records_validated", "ingest.read_labels_calls", "ingest.rows_read", "ingest.rows_rejected",
    "ingest.for_country_calls", "ingest.employment_rows", "aggregate.countries", "linkage.candidates",
    "linkage.votes", "linkage.soc_summary_calls", "linkage.industry_summary_calls", "reweight.gender_gap_skipped",
    "reweight.panel_rows", "validate.records_screened", "validate.flags", "validate.pairs", "stats.tree_nodes",
    "stats.tree_shap_calls", "stats.predict_calls", "stats.fe_sweeps", "stats.fe_rows", "stats.subsets_fit",
    "stats.rank_deficient_subsets", "stats.loess_calls", "stats.loess_fallback_points",
]
# ratio name -> (numerator count, denominator count)
RATIOS = {
    "ingest.accept_ratio": ("ingest.rows_accepted", "ingest.rows_read"),
    "ingest.unique_ratio": ("ingest.records_unique", "ingest.rows_accepted"),
    "linkage.retained_ratio": ("linkage.retained", "linkage.pruned_candidates"),
    "reweight.countries_kept_ratio": ("reweight.countries_kept", "reweight.countries_in_table"),
    "validate.pairs_scored_ratio": ("validate.pairs_scored", "validate.pairs"),
}
ALL_STAGES = [
    "ingest", "summarize", "link_candidates", "link_prune", "link_apply", "report",
    "validate_agreement", "validate_paraphrase", "validate_screen", "validate_divergence", "validate_distribution",
    "reweight", "stats_fe", "stats_corr", "stats_loess", "stats_vardecomp", "stats_forest", "stats_shap",
    "stats_ale", "stats_dominance_p9", "stats_dominance_p14",
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in TIMED_SPANS.items():
        for name in names:
            units[f"{layer}.{name}_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units["ingest.rss_per_record_b"] = "B/record"
    units.update({f"cli.stage.{stage}_s": "s" for stage in ALL_STAGES})
    units.update({"cli.self_s": "s", "cli.bytes_written": "B", "cli.traced_wall_s": "s", "cli.trace_overhead_s": "s"})
    return units


E2E_UNITS = {"wall_ref": "ref", "rows_per_ref": "rows/ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s",
             "ops_ok_ratio": "ratio"}

# --- machine speed -------------------------------------------------------------------
# A shared VM can change speed by up to a third for minutes at a time. Times are therefore reported in "ref" units: seconds
# divided by the median time this fixed, benchmark-owned work takes between
# the stages of the same pass. Raw seconds stay in the record line.

_REF_WORDS = "ledger invoice payroll welding freight routing cargo fabric".split()


def _reference_work() -> None:
    """A fixed CPU-bound mix like the stages': JSON round trips, regex, counting, sorting."""
    rows = [
        {"task_id": f"t{i:05d}", "level": i % 4, "text": " ".join(_REF_WORDS[(i + j) % 8] for j in range(5))}
        for i in range(3000)
    ]
    for _ in range(8):
        decoded = json.loads(json.dumps(rows))
        Counter(r["level"] for r in decoded)
        {w for r in decoded for w in re.findall(r"[a-z]+", r["text"])}
        decoded.sort(key=lambda r: (r["text"], r["task_id"]))


def reference_s() -> float:
    """Wall time of one run of the reference work in this process."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


# --- running stages ------------------------------------------------------------------


class Runner:
    """Starts stage processes, one at a time, and kills any that outlive the run limit."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def run(self, argv: list, log_name: str) -> tuple[int, float, float, float]:
        """(exit code, wall s, user+system CPU s, peak RSS KiB) of one process."""
        with open(self.work / f"{log_name}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=self.work)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, float(usage.ru_maxrss)


def count_rows(path: Path) -> int:
    """Data rows of an input file: lines that are not comments, JSONL meta lines or the CSV header."""
    with open(path, encoding="utf-8") as handle:
        n = sum(1 for line in handle if line.strip() and not line.startswith(("#", '{"meta"')))
    return n - 1 if path.suffix == ".csv" else n


class Workload:
    def __init__(self, name: str, seed: int, work: Path, runner: Runner):
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        self.truth = GENERATORS[name](inputs, seed)
        self.out = work / "out"
        self.stages = WORKLOADS[name](self.truth["files"], self.out, self.truth)
        self.runner = runner
        self.rows: dict[Path, int] = {}  # input file -> data rows, counted once
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self, count: int) -> list[float]:
        """Wall times of ``count`` fresh ``taskatlas --version`` processes."""
        walls = []
        for _ in range(count):
            code, wall, _, _ = self.runner.run([sys.executable, "-m", "taskatlas.cli", "--version"], "version")
            self.attempted += 1
            if code != 0:
                self.failures.append(f"--version exited {code}")
            walls.append(wall)
        return walls

    def pass_(self, index: int, traced_dir: Path | None = None) -> dict:
        """Run every stage once; returns per-stage figures and the pass totals."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        stages = {}
        refs = []  # reference times before every stage and after the last
        setup = []  # set-up samples, one before every stage
        for name, args, inputs, check in self.stages:
            refs.append(reference_s())
            setup += self.setup(1)
            if traced_dir is None:
                argv = [sys.executable, "-m", "taskatlas.cli", *args]
            else:
                argv = [sys.executable, str(BENCH / "trace_launcher.py"), traced_dir / f"{name}.json", *args]
            code, wall, cpu, rss = self.runner.run(argv, f"{index}-{name}")
            self.attempted += 1
            try:
                if code != 0:
                    log = (self.runner.work / f"{index}-{name}.log").read_text(errors="replace")
                    raise checks.CheckError(f"exit {code}: {log.strip()[-300:]}")
                check(self.out, self.truth)
            except (checks.CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.failures.append(f"pass {index} {name}: {type(exc).__name__}: {exc}")
            rows = 0
            for path in map(Path, inputs):
                if path not in self.rows:
                    self.rows[path] = count_rows(path) if path.exists() else 0
                rows += self.rows[path]
            stages[name] = {"wall_s": wall, "cpu_s": cpu, "rss_kb": rss, "rows": rows}
        refs.append(reference_s())
        return {
            "stages": stages,
            "ref_s": statistics.median(refs),
            "setup_s": setup,
            "wall_s": sum(s["wall_s"] for s in stages.values()),
            "cpu_s": sum(s["cpu_s"] for s in stages.values()),
            "peak_rss_kb": max(s["rss_kb"] for s in stages.values()),
            "rows": sum(s["rows"] for s in stages.values()),
        }


# --- per-layer aggregation -------------------------------------------------------------


def layer_metrics(traced_dir: Path, stage_names: list[str]) -> dict[str, float]:
    """Self time per span name, summed over calls, plus counts and ratios."""
    self_s: Counter = Counter()
    counts: Counter = Counter()
    rss_per_record = 0.0
    for name in stage_names:
        doc = json.loads((traced_dir / f"{name}.json").read_text())
        spans = doc["spans"]
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (span_name, start, end, _, hook_s), children in zip(spans, child_s):
            self_s[span_name] += end - start - children - hook_s
        counts.update(doc["counts"])
        rss_per_record = max(rss_per_record, doc["maxima"].get("ingest.rss_per_record_b", 0.0))
    metrics = {}
    for layer, names in TIMED_SPANS.items():
        for name in names:
            metrics[f"{layer}.{name}_s"] = self_s[f"{layer}.{name}"]
    for name in COUNTS:
        metrics[name] = counts[name]
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    metrics["ingest.rss_per_record_b"] = rss_per_record
    metrics["cli.self_s"] = self_s["cli.main"]
    return metrics


# --- environment -------------------------------------------------------------------------


def environment() -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            sha = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


# --- main ----------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "taskatlas" / "cli.py").is_file():
        print(f"no taskatlas sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started + RUN_LIMIT_S)
        workload = Workload(args.workload, args.seed, work, runner)

        # set-up: a fresh interpreter importing numpy, click and taskatlas; this
        # first, untimed, start warms the file cache and compiles bytecode. The
        # timed samples are taken before every stage, so that they spread over
        # the run like the machine's slow and fast spells do.
        workload.setup(1)

        passes = []
        metrics: dict[str, float] = {}
        if args.trace:
            traced_dir = work / "spans"
            traced_dir.mkdir()
            plain = workload.pass_(0)
            traced = workload.pass_(1, traced_dir)
            passes = [plain, traced]
            names = [name for name, *_ in workload.stages]
            metrics = {name: 0.0 for name in per_layer_units()}
            if not workload.failures:
                metrics.update(layer_metrics(traced_dir, names))
            for stage, figures in plain["stages"].items():
                metrics[f"cli.stage.{stage}_s"] = figures["wall_s"]
            metrics["cli.bytes_written"] = sum(p.stat().st_size for p in workload.out.rglob("*") if p.is_file())
            metrics["cli.traced_wall_s"] = traced["wall_s"]
            metrics["cli.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
            units = per_layer_units()
        else:
            # at least MIN_PASSES passes; past that, another pass starts only if
            # a typical pass still ends within --seconds of the first one's start
            measure_start = time.monotonic()
            while True:
                passes.append(workload.pass_(len(passes)))
                next_end = time.monotonic() + statistics.mean(p["wall_s"] for p in passes)
                if next_end + RUN_LIMIT_MARGIN_S > started + RUN_LIMIT_S:
                    break
                if len(passes) >= MIN_PASSES and next_end - measure_start > args.seconds:
                    break
            # each pass in units of its own reference time, then means over the
            # passes (see README for why not medians)
            wall = statistics.mean(p["wall_s"] / p["ref_s"] for p in passes)
            metrics = {
                "wall_ref": wall,
                "rows_per_ref": passes[0]["rows"] / wall,
                "cpu_ref": statistics.mean(p["cpu_s"] / p["ref_s"] for p in passes),
                "peak_rss_mb": statistics.mean(p["peak_rss_kb"] for p in passes) / 1024.0,
                "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
                "ops_ok_ratio": (workload.attempted - len(workload.failures)) / workload.attempted,
            }
            units = E2E_UNITS

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": environment(),
            "sizes": workload.truth["sizes"],
            "rows_per_pass": passes[0]["rows"],
            "passes": [
                {"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "ref_s": p["ref_s"], "setup_s": p["setup_s"],
                 "peak_rss_mb": p["peak_rss_kb"] / 1024.0,
                 "stage_wall_s": {name: s["wall_s"] for name, s in p["stages"].items()}}
                for p in passes
            ],
            "failures": workload.failures[:20],
        }
        print(json.dumps(record, sort_keys=True))
        for failure in workload.failures[:20]:
            print(failure, file=sys.stderr)
        result = {
            "correct": not workload.failures,
            "attempted": workload.attempted,
            "failed": len(workload.failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
