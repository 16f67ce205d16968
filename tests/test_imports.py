"""Each CLI command imports only the library modules it runs, and `import taskatlas` imports none.
Start-up (`--version`, `--help`, a usage error) loads no numpy, and a CLI stage runs BLAS on one thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

#: run in a fresh interpreter: argv[1] is a JSON list of CLI arguments, or null for a bare
#: `import taskatlas`; exits with the CLI's exit code
PROBE = """
import json, sys
args = json.loads(sys.argv[1])
code = 0
if args is None:
    import taskatlas
else:
    from taskatlas.cli import main
    code = main(args)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] in ("taskatlas", "numpy"))))
sys.exit(code)
"""


def loaded(args, code: int = 0) -> set[str]:
    """The ``taskatlas`` and ``numpy`` modules loaded by running the CLI with
    ``args`` (None: importing the package), which must exit with ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(None if args is None else [str(a) for a in args])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


LABEL_PATH = {"taskatlas.aggregate", "taskatlas.linkage", "taskatlas.validate"}


def test_package_import_loads_no_submodule():
    assert loaded(None) == {"taskatlas"}


@pytest.mark.parametrize(
    "args, code",
    [(["--version"], 0), (["--help"], 0), (["stats", "fe", "--help"], 0), (["stats", "fe", "--no-such-flag"], 1),
     (["no-such-command"], 1)],
    ids=["version", "help", "command-help", "usage-error", "unknown-command"],
)
def test_start_up_loads_no_numpy(args, code):
    assert not {name for name in loaded(args, code) if name.split(".")[0] == "numpy"}


#: run in a fresh interpreter: the BLAS thread variable and the process's OS thread count (None without /proc)
BLAS_PROBE = """
import os
import taskatlas.cli, numpy
tasks = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir(tasks)) if os.path.isdir(tasks) else None)
"""

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_probe(**variables: str) -> tuple[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(variables, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return value, threads


def test_a_cli_stage_runs_blas_on_one_thread():
    value, threads = blas_probe()
    assert value == "1"
    if threads == "None":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


def test_a_caller_keeps_their_blas_thread_count():
    assert blas_probe(OPENBLAS_NUM_THREADS="2")[0] == "2"


@pytest.mark.parametrize(
    "command",
    [
        lambda t: ["--version"],
        lambda t: ["stats", "corr", "--table", FIXTURES / "stats_table.csv", "--key-column", "unit",
                   "--x", "x", "--y", "y", "--loo", "--out", t / "corr.json"],
        lambda t: ["reweight", "--employment", FIXTURES / "employment.csv",
                   "--cell-values", FIXTURES / "cell_values.csv", "--out", t / "reweight"],
    ],
    ids=["version", "stats-corr", "reweight"],
)
def test_commands_without_labels_skip_the_label_modules(tmp_path, command):
    assert not loaded(command(tmp_path)) & LABEL_PATH


def test_stats_corr_loads_its_own_stats_modules_only(tmp_path):
    modules = loaded(["stats", "corr", "--table", FIXTURES / "stats_table.csv", "--key-column", "unit",
                      "--x", "x", "--y", "y", "--out", tmp_path / "corr.json"])
    assert {"taskatlas.stats.correlation", "taskatlas.stats.series"} <= modules
    assert not {"taskatlas.stats.forest", "taskatlas.stats.treeshap", "taskatlas.stats.smooth"} & modules


def test_ingest_loads_no_stats_module(tmp_path):
    modules = loaded(["ingest", "--labels", FIXTURES / "labels.jsonl", "--out", tmp_path])
    assert "taskatlas.ingest" in modules
    assert not {name for name in modules if name.split(".")[:2] == ["taskatlas", "stats"]}
    assert not modules & LABEL_PATH


LABELS = FIXTURES / "labels.jsonl"


@pytest.mark.parametrize(
    "command",
    [
        lambda t: ["validate", "agreement", "--run-a", LABELS, "--run-b", LABELS, "--out", t / "agreement.json"],
        lambda t: ["validate", "paraphrase", "--original", LABELS, "--variant", LABELS, "--variant", LABELS,
                   "--out", t / "paraphrase.json"],
        lambda t: ["validate", "screen", "--dataset", LABELS, "--out", t / "screen"],
        lambda t: ["validate", "distribution", "--dataset", LABELS, "--out", t / "distribution.json"],
        lambda t: ["report", "--dataset", LABELS, "--registry", FIXTURES / "registry.csv", "--out", t / "report.json"],
        lambda t: ["validate", "divergence", "--pairs", FIXTURES / "pairs.csv", "--no-cosine",
                   "--out", t / "divergence.json"],
    ],
    ids=["agreement", "paraphrase", "screen", "distribution", "report", "divergence-no-cosine"],
)
def test_validate_stages_without_embeddings_skip_linkage_and_rng(tmp_path, command):
    modules = loaded(command(tmp_path))
    assert "taskatlas.validate" in modules
    assert not {"taskatlas.linkage", "taskatlas._rng"} & modules


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory) -> Path:
    """Candidates and a pruned graph of the fixture tasks and activities, built in this process."""
    from taskatlas.cli import main

    out = tmp_path_factory.mktemp("link")
    texts = ["--tasks", FIXTURES / "tasks.csv", "--activities", FIXTURES / "activities.csv"]
    assert main([str(a) for a in ["link", "candidates", *texts, "--embedder", "hash", "--top-k", "3",
                                  "--floor", "-1.0", "--out", out / "candidates.jsonl"]]) == 0
    assert main([str(a) for a in ["link", "prune", "--candidates", out / "candidates.jsonl", *texts,
                                  "--voter", "hash:0.8", "--votes", "3", "--out", out / "graph.jsonl"]]) == 0
    return out


@pytest.mark.parametrize(
    "command",
    [
        lambda g, t: ["link", "prune", "--candidates", g / "candidates.jsonl", "--tasks", FIXTURES / "tasks.csv",
                      "--activities", FIXTURES / "activities.csv", "--voter", "hash:0.8", "--votes", "3",
                      "--out", t / "graph.jsonl"],
        lambda g, t: ["link", "apply", "--dataset", LABELS, "--graph", g / "graph.jsonl",
                      "--weights", FIXTURES / "task_weights.csv", "--bridge", FIXTURES / "bridge.csv",
                      "--out", t / "link"],
    ],
    ids=["link-prune", "link-apply"],
)
def test_link_stages_that_draw_nothing_skip_rng(graph_files, tmp_path, command):
    modules = loaded(command(graph_files, tmp_path))
    assert "taskatlas.linkage" in modules
    assert not {"taskatlas._rng", "numpy.random"} & modules


def test_divergence_with_an_embedder_loads_linkage_but_not_aggregate(tmp_path):
    modules = loaded(["validate", "divergence", "--pairs", FIXTURES / "pairs.csv", "--embedder", "hash",
                      "--out", tmp_path / "divergence.json"])
    assert {"taskatlas.validate", "taskatlas.linkage"} <= modules
    assert "taskatlas.aggregate" not in modules


STATS_TABLE = FIXTURES / "stats_table.csv"
FEATURES = ["--y", "y", "--features", "x,z,w"]


def fe_panel(t: Path) -> Path:
    """A 4-country x 3-cell panel: y is linear in x plus a country and a cell effect, with a small wobble."""
    rows = ["iso3,cell_id,x,y"]
    for i in range(4):
        for j in range(3):
            x = (7 * i + 3 * j) % 5
            rows.append(f"C{i},k{j},{x},{2 * x + i + j + 0.1 * (i * j % 3)}")
    path = t / "panel.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command",
    [
        lambda t: ["--version"],
        lambda t: ["stats", "corr", "--table", STATS_TABLE, "--key-column", "unit", "--x", "x", "--y", "y",
                   "--out", t / "corr.json"],
        lambda t: ["stats", "loess", "--table", STATS_TABLE, "--x", "x", "--y", "y", "--resamples", "5",
                   "--out", t / "loess.json"],
        lambda t: ["stats", "vardecomp", "--matrix", FIXTURES / "matrix.csv", "--out", t / "vardecomp.json"],
        lambda t: ["stats", "fe", "--table", fe_panel(t), "--y", "y", "--x", "x", "--row-fe", "iso3",
                   "--col-fe", "cell_id", "--out", t / "fe.json"],
        lambda t: ["stats", "forest", "--table", STATS_TABLE, *FEATURES, "--trees", "3", "--repeats", "1",
                   "--out", t / "forest.json"],
        lambda t: ["stats", "shap", "--table", STATS_TABLE, *FEATURES, "--trees", "3", "--seeds", "0",
                   "--out", t / "shap.json"],
        lambda t: ["stats", "ale", "--table", STATS_TABLE, *FEATURES, "--feature", "x", "--trees", "3",
                   "--out", t / "ale.json"],
        lambda t: ["stats", "dominance", "--table", STATS_TABLE, *FEATURES, "--out", t / "dominance.json"],
    ],
    ids=["version", "corr", "loess", "vardecomp", "fe", "forest", "shap", "ale", "dominance"],
)
def test_commands_without_labels_or_domain_tables_skip_ingest(tmp_path, command):
    """The table reader and the writers live in `files`, so these commands never load `ingest`."""
    assert "taskatlas.ingest" not in loaded(command(tmp_path))
