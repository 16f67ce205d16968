"""Each CLI command imports only the library modules it runs, and `import taskatlas` imports none."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

#: run in a fresh interpreter: argv[1] is a JSON list of CLI arguments, or null for a bare `import taskatlas`
PROBE = """
import json, sys
args = json.loads(sys.argv[1])
if args is None:
    import taskatlas
else:
    from taskatlas.cli import main
    code = main(args)
    assert code == 0, code
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "taskatlas")))
"""


def loaded(args) -> set[str]:
    """The ``taskatlas`` modules loaded by running the CLI with ``args`` (None: importing the package)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(None if args is None else [str(a) for a in args])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


LABEL_PATH = {"taskatlas.aggregate", "taskatlas.linkage", "taskatlas.validate"}


def test_package_import_loads_no_submodule():
    assert loaded(None) == {"taskatlas"}


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
