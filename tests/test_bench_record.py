"""Every committed performance record (``BENCH_<n>.json`` at the repository root)
has the shape ``bench/run.py`` prints. Only keys are checked, never timings."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: keys of the line before the result: the run's environment, input sizes and passes
RECORD_KEYS = {"workload", "seed", "trace", "env", "sizes", "rows_per_pass", "passes", "failures"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_both_run_lines_per_workload_and_side(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert {"command", "workloads"} <= set(doc)
    assert set(doc["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for workload, sides in doc["workloads"].items():
        assert set(sides) == {"parent", "change"}
        for lines in sides.values():
            assert set(lines) == {"record", "result"}
            assert RECORD_KEYS <= set(lines["record"])
            assert lines["record"]["workload"] == workload
            assert RESULT_KEYS <= set(lines["result"])
            metrics = lines["result"]["metrics"]
            for metric in BENCHMARK["end_to_end"]:
                assert {"value", "unit"} <= set(metrics[metric["name"]])
