"""The traced benchmark launcher still finds the library functions it patches."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def test_traced_link_apply_counts_soc_summary_calls(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "trace_launcher.py"), str(spans),
            "link", "apply", "--dataset", str(FIXTURES / "labels.jsonl"),
            "--weights", str(FIXTURES / "task_weights.csv"), "--bridge", str(FIXTURES / "bridge.csv"),
            "--out", str(tmp_path / "link"),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text(encoding="utf-8"))["counts"]
    assert counts["linkage.soc_summary_calls"] > 0
    assert (tmp_path / "link" / "pockets_occupation.csv").exists()
