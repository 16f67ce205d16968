"""``tools/reach.py`` records which library functions a CLI stage calls."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)


def test_an_ingest_stage_reaches_read_labels_and_not_the_screen(tmp_path):
    labels = ROOT / "tests" / "fixtures" / "labels.jsonl"
    stages = [("ingest", ["ingest", "--labels", labels, "--out", tmp_path / "out"], 0)]
    assert reach.run_stages(stages, tmp_path, tmp_path / "record")
    missed = {name for name, *_ in reach.unreached(tmp_path / "record")}
    # the stage ends through os._exit, so these were written by the wrapped os._exit, not at exit
    assert "ingest.read_labels" not in missed
    assert "cli.run" not in missed
    assert "validate.consistency_screen" in missed
    assert missed < {name for name, _ in reach.defined_functions().values()}
