import csv
import functools
import hashlib
import io
import itertools
import json
import operator
from pathlib import Path
from typing import Sequence

import math
import re
import shutil
import tempfile

import click
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CELL_TEXT, UNPICKLED, Planted, resaved
from oracles import naive_write_csv, record_embedding, record_vote
from taskatlas import ingest, reweight
from taskatlas.cli import cli, main
from taskatlas.validate import DEFAULT_LEXICON

FIXTURES = Path(__file__).parent / "fixtures"
#: the header block of an output written outside a command
META = {"tool": "taskatlas test", "config_digest": "0" * 16, "seed": 0}


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_pipeline(out_dir: Path, companion: bool = True) -> None:
    """The full shipped-fixture pipeline; every stage must exit 0. Without
    ``companion``, the dataset's columnar companion is deleted after ``ingest``."""
    config = fx("config.json")
    steps = [
        ["ingest", "--labels", fx("labels.jsonl"), "--out", str(out_dir), "--config", config],
        [
            "summarize", "--dataset", str(out_dir / "dataset.jsonl"), "--registry", fx("registry.csv"),
            "--benchmark", fx("labels.jsonl"), "--transitions",
            "--out", str(out_dir / "summary"), "--config", config,
        ],
        [
            "link", "candidates", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
            "--embedder", "hash", "--top-k", "3", "--floor", "-1.0",
            "--out", str(out_dir / "candidates.jsonl"), "--config", config,
        ],
        [
            "link", "prune", "--candidates", str(out_dir / "candidates.jsonl"), "--tasks", fx("tasks.csv"),
            "--activities", fx("activities.csv"), "--voter", "hash:0.8", "--votes", "3",
            "--out", str(out_dir / "graph.jsonl"), "--config", config,
        ],
        [
            "link", "apply", "--dataset", str(out_dir / "dataset.jsonl"), "--graph", str(out_dir / "graph.jsonl"),
            "--weights", fx("task_weights.csv"), "--bridge", fx("bridge.csv"),
            "--out", str(out_dir / "link"), "--config", config,
        ],
        [
            "reweight", "--employment", fx("employment.csv"), "--cell-values", fx("cell_values.csv"),
            "--out", str(out_dir / "reweight"), "--config", config,
        ],
        [
            "validate", "distribution", "--dataset", str(out_dir / "dataset.jsonl"),
            "--registry", fx("registry.csv"), "--group-by", "income_group",
            "--out", str(out_dir / "distribution.json"), "--config", config,
        ],
        [
            "validate", "screen", "--dataset", str(out_dir / "dataset.jsonl"),
            "--out", str(out_dir / "screen"), "--config", config,
        ],
        [
            "validate", "divergence", "--pairs", fx("pairs.csv"), "--embedder", "hash",
            "--out", str(out_dir / "divergence.json"), "--config", config,
        ],
        [
            "validate", "agreement", "--run-a", str(out_dir / "dataset.jsonl"),
            "--run-b", str(out_dir / "dataset.jsonl"),
            "--out", str(out_dir / "agreement.json"), "--config", config,
        ],
        [
            "validate", "paraphrase", "--original", str(out_dir / "dataset.jsonl"),
            "--variant", str(out_dir / "dataset.jsonl"), "--variant", str(out_dir / "dataset.jsonl"),
            "--out", str(out_dir / "paraphrase.json"), "--config", config,
        ],
        [
            "stats", "corr", "--table", fx("stats_table.csv"), "--key-column", "unit", "--x", "x", "--y", "y",
            "--loo", "--out", str(out_dir / "corr.json"), "--config", config,
        ],
        [
            "stats", "corr", "--table", fx("stats_table.csv"), "--key-column", "unit", "--x", "x", "--y", "y",
            "--method", "spearman", "--out", str(out_dir / "spearman.json"), "--config", config,
        ],
        [
            "stats", "corr", "--table", fx("stats_table.csv"), "--key-column", "unit", "--x", "x", "--y", "y",
            "--controls", "z", "--out", str(out_dir / "partial.json"), "--config", config,
        ],
        [
            "stats", "loess", "--table", fx("stats_table.csv"), "--x", "x", "--y", "y", "--resamples", "25",
            "--out", str(out_dir / "loess.json"), "--config", config,
        ],
        [
            "stats", "vardecomp", "--matrix", fx("matrix.csv"),
            "--out", str(out_dir / "vardecomp.json"), "--config", config,
        ],
        [
            "stats", "fe", "--table", str(out_dir / "reweight" / "fe_panel.csv"), "--y", "y_pp",
            "--x", "x_substitute", "--row-fe", "iso3", "--col-fe", "cell_id",
            "--out", str(out_dir / "fe.json"), "--config", config,
        ],
        [
            "stats", "forest", "--table", fx("stats_table.csv"), "--y", "y", "--features", "x,z,w",
            "--trees", "20", "--out", str(out_dir / "forest.json"), "--config", config,
        ],
        [
            "stats", "shap", "--table", fx("stats_table.csv"), "--y", "y", "--features", "x,z,w",
            "--trees", "15", "--seeds", "0,1", "--out", str(out_dir / "shap.json"), "--config", config,
        ],
        [
            "stats", "ale", "--table", fx("stats_table.csv"), "--y", "y", "--features", "x,z,w",
            "--feature", "x", "--trees", "15", "--out", str(out_dir / "ale.json"), "--config", config,
        ],
        [
            "stats", "dominance", "--table", fx("stats_table.csv"), "--y", "y", "--features", "x,z,w",
            "--out", str(out_dir / "dominance.json"), "--config", config,
        ],
        [
            "report", "--dataset", str(out_dir / "dataset.jsonl"), "--registry", fx("registry.csv"),
            "--out", str(out_dir / "report.json"), "--config", config,
        ],
    ]
    for step in steps:
        rc = main(step)
        assert rc == 0, f"step {step[:2]} exited {rc}"
        if not companion:
            (out_dir / "dataset.columns.npz").unlink(missing_ok=True)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestExitCodes:
    def test_clean_ingest_exit_zero(self, tmp_path, capsys):
        rc = main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(tmp_path)])
        assert rc == 0
        assert "0 rejected" in capsys.readouterr().out

    def test_malformed_line_still_exit_zero(self, tmp_path, capsys):
        labels = tmp_path / "bad.jsonl"
        labels.write_text(Path(fx("labels.jsonl")).read_text(encoding="utf-8") + "{truncated\n", encoding="utf-8")
        rc = main(["ingest", "--labels", str(labels), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "1 rejected" in capsys.readouterr().out

    def test_strict_mode_nonzero_on_rejects(self, tmp_path):
        labels = tmp_path / "bad.jsonl"
        labels.write_text(Path(fx("labels.jsonl")).read_text(encoding="utf-8") + "{truncated\n", encoding="utf-8")
        rc = main(["ingest", "--labels", str(labels), "--out", str(tmp_path / "out"), "--strict"])
        assert rc == 2

    def test_missing_file_exit_two_with_path(self, tmp_path, capsys):
        rc = main(["ingest", "--labels", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_unknown_subcommand_usage_exit_one(self, capsys):
        rc = main(["stats", "frobnicate"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Usage" in err or "usage" in err

    def test_missing_required_flag_usage(self, capsys):
        assert main(["summarize"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_csv_label_ingest(self, tmp_path, capsys):
        header = (
            "task_id,country,exposure_level,dominant_channel,substitution_path,augmentation_path,"
            "margin,ai_materiality,dominant_ai_function,short_rationale,substitution_summary,augmentation_summary"
        )
        rows = [
            "t1,AAA,2,rule_based_workflow,true,true,both,false,none,r,,",
            "t2,AAA,0,none,false,false,unclear,false,none,r,,",
        ]
        labels = tmp_path / "labels.csv"
        labels.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        rc = main(["ingest", "--labels", str(labels), "--format", "csv", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "2 accepted" in capsys.readouterr().out
        dataset_lines = [
            line
            for line in (tmp_path / "out" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]
        assert len(dataset_lines) == 2

    @pytest.mark.parametrize("spelling, code", [("number", "syntax"), ("digit string", "invalid_value")])
    def test_huge_integer_level_is_a_rejected_row(self, tmp_path, spelling, code):
        """A 5,000-digit exposure level, past int()'s digit limit, is a rejected
        row: exit 0, or 2 with --strict."""
        text = Path(fx("labels.jsonl")).read_text(encoding="utf-8")
        row = json.loads(text.splitlines()[0])
        if spelling == "number":
            line = json.dumps({**row, "exposure_level": 0}).replace('"exposure_level": 0', '"exposure_level": ' + "9" * 5000)
        else:
            line = json.dumps({**row, "exposure_level": "9" * 5000})
        labels = written(tmp_path, "labels.jsonl", text + line + "\n")
        assert main(["ingest", "--labels", labels, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "parse_report.json").read_text(encoding="utf-8"))["data"]
        assert report["rows_rejected"] == 1
        assert report["violations"][0]["code"] == code
        assert main(["ingest", "--labels", labels, "--out", str(tmp_path / "strict"), "--strict"]) == 2

    def test_lone_surrogate_escape_is_a_rejected_row(self, tmp_path):
        """A label text holding a lone surrogate, which no UTF-8 output can
        write, is a rejected syntax row: exit 0, or 2 with --strict. (The
        second line's key is not repeated, so its text would reach the output.)"""
        lines = Path(fx("labels.jsonl")).read_text(encoding="utf-8").split("\n")
        lines[1] = json.dumps({**json.loads(lines[1]), "short_rationale": "bad \ud800 x"})
        assert "\\ud800" in lines[1]
        labels = written(tmp_path, "labels.jsonl", "\n".join(lines))
        assert main(["ingest", "--labels", labels, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "parse_report.json").read_text(encoding="utf-8"))["data"]
        assert report["violations"] == [
            {"line": 2, "code": "syntax", "message": "invalid JSON: a string holds a lone surrogate"}
        ]
        assert main(["ingest", "--labels", labels, "--out", str(tmp_path / "strict"), "--strict"]) == 2

    def test_deeply_nested_line_is_a_rejected_row(self, tmp_path):
        """A line of 100,000 nested arrays, past the JSON decoder's recursion
        limit, is a rejected syntax row: exit 0, or 2 with --strict."""
        text = Path(fx("labels.jsonl")).read_text(encoding="utf-8")
        labels = written(tmp_path, "labels.jsonl", text + "[" * 100_000 + "]" * 100_000 + "\n")
        assert main(["ingest", "--labels", labels, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "parse_report.json").read_text(encoding="utf-8"))["data"]
        assert report["rows_rejected"] == 1
        assert report["violations"][0]["code"] == "syntax"
        assert main(["ingest", "--labels", labels, "--out", str(tmp_path / "strict"), "--strict"]) == 2


class TestSeedResolution:
    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ATLAS_SEED", "123")
        rc = main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(tmp_path), "--config", fx("config.json")])
        assert rc == 0
        header = (tmp_path / "dataset.jsonl").read_text(encoding="utf-8").splitlines()[2]
        assert header == "# seed: 123"

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ATLAS_SEED", "123")
        rc = main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(tmp_path), "--seed", "456"])
        assert rc == 0
        header = (tmp_path / "dataset.jsonl").read_text(encoding="utf-8").splitlines()[2]
        assert header == "# seed: 456"

    def test_outputs_carry_digest_and_seed(self, tmp_path):
        main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(tmp_path), "--config", fx("config.json")])
        text = (tmp_path / "dataset.jsonl").read_text(encoding="utf-8")
        assert text.startswith("# tool: taskatlas")
        assert "# config_digest: " in text and "# seed: 7" in text
        report = json.loads((tmp_path / "parse_report.json").read_text(encoding="utf-8"))
        assert report["meta"]["seed"] == 7


@pytest.mark.slow
class TestPipelineDeterminism:
    def test_byte_identical_across_runs_and_worker_counts(self, tmp_path):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_c = tmp_path / "c"
        run_pipeline(run_a)
        run_pipeline(run_b)
        run_pipeline(run_c)
        bytes_a = tree_bytes(run_a)
        assert bytes_a == tree_bytes(run_b)
        assert bytes_a == tree_bytes(run_c)

    def test_the_same_outputs_without_the_dataset_companion(self, tmp_path):
        run_pipeline(tmp_path / "kept")
        run_pipeline(tmp_path / "deleted", companion=False)
        kept = tree_bytes(tmp_path / "kept")
        assert kept.pop("dataset.columns.npz")
        assert kept == tree_bytes(tmp_path / "deleted")

    def test_divergence_without_cosine(self, tmp_path):
        rc = main([
            "validate", "divergence", "--pairs", fx("pairs.csv"), "--no-cosine",
            "--out", str(tmp_path / "divergence.json"),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "divergence.json").read_text(encoding="utf-8"))["data"]
        assert payload["quadrant_shares"] is None
        assert all(pair["cosine"] is None for pair in payload["pairs"])

    def test_graph_provenance_carries_retrieval_parameters(self, tmp_path):
        main([
            "link", "candidates", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
            "--embedder", "hash", "--top-k", "3", "--floor", "-1.0",
            "--out", str(tmp_path / "candidates.jsonl"),
        ])
        main([
            "link", "prune", "--candidates", str(tmp_path / "candidates.jsonl"), "--tasks", fx("tasks.csv"),
            "--activities", fx("activities.csv"), "--voter", "hash:0.8",
            "--out", str(tmp_path / "graph.jsonl"),
        ])
        meta = json.loads((tmp_path / "graph.jsonl").read_text(encoding="utf-8").splitlines()[0])["meta"]
        assert meta["top_k"] == 3 and meta["floor"] == -1.0
        assert meta["voter"] == "hash:0.8" and meta["votes_per_edge"] == 3

    def test_dataset_reingestion_fixed_point(self, tmp_path):
        main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(tmp_path / "one"), "--seed", "7"])
        main(["ingest", "--labels", str(tmp_path / "one" / "dataset.jsonl"), "--out", str(tmp_path / "two"), "--seed", "7"])
        first = (tmp_path / "one" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
        second = (tmp_path / "two" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
        assert [l for l in first if not l.startswith("#")] == [l for l in second if not l.startswith("#")]


def ingested(t: Path) -> Path:
    """The fixture labels ingested into ``t / "in"``: the dataset file's path."""
    assert main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(t / "in")]) == 0
    return t / "in" / "dataset.jsonl"


def dataset_stages(dataset: Path, out: Path) -> list[list[str]]:
    """Every command that loads a dataset, on ``dataset``."""
    d = str(dataset)
    return [
        ["summarize", "--dataset", d, "--registry", fx("registry.csv"), "--benchmark", d, "--transitions",
         "--out", str(out / "summary")],
        ["link", "apply", "--dataset", d, "--weights", fx("task_weights.csv"), "--bridge", fx("bridge.csv"),
         "--out", str(out / "link")],
        ["validate", "agreement", "--run-a", d, "--run-b", d, "--out", str(out / "agreement.json")],
        ["validate", "paraphrase", "--original", d, "--variant", d, "--variant", d,
         "--out", str(out / "paraphrase.json")],
        ["validate", "screen", "--dataset", d, "--out", str(out / "screen")],
        ["validate", "distribution", "--dataset", d, "--registry", fx("registry.csv"), "--group-by", "income_group",
         "--out", str(out / "distribution.json")],
        ["report", "--dataset", d, "--registry", fx("registry.csv"), "--out", str(out / "report.json")],
    ]


def stage_outputs(dataset: Path, capsys) -> tuple[dict, str]:
    """The output tree and stdout of every dataset stage on ``dataset``, written
    afresh to ``out`` beside its directory; each stage must exit 0."""
    out = dataset.parent.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    for args in dataset_stages(dataset, out):
        assert main(args) == 0, args
    return tree_bytes(out), capsys.readouterr().out


def byte_flipped(companion: Path) -> None:
    data = companion.read_bytes()
    at = data.index(b"Deployment conditions")  # inside the short_rationale blob
    companion.write_bytes(data[:at] + b"d" + data[at + 1:])


class TestDatasetCompanion:
    """``ingest`` writes ``dataset.columns.npz`` beside ``dataset.jsonl``; a later
    stage reads it only when it matches the JSONL exactly, else it parses the JSONL."""

    DAMAGE = {
        "truncated": lambda c: c.write_bytes(c.read_bytes()[: c.stat().st_size // 2]),
        "one array byte flipped": byte_flipped,
        "wrong version": lambda c: resaved(c, version=np.array(2)),
        "planted object array": lambda c: resaved(c, short_rationale_utf8=np.array([Planted()], object)),
        "stale": None,
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_a_damaged_or_stale_companion_gives_the_jsonl_outputs(self, tmp_path, capsys, monkeypatch, damage):
        dataset = ingested(tmp_path)
        if damage == "stale":  # one byte of the JSONL edited after ingest
            dataset.write_bytes(dataset.read_bytes().replace(b"# seed: 0", b"# seed: 5"))
        else:
            self.DAMAGE[damage](dataset.with_name("dataset.columns.npz"))
        parses = []
        read_labels = ingest.read_labels
        monkeypatch.setattr(ingest, "read_labels", lambda *a, **k: parses.append(a) or read_labels(*a, **k))
        damaged = stage_outputs(dataset, capsys)
        assert len(parses) == 11  # every load took the JSONL path
        assert not UNPICKLED
        dataset.with_name("dataset.columns.npz").unlink()
        assert damaged == stage_outputs(dataset, capsys)

    def test_a_matching_companion_gives_the_jsonl_outputs_unparsed(self, tmp_path, capsys, monkeypatch):
        dataset = ingested(tmp_path)
        expected = stage_outputs(dataset, capsys)
        dataset.with_name("dataset.columns.npz").unlink()
        assert expected == stage_outputs(dataset, capsys)
        assert main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(tmp_path / "in")]) == 0
        monkeypatch.setattr(ingest, "read_labels", None)  # never called
        assert expected == stage_outputs(dataset, capsys)

    @pytest.mark.parametrize("companion", [True, False])
    def test_an_empty_dataset_exits_two_on_both_paths(self, tmp_path, capsys, companion):
        out = tmp_path / "in"
        assert main(["ingest", "--labels", written(tmp_path, "bad.jsonl", "{truncated\n"), "--out", str(out)]) == 2
        assert (out / "dataset.columns.npz").exists()
        if not companion:
            (out / "dataset.columns.npz").unlink()
        capsys.readouterr()
        for args in dataset_stages(out / "dataset.jsonl", tmp_path / "out"):
            assert main(args) == 2, args
            assert f"{out / 'dataset.jsonl'}: dataset has no records" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestNonFiniteStatsInputs:
    """A NaN or inf in a stats table is bad input (exit 2), never a result."""

    COMMANDS = {
        "forest": ["stats", "forest", "--y", "y", "--features", "x,z,w", "--trees", "5"],
        "shap": ["stats", "shap", "--y", "y", "--features", "x,z,w", "--trees", "5", "--seeds", "0"],
        "ale": ["stats", "ale", "--y", "y", "--features", "x,z,w", "--feature", "x", "--trees", "5"],
        "dominance": ["stats", "dominance", "--y", "y", "--features", "x,z,w"],
        "loess": ["stats", "loess", "--x", "x", "--y", "y", "--resamples", "5"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_finite_feature_exits_two_without_output(self, tmp_path, capsys, command, value):
        lines = Path(fx("stats_table.csv")).read_text(encoding="utf-8").splitlines()
        unit, x, rest = lines[3].split(",", 2)
        lines[3] = ",".join([unit, value, rest])
        table = tmp_path / "table.csv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out.json"
        rc = main(self.COMMANDS[command] + ["--table", str(table), "--out", str(out)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_fe_non_finite_outcome_names_column_and_row(self, tmp_path, capsys):
        table = tmp_path / "panel.csv"
        table.write_text(
            "iso3,cell_id,y_pp,x_substitute\n"
            "AAA,c1,1.0,2.0\nAAA,c2,2.0,1.0\nBBB,c1,nan,3.0\nBBB,c2,0.5,4.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "fe.json"
        rc = main([
            "stats", "fe", "--table", str(table), "--y", "y_pp", "--x", "x_substitute",
            "--row-fe", "iso3", "--col-fe", "cell_id", "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'y_pp'" in err and "row 3" in err
        assert not out.exists()

    def test_json_writer_rejects_nan(self, tmp_path):
        from taskatlas.files import write_json

        with pytest.raises(ValueError):
            write_json(tmp_path / "out.json", META, {"value": float("nan")})


class TestInputBoundaries:
    """Bad bytes, a BOM, empty results and misspelled columns."""

    @staticmethod
    def labels_csv() -> str:
        rows = [json.loads(line) for line in Path(fx("labels.jsonl")).read_text(encoding="utf-8").splitlines()]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: str(v).lower() if isinstance(v, bool) else v for k, v in row.items()})
        return buf.getvalue()

    def test_bom_csv_labels_give_the_same_dataset(self, tmp_path):
        text = self.labels_csv()
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        for name in ("plain", "bom"):
            rc = main(["ingest", "--labels", str(tmp_path / f"{name}.csv"), "--format", "csv",
                       "--out", str(tmp_path / name), "--strict"])
            assert rc == 0
        plain = (tmp_path / "plain" / "dataset.jsonl").read_bytes()
        assert (tmp_path / "bom" / "dataset.jsonl").read_bytes() == plain

    def test_invalid_utf8_exits_two(self, tmp_path, capsys):
        labels = tmp_path / "bad.jsonl"
        labels.write_bytes(Path(fx("labels.jsonl")).read_bytes() + b'{"task_id": "\xff"}\n')
        assert main(["ingest", "--labels", str(labels), "--out", str(tmp_path / "out")]) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_no_accepted_row_exits_two_after_writing_the_report(self, tmp_path, capsys):
        labels = tmp_path / "bad.jsonl"
        labels.write_text("{truncated\nnot json\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--labels", str(labels), "--out", str(out)]) == 2
        assert "no row was accepted" in capsys.readouterr().err
        report = json.loads((out / "parse_report.json").read_text(encoding="utf-8"))["data"]
        assert report["rows_read"] == report["rows_rejected"] == 2

    def test_summarize_rejects_a_header_only_dataset(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("# tool: taskatlas\n# seed: 0\n", encoding="utf-8")
        assert main(["summarize", "--dataset", str(dataset), "--out", str(tmp_path / "summary")]) == 2
        err = capsys.readouterr().err
        assert str(dataset) in err and "no records" in err

    @pytest.mark.parametrize("flag", ["--y", "--row-fe"])
    def test_fe_misspelled_column_exits_two_naming_it(self, tmp_path, capsys, flag):
        table = tmp_path / "panel.csv"
        table.write_text("iso3,cell_id,y_pp,x_substitute\nAAA,c1,1.0,2.0\nBBB,c1,0.5,4.0\n", encoding="utf-8")
        args = {"--y": "y_pp", "--x": "x_substitute", "--row-fe": "iso3", "--col-fe": "cell_id"}
        args[flag] += "_typo"
        out = tmp_path / "fe.json"
        rc = main(["stats", "fe", "--table", str(table), "--out", str(out)] + [a for kv in args.items() for a in kv])
        assert rc == 2
        assert f"has no column {args[flag]!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_corr_misspelled_x_exits_two_naming_it(self, tmp_path, capsys):
        rc = main(["stats", "corr", "--table", fx("stats_table.csv"), "--key-column", "unit",
                   "--x", "x_typo", "--y", "y", "--out", str(tmp_path / "corr.json")])
        assert rc == 2
        assert "has no column 'x_typo'" in capsys.readouterr().err


def fixture_with(tmp_path: Path, name: str, line, col: int, value=None) -> str:
    """Fixture table ``name`` with the cell at (line, col) set to ``value``, on
    each line of ``line`` if it is a tuple; None drops the cell."""
    lines = Path(fx(name)).read_text(encoding="utf-8").splitlines()
    for n in line if isinstance(line, tuple) else (line,):
        cells = lines[n].split(",")
        if value is None:
            del cells[col]
        else:
            cells[col] = value
        lines[n] = ",".join(cells)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def written(tmp_path: Path, name: str, text) -> str:
    """``text`` (a str, or bytes as they are) written to ``tmp_path / name``."""
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


def employment_years_later(t: Path, years: int) -> str:
    """The fixture employment table with every year moved ``years`` later."""
    header, *lines = Path(fx("employment.csv")).read_text(encoding="utf-8").splitlines()
    cells = [line.split(",") for line in lines]
    moved = [",".join([iso3, str(int(year) + years), *rest]) for iso3, year, *rest in cells]
    return written(t, "employment.csv", "\n".join([header, *moved]) + "\n")


def reweight_args(t: Path, employment=None, cell_values=None, *extra) -> list:
    return ["reweight", "--employment", employment or fx("employment.csv"),
            "--cell-values", cell_values or fx("cell_values.csv"), "--out", str(t / "out"), *extra]


def apply_args(t: Path, weights=None, *extra) -> list:
    return ["link", "apply", "--dataset", fx("labels.jsonl"), "--weights", weights or fx("task_weights.csv"),
            "--bridge", fx("bridge.csv"), "--out", str(t / "out"), *extra]


def unread_apply_args(t: Path, *extra) -> list:
    """``link apply`` with weights but no bridge, over a dataset that does not exist."""
    return ["link", "apply", "--dataset", str(t / "missing.jsonl"), "--weights", fx("task_weights.csv"),
            "--out", str(t / "out"), *extra]


def stats_args(t: Path, command: str, table: str, *extra) -> list:
    return ["stats", command, "--table", table, *extra, "--out", str(t / "out.json")]


def fe_panel_with(t: Path, column: str, value: str) -> str:
    """The fixture reweight's fe_panel.csv with ``column`` set to ``value`` on its first data row."""
    assert main(reweight_args(t)) == 0
    lines = (t / "out" / "fe_panel.csv").read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header + 1].split(",")
    cells[lines[header].split(",").index(column)] = value
    lines[header + 1] = ",".join(cells)
    return written(t, "fe_panel.csv", "\n".join(lines) + "\n")


@functools.lru_cache(maxsize=None)
def replay_fixtures(kind: str) -> dict[str, bytes]:
    """Replay fixtures by file name, recorded from the hash providers: an
    "embedding" of each fixture task and activity text, or a "vote" on each
    ballot of each edge in the BUILT candidates."""
    from taskatlas.linkage import HashEmbedder, HashVoter

    texts = {name: dict(list(csv.reader(io.StringIO(table_text(name))))[1:])
             for name in ("tasks.csv", "activities.csv")}
    with tempfile.TemporaryDirectory() as scratch:
        if kind == "embedding":
            embedded = [*texts["tasks.csv"].values(), *texts["activities.csv"].values()]
            for text, vector in zip(embedded, HashEmbedder(dim=8).embed_many(embedded)):
                record_embedding(scratch, text, vector.tolist())
        else:
            for line in table_text("candidates.jsonl").splitlines()[1:]:
                edge = json.loads(line)
                task, activity = texts["tasks.csv"][edge["task_id"]], texts["activities.csv"][edge["isic4"]]
                for ballot in range(3):
                    record_vote(scratch, task, activity, ballot, HashVoter(0.8).vote(task, activity, ballot))
        return {path.name: path.read_bytes() for path in Path(scratch).iterdir()}


def replay_args(t: Path, kind: str, fixtures: Path) -> list:
    """``link candidates`` replaying the embedding fixtures in ``fixtures``, or
    ``link prune`` of the BUILT candidates replaying the vote fixtures there."""
    if kind == "embedding":
        return link_args(t, "candidates", "--embedder", f"replay:{fixtures}", "--out", str(t / "out.jsonl"))
    return link_args(t, "prune", "--candidates", written(t, "candidates.jsonl", table_text("candidates.jsonl")),
                     "--voter", f"replay:{fixtures}", "--out", str(t / "out.jsonl"))


def replaying(t: Path, kind: str, text) -> list:
    """``replay_args`` over a fixture directory in which every fixture holds ``text``."""
    (t / kind).mkdir()
    for name in replay_fixtures(kind):
        written(t / kind, name, text)
    return replay_args(t, kind, t / kind)


#: 5,000 digits, past int()'s limit on the digits of an integer literal
HUGE_INTEGER = "9" * 5000
NESTED = "[" * 100_000 + "]" * 100_000


class TestBadInputProbes:
    """A malformed input exits 2 naming where it is; a malformed option value exits 1 naming the option."""

    INPUTS = {
        "cell_value_abc": (
            lambda t: reweight_args(t, None, fixture_with(t, "cell_values.csv", 2, 2, "abc")),
            ["cell_values.csv", "'value'", "non-numeric", "data row 2"],
        ),
        "cell_value_blank": (
            lambda t: reweight_args(t, None, fixture_with(t, "cell_values.csv", 2, 3, "")),
            ["cell_values.csv", "'substitute'", "data row 2"],
        ),
        "cell_value_inf": (
            lambda t: reweight_args(t, None, fixture_with(t, "cell_values.csv", 2, 2, "inf")),
            ["cell_values.csv", "'value'", "non-finite", "data row 2"],
        ),
        "weight_nan": (
            lambda t: apply_args(t, fixture_with(t, "task_weights.csv", 2, 2, "nan")),
            ["task_weights.csv", "'weight'", "non-finite", "data row 2"],
        ),
        "weights_repeated_pair": (
            lambda t: apply_args(t, fixture_with(t, "task_weights.csv", 2, 1, "t0000")),
            ["task_weights.csv", "(soc, task_id) pair (soc1, t0000) repeats in data row 2"],
        ),
        "bridge_repeated_pair": (
            lambda t: ["link", "apply", "--dataset", fx("labels.jsonl"), "--weights", fx("task_weights.csv"),
                       "--bridge", fixture_with(t, "bridge.csv", 3, 1, "isco1"), "--out", str(t / "out")],
            ["bridge.csv", "(soc, isco) pair (soc2, isco1) repeats in data row 3"],
        ),
        "weights_short_row": (
            lambda t: apply_args(t, fixture_with(t, "task_weights.csv", 2, 2)),
            ["task_weights.csv", "data row 2", "not as wide as the header"],
        ),
        "employment_short_row": (
            lambda t: reweight_args(t, fixture_with(t, "employment.csv", 2, 4)),
            ["employment.csv", "data row 2", "not as wide as the header"],
        ),
        "employment_year": (
            lambda t: reweight_args(t, fixture_with(t, "employment.csv", 2, 1, "20x5")),
            ["employment.csv", "'year'", "'20x5'", "data row 2"],
        ),
        "employment_year_past_float_range": (
            lambda t: reweight_args(t, fixture_with(t, "employment.csv", 2, 1, "1" + "0" * 400)),
            ["employment.csv", "'year'", "non-finite", "data row 2"],
        ),
        "vardecomp_abc": (
            lambda t: ["stats", "vardecomp", "--matrix", fixture_with(t, "matrix.csv", 2, 2, "abc"),
                       "--out", str(t / "out.json")],
            ["matrix.csv", "'c1'", "'abc'", "data row 2"],
        ),
        "registry_gdp": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"),
                       "--registry", fixture_with(t, "registry.csv", 2, 4, "xx"), "--out", str(t / "out")],
            ["registry.csv", "'gdp_per_capita'", "'xx'", "data row 2"],
        ),
        "corr_repeated_key": (
            lambda t: stats_args(t, "corr", written(t, "t.csv", "unit,x,y\nu1,1,2\nu2,2,3\nu3,3,5\nu1,4,4\nu5,5,7\n"),
                                 "--key-column", "unit", "--x", "x", "--y", "y"),
            ["t.csv", "'u1'", "data row 4"],
        ),
        "graph_without_task_id": (
            lambda t: apply_args(t, None, "--graph", written(
                t, "graph.jsonl", '{"meta":{}}\n{"isic4":"0111","similarity":0.5,"votes":[true]}\n')),
            ["graph.jsonl", "line 2", "'task_id'"],
        ),
        "candidate_without_text": (
            lambda t: ["link", "prune", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
                       "--candidates", written(t, "c.jsonl", '{"meta":{}}\n{"task_id":"t9","isic4":"0111","similarity":0.5}\n'),
                       "--out", str(t / "graph.jsonl")],
            ["(t9, 0111)", "no task or activity text"],
        ),
        "candidate_nan_similarity": (
            lambda t: ["link", "prune", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
                       "--candidates", written(t, "c.jsonl", '{"meta":{}}\n{"task_id":"t0000","isic4":"0111","similarity":NaN}\n'),
                       "--out", str(t / "graph.jsonl")],
            ["c.jsonl", "line 2", "'similarity'"],
        ),
        "cell_value_overflow": (
            lambda t: reweight_args(t, None, fixture_with(t, "cell_values.csv", 2, 3, "1e308")),
            ["substitute", "AAA", "isco2", "overflows"],
        ),
        # finite when scaled by 10 for the FE panel, but not as a gap in percentage points
        "cell_value_gap_overflow": (
            lambda t: reweight_args(t, None, fixture_with(t, "cell_values.csv", 6, 2, "1.5e307")),
            ["value gap for AAA overflows"],
        ),
        # two values whose sum overflows in the equal-weight baseline
        "cell_value_baseline_overflow": (
            lambda t: reweight_args(t, None, fixture_with(t, "cell_values.csv", (1, 2), 2, "1e308")),
            ["value baseline for AAA overflows"],
        ),
        "cell_values_header_only": (
            lambda t: reweight_args(t, None, written(t, "cell_values.csv", "iso3,cell_id,value\n")),
            ["cell_values.csv", "no data rows"],
        ),
        # --help names the value column as required; without it no adjustment could be computed
        "cell_values_without_value": (
            lambda t: reweight_args(t, None, written(t, "cell_values.csv", "iso3,cell_id,substitute\nAAA,isco1,0.5\n")),
            ["cell_values.csv", "has no column 'value'"],
        ),
        "cell_values_without_metrics": (
            lambda t: reweight_args(t, None, written(t, "cell_values.csv", "iso3,cell_id\nAAA,isco1\n")),
            ["cell_values.csv", "has no column 'value'"],
        ),
        "employment_header_only": (
            lambda t: reweight_args(t, written(t, "employment.csv", "iso3,year,sex,cell_id,count\n")),
            ["employment.csv", "no data rows"],
        ),
        "cell_values_repeated_cell": (
            lambda t: reweight_args(t, None, written(
                t, "cell_values.csv", Path(fx("cell_values.csv")).read_text(encoding="utf-8") + "AAA,isco1,1,1,1,1\n",
            )),
            ["cell_values.csv", "(AAA, isco1)", "data row 28"],
        ),
        "employment_count_overflow": (
            lambda t: reweight_args(t, fixture_with(t, "employment.csv", (28, 31), 4, "1e308")),
            ["total employment counts for AAA in 2023 overflow"],
        ),
        "task_weights_overflow": (
            lambda t: apply_args(t, fixture_with(t, "task_weights.csv", (1, 2), 2, "1e308")),
            ["task weights for occupation soc1 sum to inf"],
        ),
        "corr_overflow": (
            lambda t: stats_args(t, "corr", fixture_with(t, "stats_table.csv", 1, 1, "1e308"),
                                 "--key-column", "unit", "--x", "x", "--y", "y"),
            ["too large"],
        ),
        "dominance_overflow": (
            lambda t: stats_args(t, "dominance", fixture_with(t, "stats_table.csv", 1, 1, "1e308"),
                                 "--y", "y", "--features", "x,z"),
            ["too large", "sum of squares overflows"],
        ),
        "loess_overflow": (
            lambda t: stats_args(t, "loess", fixture_with(t, "stats_table.csv", 1, 1, "1e308"), "--x", "x", "--y", "y"),
            ["too large", "sum of squares overflows"],
        ),
        "fe_overflow": (
            lambda t: stats_args(t, "fe", fe_panel_with(t, "x_substitute", "1e308"), "--y", "y_pp",
                                 "--x", "x_substitute", "--row-fe", "iso3", "--col-fe", "cell_id"),
            ["regressor values are too large", "sum of squares overflows"],
        ),
        # a finite outcome whose sum of squares overflows would grow trees on NaN split gains
        "forest_overflow": (
            lambda t: stats_args(t, "forest", fixture_with(t, "stats_table.csv", 1, 4, "1e308"),
                                 "--y", "y", "--features", "x,z,w", "--trees", "20"),
            ["outcome values are too large", "sum of squares overflows"],
        ),
        "shap_overflow": (
            lambda t: stats_args(t, "shap", fixture_with(t, "stats_table.csv", 1, 4, "1e308"),
                                 "--y", "y", "--features", "x,z,w", "--trees", "10", "--seeds", "1"),
            ["outcome values are too large", "sum of squares overflows"],
        ),
        "ale_overflow": (
            lambda t: stats_args(t, "ale", fixture_with(t, "stats_table.csv", 1, 4, "1e308"),
                                 "--y", "y", "--features", "x,z,w", "--feature", "x", "--trees", "10"),
            ["outcome values are too large", "sum of squares overflows"],
        ),
        # R^2 cannot be negative: a huge cell must not push the intercept under the rank tolerance
        "dominance_ill_scaled": (
            lambda t: stats_args(t, "dominance", fixture_with(t, "stats_table.csv", 1, 1, "1e100"),
                                 "--y", "y", "--features", "x,z"),
            ["predictor 'x' is ill-scaled", "1e+100"],
        ),
        "fe_large_regressor": (
            lambda t: stats_args(t, "fe", fe_panel_with(t, "x_substitute", "1e155"), "--y", "y_pp",
                                 "--x", "x_substitute", "--row-fe", "iso3", "--col-fe", "cell_id"),
            ["demeaning of the regressor", "1e+155", "absolute tolerance"],
        ),
        "config_nested_json": (
            lambda t: ["ingest", "--labels", fx("labels.jsonl"), "--out", str(t / "out"),
                       "--config", written(t, "config.json", "[" * 100_000 + "]" * 100_000)],
            ["config.json", "nested too deeply"],
        ),
        "lexicon_nested_json": (
            lambda t: ["validate", "screen", "--dataset", fx("labels.jsonl"),
                       "--lexicon", written(t, "lexicon.json", "[" * 100_000 + "]" * 100_000), "--out", str(t / "out")],
            ["lexicon.json", "nested too deeply"],
        ),
        "graph_nested_json": (
            lambda t: apply_args(t, None, "--graph", written(
                t, "graph.jsonl", '{"meta":{}}\n' + "[" * 100_000 + "]" * 100_000 + "\n")),
            ["graph.jsonl", "line 2", "nested too deeply"],
        ),
        "vardecomp_overflow": (
            lambda t: ["stats", "vardecomp", "--matrix", fixture_with(t, "matrix.csv", 1, 1, "1e308"),
                       "--out", str(t / "out.json")],
            ["too large"],
        ),
        "weights_header_only": (
            lambda t: apply_args(t, written(t, "task_weights.csv", "soc,task_id,weight\n")),
            ["no occupations"],
        ),
        "employment_outside_window": (
            lambda t: reweight_args(t, employment_years_later(t, 20)),
            ["coverage kept no employment weight vector", "6 exclusions",
             "first: AAA (total): no year with >= 8 positive cells in (2015, 2025)"],
        ),
        "registry_header_only": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"), "--transitions", "--out", str(t / "out"),
                       "--registry", written(t, "registry.csv", "iso3,name,income_group,region,gdp_per_capita\n")],
            ["the registry names none of the dataset's 6 countries"],
        ),
        "registry_header_only_with_benchmark": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"), "--benchmark", fx("labels.jsonl"),
                       "--out", str(t / "out"),
                       "--registry", written(t, "registry.csv", "iso3,name,income_group,region,gdp_per_capita\n")],
            ["the registry names none of the dataset's 6 countries"],
        ),
        "registry_unclassified_with_benchmark": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"), "--benchmark", fx("labels.jsonl"),
                       "--registry", fixture_with(t, "registry.csv", (1, 2, 3), 2, "unclassified"),
                       "--out", str(t / "out")],
            ["no registered country of the dataset (3) has a classified income group"],
        ),
        "registry_unclassified_transitions": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"), "--transitions", "--out", str(t / "out"),
                       "--registry", fixture_with(t, "registry.csv", (1, 2, 3), 2, "unclassified")],
            ["transitions need countries in at least two income groups; found none"],
        ),
        "registry_one_group_transitions": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"), "--transitions", "--out", str(t / "out"),
                       "--registry", fixture_with(t, "registry.csv", (1, 2, 3), 2, "low")],
            ["transitions need countries in at least two income groups; found low"],
        ),
        "table_field_past_csv_limit": (
            lambda t: stats_args(t, "corr", fixture_with(t, "stats_table.csv", 1, 1, "9" * 140_000),
                                 "--key-column", "unit", "--x", "x", "--y", "y"),
            ["stats_table.csv", "field larger than field limit"],
        ),
        "labels_csv_field_past_csv_limit": (
            lambda t: ["ingest", "--format", "csv", "--out", str(t / "out"), "--labels", written(
                t, "labels.csv", TestInputBoundaries.labels_csv() + "t0000,AAA," + "a" * 140_000 + "\n")],
            ["labels.csv", "field larger than field limit"],
        ),
        "ale_header_only": (
            lambda t: stats_args(t, "ale", written(t, "stats_table.csv", "unit,x,z,w,y\n"), "--y", "y",
                                 "--features", "x,z", "--feature", "x"),
            ["stats_table.csv", "no data rows"],
        ),
        "dominance_header_only": (
            lambda t: stats_args(t, "dominance", written(t, "stats_table.csv", "unit,x,z,w,y\n"), "--y", "y",
                                 "--features", "x,z"),
            ["stats_table.csv", "no data rows"],
        ),
        "forest_header_only": (
            lambda t: stats_args(t, "forest", written(t, "stats_table.csv", "unit,x,z,w,y\n"), "--y", "y",
                                 "--features", "x,z"),
            ["stats_table.csv", "no data rows"],
        ),
        "shap_header_only": (
            lambda t: stats_args(t, "shap", written(t, "stats_table.csv", "unit,x,z,w,y\n"), "--y", "y",
                                 "--features", "x,z"),
            ["stats_table.csv", "no data rows"],
        ),
        "divergence_header_only": (
            lambda t: ["validate", "divergence", "--pairs", written(t, "pairs.csv", "text_a,text_b\n"),
                       "--out", str(t / "divergence.json")],
            ["no rationale pair was scored"],
        ),
        "graph_division_map_list": (
            lambda t: apply_args(t, None, "--graph", written(
                t, "graph.jsonl",
                '{"meta":{"division_map":[1]}}\n{"task_id":"t0000","isic4":"0111","similarity":0.5,"votes":[true]}\n',
            )),
            ["graph.jsonl", "line 1", "'division_map'"],
        ),
        "config_seed": (
            lambda t: ["ingest", "--labels", fx("labels.jsonl"), "--out", str(t / "out"),
                       "--config", written(t, "config.json", '{"seed": "x"}')],
            ["config.json", "'x'"],
        ),
        "lexicon_list": (
            lambda t: ["validate", "screen", "--dataset", fx("labels.jsonl"),
                       "--lexicon", written(t, "lexicon.json", "[1, 2]"), "--out", str(t / "out")],
            ["lexicon.json"],
        ),
        "lexicon_number": (
            lambda t: ["validate", "screen", "--dataset", fx("labels.jsonl"),
                       "--lexicon", written(t, "lexicon.json", '{"r1_level3_denies": 5}'), "--out", str(t / "out")],
            ["lexicon.json"],
        ),
        # a phrase of no word would flag every eligible record
        "lexicon_blank_phrase": (
            lambda t: ["validate", "screen", "--dataset", fx("labels.jsonl"), "--out", str(t / "out"),
                       "--lexicon", written(t, "lexicon.json", '{"r5_notai_invokes_ai": ["ai", " "]}')],
            ["rule r5_notai_invokes_ai", "' '", "no word"],
        ),
        "config_huge_integer": (
            lambda t: ["ingest", "--labels", fx("labels.jsonl"), "--out", str(t / "out"),
                       "--config", written(t, "config.json", '{"seed": %s}' % HUGE_INTEGER)],
            ["config.json is not valid JSON", "digits"],
        ),
        "config_negative_seed": (
            lambda t: ["ingest", "--labels", fx("labels.jsonl"), "--out", str(t / "out"),
                       "--config", written(t, "config.json", '{"seed": -1}')],
            ["config.json", "seed -1"],
        ),
        "config_invalid_utf8": (
            lambda t: ["ingest", "--labels", fx("labels.jsonl"), "--out", str(t / "out"),
                       "--config", written(t, "config.json", b'{"seed": "\xff"}')],
            ["config.json is not valid JSON", "can't decode byte 0xff"],
        ),
        "lexicon_huge_integer": (
            lambda t: ["validate", "screen", "--dataset", fx("labels.jsonl"), "--out", str(t / "out"), "--lexicon",
                       written(t, "lexicon.json", '{"r1_level3_denies": [%s]}' % HUGE_INTEGER)],
            ["lexicon.json is not valid JSON", "digits"],
        ),
        "lexicon_invalid_utf8": (
            lambda t: ["validate", "screen", "--dataset", fx("labels.jsonl"), "--out", str(t / "out"), "--lexicon",
                       written(t, "lexicon.json", b'{"r1_level3_denies": ["\xff"]}')],
            ["lexicon.json is not valid JSON", "can't decode byte 0xff"],
        ),
        "labels_invalid_utf8": (
            lambda t: ["ingest", "--out", str(t / "out"), "--labels", written(
                t, "labels.jsonl", Path(fx("labels.jsonl")).read_bytes() + b'{"task_id": "\xff"}\n')],
            ["labels.jsonl", "not valid UTF-8"],
        ),
        "candidate_huge_integer_field": (
            lambda t: link_args(t, "prune", "--out", str(t / "graph.jsonl"), "--candidates", written(
                t, "c.jsonl",
                '{"meta":{}}\n{"task_id":"t0000","isic4":"0111","similarity":0.5,"n":%s}\n' % HUGE_INTEGER)),
            ["c.jsonl: line 2 is not valid JSON", "digits"],
        ),
        "candidate_similarity_past_float_range": (
            lambda t: link_args(t, "prune", "--out", str(t / "graph.jsonl"), "--candidates", written(
                t, "c.jsonl", '{"meta":{}}\n{"task_id":"t0000","isic4":"0111","similarity":1%s}\n' % ("0" * 400))),
            ["c.jsonl: line 2", "'similarity'"],
        ),
        # link prune carries the retrieval parameters of the meta line into the graph
        "candidates_meta_floor_past_float_range": (
            lambda t: link_args(t, "prune", "--out", str(t / "graph.jsonl"), "--candidates", written(
                t, "c.jsonl", '{"meta":{"floor":1e400}}\n{"task_id":"t0000","isic4":"0111","similarity":0.5}\n')),
            ["c.jsonl: line 1", "'floor'"],
        ),
        "candidates_invalid_utf8": (
            lambda t: link_args(t, "prune", "--out", str(t / "graph.jsonl"), "--candidates", written(
                t, "c.jsonl", b'{"meta":{}}\n{"task_id":"t\xff","isic4":"0111","similarity":0.5}\n')),
            ["c.jsonl: line 2 is not valid JSON", "can't decode byte 0xff"],
        ),
        "graph_vote_not_boolean": (
            lambda t: apply_args(t, None, "--graph", written(
                t, "graph.jsonl",
                '{"meta":{}}\n{"task_id":"t0000","isic4":"0111","similarity":0.5,"votes":["no",0,{}]}\n')),
            ["graph.jsonl: line 2", "'votes'"],
        ),
        "graph_invalid_utf8": (
            lambda t: apply_args(t, None, "--graph", written(t, "graph.jsonl", b'{"meta":{"\xff":1}}\n')),
            ["graph.jsonl: line 1 is not valid JSON", "can't decode byte 0xff"],
        ),
        "embedding_past_float_range": (
            lambda t: replaying(t, "embedding", "[1%s, 1.0]" % ("0" * 400)),
            ["embedding fixture", ".json is not a vector of finite numbers"],
        ),
        "embedding_nested_json": (
            lambda t: replaying(t, "embedding", NESTED),
            ["embedding fixture", ".json is not valid JSON: nested too deeply"],
        ),
        "embedding_invalid_utf8": (
            lambda t: replaying(t, "embedding", b"[\xff]"),
            ["embedding fixture", ".json is not valid JSON", "can't decode byte 0xff"],
        ),
        "vote_nested_json": (
            lambda t: replaying(t, "vote", NESTED),
            ["vote fixture", ".json is not valid JSON: nested too deeply"],
        ),
        "vote_not_json": (
            lambda t: replaying(t, "vote", "{not json"),
            ["vote fixture", ".json is not valid JSON: Expecting property name"],
        ),
        "vote_not_boolean": (
            lambda t: replaying(t, "vote", '"false"'),
            ["vote fixture", ".json is not a JSON boolean"],
        ),
        "vote_invalid_utf8": (
            lambda t: replaying(t, "vote", b"\xff"),
            ["vote fixture", ".json is not valid JSON", "can't decode byte 0xff"],
        ),
        "tasks_repeated_id": (
            lambda t: ["link", "candidates", "--activities", fx("activities.csv"), "--out", str(t / "c.jsonl"),
                       "--tasks", written(t, "tasks.csv", table_text("tasks.csv") + "t0000,another text\n")],
            ["tasks.csv", "'t0000'", "'task_id'", "data row 13"],
        ),
        "activities_repeated_id": (
            lambda t: ["link", "prune", "--tasks", fx("tasks.csv"), "--out", str(t / "graph.jsonl"),
                       "--candidates", written(t, "c.jsonl", table_text("candidates.jsonl")),
                       "--activities",
                       written(t, "activities.csv", table_text("activities.csv") + "0111,another text\n")],
            ["activities.csv", "'0111'", "'isic4'", "data row 5"],
        ),
        # a config key sets the option of that parameter name, through its JSON type and click type
        "config_unknown_key": (
            lambda t: link_args(t, "candidates", "--out", str(t / "c.jsonl"),
                                "--config", written(t, "config.json", '{"top-k": 3}')),
            ["config.json", "'top-k' is not an option"],
        ),
        "config_string_for_integer": (
            lambda t: link_args(t, "candidates", "--out", str(t / "c.jsonl"),
                                "--config", written(t, "config.json", '{"top_k": "3"}')),
            ["config.json", "top_k '3' is not a JSON int"],
        ),
        "config_integer_for_flag": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"), "--out", str(t / "out"),
                       "--config", written(t, "config.json", '{"transitions": 1}')],
            ["config.json", "transitions 1 is not a JSON bool"],
        ),
        "config_out_of_range": (
            lambda t: link_args(t, "candidates", "--out", str(t / "c.jsonl"),
                                "--config", written(t, "config.json", '{"top_k": 0}')),
            ["config.json", "top_k 0", "not in the range x>=1"],
        ),
        # a text option's config value passes the same parse as its flag
        "config_window": (
            lambda t: reweight_args(t, None, None, "--config", written(t, "config.json", '{"window": "2015"}')),
            ["config.json", "window '2015'", "2 values are required"],
        ),
        "config_window_reversed": (
            lambda t: reweight_args(t, None, None, "--config", written(t, "config.json", '{"window": "2025:2015"}')),
            ["config.json", "window '2025:2015'", "first year 2025 is after last year 2015"],
        ),
        "config_seeds": (
            lambda t: stats_args(t, "shap", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--config", written(t, "config.json", '{"seeds": "0,-2"}')),
            ["config.json", "seeds '0,-2'", "-2 is not in the range x>=0"],
        ),
        "config_features": (
            lambda t: stats_args(t, "forest", fx("stats_table.csv"), "--y", "y", "--trees", "3",
                                 "--config", written(t, "config.json", '{"features": ","}')),
            ["config.json", "features ','", "names no column"],
        ),
        "config_embedder": (
            lambda t: link_args(t, "candidates", "--out", str(t / "c.jsonl"),
                                "--config", written(t, "config.json", '{"embedder": "hash:abc"}')),
            ["config.json", "embedder 'hash:abc'", "'abc' is not a valid integer"],
        ),
        "config_embedder_dim_past_range": (
            lambda t: ["validate", "divergence", "--pairs", fx("pairs.csv"), "--out", str(t / "divergence.json"),
                       "--config", written(t, "config.json", '{"embedder": "hash:100000000000"}')],
            ["config.json", "embedder 'hash:100000000000'", "not in the range 1<=x<=4096"],
        ),
        "config_voter": (
            lambda t: prune_args(t, "--config", written(t, "config.json", '{"voter": "hash:nan"}')),
            ["config.json", "voter 'hash:nan'", "'nan' is not a finite number"],
        ),
    }

    OPTIONS = {
        "window": (lambda t: reweight_args(t, None, None, "--window", "2015"), "--window"),
        "window_reversed": (lambda t: reweight_args(t, None, None, "--window", "2025:2015"), "--window"),
        "embedder_dim_text": (
            lambda t: ["link", "candidates", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
                       "--embedder", "hash:x", "--out", str(t / "c.jsonl")],
            "--embedder",
        ),
        "embedder_unknown": (lambda t: link_args(t, "candidates", "--embedder", "foo", "--out", str(t / "c.jsonl")),
                             "--embedder"),
        "voter_replay_without_directory": (lambda t: prune_args(t, "--voter", "replay:"), "--voter"),
        "embedder_dim_negative": (
            lambda t: ["link", "candidates", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
                       "--embedder", "hash:-1", "--out", str(t / "c.jsonl")],
            "--embedder",
        ),
        "embedder_dim_too_large": (
            lambda t: ["validate", "divergence", "--pairs", fx("pairs.csv"), "--embedder", "hash:100000000000",
                       "--out", str(t / "divergence.json")],
            "--embedder",
        ),
        "embedder_dim_past_range": (
            lambda t: link_args(t, "candidates", "--embedder", "hash:4097", "--out", str(t / "c.jsonl")),
            "--embedder",
        ),
        "seeds_empty": (
            lambda t: stats_args(t, "shap", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--seeds", ""),
            "--seeds",
        ),
        "features_empty": (
            lambda t: stats_args(t, "forest", fx("stats_table.csv"), "--y", "y", "--features", ",", "--trees", "3"),
            "--features",
        ),
        # a repeated feature would key two results to one name, and dominance contributions would not sum to R^2
        "features_repeated_forest": (
            lambda t: stats_args(t, "forest", fx("stats_table.csv"), "--y", "y", "--features", "x,x,z", "--trees", "3"),
            "--features",
        ),
        "features_repeated_shap": (
            lambda t: stats_args(t, "shap", fx("stats_table.csv"), "--y", "y", "--features", "x,x,z", "--trees", "3"),
            "--features",
        ),
        "features_repeated_dominance": (
            lambda t: stats_args(t, "dominance", fx("stats_table.csv"), "--y", "y", "--features", "x,z, x"),
            "--features",
        ),
        # a repeated seed would fit its forest twice and weigh it double in the mean
        "seeds_repeated": (
            lambda t: stats_args(t, "shap", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--seeds", "0,1,1"),
            "--seeds",
        ),
        "level": (lambda t: stats_args(t, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y", "--level", "2"),
                  "--level"),
        "bins": (
            lambda t: stats_args(t, "ale", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--feature", "x",
                                 "--trees", "3", "--bins", "0"),
            "--bins",
        ),
        "repeats": (
            lambda t: stats_args(t, "forest", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--repeats", "0"),
            "--repeats",
        ),
        "seed_negative_forest": (
            lambda t: stats_args(t, "forest", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--seed", "-1"),
            "--seed",
        ),
        "seed_negative_loess": (
            lambda t: stats_args(t, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y", "--resamples", "3",
                                 "--seed", "-1"),
            "--seed",
        ),
        "seeds_negative": (
            lambda t: stats_args(t, "shap", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--seeds=-1"),
            "--seeds",
        ),
        "seeds_one_negative": (
            lambda t: stats_args(t, "shap", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--seeds", "0,-2"),
            "--seeds",
        ),
        # float options are finite: NaN passes a FloatRange, and float() takes both
        "floor_inf": (lambda t: link_args(t, "candidates", "--floor", "inf", "--out", str(t / "c.jsonl")), "--floor"),
        "floor_nan": (lambda t: link_args(t, "candidates", "--floor", "nan", "--out", str(t / "c.jsonl")), "--floor"),
        "jaccard_threshold_nan": (
            lambda t: ["validate", "divergence", "--pairs", fx("pairs.csv"), "--jaccard-threshold", "nan",
                       "--out", str(t / "divergence.json")],
            "--jaccard-threshold",
        ),
        "cosine_threshold_inf": (
            lambda t: ["validate", "divergence", "--pairs", fx("pairs.csv"), "--cosine-threshold", "inf",
                       "--out", str(t / "divergence.json")],
            "--cosine-threshold",
        ),
        "voter_rate_nan": (
            lambda t: link_args(t, "prune", "--candidates", written(t, "c.jsonl", table_text("candidates.jsonl")),
                                "--voter", "hash:nan", "--out", str(t / "graph.jsonl")),
            "--voter",
        ),
        "span_nan": (lambda t: stats_args(t, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y", "--span", "nan"),
                     "--span"),
        "level_nan": (lambda t: stats_args(t, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y", "--level", "nan"),
                      "--level"),
        # each count option declares its domain as a click range
        "top_k_zero": (lambda t: link_args(t, "candidates", "--top-k", "0", "--out", str(t / "c.jsonl")), "--top-k"),
        "votes_zero": (lambda t: prune_args(t, "--votes", "0"), "--votes"),
        "votes_even": (lambda t: prune_args(t, "--votes", "2"), "--votes"),
        "span_two": (lambda t: stats_args(t, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y", "--span", "2"),
                     "--span"),
        "resamples_zero": (
            lambda t: stats_args(t, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y", "--resamples", "0"),
            "--resamples",
        ),
        "trees_zero": (lambda t: forest_args(t, "--trees", "0"), "--trees"),
        "min_leaf_zero": (lambda t: forest_args(t, "--min-leaf", "0"), "--min-leaf"),
        "max_depth_zero": (lambda t: forest_args(t, "--max-depth", "0"), "--max-depth"),
        "mtry_zero": (lambda t: forest_args(t, "--mtry", "0"), "--mtry"),
        "top_pockets_zero": (lambda t: apply_args(t, None, "--top-pockets", "0"), "--top-pockets"),
        "top_pockets_negative": (lambda t: apply_args(t, None, "--top-pockets", "-1"), "--top-pockets"),
        "min_groups_negative": (lambda t: reweight_args(t, None, None, "--min-groups", "-1"), "--min-groups"),
    }

    @pytest.mark.parametrize("case", sorted(INPUTS))
    def test_bad_input_exits_two_naming_it(self, tmp_path, capsys, case):
        build, fragments = self.INPUTS[case]
        assert main(build(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        for fragment in fragments:
            assert fragment in err

    @pytest.mark.parametrize("case", sorted(OPTIONS))
    def test_bad_option_value_exits_one_naming_it(self, tmp_path, capsys, case):
        build, option = self.OPTIONS[case]
        assert main(build(tmp_path)) == 1
        assert f"Invalid value for '{option}'" in capsys.readouterr().err

    def test_bad_env_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ATLAS_SEED", "abc")
        assert main(["ingest", "--labels", fx("labels.jsonl"), "--out", str(tmp_path)]) == 1
        assert "'--seed'" in capsys.readouterr().err

    def test_negative_env_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ATLAS_SEED", "-1")
        assert main(stats_args(tmp_path, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y")) == 1
        assert "Invalid value for '--seed'" in capsys.readouterr().err

    def test_non_utf8_table_exits_two(self, tmp_path):
        path = tmp_path / "cell_values.csv"
        path.write_bytes(Path(fx("cell_values.csv")).read_bytes() + b"AAA,isco\xff,1,1,1,1\n")
        assert main(reweight_args(tmp_path, None, str(path))) == 2

    def test_library_key_error_is_internal(self, tmp_path, monkeypatch, capsys):
        def broken(dataset):
            raise KeyError("bug")

        monkeypatch.setattr("taskatlas.aggregate.summarize_all", broken)
        rc = main(["summarize", "--dataset", fx("labels.jsonl"), "--out", str(tmp_path)])
        assert rc == 3
        assert "internal error: KeyError" in capsys.readouterr().err

    def test_non_finite_csv_cell_is_internal(self, tmp_path, monkeypatch, capsys):
        panel = reweight.gender_fe_panel

        def overflowing(*args):
            result = panel(*args)
            result.matrix[0, 0] = math.inf  # y_pp
            return result

        monkeypatch.setattr(reweight, "gender_fe_panel", overflowing)
        assert main(reweight_args(tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ValueError") and "fe_panel.csv" in err and "'y_pp'" in err


def link_args(t: Path, command: str, *extra) -> list:
    """A ``link candidates`` or ``link prune`` run over the fixture tasks and activities."""
    return ["link", command, "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"), *extra]


def prune_args(t: Path, *extra) -> list:
    """A ``link prune`` run over the BUILT candidates, writing ``graph.jsonl``."""
    return link_args(t, "prune", "--candidates", written(t, "c.jsonl", table_text("candidates.jsonl")), *extra,
                     "--out", str(t / "graph.jsonl"))


def forest_args(t: Path, *extra) -> list:
    """A small ``stats forest`` run over the fixture stats table."""
    return stats_args(t, "forest", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3", *extra)


#: the intermediate inputs, and the commands that write them from the fixtures into a scratch directory
BUILT = {
    "fe_panel.csv": [reweight_args],
    "candidates.jsonl": [
        lambda t: link_args(t, "candidates", "--top-k", "3", "--floor", "-1.0", "--out", str(t / "candidates.jsonl")),
    ],
    "graph.jsonl": [
        lambda t: link_args(t, "candidates", "--top-k", "3", "--floor", "-1.0", "--out", str(t / "candidates.jsonl")),
        lambda t: link_args(t, "prune", "--candidates", str(t / "candidates.jsonl"), "--out", str(t / "graph.jsonl")),
    ],
}


@functools.lru_cache(maxsize=None)
def table_text(name: str) -> str:
    """A fixture input's text; those in BUILT are the ones their commands write."""
    if name not in BUILT:
        return Path(fx(name)).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as scratch:
        t = Path(scratch)
        for command in BUILT[name]:
            assert main(command(t)) == 0
        return next(t.rglob(name)).read_text(encoding="utf-8")


#: per consumer: the table it reads, and its command given a scratch directory and the table's path
CONSUMERS = {
    "employment.csv": ("employment.csv", lambda t, path: reweight_args(t, path)),
    "cell_values.csv": ("cell_values.csv", lambda t, path: reweight_args(t, None, path)),
    "task_weights.csv": ("task_weights.csv", lambda t, path: apply_args(t, path)),
    "bridge.csv": ("bridge.csv", lambda t, path: ["link", "apply", "--dataset", fx("labels.jsonl"), "--weights",
                                                  fx("task_weights.csv"), "--bridge", path, "--out", str(t / "out")]),
    "registry.csv": ("registry.csv", lambda t, path: ["summarize", "--dataset", fx("labels.jsonl"), "--registry", path,
                                                      "--transitions", "--out", str(t / "out")]),
    "stats corr": ("stats_table.csv", lambda t, path: stats_args(t, "corr", path, "--key-column", "unit", "--x", "x",
                                                                 "--y", "y", "--controls", "z", "--loo")),
    "stats vardecomp": ("matrix.csv", lambda t, path: ["stats", "vardecomp", "--matrix", path, "--out", str(t / "out.json")]),
    "stats forest": ("stats_table.csv", lambda t, path: stats_args(t, "forest", path, "--y", "y", "--features", "x,z,w",
                                                                   "--trees", "4", "--repeats", "2")),
    "stats shap": ("stats_table.csv", lambda t, path: stats_args(t, "shap", path, "--y", "y", "--features", "x,z,w",
                                                                 "--trees", "2", "--seeds", "0,1")),
    "stats ale": ("stats_table.csv", lambda t, path: stats_args(t, "ale", path, "--y", "y", "--features", "x,z,w",
                                                                "--feature", "x", "--trees", "3", "--bins", "4")),
    "stats loess": ("stats_table.csv", lambda t, path: stats_args(t, "loess", path, "--x", "x", "--y", "y",
                                                                  "--resamples", "4")),
    "stats dominance": ("stats_table.csv", lambda t, path: stats_args(t, "dominance", path, "--y", "y",
                                                                      "--features", "x,z,w")),
    "stats fe": ("fe_panel.csv", lambda t, path: stats_args(t, "fe", path, "--y", "y_pp", "--x", "x_substitute",
                                                            "--row-fe", "iso3", "--col-fe", "cell_id")),
    "pairs.csv": ("pairs.csv", lambda t, path: ["validate", "divergence", "--pairs", path, "--out", str(t / "out.json")]),
    "tasks.csv": ("tasks.csv", lambda t, path: ["link", "candidates", "--tasks", path, "--activities",
                                                fx("activities.csv"), "--floor", "-1.0", "--out", str(t / "out.jsonl")]),
    "activities.csv": ("activities.csv", lambda t, path: ["link", "candidates", "--tasks", fx("tasks.csv"),
                                                          "--activities", path, "--floor", "-1.0",
                                                          "--out", str(t / "out.jsonl")]),
    "labels.jsonl": ("labels.jsonl", lambda t, path: ["ingest", "--labels", path, "--out", str(t / "out")]),
    "candidates.jsonl": ("candidates.jsonl", lambda t, path: link_args(t, "prune", "--candidates", path,
                                                                       "--out", str(t / "out.jsonl"))),
    "graph.jsonl": ("graph.jsonl", lambda t, path: ["link", "apply", "--dataset", fx("labels.jsonl"), "--graph", path,
                                                    "--out", str(t / "out")]),
}
#: per CSV table: the column of the data row 1 cell its loader checks, or None if it checks no cell
CHECKED_CELL = {
    "employment.csv": 4, "cell_values.csv": 2, "task_weights.csv": 2, "bridge.csv": 2, "registry.csv": 4,
    "stats_table.csv": 1, "matrix.csv": 1, "fe_panel.csv": 2, "pairs.csv": None, "tasks.csv": None,
    "activities.csv": None,
}


@pytest.mark.parametrize("consumer", sorted(c for c, (name, _) in CONSUMERS.items() if name in CHECKED_CELL))
def test_a_short_row_is_refused_before_any_cell(tmp_path, capsys, consumer):
    """With a bad cell in data row 1 and a short data row 3, every table loader
    refuses the table for the short row: a table is checked whole before any
    of its cells is read."""
    name, command = CONSUMERS[consumer]
    lines = table_text(name).splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    if CHECKED_CELL[name] is not None:
        cells = lines[header + 1].split(",")
        cells[CHECKED_CELL[name]] = "abc"
        lines[header + 1] = ",".join(cells)
    lines[header + 3] = lines[header + 3].rsplit(",", 1)[0]
    table = written(tmp_path, name, "\n".join(lines) + "\n")
    assert main(command(tmp_path, table)) == 2
    assert f"{table}: data row 3 is not as wide as the header" in capsys.readouterr().err


def non_finite_cells(root: Path, echoed: Sequence[str]) -> list[str]:
    """Numeric cells in the outputs under ``root`` that are NaN or infinite.

    A CSV cell equal to a drawn text is an echoed key (say an iso3 of
    ``nan``), not a computed number.
    """
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    found = []
    for path in sorted(p for out in root.glob("out*") for p in [out, *out.rglob("*")]):
        if path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
        elif path.suffix == ".jsonl":
            for line in path.read_text(encoding="utf-8").splitlines():
                if not line.startswith("#"):
                    json.loads(line, parse_constant=reject)
        elif path.suffix == ".csv":
            lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
            for row in csv.reader(lines):
                for cell in row:
                    if any(cell in (text, text.strip()) for text in echoed):
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        found.append(f"{path.name}: {cell}")
    return found


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_bad_cell_exits_zero_or_two_with_finite_outputs(data):
    """Cut a consumer's table to its header (a JSONL file to its first line),
    or not; then replace, drop or add one comma-separated cell of it, or two:
    the consuming command exits 0 or 2, never 3, and a success writes no
    non-finite number."""
    consumer = data.draw(st.sampled_from(sorted(CONSUMERS)), label="consumer")
    name, command = CONSUMERS[consumer]
    lines = table_text(name).splitlines()
    if data.draw(st.integers(0, 7), label="header only") == 0:
        lines = lines[:next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1]
    texts = []
    for _ in range(data.draw(st.integers(1, 2), label="cells")):
        line = data.draw(st.integers(0, len(lines) - 1), label="line")
        cells = lines[line].split(",")
        action = data.draw(st.sampled_from(["replace", "drop", "add"]), label="action")
        texts.append(data.draw(CELL_TEXT, label="text"))
        if action == "add":
            cells.append(texts[-1])
        else:
            col = data.draw(st.integers(0, len(cells) - 1), label="column")
            if action == "drop":
                del cells[col]
            else:
                cells[col] = texts[-1]
        lines[line] = ",".join(cells)
    with tempfile.TemporaryDirectory() as scratch:
        t = Path(scratch)
        table = t / name
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(command(t, str(table)))
        assert rc in (0, 2)
        if rc == 0:
            assert non_finite_cells(t, texts) == []


#: per JSON input: its files by name (each line of a .jsonl file is one JSON
#: value), and its command given a scratch directory and the directory holding them
JSON_CONSUMERS = {
    "config": (
        lambda: {"config.json": Path(fx("config.json")).read_bytes()},
        lambda t, d: stats_args(t, "loess", fx("stats_table.csv"), "--x", "x", "--y", "y", "--resamples", "4",
                                "--config", str(d / "config.json")),
    ),
    "lexicon": (
        lambda: {"lexicon.json": json.dumps(DEFAULT_LEXICON).encode("utf-8")},
        lambda t, d: ["validate", "screen", "--dataset", fx("labels.jsonl"), "--lexicon", str(d / "lexicon.json"),
                      "--out", str(t / "out")],
    ),
    "label line": (
        lambda: {"labels.jsonl": table_text("labels.jsonl").encode("utf-8")},
        lambda t, d: CONSUMERS["labels.jsonl"][1](t, str(d / "labels.jsonl")),
    ),
    "candidates line": (
        lambda: {"candidates.jsonl": table_text("candidates.jsonl").encode("utf-8")},
        lambda t, d: CONSUMERS["candidates.jsonl"][1](t, str(d / "candidates.jsonl")),
    ),
    "graph line": (
        lambda: {"graph.jsonl": table_text("graph.jsonl").encode("utf-8")},
        lambda t, d: CONSUMERS["graph.jsonl"][1](t, str(d / "graph.jsonl")),
    ),
    "embedding fixture": (lambda: replay_fixtures("embedding"), lambda t, d: replay_args(t, "embedding", d)),
    "vote fixture": (lambda: replay_fixtures("vote"), lambda t, d: replay_args(t, "vote", d)),
}
#: a JSON text, or bytes that are not one, that stands in for one value of a JSON input
JSON_TEXT = st.sampled_from([
    HUGE_INTEGER, "-" + HUGE_INTEGER, "1" + "0" * 400, "-1" + "0" * 400, "1e400", "NaN", "Infinity", "-Infinity",
    NESTED, '"nan"', '"inf"', '""', "[]", "{}", "null", "true", "false", "0", "-1", '"bad \\ud800 x"',
]).map(str.encode) | st.sampled_from([b"\xff", b'"\xc3"', b'"\xed\xa0\x80"', b"[1,]", b"{not json"]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=3), values, max_size=3),
    max_leaves=6,
).map(lambda value: json.dumps(value).encode("utf-8"))


def spliced(value, data) -> bytes:
    """``value`` as JSON with one value in it, the whole or a field at some
    depth, replaced by a drawn JSON_TEXT."""
    path, node = [], value
    for _ in range(data.draw(st.integers(0, 3), label="depth")):
        if not (isinstance(node, (dict, list)) and node):
            break
        path.append(data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))),
                              label="field"))
        node = node[path[-1]]
    text = data.draw(JSON_TEXT, label="text")
    if not path:
        return text
    marker = "\x00splice\x00"
    copy = json.loads(json.dumps(value))
    functools.reduce(operator.getitem, path[:-1], copy)[path[-1]] = marker
    return json.dumps(copy, ensure_ascii=False).encode("utf-8").replace(json.dumps(marker).encode("utf-8"), text)


def strings_in(text: bytes) -> list[str]:
    """The strings, keys included, in a JSON text; none if it is not one."""
    try:
        found, stack = [], [json.loads(text)]
    except (ValueError, RecursionError):
        return []
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            found.append(value)
        elif isinstance(value, dict):
            found += value
            stack += value.values()
        elif isinstance(value, list):
            stack += value
    return found


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_bad_json_value_exits_zero_or_two_with_finite_outputs(data):
    """Replace one value of a JSON input (a field of a config, lexicon or
    replay fixture, or of one line of a JSONL input, or the whole of it) with
    a drawn text: a huge or non-finite number, deep nesting, a value of another
    type, or bytes that are not JSON or not UTF-8. The consuming command exits
    0 or 2, never 3, and a success writes no non-finite number."""
    consumer = data.draw(st.sampled_from(sorted(JSON_CONSUMERS)), label="consumer")
    files, command = JSON_CONSUMERS[consumer]
    files = dict(files())
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    if name.endswith(".jsonl"):
        lines = files[name].split(b"\n")
        line = data.draw(st.sampled_from([i for i, text in enumerate(lines) if text and not text.startswith(b"#")]),
                         label="line")
        text = lines[line] = spliced(json.loads(lines[line]), data)
        files[name] = b"\n".join(lines)
    else:
        text = files[name] = spliced(json.loads(files[name]), data)
    with tempfile.TemporaryDirectory() as scratch:
        t = Path(scratch)
        (t / "in").mkdir()
        for file, content in files.items():
            written(t / "in", file, content)
        rc = main(command(t, t / "in"))
        assert rc in (0, 2)
        if rc == 0:
            assert non_finite_cells(t, strings_in(text)) == []


#: a table cell as the library hands it to the CSV writer
CSV_VALUE = (
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1e308, 0.1 + 0.2])
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.text(alphabet=st.sampled_from('ab ,"\n\r#'), max_size=5)
)
#: per column, the values it draws: one type only (the writer's column fast paths) or any mix
CSV_COLUMN = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-300, 5e-324, 0.1 + 0.2]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(alphabet=st.sampled_from('ab ,"\n'), max_size=4),
    st.integers(-10**20, 10**20),
    CSV_VALUE,
])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_column_writer_matches_dict_writer(data):
    """The writer, given a table as columns, gives the bytes of the row-dict
    writer (DictWriter with every cell through _fmt, a missing key read as
    None), and refuses a non-finite float with _fmt's error for the first one
    in row order, then in field order."""
    from taskatlas.files import _fmt, write_csv

    fieldnames = data.draw(st.lists(st.sampled_from(["a", "b", "c,d", 'e"f']), min_size=1, max_size=4), label="fields")
    columns = {name: data.draw(CSV_COLUMN, label="column") for name in fieldnames}
    rows = [
        {name: data.draw(values) for name, values in columns.items() if data.draw(st.integers(0, 9), label="set")}
        for _ in range(data.draw(st.integers(0, 6), label="rows"))
    ]
    for _ in range(data.draw(st.integers(0, 2), label="non-finite") if rows else 0):
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.sampled_from(fieldnames))] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "table.csv"
        columns = [[row.get(name) for row in rows] for name in fieldnames]
        try:
            expected = naive_write_csv(fieldnames, rows, _fmt, path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                write_csv(path, META, fieldnames, columns)
            assert str(raised.value) == str(exc)
            assert not path.exists()
        else:
            write_csv(path, META, fieldnames, columns)
            header = "".join(f"# {key}: {value}\n" for key, value in META.items())
            assert path.read_bytes() == (header + expected).encode("utf-8")


def digest_of(path: Path) -> str:
    """The config digest in the header of the output file ``path``."""
    return re.search(r'config_digest"?: ?"?([0-9a-f]{16})', path.read_text(encoding="utf-8")).group(1)


class TestConfigDigest:
    """The digest covers every option of a command except input and output locations."""

    #: per case: a command given its scratch directory and extra flags, its output, and two sets of flags
    OPTION_PAIRS = {
        "top_pockets": (lambda t, *extra: apply_args(t, None, *extra), "out/pockets_occupation.csv",
                        ["--top-pockets", "2"], ["--top-pockets", "5"]),
        "loo": (lambda t, *extra: stats_args(t, "corr", fx("stats_table.csv"), "--key-column", "unit", "--x", "x",
                                             "--y", "y", *extra), "out.json", [], ["--loo"]),
    }

    @pytest.mark.parametrize("case", sorted(OPTION_PAIRS))
    def test_an_option_that_changes_the_output_changes_the_digest(self, tmp_path, case):
        build, output, *flag_sets = self.OPTION_PAIRS[case]
        outputs = []
        for n, flags in enumerate(flag_sets):
            (tmp_path / str(n)).mkdir()
            assert main(build(tmp_path / str(n), *flags)) == 0
            outputs.append(tmp_path / str(n) / output)
        assert outputs[0].read_bytes() != outputs[1].read_bytes()
        assert digest_of(outputs[0]) != digest_of(outputs[1])

    #: per case: a command given its inputs and output directories, and its output there
    LOCATED = {
        "link_apply": (
            lambda i, o: ["link", "apply", "--dataset", i / "labels.jsonl", "--weights", i / "task_weights.csv",
                          "--bridge", i / "bridge.csv", "--out", o],
            "occupation_summary.csv",
        ),
        "link_candidates_replay": (
            lambda i, o: ["link", "candidates", "--tasks", i / "tasks.csv", "--activities", i / "activities.csv",
                          "--embedder", f"replay:{i / 'embedding'}", "--out", o / "candidates.jsonl"],
            "candidates.jsonl",
        ),
        "link_prune_replay": (
            lambda i, o: ["link", "prune", "--candidates", i / "candidates.jsonl", "--tasks", i / "tasks.csv",
                          "--activities", i / "activities.csv", "--voter", f"replay:{i / 'vote'}",
                          "--out", o / "graph.jsonl"],
            "graph.jsonl",
        ),
        "validate_paraphrase": (
            lambda i, o: ["validate", "paraphrase", "--original", i / "labels.jsonl", "--variant", i / "labels.jsonl",
                          "--variant", i / "labels.jsonl", "--out", o / "paraphrase.json"],
            "paraphrase.json",
        ),
    }

    @pytest.mark.parametrize("case", sorted(LOCATED))
    def test_input_and_output_locations_leave_the_digest_unchanged(self, tmp_path, case):
        build, output = self.LOCATED[case]
        digests = []
        for side in ("a", "b"):
            inputs = tmp_path / side / "inputs"
            shutil.copytree(FIXTURES, inputs)
            written(inputs, "candidates.jsonl", table_text("candidates.jsonl"))
            for kind in ("embedding", "vote"):
                (inputs / kind).mkdir()
                for name, data in replay_fixtures(kind).items():
                    written(inputs / kind, name, data)
            out = tmp_path / side / f"out-{side}"
            assert main([*map(str, build(inputs, out)), "--config", str(inputs / "config.json")]) == 0
            digests.append(digest_of(out / output))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("flags, top_k", [([], 1), (["--top-k", "2"], 2)])
    def test_a_config_key_sets_its_option_and_a_flag_beats_it(self, tmp_path, flags, top_k):
        """A config's ``top_k`` and ``floor`` write the bytes, digest included,
        of the same values given as flags; a flag given too replaces its key."""
        config = written(tmp_path, "config.json", '{"top_k": 1, "floor": -1}')
        configured, flagged = tmp_path / "configured.jsonl", tmp_path / "flagged.jsonl"
        assert main(link_args(tmp_path, "candidates", "--config", config, *flags, "--out", str(configured))) == 0
        assert main(link_args(tmp_path, "candidates", "--top-k", "1", "--floor", "-1", *flags,
                              "--out", str(flagged))) == 0
        assert configured.read_bytes() == flagged.read_bytes()
        assert json.loads(configured.read_text(encoding="utf-8").splitlines()[0])["meta"]["top_k"] == top_k

    def test_every_command_takes_config_and_seed_and_has_help(self, capsys):
        commands = list(leaf_commands(cli))
        assert len(commands) == 20
        for path, command in commands:
            flags = {flag for param in command.params for flag in param.opts}
            assert {"--config", "--seed"} <= flags, path
            assert main([*path, "--help"]) == 0, path

    def test_every_option_is_named_by_its_flag_and_bounded_by_its_type(self):
        """An option's parameter name is its flag name (its config and digest
        key), and a numeric option's click type declares its domain."""
        from taskatlas.cli import _FiniteFloat

        for path, command in leaf_commands(cli):
            for param in command.params:
                assert param.name == param.opts[0].lstrip("-").replace("-", "_"), (path, param.opts)
                if isinstance(param.type, click.types.IntParamType):
                    assert isinstance(param.type, click.IntRange), (path, param.opts)
                if isinstance(param.type, click.types.FloatParamType):
                    assert isinstance(param.type, _FiniteFloat), (path, param.opts)


def leaf_commands(group: click.Group, path: tuple = ()):
    """Each command under ``group`` that is not a group, with its path of names."""
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from leaf_commands(command, (*path, name))
        else:
            yield (*path, name), command


class TestNoEmptyOrPartialOutput:
    """An empty link artifact is refused unwritten, and a command loads and
    checks every input before its first write, so exit 2 leaves no table."""

    def test_candidates_with_no_edge_exit_two_unwritten(self, tmp_path, capsys):
        out = tmp_path / "candidates.jsonl"
        assert main(link_args(tmp_path, "candidates", "--out", str(out))) == 2
        err = capsys.readouterr().err
        assert "--floor 0.3" in err and "--top-k 60" in err
        assert not out.exists()

    def test_prune_retaining_no_edge_exits_two_unwritten(self, tmp_path, capsys):
        assert main(prune_args(tmp_path, "--voter", "hash:0")) == 2
        err = capsys.readouterr().err
        assert "--voter hash:0" in err and "--votes 3" in err
        assert not (tmp_path / "graph.jsonl").exists()

    FAILING = {
        "summarize_benchmark_without_registry": (
            lambda t: ["summarize", "--dataset", fx("labels.jsonl"), "--benchmark", fx("labels.jsonl"),
                       "--out", str(t / "out")],
            "--benchmark needs --registry",
        ),
        "apply_graph_without_edges": (
            lambda t: apply_args(t, None, "--graph", written(t, "graph.jsonl", '{"meta":{}}\n')),
            "industry graph has no retained edges",
        ),
        "apply_with_neither_weights_nor_graph": (
            lambda t: ["link", "apply", "--dataset", fx("labels.jsonl"), "--out", str(t / "out")],
            "link apply needs --weights, --graph or both",
        ),
        "apply_bridge_without_weights": (
            lambda t: ["link", "apply", "--dataset", fx("labels.jsonl"), "--bridge", fx("bridge.csv"), "--graph",
                       written(t, "graph.jsonl", '{"meta":{}}\n{"task_id":"t0000","isic4":"0111","similarity":0.5,'
                                                 '"votes":[true]}\n'), "--out", str(t / "out")],
            "--bridge needs --weights",
        ),
        # an option that a run would ignore is refused before any input is read (the dataset is missing), even
        # when it is given at its default value
        "apply_bridge_variant_without_bridge": (
            lambda t: unread_apply_args(t, "--bridge-variant", "weighted"),
            "--bridge-variant needs --bridge",
        ),
        "apply_top_pockets_without_bridge": (
            lambda t: unread_apply_args(t, "--top-pockets", "10"),
            "--top-pockets needs --bridge",
        ),
        "apply_both_bridge_options_without_bridge": (
            lambda t: unread_apply_args(t, "--top-pockets", "3", "--bridge-variant", "modal"),
            "--bridge-variant and --top-pockets need --bridge",
        ),
        "apply_configured_top_pockets_without_bridge": (
            lambda t: unread_apply_args(t, "--config", written(t, "config.json", '{"top_pockets": 10}')),
            "--top-pockets needs --bridge",
        ),
        "summarize_transitions_without_registry": (
            lambda t: ["summarize", "--dataset", str(t / "missing.jsonl"), "--transitions", "--out", str(t / "out")],
            "--transitions needs --registry",
        ),
        "distribution_group_by_without_registry": (
            lambda t: ["validate", "distribution", "--dataset", str(t / "missing.jsonl"), "--group-by", "region",
                       "--out", str(t / "out" / "distribution.json")],
            "--group-by and --registry go together",
        ),
        "distribution_registry_without_group_by": (
            lambda t: ["validate", "distribution", "--dataset", str(t / "missing.jsonl"), "--registry",
                       str(t / "missing.csv"), "--out", str(t / "out" / "distribution.json")],
            "--group-by and --registry go together",
        ),
        "summarize_configured_transitions_without_registry": (
            lambda t: ["summarize", "--dataset", str(t / "missing.jsonl"), "--config",
                       written(t, "config.json", '{"transitions": true}'), "--out", str(t / "out")],
            "--transitions needs --registry",
        ),
        "distribution_configured_group_by_without_registry": (
            lambda t: ["validate", "distribution", "--dataset", str(t / "missing.jsonl"), "--config",
                       written(t, "config.json", '{"group_by": "region"}'),
                       "--out", str(t / "out" / "distribution.json")],
            "--group-by and --registry go together",
        ),
    }

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_a_failed_run_leaves_no_table(self, tmp_path, capsys, case):
        build, message = self.FAILING[case]
        assert main(build(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").rglob("*")) == []


def replay_embedder(t: Path, texts: Sequence[str], scale: float) -> str:
    """A ``replay:`` embedder spec serving each of ``texts`` its 8-dimensional
    hash embedding times ``scale``."""
    from taskatlas.linkage import HashEmbedder

    directory = t / f"embeddings-{scale}"
    directory.mkdir()
    for text, vector in zip(texts, HashEmbedder(dim=8).embed_many(texts)):
        record_embedding(directory, text, (vector * scale).tolist())
    return f"replay:{directory}"


def candidate_similarities(t: Path, scale: float) -> list:
    """The (task_id, isic4) pairs and similarities of ``link candidates`` over embeddings times ``scale``."""
    tables = [list(csv.reader(io.StringIO(table_text(name)))) for name in ("tasks.csv", "activities.csv")]
    texts = [text for table in tables for _, text in table[1:]]
    out = t / f"candidates-{scale}.jsonl"
    assert main(link_args(t, "candidates", "--top-k", "3", "--floor", "-1", "--embedder",
                          replay_embedder(t, texts, scale), "--out", str(out))) == 0
    edges = map(json.loads, out.read_text(encoding="utf-8").splitlines()[1:])
    return [((edge["task_id"], edge["isic4"]), edge["similarity"]) for edge in edges]


def divergence_cosines(t: Path, scale: float) -> list:
    """The Jaccard and cosine of each pair of ``validate divergence`` over embeddings times ``scale``."""
    pairs = list(csv.DictReader(io.StringIO(table_text("pairs.csv"))))
    texts = {text for pair in pairs for text in (pair["text_a"], pair["text_b"])}
    out = t / f"divergence-{scale}.json"
    assert main(["validate", "divergence", "--pairs", fx("pairs.csv"), "--embedder",
                 replay_embedder(t, sorted(texts), scale), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["data"]
    return [(pair["jaccard"], pair["cosine"]) for pair in report["pairs"]]


class TestEmbeddingScale:
    """Embeddings whose squared norm overflows or underflows give the
    similarities of the same directions at unit scale."""

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("similarities", [candidate_similarities, divergence_cosines])
    def test_scaled_embeddings_give_unscaled_similarities(self, tmp_path, similarities, scale):
        (key_scaled, value_scaled), (key_unit, value_unit) = (
            zip(*similarities(tmp_path, s)) for s in (scale, 1.0)
        )
        assert key_scaled == key_unit
        assert value_scaled == pytest.approx(value_unit, rel=1e-12, abs=1e-12)


class TestReplayDivergence:
    """``validate divergence --embedder replay:<dir>`` asks for the embeddings
    of scored pairs only, in pair order, each pair's a then b."""

    SKIPPED = ("the of and", "welding pipes by hand")
    SCORED = [("robots weld the seams", "welders weld by hand"), ("models draft letters", "clerks draft letters")]

    def run(self, t: Path, recorded: Sequence[str]) -> int:
        from taskatlas.linkage import HashEmbedder

        pairs = [self.SCORED[0], self.SKIPPED, self.SCORED[1]]
        table = "text_a,text_b\n" + "".join(f"{a},{b}\n" for a, b in pairs)
        (t / "fixtures").mkdir()
        for text, vector in zip(recorded, HashEmbedder(dim=8).embed_many(recorded)):
            record_embedding(t / "fixtures", text, vector.tolist())
        return main(["validate", "divergence", "--pairs", written(t, "pairs.csv", table),
                     "--embedder", f"replay:{t / 'fixtures'}", "--out", str(t / "divergence.json")])

    def test_a_skipped_pair_needs_no_fixture(self, tmp_path, capsys):
        assert self.run(tmp_path, [text for pair in self.SCORED for text in pair]) == 0
        assert capsys.readouterr().out == "2 pairs scored, 1 skipped\n"
        report = json.loads((tmp_path / "divergence.json").read_text(encoding="utf-8"))["data"]
        assert [pair["cosine"] is not None for pair in report["pairs"]] == [True, True]

    def test_a_scored_pair_without_a_fixture_exits_two(self, tmp_path, capsys):
        missing = self.SCORED[1][1]
        assert self.run(tmp_path, [*self.SCORED[0], *self.SKIPPED, self.SCORED[1][0]]) == 2
        digest = hashlib.sha256(missing.encode("utf-8")).hexdigest()
        assert capsys.readouterr().err == f"input error: no embedding fixture for input digest {digest[:12]}...\n"
        assert not (tmp_path / "divergence.json").exists()


#: floats json.dumps writes in its own ways: a signed zero, the smallest
#: subnormal, a float near the top of the range and one with 17 digits
JSON_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0]) | st.floats(allow_nan=False,
                                                                                       allow_infinity=False)
MENTIONS = st.sampled_from([None, True, False])
QUADRANTS = ("low_jaccard/low_cosine", "low_jaccard/high_cosine", "high_jaccard/low_cosine", "high_jaccard/high_cosine")


def divergence_report(pairs, quadrants=None, n_skipped: int = 3, thresholds=(0.4, 0.55), digest: str = "ab" * 32):
    """A report of ``pairs``, each (jaccard, cosine, mentions_a, mentions_b);
    ``quadrants`` are the four quadrant shares, or None as without cosine."""
    from taskatlas.validate import DivergenceReport, PairMetrics

    return DivergenceReport(
        pairs=tuple(PairMetrics(*pair) for pair in pairs),
        n_skipped=n_skipped,
        quadrant_shares=None if quadrants is None else dict(zip(QUADRANTS, quadrants)),
        jaccard_threshold=thresholds[0],
        cosine_threshold=thresholds[1],
        stopword_digest=digest,
    )


class TestDivergenceWriter:
    """divergence.json is written as json.dumps(indent=2, sort_keys=True,
    allow_nan=False) writes the report's payload, byte for byte."""

    @staticmethod
    def written(report, seed: int = 0, digest: str = "0" * 16) -> tuple[bytes, bytes]:
        """The writer's bytes and json.dumps's."""
        from taskatlas.files import write_divergence

        meta = {**META, "config_digest": digest, "seed": seed}
        expected = json.dumps({"meta": meta, "data": report.to_dict()}, indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "divergence.json"
            write_divergence(path, meta, report)
            return path.read_bytes(), expected.encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cosine=st.booleans(), n=st.integers(1, 6))
    def test_drawn_reports(self, data, cosine, n):
        pairs = [(data.draw(JSON_FLOATS), data.draw(JSON_FLOATS) if cosine else None, data.draw(MENTIONS),
                  data.draw(MENTIONS)) for _ in range(n)]
        report = divergence_report(
            pairs, data.draw(st.lists(JSON_FLOATS, min_size=4, max_size=4)) if cosine else None,
            data.draw(st.integers(0, 10**6)), data.draw(st.tuples(JSON_FLOATS, JSON_FLOATS)),
            data.draw(st.text("0123456789abcdef", min_size=64, max_size=64)),
        )
        got, expected = self.written(report, data.draw(st.integers(0, 2**63)),
                                     data.draw(st.text("0123456789abcdef", min_size=16, max_size=16)))
        assert got == expected

    @pytest.mark.parametrize("cosine", [True, False], ids=["cosine", "no-cosine"])
    def test_every_mention_value_and_float_edge(self, cosine):
        floats = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 0.0, 1.0, 0.5, 0.25, 0.125]
        mentions = itertools.product([None, True, False], repeat=2)
        pairs = [(jac, -jac if cosine else None, a, b) for jac, (a, b) in zip(floats, mentions)]
        got, expected = self.written(divergence_report(pairs, [5e-324, -0.0, 0.1 + 0.2, 1e308] if cosine else None))
        assert got == expected

    @pytest.mark.parametrize("cosine", [True, False], ids=["cosine", "no-cosine"])
    def test_a_single_pair(self, cosine):
        report = divergence_report([(1.0, 0.0 if cosine else None, None, False)], [0.0, 0.0, 0.0, 1.0] if cosine else None)
        got, expected = self.written(report)
        assert got == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_float_is_refused_as_json_dumps_refuses_it(self, tmp_path, bad):
        from taskatlas.files import write_divergence

        report = divergence_report([(0.5, 0.5, None, None), (0.5, bad, None, None)], [0.5, 0.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_divergence(tmp_path / "divergence.json", META, report)
        assert not list(tmp_path.iterdir())
