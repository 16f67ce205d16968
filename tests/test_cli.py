import csv
import dataclasses
import io
import json
from pathlib import Path
from typing import Sequence

import math
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from taskatlas import reweight
from taskatlas.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_pipeline(out_dir: Path, jobs: int = 1) -> None:
    """The full shipped-fixture pipeline; every stage must exit 0."""
    config = fx("config.json")
    steps = [
        ["ingest", "--labels", fx("labels.jsonl"), "--out", str(out_dir), "--config", config],
        [
            "summarize", "--dataset", str(out_dir / "dataset.jsonl"), "--registry", fx("registry.csv"),
            "--benchmark", fx("labels.jsonl"), "--transitions", "--jobs", str(jobs),
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
        run_pipeline(run_a, jobs=1)
        run_pipeline(run_b, jobs=1)
        run_pipeline(run_c, jobs=8)
        bytes_a = tree_bytes(run_a)
        assert bytes_a == tree_bytes(run_b)
        assert bytes_a == tree_bytes(run_c)

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
        from taskatlas.cli import RunContext, _write_json

        ctx = RunContext(seed=0, digest="0" * 16)
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", ctx, {"value": float("nan")})


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


def written(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def reweight_args(t: Path, employment=None, cell_values=None, *extra) -> list:
    return ["reweight", "--employment", employment or fx("employment.csv"),
            "--cell-values", cell_values or fx("cell_values.csv"), "--out", str(t / "out"), *extra]


def apply_args(t: Path, weights=None, *extra) -> list:
    return ["link", "apply", "--dataset", fx("labels.jsonl"), "--weights", weights or fx("task_weights.csv"),
            "--bridge", fx("bridge.csv"), "--out", str(t / "out"), *extra]


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
    }

    OPTIONS = {
        "window": (lambda t: reweight_args(t, None, None, "--window", "2015"), "--window"),
        "embedder_dim_text": (
            lambda t: ["link", "candidates", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
                       "--embedder", "hash:x", "--out", str(t / "c.jsonl")],
            "--embedder",
        ),
        "embedder_dim_negative": (
            lambda t: ["link", "candidates", "--tasks", fx("tasks.csv"), "--activities", fx("activities.csv"),
                       "--embedder", "hash:-1", "--out", str(t / "c.jsonl")],
            "--embedder",
        ),
        "seeds_empty": (
            lambda t: stats_args(t, "shap", fx("stats_table.csv"), "--y", "y", "--features", "x,z", "--trees", "3",
                                 "--seeds", ""),
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
            first, *rest = panel(*args)
            return [dataclasses.replace(first, y_pp=math.inf), *rest]

        monkeypatch.setattr(reweight, "gender_fe_panel", overflowing)
        assert main(reweight_args(tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ValueError") and "fe_panel.csv" in err and "'y_pp'" in err


#: per fixture table, the command that consumes it, given a scratch directory and the table's path
CONSUMERS = {
    "employment.csv": lambda t, path: reweight_args(t, path),
    "cell_values.csv": lambda t, path: reweight_args(t, None, path),
    "task_weights.csv": lambda t, path: apply_args(t, path),
    "bridge.csv": lambda t, path: ["link", "apply", "--dataset", fx("labels.jsonl"), "--weights",
                                   fx("task_weights.csv"), "--bridge", path, "--out", str(t / "out")],
    "registry.csv": lambda t, path: ["summarize", "--dataset", fx("labels.jsonl"), "--registry", path,
                                     "--transitions", "--out", str(t / "out")],
    "stats_table.csv": lambda t, path: stats_args(t, "corr", path, "--key-column", "unit", "--x", "x", "--y", "y",
                                                  "--controls", "z", "--loo"),
    "matrix.csv": lambda t, path: ["stats", "vardecomp", "--matrix", path, "--out", str(t / "out.json")],
}

CELL_TEXT = st.sampled_from(
    ["", "nan", "inf", "-inf", "1e400", "abc", "0", "-1", "1e-300", "1e308", "-1e308", "1.5e307"]
) | st.text(
    alphabet=st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)), max_size=6
)


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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_bad_cell_exits_zero_or_two_with_finite_outputs(data):
    """Replace, drop or add one cell of a fixture table, or two: the consuming
    command exits 0 or 2, never 3, and a success writes no non-finite number."""
    name = data.draw(st.sampled_from(sorted(CONSUMERS)), label="table")
    lines = Path(fx(name)).read_text(encoding="utf-8").splitlines()
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
        rc = main(CONSUMERS[name](t, str(table)))
        assert rc in (0, 2)
        if rc == 0:
            assert non_finite_cells(t, texts) == []
