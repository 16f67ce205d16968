"""A CLI process ends through ``taskatlas.cli.run``, which exits without
interpreter teardown: its stdout, stderr, exit code and output files are those
of ``main()`` run in-process, and with stdout closed early it exits as
``sys.exit(main())`` does. The process runs ``main`` without the cyclic
collector; ``main`` run in-process leaves the collector on."""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from taskatlas.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
#: the process entry before ``run``: ``main``, then ``sys.exit`` with its code
SYS_EXIT_ENTRY = "import sys; from taskatlas.cli import main; sys.exit(main())"

#: per case: the arguments (the output goes to ``out`` in the working directory) and the exit code
CASES = {
    "stage_writes_files_and_echoes": (["ingest", "--labels", FIXTURES / "labels.jsonl", "--out", "out"], 0),
    "input_error": (["link", "apply", "--dataset", FIXTURES / "labels.jsonl", "--out", "out"], 2),
    "usage_error": (["stats", "fe", "--no-such-flag"], 1),
    "version": (["--version"], 0),
}


def unnamed(text: str) -> str:
    """``text`` with the program name of a usage line, which click takes from how Python was started, left out."""
    return re.sub(r"(?m)^Usage: \S+(?: -m \S+)? ", "Usage: <program> ", text)


def outputs(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory`` by its relative path."""
    return {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_process_ends_as_main_returns(tmp_path, monkeypatch, capsys, case):
    args, code = CASES[case]
    args = [str(arg) for arg in args]
    (tmp_path / "process").mkdir()
    done = subprocess.run([sys.executable, "-m", "taskatlas.cli", *args], cwd=tmp_path / "process", env=ENV,
                          capture_output=True, timeout=120)
    (tmp_path / "in-process").mkdir()
    monkeypatch.chdir(tmp_path / "in-process")
    assert main(args) == code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout.decode("utf-8"), unnamed(done.stderr.decode("utf-8"))) == (
        code, captured.out, unnamed(captured.err)
    )
    assert outputs(tmp_path / "process") == outputs(tmp_path / "in-process")
    if code == 0 and case != "version":
        assert "out/dataset.jsonl" in outputs(tmp_path / "process")


@pytest.mark.parametrize("case", ["stage_writes_files_and_echoes", "version"])
def test_stdout_closed_early_exits_as_sys_exit_does(tmp_path, case):
    args = [str(arg) for arg in CASES[case][0]]
    ends = []
    for name, entry in (("run", ["-m", "taskatlas.cli"]), ("sys_exit", ["-c", SYS_EXIT_ENTRY])):
        (tmp_path / name).mkdir()
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the process writes
        try:
            done = subprocess.run([sys.executable, *entry, *args], cwd=tmp_path / name, env=ENV, stdout=write,
                                  stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        ends.append((done.returncode, done.stderr, outputs(tmp_path / name)))
    assert ends[0] == ends[1]


def test_run_turns_the_collector_off_and_main_leaves_it_on(tmp_path):
    # the process entry with main replaced by a report of the collector's state as main starts
    entry = ("import gc, taskatlas.cli as cli; "
             "cli.main = lambda: print('enabled' if gc.isenabled() else 'disabled') or 0; cli.run()")
    done = subprocess.run([sys.executable, "-c", entry], env=ENV, capture_output=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"disabled\n", b"")
    assert gc.isenabled()
    args = [str(arg) for arg in CASES["stage_writes_files_and_echoes"][0]]
    args[args.index("out")] = str(tmp_path / "out")
    assert main(args) == 0
    assert gc.isenabled()
