"""List the functions of taskatlas that no pipeline stage calls.

    python3 tools/reach.py [--seed 1 ...] [--workload fixtures ...]

The stages are those of ``tools/same_outputs.py``, imported rather than
copied: the benchmark workloads (``GENERATORS`` and ``WORKLOADS``) and the
``fixtures`` workload (``fixture_stages``, whose refusal stages come from
``refusal_stages``). Each stage runs as ``python -m taskatlas.cli`` against
the sources of the checkout this script lives in, with a ``sitecustomize`` on
``PYTHONPATH`` that records the code object of every Python call through
``sys.setprofile``. A stage process ends through ``os._exit``, which skips
``atexit``, so the hook writes its record from a wrapped ``os._exit`` as well
as at exit. A function of ``src/taskatlas`` whose code no stage ran is
printed with its location and length, then a count. The report gates
nothing: its exit code is 0 unless a stage exits with a code it must not.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the sitecustomize that records, per process, the file and first line of
#: every code object called; a decorated function's first line is its first decorator's
HOOK = '''\
import os
import sys

_called = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _called.add((code.co_filename, code.co_firstlineno))


def _write():
    sys.setprofile(None)
    path = os.path.join(os.environ["REACH_RECORD"], f"{os.getpid()}.tsv")
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(f"{name}\\t{line}\\n" for name, line in _called)
    _called.clear()


_os_exit = os._exit


def _exit(code):
    _write()
    _os_exit(code)


os._exit = _exit
__import__("atexit").register(_write)
sys.setprofile(_profile)
'''


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every function defined in the ``taskatlas`` package, by
    (resolved file path, first line): its dotted name (module, then its
    qualified name as Python gives it) and its number of lines."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[str(path), first] = (f"{prefix}{child.name}", child.end_lineno - first + 1)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    package = SRC / "taskatlas"
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        module = "".join(f"{part}." for part in parts if part != "__init__")
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), module)
    return found


def run_stages(stages: list, cwd: Path, record: Path) -> bool:
    """Run each ``(name, arguments, exit code)`` stage in ``cwd`` with the
    hook, its records going to ``record``; False when a stage exits with
    another code."""
    hook = record / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{SRC}", PYTHONDONTWRITEBYTECODE="1",
               REACH_RECORD=str(record))
    ok = True
    for name, args, expected in stages:
        done = subprocess.run([sys.executable, "-m", "taskatlas.cli", *map(str, args)], env=env, cwd=cwd,
                              capture_output=True)
        if done.returncode != expected:
            sys.stderr.write(f"{name} exited {done.returncode}, not {expected}\n")
            sys.stderr.write(done.stderr.decode(errors="replace"))
            ok = False
    return ok


def unreached(record: Path) -> list[tuple[str, str, int]]:
    """(dotted name, file:line, lines) of each function that no record holds, in name order."""
    called = set()
    for path in record.glob("*.tsv"):
        for line in path.read_text(encoding="utf-8").splitlines():
            name, first = line.rsplit("\t", 1)
            called.add((str(Path(name).resolve()), int(first)))
    return sorted(
        (name, f"{Path(path).relative_to(SRC)}:{first}", lines)
        for (path, first), (name, lines) in defined_functions().items()
        if (path, first) not in called
    )


def main() -> int:
    from same_outputs import ALL_WORKLOADS, GENERATORS, WORKLOADS, fixture_stages

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, action="append", help="input seed (repeatable; default 1)")
    parser.add_argument("--workload", action="append", choices=ALL_WORKLOADS, help="default: all")
    args = parser.parse_args()

    ok = True
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        record = Path(tmp) / "record"
        for seed in args.seed or [1]:
            for workload in args.workload or ALL_WORKLOADS:
                work = Path(tmp) / f"{workload}-{seed}"
                inputs, out = work / "inputs", work / "out"
                inputs.mkdir(parents=True)
                out.mkdir()
                if workload == "fixtures":
                    stages = fixture_stages(inputs, out, seed)
                else:
                    truth = GENERATORS[workload](inputs, seed)
                    stages = [(name, stage_args, 0) for name, stage_args, *_ in
                              WORKLOADS[workload](truth["files"], out, truth)]
                ok = run_stages(stages, work, record) and ok
        missed = unreached(record)
    for name, where, lines in missed:
        print(f"{name}  {where}  {lines} lines")
    total = len(defined_functions())
    print(f"{len(missed)} of {total} functions ({sum(lines for *_, lines in missed)} lines) reached by no stage")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
