"""Check that two checkouts of taskatlas write the same bytes.

    python3 tools/same_outputs.py BASE HEAD [--seed 1 ...] [--workload audit ...]

BASE and HEAD are two checkouts of this repository. The inputs come from
``bench/gen.py`` (``GENERATORS``) and the stages from ``bench/run.py``
(``WORKLOADS``) of the checkout this script lives in, imported rather than
copied. Every stage of every workload runs as ``python -m taskatlas.cli``
against BASE's sources, then against HEAD's, on the same inputs and at the
same output path. The script exits 1 when ``diff -r`` finds any difference
between the two output trees or between the two stdout logs, and 2 when a
stage exits non-zero on one side only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from gen import GENERATORS  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_side(checkout: Path, stages: list, out: Path, keep: Path) -> list[int]:
    """Run every stage against ``checkout``'s sources, then move the output
    tree to ``keep/out`` and the stages' stdout to ``keep/stdout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (keep / "stdout").mkdir(parents=True)
    codes = []
    for name, args, _, _ in stages:
        done = subprocess.run([sys.executable, "-m", "taskatlas.cli", *map(str, args)], env=env, cwd=out.parent,
                              capture_output=True)
        (keep / "stdout" / f"{name}.txt").write_bytes(done.stdout)
        codes.append(done.returncode)
        if done.returncode != 0:
            sys.stderr.write(f"{checkout}: {name} exited {done.returncode}\n{done.stderr.decode(errors='replace')}")
    shutil.move(str(out), str(keep / "out"))
    return codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seed", type=int, action="append", help="input seed (repeatable; default 1)")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="default: all")
    args = parser.parse_args()

    status = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for seed in args.seed or [1]:
            for workload in args.workload or sorted(WORKLOADS):
                work = Path(tmp) / f"{workload}-{seed}"
                inputs = work / "inputs"
                inputs.mkdir(parents=True)
                truth = GENERATORS[workload](inputs, seed)
                out = work / "out"
                stages = WORKLOADS[workload](truth["files"], out, truth)
                codes = {side: run_side(path.resolve(), stages, out, work / side)
                         for side, path in (("base", args.base), ("head", args.head))}
                if codes["base"] != codes["head"]:
                    print(f"{workload} seed {seed}: exit codes differ: {codes}")
                    status = 2
                diff = subprocess.run(["diff", "-r", str(work / "base"), str(work / "head")], capture_output=True,
                                      text=True)
                if diff.returncode != 0:
                    print(f"{workload} seed {seed}: outputs differ\n{diff.stdout[-4000:]}{diff.stderr}")
                    status = status or 1
                else:
                    print(f"{workload} seed {seed}: {len(stages)} stages, outputs and stdout identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
