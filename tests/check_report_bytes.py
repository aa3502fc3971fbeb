"""Check that two source trees give the same CLI reports, byte for byte, on the benchmark ops.

    python tests/check_report_bytes.py OLD_ROOT NEW_ROOT

Takes every call of cycles 0-3 of the three workloads in
``perfbench/workloads.py``, at seeds 3, 17 and 29, and compares the exit
code and stdout of each call between the two trees.  Each tree runs in
its own subprocess, which imports ``waverep`` from ROOT/src and makes
every call in-process through ``waverep.cli.run``, from a temporary
working directory that holds the op's input files.  The workloads are
read from the ``perfbench/`` beside this script, and nothing is written
there: the subprocesses write no bytecode.  Prints how many calls differ
and the first few of them; exits 1 when any call differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (3, 17, 29)
CYCLES = range(4)
SHOWN = 5


def calls():
    """(label, argv, files) for every call, in a fixed order."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for cycle in CYCLES:
                for op in workloads.make_cycle(name, seed, cycle, refs=False):
                    for i, argv in enumerate(op["calls"]):
                        yield f"{name}/seed{seed}/{op['id']}/{i}", argv, op["files"]


def run_tree(root: str) -> dict:
    """label -> (exit code, sha256 of stdout, argv) for every call, made in this process."""
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    from waverep import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported {cli.__file__}, not the tree under {root}")
    out = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for label, argv, files in calls():
            for name, text in files.items():
                Path(name).write_text(text)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.run(argv)
            out[label] = (code, hashlib.sha256(stdout.getvalue().encode()).hexdigest(), argv)
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--tree"] and len(argv) == 2:
        json.dump(run_tree(argv[1]), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    procs = [
        subprocess.Popen(
            [sys.executable, "-B", __file__, "--tree", root], stdout=subprocess.PIPE, env=env
        )
        for root in argv
    ]
    results = []
    for proc in procs:
        text, _ = proc.communicate()
        if proc.returncode:
            print(f"a tree run exited {proc.returncode}", file=sys.stderr)
            return 2
        results.append(json.loads(text))
    old, new = results
    differ = [label for label in old if old[label][:2] != new[label][:2]]
    print(f"{len(differ)} of {len(old)} calls differ in exit code or stdout")
    for label in differ[:SHOWN]:
        (c0, _, args), (c1, _, _) = old[label], new[label]
        print(f"  {label}: exit {c0} -> {c1}: {' '.join(args)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
