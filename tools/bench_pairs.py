"""Paired benchmark runs of two revisions, written to one BENCH_*.json file.

    python3 tools/bench_pairs.py BASE HEAD --pairs 10 --seconds 15 --seed 11 --out BENCH_<n>.json

Exports the committed files of the git revisions BASE and HEAD into two
temporary directories, then runs ``python3 perfbench/run.py --workload
all`` once on each side per pair, from that side's own checkout.  The side
that runs first alternates from pair to pair, and every ``__pycache__``
directory of both sides is removed before each run, so that no run reads
bytecode that another run wrote.  The output records each pair's
end-to-end metrics, per side the median and quartiles of each metric and
the number of pairs in which HEAD is better (ties count for neither), the
direction of "better" from HEAD's BENCHMARK.json, both commit SHAs, and the
Python and numpy versions.  A run that exits nonzero or reports
``correct: false`` ends the script with exit 1 and no BENCH file: it
names the side and the pair, shows the last lines of that run's stderr
and prints the metrics of the pairs that finished.  Run it from a clone
of the repository on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TAIL = 20  # stderr lines shown for a failed run


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def _export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` into ``into``; return its full SHA."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return sha


class RunFailed(Exception):
    """A benchmark run that crashed or reported ``correct: false``; the message names it."""


def _run(side: Path, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run on a checkout without bytecode caches: its end-to-end metrics by name."""
    for cache in side.rglob("__pycache__"):
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all"]
    cmd += ["--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    tail = "".join(f"\n  {line}" for line in proc.stderr.splitlines()[-TAIL:])
    if proc.returncode:
        raise RunFailed(f"exited {proc.returncode}; the last lines of its stderr:{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RunFailed(f"reported an unexpected failure; the last lines of its stderr:{tail}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git revision of the parent side")
    p.add_argument("head", help="git revision of the change")
    p.add_argument("--pairs", type=int, default=10, help="number of pairs, at least 2 for the quartiles")
    p.add_argument("--seconds", type=float, default=15.0, help="run length of each workload")
    p.add_argument("--seed", type=int, required=True, help="workload seed, one the change was not tuned on")
    p.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error(f"--pairs must be at least 2, got {args.pairs}")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        shas = {name: _export(getattr(args, name), path) for name, path in sides.items()}
        better = {
            m["name"]: m["better"]
            for m in json.loads((sides["head"] / "BENCHMARK.json").read_text())["end_to_end"]
        }
        pairs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for name in order:
                try:
                    pair[name] = _run(sides[name], args.seed, args.seconds)
                except RunFailed as exc:
                    print(f"pair {i + 1}/{args.pairs}: the {name} run ({shas[name]}) {exc}", file=sys.stderr)
                    print(f"finished pairs: {json.dumps(pairs)}", file=sys.stderr)
                    return 1
                print(f"pair {i + 1}/{args.pairs} {name} done", file=sys.stderr, flush=True)
            pairs.append(pair)

    summary = {}
    for metric in pairs[0]["base"]:
        direction = better[metric.rsplit("/", 1)[-1]]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p["base"][metric] - p["head"][metric]) > 0 for p in pairs)
        summary[metric] = {
            "better": direction,
            "base": _spread([p["base"][metric] for p in pairs]),
            "head": _spread([p["head"][metric] for p in pairs]),
            "head_better_in": wins,
        }
    report = {
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs",
        "command": f"perfbench/run.py --workload all --seed {args.seed} --seconds {args.seconds}",
        "pairs": pairs,
        "summary": summary,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
