"""Measure the benchmark on several seeds and record the results in baseline.json.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads certify-exact,operators]

For each workload, runs ``run.py --trace 0`` once per seed and records
each end-to-end metric's median, quartiles and spread (interquartile
distance over the median, the figure BENCHMARK.json bounds), then one
``--trace 1`` run on the first seed for the per-layer numbers and the
tracing overhead.  The layer-to-metric mapping in baseline.json is kept
(tests/check_tracer.py checks it against tracer.METRICS).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: unexplained failures\n{proc.stdout}")
    return result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record["machine"] = (
        f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.python_implementation()} {platform.python_version()}"
    )
    baseline = record.setdefault("baseline", {})
    for name in names:
        seeds = _seeds(args.seeds)
        runs = [_run(name, s, seconds, 0) for s in seeds]
        e2e = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            e2e[metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values,
            }
            print(f"{name:16} {metric['name']:14} median {med:12.5f} spread {(q3 - q1) / med:.4f}", flush=True)
        traced = _run(name, seeds[0], seconds, 1)
        baseline[name] = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        OUT.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
