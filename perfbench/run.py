"""Benchmark of the waverep CLI.

    python3 perfbench/run.py --workload certify-exact --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (``src/waverep`` must exist).
The load is a closed loop with one client: each op's CLI calls run one
after another, each in a process forked from a server that has imported
only ``waverep.cli`` (see runner.py), and the next op starts only when
the previous one has been checked.  A run repeats whole cycles of the workload (see
workloads.py) until ``--seconds`` have passed, so every run sees the
same op mix.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s``: median over 12 fresh fork servers, half started before
  the timed loop and half after it, of the time from start to first op
  ready (import waverep.cli, generate and write the first cycle's input
  files; the references are computed afterwards);
* ``op_p50_ms``: median wall time of one op (the sum of its calls, each
  timed in the child around ``cli.run``);
* ``op_tail_ms``: the highest whole percentile with at least ten ops
  beyond it (the percentile and op count are printed beside it);
* ``ops_per_s``: correct ops per second of busy time, i.e. the sum over
  calls of fork-to-reap wall time (the client's own checking between
  ops is think time and is excluded);
* ``success_rate``: correct ops over attempted ops (the complement of
  the error rate, which is 0 on a workload without known defects);
* ``peak_rss_mb``: the highest peak resident memory of any call.

With ``--trace 1`` every op runs twice, untraced and then traced, and
the last line reports the per-layer metrics of tracer.METRICS, as means
per op, plus the tracing overhead (traced over untraced op time) and the
share of the traced children's wall time, fork to end of work, that the
layer self times account for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import runner
import tracer
import workloads

# one client and no threads: keep numerical libraries single-threaded as well
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 12
POOL_CYCLES = 8  # distinct cycles per seed; later cycles reuse them (each call is a fresh process)
# With 11-slot cycles, 6 cycles put the tail percentile (ten ops beyond it) inside the
# group of the two costliest slots; a slow machine may need more than `seconds` for them.
MIN_CYCLES = 6


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Pool:
    """Generated cycles, written to the work directory on first use."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self._cycles: dict[int, list[dict]] = {}

    def cycle(self, index: int) -> list[dict]:
        key = index % POOL_CYCLES
        if key not in self._cycles:
            ops = workloads.make_cycle(self.workload, self.seed, key)
            for op in ops:
                for name, text in op["files"].items():
                    (self.workdir / name).write_text(text)
            self._cycles[key] = ops
        return self._cycles[key]


def _setup_probe(workload: str, seed: int) -> float:
    """One fresh fork server: start, import waverep.cli, write the first cycle's inputs, ready."""
    workdir = ROOT / ".perfbench_work" / f"probe-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "runner.py"), str(ROOT / "src"), "--prepare", workload, str(seed), str(workdir)]
    try:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdin.close()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return t1 - t0


def _run_op(server: runner.ForkServer, op: dict, workdir: Path, trace: bool) -> dict:
    calls, label, spans = [], None, Counter()
    for n, (argv, r) in enumerate(zip(op["calls"], op["refs"])):
        res = server.call(argv, str(workdir), f"{op['id']}-{n}", trace)
        res["label"] = checks.check_call(r, res["code"], res["stdout"], res["stderr"], res["crashed"])
        if "died" in res:
            res["label"] = f"child-ended: {res['died']}"
        elif trace and (res["traced_bindings"] <= 0 or res["traced_after_restore"] != 0):
            res["label"] = "bench:tracer-not-installed-or-not-restored"
        if not trace and res["traced_bindings"] != 0:
            res["label"] = "bench:untraced-call-ran-wrapped-code"
        label = label or res["label"]
        if res["spans"]:
            spans.update(tracer.summarize(res["spans"]))
            os.remove(res["spans"])
        calls.append(res)
    return {
        "id": op["id"],
        "kind": op["kind"],
        "label": label,
        "op_s": sum(c["op_s"] for c in calls),
        "busy_s": sum(c["wall_s"] for c in calls),
        "child_s": sum(c["child_s"] for c in calls),
        "rss_mb": max(c["rss_mb"] for c in calls),
        "report_bytes": sum(len(c["stdout"].encode()) for c in calls),
        "spans": spans,
    }


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least ten values beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:  # no percentile has ten values beyond it: report the maximum
        return xs[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct


def _loop(server, pool: Pool, seconds: float, trace: bool, log) -> list[tuple[dict, dict | None]]:
    """Whole cycles until `seconds` have passed, at least MIN_CYCLES; (untraced, traced) results per op."""
    out = []
    start = time.perf_counter()
    index = 0
    while True:
        for op in pool.cycle(index):
            plain = _run_op(server, op, pool.workdir, False)
            traced = _run_op(server, op, pool.workdir, True) if trace else None
            if traced is not None and (traced["label"] is None) != (plain["label"] is None):
                traced["label"] = traced["label"] or "bench:tracing-changed-the-result"
            out.append((plain, traced))
        index += 1
        if index >= MIN_CYCLES and time.perf_counter() - start >= seconds:
            break
    log(f"cycles={index} ops={len(out)} elapsed_s={time.perf_counter() - start:.2f}")
    return out


def _end_to_end(results, setup_times, log) -> dict:
    ops = [p for p, _ in results]
    good = [o for o in ops if o["label"] is None]
    times_ms = [o["op_s"] * 1000 for o in ops]
    tail_ms, pct = tail(times_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(good) / sum(o["busy_s"] for o in ops), "1/s"),
        "success_rate": (len(good) / len(ops), "ratio"),
        "peak_rss_mb": (max(o["rss_mb"] for o in ops), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh fork servers",
        "op_tail_ms": f"p{pct} of {len(ops)} ops",
        "success_rate": f"error_rate={1 - len(good) / len(ops):.4f} ({len(ops) - len(good)} of {len(ops)} ops failed)",
    }
    for name, (value, unit) in metrics.items():
        log(f"{name:<16} {value:14.6f} {unit:<6} {notes.get(name, '')}")
    return metrics


def _per_layer(results, log) -> dict:
    totals: Counter = Counter()
    n = 0
    for plain, traced in results:
        n += 1
        totals["untraced_op_s"] += plain["op_s"]
        totals["traced_op_s"] += traced["op_s"]
        totals["traced_child_s"] += traced["child_s"]
        totals["report_bytes"] += traced["report_bytes"]
        totals.update(traced["spans"])
    totals["self_total"] = sum(totals[f"self:{layer}"] for layer in tracer.LAYERS)
    metrics = {}
    for name, unit, _, fn in tracer.METRICS:
        metrics[name] = (fn(totals, n), unit)
        log(f"{name:<44} {metrics[name][0]:16.6f} {unit}")
    return metrics


def run_workload(args, workload: str, log) -> tuple[bool, int, int, dict]:
    """One workload: the timed loop with its set-up probes, then the metrics of the chosen mode."""
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = Pool(workload, args.seed, workdir)
        # set-up probes in two blocks, before and after the loop: never between ops, where a
        # probe's fresh interpreter slows the next op, but at both ends of the run's window
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup_times = [_setup_probe(workload, args.seed) for _ in range(probes)]
        with runner.ForkServer(str(ROOT / "src")) as server:
            results = _loop(server, pool, args.seconds, bool(args.trace), log)
        setup_times += [_setup_probe(workload, args.seed) for _ in range(probes)]
        labels = Counter(
            (o["label"], o["kind"]) for pair in results for o in pair if o is not None and o["label"] is not None
        )
        for (label, kind), count in sorted(labels.items()):
            log(f"failed op: {label} x{count} ({kind})")
        correct = all(label.startswith("known:") for label, _ in labels)
        metrics = _per_layer(results, log) if args.trace else _end_to_end(results, setup_times, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for plain, _ in results if plain["label"] is not None)
    return correct, len(results), failed, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "waverep" / "cli.py").is_file():
        print(f"perfbench: no waverep sources under {src}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    def log(line: str) -> None:
        print(line, flush=True)

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        if len(names) > 1:
            log(f"== {name}")
        ok, n, bad, m = run_workload(args, name, log)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
