"""Run waverep CLI calls in processes forked from a clean fork server.

Every waverep CLI call starts a fresh process, so no call may profit
from in-process state an earlier call left behind.  ``ForkServer``
starts this file as a fresh interpreter that imports ``waverep.cli`` and
the span tracer (numpy stays unloaded) and nothing of the benchmark's
checks.  For each call the server forks a child that runs ``cli.run``
with the work directory as its current directory and stdout and stderr
sent to files, so a child's peak memory is that of a CLI process plus
the server's few small modules, not the benchmark's references, mpmath
or numpy.

    python3 perfbench/runner.py SRC [--prepare WORKLOAD SEED WORKDIR]

The server prints ``ready`` once it can fork the first call; with
``--prepare`` it first writes the input files of the workload's first
cycle (the set-up the benchmark times).  It then reads one JSON request
per line on stdin, ``[argv, workdir, tag, trace]``, and answers each
with one JSON line; it exits at the end of stdin.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import traceback

import tracer

CALL_TIMEOUT_S = 60  # the costliest call takes about 1 s untraced
HERE = os.path.dirname(os.path.abspath(__file__))


class ForkServer:
    """Client side: one server process for a run, one forked child per call."""

    def __init__(self, src: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "runner.py"), src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("fork server did not start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc.wait(timeout=CALL_TIMEOUT_S)

    def call(self, argv: list[str], workdir: str, tag: str, trace: bool = False) -> dict:
        """Run `waverep <argv>`; return its outcome, measurements, stdout and stderr.

        ``op_s`` is the child's wall time around ``cli.run`` (writing the
        report included), ``child_s`` its wall time from fork to the end
        of its work less the tracer's own installation and binding checks,
        and ``wall_s`` the server's time from fork to reap.
        """
        self.proc.stdin.write(json.dumps([argv, workdir, tag, trace]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("fork server ended")
        result = json.loads(line)
        result["stdout"] = _take(os.path.join(workdir, f"{tag}.stdout"))
        result["stderr"] = _take(os.path.join(workdir, f"{tag}.stderr"))
        span_path = os.path.join(workdir, f"{tag}.spans.npz")
        result["spans"] = span_path if trace and os.path.exists(span_path) else None
        return result


def _take(path: str) -> str:
    """Read and delete a file the child wrote ('' if it died before creating it)."""
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""
    finally:
        if os.path.exists(path):
            os.remove(path)


# --- server side -------------------------------------------------------------------


def _fork_call(argv: list[str], workdir: str, tag: str, trace: bool) -> dict:
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            _child(argv, workdir, tag, trace, t0, write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        meta = fh.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}
    if meta and os.WIFEXITED(status):
        result.update(json.loads(meta))
    else:
        why = f"signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status) else "no result"
        result.update(
            code=1, crashed=True, op_s=wall, child_s=wall, died=why, traced_bindings=0, traced_after_restore=0
        )
    return result


def _child(argv, workdir, tag, trace, t_fork, write_fd) -> None:
    signal.alarm(CALL_TIMEOUT_S)
    os.chdir(workdir)
    from waverep import cli

    # the server's stdout is its reply pipe: point fds 1 and 2 at this call's files
    with open(f"{tag}.stdout", "w") as out, open(f"{tag}.stderr", "w") as err:
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
    t_ready = time.perf_counter()
    t = tracer.Tracer() if trace else None
    if t is not None:
        t.install()
    bindings = tracer.traced_bindings()
    crashed = False
    t0 = time.perf_counter()
    try:
        code = cli.run(argv)
    except Exception:
        traceback.print_exc()
        code, crashed = 1, True
    op_s = time.perf_counter() - t0
    sys.stdout.flush()
    sys.stderr.flush()
    child_s = (t_ready - t_fork) + (time.perf_counter() - t0)
    if t is not None:
        t.restore()
    meta = {
        "code": code,
        "crashed": crashed,
        "op_s": op_s,
        "child_s": child_s,
        "traced_bindings": bindings,
        "traced_after_restore": tracer.traced_bindings(),
    }
    if t is not None:
        t.dump(f"{tag}.spans.npz", tag)
    os.write(write_fd, json.dumps(meta).encode())
    os.close(write_fd)


def _prepare(workload: str, seed: int, workdir: str) -> None:
    """Generate the first cycle's inputs and write its files; references come later."""
    import workloads

    os.makedirs(workdir, exist_ok=True)
    for op in workloads.make_cycle(workload, seed, 0, refs=False):
        for name, text in op["files"].items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)


def serve(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import waverep.cli  # noqa: F401

    if argv[1:2] == ["--prepare"]:
        _prepare(argv[2], int(argv[3]), argv[4])
    print("ready", flush=True)
    for line in sys.stdin:
        args, workdir, tag, trace = json.loads(line)
        print(json.dumps(_fork_call(args, workdir, tag, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1:]))
