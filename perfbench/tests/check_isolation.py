"""Each op runs in its own forked process: the order of ops does not change any output."""

from pathlib import Path

import runner
import workloads

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _outputs(ops):
    out = {}
    with runner.ForkServer(SRC) as server:
        for workdir, op in ops:
            for n, argv in enumerate(op["calls"]):
                res = server.call(argv, str(workdir), f"{op['id']}-{n}")
                out[(op["kind"], op["id"], n)] = (res["code"], res["stdout"])
    return out


def test_op_order_does_not_change_outputs(tmp_path):
    ops = []
    for workload, count in (("operators", None), ("certify-exact", 2), ("certify-sampled", 2)):
        workdir = tmp_path / workload
        workdir.mkdir()
        for op in workloads.make_cycle(workload, 5, 0)[:count]:
            for name, text in op["files"].items():
                (workdir / name).write_text(text)
            ops.append((workdir, op))
    forward = _outputs(ops)
    backward = _outputs(list(reversed(ops)))
    assert forward == backward
    assert len(forward) == sum(len(op["calls"]) for _, op in ops)
    assert sum(1 for _, stdout in forward.values() if stdout) >= len(forward) - 1  # one thin-shell crash
