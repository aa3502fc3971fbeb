"""The scripts under tools/: argument checks that run before any work."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_needs_two_pairs(pairs, monkeypatch, capsys):
    bench_pairs = _load("bench_pairs")

    def export(rev, into):
        raise AssertionError("a revision was exported")

    monkeypatch.setattr(bench_pairs, "_export", export)
    argv = ["HEAD~1", "HEAD", "--pairs", pairs, "--seed", "5", "--out", "unused.json"]
    with pytest.raises(SystemExit) as exit:
        bench_pairs.main(argv)
    assert exit.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


_METRICS = {"certify-exact/op_p50_ms": {"value": 20.0}}


@pytest.mark.parametrize(
    "failure, says",
    [
        (subprocess.CompletedProcess([], 3, "", "Traceback\nValueError: broken op\n"), "exited 3"),
        (
            subprocess.CompletedProcess([], 0, json.dumps({"correct": False, "metrics": _METRICS}), "op c0s1 failed\n"),
            "reported an unexpected failure",
        ),
    ],
)
def test_bench_pairs_reports_a_failed_run(failure, says, monkeypatch, capsys, tmp_path):
    bench_pairs = _load("bench_pairs")

    def export(rev, into):
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "op_p50_ms", "better": "lower"}]}))
        return f"sha-of-{rev}"

    ok = subprocess.CompletedProcess([], 0, json.dumps({"correct": True, "metrics": _METRICS}), "")
    runs = iter([ok, ok, ok, failure])  # pair 1 finishes; pair 2's head side runs first and passes
    monkeypatch.setattr(bench_pairs, "_export", export)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: next(runs))
    out = tmp_path / "bench.json"
    argv = ["BASE", "HEAD", "--pairs", "3", "--seed", "5", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 1  # returned, not raised: no traceback of the script's own
    err = capsys.readouterr().err
    assert f"pair 2/3: the base run (sha-of-BASE) {says}" in err
    assert failure.stderr.splitlines()[-1] in err
    finished = json.loads(err.split("finished pairs: ", 1)[1])
    assert finished == [{"first": "base", "base": {"certify-exact/op_p50_ms": 20.0}, "head": {"certify-exact/op_p50_ms": 20.0}}]
    assert not out.exists()
