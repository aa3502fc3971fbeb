"""The scripts under tools/: argument checks that run before any work."""

import importlib.util
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
