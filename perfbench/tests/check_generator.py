"""The generator is deterministic, valid for any seed, and its references hold up."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import checks
import reference as ref
import workloads

SEEDS = (0, 7, 123456)


def _dump(ops):
    return json.dumps(ops, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_inputs(workload, seed, tmp_path):
    for cycle in (0, 3):
        a, b = workloads.make_cycle(workload, seed, cycle), workloads.make_cycle(workload, seed, cycle)
        assert _dump(a) == _dump(b)
        for op in a:
            assert op["calls"] and len(op["refs"]) == len(op["calls"])
            assert all(isinstance(x, str) for argv in op["calls"] for x in argv)
            assert all(r["check"] in checks._CHECKS for r in op["refs"])
            for name in op["files"]:
                assert any(name in argv for argv in op["calls"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_the_slots(workload):
    a, b = workloads.make_cycle(workload, 1, 0), workloads.make_cycle(workload, 2, 0)
    assert [op["kind"] for op in a] == [op["kind"] for op in b]
    assert _dump(a) != _dump(b)


def test_run_writes_identical_files(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import run

    for seed in SEEDS:
        texts = []
        for sub in ("a", "b"):
            d = tmp_path / f"{seed}{sub}"
            d.mkdir()
            run.Pool("operators", seed, d).cycle(0)
            texts.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert texts[0] == texts[1] and texts[0]


def test_set_families():
    for a in (F(1, 2), F(2, 3), F(1), F(7, 5)):
        E = workloads.shannon_like(a)
        assert ref.congruent(E) and ref.disjoint_diag(E, (2,), 12)
        assert ref.cover_1d(E, 2, 12, F(1, 64), F(64))
    journe = workloads.journe_like(2)
    assert sorted(journe) == sorted(
        [((F(4, 7),), (F(1),)), ((F(4),), (F(32, 7),)), ((F(-1),), (F(-4, 7),)), ((F(-32, 7),), (F(-4),))]
    )
    for j in range(1, 5):
        E = workloads.journe_like(j)
        assert ref.congruent(E) and ref.disjoint_diag(E, (-2,), 8)
    shell = workloads.shell(1, 2)
    assert not ref.congruent(shell) and ref.disjoint_diag(shell, (2, 2), 6)
    assert ref.lattice_cover_count((F(1, 2), F(1, 2)), shell) == 3
    assert not ref.disjoint_diag(workloads.shell(1, 3), (2, 2), 1)
    # the shifted prototype opens a gap (waverep's own counterexample)
    gap = [((F(9, 8),), (F(17, 8),)), ((F(-17, 8),), (F(-9, 8),))]
    assert not ref.cover_1d(gap, 2, 8, F(1, 64), F(64))


def test_gram_reference_is_scale_invariant():
    E = workloads.shannon_like(F(2, 3))
    for d in (1, 2, 5):
        same = ref.same_scale_entry(E, (d,))
        assert abs(same) < 1e-15
        assert abs(ref.gram_entry(E, (2,), 1, (d,), 1, (0,)) - same) < 1e-15
    assert ref.gram_entry(E, (2,), 0, (0,), 1, (0,)) == 0


def test_without_sources_exits_nonzero(tmp_path):
    here = Path(__file__).resolve().parents[1]
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "operators", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_rep_decimal_label_needs_float_rounding(tmp_path):
    """Only phases within float rounding of the truth count as the known decimal defect."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import runner

    op = next(o for o in workloads.make_cycle("operators", 3, 0) if o["kind"].endswith("rep-decimal")
              and o["refs"][0]["K"] == 64)
    r = op["refs"][0]
    with runner.ForkServer(str(Path(__file__).resolve().parents[2] / "src")) as server:
        res = server.call(op["calls"][0], str(tmp_path), "rep")
    assert checks.check_call(r, res["code"], res["stdout"], res["stderr"], res["crashed"]) == (
        "known:rep-decimal-precision"
    )
    report = json.loads(res["stdout"])
    for garble in (
        lambda z: [1.0, 0.0],                                  # constant phases
        lambda z: [z[0], -z[1]],                               # conjugated phases
        lambda z: [z[0] * (1 + 1e-6), z[1] * (1 + 1e-6)],     # off the unit circle
    ):
        bad = json.loads(res["stdout"])
        bad["fiber"]["phases"] = [garble(z) for z in report["fiber"]["phases"]]
        assert checks.check_call(r, res["code"], json.dumps(bad), "", False) == "rep:phases"
