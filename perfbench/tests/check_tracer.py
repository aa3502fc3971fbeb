"""The tracer wraps every binding, restores the originals, and covers each workload's layers."""

import json
from pathlib import Path

import pytest

import runner
import tracer
import workloads

HERE = Path(__file__).resolve().parents[1]
SRC = str(HERE.parent / "src")

# layers each workload must reach (non-zero traced calls)
LAYERS = {
    "certify-exact": ("linalg", "groups", "boxes", "funcs", "gram", "tiling", "jsonio", "cli"),
    "certify-sampled": ("linalg", "groups", "boxes", "gram", "tiling", "jsonio", "cli"),
    "operators": ("linalg", "groups", "boxes", "funcs", "spectral", "operators", "density", "jsonio", "cli"),
}


def test_every_binding_is_wrapped_and_restored():
    import waverep
    from waverep import funcs, groups, operators, spectral, tiling

    before = {
        "tiling.b_transform": tiling.b_transform,
        "spectral.b_transform": spectral.b_transform,
        "operators.character_value": operators.character_value,
        "funcs.phase_exp": funcs.phase_exp,
        "waverep.b_transform": waverep.b_transform,
        "AdicVector.__init__": groups.AdicVector.__dict__["__init__"],
        "AdicVector.of": groups.AdicVector.__dict__["of"],
    }
    assert tracer.traced_bindings() == 0
    t = tracer.Tracer()
    t.install()
    try:
        after = {
            "tiling.b_transform": tiling.b_transform,
            "spectral.b_transform": spectral.b_transform,
            "operators.character_value": operators.character_value,
            "funcs.phase_exp": funcs.phase_exp,
            "waverep.b_transform": waverep.b_transform,
            "AdicVector.__init__": groups.AdicVector.__dict__["__init__"],
            "AdicVector.of": groups.AdicVector.__dict__["of"],
        }
        assert all(tracer.is_traced(f) for f in after.values())
        assert tiling.b_transform is groups.b_transform is spectral.b_transform
        groups.AdicVector.of(groups.validate_dilation([[2]]), [4], 2)
    finally:
        t.restore()
    assert tracer.traced_bindings() == 0
    for name, obj in before.items():
        owner, attr = name.rsplit(".", 1)
        current = {
            "tiling": tiling, "spectral": spectral, "operators": operators, "funcs": funcs, "waverep": waverep,
        }.get(owner)
        now = getattr(current, attr) if current else groups.AdicVector.__dict__[attr]
        assert now is obj, name
    assert "groups.AdicVector.new" in t.names and len(t.name_id) >= 2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_layers_report_calls(workload, tmp_path):
    totals = {}
    with runner.ForkServer(SRC) as server:
        for op in workloads.make_cycle(workload, 11, 0):
            for name, text in op["files"].items():
                (tmp_path / name).write_text(text)
            for n, argv in enumerate(op["calls"]):
                plain = server.call(argv, str(tmp_path), f"{op['id']}-{n}", trace=False)
                assert plain["traced_bindings"] == 0
                res = server.call(argv, str(tmp_path), f"{op['id']}-{n}", trace=True)
                assert res["traced_bindings"] > 0 and res["traced_after_restore"] == 0
                assert (res["code"], res["stdout"]) == (plain["code"], plain["stdout"])
                for key, value in tracer.summarize(res["spans"]).items():
                    totals[key] = totals.get(key, 0) + value
                totals["child_s"] = totals.get("child_s", 0) + res["child_s"]
    for layer in LAYERS[workload]:
        calls = sum(v for k, v in totals.items() if k.startswith(f"calls:{layer}."))
        assert calls > 0, layer
    # self times against the children's wall time, measured outside cli.run
    self_total = sum(totals.get(f"self:{layer}", 0) for layer in tracer.LAYERS)
    assert 0.9 * totals["child_s"] <= self_total <= totals["child_s"]


def test_metric_lists_agree():
    """BENCHMARK.json per_layer and the layer map in baseline.json name exactly tracer.METRICS."""
    names = [(name, unit, better) for name, unit, better, _ in tracer.METRICS]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == names
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert [m for layer in baseline["layers"] for m in layer["metrics"]] == [n for n, _, _ in names]
    for workload, record in baseline["baseline"].items():
        assert sorted(record["per_layer"]) == sorted(n for n, _, _ in names), workload
