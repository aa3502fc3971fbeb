import json
import math
from fractions import Fraction

import pytest

from waverep.cli import run


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerifySet:
    def test_shannon_builtin_passes(self, capsys):
        code, out = run_capture(["verify-set", "--set", "shannon", "--dilation", "[[2]]"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"]
        assert report["measure_pi_units"] == "2"

    def test_set_file(self, tmp_path, capsys):
        f = tmp_path / "set.json"
        f.write_text(
            json.dumps(
                {"dim": 1, "boxes": [{"lo": ["-2"], "hi": ["-1"]}, {"lo": ["1"], "hi": ["2"]}]}
            )
        )
        code, out = run_capture(["verify-set", "--set", str(f), "--dilation", "[[2]]"], capsys)
        assert code == 0

    def test_shifted_counterexample_exit_one_with_witness(self, tmp_path, capsys):
        f = tmp_path / "shifted.json"
        f.write_text(
            json.dumps(
                {
                    "dim": 1,
                    "boxes": [
                        {"lo": ["9/8"], "hi": ["17/8"]},
                        {"lo": ["-15/8"], "hi": ["-7/8"]},
                    ],
                }
            )
        )
        code, out = run_capture(["verify-set", "--set", str(f), "--dilation", "[[2]]"], capsys)
        assert code == 1
        report = json.loads(out)
        cover = report["conditions"]["dilation_cover"]
        assert not cover["passed"]
        assert cover["witness"]["uncovered"]["boxes"]

    def test_usage_error_exit_two(self, capsys):
        code, out = run_capture(["verify-set", "--set", "nosuch.json", "--dilation", "[[2]]"], capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_bad_matrix_exit_two(self, capsys):
        code, _ = run_capture(["verify-set", "--set", "shannon", "--dilation", "[[1]]"], capsys)
        assert code == 2

    def test_byte_identical_reports(self, capsys):
        argv = ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--seed", "5"]
        _, out1 = run_capture(argv, capsys)
        _, out2 = run_capture(argv, capsys)
        assert out1 == out2

    def test_witness_reverifies_with_single_operation(self, tmp_path, capsys):
        # an uncovered-gap witness must itself fail the point projection
        f = tmp_path / "shifted.json"
        f.write_text(
            json.dumps(
                {
                    "dim": 1,
                    "boxes": [
                        {"lo": ["9/8"], "hi": ["17/8"]},
                        {"lo": ["-17/8"], "hi": ["-9/8"]},
                    ],
                }
            )
        )
        code, out = run_capture(["verify-set", "--set", str(f), "--dilation", "[[2]]"], capsys)
        assert code == 1
        gap = json.loads(out)["conditions"]["dilation_cover"]["witness"]["uncovered"]["boxes"][0]
        from waverep.boxes import interval_set
        from waverep.errors import NotCovered
        from waverep.groups import RealPoint, validate_dilation
        from waverep.jsonio import parse_boxset, parse_ratio
        from waverep.spectral import project_point

        lo, hi = parse_ratio(gap["lo"][0]), parse_ratio(gap["hi"][0])
        midpoint = RealPoint.from_pi([(lo + hi) / 2])
        E = parse_boxset(json.loads(f.read_text()))
        with pytest.raises(NotCovered):
            project_point(midpoint, E, validate_dilation([[2]]), max_iter=16)


class TestGramCommand:
    def test_shannon_identity(self, capsys):
        code, out = run_capture(
            ["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "2", "--v", "8"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_deviation"] < 1e-12

    def test_failing_set_witness(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"dim": 1, "boxes": [{"lo": ["0"], "hi": ["2"]}]}))
        code, out = run_capture(
            ["gram", "--set", str(f), "--dilation", "[[2]]", "--m", "1", "--v", "2"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert "witness" in report


class TestInputBoundary:
    """Bad arguments exit 2 with a JSON error before any check runs."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--annulus", "1"],
            ["--annulus", "1,2,3"],
            ["--annulus", "2,1", "--mode", "sampled"],
            ["--annulus", "2,1", "--mode", "exact"],
            ["--annulus", "0,1"],
            ["--j-max", "-1"],
        ],
    )
    def test_verify_set(self, extra, capsys):
        argv = ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--samples", "10"]
        code, out = run_capture(argv + extra, capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_verify_set_zero_j_max_is_a_check(self, capsys):
        code, out = run_capture(
            ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--j-max", "0"], capsys
        )
        assert code == 1
        assert json.loads(out)["conditions"]["dilation_disjoint"]["passed"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--set", "shannon", "--dilation", "[[2]]", "--m", "-1"],
            ["--set", "shannon", "--dilation", "[[2]]", "--v", "-1"],
            ["--set", "shannon", "--dilation", "[[2,0],[0,2]]"],
            ["--set", "shannon", "--dilation", "[[2,1],[0,2]]"],
        ],
    )
    def test_gram(self, extra, capsys):
        code, out = run_capture(["gram"] + extra, capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_gram_empty_set(self, tmp_path, capsys):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"dim": 1, "boxes": []}))
        code, out = run_capture(["gram", "--set", str(f), "--dilation", "[[2]]"], capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_gram_zero_ranges_are_valid(self, capsys):
        code, out = run_capture(
            ["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "0", "--v", "0"], capsys
        )
        assert code == 0
        assert json.loads(out)["matrix_real"] == [[1.0]]


class TestDecompose:
    def test_indicator(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(
            json.dumps(
                {
                    "terms": [
                        {"re": 1.0, "box": {"lo": ["-2"], "hi": ["-1"]}},
                        {"re": 1.0, "box": {"lo": ["1"], "hi": ["2"]}},
                    ]
                }
            )
        )
        code, out = run_capture(
            ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", str(fn)],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["isometry_defect"] == 0.0
        assert list(report["layers"]) == ["0"]


class TestRep:
    def test_fiber_report(self, capsys):
        code, out = run_capture(
            [
                "rep",
                "--dilation",
                "[[2]]",
                "--x",
                "3/2 pi",
                "--element",
                '{"v": [1], "j": 0, "m": 1}',
                "--K",
                "8",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["fiber"]["shift"] == 1
        assert report["induced"]["shift"] == -1
        assert report["reflection_intertwiner_deviation"] == 0.0
        mags = [math.hypot(re, im) for re, im in report["fiber"]["phases"]]
        assert all(abs(m - 1) < 1e-14 for m in mags)


class TestWaveletEval:
    def test_grid_values(self, capsys):
        code, out = run_capture(
            ["wavelet-eval", "--set", "shannon", "--points", "0;0.5"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["values"][0][0] == pytest.approx(1.0)
        assert report["values"][1][0] == pytest.approx(-2 / math.pi)

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "psi.csv"
        code, _ = run_capture(
            ["wavelet-eval", "--set", "shannon", "--grid=-2:2:9", "--csv", str(csv)],
            capsys,
        )
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 10


class TestDensity:
    def test_target_file(self, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        targets.write_text(
            json.dumps(
                [
                    {
                        "phases": [{"v": [1], "j": 1, "t": "-1/2"}],
                        "test_set": [{"v": [1], "j": 1}, {"v": [1], "j": 0}],
                    }
                ]
            )
        )
        code, out = run_capture(
            ["density", "--dilation", "[[2]]", "--targets", str(targets), "--set", "shannon"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_error"] <= 1e-10
        assert report["targets"][0]["y"] == ["-1 pi"]

    def test_inconsistent_target_exit_one(self, tmp_path, capsys):
        targets = tmp_path / "targets.json"
        targets.write_text(
            json.dumps(
                [{"phases": [{"v": [1], "j": 1, "t": "0"}, {"v": [1], "j": 0, "t": "1"}]}]
            )
        )
        code, out = run_capture(
            ["density", "--dilation", "[[2]]", "--targets", str(targets)], capsys
        )
        assert code == 1
        assert json.loads(out)["kind"] == "InconsistentTarget"


class TestMeanCoef:
    def test_decay_table(self, capsys):
        code, out = run_capture(
            ["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1], "j": 1}', "--j-max", "4"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["table"][0]["value"][0] == pytest.approx(2 / math.pi)
        assert report["table"][1]["abs"] < report["table"][0]["abs"]
        assert report["table"][4]["abs"] == 0.0

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run(
            [
                "mean-coef",
                "--dilation",
                "[[2]]",
                "--beta",
                '{"v": [0], "j": 0}',
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["table"][0]["abs"] == 1.0
