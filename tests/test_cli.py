import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from util import ref_sampled_cover, ref_sampled_disjoint
from waverep.boxes import Box, BoxSet
from waverep.cli import run
from waverep.groups import validate_dilation

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_thin_annulus_sampled(self, capsys):
        # a shell 1/1000 thick, where sampling by rejection from the cube rarely hits
        argv = ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--annulus", "999/1000,1"]
        code, out = run_capture(argv + ["--mode", "sampled", "--samples", "300"], capsys)
        assert code == 0
        assert json.loads(out)["all_passed"]

    def test_byte_identical_reports(self, capsys):
        argv = ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--seed", "5"]
        _, out1 = run_capture(argv, capsys)
        _, out2 = run_capture(argv, capsys)
        assert out1 == out2

    def test_byte_identical_sampled_reports(self, capsys):
        argv = ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--seed", "5"]
        argv += ["--mode", "sampled", "--samples", "300", "--annulus", "1/8,8", "--j-max", "4"]
        code, out1 = run_capture(argv, capsys)
        _, out2 = run_capture(argv, capsys)
        assert code == 0
        assert out1 == out2
        cover = json.loads(out1)["conditions"]["dilation_cover"]
        assert cover["fail_fraction_bound"] == math.log(20) / 300

    @pytest.mark.filterwarnings("error")
    def test_sampled_images_past_float_range_stay_quiet(self, tmp_path, capsys):
        # B^-j of a point near 10^307 pi leaves float range: the images are inf or NaN,
        # which lie in no box, and no RuntimeWarning reaches stderr
        f = tmp_path / "square.json"
        f.write_text(json.dumps({"dim": 2, "boxes": [{"lo": ["1", "1"], "hi": ["2", "2"]}]}))
        big = 10**307
        argv = ["verify-set", "--set", str(f), "--dilation", "[[3,1],[1,2]]"]
        argv += ["--annulus", f"1/2,{big}", "--samples", "50", "--j-max", "3"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        conditions = json.loads(captured.out)["conditions"]
        E = BoxSet(2, (Box((1, 1), (2, 2)),))
        A = validate_dilation([[3, 1], [1, 2]])
        annulus = (Fraction(1, 2), Fraction(big))
        disjoint = ref_sampled_disjoint(E, A, 3, 50, 0, annulus, "auto").to_json()
        disjoint["fail_fraction_bound"] = math.log(20) / 50
        assert conditions["dilation_disjoint"] == disjoint
        cover = ref_sampled_cover(E, A, 3, 50, 0, annulus).to_json()
        assert conditions["dilation_cover"] == cover

    def test_default_sampled_run_from_the_command_line(self):
        # the default 100k draws through main(): quick, exit 0 and nothing on stderr
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        argv = ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--mode", "sampled"]
        proc = subprocess.run(
            [sys.executable, "-m", "waverep.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["all_passed"] is True

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


# input files named by the boundary cases and the fuzz below
_FILES = {
    "f1d.json": {"terms": [{"re": 1.0, "box": {"lo": ["1"], "hi": ["2"]}}]},
    "f2d.json": {"terms": [{"re": 1.0, "box": {"lo": ["1", "1"], "hi": ["2", "2"]}}]},
    "fbad.json": {"terms": [{"re": "x", "box": {"lo": ["1"]}}]},
    "ss.json": {"dim": 2, "boxes": [{"lo": ["1", "1"], "hi": ["2", "2"]}]},
    "empty.json": {"dim": 1, "boxes": []},
    "fracdim.json": {"dim": 1.5, "boxes": [{"lo": ["1"], "hi": ["2"]}, {"lo": ["-2"], "hi": ["-1"]}]},
    "targets.json": [{"phases": [{"v": [1], "j": 1, "t": "-1/2"}]}],
    "nophases.json": [{"test_set": [{"v": [1]}]}],
    "not.json": [{"phases": [{"v": [1], "j": 1}]}],
    "tdict.json": {"phases": []},
    "sxs.json": {
        "dim": 2,
        "boxes": [
            {"lo": [a, b], "hi": [c, d]}
            for a, c in (("-2", "-1"), ("1", "2"))
            for b, d in (("-2", "-1"), ("1", "2"))
        ],
    },
    "fbig.json": {
        "terms": [
            {"re": 1e308, "box": {"lo": ["1"], "hi": ["3/2"]}},
            {"re": 1e308, "box": {"lo": ["3/2"], "hi": ["2"]}},
        ]
    },
    "finf.json": {"terms": [{"re": "inf", "box": {"lo": ["1"], "hi": ["2"]}}]},
}


def _write_files(directory):
    for name, data in _FILES.items():
        (directory / name).write_text(json.dumps(data))


_X = ["--dilation", "[[2]]", "--x", "1/2 pi"]
_BAD_ARGV = [
    # malformed values and a missing option
    ["wavelet-eval", "--set", "shannon"],
    ["wavelet-eval", "--set", "shannon", "--points", "1,a"],
    ["wavelet-eval", "--set", "shannon", "--grid", "1:2"],
    ["wavelet-eval", "--set", "shannon", "--points", "1,2"],
    ["rep", *_X, "--element", "{bad"],
    ["mean-coef", "--dilation", "[[2]]", "--beta", "x"],
    ["rep", *_X, "--element", '{"v": [1], "j": -1}'],
    ["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1], "j": -1}'],
    ["density", "--dilation", "[[2]]", "--targets", "nophases.json"],
    ["density", "--dilation", "[[2]]", "--targets", "not.json"],
    # values that do not fit the matrix or the window
    ["rep", *_X, "--element", '{"v": [1, 2]}'],
    ["rep", "--dilation", "[[2]]", "--x", "1/2 pi,1", "--element", '{"v": [1]}'],
    ["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1, 2]}'],
    ["verify-set", "--set", "shannon", "--dilation", "[[2,0],[0,2]]"],
    ["decompose", "--set", "shannon", "--dilation", "[[2,0],[0,2]]", "--function", "f2d.json"],
    ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "f2d.json"],
    ["rep", *_X, "--element", '{"v": [1]}', "--K", "-3"],
    ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "f1d.json",
     "--k-min", "3", "--k-max", "1"],
    # counts out of range, which would run no check at all
    ["verify-set", "--set", "shannon", "--dilation", "[[0,2],[2,0]]", "--samples", "0"],
    ["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1]}', "--j-max", "-1"],
    # unknown options and non-integer values
    ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--bogus", "1"],
    ["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "x"],
    # unusable files, sets and numbers
    ["verify-set", "--set", "ss.json", "--dilation", "[[0,2],[2,0]]", "--mode", "exact"],
    ["verify-set", "--set", ".", "--dilation", "[[2]]"],
    ["wavelet-eval", "--set", "empty.json", "--points", "1"],
    ["verify-set", "--set", "empty.json", "--dilation", "[[2]]"],
    ["verify-set", "--set", "fracdim.json", "--dilation", "[[2]]"],
    ["wavelet-eval", "--set", "shannon", "--points", "1e308"],
    ["density", "--dilation", "[[2]]", "--targets", "tdict.json"],
    ["density", "--dilation", "[[2]]", "--targets", "targets.json", "--set", "ss.json"],
    ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "fbad.json"],
    ["rep", "--dilation", "[[2]]", "--x", "nan", "--element", '{"v": [1]}'],
    ["rep", *_X, "--element", '{"v": [1.5]}'],
    ["wavelet-eval", "--set", "shannon", "--points", "1", "--csv", "missing/psi.csv"],
    ["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1]}', "--output", "missing/out.json"],
    # values out of float range
    ["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--mode", "sampled", "--j-max", "1100",
     "--samples", "3"],
    ["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "2100", "--v", "0"],
    ["gram", "--set", "sxs.json", "--dilation", "[[0,2],[2,0]]", "--m", "520", "--v", "0"],
    ["rep", "--dilation", "[[2]]", "--x", "0.3", "--element", '{"v":[1],"j":1,"m":0}', "--K", "1100"],
    ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "fbig.json"],
    # numbers that are not finite, and a negative tolerance
    ["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "0", "--v", "0", "--tol", "nan"],
    ["density", "--dilation", "[[2]]", "--targets", "targets.json", "--eps", "nan"],
    ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "finf.json"],
    ["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "0", "--v", "0", "--tol", "-1"],
]


_MATRICES = ["[[2]]", "[[-3]]", "[[2,0],[0,2]]", "[[0,2],[2,0]]", "[[1]]", "[[2", "[]", "x.json"]
_SETS = ["shannon", "ss.json", "empty.json", "f1d.json", "missing.json", "."]
_SMALL = ["-1", "0", "1", "2", "x", "1.5"]
_ADIC = ['{"v": [1], "j": 1, "m": 1}', '{"v": [1, -2], "m": -1}', '{"v": [0]}', "{bad", "[]",
         '{"v": [1], "j": -1}', '{"v": ["a"]}', '{"v": [1], "m": true}', "7"]
# per subcommand, each option with the values the fuzz may give it; an option drawn as
# absent keeps its default, so a costly default (--samples, --m, --v) is always given
_FUZZ = {
    "verify-set": [
        ("--set", _SETS), ("--dilation", _MATRICES), ("--j-max", _SMALL),
        ("--annulus", ["1/2,2", "2,1", "1", "0,1", "a,b", "999/1000,1"]),
        ("--samples", ["-1", "0", "5", "20"]), ("--seed", ["0", "3", "x"]),
        ("--mode", ["auto", "exact", "sampled", "fast"]),
    ],
    "gram": [
        ("--set", _SETS), ("--dilation", _MATRICES),
        ("--m", ["-1", "0", "1", "x"]), ("--v", ["-1", "0", "1", "2"]),
        ("--tol", ["1e-12", "nan", "x"]),
    ],
    "decompose": [
        ("--set", _SETS), ("--dilation", _MATRICES),
        ("--function", ["f1d.json", "f2d.json", "fbad.json", "ss.json", "missing.json"]),
        ("--k-min", ["-2", "0", "3", "x"]), ("--k-max", ["-2", "1", "3"]),
    ],
    "rep": [
        ("--dilation", _MATRICES),
        ("--x", ["1/2 pi", "0.3", "1/3 pi,-0.2", "nan", "a", "", "1/0 pi"]),
        ("--element", _ADIC), ("--K", _SMALL),
    ],
    "wavelet-eval": [
        ("--set", _SETS), ("--points", ["0;0.5", "1,2", "1,a", "", "inf", "nan", "1e308"]),
        ("--grid", ["-1:1:3", "1:2", "0:1:-1", "a:b:c"]),
    ],
    "density": [
        ("--dilation", _MATRICES),
        ("--targets", ["targets.json", "nophases.json", "not.json", "tdict.json", "f1d.json"]),
        ("--eps", ["1e-10", "-1", "x"]), ("--set", _SETS),
    ],
    "mean-coef": [("--dilation", _MATRICES), ("--beta", _ADIC), ("--j-max", _SMALL)],
}


class TestInputBoundary:
    """Bad arguments exit 2 with a JSON error before any check runs."""

    @pytest.mark.parametrize("argv", _BAD_ARGV, ids=" ".join)
    def test_exit_two_with_json_error(self, argv, tmp_path, monkeypatch, capsys):
        _write_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert list(json.loads(captured.out)) == ["error"]
        assert captured.err == ""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzz_argv(self, data, tmp_path, monkeypatch, capsys):
        _write_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        command, options = data.draw(st.sampled_from(sorted(_FUZZ.items())), label="command")
        argv = [command]
        for flag, values in options:
            value = data.draw(st.sampled_from([None, *values]), label=flag)
            if value is not None:
                argv += [flag, value]
        argv += data.draw(st.sampled_from([[], ["--bogus"], ["extra"]]), label="junk")
        code = run(argv)
        assert code in (0, 1, 2)
        assert isinstance(json.loads(capsys.readouterr().out), dict)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify-set", "--set", "shannon", "--dilation", "[[2]]", "--mode", "sampled",
              "--j-max", "1100", "--samples", "3"], "--j-max 1100"),
            (["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "2100", "--v", "0"], "--m 2100"),
            (["rep", "--dilation", "[[2]]", "--x", "0.3", "--element", '{"v":[1],"j":1,"m":0}',
              "--K", "1100"], "--K 1100"),
        ],
    )
    def test_out_of_float_range_names_the_scale_option(self, argv, named, capsys):
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        report = json.loads(captured.out)
        assert list(report) == ["error"]
        assert report["error"].startswith("a value is out of float range")
        assert named in report["error"]

    def test_non_finite_report_exits_two(self, monkeypatch, capsys):
        # a NaN that no input check caught is an error, never a bare NaN token on stdout
        monkeypatch.setattr("waverep.cli._cmd_mean_coef", lambda args: (0, {"value": math.nan}))
        code, out = run_capture(["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1]}'], capsys)
        assert code == 2
        assert list(json.loads(out, parse_constant=pytest.fail)) == ["error"]

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: waverep")

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
