import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from argv_cases import BAD_ARGV, FILES, USAGE_ARGV, write_files
from util import ref_parse, ref_sampled_cover, ref_sampled_disjoint
from waverep import cli, operators, spectral
from waverep.boxes import Box, BoxSet
from waverep.cli import run
from waverep.errors import InputError
from waverep.groups import phase_exp, validate_dilation

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


def json_text(report: dict) -> str:
    """The reference encoding of a report: json's own indented encoder, sorted keys, no NaN."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def gram_report(real, imag, **extra) -> dict:
    labels = [[0, [v]] for v in range(len(real))]
    report = {"command": "gram", "mode": "closed-form", "labels": labels, "matrix_real": real}
    return {**report, "matrix_imag": imag, "max_deviation": 0.0, "tolerance": 1e-12, **extra}


_EDGE = [[1.0, -0.0, 5e-324], [1e16, 1e-07, -2.5e-05], [-1e16, 0.1, 1.7976931348623157e308]]
_WITNESS = {"row": [0, [0]], "col": [1, [-2]], "entry": [0.5, -0.0]}
_REPORTS = [
    gram_report(_EDGE, [[-x for x in row] for row in _EDGE]),
    gram_report([[1.0]], [[0.0]]),
    gram_report(
        [[1.0, 0.25], [0.25, 1.0]], [[0.0, -0.0], [0.0, 0.0]], warning="max deviation", witness=_WITNESS
    ),
    gram_report([], []),
    gram_report([[], []], [[], []]),
    # arrays, as the gram command passes them: 0.0 and -0.0 are equal floats with different texts
    gram_report(np.array(_EDGE), np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0], [0.0, 0.0, -0.0]])),
]


def listed(report: dict) -> dict:
    """The report with each array replaced by its ``tolist()``, which json can encode."""
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in report.items()}


def _outcome(encode, value) -> tuple:
    try:
        return "ok", encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.fractions(max_denominator=3) | st.complex_numbers(max_magnitude=2)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.lists(st.floats(), max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=24,
)

_FINITE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1.0, 0.1, -2.5e-05])
_FINITE |= st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _float_arrays(draw) -> np.ndarray:
    """float64 arrays of shape 0x0, 1x1, kx0 or kxk, with NaN or an infinity anywhere in some."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(0, 0), (1, 1), (k, 0), (k, k)]))
    elements = _FINITE | st.sampled_from([math.nan, math.inf, -math.inf]) if draw(st.booleans()) else _FINITE
    return draw(hnp.arrays(np.float64, shape, elements=elements))


_ARRAYS = _float_arrays()


class TestReportEncoder:
    """The report writer against json's own encoder: the same bytes, and the same errors."""

    @settings(max_examples=400, deadline=None)
    @given(value=_VALUES)
    def test_writer_matches_json(self, value):
        want = _outcome(lambda v: json.dumps(v, indent=2, sort_keys=True, allow_nan=False), value)
        assert _outcome(cli._json, value) == want

    @settings(max_examples=300, deadline=None)
    @given(arr=_ARRAYS)
    def test_array_writer_matches_json_of_its_list(self, arr):
        nested = ({"b": arr, "a": [arr]}, {"b": arr.tolist(), "a": [arr.tolist()]})
        for value, plain in ((arr, arr.tolist()), (arr.T, arr.T.tolist()), nested):
            want = _outcome(lambda v: json.dumps(v, indent=2, sort_keys=True, allow_nan=False), plain)
            assert _outcome(cli._json, value) == want

    @pytest.mark.parametrize(
        "report", _REPORTS, ids=["edge", "one-label", "witness", "empty", "empty-rows", "arrays"]
    )
    def test_emit_matches_json(self, report, tmp_path, capsys):
        cli._emit(report, None)
        assert capsys.readouterr().out == json_text(listed(report))
        path = tmp_path / "report.json"
        cli._emit(report, str(path))
        assert path.read_text() == json_text(listed(report))
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--set", "shannon", "--dilation", "[[2]]", "--m", "1", "--v", "3"],
            ["--set", "shannon", "--dilation", "[[2]]", "--m", "0", "--v", "0"],
            ["--set", "ss.json", "--dilation", "[[2,0],[0,-2]]", "--m", "1", "--v", "1"],
            ["--set", "bad.json", "--dilation", "[[2]]", "--m", "1", "--v", "2"],
            ["--set", "ss.json", "--dilation", "[[0,2],[2,0]]", "--m", "1", "--v", "1", "--tol", "0"],
        ],
        ids=["shannon", "one-label", "2d", "witness", "quadrature"],
    )
    def test_gram_reports_match_json(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ss.json").write_text(json.dumps(FILES["sxs.json"]))
        (tmp_path / "bad.json").write_text(json.dumps({"dim": 1, "boxes": [{"lo": ["0"], "hi": ["2"]}]}))
        code, out = run_capture(["gram", *argv], capsys)
        assert code in (0, 1)
        assert out == json_text(json.loads(out))
        assert run(["gram", *argv, "--output", "out.json"]) == code
        assert (tmp_path / "out.json").read_text() == out
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key, row", [("matrix_real", 0), ("matrix_imag", 1)])
    def test_non_finite_matrix_exits_two(self, bad, key, row, tmp_path, monkeypatch, capsys):
        report = gram_report([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
        report[key][row][1] = bad
        with pytest.raises(ValueError) as err:
            json_text(report)
        monkeypatch.setattr("waverep.cli._cmd_gram", lambda args: (0, report))
        argv = ["gram", "--set", "shannon", "--dilation", "[[2]]"]
        code, out = run_capture(argv, capsys)
        assert (code, out) == (2, json_text({"error": str(err.value)}))
        code, out = run_capture([*argv, "--output", str(tmp_path / "out.json")], capsys)
        assert (code, out) == (2, json_text({"error": str(err.value)}))
        assert not (tmp_path / "out.json").exists()

    def test_first_non_finite_value_in_key_and_row_order(self, monkeypatch, capsys):
        # matrix_imag sorts first, so its infinity is named, not the NaN of matrix_real
        report = gram_report([[math.nan, 0.0]], [[0.0, 0.0], [0.0, -math.inf]])
        monkeypatch.setattr("waverep.cli._cmd_gram", lambda args: (0, report))
        code, out = run_capture(["gram", "--set", "shannon", "--dilation", "[[2]]"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "Out of range float values are not JSON compliant: -inf"


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


_COMMANDS = ["verify-set", "gram", "decompose", "rep", "wavelet-eval", "density", "mean-coef"]
_FLAGS = [
    "--set", "--dilation", "--j-max", "--annulus", "--samples", "--seed", "--mode", "--output",
    "--m", "--v", "--tol", "--function", "--k-min", "--k-max", "--x", "--element", "--K",
    "--points", "--grid", "--csv", "--targets", "--eps", "--beta", "--help",
    # prefixes, unique or not, and words that look like options
    "--s", "--sa", "--d", "--j", "--k", "--k-m", "--t", "--e", "--he", "--o", "---", "--bogus",
]
_WORDS = [
    "-h", "-hh", "-hx", "-h=", "-x", "-", "--", "1", "0", "-1", "-0.3", "-.5", "-1e3", "x", "",
    "1/2 pi", "-1/2", "-1/2 pi", "fast", "auto", "exact", "1,2", "1/64,64", "2,1", "0:1:3", "1:2",
    "0;0.5", "1,a", "nan", "extra", "shannon",
]


def table_parse(argv: list[str]) -> tuple:
    """The option table's reading of argv, in the form of ``util.ref_parse``."""
    try:
        return "ok", vars(cli._parse(argv))
    except cli._Help as exc:
        return "help", exc.args[0]
    except InputError as exc:
        return "error", str(exc)


class TestOptionTable:
    """The option table reads argv as argparse read the same options, and imports neither."""

    @pytest.mark.parametrize("argv", [*USAGE_ARGV.values(), *BAD_ARGV], ids=" ".join)
    def test_reads_the_cases_as_argparse(self, argv):
        assert table_parse(argv) == ref_parse(argv)

    @settings(max_examples=400, deadline=None)
    @given(
        first=st.sampled_from([*_COMMANDS, "nosuch", "", "--", "-h", "--bogus", "-5"]),
        rest=st.lists(
            st.one_of(
                st.sampled_from(_FLAGS + _WORDS),
                # "--opt=--" is left out: argparse read it as an empty list (see below)
                st.builds(
                    "{}={}".format, st.sampled_from(_FLAGS), st.sampled_from([w for w in _WORDS if w != "--"])
                ),
            ),
            max_size=10,
        ),
    )
    def test_reads_argv_as_argparse(self, first, rest):
        argv = [first, *rest]
        assert table_parse(argv) == ref_parse(argv)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1]}', "--j-max=--"], "j_max"),
            (["rep", "--dilation", "[[2]]", "--x=--", "--element", '{"v": [1]}'], "x"),
        ],
    )
    def test_double_dash_after_equals_is_a_value(self, argv, name, capsys):
        # argparse read "--opt=--" as an empty list, which the handler met with a traceback
        assert ref_parse(argv)[1][name] == []
        code, out = run_capture(argv, capsys)
        assert code == 2
        assert list(json.loads(out)) == ["error"]

    def test_help_has_one_section_per_command(self, capsys):
        assert run(["--help"]) == 0
        full = capsys.readouterr().out
        assert full.startswith("usage: waverep")
        at = 0
        for name in _COMMANDS:
            assert run([name, "--help"]) == 0
            section = capsys.readouterr().out
            assert section.startswith(f"usage: waverep {name} ")
            assert full.count(section) == 1
            assert full.index(section) > at
            at = full.index(section)
        assert full.endswith(section)

    def test_cli_imports_no_argparse_gettext_or_locale(self):
        script = (
            "import sys\n"
            "from waverep import cli\n"
            "cli.run(['rep', '--dilation', '[[2]]', '--x', '1/2 pi', '--element', '{\"v\": [1]}', '--K', '2'])\n"
            "cli.run(['verify-set', '--set', 'shannon', '--dilation', '[[2]]', '--j-max', '2'])\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestInputBoundary:
    """Bad arguments exit 2 with a JSON error before any check runs."""

    @pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
    def test_exit_two_with_json_error(self, argv, tmp_path, monkeypatch, capsys):
        write_files(tmp_path)
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
        write_files(tmp_path)
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


# values of the option table's str-typed options, by flag: (values that suit, values that break);
# every such option of cli._COMMANDS has a pool
_POOLS = {
    "--set": (["shannon", "ss.json", "sxs.json"], ["empty.json", "f1d.json", "missing.json", "."]),
    "--dilation": (["[[2]]", "[[-3]]", "[[2,0],[0,2]]", "[[0,2],[2,0]]"], ["[[1]]", "[[2", "[]", "x.json"]),
    "--annulus": (["1/2,2", "1/64,64", "1/4,8"], ["2,1", "1", "0,1", "a,b"]),
    "--function": (["f1d.json", "f2d.json"], ["fbad.json", "finf.json", "missing.json"]),
    "--x": (["1/2 pi", "0.3", "1/3 pi,-0.2"], ["nan", "a", "", "1/0 pi"]),
    "--element": (['{"v": [1], "j": 1, "m": 1}', '{"v": [1, -2], "m": -1}', '{"v": [0]}'], _ADIC[3:]),
    "--beta": (['{"v": [1], "j": 1}', '{"v": [1, -2]}', '{"v": [0]}'], _ADIC[3:]),
    "--points": (["0;0.5", "1,2", "0.25"], ["1,a", "", "inf", "1e308"]),
    "--grid": (["-1:1:3", "0:2:5"], ["1:2", "0:1:-1", "a:b:c"]),
    "--csv": (["psi.csv"], ["missing/psi.csv"]),
    "--targets": (["targets.json"], ["nophases.json", "not.json", "tdict.json", "f1d.json"]),
    "--output": (["out.json"], ["missing/out.json"]),
}
# by the converter's name: "int" is int and every _int_at_least, "float" the tolerances
_TYPED = {
    "int": (["0", "1", "2"], ["-1", "x", "1.5", "", "-"]),
    "float": (["0", "1e-12", "0.5"], ["-1", "nan", "inf", "x"]),
}


def _pool(option) -> tuple[list[str], list[str]]:
    if option.choices is not None:
        return list(option.choices), ["fast", ""]
    return _TYPED.get(option.convert.__name__) or _POOLS[option.flag]


@st.composite
def contract_argv(draw) -> list[str]:
    """An argv of one command of ``cli._COMMANDS`` with at most one flaw, its options in any order.

    The required options and one of an exclusive pair are given, and so is an option whose
    default is an int above 2 (draws, translations, scales, the window), so that no costly
    default runs; each other option is given or not.  The flaw, if any, is a value that breaks
    its option, a given option left out, or words that no option takes.
    """
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    spec = cli._COMMANDS[name]
    one = draw(st.sampled_from(spec.exclusive)) if spec.exclusive else None
    pairs, pools, loose = [], [], []  # loose: the pairs that may be left out
    for option in spec.options:
        needed = option.default is cli._REQUIRED or option.flag == one
        costly = type(option.default) is int and option.default > 2
        if needed or costly or (option.flag not in spec.exclusive and draw(st.booleans())):
            if not costly:
                loose.append(len(pairs))
            pools.append(_pool(option))
            pairs.append([option.flag, draw(st.sampled_from(pools[-1][0]))])
    flaw = draw(st.sampled_from(["none", "none", "none", "value", "omit", "junk"]))
    if flaw == "value":
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i][1] = draw(st.sampled_from(pools[i][1]))
    elif flaw == "omit":
        del pairs[draw(st.sampled_from(loose))]
    words = [word for pair in draw(st.permutations(pairs)) for word in pair]
    if flaw == "junk":
        words += draw(st.sampled_from([["--bogus", "1"], ["extra"], ["--", "1"]]))
    return [name, *words]


def _has_witness(report) -> bool:
    if isinstance(report, dict):
        return report.get("witness") is not None or any(map(_has_witness, report.values()))
    return isinstance(report, list) and any(map(_has_witness, report))


class TestExitCodeContract:
    """0 passes, 1 fails with a witness, 2 is a usage or input error; stdout is JSON, stderr empty."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=contract_argv())
    def test_every_argv_keeps_the_contract(self, argv, tmp_path, monkeypatch, capsys):
        write_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.json").unlink(missing_ok=True)
        code = run(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert captured.err == ""
        # a report written through --output leaves stdout empty
        text = captured.out or (tmp_path / "out.json").read_text()
        report = json.loads(text, parse_constant=pytest.fail)
        assert isinstance(report, dict)
        if code == 2:
            assert list(report) == ["error"]
        elif code == 1:
            assert _has_witness(report) or {"error", "kind"} <= set(report)
        else:
            assert "error" not in report

    def test_every_option_has_a_pool(self):
        for command in cli._COMMANDS.values():
            for option in command.options:
                good, bad = _pool(option)
                assert good and bad

    def test_closed_stdout_exits_two_without_a_traceback(self):
        # the reader takes 10 bytes of a report of about 169 KB and closes the pipe, which the
        # writer meets once the pipe's buffer is full
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        argv = [sys.executable, "-m", "waverep.cli", "gram", "--set", "shannon", "--dilation", "[[2]]"]
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (head, proc.wait(timeout=60), err) == (b'{\n  "comma', 2, b"")


class TestInputDecoding:
    """Inputs the CLI decodes through jsonio: what it accepts, and the error text of what it refuses."""

    def run_set(self, tmp_path, capsys, text):
        f = tmp_path / "s.json"
        f.write_text(text)
        return run_capture(["verify-set", "--set", str(f), "--dilation", "[[2]]"], capsys)

    def test_integer_ratios(self, tmp_path, capsys):
        text = json.dumps({"dim": 1, "boxes": [{"lo": [-2], "hi": [-1]}, {"lo": [1], "hi": [2]}]})
        code, out = self.run_set(tmp_path, capsys, text)
        assert code == 0
        boxes = [{"lo": ["-2"], "hi": ["-1"]}, {"lo": ["1"], "hi": ["2"]}]
        assert json.loads(out)["set"] == {"dim": 1, "boxes": boxes}

    @pytest.mark.parametrize(
        "data, error",
        [
            (
                {"dim": 1, "boxes": [{"lo": [1.5], "hi": ["2"]}]},
                "bad rational 1.5 (use 'p/q' strings or integers)",
            ),
            ({"dim": 1}, "malformed set definition: 'boxes'"),
            ({"dim": 1, "boxes": [{"lo": ["1"]}]}, "malformed set definition: 'hi'"),
        ],
    )
    def test_bad_set(self, data, error, tmp_path, capsys):
        code, out = self.run_set(tmp_path, capsys, json.dumps(data))
        assert code == 2
        assert json.loads(out) == {"error": error}

    def test_invalid_json_file(self, tmp_path, capsys):
        code, out = self.run_set(tmp_path, capsys, '{"dim": 1,\n "boxes": [}')
        assert code == 2
        assert json.loads(out)["error"] == f"{tmp_path / 's.json'}: invalid JSON at line 2: Expecting value"

    def test_float_point(self, capsys):
        argv = ["rep", "--dilation", "[[2]]", "--x", "0.3", "--element", '{"v": [1], "j": 1}', "--K", "2"]
        code, out = run_capture(argv, capsys)
        assert code == 0
        assert json.loads(out)["point"] == ["0.3"]

    @pytest.mark.parametrize("element", ["[1]", "3", '{"v": 1}'])
    def test_element_that_is_not_an_object(self, element, capsys):
        argv = ["rep", "--dilation", "[[2]]", "--x", "1/2 pi", "--element", element, "--K", "2"]
        code, out = run_capture(argv, capsys)
        assert code == 2
        got = json.loads(element)
        assert json.loads(out) == {"error": f'an A-adic element is {{"v": [...], "j": J}}, got {got!r}'}


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

    @pytest.mark.parametrize(
        "term, path",
        [({}, "exact"), ({"beta": {"v": [1], "j": 1}}, "closed-form")],
    )
    def test_two_piece_scans_per_call(self, term, path, tmp_path, monkeypatch, capsys):
        # one scan fills the window and maps f, one more gives the defect
        scans = []
        pieces = spectral._pieces

        def counting(*args):
            scans.append(args[3:])
            return pieces(*args)

        monkeypatch.setattr(spectral, "_pieces", counting)
        fn = tmp_path / "f.json"
        box = {"lo": ["2"], "hi": ["3"]}
        fn.write_text(json.dumps({"terms": [{"re": 1.0, "box": box, **term}]}))
        argv = ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", str(fn)]
        code, out = run_capture(argv, capsys)
        assert code == 0 and json.loads(out)["path"] == path
        assert scans == [(-48, 48), (1, 1)]


class TestRep:
    def test_one_character_table_per_call(self, monkeypatch, capsys):
        calls = []
        value = operators.character_value

        def counting(x, beta):
            calls.append(beta)
            return value(x, beta)

        monkeypatch.setattr(operators, "character_value", counting)
        argv = ["rep", "--dilation", "[[2]]", "--x", "3/2 pi", "--element", '{"v": [1], "m": 1}']
        code, _ = run_capture([*argv, "--K", "32"], capsys)
        assert code == 0 and len(calls) == 2 * 32 + 1

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

    def test_float_overflow_keeps_its_error_text(self, capsys):
        argv = ["rep", "--dilation", "[[2]]", "--x", "0.3", "--element", '{"v":[1],"j":1,"m":0}']
        code, out = run_capture([*argv, "--K", "1100"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == (
            "a value is out of float range at --K 1100 (try a smaller --K): "
            "integer division result too large for a float"
        )

    def test_exact_point_has_no_float_range(self, capsys):
        # an exact point reduces every phase mod 2 before any float is formed
        argv = ["rep", "--dilation", "[[2]]", "--x", "1/3 pi", "--element", '{"v":[1],"j":1,"m":0}']
        code, out = run_capture([*argv, "--K", "1100"], capsys)
        assert code == 0
        phases = json.loads(out)["fiber"]["phases"]
        # e^{-i pi 2^(k-1) / 3} for k >= 1, and 2^(k-1) = 2 mod 3 at every even k
        want = phase_exp(Fraction(-2, 3))
        assert len(phases) == 2201
        assert phases[1100 + 1100] == phases[1100 + 2] == [want.real, want.imag]


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

    def test_error_above_eps_is_the_library_verdict(self, tmp_path, monkeypatch, capsys):
        # every consistent target is met exactly, so only a perturbed character reaches eps
        from waverep import density

        value = density.character_value
        monkeypatch.setattr(density, "character_value", lambda y, beta: value(y, beta) + 1e-3)
        targets = tmp_path / "targets.json"
        target = {"phases": [{"v": [1], "j": 1, "t": "-1/2"}], "test_set": [{"v": [1], "j": 1}]}
        targets.write_text(json.dumps([target]))
        argv = ["density", "--dilation", "[[2]]", "--targets", str(targets)]
        code, out = run_capture([*argv, "--eps", "0.01"], capsys)
        assert code == 0 and json.loads(out)["max_error"] == pytest.approx(1e-3)
        code, out = run_capture([*argv, "--eps", "1e-4"], capsys)
        assert code == 1
        error = "achieved error 1.000e-03 exceeds eps 1.0e-04"
        assert json.loads(out) == {"error": error, "kind": "InconsistentTarget"}


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
