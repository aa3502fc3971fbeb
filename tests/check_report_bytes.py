"""Check that two source trees give the same CLI reports, byte for byte, on the benchmark ops.

    python tests/check_report_bytes.py OLD_ROOT NEW_ROOT

Takes every call of cycles 0-3 of the three workloads in
``perfbench/workloads.py``, at seeds 3, 17 and 29, a fixed list of
``decompose`` calls with and without window ends (none of the workload
ops passes ``--k-min`` or ``--k-max``), and a fixed list of ``verify-set``
and ``gram`` calls: exact 1-D, 2-D and 3-D covers that fail, one of them
on grid integers past 2^63, sets that fail translation congruence, and
Gram matrices of up to 507 labels in 1-D and 2-D, one with shifts over
odd negative powers of -3, one written through ``--output``, and failing
ones whose witness is a diagonal entry (quadrature) or the first of tied
maxima (closed form); exact ``verify-set`` calls on [1, 3) and [1, 3)^2
whose dilates overlap, so that the witness is the intersection of two
dilates; and ``wavelet-eval`` on Shannon at a grid and at points, some of
them below 2^-40 (the removable singularity), and on S x S at 2-D points.
It also makes the usage calls of ``argv_cases.py`` beside this script:
every argv of the CLI tests that must exit 2, and the argv grammar (``=`` values, prefixes, option-like values,
repeats, missing and unknown options and commands); ``--help`` is left out,
since its text is not a JSON report.  It compares the exit code and stdout
of each call between the two trees, and the ``--output`` file with it.  Each tree runs in
its own subprocess, which imports ``waverep`` from ROOT/src and makes
every call in-process through ``waverep.cli.run``, from a temporary
working directory that holds the op's input files.  The workloads are
read from the ``perfbench/`` beside this script, and nothing is written
there: the subprocesses write no bytecode.  Prints how many calls differ
and the first few of them; exits 1 when any call differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import argv_cases

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (3, 17, 29)
CYCLES = range(4)
SHOWN = 5


def _terms(*terms) -> str:
    """A function file: each term (coefficient, lo, hi, beta or None) in pi units."""
    out = []
    for re, lo, hi, beta in terms:
        term = {"re": re, "box": {"lo": lo, "hi": hi}}
        out.append(term if beta is None else {**term, "beta": beta})
    return json.dumps({"terms": out})


# functions on Shannon with dilation by 2; the comments give their layers
STEP = _terms(  # 1, 2 and 3
    (1.0, ["2"], ["3"], None), (0.5, ["-6"], ["-5"], None), (-2.0, ["9"], ["15"], None)
)
FAR = _terms((1.0, [f"1/{2**52}"], [f"1/{2**51}"], None), (1.0, ["9"], ["10"], None))  # -52, 3
BEYOND = _terms((1.0, [str(2**54)], [str(3 * 2**54)], None))  # 55 and 56, past the cap
ORIGIN = _terms((1.0, ["-1/2"], ["1/3"], None), (0.5, ["3/2"], ["5"], None))  # every k <= 2
MODULATED = _terms(  # every k <= 1
    (1.0, ["2"], ["3"], {"v": [1], "j": 1}), (0.5, ["-7/4"], ["4"], {"v": [3], "j": 0})
)
WINDOWS = [
    ("both-ends", STEP, ["--k-min", "-1", "--k-max", "3"]),
    ("k-min-only", STEP, ["--k-min", "-3"]),
    ("k-max-only", STEP, ["--k-max", "5"]),
    ("windowless", STEP, []),
    ("past-the-cap", FAR, ["--k-min", "-60", "--k-max", "60"]),
    ("k-min-past-the-cap", FAR, ["--k-min", "-57"]),
    ("k-max-past-the-cap", FAR, ["--k-max", "52"]),
    ("beyond-the-cap-k-max-only", BEYOND, ["--k-max", "60"]),
    ("beyond-the-cap-k-min-only", BEYOND, ["--k-min", "50"]),
    ("one-sided-inverted", STEP, ["--k-max", "-2"]),
    ("one-sided-inverted-up", STEP, ["--k-min", "5"]),
    ("zero-function", _terms(), []),
    ("zero-function-window", _terms(), ["--k-min", "-2", "--k-max", "2"]),
    ("origin-box", ORIGIN, []),
    ("origin-box-window", ORIGIN, ["--k-min", "-50", "--k-max", "6"]),
    ("origin-box-short-window", ORIGIN, ["--k-min", "-5", "--k-max", "4"]),
    ("modulated", MODULATED, []),
    ("modulated-k-max-only", MODULATED, ["--k-max", "3"]),
]
# a 2-D set whose dilates by diag(2, 3) are disjoint, and a function in its layers 0, 1 and -1
SET_2D = json.dumps(
    {"dim": 2, "boxes": [{"lo": [x, "-3"], "hi": [y, "-1"]} for x, y in (("1", "2"), ("-2", "-1"))]}
)
STEP_2D = _terms(
    (1.0, ["3/2", "-2"], ["7/4", "-1"], None),
    (0.5, ["2", "-9"], ["4", "-4"], None),
    (-1.0, ["-3/4", "-1"], ["-1/2", "-1/3"], None),
)
WINDOWS_2D = [
    ("windowless", []),
    ("k-min-only", ["--k-min", "-2"]),
    ("both-ends", ["--k-min", "-1", "--k-max", "1"]),
]


def window_calls():
    """(label, argv, files) for the decompose calls with and without window ends."""
    base = ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "f.json"]
    for name, function, ends in WINDOWS:
        yield f"windows/{name}", [*base, *ends], {"f.json": function}
    base = ["decompose", "--set", "e.json", "--dilation", "[[2,0],[0,3]]", "--function", "f.json"]
    for name, ends in WINDOWS_2D:
        yield f"windows/2d-{name}", [*base, *ends], {"e.json": SET_2D, "f.json": STEP_2D}


def _set(*boxes) -> str:
    """A set file: each box (lo, hi), coordinates as strings in pi units."""
    dim = len(boxes[0][0])
    return json.dumps({"dim": dim, "boxes": [{"lo": lo, "hi": hi} for lo, hi in boxes]})


S = (("-2", "-1"), ("1", "2"))
SXS = _set(*(([a, c], [b, d]) for a, b in S for c, d in S))
SHELL = _set(  # [-2, 2)^2 minus [-1, 1)^2
    (["-2", "-2"], ["2", "-1"]), (["-2", "1"], ["2", "2"]),
    (["-2", "-1"], ["-1", "1"]), (["1", "-1"], ["2", "1"]),
)
HALF = _set((["0"], ["1"]), (["2"], ["3"]))  # folds onto [0, 1) twice: overlap and deficit
HALF_2D = _set((["0", "-1"], ["1", "1"]),)  # half the cube: a deficit alone
OVERLAP = _set((["-3"], ["-1"]), (["1"], ["3"]))  # B E meets E: at --m 1 --v 20, 84 Gram entries tie
ANNULUS_14 = f"1/{2**14},{2**14}"
SXSXS = _set(*(([a, c, e], [b, d, f]) for a, b in S for c, d in S for e, f in S))
ONE_THREE = _set((["1"], ["3"]),)
ONE_THREE_2D = _set((["1", "1"], ["3", "3"]),)
# (label, argv, files) for the exact covers, congruence failures and Gram sizes
CERTIFY = [
    ("cover/SxS-2-minus-2", ["verify-set", "--set", "s.json", "--dilation", "[[2,0],[0,-2]]",
                             "--j-max", "16", "--annulus", ANNULUS_14, "--mode", "exact"], SXS),
    ("cover/shell-2-3", ["verify-set", "--set", "s.json", "--dilation", "[[2,0],[0,3]]"], SHELL),
    ("cover/shell-2-3-exact", ["verify-set", "--set", "s.json", "--dilation", "[[2,0],[0,3]]",
                               "--j-max", "12", "--annulus", "1/4096,4096", "--mode", "exact"], SHELL),
    # grid integers past 2^63 (|-3|^40 times the annulus's 3^20), with a witness
    ("cover/shannon-minus-3-j40", ["verify-set", "--set", "shannon", "--dilation", "[[-3]]", "--j-max", "40",
                                   "--annulus", f"1/{3**20},{3**20}", "--mode", "exact"], None),
    ("cover/SxSxS-2-minus-2-3", ["verify-set", "--set", "s.json", "--dilation", "[[2,0,0],[0,-2,0],[0,0,3]]",
                                 "--j-max", "5", "--annulus", "1/8,8", "--mode", "exact"], SXSXS),
    ("congruence/overlap-and-deficit", ["verify-set", "--set", "s.json", "--dilation", "[[2]]"], HALF),
    ("congruence/deficit-2d", ["verify-set", "--set", "s.json", "--dilation", "[[2,0],[0,2]]"], HALF_2D),
    ("gram/1d-m2-v32", ["gram", "--set", "shannon", "--dilation", "[[2]]", "--m", "2", "--v", "32"], None),
    ("gram/1d-minus-3-m3-v8", ["gram", "--set", "shannon", "--dilation", "[[-3]]", "--m", "3", "--v", "8"], None),
    ("gram/1d-overlap-witness", ["gram", "--set", "s.json", "--dilation", "[[2]]", "--m", "2", "--v", "6"],
     HALF),
    ("gram/2d-m1-v6", ["gram", "--set", "s.json", "--dilation", "[[2,0],[0,-2]]", "--m", "1", "--v", "6"],
     SXS),
    ("gram/2d-half-cube-witness", ["gram", "--set", "s.json", "--dilation", "[[2,0],[0,3]]", "--m", "1",
                                   "--v", "2", "--output", "out.json"], HALF_2D),
    ("gram/1d-overlap-tied-witness",
     ["gram", "--set", "s.json", "--dilation", "[[2]]", "--m", "1", "--v", "20"], OVERLAP),
    ("gram/2d-quadrature-diagonal-witness",
     ["gram", "--set", "s.json", "--dilation", "[[0,2],[2,0]]", "--m", "2", "--v", "0"], SXS),
    # B E meets E, so the exact witness is the intersection of two dilates
    ("disjoint/1-3-witness", ["verify-set", "--set", "s.json", "--dilation", "[[2]]", "--mode", "exact"],
     ONE_THREE),
    ("disjoint/1-3-squared-witness",
     ["verify-set", "--set", "s.json", "--dilation", "[[2,0],[0,2]]", "--mode", "exact"], ONE_THREE_2D),
    ("eval/shannon-grid", ["wavelet-eval", "--set", "shannon", "--grid=-20:20:401"], None),
    # 0, 1e-13 and -1e-300 lie below 2^-40: the removable singularity's branch
    ("eval/shannon-points", ["wavelet-eval", "--set", "shannon", "--points", "0;1e-13;0.5;-1e-300;3.25;-7"],
     None),
    ("eval/SxS-points", ["wavelet-eval", "--set", "s.json", "--points", "0,0;1e-13,0.5;-2.5,3;0.25,-1e-20"],
     SXS),
]


def certify_calls():
    """(label, argv, files) for the fixed verify-set and gram calls."""
    for label, argv, text in CERTIFY:
        yield label, argv, {} if text is None else {"s.json": text}


def usage_calls():
    """(label, argv, files) for the calls that must exit 2 and the argv grammar cases."""
    files = {name: json.dumps(data) for name, data in argv_cases.FILES.items()}
    for i, argv in enumerate(argv_cases.BAD_ARGV):
        yield f"usage/bad/{i}", argv, files
    for name, argv in argv_cases.USAGE_ARGV.items():
        yield f"usage/grammar/{name}", argv, files


def calls():
    """(label, argv, files) for every call, in a fixed order."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for cycle in CYCLES:
                for op in workloads.make_cycle(name, seed, cycle, refs=False):
                    for i, argv in enumerate(op["calls"]):
                        yield f"{name}/seed{seed}/{op['id']}/{i}", argv, op["files"]
    yield from window_calls()
    yield from certify_calls()
    yield from usage_calls()


def run_tree(root: str) -> dict:
    """label -> (exit code, sha256 of stdout, argv) for every call, made in this process."""
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    from waverep import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported {cli.__file__}, not the tree under {root}")
    out = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for label, argv, files in calls():
            for name, text in files.items():
                Path(name).write_text(text)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.run(argv)
            text = stdout.getvalue()
            if "--output" in argv[:-1]:
                report = Path(argv[argv.index("--output") + 1])
                text += report.read_text() if report.exists() else ""
                report.unlink(missing_ok=True)
            out[label] = (code, hashlib.sha256(text.encode()).hexdigest(), argv)
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--tree"] and len(argv) == 2:
        json.dump(run_tree(argv[1]), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    procs = [
        subprocess.Popen(
            [sys.executable, "-B", __file__, "--tree", root], stdout=subprocess.PIPE, env=env
        )
        for root in argv
    ]
    results = []
    for proc in procs:
        text, _ = proc.communicate()
        if proc.returncode:
            print(f"a tree run exited {proc.returncode}", file=sys.stderr)
            return 2
        results.append(json.loads(text))
    old, new = results
    differ = [label for label in old if old[label][:2] != new[label][:2]]
    print(f"{len(differ)} of {len(old)} calls differ in exit code or stdout")
    for label in differ[:SHOWN]:
        (c0, _, args), (c1, _, _) = old[label], new[label]
        print(f"  {label}: exit {c0} -> {c1}: {' '.join(args)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
