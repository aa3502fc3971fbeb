"""Argv cases shared by the CLI tests and the byte gate, with the input files they name.

``BAD_ARGV`` must each exit 2 with a JSON error.  ``USAGE_ARGV`` covers the
argv grammar: ``=`` values, unique prefixes, option-like values, repeats,
missing and unknown options and commands, and the exclusive pair of
``wavelet-eval``.  Its calls run from a directory that holds ``FILES``.
"""

from __future__ import annotations

import json

# input files named by the boundary cases, the fuzz and the byte gate
FILES = {
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
    # JSON booleans where rationals belong: a Shannon set with true for 1, and a phase t of true
    "boolset.json": {"dim": 1, "boxes": [{"lo": [True], "hi": ["2"]}, {"lo": ["-2"], "hi": [-1]}]},
    "booltarget.json": [{"phases": [{"v": [1], "j": 1, "t": True}]}],
    # a JSON boolean as a matrix entry and as a coefficient
    "boolmatrix.json": [[2, False], [0, 2]],
    "boolcoef.json": {"terms": [{"re": True, "box": {"lo": ["1"], "hi": ["2"]}}]},
    # coordinates that are not lists: a string read character by character, a dict read by its keys
    "strset.json": {"dim": 2, "boxes": [{"lo": "00", "hi": "11"}]},
    "dictset.json": {"dim": 1, "boxes": [{"lo": {"1": 0}, "hi": {"2": 0}}, {"lo": ["-2"], "hi": ["-1"]}]},
    "fstrbox.json": {"terms": [{"re": 1.0, "box": {"lo": "1", "hi": "2"}}]},
}


def write_files(directory) -> None:
    for name, data in FILES.items():
        (directory / name).write_text(json.dumps(data))


_X = ["--dilation", "[[2]]", "--x", "1/2 pi"]
# calls that must exit 2 with a JSON error and an empty stderr
BAD_ARGV = [
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
    ["verify-set", "--set", "boolset.json", "--dilation", "[[2]]"],
    ["density", "--dilation", "[[2]]", "--targets", "booltarget.json"],
    ["rep", "--dilation", "[[2, false], [0, 2]]", "--x", "pi,0", "--element", '{"v":[1,0],"j":0,"m":0}', "--K", "1"],
    ["rep", "--dilation", "boolmatrix.json", "--x", "pi,0", "--element", '{"v":[1,0],"j":0,"m":0}', "--K", "1"],
    ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "boolcoef.json"],
    ["verify-set", "--set", "strset.json", "--dilation", "[[2,0],[0,2]]"],
    ["verify-set", "--set", "dictset.json", "--dilation", "[[2]]"],
    ["decompose", "--set", "shannon", "--dilation", "[[2]]", "--function", "fstrbox.json"],
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


_R = ["--dilation", "[[2]]", "--element", '{"v":[1],"j":1,"m":0}']
_MC = ["mean-coef", "--dilation", "[[2]]", "--beta", '{"v": [1]}']
_VS = ["verify-set", "--set", "shannon", "--dilation", "[[2]]"]
_WE = ["wavelet-eval", "--set", "shannon"]
USAGE_ARGV = {
    # values after "=", unique prefixes, and values that look like options
    "equals-values": ["rep", "--dilation=[[2]]", "--x=-0.3", '--element={"v":[1],"j":1,"m":0}', "--K=4"],
    "equals-empty-value": ["rep", *_R, "--x="],
    "prefixes": ["mean-coef", "--dil", "[[2]]", "--be", '{"v": [1]}', "--j", "3"],
    "prefix-with-equals": ["mean-coef", "--dil=[[2]]", "--beta", '{"v": [1]}', "--j-m=2"],
    "ambiguous-prefix": ["verify-set", "--s", "shannon", "--dilation", "[[2]]"],
    "ambiguous-prefix-with-equals": ["verify-set", "--s=shannon", "--dilation", "[[2]]"],
    "ambiguous-before-bad-value": [*_VS, "--j-max", "x", "--s", "1"],
    "negative-value": ["rep", *_R, "--x", "-0.3", "--K", "4"],
    "negative-int-value": [*_MC, "--j-max", "-1"],
    "option-like-value": ["rep", *_R, "--x", "-1/2", "--K", "2"],
    "spaced-option-like-value": ["rep", *_R, "--x", "-1/2 pi", "--K", "2"],
    "help-as-value": ["rep", *_R, "--x", "-h"],
    "dash-value": [*_MC, "--j-max", "-"],
    # repeats: the last one wins, and each one is converted
    "repeated-last-wins": [*_MC, "--j-max", "1", "--j-max", "2"],
    "repeated-bad-first": [*_MC, "--j-max", "x", "--j-max", "2"],
    # values that do not convert, and choices
    "invalid-int": ["rep", *_R, "--x", "1/2 pi", "--K", "x"],
    "invalid-float": ["gram", "--set", "shannon", "--dilation", "[[2]]", "--tol", "x"],
    "invalid-choice": [*_VS, "--mode", "fast"],
    "annulus-one-ratio": [*_VS, "--annulus", "1"],
    "annulus-bad-ratio": [*_VS, "--annulus", "a,b"],
    "annulus-default": [*_VS, "--j-max", "2"],
    # missing values, missing and unknown options
    "missing-value-at-end": ["rep", *_R, "--x"],
    "missing-value-before-option": ["rep", "--dilation", "[[2]]", "--x", "--K", "3"],
    "missing-value-before-double-dash": ["rep", *_R, "--x", "--", "1"],
    "output-missing-value": [*_MC, "--output"],
    "required-before-unrecognized": ["rep", "--x", "0", "--bogus", "1", "extra"],
    "unrecognized": ["rep", *_R, "--x", "0", "--bogus", "1", "extra"],
    "unrecognized-single-dash": [*_MC, "-x"],
    "unrecognized-after-double-dash": [*_MC, "--", "--j-max", "2"],
    "help-with-value": ["rep", "--help=x"],
    "short-help-with-tail": ["rep", "-hx"],
    # the command
    "empty-argv": [],
    "unknown-command": ["nosuch"],
    "empty-command": [""],
    "negative-command": ["-5"],
    "double-dash-command": ["--", "rep"],
    "option-only": ["--bogus"],
    "option-before-command": ["--bogus", *_MC],
    "top-help-with-value": ["--help=x"],
    # the exclusive pair of wavelet-eval
    "points-and-grid": [*_WE, "--points", "1", "--grid", "0:1:2"],
    "grid-and-points": [*_WE, "--grid", "0:1:2", "--points", "1"],
    "bad-grid-after-points": [*_WE, "--points", "1", "--grid", "1:2"],
    "points-twice": [*_WE, "--points", "1", "--points", "0;0.5"],
    "required-before-exclusive": ["wavelet-eval", "--points", "1"],
}
