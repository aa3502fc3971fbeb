"""Command-line surface: every verification as a subcommand with a JSON report.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
report carries a machine-readable witness), 2 usage or input error.
Every outcome, usage errors included, is one JSON object on stdout (an
input error is ``{"error": ...}``); the text of ``--help`` is the only
stdout that is not JSON.  All input values are decoded by ``jsonio`` and
range-checked here before any check runs.  A value too large for a
float (an ``OverflowError`` anywhere in a check) is an input error too,
and a NaN or infinity never reaches stdout: a report that still holds
one is replaced by an error, with exit 2.
Reports are deterministic byte-for-byte for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import jsonio
from .boxes import BoxSet
from .density import CharacterTarget, approx_character, mean_coefficient
from .errors import InputError, WaverepError
from .gram import GramSpec, eval_msf_wavelet, gram_matrix
from .operators import (
    fiber_operator,
    induced_operator,
    reflection_intertwiner_defect,
)
from .spectral import isometry_defect, to_layers
from .tiling import VerifyParams, shannon_set, verify_wavelet_set

BUILTIN_SETS = {"shannon": shannon_set}


def _load_set(arg: str, dim: int | None) -> BoxSet:
    """A builtin name or a set file: nonempty, and of the matrix dimension when one is given."""
    E = BUILTIN_SETS[arg]() if arg in BUILTIN_SETS else jsonio.parse_boxset(jsonio.load_json(arg))
    if E.is_empty:
        raise InputError("the set is empty")
    if dim is not None and E.dim != dim:
        raise InputError(f"set dimension {E.dim} != matrix dimension {dim}")
    return E


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- option types: argparse turns a ValueError or ArgumentTypeError into a usage error


def _int_at_least(lo: int):
    def convert(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    convert.__name__ = "int"  # names the type in argparse's "invalid int value" message
    return convert


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


_tolerance.__name__ = "float"


def _annulus(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--annulus needs two ratios r_in,r_out, got {text!r}")
    r_in, r_out = (jsonio.parse_ratio(x) for x in parts)
    if not 0 < r_in < r_out:
        raise InputError(f"--annulus needs 0 < r_in < r_out, got ({r_in}, {r_out})")
    return r_in, r_out


def _points(text: str) -> list[list[float]]:
    return [[float(x) for x in chunk.split(",")] for chunk in text.split(";")]


def _grid(text: str) -> list[list[float]]:
    lo, hi, count = text.split(":")
    return [[t] for t in np.linspace(float(lo), float(hi), int(count))]


def _cmd_verify_set(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    E = _load_set(args.set, A.n)
    if args.mode == "exact" and not A.is_diagonal:
        raise InputError("--mode exact needs a diagonal matrix")
    params = VerifyParams(
        j_max=args.j_max, annulus=args.annulus, samples=args.samples, seed=args.seed, mode=args.mode
    )
    report = verify_wavelet_set(E, A, params)
    out = {**report.to_json(), "command": "verify-set", "set": jsonio.boxset_json(E)}
    return (0 if report.verdict else 1), out


def _cmd_gram(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    E = _load_set(args.set, A.n)
    spec = GramSpec(E, A, m_max=args.m, v_max=args.v, tolerance=args.tol)
    res = gram_matrix(spec)
    labels = [[m, list(v)] for m, v in res.labels]
    out = {
        "command": "gram",
        "mode": res.mode,
        "labels": labels,
        "matrix_real": np.round(res.matrix.real, 15).tolist(),
        "matrix_imag": np.round(res.matrix.imag, 15).tolist(),
        "max_deviation": res.max_deviation,
        "tolerance": args.tol,
    }
    if res.warning:
        out["warning"] = res.warning
        dev = np.abs(res.matrix - np.eye(len(labels)))
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        entry = jsonio.complex_json(res.matrix[i, j])
        out["witness"] = {"row": labels[i], "col": labels[j], "entry": entry}
    return (0 if res.max_deviation <= args.tol else 1), out


def _cmd_decompose(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    E = _load_set(args.set, A.n)
    f = jsonio.parse_mbs(jsonio.load_json(args.function), A)
    if None not in (args.k_min, args.k_max) and args.k_min > args.k_max:
        raise InputError(f"--k-min {args.k_min} > --k-max {args.k_max}")
    F = to_layers(f, E, A, args.k_min, args.k_max)
    defect = isometry_defect(f, E, A, args.k_min, args.k_max)
    out = {
        "command": "decompose",
        "window": [F.k_min, F.k_max],
        "layers": {str(k): jsonio.mbs_json(layer) for k, layer in sorted(F.layers.items())},
        "norm_sq": F.norm_sq(),
        "truncation_mass": F.truncation_mass,
        "isometry_defect": defect,
        "path": "exact" if f.is_piecewise_constant and f.has_disjoint_boxes() else "closed-form",
    }
    return 0, out


def _cmd_rep(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    x = jsonio.parse_point(args.x, A)
    g = jsonio.parse_group_element(jsonio.parse_inline(args.element, "--element"), A)
    fib = fiber_operator(x, g, args.K)
    ind = induced_operator(x, g, args.K)
    dev = reflection_intertwiner_defect(x, g, args.K)
    def phases(op):
        return [jsonio.complex_json(op.phases[k]) for k in range(-args.K, args.K + 1)]

    out = {
        "command": "rep",
        "point": jsonio.point_json(x),
        "element": jsonio.group_element_json(g),
        "window": args.K,
        "fiber": {"shift": fib.shift, "phases": phases(fib)},
        "induced": {"shift": ind.shift, "phases": phases(ind)},
        "reflection_intertwiner_deviation": dev,
    }
    return (0 if dev < 1e-10 else 1), out


def _cmd_wavelet_eval(args) -> tuple[int, dict]:
    E = _load_set(args.set, None)
    if any(len(t) != E.dim for t in args.ts):
        raise InputError(f"every point needs {E.dim} coordinates, the dimension of the set")
    reach = float(E.bounding_radii()[1]) * math.pi
    if not all(math.isfinite(reach * c) for t in args.ts for c in t):
        raise InputError("a point is not finite, or too large for its phases over the set")
    values = [eval_msf_wavelet(E, t) for t in args.ts]
    out = {
        "command": "wavelet-eval",
        "points": args.ts,
        "values": [jsonio.complex_json(v) for v in values],
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("t,re,im\n")
            for t, v in zip(args.ts, values):
                fh.write(f"{' '.join(map(str, t))},{v.real!r},{v.imag!r}\n")
        out["csv"] = args.csv
    return 0, out


def _cmd_density(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    targets = jsonio.parse_targets(jsonio.load_json(args.targets), A)
    E = _load_set(args.set, A.n) if args.set else None
    results = [
        approx_character(CharacterTarget.from_phase_map(A, phases), F, eps=args.eps, E=E)
        for phases, F in targets
    ]
    worst = max([0.0, *(res.error for res in results)])
    out = {
        "command": "density",
        "eps": args.eps,
        "targets": [
            {"y": jsonio.point_json(res.y), "error": res.error, "membership": res.membership}
            for res in results
        ],
        "max_error": worst,
    }
    return (0 if worst <= args.eps else 1), out


def _cmd_mean_coef(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    beta = jsonio.parse_adic(jsonio.parse_inline(args.beta, "--beta"), A)
    values = [mean_coefficient(beta, J) for J in range(args.j_max + 1)]
    table = [{"J": J, "value": jsonio.complex_json(v), "abs": abs(v)} for J, v in enumerate(values)]
    return 0, {"command": "mean-coef", "beta": jsonio.adic_json(beta), "table": table}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Report a usage error as an input error (JSON, exit 2) instead of exiting."""
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    natural, positive = _int_at_least(0), _int_at_least(1)
    parser = _Parser(
        prog="waverep",
        description="verification toolkit for wavelet sets and their scaling-group operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-set", help="run the three wavelet-set conditions")
    p.add_argument("--set", required=True, help="set JSON file or builtin name (shannon)")
    p.add_argument("--dilation", required=True, help="integer matrix, inline JSON or file")
    p.add_argument("--j-max", type=natural, default=8)
    p.add_argument("--annulus", type=_annulus, default="1/64,64", help="r_in,r_out in pi units")
    p.add_argument("--samples", type=positive, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["auto", "exact", "sampled"], default="auto")
    p.set_defaults(handler=_cmd_verify_set)

    p = sub.add_parser("gram", help="orthonormality certificate for the induced family")
    p.add_argument("--set", required=True)
    p.add_argument("--dilation", required=True)
    p.add_argument("--m", type=natural, default=2, help="scale range [-m, m]")
    p.add_argument("--v", type=natural, default=8, help="translation range per axis")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.set_defaults(handler=_cmd_gram)

    p = sub.add_parser("decompose", help="map a function to its layer decomposition")
    p.add_argument("--set", required=True)
    p.add_argument("--dilation", required=True)
    p.add_argument("--function", required=True, help="function JSON file")
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("rep", help="fiber and induced operators over a point")
    p.add_argument("--dilation", required=True)
    p.add_argument("--x", required=True, help="comma-separated coords, e.g. '3/2 pi'")
    p.add_argument("--element", required=True, help='{"v":[...],"j":J,"m":M}')
    p.add_argument("--K", type=natural, default=32)
    p.set_defaults(handler=_cmd_rep)

    p = sub.add_parser("wavelet-eval", help="time-domain wavelet samples")
    p.add_argument("--set", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", dest="ts", type=_points, metavar="X,Y;X,Y", help="points to sample")
    g.add_argument("--grid", dest="ts", type=_grid, metavar="LO:HI:COUNT", help="1-D grid")
    p.add_argument("--csv", help="write samples to CSV")
    p.set_defaults(handler=_cmd_wavelet_eval)

    p = sub.add_parser("density", help="match character targets with points")
    p.add_argument("--dilation", required=True)
    p.add_argument("--targets", required=True, help="JSON list of targets")
    p.add_argument("--eps", type=_tolerance, default=1e-10)
    p.add_argument("--set", help="optional base set for membership checks")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("mean-coef", help="decay table of the averaged character")
    p.add_argument("--dilation", required=True)
    p.add_argument("--beta", required=True, help='{"v":[...],"j":J}')
    p.add_argument("--j-max", type=natural, default=8)
    p.set_defaults(handler=_cmd_mean_coef)

    for sp in sub.choices.values():
        sp.add_argument("--output", help="write the JSON report to a file")
    return parser


# the option that sets how far a subcommand raises powers of A, which is what
# usually leaves float range there
_SCALE_OPTIONS = {"verify-set": "--j-max", "gram": "--m", "rep": "--K"}


def _overflow_error(args, exc: OverflowError) -> str:
    """The error text for a value out of float range, naming the scale option and its value."""
    flag = _SCALE_OPTIONS.get(getattr(args, "command", None))
    if flag is None:
        return f"a value is out of float range: {exc}"
    value = getattr(args, flag[2:].replace("-", "_"))
    return f"a value is out of float range at {flag} {value} (try a smaller {flag}): {exc}"


def run(argv: list[str]) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        code, report = args.handler(args)
    except SystemExit:  # only --help exits: every usage error raises InputError
        return 0
    except (InputError, OSError) as exc:  # an OSError comes from a file named by the user
        code, report = 2, {"error": str(exc)}
    except OverflowError as exc:  # an input too large for a float, e.g. --K or --m
        code, report = 2, {"error": _overflow_error(args, exc)}
    except WaverepError as exc:
        code, report = 1, {"error": str(exc), "kind": type(exc).__name__}
    try:
        _emit(report, getattr(args, "output", None))
    except (OSError, ValueError) as exc:  # --output cannot be written, or a NaN or infinity
        _emit({"error": str(exc)}, None)
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
