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
from .operators import fiber_operator, interior_deviation
from .spectral import isometry_defect, isometry_path, to_layers
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


# the float matrices of a gram report, written row by row by _matrix_text
_MATRIX_KEYS = ("matrix_imag", "matrix_real")


def _dumps(value) -> str:
    """The one JSON encoding of a report value; a NaN or infinity raises json's ValueError."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _matrix_text(rows: list[list[float]]) -> str:
    """A list of float rows as :func:`_dumps` writes it at depth 1, by one join per row.

    Every value is checked before any text is formed; the first
    non-finite one in row order raises json's own error.
    """
    for row in rows:
        if not all(map(math.isfinite, row)):
            _dumps(next(x for x in row if not math.isfinite(x)))
    if not rows:
        return "[]"
    pad = "\n      "
    body = ",\n    ".join(
        "[" + pad + ("," + pad).join(map(float.__repr__, row)) + "\n    ]" if row else "[]"
        for row in rows
    )
    return "[\n    " + body + "\n  ]"


def _encode(report: dict) -> str:
    """The report as indented JSON with sorted keys, the bytes of :func:`_dumps` plus a newline.

    A gram report's matrices go through :func:`_matrix_text` and every
    other key through :func:`_dumps`, key by key in sorted order, so the
    first non-finite value raises the error that :func:`_dumps` would.
    """
    if not any(key in report for key in _MATRIX_KEYS):
        return _dumps(report) + "\n"
    items = []
    for key in sorted(report):
        value = report[key]
        text = _matrix_text(value) if key in _MATRIX_KEYS else _dumps(value).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def _emit(report: dict, output: str | None) -> None:
    text = _encode(report)
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
    defect = isometry_defect(f, E, A, F.k_min, F.k_max)
    out = {
        "command": "decompose",
        "window": [F.k_min, F.k_max],
        "layers": {str(k): jsonio.mbs_json(layer) for k, layer in sorted(F.layers.items())},
        "norm_sq": F.norm_sq(),
        "truncation_mass": F.truncation_mass,
        "isometry_defect": defect,
        "path": isometry_path(f),
    }
    return 0, out


def _cmd_rep(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    x = jsonio.parse_point(args.x, A)
    g = jsonio.parse_group_element(jsonio.parse_inline(args.element, "--element"), A)
    fib = fiber_operator(x, g, args.K)
    ind = fib.reflect_conjugate()  # operators.induced_operator, from the one phase table
    dev = interior_deviation(fib.reflect_conjugate(), ind)  # 0.0 by construction

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


def _verify_set_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, help="set JSON file or builtin name (shannon)")
    p.add_argument("--dilation", required=True, help="integer matrix, inline JSON or file")
    p.add_argument("--j-max", type=_int_at_least(0), default=8)
    p.add_argument("--annulus", type=_annulus, default="1/64,64", help="r_in,r_out in pi units")
    p.add_argument("--samples", type=_int_at_least(1), default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["auto", "exact", "sampled"], default="auto")
    p.set_defaults(handler=_cmd_verify_set)


def _gram_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True)
    p.add_argument("--dilation", required=True)
    p.add_argument("--m", type=_int_at_least(0), default=2, help="scale range [-m, m]")
    p.add_argument("--v", type=_int_at_least(0), default=8, help="translation range per axis")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.set_defaults(handler=_cmd_gram)


def _decompose_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True)
    p.add_argument("--dilation", required=True)
    p.add_argument("--function", required=True, help="function JSON file")
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(handler=_cmd_decompose)


def _rep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dilation", required=True)
    p.add_argument("--x", required=True, help="comma-separated coords, e.g. '3/2 pi'")
    p.add_argument("--element", required=True, help='{"v":[...],"j":J,"m":M}')
    p.add_argument("--K", type=_int_at_least(0), default=32)
    p.set_defaults(handler=_cmd_rep)


def _wavelet_eval_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", dest="ts", type=_points, metavar="X,Y;X,Y", help="points to sample")
    g.add_argument("--grid", dest="ts", type=_grid, metavar="LO:HI:COUNT", help="1-D grid")
    p.add_argument("--csv", help="write samples to CSV")
    p.set_defaults(handler=_cmd_wavelet_eval)


def _density_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dilation", required=True)
    p.add_argument("--targets", required=True, help="JSON list of targets")
    p.add_argument("--eps", type=_tolerance, default=1e-10)
    p.add_argument("--set", help="optional base set for membership checks")
    p.set_defaults(handler=_cmd_density)


def _mean_coef_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dilation", required=True)
    p.add_argument("--beta", required=True, help='{"v":[...],"j":J}')
    p.add_argument("--j-max", type=_int_at_least(0), default=8)
    p.set_defaults(handler=_cmd_mean_coef)


# subcommand -> (help, option builder); each builder binds its handler when it runs
_SUBCOMMANDS = {
    "verify-set": ("run the three wavelet-set conditions", _verify_set_options),
    "gram": ("orthonormality certificate for the induced family", _gram_options),
    "decompose": ("map a function to its layer decomposition", _decompose_options),
    "rep": ("fiber and induced operators over a point", _rep_options),
    "wavelet-eval": ("time-domain wavelet samples", _wavelet_eval_options),
    "density": ("match character targets with points", _density_options),
    "mean-coef": ("decay table of the averaged character", _mean_coef_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; for a known ``command``, with that subcommand's options alone.

    Any other ``command`` (none, ``--help`` or an unknown name) builds
    every subcommand, so the help and "choose from" texts list them all.
    """
    parser = _Parser(
        prog="waverep",
        description="verification toolkit for wavelet sets and their scaling-group operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    for name in names:
        help_text, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        options(p)
        p.add_argument("--output", help="write the JSON report to a file")
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
        args = build_parser(argv[0] if argv else None).parse_args(argv)
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
