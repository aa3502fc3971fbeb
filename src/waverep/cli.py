"""Command-line surface: every verification as a subcommand with a JSON report.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
report carries a machine-readable witness), 2 usage or input error.
Reports are deterministic byte-for-byte for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import jsonio
from .boxes import BoxSet
from .density import CharacterTarget, approx_character, mean_coefficient
from .errors import InputError, WaverepError
from .gram import GramSpec, eval_msf_wavelet, gram_matrix
from .groups import AdicVector
from .jsonio import parse_ratio
from .operators import (
    fiber_operator,
    induced_operator,
    reflection_intertwiner_defect,
)
from .spectral import isometry_defect, to_layers
from .tiling import VerifyParams, shannon_set, verify_wavelet_set

BUILTIN_SETS = {"shannon": shannon_set}


def _load_set(arg: str) -> BoxSet:
    if arg in BUILTIN_SETS:
        return BUILTIN_SETS[arg]()
    return jsonio.parse_boxset(jsonio.load_json(arg))


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_annulus(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--annulus needs two ratios r_in,r_out, got {text!r}")
    r_in, r_out = (parse_ratio(x) for x in parts)
    if not 0 < r_in < r_out:
        raise InputError(f"--annulus needs 0 < r_in < r_out, got ({r_in}, {r_out})")
    return r_in, r_out


def _cmd_verify_set(args) -> tuple[int, dict]:
    E = _load_set(args.set)
    A = jsonio.parse_matrix_arg(args.dilation)
    annulus = _parse_annulus(args.annulus)
    if args.j_max < 0:
        raise InputError(f"--j-max must be >= 0, got {args.j_max}")
    params = VerifyParams(
        j_max=args.j_max,
        annulus=annulus,
        samples=args.samples,
        seed=args.seed,
        mode=args.mode,
    )
    report = verify_wavelet_set(E, A, params)
    out = report.to_json()
    out["command"] = "verify-set"
    out["set"] = jsonio.boxset_json(E)
    return (0 if report.verdict else 1), out


def _cmd_gram(args) -> tuple[int, dict]:
    E = _load_set(args.set)
    A = jsonio.parse_matrix_arg(args.dilation)
    if args.m < 0 or args.v < 0:
        raise InputError(f"--m and --v must be >= 0, got {args.m} and {args.v}")
    if E.dim != A.n:
        raise InputError(f"set dimension {E.dim} != matrix dimension {A.n}")
    if E.is_empty:
        raise InputError("the set is empty")
    spec = GramSpec(E, A, m_max=args.m, v_max=args.v, tolerance=args.tol)
    res = gram_matrix(spec)
    out = {
        "command": "gram",
        "mode": res.mode,
        "labels": [[m, list(v)] for m, v in res.labels],
        "matrix_real": np.round(res.matrix.real, 15).tolist(),
        "matrix_imag": np.round(res.matrix.imag, 15).tolist(),
        "max_deviation": res.max_deviation,
        "tolerance": args.tol,
    }
    if res.warning:
        out["warning"] = res.warning
        dev = np.abs(res.matrix - np.eye(len(res.labels)))
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        out["witness"] = {
            "row": [res.labels[i][0], list(res.labels[i][1])],
            "col": [res.labels[j][0], list(res.labels[j][1])],
            "entry": [res.matrix[i, j].real, res.matrix[i, j].imag],
        }
    return (0 if res.max_deviation <= args.tol else 1), out


def _cmd_decompose(args) -> tuple[int, dict]:
    E = _load_set(args.set)
    A = jsonio.parse_matrix_arg(args.dilation)
    f = jsonio.parse_mbs(jsonio.load_json(args.function), A)
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
    x = jsonio.parse_point(args.x.split(","))
    g = jsonio.parse_group_element(json.loads(args.element), A)
    fib = fiber_operator(x, g, args.K)
    ind = induced_operator(x, g, args.K)
    dev = reflection_intertwiner_defect(x, g, args.K)
    out = {
        "command": "rep",
        "point": jsonio.point_json(x),
        "element": {"v": list(g.beta.v), "j": g.beta.j, "m": g.m},
        "window": args.K,
        "fiber": {
            "shift": fib.shift,
            "phases": [[fib.phases[k].real, fib.phases[k].imag] for k in range(-args.K, args.K + 1)],
        },
        "induced": {
            "shift": ind.shift,
            "phases": [[ind.phases[k].real, ind.phases[k].imag] for k in range(-args.K, args.K + 1)],
        },
        "reflection_intertwiner_deviation": dev,
    }
    return (0 if dev < 1e-10 else 1), out


def _cmd_wavelet_eval(args) -> tuple[int, dict]:
    E = _load_set(args.set)
    if args.points:
        ts = [[float(x) for x in chunk.split(",")] for chunk in args.points.split(";")]
    else:
        lo, hi, count = args.grid.split(":")
        ts = [[t] for t in np.linspace(float(lo), float(hi), int(count))]
    values = [eval_msf_wavelet(E, t) for t in ts]
    out = {
        "command": "wavelet-eval",
        "points": ts,
        "values": [[v.real, v.imag] for v in values],
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("t,re,im\n")
            for t, v in zip(ts, values):
                fh.write(f"{' '.join(map(str, t))},{v.real!r},{v.imag!r}\n")
        out["csv"] = args.csv
    return 0, out


def _cmd_density(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    data = jsonio.load_json(args.targets)
    E = _load_set(args.set) if args.set else None
    results = []
    worst = 0.0
    for entry in data:
        phases = {}
        for item in entry["phases"]:
            beta = AdicVector.of(A, [int(x) for x in item["v"]], int(item.get("j", 0)))
            phases[beta] = parse_ratio(item["t"])
        target = CharacterTarget.from_phase_map(A, phases)
        F = [
            AdicVector.of(A, [int(x) for x in item["v"]], int(item.get("j", 0)))
            for item in entry.get("test_set", entry["phases"])
        ]
        res = approx_character(target, F, eps=args.eps, E=E)
        worst = max(worst, res.error)
        results.append(
            {
                "y": jsonio.point_json(res.y),
                "error": res.error,
                "membership": res.membership,
            }
        )
    out = {"command": "density", "eps": args.eps, "targets": results, "max_error": worst}
    return (0 if worst <= args.eps else 1), out


def _cmd_mean_coef(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    beta_data = json.loads(args.beta)
    beta = AdicVector.of(A, [int(x) for x in beta_data["v"]], int(beta_data.get("j", 0)))
    table = []
    for J in range(args.j_max + 1):
        val = mean_coefficient(beta, J, A)
        table.append({"J": J, "value": [val.real, val.imag], "abs": abs(val)})
    out = {
        "command": "mean-coef",
        "beta": {"v": list(beta.v), "j": beta.j},
        "table": table,
    }
    return 0, out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waverep",
        description="verification toolkit for wavelet sets and their scaling-group operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-set", help="run the three wavelet-set conditions")
    p.add_argument("--set", required=True, help="set JSON file or builtin name (shannon)")
    p.add_argument("--dilation", required=True, help="integer matrix, inline JSON or file")
    p.add_argument("--j-max", type=int, default=8)
    p.add_argument("--annulus", default="1/64,64", help="r_in,r_out in pi units")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["auto", "exact", "sampled"], default="auto")
    p.set_defaults(handler=_cmd_verify_set)

    p = sub.add_parser("gram", help="orthonormality certificate for the induced family")
    p.add_argument("--set", required=True)
    p.add_argument("--dilation", required=True)
    p.add_argument("--m", type=int, default=2, help="scale range [-m, m]")
    p.add_argument("--v", type=int, default=8, help="translation range per axis")
    p.add_argument("--tol", type=float, default=1e-12)
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
    p.add_argument("--K", type=int, default=32)
    p.set_defaults(handler=_cmd_rep)

    p = sub.add_parser("wavelet-eval", help="time-domain wavelet samples")
    p.add_argument("--set", required=True)
    p.add_argument("--points", help="semicolon-separated points, comma per axis")
    p.add_argument("--grid", help="lo:hi:count (1-D)")
    p.add_argument("--csv", help="write samples to CSV")
    p.set_defaults(handler=_cmd_wavelet_eval)

    p = sub.add_parser("density", help="match character targets with points")
    p.add_argument("--dilation", required=True)
    p.add_argument("--targets", required=True, help="JSON list of targets")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--set", help="optional base set for membership checks")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("mean-coef", help="decay table of the averaged character")
    p.add_argument("--dilation", required=True)
    p.add_argument("--beta", required=True, help='{"v":[...],"j":J}')
    p.add_argument("--j-max", type=int, default=8)
    p.set_defaults(handler=_cmd_mean_coef)

    for sp in sub.choices.values():
        sp.add_argument("--output", help="write the JSON report to a file")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.handler(args)
    except InputError as exc:
        _emit({"error": str(exc)}, getattr(args, "output", None))
        return 2
    except WaverepError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, getattr(args, "output", None))
        return 1
    _emit(report, args.output)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
