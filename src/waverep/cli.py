"""Command-line surface: every verification as a subcommand with a JSON report.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
report carries a machine-readable witness), 2 usage or input error.
The exit codes of ``gram`` and ``density`` come from the library's
result: 1 when the ``GramResult`` has a witness, or when
``approx_character`` raises ``InconsistentTarget`` above its fixed
bound ``density.EPS``, which the report states as ``eps``.
Every outcome, usage errors included, is one JSON object on stdout (an
input error is ``{"error": ...}``); the text of ``--help`` is the only
stdout that is not JSON.  All input values are decoded by ``jsonio`` and
range-checked here before any check runs.  A value too large for a
float (an ``OverflowError`` anywhere in a check) is an input error too,
and a NaN or infinity never reaches stdout: a report that still holds
one is replaced by an error, with exit 2.  A reader that closes stdout
early gets exit 2 and no more bytes.  Reports are deterministic
byte-for-byte for identical inputs and seed.

The argv grammar is ``waverep COMMAND [OPTION VALUE]...``, read from one
table, ``_COMMANDS``, as argparse reads the same options:

- a value follows its option as the next word (``--K 4``) or after ``=``
  (``--K=4``, ``--x=`` for an empty value); the next word is taken as a
  value unless it looks like an option, so ``--x -0.3`` and
  ``--x '-1/2 pi'`` work, and ``--x -1/2`` needs ``--x=-1/2``;
- an option may be shortened to any unique prefix (``--sam`` for
  ``--samples``); a prefix that fits several options is an error;
- an option given twice takes its last value, and each value is checked;
- ``-h`` or ``--help`` anywhere prints the help of the command (or of
  every command, before the command) and exits 0;
- words after ``--``, and words no option takes, are errors, reported
  after any missing required option;
- ``wavelet-eval`` takes exactly one of ``--points`` and ``--grid``.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import jsonio
from .boxes import BoxSet
from .density import EPS, CharacterTarget, approx_character, mean_coefficient
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


_STRING = json.encoder.encode_basestring_ascii


def _write(value, pad: str, out: list[str]) -> None:
    """Append the pieces of the text of ``value`` to ``out``.

    The text is ``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``'s,
    with ``pad`` a newline and the indentation of ``value``'s own line.  The
    errors are json's too: the first NaN or infinity in key and row order
    raises its ``ValueError``, any other type its ``TypeError``.  A list of
    floats is written by one join.  A numpy array is written as its
    ``tolist()``; a finite 2-D float64 array, such as a gram matrix, is
    written from the text of each distinct value, formed once (see
    :func:`_matrix_rows`).  Keys are strings, as in every report.  The
    pieces are joined once by the caller, so a large report is not copied
    at every level of nesting.
    """
    if isinstance(value, str):
        out.append(_STRING(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = pad + "  "
        sep = "," + inner
        if isinstance(value, dict):
            out.append("{" + inner)
            for i, key in enumerate(sorted(value)):
                out.append(f"{sep if i else ''}{_STRING(key)}: ")
                _write(value[key], inner, out)
            out.append(pad + "}")
            return
        try:
            body = sep.join(map(float.__repr__, value))
        except TypeError:  # not a list of floats
            out.append("[" + inner)
            for i, item in enumerate(value):
                if i:
                    out.append(sep)
                _write(item, inner, out)
            out.append(pad + "]")
        else:
            if not all(map(math.isfinite, value)):
                _write(next(x for x in value if not math.isfinite(x)), pad, out)
            out.append(f"[{inner}{body}{pad}]")
    elif isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype == np.float64 and value.size and np.isfinite(value).all():
            _matrix_rows(value, pad, out)
        else:
            _write(value.tolist(), pad, out)  # and so json's error at the first NaN or infinity
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


class _FloatTexts(dict):
    """The text of a float64, keyed by its bit pattern and formed on first use.

    Keys are bit patterns, not floats, so 0.0 and -0.0, which compare
    equal, keep their own texts.
    """

    def __missing__(self, bits: int) -> str:
        text = self[bits] = float.__repr__(struct.unpack("=d", struct.pack("=Q", bits))[0])
        return text


def _matrix_rows(matrix: np.ndarray, pad: str, out: list[str]) -> None:
    """Append a finite, nonempty 2-D float64 array as ``_write`` appends its ``tolist()``.

    A gram matrix holds few distinct values, so each row is joined from the
    text of each distinct value, formed once, and read one row at a time.
    """
    texts = _FloatTexts()
    inner = pad + "  "
    item = "," + inner + "  "
    out.append("[" + inner)
    for i, row in enumerate(matrix.view(np.uint64)):
        body = item.join(map(texts.__getitem__, row.tolist()))
        out.append(f"{',' + inner if i else ''}[{inner}  {body}{inner}]")
    out.append(pad + "]")


def _emit(report: dict, output: str | None) -> None:
    """Write the report's text and a newline, piece by piece: no copy of the whole text is made."""
    pieces: list[str] = []
    _write(report, "\n", pieces)  # raises before anything is written
    pieces.append("\n")
    if output:
        with open(output, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed reader shows here, not at exit


# --- option types: a ValueError or TypeError reads "invalid <name> value", a _Rejected
# its own message, and an InputError passes through unchanged


class _Rejected(Exception):
    """A value of the right type that an option does not take."""


def _int_at_least(lo: int):
    def convert(text: str) -> int:
        value = int(text)
        if value < lo:
            raise _Rejected(f"must be >= {lo}, got {value}")
        return value

    convert.__name__ = "int"  # names the type in the "invalid int value" message
    return convert


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise _Rejected(f"must be finite and >= 0, got {text}")
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
        "matrix_real": np.round(res.matrix.real, 15),
        "matrix_imag": np.round(res.matrix.imag, 15),
        "max_deviation": res.max_deviation,
        "tolerance": args.tol,
    }
    if res.witness is None:
        return 0, out
    i, j = res.witness
    entry = jsonio.complex_json(res.matrix[i, j])
    out["warning"] = res.warning
    out["witness"] = {"row": labels[i], "col": labels[j], "entry": entry}
    return 1, out


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
    ts = args.grid if args.points is None else args.points
    if any(len(t) != E.dim for t in ts):
        raise InputError(f"every point needs {E.dim} coordinates, the dimension of the set")
    reach = float(E.bounding_radii()[1]) * math.pi
    if not all(math.isfinite(reach * c) for t in ts for c in t):
        raise InputError("a point is not finite, or too large for its phases over the set")
    values = [eval_msf_wavelet(E, t) for t in ts]
    out = {
        "command": "wavelet-eval",
        "points": ts,
        "values": [jsonio.complex_json(v) for v in values],
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
    targets = jsonio.parse_targets(jsonio.load_json(args.targets), A)
    E = _load_set(args.set, A.n) if args.set else None
    results = [
        approx_character(CharacterTarget.from_phase_map(A, phases), F, E=E)
        for phases, F in targets
    ]
    worst = max([0.0, *(res.error for res in results)])
    out = {
        "command": "density",
        "eps": EPS,
        "targets": [
            {"y": jsonio.point_json(res.y), "error": res.error, "membership": res.membership}
            for res in results
        ],
        "max_error": worst,
    }
    return 0, out


def _cmd_mean_coef(args) -> tuple[int, dict]:
    A = jsonio.parse_matrix_arg(args.dilation)
    beta = jsonio.parse_adic(jsonio.parse_inline(args.beta, "--beta"), A)
    values = [mean_coefficient(beta, J) for J in range(args.j_max + 1)]
    table = [{"J": J, "value": jsonio.complex_json(v), "abs": abs(v)} for J, v in enumerate(values)]
    return 0, {"command": "mean-coef", "beta": jsonio.adic_json(beta), "table": table}



# --- the option table and its parser


_REQUIRED = object()  # the default of an option that must be given


class _Option(NamedTuple):
    flag: str
    help: str
    convert: Callable[[str], object] = str
    default: object = None  # _REQUIRED, or the value when absent (a str is converted)
    choices: tuple[str, ...] | None = None


class _Command(NamedTuple):
    help: str
    options: tuple[_Option, ...]
    # the option that sets how far the command raises powers of A, which is what
    # usually leaves float range there
    scale: str | None = None
    exclusive: tuple[str, ...] = ()  # options of which exactly one must be given


_SET = _Option("--set", "set JSON file or builtin name (shannon)", default=_REQUIRED)
_DILATION = _Option("--dilation", "integer matrix, inline JSON or file", default=_REQUIRED)
_OUTPUT = _Option("--output", "write the JSON report to a file")

# subcommand -> its options, in the order that help, "required" and "could match" list them;
# the handler of each subcommand is _cmd_<name>
_COMMANDS = {
    "verify-set": _Command(
        "run the three wavelet-set conditions",
        (
            _SET,
            _DILATION,
            _Option("--j-max", "largest dilation exponent", _int_at_least(0), 8),
            _Option("--annulus", "r_in,r_out in pi units", _annulus, "1/64,64"),
            _Option("--samples", "draws on the sampled path", _int_at_least(1), 100_000),
            _Option("--seed", "seed of the draws", int, 0),
            _Option("--mode", "exact needs a diagonal matrix", str, "auto", ("auto", "exact", "sampled")),
            _OUTPUT,
        ),
        scale="--j-max",
    ),
    "gram": _Command(
        "orthonormality certificate for the induced family",
        (
            _SET,
            _DILATION,
            _Option("--m", "scale range [-m, m]", _int_at_least(0), 2),
            _Option("--v", "translation range per axis", _int_at_least(0), 8),
            _Option("--tol", "largest deviation from the identity that passes", _tolerance, 1e-12),
            _OUTPUT,
        ),
        scale="--m",
    ),
    "decompose": _Command(
        "map a function to its layer decomposition",
        (
            _SET,
            _DILATION,
            _Option("--function", "function JSON file", default=_REQUIRED),
            _Option("--k-min", "lowest layer", int),
            _Option("--k-max", "highest layer", int),
            _OUTPUT,
        ),
    ),
    "rep": _Command(
        "fiber and induced operators over a point",
        (
            _DILATION,
            _Option("--x", "comma-separated coords, e.g. '3/2 pi'", default=_REQUIRED),
            _Option("--element", '{"v":[...],"j":J,"m":M}', default=_REQUIRED),
            _Option("--K", "phase window [-K, K]", _int_at_least(0), 32),
            _OUTPUT,
        ),
        scale="--K",
    ),
    "wavelet-eval": _Command(
        "time-domain wavelet samples",
        (
            _SET,
            _Option("--points", "points to sample, X,Y;X,Y", _points),
            _Option("--grid", "1-D grid, LO:HI:COUNT", _grid),
            _Option("--csv", "write samples to CSV"),
            _OUTPUT,
        ),
        exclusive=("--points", "--grid"),
    ),
    "density": _Command(
        "match character targets with points",
        (
            _DILATION,
            _Option("--targets", "JSON list of targets", default=_REQUIRED),
            _Option("--set", "optional base set for membership checks"),
            _OUTPUT,
        ),
    ),
    "mean-coef": _Command(
        "decay table of the averaged character",
        (
            _DILATION,
            _Option("--beta", '{"v":[...],"j":J}', default=_REQUIRED),
            _Option("--j-max", "largest averaging depth", _int_at_least(0), 8),
            _OUTPUT,
        ),
    ),
}
_HELP = "-h/--help"  # the option that -h and --help name in an error
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}


class _Help(Exception):
    """-h or --help: print the help of the command in ``args[0]``, or of all when it is None."""


def _reading(word: str, flags: dict):
    """How one word before ``--`` reads against ``flags``, as argparse reads it.

    None for a value; else ``(flag, text)``, with the text after ``=`` or
    None, and flag None for a word that looks like an unknown option.  A
    word that looks like a negative number or holds a space is a value.
    """
    if not word.startswith("-"):
        return None
    if word in flags:
        return word, None
    if len(word) == 1:
        return None
    flag, eq, text = word.partition("=")
    if eq and flag in flags:
        return flag, text
    if word[1] == "-":  # a unique prefix of a long option
        matches = [(f, text if eq else None) for f in flags if f.startswith(flag)]
        if len(matches) > 1:
            names = ", ".join(f for f, _ in matches)
            raise InputError(f"ambiguous option: {word} could match {names}")
        if matches:
            return matches[0]
    elif word.startswith("-h"):  # -h is the only short option: the rest is its value
        return "-h", word[2:]
    if re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word:
        return None
    return None, None


def _help_flag(flag: str, text: str | None, command: str | None):
    """Raise ``_Help``, or argparse's error for a value given to -h or --help."""
    if flag == "-h" and text:  # -hh is -h twice, and -hx gives x to -h
        text = text.lstrip("h") or None
    if text is not None:
        raise InputError(f"argument {_HELP}: ignored explicit argument {text!r}")
    raise _Help(command)


def _convert(option: _Option, text: str):
    try:
        value = option.convert(text)
    except _Rejected as exc:
        raise InputError(f"argument {option.flag}: {exc}") from None
    except (TypeError, ValueError):
        kind = option.convert.__name__
        raise InputError(f"argument {option.flag}: invalid {kind} value: {text!r}") from None
    if option.choices is not None and value not in option.choices:
        choices = ", ".join(map(repr, option.choices))
        raise InputError(f"argument {option.flag}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse_options(name: str, words: list[str]) -> tuple[dict, list[str]]:
    """The option values of ``name`` by flag, defaults included, and the words left over."""
    spec = _COMMANDS[name]
    flags = {**_TOP_FLAGS, **{o.flag: o for o in spec.options}}
    end = words.index("--") if "--" in words else len(words)
    readings = [_reading(word, flags) for word in words[:end]]
    given, extras = {}, []
    i = 0
    while i < end:
        reading = readings[i]
        if reading is None or reading[0] is None:
            extras.append(words[i])
            i += 1
            continue
        flag, text = reading
        option = flags[flag]
        if option is _HELP:
            _help_flag(flag, text, name)
        i += 1
        if text is None:
            if i == end or readings[i] is not None:
                raise InputError(f"argument {option.flag}: expected one argument")
            text = words[i]
            i += 1
        given[option.flag] = _convert(option, text)
        clash = [other for other in spec.exclusive if other != option.flag and other in given]
        if option.flag in spec.exclusive and clash:
            raise InputError(f"argument {option.flag}: not allowed with argument {clash[0]}")
    values, missing = dict(given), []
    for option in spec.options:
        if option.flag in given:
            continue
        if option.default is _REQUIRED:
            missing.append(option.flag)
        elif isinstance(option.default, str):
            values[option.flag] = _convert(option, option.default)
        else:
            values[option.flag] = option.default
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    if spec.exclusive and not any(flag in given for flag in spec.exclusive):
        raise InputError(f"one of the arguments {' '.join(spec.exclusive)} is required")
    return values, extras + words[end:]


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its option values (as attributes named after the flags) from argv."""
    extras = []
    for i, word in enumerate(argv):
        reading = None if word == "--" else _reading(word, _TOP_FLAGS)
        if reading is None and argv[i:] != ["--"]:  # the command, which takes every word after it
            if word not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise InputError(f"argument command: invalid choice: {word!r} (choose from {choices})")
            values, left = _parse_options(word, argv[i + 1 :])
            if extras + left:
                raise InputError(f"unrecognized arguments: {' '.join(extras + left)}")
            names = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
            return SimpleNamespace(command=word, **names)
        if reading is not None and reading[0] is not None:
            _help_flag(*reading, None)
        extras.append(word)
    raise InputError("the following arguments are required: command")


def _help(command: str | None) -> str:
    """The --help text of ``command``, or an overview and then the text of every command."""
    if command is None:
        width = max(map(len, _COMMANDS))
        listing = "".join(f"  {name:<{width}}  {spec.help}\n" for name, spec in _COMMANDS.items())
        sections = "\n".join(map(_help, _COMMANDS))
        return (
            "usage: waverep COMMAND [OPTION VALUE]...\n\n"
            "verification toolkit for wavelet sets and their scaling-group operators;\n"
            "each command writes one JSON report and exits 0 when every check passes,\n"
            "1 when a check fails and 2 on a usage or input error\n\n"
            f"commands:\n{listing}\n{sections}"
        )
    spec = _COMMANDS[command]
    rows = []
    for o in spec.options:
        meta = "{" + ",".join(o.choices) + "}" if o.choices else o.flag[2:].upper().replace("-", "_")
        if o.default is _REQUIRED:
            note = " (required)"
        elif o.flag in spec.exclusive:
            note = f" (exactly one of {', '.join(spec.exclusive)})"
        else:
            note = "" if o.default is None else f" (default {o.default})"
        rows.append((f"{o.flag} {meta}", o.help + note))
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    lines = "".join(f"  {left:<{width}}  {right}\n" for left, right in rows)
    return f"usage: waverep {command} [OPTION VALUE]...\n\n{spec.help}\n\n{lines}"


def _overflow_error(args, exc: OverflowError) -> str:
    """The error text for a value out of float range, naming the scale option and its value."""
    flag = None if args is None else _COMMANDS[args.command].scale
    if flag is None:
        return f"a value is out of float range: {exc}"
    value = getattr(args, flag[2:].replace("-", "_"))
    return f"a value is out of float range at {flag} {value} (try a smaller {flag}): {exc}"


def run(argv: list[str]) -> int:
    args = None
    try:
        args = _parse(argv)
        code, report = globals()[f"_cmd_{args.command.replace('-', '_')}"](args)
    except _Help as exc:
        sys.stdout.write(_help(exc.args[0]))
        return 0
    except (InputError, OSError) as exc:  # an OSError comes from a file named by the user
        code, report = 2, {"error": str(exc)}
    except OverflowError as exc:  # an input too large for a float, e.g. --K or --m
        code, report = 2, {"error": _overflow_error(args, exc)}
    except WaverepError as exc:
        code, report = 1, {"error": str(exc), "kind": type(exc).__name__}
    output = getattr(args, "output", None)
    try:
        _emit(report, output)
    except (OSError, ValueError) as exc:  # --output cannot be written, or a NaN or infinity
        if isinstance(exc, BrokenPipeError) and output is None:  # the reader closed stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # exit writes nothing
        else:
            _emit({"error": str(exc)}, None)
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
