"""The one decoder and encoder of each outside JSON value.

Exact rationals travel as strings "p/q" so endpoints survive
serialization without float corruption; point coordinates accept either
decimal strings or exact "p/q pi" strings.  Every decoder checks the
shape, the integer fields and the dimension against the matrix, and
raises ``InputError`` on anything else, so a malformed input never
reaches a check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .boxes import Box, BoxSet
from .errors import InputError
from .funcs import ModulatedBoxSum, Term
from .groups import AdicVector, DilationMatrix, GroupElement, RealPoint, validate_dilation

__all__ = [
    "parse_ratio",
    "parse_boxset",
    "boxset_json",
    "parse_point",
    "point_json",
    "parse_matrix_arg",
    "parse_adic",
    "adic_json",
    "parse_group_element",
    "group_element_json",
    "parse_mbs",
    "mbs_json",
    "parse_targets",
    "complex_json",
    "parse_inline",
    "load_json",
]


def parse_ratio(text) -> Fraction:
    try:
        if isinstance(text, str):
            return Fraction(text.strip())
        if isinstance(text, int) and not isinstance(text, bool):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None
    raise InputError(f"bad rational {text!r} (use 'p/q' strings or integers)")


def _int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _parse_box(data: dict, dim: int) -> Box:
    """{"lo": [...], "hi": [...]}, lists of dim ratios each; KeyError/TypeError/ValueError if malformed."""
    lo, hi = (tuple(map(parse_ratio, data[k])) if isinstance(data[k], list) else None for k in ("lo", "hi"))
    if lo is None or hi is None:
        raise InputError(f"box {data!r}: lo and hi must be lists of coordinates")
    if len(lo) != dim or len(hi) != dim:
        raise InputError(f"box {data!r} needs {dim} coordinates per endpoint")
    return Box(lo, hi)


def _box_json(b: Box) -> dict:
    return {"lo": [str(x) for x in b.lo], "hi": [str(x) for x in b.hi]}


def parse_boxset(data: dict) -> BoxSet:
    try:
        dim = _int(data["dim"], "dim")
        boxes = [_parse_box(entry, dim) for entry in data["boxes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed set definition: {exc}") from None
    return BoxSet.of(dim, boxes)


def boxset_json(s: BoxSet) -> dict:
    return {"dim": s.dim, "boxes": [_box_json(b) for b in s.boxes]}


def parse_point(text: str, A: DilationMatrix) -> RealPoint:
    """Comma-separated coordinates, one per axis of A, each decimal or exact 'p/q pi' or '-pi'.

    The point is exact when every coordinate is; a decimal coordinate
    makes the whole point a float point.
    """
    coords = [c.strip() for c in text.split(",")]
    if len(coords) != A.n:
        raise InputError(f"point dimension {len(coords)} != matrix dimension {A.n}")
    exact = [c[:-2].strip() if c.endswith("pi") else None for c in coords]
    # nothing or a bare sign before "pi" stands for 1
    exact = [f if f is None else parse_ratio(f if f.strip("+-") else f + "1") for f in exact]
    if None not in exact:
        return RealPoint.from_pi(exact)
    try:
        floats = [float(c) if f is None else float(f) * math.pi for c, f in zip(coords, exact)]
    except ValueError:
        raise InputError(f"bad coordinate in {text!r}") from None
    if not all(map(math.isfinite, floats)):
        raise InputError(f"point {text!r} has a coordinate that is not finite")
    return RealPoint.from_floats(floats)


def point_json(x: RealPoint) -> list[str]:
    if x.pi_coords is not None:
        return [f"{f} pi" for f in x.pi_coords]
    return [repr(c) for c in x.coords]


def parse_matrix_arg(text: str) -> DilationMatrix:
    """Inline JSON like [[2]] or a path to a JSON file holding the rows."""
    raw = text.strip()
    rows = parse_inline(raw, "matrix") if raw.startswith("[") else load_json(raw)
    try:
        return validate_dilation(rows)
    except Exception as exc:  # rejection of the matrix argument is a usage error
        raise InputError(f"bad matrix: {exc}") from None


def parse_adic(data, A: DilationMatrix) -> AdicVector:
    """{"v": [one integer per axis of A], "j": J >= 0 (default 0)}: the element A^{-J} v."""
    if not isinstance(data, dict) or not isinstance(data.get("v"), list):
        raise InputError(f'an A-adic element is {{"v": [...], "j": J}}, got {data!r}')
    v = [_int(x, "v") for x in data["v"]]
    j = _int(data.get("j", 0), "j")
    if len(v) != A.n:
        raise InputError(f"element dimension {len(v)} != matrix dimension {A.n}")
    if j < 0:
        raise InputError(f"j must be >= 0, got {j}")
    return AdicVector.of(A, v, j)


def adic_json(beta: AdicVector) -> dict:
    return {"v": list(beta.v), "j": beta.j}


def parse_group_element(data, A: DilationMatrix) -> GroupElement:
    """An A-adic element with an integer scale "m" (default 0)."""
    return GroupElement(parse_adic(data, A), _int(data.get("m", 0), "m"))


def group_element_json(g: GroupElement) -> dict:
    return {**adic_json(g.beta), "m": g.m}


def parse_mbs(data: dict, A: DilationMatrix) -> ModulatedBoxSum:
    try:
        terms = []
        for entry in data["terms"]:
            parts = entry.get("re", 0.0), entry.get("im", 0.0)
            if any(isinstance(x, bool) for x in parts):
                raise InputError(f"coefficient {parts} is not a number")
            re, im = map(float, parts)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise InputError(f"coefficient ({re}, {im}) is not finite")
            coef = complex(re, im)
            beta = parse_adic(entry["beta"], A) if "beta" in entry else AdicVector.zero(A)
            terms.append(Term(coef, beta, _parse_box(entry["box"], A.n)))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed function definition: {exc}") from None
    return ModulatedBoxSum(A, tuple(terms))


def mbs_json(f: ModulatedBoxSum) -> dict:
    return {
        "terms": [
            {
                "re": t.coef.real,
                "im": t.coef.imag,
                "beta": adic_json(t.beta),
                "box": _box_json(t.box),
            }
            for t in f.terms
        ]
    }


def parse_targets(data, A: DilationMatrix) -> list[tuple[dict, list[AdicVector]]]:
    """[{"phases": [{"v", "j", "t"}, ...], "test_set": [{"v", "j"}, ...]}, ...].

    Each target becomes its phase map (element -> t, the phase in pi
    units) and its test set, which defaults to the phased elements.
    """
    try:
        return [
            (
                {parse_adic(item, A): parse_ratio(item["t"]) for item in entry["phases"]},
                [parse_adic(item, A) for item in entry.get("test_set", entry["phases"])],
            )
            for entry in data
        ]
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed density target: {exc!r}") from None


def complex_json(z: complex) -> list[float]:
    return [z.real, z.imag]


def parse_inline(text: str, what: str):
    """An inline JSON command-line argument."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {what} JSON: {exc}") from None


def load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (OSError, ValueError) as exc:  # missing, unreadable or not text
        raise InputError(f"cannot read {path}: {exc}") from None
