"""The dilation projection maps and the layer-space isomorphism.

When the dilates of a base set E tile R^n, almost every point xi has a
unique scale index p with B^p xi in E (B the frequency matrix); the pair
(representative, index) identifies L2(R^n) with the layered space
L2(E x Z) through the norm-preserving map

    (forward f)(x, k) = |det|^{k/2} f(B^k x),        x in E,
    (inverse F)(xi)   = |det|^{p/2} F(B^p xi, -p),   p = p(xi).

On the exact carrier (modulated box sums, diagonal matrix) the forward
map is an exact isometry, and the tests hold it to its exact inverse.

On a diagonal matrix one exact bracket, :func:`_scale_bracket`, bounds
the k at which a box or a point can meet B^k E; :func:`project_point`
tries only the scales in an exact point's bracket.  One scan,
:func:`_pieces`, forms the layer pieces B^{-k}(box) ∩ E of f over a
window, each box of f dilated only within its bracket; :func:`meeting_gaps`
(for the tiling's disjointness check) uses it.  :func:`_window`, the one
window rule, fills a missing end from the same scan that :func:`layer_span`,
:func:`to_layers` and :func:`isometry_defect` take their pieces from.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .boxes import Box, BoxSet
from .errors import (
    AmbiguousScale,
    DimensionMismatch,
    NonDiagonalDilation,
    NotCovered,
    WindowTooSmall,
    ZeroFunction,
)
from .funcs import LayerFunction, ModulatedBoxSum, Term
from .groups import DilationMatrix, RealPoint, b_transform

__all__ = [
    "project_point",
    "to_layers",
    "isometry_defect",
    "isometry_path",
    "layer_span",
    "meeting_gaps",
]


def project_point(
    xi: RealPoint, E: BoxSet, A: DilationMatrix, max_iter: int = 64
) -> tuple[RealPoint, int]:
    """Resolve xi to (representative in E, scale index p) with B^p xi in E.

    The scales p, |p| <= max_iter, are tried outward from p = 0, and the
    scan keeps going after the first hit so a disjointness failure shows
    up as AmbiguousScale with both witnesses.  For an exact point and a
    diagonal matrix every scale of the point's bracket is tried
    (:func:`_scale_bracket`, with p = -k), and every other scale misses E.
    The bracket is finite except at the origin, and for p < 0 when E
    reaches the origin; only such an open side is cut at max_iter.
    """
    scales = range(-max_iter, max_iter + 1)
    if A.is_diagonal and xi.pi_coords is not None and xi.dim == E.dim == A.n:
        nonzero = any(xi.pi_coords)
        k_min = -math.inf if nonzero else -max_iter
        k_max = math.inf if nonzero and E.bounding_radii()[0] else max_iter
        scales = {-k for k in _scale_bracket(E, A, xi.pi_coords, xi.pi_coords, k_min, k_max)}
    hits: list[tuple[int, RealPoint]] = []
    for p in sorted(scales, key=lambda p: (abs(p), p)):
        y = b_transform(A, xi, p)
        if E.contains(y):
            hits.append((p, y))
            if len(hits) == 2:
                raise AmbiguousScale(
                    f"scales {hits[0][0]} and {hits[1][0]} both resolve the point",
                    [h[0] for h in hits],
                )
    if not hits:
        raise NotCovered("no scale tried lands in the set")
    p, y = hits[0]
    return y, p


def layer_span(f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix) -> tuple[int, int]:
    """The default window: f's first and last layer with |k| <= 48, or (0, 0) if f has none.

    A missing end of :func:`to_layers`' window is filled the same way.
    """
    return _window(f, E, A, None, None)[:2]


def _floor_log(c: Fraction, a: int, lo: int, hi: int) -> int:
    """Largest k with a**k <= c (c > 0, a >= 2), clamped to [lo - 1, hi + 1]; exact."""
    k = min(max(0, lo - 1), hi + 1)
    p = Fraction(a) ** k
    while p > c and k >= lo:
        k, p = k - 1, p / a
    while p * a <= c and k <= hi:
        k, p = k + 1, p * a
    return k


def _scale_bracket(
    E: BoxSet, A: DilationMatrix, lo: Sequence, hi: Sequence, k_min: int, k_max: int
) -> range:
    """The k in [k_min, k_max] at which the closed box [lo, hi] can meet B^k E; exact.

    A point is the box with lo == hi.  For diagonal A with
    a_i = |a_ii| >= 2, let R_i be E's largest |coordinate| on axis i and
    r = ``E.bounding_radii()[0]``, so every point of E has sup norm at
    least r.  If the box meets B^k E (a point: lies in it), then, with
    exact rational comparisons:

    * on every axis, the box's distance delta_i from 0 is at most
      a_i^k R_i, because B^k E lies within |xi_i| <= a_i^k R_i (bounds k
      below);
    * the box does not lie inside the open box of half-widths a_i^k r,
      which B^k E avoids: some axis has rho_i = max |xi_i| >= a_i^k r
      over the box (bounds k above when r > 0).

    A side with no bound (delta_i = 0 on every axis, or r = 0) is the
    window's end, so only a bounded side may have an infinite end.  An
    axis with rho_i = 0 bounds nothing, and the origin meets no B^k E
    when r > 0; an empty E meets nothing.  The tiling's exact cover does
    not use this bracket: it cuts every dilate with |j| <= j_max.
    """
    if E.is_empty:
        return range(0)
    a = [abs(A.entries[i][i]) for i in range(A.n)]
    reach = [max(max(abs(b.lo[i]), abs(b.hi[i])) for b in E.boxes) for i in range(A.n)]
    r = E.bounding_radii()[0]
    k_lo, k_hi = k_min, k_max
    for ai, R, x, y in zip(a, reach, lo, hi):
        if not x <= 0 <= y:
            k_lo = max(k_lo, -_floor_log(R / min(abs(x), abs(y)), ai, -k_max, -k_min))
    if r:
        rho = (max(abs(x), abs(y)) for x, y in zip(lo, hi))
        tops = [_floor_log(c / r, ai, k_min, k_max) for ai, c in zip(a, rho) if c]
        k_hi = min(k_hi, max(tops, default=k_lo - 1))
    return range(k_lo, k_hi + 1)


def _pieces(
    f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix, k_min: int, k_max: int
) -> dict[int, list[tuple[Term, Box]]]:
    """The layers of f in [k_min, k_max]: k -> [(term, piece)], each piece in B^{-k}(box) ∩ E.

    Layers ascend and empty ones are left out; within a layer the terms
    keep their order, and the pieces of a term follow E's boxes.  Each
    distinct box of f is dilated only at the k of its own
    :func:`_scale_bracket`.  The matrix is checked before any piece is
    built.
    """
    if any(d != A.n for d in (E.dim, *(t.box.dim for t in f.terms))):
        raise DimensionMismatch("matrix dimension mismatch")
    if not A.is_diagonal:
        raise NonDiagonalDilation("exact dilation needs a diagonal matrix; use the sampled path")
    found: dict[tuple[Box, int], list[Box]] = {}
    for box in {t.box for t in f.terms}:
        for k in _scale_bracket(E, A, box.lo, box.hi, k_min, k_max):
            moved = box.dilate(A, -k)
            cs = [c for eb in E.boxes if (c := moved.intersect(eb)) is not None]
            if cs:
                found[box, k] = cs
    ks = sorted({k for _, k in found})
    return {k: [(t, c) for t in f.terms for c in found.get((t.box, k), ())] for k in ks}


def _window(
    f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix, k_min: int | None, k_max: int | None
) -> tuple[int, int, dict[int, list[tuple[Term, Box]]]]:
    """The window, a missing end f's first or last layer with |k| <= 48 (else 0), and its pieces.

    Two given ends are scanned as they are: a box about the origin meets every k in between.
    Otherwise one scan covers [-48, 48] and any given end; the exact bracket keeps each piece.
    """
    if k_min is not None and k_max is not None:
        return k_min, k_max, _pieces(f, E, A, k_min, k_max)
    lo = -48 if k_min is None else min(k_min, -48)
    hi = 48 if k_max is None else max(k_max, 48)
    layers = _pieces(f, E, A, lo, hi)
    near = [k for k in layers if abs(k) <= 48] or [0]
    k_min = near[0] if k_min is None else k_min
    k_max = near[-1] if k_max is None else k_max
    return k_min, k_max, {k: pairs for k, pairs in layers.items() if k_min <= k <= k_max}


def _layer_sums(A: DilationMatrix, pieces: dict) -> dict[int, ModulatedBoxSum]:
    """The layers of forward f from its pieces: each term scaled by |det|^{k/2}, twisted by -k."""
    det = A.det_abs
    layers: dict[int, ModulatedBoxSum] = {}
    for k, pairs in pieces.items():
        scale = float(det) ** (k / 2.0)
        terms = tuple(Term(t.coef * scale, t.beta.twist(-k), c) for t, c in pairs)
        layers[k] = ModulatedBoxSum(A, terms)
    return layers


def meeting_gaps(E: BoxSet, A: DilationMatrix, d_min: int, d_max: int) -> list[int]:
    """The d in [d_min, d_max], ascending, at which E meets B^d E: the layers of 1_E.

    B^j E meets B^k E exactly when E meets B^(k-j) E, so the gaps decide
    which pairs of dilates overlap.
    """
    return list(_pieces(ModulatedBoxSum.indicator(A, E), E, A, d_min, d_max))


def isometry_path(f: ModulatedBoxSum) -> str:
    """The path of :func:`isometry_defect`: "exact" for a step function on disjoint boxes."""
    pairs = itertools.combinations(f.terms, 2)
    step = all(t.beta.is_zero for t in f.terms)
    exact = step and all(s.box.intersect(t.box) is None for s, t in pairs)
    return "exact" if exact else "closed-form"


def to_layers(
    f: ModulatedBoxSum,
    E: BoxSet,
    A: DilationMatrix,
    k_min: int | None = None,
    k_max: int | None = None,
    tol: float = 1e-10,
) -> LayerFunction:
    """Forward map onto the layered space.

    A missing window end is filled by the rule of :func:`layer_span`.
    Mass of f outside the union of windowed dilates is the truncation
    mass; exceeding tol * ||f||^2 raises WindowTooSmall.
    """
    k_min, k_max, pieces = _window(f, E, A, k_min, k_max)
    layers = _layer_sums(A, pieces)
    fn = f.norm_sq()
    trunc = max(fn - sum(layer.norm_sq() for layer in layers.values()), 0.0) if fn > 0 else 0.0
    if trunc > tol * fn:
        raise WindowTooSmall(f"truncation mass {trunc:.3e} exceeds {tol:.1e} of ||f||^2")
    return LayerFunction(A, k_min, k_max, layers, trunc)


def isometry_defect(
    f: ModulatedBoxSum,
    E: BoxSet,
    A: DilationMatrix,
    k_min: int | None = None,
    k_max: int | None = None,
) -> float:
    """|  ||forward f||^2 - ||f||^2 | / ||f||^2.

    On the piecewise-constant disjoint path the covered volume of each
    cell is accumulated as an exact rational, so a subordinate function
    yields literally 0.0.  Other inputs use the closed-form norms; with
    a window given, a zero norm is reported before the matrix checks.
    """
    if not f.terms:
        raise ZeroFunction("isometry defect of the zero function")
    exact = isometry_path(f) == "exact"
    norm = None if exact or k_min is None or k_max is None else f.norm_sq()
    if norm == 0.0:
        raise ZeroFunction("isometry defect of the zero function")
    k_min, k_max, pieces = _window(f, E, A, k_min, k_max)
    if exact:
        det = Fraction(A.det_abs)
        # vol(box ∩ B^k E) = det^k * vol(B^{-k} box ∩ E); E's boxes and f's are disjoint
        covered = dict.fromkeys((t.box for t in f.terms), Fraction(0))
        for k, pairs in pieces.items():
            for t, c in pairs:
                covered[t.box] += det**k * c.volume()
        pin = math.pi**A.n
        total = 0.0
        mapped = 0.0
        for t in f.terms:
            w = abs(t.coef) ** 2
            total += w * (float(t.box.volume()) * pin)
            mapped += w * (float(covered[t.box]) * pin)
        if total == 0.0:
            raise ZeroFunction("isometry defect of the zero function")
        return abs(mapped - total) / total
    norm = f.norm_sq() if norm is None else norm
    if norm == 0.0:
        raise ZeroFunction("isometry defect of the zero function")
    F = LayerFunction(A, k_min, k_max, _layer_sums(A, pieces))
    return abs(F.norm_sq() - norm) / norm
