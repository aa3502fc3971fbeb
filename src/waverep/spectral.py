"""The dilation projection maps and the layer-space isomorphism.

When the dilates of a base set E tile R^n, almost every point xi has a
unique scale index p with B^p xi in E (B the frequency matrix); the pair
(representative, index) identifies L2(R^n) with the layered space
L2(E x Z) through the norm-preserving map

    (forward f)(x, k) = |det|^{k/2} f(B^k x),        x in E,
    (inverse F)(xi)   = |det|^{p/2} F(B^p xi, -p),   p = p(xi).

On the exact carrier (modulated box sums, diagonal matrix) the pair of
maps is an exact mutual inverse and an exact isometry; the sampled grid
path covers general matrices with a reported quadrature defect.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .boxes import BoxSet
from .errors import AmbiguousScale, NotCovered, WindowTooSmall, ZeroFunction
from .funcs import GridFunction, LayerFunction, ModulatedBoxSum, Term
from .groups import DilationMatrix, RealPoint, b_transform

__all__ = [
    "project_point",
    "to_layers",
    "from_layers",
    "isometry_defect",
    "sampled_isometry_defect",
    "layer_span",
]


def _inf_norm_exact(x: RealPoint) -> Fraction | float:
    if x.pi_coords is not None:
        return max(abs(c) for c in x.pi_coords)
    return max(abs(c) for c in x.coords) / math.pi


def project_point(
    xi: RealPoint, E: BoxSet, A: DilationMatrix, max_iter: int = 64
) -> tuple[RealPoint, int]:
    """Resolve xi to (representative in E, scale index p) with B^p xi in E.

    The scan expands outward from p = 0 and keeps going after the first
    hit so a disjointness failure shows up as AmbiguousScale with both
    witnesses.  For a diagonal matrix the scan stops early once the
    sup norm leaves the bounding annulus of E monotonically.
    """
    r_min, r_max = E.bounding_radii()
    diagonal = A.is_diagonal
    hits: list[tuple[int, RealPoint]] = []
    pos_alive = neg_alive = True
    for step in range(0, max_iter + 1):
        candidates = [step] if step == 0 else [-step, step]
        for p in candidates:
            if p > 0 and not pos_alive:
                continue
            if p < 0 and not neg_alive:
                continue
            y = b_transform(A, xi, p)
            if E.contains(y):
                hits.append((p, y))
                if len(hits) == 2:
                    raise AmbiguousScale(
                        f"scales {hits[0][0]} and {hits[1][0]} both resolve the point",
                        [h[0] for h in hits],
                    )
            if diagonal and not E.is_empty:
                norm = _inf_norm_exact(y)
                if p > 0 and norm > r_max:
                    pos_alive = False
                if p < 0 and norm < r_min:
                    neg_alive = False
        if not pos_alive and not neg_alive:
            break
    if not hits:
        raise NotCovered(
            f"no scale in [-{max_iter}, {max_iter}] lands in the set"
        )
    p, y = hits[0]
    return y, p


def layer_span(
    f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix, cap: int = 48
) -> tuple[int, int]:
    """Smallest window [k_min, k_max] with every box of f meeting the dilates."""
    ks = []
    for k in range(-cap, cap + 1):
        dil = E.dilate(A, k)
        if any(t.box.intersect(piece) is not None for t in f.terms for piece in dil.boxes):
            ks.append(k)
    if not ks:
        return 0, 0
    return min(ks), max(ks)


def to_layers(
    f: ModulatedBoxSum,
    E: BoxSet,
    A: DilationMatrix,
    k_min: int | None = None,
    k_max: int | None = None,
    tol: float = 1e-10,
) -> LayerFunction:
    """Forward map onto the layered space.

    Window defaults to the exact span of f.  Mass of f outside the
    union of windowed dilates is the truncation mass; exceeding
    tol * ||f||^2 raises WindowTooSmall.
    """
    if k_min is None or k_max is None:
        auto = layer_span(f, E, A)
        k_min = auto[0] if k_min is None else k_min
        k_max = auto[1] if k_max is None else k_max
    det = A.det_abs
    layers: dict[int, ModulatedBoxSum] = {}
    for k in range(k_min, k_max + 1):
        scale = float(det) ** (k / 2.0)
        pieces = []
        for t in f.terms:
            # piece of the k-th layer: B^{-k}(box) intersected with E
            moved = t.box.dilate(A, -k)
            for eb in E.boxes:
                c = moved.intersect(eb)
                if c is not None:
                    pieces.append(Term(t.coef * scale, t.beta.twist(-k), c))
        if pieces:
            layers[k] = ModulatedBoxSum(A, tuple(pieces))
    out = LayerFunction(A, k_min, k_max, layers)
    fn = f.norm_sq()
    if fn > 0:
        trunc = max(fn - out.norm_sq(), 0.0)
        if trunc > tol * fn:
            raise WindowTooSmall(
                f"truncation mass {trunc:.3e} exceeds {tol:.1e} of ||f||^2"
            )
        object.__setattr__(out, "truncation_mass", trunc)
    return out


def from_layers(F: LayerFunction, E: BoxSet, A: DilationMatrix) -> ModulatedBoxSum:
    """Inverse map back to functions on R^n (exact left inverse of to_layers)."""
    det = A.det_abs
    out = []
    for k, layer in sorted(F.layers.items()):
        scale = float(det) ** (-k / 2.0)
        for t in layer.terms:
            out.append(Term(t.coef * scale, t.beta.twist(k), t.box.dilate(A, k)))
    return ModulatedBoxSum(A, tuple(out))


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
    yields literally 0.0.  Other inputs use the closed-form norms.
    """
    if not f.terms:
        raise ZeroFunction("isometry defect of the zero function")
    if k_min is None or k_max is None:
        auto = layer_span(f, E, A)
        k_min = auto[0] if k_min is None else k_min
        k_max = auto[1] if k_max is None else k_max
    if f.is_piecewise_constant and f.has_disjoint_boxes():
        det = Fraction(A.det_abs)
        pin = math.pi**A.n
        total = 0.0
        mapped = 0.0
        for t in f.terms:
            w = abs(t.coef) ** 2
            vol = t.box.volume()
            covered = Fraction(0)
            for k in range(k_min, k_max + 1):
                # vol(box ∩ B^k E) = det^k * vol(B^{-k} box ∩ E); E's boxes are disjoint
                moved = t.box.dilate(A, -k)
                pieces = (moved.intersect(eb) for eb in E.boxes)
                covered += det**k * sum(c.volume() for c in pieces if c is not None)
            total += w * (float(vol) * pin)
            mapped += w * (float(covered) * pin)
        if total == 0.0:
            raise ZeroFunction("isometry defect of the zero function")
        return abs(mapped - total) / total
    norm = f.norm_sq()
    if norm == 0.0:
        raise ZeroFunction("isometry defect of the zero function")
    F = to_layers(f, E, A, k_min, k_max, tol=float("inf"))
    return abs(F.norm_sq() - norm) / norm


def sampled_isometry_defect(
    fn: Callable,
    E: BoxSet,
    A: DilationMatrix,
    bounds: tuple[Sequence[float], Sequence[float]],
    cells: int,
    k_min: int,
    k_max: int,
    layer_cells: int | None = None,
) -> float:
    """Quadrature isometry defect on the sampled grid path.

    ``fn`` is sampled into a piecewise-constant grid over ``bounds``
    with ``cells`` cells per axis, making the base norm exact for the
    sampled function.  The forward map reads the grid back at
    transformed layer nodes with a left-endpoint rule, whose leading
    error is a boundary term, so the defect decays at first order in
    the layer spacing and halves under one refinement of both grids.
    """
    lo, hi = np.asarray(bounds[0], float), np.asarray(bounds[1], float)
    h = float((hi - lo)[0]) / cells
    shape = tuple(int(round((hi[k] - lo[k]) / h)) for k in range(len(lo)))
    gf = GridFunction.sample(fn, lo, h, shape)
    base = gf.norm_sq()
    if base == 0.0:
        raise ZeroFunction("isometry defect of the zero function")
    if layer_cells is None:
        layer_cells = max(cells // 16, 8)
    det = float(A.det_abs)
    mapped = 0.0
    for k in range(k_min, k_max + 1):
        p, d = A.power(k)
        bk = np.array(p, dtype=float).T / d
        for blo, bhi in E.float_bounds():
            blo, bhi = np.array(blo), np.array(bhi)
            counts = [
                max(2, int(round((bhi[a] - blo[a]) / (bhi[0] - blo[0]) * layer_cells)))
                for a in range(len(blo))
            ]
            axes = [
                blo[a] + (bhi[a] - blo[a]) * np.arange(counts[a]) / counts[a]
                for a in range(len(blo))
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            vals = gf.eval_many(pts @ bk.T)
            cellvol = float(np.prod((bhi - blo) / np.asarray(counts)))
            mapped += det**k * float(np.sum(np.abs(vals) ** 2)) * cellvol
    return abs(mapped - base) / base
