"""Exact measurable-set algebra on finite unions of half-open rational boxes.

Coordinates are stored in units of pi as exact ``Fraction`` values, so
the lattice 2*pi*Z^n and the cube [-pi, pi)^n are integer objects and
every congruence check is exact.  All boxes are half-open products
prod_k [lo_k, hi_k); boundaries are null sets and the whole module works
modulo null sets.

Canonical forms, unions and differences all come from one cell pass,
:func:`grid_difference`, which runs on integers: axis k is held on the
grid of one integer L_k, a common multiple of the denominators there
(:func:`grid_scales`), so each end x is the integer x * L_k
(:func:`grid_span`).  The boxes are cut along one index grid of those
ends, the cells that remain are kept, the cells are fused back into
boxes, and only the kept boxes return to ``Fraction`` ends.  Integer
hashing and comparison replace the gcd and cross-multiplication that
every ``Fraction`` operation pays.  The one dilation map,
:func:`grid_dilate`, works on such a grid too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonDiagonalDilation
from .groups import DilationMatrix, RealPoint

__all__ = [
    "Box",
    "BoxSet",
    "normalize",
    "difference",
    "grid_scales",
    "grid_span",
    "grid_dilate",
    "grid_difference",
    "interval_set",
    "unit_cube",
]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Box:
    """Half-open box prod_k [lo_k, hi_k), endpoints in pi units."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        lo = tuple(_frac(x) for x in self.lo)
        hi = tuple(_frac(x) for x in self.hi)
        if len(lo) != len(hi):
            raise DimensionMismatch("lo/hi length mismatch")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("empty or inverted box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def volume(self) -> Fraction:
        """Volume in pi^n units."""
        vol = Fraction(1)
        for a, b in zip(self.lo, self.hi):
            vol *= b - a
        return vol

    def intersect(self, other: "Box") -> "Box | None":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def contains_point(self, x: RealPoint) -> bool:
        if x.dim != self.dim:
            raise DimensionMismatch("point dimension mismatch")
        if x.pi_coords is not None:
            return all(a <= c < b for a, b, c in zip(self.lo, self.hi, x.pi_coords))
        return all(
            float(a) * math.pi <= c < float(b) * math.pi
            for a, b, c in zip(self.lo, self.hi, x.coords)
        )

    def dilate(self, A: DilationMatrix, j: int) -> "Box":
        """Image under B^j, B the frequency matrix: :func:`grid_dilate` on the box's own grid.

        Exact only for diagonal B (or n == 1), under which boxes map to
        boxes.  Negative entries flip orientation; the half-open image
        differs from the true one by a null set, which is all that the
        measure-level checks need.  The grid is :func:`grid_scales` times
        |a_kk|^max(-j, 0) on axis k, so every end of the image is an integer.
        """
        if A.n != self.dim:
            raise DimensionMismatch("matrix dimension mismatch")
        if not A.is_diagonal:
            raise NonDiagonalDilation("exact dilation needs a diagonal matrix; use the sampled path")
        reach = max(-j, 0)
        scales = [s * abs(A.entries[k][k]) ** reach for k, s in enumerate(grid_scales(self.dim, (self,)))]
        lo, hi = grid_dilate(A, grid_span(self, scales), j)
        return Box(tuple(map(Fraction, lo, scales)), tuple(map(Fraction, hi, scales)))

    def translate(self, shift: Sequence[Fraction]) -> "Box":
        return Box(
            tuple(a + s for a, s in zip(self.lo, shift)),
            tuple(b + s for b, s in zip(self.hi, shift)),
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"[{a}, {b})" for a, b in zip(self.lo, self.hi))
        return f"Box({parts})"


def _merge_cells(
    dim: int, cells: Iterable[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Greedy fuse of grid cells (lower-index tuples) into (lo, hi) index boxes, to a fixpoint.

    The boxes stay disjoint, so every sort key is unique and the result
    does not depend on the order of ``cells``.
    """
    current = [(lo, tuple(i + 1 for i in lo)) for lo in cells]
    changed = True
    while changed:
        changed = False
        for axis in range(dim):
            others = [k for k in range(dim) if k != axis]
            current.sort(key=lambda b: (tuple((b[0][k], b[1][k]) for k in others), b[0][axis]))
            fused: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for lo, hi in current:
                if fused:
                    plo, phi = fused[-1]
                    same_profile = all(plo[k] == lo[k] and phi[k] == hi[k] for k in others)
                    if same_profile and phi[axis] == lo[axis]:
                        fused[-1] = (plo, phi[:axis] + (hi[axis],) + phi[axis + 1 :])
                        changed = True
                        continue
                fused.append((lo, hi))
            current = fused
    current.sort()
    return current


Span = tuple[tuple[int, ...], tuple[int, ...]]


def grid_scales(dim: int, boxes: Sequence[Box]) -> list[int]:
    """The grid of the boxes: per axis, the least common multiple of the denominators of their ends."""
    return [math.lcm(*{x.denominator for b in boxes for x in (b.lo[k], b.hi[k])}) for k in range(dim)]


def grid_span(box: Box, scales: Sequence[int]) -> Span:
    """The box on the integer grid of ``scales``: each end x on axis k as x * L_k.

    Every L_k must be a multiple of the denominators of the box's ends on
    axis k, so that each image is an exact integer.
    """
    return (
        tuple(x.numerator * (s // x.denominator) for x, s in zip(box.lo, scales)),
        tuple(x.numerator * (s // x.denominator) for x, s in zip(box.hi, scales)),
    )


def grid_dilate(A: DilationMatrix, span: Span, j: int) -> Span:
    """The image of a box under B^j on the integer grid: the one dilation map of the module.

    On a diagonal matrix axis k scales the ends x * L_k by a_kk^j, and a
    negative factor swaps the ends.  For j < 0 the image n // a_kk^|j| is
    exact when the grid carries that power: L_k a multiple of |a_kk|^|j|
    times the denominators on axis k.
    """
    if A.n != len(span[0]):
        raise DimensionMismatch("matrix dimension mismatch")
    lo, hi = [], []
    for k, (x, y) in enumerate(zip(*span)):
        a = A.entries[k][k]
        x, y = (x * a**j, y * a**j) if j >= 0 else (x // a**-j, y // a**-j)
        lo.append(min(x, y))
        hi.append(max(x, y))
    return tuple(lo), tuple(hi)


def normalize(dim: int, boxes: Iterable[Box]) -> "BoxSet":
    """Canonical disjoint representation of a union of boxes: :func:`difference` with no cutter."""
    return difference(dim, boxes, ())


def difference(dim: int, boxes: Iterable[Box], cutters: Iterable[Box]) -> "BoxSet":
    """Canonical disjoint boxes of the union of ``boxes`` minus the union of ``cutters``.

    Axis k goes on the integer grid of L_k, the least common multiple of
    the denominators of the ends on that axis (:func:`grid_span`), and the
    cell pass runs there (:func:`grid_difference`).  The map is monotone,
    so orders and equalities are those of the ends.
    """
    parts = list(boxes)
    if any(b.dim != dim for b in parts):
        raise DimensionMismatch("box dimension mismatch")
    if not parts:
        return BoxSet(dim, ())
    cuts = list(cutters)
    if any(c.dim != dim for c in cuts):
        raise DimensionMismatch("box dimension mismatch")
    scales = grid_scales(dim, parts + cuts)
    return grid_difference(
        scales, [grid_span(b, scales) for b in parts], [grid_span(c, scales) for c in cuts]
    )


def grid_difference(scales: Sequence[int], spans: Sequence[Span], cuts: Iterable[Span]) -> "BoxSet":
    """The union of ``spans`` minus the union of ``cuts``, on the integer grid of ``scales``.

    The one cell pass of the module.  Spans are boxes whose ends x on
    axis k are held as the integers x * L_k.  Each cut is clipped to the
    hull of the spans, and one endpoint grid per axis holds the ends of
    the spans and of the clipped cuts; the pass works on integer indices
    into those grids.  A cell is kept when some span holds it and no cut
    does, and the kept cells are fused by :func:`_merge_cells`.  A finer
    grid only splits cells that fuse back into the same boxes, so the
    result depends on the set alone, not on the grid or on the order of
    the spans.  Only the kept boxes go back to ``Fraction`` ends,
    x / L_k.
    """
    dim = len(scales)
    if not spans:
        return BoxSet(dim, ())
    ends = [{x for lo, hi in spans for x in (lo[k], hi[k])} for k in range(dim)]
    hull_lo, hull_hi = [min(e) for e in ends], [max(e) for e in ends]
    clipped = []
    for c in cuts:
        lo = tuple(map(max, c[0], hull_lo))
        hi = tuple(map(min, c[1], hull_hi))
        if all(a < b for a, b in zip(lo, hi)):
            clipped.append((lo, hi))
            for k in range(dim):
                ends[k].update((lo[k], hi[k]))
    grids = [sorted(e) for e in ends]
    index = [{x: i for i, x in enumerate(g)} for g in grids]

    def cells(lo, hi):
        return itertools.product(*(range(index[k][lo[k]], index[k][hi[k]]) for k in range(dim)))

    kept: set[tuple[int, ...]] = set()
    for lo, hi in spans:
        kept.update(cells(lo, hi))
    for lo, hi in clipped:
        if not kept:
            break
        kept.difference_update(cells(lo, hi))
    return BoxSet(
        dim,
        tuple(
            Box(
                tuple(Fraction(g[i], s) for g, i, s in zip(grids, lo, scales)),
                tuple(Fraction(g[i], s) for g, i, s in zip(grids, hi, scales)),
            )
            for lo, hi in _merge_cells(dim, kept)
        ),
    )


@dataclass(frozen=True)
class BoxSet:
    """Canonical finite disjoint union of half-open boxes."""

    dim: int
    boxes: tuple[Box, ...]

    @classmethod
    def empty(cls, dim: int) -> "BoxSet":
        return cls(dim, ())

    @classmethod
    def of(cls, dim: int, boxes: Iterable[Box]) -> "BoxSet":
        return normalize(dim, boxes)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def measure(self) -> Fraction:
        """Lebesgue measure in pi^n units (multiply by pi**dim for the real value)."""
        return sum((b.volume() for b in self.boxes), Fraction(0))

    def union(self, other: "BoxSet") -> "BoxSet":
        self._check(other)
        return normalize(self.dim, self.boxes + other.boxes)

    def intersect(self, other: "BoxSet") -> "BoxSet":
        self._check(other)
        pieces = []
        for a in self.boxes:
            for b in other.boxes:
                c = a.intersect(b)
                if c is not None:
                    pieces.append(c)
        return normalize(self.dim, pieces)

    def subtract(self, other: "BoxSet") -> "BoxSet":
        self._check(other)
        return difference(self.dim, self.boxes, other.boxes)

    def translate(self, v: Sequence[int]) -> "BoxSet":
        """The set shifted by the lattice vector 2*pi*v."""
        if len(v) != self.dim:
            raise DimensionMismatch("lattice vector dimension mismatch")
        shift = tuple(Fraction(2 * int(x)) for x in v)
        return BoxSet(self.dim, tuple(b.translate(shift) for b in self.boxes))

    def dilate(self, A: DilationMatrix, j: int) -> "BoxSet":
        """Image of the set under the j-th power of the frequency matrix (see Box.dilate)."""
        out = (b.dilate(A, j) for b in self.boxes)
        return BoxSet(self.dim, tuple(sorted(out, key=lambda b: (b.lo, b.hi))))

    def contains(self, x: RealPoint) -> bool:
        if x.dim != self.dim:
            raise DimensionMismatch("point dimension mismatch")
        return any(b.contains_point(x) for b in self.boxes)

    def float_bounds(self) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
        """Each box as (lo, hi) in radians, float(a) * pi and float(b) * pi per axis.

        These are the bounds that :meth:`Box.contains_point` compares a
        float point with, so every float path tests membership alike.
        """
        return [
            (tuple(float(a) * math.pi for a in b.lo), tuple(float(x) * math.pi for x in b.hi))
            for b in self.boxes
        ]

    def contains_rows(self, pts: np.ndarray) -> np.ndarray:
        """Mask of the rows of a float point array (radians) that lie in the set.

        The same comparisons as :meth:`contains` on each row: lo <= x < hi
        on every axis of some box, with the bounds of :meth:`float_bounds`.
        """
        inside = np.zeros(len(pts), dtype=bool)
        for lo, hi in self.float_bounds():
            inside |= np.all((pts >= lo) & (pts < hi), axis=1)
        return inside

    def same_set(self, other: "BoxSet") -> bool:
        """Equality as sets (representation independent)."""
        return self.subtract(other).is_empty and other.subtract(self).is_empty

    def bounding_radii(self) -> tuple[Fraction, Fraction]:
        """(r_min, r_max) bounds in the sup norm, pi units.

        r_min is the distance from the origin to the set, r_max the
        farthest sup-norm reach; both are exact.
        """
        if self.is_empty:
            return Fraction(0), Fraction(0)
        r_max = max(max(abs(a), abs(b)) for box in self.boxes for a, b in zip(box.lo, box.hi))
        r_min = None
        for box in self.boxes:
            # sup-norm distance from 0 to the box: max of axiswise distances
            dist = max(
                (Fraction(0) if a <= 0 < b else min(abs(a), abs(b)))
                for a, b in zip(box.lo, box.hi)
            )
            r_min = dist if r_min is None else min(r_min, dist)
        return r_min, r_max

    def translation_reduce(self):
        """Fold the set into the cube [-pi, pi)^n along the 2*pi lattice.

        Returns (fragments, overlap, deficit): each fragment is a maximal
        sub-box together with the unique lattice shift taking it into the
        cube; overlap collects points of the cube hit twice, deficit the
        points never hit.  Both are empty iff the set is translation
        congruent to the cube.
        """
        fragments: list[tuple[Box, tuple[int, ...]]] = []
        for box in self.boxes:
            # per axis, the cells [2c - 1, 2c + 1) that [lo, hi) meets: c from
            # floor((lo + 1) / 2) up to ceil((hi + 1) / 2), exclusive
            spans = [range((a + 1) // 2, -((-1 - b) // 2)) for a, b in zip(box.lo, box.hi)]
            for cell in itertools.product(*spans):
                lo = tuple(max(a, 2 * c - 1) for a, c in zip(box.lo, cell))
                hi = tuple(min(b, 2 * c + 1) for b, c in zip(box.hi, cell))
                fragments.append((Box(lo, hi), tuple(-c for c in cell)))
        images = [frag.translate(tuple(Fraction(2 * s) for s in shift)) for frag, shift in fragments]
        pairs = (a.intersect(b) for a, b in itertools.combinations(images, 2))
        overlap = normalize(self.dim, [c for c in pairs if c is not None])
        deficit = unit_cube(self.dim).subtract(normalize(self.dim, images))
        return fragments, overlap, deficit

    def _check(self, other: "BoxSet"):
        if self.dim != other.dim:
            raise DimensionMismatch("box set dimensions differ")

    def __repr__(self) -> str:
        return f"BoxSet(dim={self.dim}, boxes={list(self.boxes)})"


def interval_set(intervals: Iterable[tuple]) -> BoxSet:
    """1-D convenience: build a BoxSet from (lo, hi) pairs in pi units."""
    return BoxSet.of(1, [Box((_frac(a),), (_frac(b),)) for a, b in intervals])


def unit_cube(dim: int) -> BoxSet:
    """The cube [-pi, pi)^n."""
    return BoxSet(
        dim, (Box((Fraction(-1),) * dim, (Fraction(1),) * dim),)
    )


def product_set(a: BoxSet, b: BoxSet) -> BoxSet:
    """Cartesian product of two box sets."""
    boxes = [
        Box(x.lo + y.lo, x.hi + y.hi) for x in a.boxes for y in b.boxes
    ]
    return BoxSet.of(a.dim + b.dim, boxes)
