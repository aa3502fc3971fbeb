"""Shared random generators for the test suite (seeded, deterministic)."""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from waverep.boxes import Box, BoxSet, interval_set, normalize, product_set, unit_cube
from waverep.funcs import ModulatedBoxSum
from waverep.gram import GramSpec
from waverep.groups import (
    AdicVector,
    DilationMatrix,
    GroupElement,
    RealPoint,
    b_transform,
    validate_dilation,
)
from waverep.jsonio import boxset_json
from waverep.linalg import mat_pow, mat_vec, transpose
from waverep.tiling import CheckResult


def random_adic(rng: random.Random, A: DilationMatrix, vmax: int = 9, jmax: int = 3):
    return AdicVector.of(
        A, [rng.randint(-vmax, vmax) for _ in range(A.n)], rng.randint(0, jmax)
    )


def random_element(rng: random.Random, A: DilationMatrix, mmax: int = 3):
    return GroupElement(random_adic(rng, A), rng.randint(-mmax, mmax))


def random_point_in(rng: random.Random, E: BoxSet, den: int = 16) -> RealPoint:
    """Exact rational-pi point strictly inside a random box of the set."""
    box = rng.choice(E.boxes)
    coords = []
    for a, b in zip(box.lo, box.hi):
        t = Fraction(rng.randint(1, den - 1), den)
        coords.append(a + (b - a) * t)
    return RealPoint.from_pi(coords)


def random_subbox(rng: random.Random, box: Box, den: int = 8) -> Box:
    lo, hi = [], []
    for a, b in zip(box.lo, box.hi):
        c1 = rng.randint(0, den - 2)
        c2 = rng.randint(c1 + 1, den - 1)
        lo.append(a + (b - a) * Fraction(c1, den))
        hi.append(a + (b - a) * Fraction(c2, den))
    return Box(tuple(lo), tuple(hi))


def random_coef(rng: random.Random) -> complex:
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def random_subordinate(
    rng: random.Random,
    E: BoxSet,
    A: DilationMatrix,
    k_lo: int = -3,
    k_hi: int = 3,
    n_terms: int = 4,
    modulated: bool = True,
) -> ModulatedBoxSum:
    """Random function supported in the dilates of E within [k_lo, k_hi]."""
    terms = []
    for _ in range(n_terms):
        k = rng.randint(k_lo, k_hi)
        dil = E.dilate(A, k)
        box = random_subbox(rng, rng.choice(dil.boxes))
        beta = random_adic(rng, A) if modulated else AdicVector.zero(A)
        terms.append((random_coef(rng), beta, box))
    return ModulatedBoxSum.of(A, terms)


def random_disjoint_subordinate(
    rng: random.Random,
    E: BoxSet,
    A: DilationMatrix,
    k_lo: int = -3,
    k_hi: int = 3,
) -> ModulatedBoxSum:
    """Piecewise-constant function on disjoint cells inside distinct dilates."""
    ks = rng.sample(range(k_lo, k_hi + 1), k=min(4, k_hi - k_lo + 1))
    pieces = []
    for k in ks:
        dil = E.dilate(A, k)
        pieces.append((random_subbox(rng, rng.choice(dil.boxes)), random_coef(rng)))
    return ModulatedBoxSum.piecewise(A, pieces)


# --- reference A-adic arithmetic by Fraction Gaussian elimination ----------


def ref_solve(a, b) -> tuple[Fraction, ...]:
    """Exact solution of a x = b over the rationals (Gaussian elimination)."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def ref_canonical(A: DilationMatrix, v, j: int) -> tuple[tuple[int, ...], int]:
    """Canonical (v, j) of A^{-j} v: divide by A while the quotient stays integral."""
    v = tuple(v)
    if all(x == 0 for x in v):
        return v, 0
    while j > 0:
        w = ref_solve(A.entries, v)
        if any(x.denominator != 1 for x in w):
            break
        v, j = tuple(int(x) for x in w), j - 1
    return v, j


def ref_values(A: DilationMatrix, v, j: int) -> tuple[Fraction, ...]:
    """A^{-j} v as exact rationals."""
    return ref_solve(mat_pow(A.entries, j), v)


def ref_b_transform(A: DilationMatrix, x, k: int) -> tuple[Fraction, ...]:
    """B^k x exactly, B the transpose of A, for a rational vector x."""
    b = transpose(A.entries)
    if k >= 0:
        return tuple(Fraction(c) for c in mat_vec(mat_pow(b, k), x))
    return ref_solve(mat_pow(b, -k), x)


# --- brute-force references for the group-structure shortcuts -------------


def ref_gram_closed_form(spec: GramSpec) -> np.ndarray:
    """Closed-form Gram matrix by evaluating all k^2 / 2 pairings, one basis vector per label."""
    labels = spec.labels()
    base = ModulatedBoxSum.indicator(spec.A, spec.E)
    vectors = [base.modulated(AdicVector.of(spec.A, v)).dilated(m) for m, v in labels]
    norm_sqs = [b.inner(b).real for b in vectors]
    norms = [math.sqrt(s) for s in norm_sqs]
    k = len(labels)
    matrix = np.zeros((k, k), dtype=complex)
    for i in range(k):
        matrix[i, i] = norm_sqs[i] / norm_sqs[i]
        for j in range(i + 1, k):
            val = vectors[i].inner(vectors[j]) / (norms[i] * norms[j])
            matrix[i, j] = val
            matrix[j, i] = val.conjugate()
    return matrix


def ref_gram_quadrature(spec: GramSpec, cells: int = 4096) -> np.ndarray:
    """Riemann-sum Gram matrix with one np.sum per entry (the O(k^2) loop)."""
    n = spec.A.n
    det = float(spec.A.det_abs)

    def sample(m, v, pts):
        p, d = spec.A.power(-m)
        ys = pts @ (np.array(p, dtype=float) / d)
        inside = np.zeros(len(pts), dtype=bool)
        for box in spec.E.boxes:
            lo = np.array([float(x) * math.pi for x in box.lo])
            hi = np.array([float(x) * math.pi for x in box.hi])
            inside |= np.all((ys >= lo) & (ys < hi), axis=1)
        phase = np.exp(-1j * (ys @ np.asarray(v, dtype=float)))
        return det ** (-m / 2.0) * inside * phase

    r_max = max(
        abs(float(x)) for box in spec.E.boxes for x in (*box.lo, *box.hi)
    ) * math.pi * det ** spec.m_max
    per_axis = max(8, int(round(cells ** (1 / n))))
    axes = [-r_max + 2 * r_max * (np.arange(per_axis) + 0.5) / per_axis for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vol = (2 * r_max / per_axis) ** n
    labels = spec.labels()
    vals = [sample(m, v, pts) for m, v in labels]
    mu = float(spec.E.measure()) * math.pi**n
    k = len(labels)
    out = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i, j] = np.sum(vals[i] * np.conj(vals[j])) * vol / mu
    return out


def ref_disjoint_witness(E: BoxSet, A: DilationMatrix, j_max: int) -> dict | None:
    """First overlapping pair (j, k) of dilates in (j, k) order, scanning all O(j^2) pairs."""
    dilates = {j: E.dilate(A, j) for j in range(-j_max, j_max + 1)}
    for j in range(-j_max, j_max + 1):
        for k in range(j + 1, j_max + 1):
            inter = dilates[j].intersect(dilates[k])
            if not inter.is_empty:
                return {"j": j, "k": k, "intersection": boxset_json(inter)}
    return None


_M64 = (1 << 64) - 1


def _splitmix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def counter_uniform(seed: int, *indices: int) -> float:
    """SplitMix64 uniform keyed by (seed, indices), one Python int at a time: the bit reference."""
    z = seed & _M64
    for idx in indices:
        z = _splitmix(z ^ (idx & _M64))
    return _splitmix(z) / float(1 << 64)


def ref_sample_annulus(dim: int, r_in: float, r_out: float, seed: int, index: int) -> RealPoint:
    """Draw ``index`` of the sup-norm shell, one point at a time from its per-index definition."""
    u = [counter_uniform(seed, index, 0, axis) for axis in range(dim + 2)]
    q = (r_in / r_out) ** dim
    r = r_out * (q + u[dim] * (1.0 - q)) ** (1.0 / dim)
    r = min(max(r, r_in), r_out)
    face = int(u[dim + 1] * 2 * dim) % (2 * dim)
    coords = [(2.0 * u[axis] - 1.0) * r for axis in range(dim)]
    coords[face // 2] = r if face % 2 else -r
    return RealPoint.from_floats(coords)


def ref_sampled_disjoint(E, A, j_max, samples, seed, annulus, mode) -> CheckResult:
    """Sampled condition (i) by a loop of its own: every level of each draw, until two meet."""
    note = "sampled mode (non-diagonal frequency matrix)" if mode == "auto" else ""
    r_in, r_out = float(annulus[0]) * math.pi, float(annulus[1]) * math.pi
    for i in range(samples):
        xi = ref_sample_annulus(E.dim, r_in, r_out, seed, i)
        hits = [j for j in range(-j_max, j_max + 1) if E.contains(b_transform(A, xi, -j))]
        if len(hits) >= 2:
            witness = {"point": list(xi.coords), "levels": hits}
            return CheckResult("dilation_disjoint", False, "sampled", witness=witness, note=note)
    return CheckResult("dilation_disjoint", True, "sampled", note=note)


def ref_sampled_cover(E, A, j_max, samples, seed, annulus) -> CheckResult:
    """Sampled condition (ii) by a loop of its own: the first draw that no level holds."""
    r_in, r_out = Fraction(annulus[0]), Fraction(annulus[1])
    note = f"certified on sup-norm annulus [{r_in}*pi, {r_out}*pi] with |j| <= {j_max} only"
    for i in range(samples):
        xi = ref_sample_annulus(E.dim, float(r_in) * math.pi, float(r_out) * math.pi, seed, i)
        if not any(E.contains(b_transform(A, xi, -j)) for j in range(-j_max, j_max + 1)):
            witness = {"point": list(xi.coords)}
            return CheckResult("dilation_cover", False, "sampled", witness=witness, note=note)
    return CheckResult("dilation_cover", True, "sampled", note=note)


def ref_normalize(dim: int, boxes) -> tuple[Box, ...]:
    """Canonical boxes of a union: Fraction grid cells, fused axis by axis to a fixpoint."""
    boxes = list(boxes)
    if not boxes:
        return ()
    grids = [sorted({b.lo[k] for b in boxes} | {b.hi[k] for b in boxes}) for k in range(dim)]
    cells: set[Box] = set()
    for b in boxes:
        ranges = [
            range(bisect_left(grids[k], b.lo[k]), bisect_right(grids[k], b.hi[k]) - 1)
            for k in range(dim)
        ]
        for idx in itertools.product(*ranges):
            lo = tuple(grids[k][i] for k, i in enumerate(idx))
            hi = tuple(grids[k][i + 1] for k, i in enumerate(idx))
            cells.add(Box(lo, hi))
    current = list(cells)
    changed = True
    while changed:
        changed = False
        for axis in range(dim):
            others = [k for k in range(dim) if k != axis]
            current.sort(key=lambda b: (tuple((b.lo[k], b.hi[k]) for k in others), b.lo[axis]))
            fused: list[Box] = []
            for b in current:
                if fused:
                    p = fused[-1]
                    same_profile = all(
                        p.lo[k] == b.lo[k] and p.hi[k] == b.hi[k] for k in range(dim) if k != axis
                    )
                    if same_profile and p.hi[axis] == b.lo[axis]:
                        hi = tuple(b.hi[k] if k == axis else p.hi[k] for k in range(dim))
                        fused[-1] = Box(p.lo, hi)
                        changed = True
                        continue
                fused.append(b)
            current = fused
    current.sort(key=lambda b: (b.lo, b.hi))
    return tuple(current)


def ref_translation_reduce(E: BoxSet):
    """translation_reduce by cutting each box at every odd integer inside it, axis by axis."""
    fragments = []
    for box in E.boxes:
        pieces = [box]
        for k in range(E.dim):
            split = []
            for p in pieces:
                c = Fraction(p.lo[k].__floor__())
                c += 1 if c % 2 == 0 else 0
                c += 2 if c <= p.lo[k] else 0
                cuts = []
                while c < p.hi[k]:
                    cuts.append(c)
                    c += 2
                lo = p.lo[k]
                for cut in cuts + [p.hi[k]]:
                    split.append(
                        Box(
                            tuple(lo if i == k else p.lo[i] for i in range(p.dim)),
                            tuple(cut if i == k else p.hi[i] for i in range(p.dim)),
                        )
                    )
                    lo = cut
            pieces = split
        for p in pieces:
            fragments.append((p, tuple(-int((a + 1) // 2) for a in p.lo)))
    images = [frag.translate(tuple(Fraction(2 * s) for s in shift)) for frag, shift in fragments]
    overlap_pieces = []
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            c = images[i].intersect(images[j])
            if c is not None:
                overlap_pieces.append(c)
    overlap = normalize(E.dim, overlap_pieces)
    deficit = unit_cube(E.dim).subtract(normalize(E.dim, images))
    return fragments, overlap, deficit


# --- hypothesis strategies: diagonal matrices and candidate sets ----------

_ENTRIES = st.sampled_from([-3, -2, 2, 3])


def diagonal_matrices(dim: int):
    """Expansive diagonal matrices with entries of either sign."""

    def diag(d):
        return validate_dilation(
            [[x if i == k else 0 for k in range(dim)] for i, x in enumerate(d)]
        )

    return st.lists(_ENTRIES, min_size=dim, max_size=dim).map(diag)


def _shannon_like(a: Fraction) -> list[tuple[Fraction, Fraction]]:
    # [a, 2a) + [-2(2-a), -(2-a)): a wavelet set for dilation by 2 when 0 < a < 2
    b = 2 - a
    return [(a, 2 * a), (-2 * b, -b)]


@st.composite
def interval_sets(draw) -> BoxSet:
    """1-D sets: Shannon-like wavelet sets, shifted or stretched ones, and random unions."""
    kind = draw(st.sampled_from(["shannon", "shifted", "stretched", "random"]))
    a = draw(st.fractions(Fraction(1, 4), Fraction(7, 4), max_denominator=8))
    if kind == "random":
        ends = st.fractions(-4, 4, max_denominator=4)
        pairs = draw(
            st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), min_size=1, max_size=3)
        )
        return interval_set([(min(p), max(p)) for p in pairs])
    intervals = _shannon_like(a)
    if kind == "shifted":
        s = draw(st.fractions(-1, 1, max_denominator=4))
        intervals = [(lo + s, hi + s) for lo, hi in intervals]
    elif kind == "stretched":
        c = draw(st.fractions(Fraction(1, 2), 3, max_denominator=4))
        intervals = [(lo * c, hi * c) for lo, hi in intervals]
    return interval_set(intervals)


def box_sets(dim: int):
    """Sets of the given dimension (1 or 2); in 2-D, products, which overlap when a factor does."""
    if dim == 1:
        return interval_sets()
    return st.tuples(interval_sets(), interval_sets()).map(lambda p: product_set(*p))
