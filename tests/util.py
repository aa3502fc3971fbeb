"""Shared random generators for the test suite (seeded, deterministic)."""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import io
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from waverep import cli
from waverep.boxes import Box, BoxSet, interval_set, product_set, unit_cube
from waverep.errors import AmbiguousScale, InputError, NotCovered, NotExpansive, SingularMatrix, ZeroFunction
from waverep.funcs import _THIN, LayerFunction, ModulatedBoxSum, Term
from waverep.gram import GramSpec
from waverep.groups import (
    AdicVector,
    DilationMatrix,
    GroupElement,
    RealPoint,
    b_transform,
    character_value,
    validate_dilation,
)
from waverep.jsonio import boxset_json
from waverep.linalg import mat_mul, mat_pow, mat_vec, transpose
from waverep.spectral import meeting_gaps
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


def ref_box_dilate(box: Box, A: DilationMatrix, j: int) -> Box:
    """B^j box for diagonal A in Fraction arithmetic: axis k scaled by p_kk / d, (p, d) = A.power(j)."""
    p, d = A.power(j)
    lo, hi = [], []
    for k, (a, b) in enumerate(zip(box.lo, box.hi)):
        s = Fraction(p[k][k], d)
        lo.append(min(s * a, s * b))
        hi.append(max(s * a, s * b))
    return Box(tuple(lo), tuple(hi))


# --- brute-force references for the group-structure shortcuts -------------


def ref_axis_integral(a: Fraction, b: Fraction, theta: Fraction) -> complex:
    """The integral of e^{-i theta t} over [a pi, b pi] in Fraction arithmetic: the endpoint phase
    difference over -i theta, or the sine form below ``_THIN``, with ref_phase_exp's phases."""
    if theta == 0:
        return complex(float(b - a) * math.pi)
    gap = ref_phase_exp(-theta * b) - ref_phase_exp(-theta * a)
    if abs(gap) < 4 * _THIN:
        width = float(theta * (b - a))
        if abs(width) < _THIN:
            return 2 * math.sin(width * math.pi / 2) / float(theta) * ref_phase_exp(-theta * (a + b) / 2)
    return gap / complex(0, -float(theta))


def ref_pairing(pairs, shift=None) -> complex:
    """The sum over term pairs of coef * prod_k ref_axis_integral at the Fraction phase + num / den."""
    total = 0j
    for pair in pairs:
        prod = complex(1.0)
        for k, p in enumerate(pair.phase):
            theta = p if shift is None else p + Fraction(*shift[k])
            prod *= ref_axis_integral(pair.box.lo[k], pair.box.hi[k], theta)
            if prod == 0:
                break
        total += pair.coef * prod
    return total


def ref_inner(f: ModulatedBoxSum, g: ModulatedBoxSum) -> complex:
    """<f, g> by one loop over the term pairs, each phase taken from the two modulations."""
    total = 0j
    for s in f.terms:
        sv = s.beta.values()
        for t in g.terms:
            common = s.box.intersect(t.box)
            if common is None:
                continue
            tv = t.beta.values()
            prod = complex(1.0)
            for k in range(f.dim):
                prod *= ref_axis_integral(common.lo[k], common.hi[k], sv[k] - tv[k])
                if prod == 0:
                    break
            total += s.coef * t.coef.conjugate() * prod
    return total


def ref_gram_closed_form(spec: GramSpec) -> np.ndarray:
    """Closed-form Gram matrix by evaluating all k^2 / 2 pairings, one basis vector per label."""
    labels = spec.labels()
    base = ModulatedBoxSum.indicator(spec.A, spec.E)
    vectors = [base.modulated(AdicVector.of(spec.A, v)).dilated(m) for m, v in labels]
    norm_sqs = [ref_inner(b, b).real for b in vectors]
    norms = [math.sqrt(s) for s in norm_sqs]
    k = len(labels)
    matrix = np.zeros((k, k), dtype=complex)
    for i in range(k):
        matrix[i, i] = norm_sqs[i] / norm_sqs[i]
        for j in range(i + 1, k):
            val = ref_inner(vectors[i], vectors[j]) / (norms[i] * norms[j])
            matrix[i, j] = val
            matrix[j, i] = val.conjugate()
    return matrix


def ref_gram_keyed(spec: GramSpec) -> np.ndarray:
    """Closed-form Gram matrix with one pairing per key (m, m', A^M w), the modulated D^m 1_E with D^m' 1_E.

    The per-key evaluation that the term pairs per scale pair replace:
    each key modulates D^m 1_E and pairs it with D^m' 1_E from scratch.
    """
    A, labels = spec.A, spec.labels()
    base = ModulatedBoxSum.indicator(A, spec.E)
    dilates = {m: base.dilated(m) for m in range(-spec.m_max, spec.m_max + 1)}
    norm_sqs = {m: ref_inner(f, f).real for m, f in dilates.items()}
    norms = {m: math.sqrt(x) for m, x in norm_sqs.items()}
    gaps = set(meeting_gaps(spec.E, A, -2 * spec.m_max, 2 * spec.m_max))
    lifts = [[mat_vec(A.power(e)[0], v) for e in range(2 * spec.m_max + 1)] for _, v in labels]
    entries: dict = {}
    k = len(labels)
    matrix = np.zeros((k, k), dtype=complex)
    for i, (m, _) in enumerate(labels):
        matrix[i, i] = norm_sqs[m] / norm_sqs[m]
        for j in range(i + 1, k):
            mp = labels[j][0]
            top = max(m, mp)
            w = None
            if mp - m in gaps:
                w = tuple(a - b for a, b in zip(lifts[i][top - m], lifts[j][top - mp]))
            val = entries.get((m, mp, w))
            if val is None:
                inner = 0j
                if w is not None:
                    beta = AdicVector(A, w, 0).twist(top)
                    inner = ref_inner(dilates[m].modulated(beta), dilates[mp])
                val = entries[m, mp, w] = inner / (norms[m] * norms[mp])
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


def ref_gram_sampled_per_label(spec: GramSpec) -> np.ndarray:
    """Quadrature Gram matrix with every label sampled on its own, as before the per-scale samples.

    Each label forms B^-m of the grid, the mask of E and the weight again;
    the columns are the same row products V conj(v_j).
    """
    n = spec.A.n
    det = float(spec.A.det_abs)

    def sample(m, v, pts):
        p, d = spec.A.power(-m)
        ys = pts @ (np.array(p, dtype=float) / d)
        inside = spec.E.contains_rows(ys)
        phase = np.exp(-1j * (ys @ np.asarray(v, dtype=float)))
        return det ** (-m / 2.0) * inside * phase

    r_max = max(
        abs(float(x)) for box in spec.E.boxes for x in (*box.lo, *box.hi)
    ) * math.pi * det ** spec.m_max
    per_axis = max(8, int(round(4096 ** (1 / n))))
    axes = [-r_max + 2 * r_max * (np.arange(per_axis) + 0.5) / per_axis for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vol = (2 * r_max / per_axis) ** n
    labels = spec.labels()
    vals = np.empty((len(labels), len(pts)), dtype=complex)
    for i, (m, v) in enumerate(labels):
        vals[i] = sample(m, v, pts)
    mu = float(spec.E.measure()) * math.pi**n
    return np.array([vals @ row.conj() for row in vals]).T * vol / mu


def ref_completeness_defect(E: BoxSet, A: DilationMatrix, f: ModulatedBoxSum, m_max: int, v_max: int):
    """The completeness defect by one pairing of f with each modulated dilate, label by label."""
    spec = GramSpec(E, A, m_max, v_max)
    base = ModulatedBoxSum.indicator(A, E)
    dilates = {m: base.dilated(m) for m in range(-m_max, m_max + 1)}
    norm_sqs = {m: g.inner(g).real for m, g in dilates.items()}
    total = f.norm_sq()
    captured = 0.0
    for m, v in spec.labels():
        b = dilates[m].modulated(AdicVector.of(A, v).twist(m))
        coef = f.inner(b) / math.sqrt(norm_sqs[m])
        captured += abs(coef) ** 2
    return total - captured


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


def ref_minus(box: Box, cutter: Box) -> list[Box]:
    """box minus cutter as disjoint boxes, peeled off axis by axis."""
    if box.intersect(cutter) is None:
        return [box]
    pieces = []
    lo, hi = list(box.lo), list(box.hi)
    for k in range(box.dim):
        if lo[k] < cutter.lo[k]:
            pieces.append(Box(tuple(lo), tuple(hi[:k]) + (cutter.lo[k],) + tuple(hi[k + 1 :])))
            lo[k] = cutter.lo[k]
        if cutter.hi[k] < hi[k]:
            pieces.append(Box(tuple(lo[:k]) + (cutter.hi[k],) + tuple(lo[k + 1 :]), tuple(hi)))
            hi[k] = cutter.hi[k]
    return pieces


def ref_subtract(S: BoxSet, T: BoxSet) -> BoxSet:
    """S minus T by cutting every piece with each box of T in turn, then the Fraction-grid canonical form."""
    pieces = list(S.boxes)
    for cutter in T.boxes:
        pieces = [p for b in pieces for p in ref_minus(b, cutter)]
    return BoxSet(S.dim, ref_normalize(S.dim, pieces))


def ref_dilation_cover(E: BoxSet, A: DilationMatrix, annulus, j_max: int) -> dict | None:
    """Exact condition (ii): the annulus minus one dilate at a time; the uncovered witness or None."""
    r_in, r_out = annulus
    dim = E.dim
    outer = BoxSet(dim, (Box((-r_out,) * dim, (r_out,) * dim),))
    inner = BoxSet(dim, (Box((-r_in,) * dim, (r_in,) * dim),))
    remaining = ref_subtract(outer, inner)
    for j in range(-j_max, j_max + 1):
        if remaining.is_empty:
            break
        remaining = ref_subtract(remaining, E.dilate(A, j))
    return None if remaining.is_empty else {"uncovered": boxset_json(remaining)}


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
    overlap = BoxSet(E.dim, ref_normalize(E.dim, overlap_pieces))
    deficit = ref_subtract(unit_cube(E.dim), BoxSet(E.dim, ref_normalize(E.dim, images)))
    return fragments, overlap, deficit


# --- per-k references for the operator tables ------------------------------


_QUARTER_TURNS = {
    Fraction(0): complex(1, 0),
    Fraction(1, 2): complex(0, 1),
    Fraction(1): complex(-1, 0),
    Fraction(3, 2): complex(0, -1),
}


def ref_phase_exp(t: Fraction) -> complex:
    """e^{i pi t} from the Fraction r = t mod 2: exact at quarter turns, else exp(i pi float(r))."""
    r = t % 2
    if r in _QUARTER_TURNS:
        return _QUARTER_TURNS[r]
    return cmath.exp(1j * math.pi * float(r))


def ref_fiber_phases(x: RealPoint, g: GroupElement, K: int) -> dict[int, complex]:
    """The fiber phase table one k at a time: e^{-i<x, A^k beta>} from A^k beta = beta.twist(-k).

    Each character is evaluated from the exact rational vector ``values()``:
    on an exact point the Fraction sum <x, A^k beta> goes to ref_phase_exp,
    on a float point each coordinate is rounded by ``float(Fraction)`` and
    the products are summed left to right from integer 0.
    """
    phases = {}
    for k in range(-K, K + 1):
        vals = g.beta.twist(-k).values()
        if x.pi_coords is not None:
            t = sum((xf * bf for xf, bf in zip(x.pi_coords, vals)), Fraction(0))
            phases[k] = ref_phase_exp(-t)
        else:
            dot = 0
            for xc, bf in zip(x.coords, vals):
                dot += xc * float(bf)
            phases[k] = cmath.exp(-1j * dot)
    return phases


def ref_induced_phases(x: RealPoint, g: GroupElement, K: int) -> dict[int, complex]:
    """The induced phase table evaluated at each k: e^{-i<x, A^{-k} beta>}, k in [-K, K]."""
    return {k: character_value(x, g.beta.twist(k)) for k in range(-K, K + 1)}


def ref_project_point(xi: RealPoint, E: BoxSet, A: DilationMatrix, max_iter: int = 64):
    """project_point by the outward scan over |p| <= max_iter, stopped on the sup norm.

    On a diagonal matrix each side stops once B^p xi leaves the bounding
    annulus of E: above r_max for p > 0, below r_min for p < 0.
    """
    r_min, r_max = E.bounding_radii()
    hits = []
    pos_alive = neg_alive = True
    for step in range(0, max_iter + 1):
        for p in [step] if step == 0 else [-step, step]:
            if (p > 0 and not pos_alive) or (p < 0 and not neg_alive):
                continue
            y = b_transform(A, xi, p)
            if E.contains(y):
                hits.append((p, y))
                if len(hits) == 2:
                    raise AmbiguousScale(
                        f"scales {hits[0][0]} and {hits[1][0]} both resolve the point",
                        [h[0] for h in hits],
                    )
            if A.is_diagonal and not E.is_empty:
                if y.pi_coords is not None:
                    norm = max(abs(c) for c in y.pi_coords)
                else:
                    norm = max(abs(c) for c in y.coords) / math.pi
                if p > 0 and norm > r_max:
                    pos_alive = False
                if p < 0 and norm < r_min:
                    neg_alive = False
        if not pos_alive and not neg_alive:
            break
    if not hits:
        raise NotCovered(f"no scale in [-{max_iter}, {max_iter}] lands in the set")
    p, y = hits[0]
    return y, p


def ref_layer_span(f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix, cap: int = 48):
    """The window of f by testing every dilate B^k E, |k| <= cap; (0, 0) when f meets none."""
    ks = []
    for k in range(-cap, cap + 1):
        dil = E.dilate(A, k)
        if any(t.box.intersect(piece) is not None for t in f.terms for piece in dil.boxes):
            ks.append(k)
    if not ks:
        return 0, 0
    return min(ks), max(ks)


def ref_window(f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix, k_min, k_max):
    """The window with each missing (None) end taken from ref_layer_span."""
    span = ref_layer_span(f, E, A)
    return (span[0] if k_min is None else k_min), (span[1] if k_max is None else k_max)


def ref_layer_terms(f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix, k_min: int, k_max: int):
    """The layers of to_layers as term tuples, each piece B^{-k}(box) ∩ E met in its own loop."""
    det = A.det_abs
    layers = {}
    for k in range(k_min, k_max + 1):
        scale = float(det) ** (k / 2.0)
        pieces = []
        for t in f.terms:
            moved = t.box.dilate(A, -k)
            for eb in E.boxes:
                c = moved.intersect(eb)
                if c is not None:
                    pieces.append(Term(t.coef * scale, t.beta.twist(-k), c))
        if pieces:
            layers[k] = tuple(pieces)
    return layers


def ref_isometry_defect(f: ModulatedBoxSum, E: BoxSet, A: DilationMatrix, k_min: int, k_max: int):
    """isometry_defect, with the covered volume summed piece by piece per k."""
    if not f.terms:
        raise ZeroFunction("isometry defect of the zero function")
    disjoint = all(s.box.intersect(t.box) is None for s, t in itertools.combinations(f.terms, 2))
    if all(t.beta.is_zero for t in f.terms) and disjoint:
        det = Fraction(A.det_abs)
        pin = math.pi**A.n
        total = mapped = 0.0
        for t in f.terms:
            w = abs(t.coef) ** 2
            covered = Fraction(0)
            for k in range(k_min, k_max + 1):
                moved = t.box.dilate(A, -k)
                pieces = (moved.intersect(eb) for eb in E.boxes)
                covered += det**k * sum(c.volume() for c in pieces if c is not None)
            total += w * (float(t.box.volume()) * pin)
            mapped += w * (float(covered) * pin)
        return abs(mapped - total) / total
    pieces = ref_layer_terms(f, E, A, k_min, k_max)
    layers = {k: ModulatedBoxSum(A, terms) for k, terms in pieces.items()}
    norm = f.norm_sq()
    return abs(LayerFunction(A, k_min, k_max, layers).norm_sq() - norm) / norm


def float_bits(z: complex | float) -> tuple[str, str]:
    """The bits of a float or complex, zero signs included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def terms_bits(layers: dict[int, tuple[Term, ...]]) -> dict:
    """Layer terms with each coefficient replaced by its bits."""
    return {k: [(float_bits(t.coef), t.beta, t.box) for t in terms] for k, terms in layers.items()}


# --- argparse as the reference reader of the CLI option table ------------


class _ArgparseParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise InputError(message)


def _argparse_type(convert):
    """The table's converter with its own rejection as argparse's ArgumentTypeError."""

    def typed(text: str):
        try:
            return convert(text)
        except cli._Rejected as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    typed.__name__ = convert.__name__  # names the type in the "invalid ... value" message
    return typed


@functools.cache
def _argparse_reader() -> argparse.ArgumentParser:
    """The options of ``cli._COMMANDS`` in an argparse parser, built as the CLI built it before."""
    parser = _ArgparseParser(prog="waverep")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in cli._COMMANDS.items():
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group(required=True) if spec.exclusive else None
        for o in spec.options:
            owner = group if o.flag in spec.exclusive else p
            given = {"required": True} if o.default is cli._REQUIRED else {"default": o.default}
            owner.add_argument(o.flag, type=_argparse_type(o.convert), choices=o.choices, **given)
    return parser


def ref_parse(argv: list[str]) -> tuple:
    """argparse's reading of argv: ("ok", values), ("help", command or None) or ("error", text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "ok", vars(_argparse_reader().parse_args(argv))
    except SystemExit:
        command = out.getvalue().split()[2]  # "usage: waverep [-h]" or "usage: waverep rep [-h]"
        return "help", command if command in cli._COMMANDS else None
    except InputError as exc:
        return "error", str(exc)


# --- hypothesis strategies: diagonal matrices and candidate sets ----------

_ENTRIES = st.sampled_from([-3, -2, 2, 3])


@st.composite
def expansive(draw):
    """A random expansive integer matrix with n in 1..3.

    A random small matrix is kept when it certifies; otherwise a
    triangular matrix with diagonal entries of modulus >= 2 is conjugated
    by a unimodular shear, which keeps it integral, expansive and
    (usually) non-diagonal.  Both branches reach negative determinants.
    """
    n = draw(st.integers(1, 3))
    raw = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    try:
        return validate_dilation(raw)
    except (NotExpansive, SingularMatrix):
        pass
    diag = [draw(st.sampled_from([-3, -2, 2, 3])) for _ in range(n)]
    t = [
        [diag[i] if i == j else draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    if n > 1:
        p, q = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        # the shear I + c e_p e_q^T has inverse I - c e_p e_q^T
        shear = [[int(i == j) + c * ((i, j) == (p, q)) for j in range(n)] for i in range(n)]
        unshear = [[int(i == j) - c * ((i, j) == (p, q)) for j in range(n)] for i in range(n)]
        t = mat_mul(mat_mul(shear, t), unshear)
    return validate_dilation(t)


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
