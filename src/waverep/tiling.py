"""Verification of the three wavelet-set conditions.

A candidate set E must (i) have pairwise disjoint dilates under the
frequency matrix, (ii) cover R^n by those dilates up to a null set, and
(iii) be translation congruent to the cube [-pi, pi)^n modulo 2*pi*Z^n.

(i) and (iii) are decided exactly on the box carrier.  (ii) is a limit
statement, so it is certified only on a finite sup-norm annulus with a
finite dilation range, and every report says so; for a diagonal matrix
its exact certificate is one cell pass over the annulus and all dilates
at once, not one set difference per dilate.  The dilates are formed on
one integer grid per axis (:func:`boxes.grid_dilate`), fine enough that
every end of every dilate in range is an exact integer, and only an
uncovered witness returns to ``Fraction`` ends.
When the frequency matrix is not diagonal the exact set arithmetic is
unavailable and (i)/(ii) downgrade to a seeded, reproducible sampling
check: one pass over the draws of the annulus decides both.  The pass
runs on NumPy blocks of draws, and its draws and images are
bit-identical to the per-index definition: draw i is keyed by (seed, i)
alone, and each image is rounded as :func:`b_transform` rounds it.  A
sampled condition that passes N uniform draws carries
``fail_fraction_bound = ln(1/alpha)/N`` with alpha = 0.05, the "rule of
three" (Hanley & Lippman-Hand, JAMA 1983): at confidence 1 - alpha it
fails on less than that fraction of the annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .boxes import Box, BoxSet, grid_difference, grid_dilate, grid_scales, grid_span, interval_set
from .errors import BadAnnulus, DimensionMismatch, ExactModeUnavailable
from .groups import DilationMatrix, RealPoint, b_transform
from .jsonio import boxset_json
from .spectral import meeting_gaps

__all__ = [
    "CheckResult",
    "TilingReport",
    "VerifyParams",
    "shannon_set",
    "check_dilation_disjoint",
    "check_dilation_cover",
    "check_translation_congruent",
    "verify_wavelet_set",
]

_M64 = (1 << 64) - 1
_ALPHA = 0.05  # a sampled pass's bound holds at confidence 1 - _ALPHA
_BLOCK = 4096  # draws per block of the sampled pass: bounds its memory, keeps its early stop


def _splitmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 on uint64 arrays (Steele, Lea & Flood, OOPSLA 2014); wraps mod 2^64."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass
class CheckResult:
    name: str
    passed: bool
    mode: str
    witness: Optional[dict] = None
    note: str = ""
    # a sampled pass: at confidence 1 - _ALPHA it fails on less than this fraction of the annulus
    fail_fraction_bound: Optional[float] = None

    def to_json(self) -> dict:
        """The fields, without an absent witness or an empty note."""
        return {k: v for k, v in vars(self).items() if v is not None and v != ""}


@dataclass
class VerifyParams:
    j_max: int = 8
    annulus: tuple[Fraction, Fraction] = (Fraction(1, 64), Fraction(64))
    samples: int = 100_000
    seed: int = 0
    mode: str = "auto"  # auto | exact | sampled

    def to_json(self) -> dict:
        return {**vars(self), "annulus": [str(r) for r in self.annulus]}

    def sampled(self, A: DilationMatrix) -> bool:
        """Whether (i) and (ii) are sampled: asked for, or A not diagonal (then exact mode fails)."""
        if self.mode == "exact" and not A.is_diagonal:
            raise ExactModeUnavailable("exact mode requested but the frequency matrix is not diagonal")
        return self.mode == "sampled" or not A.is_diagonal


@dataclass
class TilingReport:
    disjoint: CheckResult
    cover: CheckResult
    congruent: CheckResult
    measure_pi_units: Fraction
    params: VerifyParams
    verdict: bool = field(init=False)

    def __post_init__(self):
        self.verdict = (
            self.disjoint.passed and self.cover.passed and self.congruent.passed
        )

    def to_json(self) -> dict:
        return {
            "conditions": {
                "dilation_disjoint": self.disjoint.to_json(),
                "dilation_cover": self.cover.to_json(),
                "translation_congruent": self.congruent.to_json(),
            },
            "measure_pi_units": str(self.measure_pi_units),
            "params": self.params.to_json(),
            "verdict": (
                "wavelet set (at tested resolution)" if self.verdict else "not a wavelet set"
            ),
            "all_passed": self.verdict,
        }


def shannon_set() -> BoxSet:
    """The prototype set [-2*pi, -pi) + [pi, 2*pi) for dilation by 2."""
    return interval_set([(-2, -1), (1, 2)])


def _counter_uniforms(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Uniforms in [0, 1] for indices start, ..., start + count - 1, one row each.

    Entry (i - start, a) is keyed by (seed, i, 0, a): z = seed, then
    z = splitmix(z ^ key) for each key, and splitmix(z) / 2^64.  Counter
    based, so sampled verdicts are reproducible across runs, machines and
    blocks.
    """
    index = np.arange(start, start + count, dtype=np.uint64)
    key = _splitmix(_splitmix(np.uint64(seed & _M64) ^ index))
    u = np.stack([_splitmix(_splitmix(key ^ np.uint64(a))) for a in range(width)], axis=1)
    return u / 2.0**64


def _sample_annulus(
    dim: int, r_in: float, r_out: float, seed: int, start: int, count: int
) -> np.ndarray:
    """Draws start, ..., start + count - 1 of the sup-norm shell r_in <= |x|_inf <= r_out.

    Row i is a uniform point of the shell drawn directly: the volume
    inside sup-norm radius r grows as r^dim, so the radius is read off
    that law; the sphere of radius r is 2*dim faces of equal area, so a
    face is picked uniformly and the other axes are uniform on it.  Every
    draw is accepted, however thin the shell.  Uniforms 0..dim-1 of a
    draw are its coordinates, dim its radius and dim + 1 its face.  Each
    radius is raised to 1/dim by Python's ``**`` on its own float (NumPy's
    power rounds differently), so a row does not depend on its block.
    """
    u = _counter_uniforms(seed, start, count, dim + 2)
    q = (r_in / r_out) ** dim  # scaled by r_out, so no power overflows
    base = q + u[:, dim] * (1.0 - q)
    e = 1.0 / dim
    r = r_out * np.array([b**e for b in base.tolist()])
    r = np.minimum(np.maximum(r, r_in), r_out)
    face = (u[:, dim + 1] * 2 * dim).astype(np.int64) % (2 * dim)
    coords = (2.0 * u[:, :dim] - 1.0) * r[:, None]
    coords[np.arange(count), face // 2] = np.where(face % 2 == 1, r, -r)
    return coords


def _shell(annulus: tuple[Fraction, Fraction], j_max: int) -> tuple[Fraction, Fraction, str]:
    """The radii of the annulus and the note that bounds a cover certificate to it."""
    r_in, r_out = Fraction(annulus[0]), Fraction(annulus[1])
    if r_in <= 0 or r_out <= r_in:
        raise BadAnnulus(f"need 0 < r_in < r_out, got ({r_in}, {r_out})")
    note = f"certified on sup-norm annulus [{r_in}*pi, {r_out}*pi] with |j| <= {j_max} only"
    return r_in, r_out, note


def _map_rows(A: DilationMatrix, k: int, xs: np.ndarray) -> np.ndarray:
    """B^k applied to every row of xs, rounded as :func:`b_transform` rounds a point.

    With A^k = P / d, coordinate i is sum_j P_ji x_j summed left to right,
    then divided by d when d != 1: the same float operations in the same
    order, and no matrix product, whose summation order may differ.
    """
    p, d = A.power(k)
    out = np.empty_like(xs)
    for i in range(A.n):
        acc = float(p[0][i]) * xs[:, 0]
        for j in range(1, A.n):
            acc = acc + float(p[j][i]) * xs[:, j]
        out[:, i] = acc if d == 1 else acc / float(d)
    return out


def _levels(E: BoxSet, A: DilationMatrix, xi: RealPoint, j_max: int) -> list[int]:
    """The levels j, |j| <= j_max, with B^-j xi in E, point by point.

    A reported witness takes its levels from here, so it can be checked
    without the block arithmetic that found it.
    """
    return [j for j in range(-j_max, j_max + 1) if E.contains(b_transform(A, xi, -j))]


def _sampled_checks(E: BoxSet, A: DilationMatrix, p: VerifyParams) -> tuple[CheckResult, ...]:
    """(i) and (ii) from one scan over the seeded draws of the annulus: the first draw
    with two or more levels j (B^-j xi in E, |j| <= j_max) fails (i), the first with none (ii).

    The scan runs on blocks of draws: every level maps a whole block at
    once and marks its rows in E, and it stops after the block in which
    both conditions have their witness.  Images that overflow to inf or
    NaN lie in no box and raise no warning.
    """
    if E.dim != A.n:
        raise DimensionMismatch("point and matrix dimensions differ")
    r_in, r_out, cover_note = _shell(p.annulus, p.j_max)
    radii = float(r_in) * math.pi, float(r_out) * math.pi
    note = "sampled mode (non-diagonal frequency matrix)" if p.mode == "auto" else ""
    disjoint = check_dilation_disjoint(E, A) if E.is_empty else None
    cover = None
    levels = range(-p.j_max, p.j_max + 1)
    for start in range(0, p.samples, _BLOCK):
        with np.errstate(all="ignore"):
            xs = _sample_annulus(E.dim, *radii, p.seed, start, min(_BLOCK, p.samples - start))
            counts = sum(E.contains_rows(_map_rows(A, -j, xs)).astype(int) for j in levels)
        if disjoint is None and (overlaps := np.flatnonzero(counts >= 2)).size:
            xi = RealPoint.from_floats(xs[overlaps[0]].tolist())
            witness = {"point": list(xi.coords), "levels": _levels(E, A, xi, p.j_max)}
            disjoint = CheckResult("dilation_disjoint", False, "sampled", witness, note)
        if cover is None and (gaps := np.flatnonzero(counts == 0)).size:
            witness = {"point": xs[gaps[0]].tolist()}
            cover = CheckResult("dilation_cover", False, "sampled", witness, cover_note)
        if disjoint is not None and cover is not None:
            break
    bound = math.log(1 / _ALPHA) / p.samples
    disjoint = disjoint or CheckResult("dilation_disjoint", True, "sampled", None, note, bound)
    cover = cover or CheckResult("dilation_cover", True, "sampled", None, cover_note, bound)
    return disjoint, cover


def check_dilation_disjoint(E: BoxSet, A: DilationMatrix, **params) -> CheckResult:
    """Condition (i): dilates of E in the range |j| <= j_max are pairwise disjoint.

    ``params`` are the fields of :class:`VerifyParams`, with its defaults.
    """
    name = "dilation_disjoint"
    p = VerifyParams(**params)
    if E.is_empty:
        return CheckResult(name, True, "exact", note="empty set, vacuous")
    if p.sampled(A):
        return _sampled_checks(E, A, p)[0]
    # a pair overlaps by its gap d = k - j alone, so the first overlapping
    # pair in (j, k) order is (-j_max, -j_max + d) for the least meeting gap d
    if gaps := meeting_gaps(E, A, 1, 2 * p.j_max):
        j, k = -p.j_max, -p.j_max + gaps[0]
        inter = E.dilate(A, j).intersect(E.dilate(A, k))
        return CheckResult(
            name,
            False,
            "exact",
            witness={"j": j, "k": k, "intersection": boxset_json(inter)},
        )
    return CheckResult(name, True, "exact")


def check_dilation_cover(E: BoxSet, A: DilationMatrix, **params) -> CheckResult:
    """Condition (ii) on a finite annulus: the dilates cover every tested point.

    ``params`` are the fields of :class:`VerifyParams`, with its defaults.
    The full condition is a statement about all of R^n; the certificate
    here only covers the sup-norm annulus [r_in, r_out] with |j| <= j_max
    and the report says exactly that.  On the exact path the uncovered part
    is one cell pass (:func:`boxes.grid_difference`): the outer box minus
    the inner box and every box of every dilate that reaches outside the
    inner box, each clipped to the outer box, all on one integer grid per
    axis.
    """
    name = "dilation_cover"
    p = VerifyParams(**params)
    r_in, r_out, note = _shell(p.annulus, p.j_max)
    if p.sampled(A):
        return _sampled_checks(E, A, p)[1]
    dim = E.dim
    outer = Box((-r_out,) * dim, (r_out,) * dim)
    inner = Box((-r_in,) * dim, (r_in,) * dim)
    if E.boxes and A.n != dim:
        raise DimensionMismatch("matrix dimension mismatch")
    # axis k's grid carries every denominator on that axis and |a_kk|^j_max, so each
    # end of each dilate B^j E, |j| <= j_max, is an exact integer on it
    reach = [abs(A.entries[k][k]) ** p.j_max for k in range(dim)] if E.boxes else [1] * dim
    scales = [s * r for s, r in zip(grid_scales(dim, (outer, inner, *E.boxes)), reach)]
    spans = [grid_span(b, scales) for b in E.boxes]
    lo, hi = grid_span(inner, scales)
    dilates = (grid_dilate(A, s, j) for j in range(-p.j_max, p.j_max + 1) for s in spans)
    # a dilate inside the inner box cuts nothing that the box does not, and would only refine the grid
    reaching = (d for d in dilates if any(map(int.__lt__, d[0], lo)) or any(map(int.__gt__, d[1], hi)))
    remaining = grid_difference(scales, [grid_span(outer, scales)], [(lo, hi), *reaching])
    if remaining.is_empty:
        return CheckResult(name, True, "exact", note=note)
    return CheckResult(
        name,
        False,
        "exact",
        witness={"uncovered": boxset_json(remaining)},
        note=note,
    )


def check_translation_congruent(E: BoxSet) -> CheckResult:
    """Condition (iii): exact for every box set."""
    name = "translation_congruent"
    fragments, overlap, deficit = E.translation_reduce()
    if overlap.is_empty and deficit.is_empty:
        return CheckResult(name, True, "exact")
    return CheckResult(
        name,
        False,
        "exact",
        witness={
            "overlap": boxset_json(overlap),
            "deficit": boxset_json(deficit),
            "fragments": len(fragments),
        },
    )


def verify_wavelet_set(
    E: BoxSet, A: DilationMatrix, params: VerifyParams | None = None
) -> TilingReport:
    """Run all three conditions and aggregate the verdict.

    With (i) and (ii) holding, the normalized indicator of E transforms
    to a wavelet exactly when (iii) holds, so the combined verdict is
    the wavelet-set certificate at the tested resolution.
    """
    p = params or VerifyParams()
    if p.sampled(A):
        disjoint, cover = _sampled_checks(E, A, p)
    else:
        disjoint = check_dilation_disjoint(E, A, **vars(p))
        cover = check_dilation_cover(E, A, **vars(p))
    congruent = check_translation_congruent(E)
    report = TilingReport(
        disjoint=disjoint,
        cover=cover,
        congruent=congruent,
        measure_pi_units=E.measure(),
        params=p,
    )
    return report
