"""Verification of the three wavelet-set conditions.

A candidate set E must (i) have pairwise disjoint dilates under the
frequency matrix, (ii) cover R^n by those dilates up to a null set, and
(iii) be translation congruent to the cube [-pi, pi)^n modulo 2*pi*Z^n.

(i) and (iii) are decided exactly on the box carrier.  (ii) is a limit
statement, so it is certified only on a finite sup-norm annulus with a
finite dilation range, and every report says so.  When the frequency
matrix is not diagonal the exact set arithmetic is unavailable and
(i)/(ii) downgrade to a seeded, reproducible sampling check: one pass
over the draws of the annulus decides both.  A sampled condition that
passes N uniform draws carries ``fail_fraction_bound = ln(1/alpha)/N``
with alpha = 0.05, the "rule of three" (Hanley & Lippman-Hand, JAMA
1983): at confidence 1 - alpha it fails on less than that fraction of
the annulus.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from .boxes import Box, BoxSet, interval_set
from .errors import BadAnnulus
from .groups import DilationMatrix, RealPoint, b_transform
from .jsonio import boxset_json

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


def _splitmix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def counter_uniform(seed: int, *indices: int) -> float:
    """Deterministic uniform in [0, 1) keyed by (seed, indices).

    Counter based, so sampled verdicts are reproducible across runs,
    machines and shard orders.
    """
    z = seed & _M64
    for idx in indices:
        z = _splitmix(z ^ (idx & _M64))
    return _splitmix(z) / float(1 << 64)


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
        return {k: v for k, v in asdict(self).items() if v is not None and v != ""}


@dataclass
class VerifyParams:
    j_max: int = 8
    annulus: tuple[Fraction, Fraction] = (Fraction(1, 64), Fraction(64))
    samples: int = 100_000
    seed: int = 0
    mode: str = "auto"  # auto | exact | sampled

    def to_json(self) -> dict:
        return {**asdict(self), "annulus": [str(r) for r in self.annulus]}


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


def _sample_annulus(dim: int, r_in: float, r_out: float, seed: int, index: int) -> RealPoint:
    """Uniform point of the sup-norm shell r_in <= |x|_inf <= r_out, drawn directly.

    The volume inside sup-norm radius r grows as r^dim, so the radius is
    read off that law; the sphere of radius r is 2*dim faces of equal
    area, so a face is picked uniformly and the other axes are uniform
    on it.  Every draw is accepted, however thin the shell.
    """
    u = [counter_uniform(seed, index, 0, axis) for axis in range(dim + 2)]
    q = (r_in / r_out) ** dim  # scaled by r_out, so no power overflows
    r = r_out * (q + u[dim] * (1.0 - q)) ** (1.0 / dim)
    r = min(max(r, r_in), r_out)
    face = int(u[dim + 1] * 2 * dim) % (2 * dim)
    coords = [(2.0 * u[axis] - 1.0) * r for axis in range(dim)]
    coords[face // 2] = r if face % 2 else -r
    return RealPoint.from_floats(coords)


def _shell(annulus: tuple[Fraction, Fraction], j_max: int) -> tuple[Fraction, Fraction, str]:
    """The radii of the annulus and the note that bounds a cover certificate to it."""
    r_in, r_out = Fraction(annulus[0]), Fraction(annulus[1])
    if r_in <= 0 or r_out <= r_in:
        raise BadAnnulus(f"need 0 < r_in < r_out, got ({r_in}, {r_out})")
    note = f"certified on sup-norm annulus [{r_in}*pi, {r_out}*pi] with |j| <= {j_max} only"
    return r_in, r_out, note


def _sampled_checks(E: BoxSet, A: DilationMatrix, p: VerifyParams) -> tuple[CheckResult, ...]:
    """(i) and (ii) from one scan over the seeded draws of the annulus: the first draw
    with two or more levels j (B^-j xi in E, |j| <= j_max) fails (i), the first with none (ii).
    """
    if p.mode == "exact":
        raise ValueError("exact mode requested but the frequency matrix is not diagonal")
    r_in, r_out, cover_note = _shell(p.annulus, p.j_max)
    radii = float(r_in) * math.pi, float(r_out) * math.pi
    note = "sampled mode (non-diagonal frequency matrix)" if p.mode == "auto" else ""
    disjoint = check_dilation_disjoint(E, A) if E.is_empty else None
    cover = None
    for i in range(p.samples):
        xi = _sample_annulus(E.dim, *radii, p.seed, i)
        # lazy, so that once (i) has failed only the first level is computed
        hits = (j for j in range(-p.j_max, p.j_max + 1) if E.contains(b_transform(A, xi, -j)))
        if disjoint is None:
            hits = list(hits)
            if len(hits) >= 2:
                witness = {"point": list(xi.coords), "levels": hits}
                disjoint = CheckResult("dilation_disjoint", False, "sampled", witness, note)
        if cover is None and next(iter(hits), None) is None:
            witness = {"point": list(xi.coords)}
            cover = CheckResult("dilation_cover", False, "sampled", witness, cover_note)
        if disjoint is not None and cover is not None:
            break
    bound = math.log(1 / _ALPHA) / p.samples
    disjoint = disjoint or CheckResult("dilation_disjoint", True, "sampled", None, note, bound)
    cover = cover or CheckResult("dilation_cover", True, "sampled", None, cover_note, bound)
    return disjoint, cover


def check_dilation_disjoint(
    E: BoxSet,
    A: DilationMatrix,
    j_max: int = 8,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 0,
    annulus: tuple[Fraction, Fraction] = (Fraction(1, 64), Fraction(64)),
) -> CheckResult:
    """Condition (i): dilates of E in the range |j| <= j_max are pairwise disjoint."""
    name = "dilation_disjoint"
    if E.is_empty:
        return CheckResult(name, True, "exact", note="empty set, vacuous")
    if mode == "sampled" or not A.is_diagonal:
        return _sampled_checks(E, A, VerifyParams(j_max, annulus, samples, seed, mode))[0]
    # B^j E meets B^k E iff E meets B^(k-j) E, so only the gap d = k - j
    # matters; the first pair in (j, k) order is (-j_max, -j_max + d_min)
    for d in range(1, 2 * j_max + 1):
        if E.meets(E.dilate(A, d)):
            j, k = -j_max, -j_max + d
            inter = E.dilate(A, j).intersect(E.dilate(A, k))
            return CheckResult(
                name,
                False,
                "exact",
                witness={"j": j, "k": k, "intersection": boxset_json(inter)},
            )
    return CheckResult(name, True, "exact")


def check_dilation_cover(
    E: BoxSet,
    A: DilationMatrix,
    annulus: tuple[Fraction, Fraction] = (Fraction(1, 64), Fraction(64)),
    j_max: int = 8,
    samples: int = 10_000,
    seed: int = 0,
    mode: str = "auto",
) -> CheckResult:
    """Condition (ii) on a finite annulus: the dilates cover every tested point.

    The full condition is a statement about all of R^n; the certificate
    here only covers the sup-norm annulus [r_in, r_out] with |j| <= j_max
    and the report says exactly that.
    """
    name = "dilation_cover"
    r_in, r_out, note = _shell(annulus, j_max)
    if mode == "sampled" or not A.is_diagonal:
        return _sampled_checks(E, A, VerifyParams(j_max, annulus, samples, seed, mode))[1]
    dim = E.dim
    outer = BoxSet(dim, (Box((-r_out,) * dim, (r_out,) * dim),))
    inner = BoxSet(dim, (Box((-r_in,) * dim, (r_in,) * dim),))
    remaining = outer.subtract(inner)
    for j in range(-j_max, j_max + 1):
        if remaining.is_empty:
            break
        remaining = remaining.subtract(E.dilate(A, j))
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
    if p.mode != "sampled" and A.is_diagonal:
        disjoint = check_dilation_disjoint(E, A, j_max=p.j_max, mode=p.mode)
        cover = check_dilation_cover(E, A, annulus=p.annulus, j_max=p.j_max, mode=p.mode)
    else:
        disjoint, cover = _sampled_checks(E, A, p)
    congruent = check_translation_congruent(E)
    report = TilingReport(
        disjoint=disjoint,
        cover=cover,
        congruent=congruent,
        measure_pi_units=E.measure(),
        params=p,
    )
    return report
