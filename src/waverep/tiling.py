"""Verification of the three wavelet-set conditions.

A candidate set E must (i) have pairwise disjoint dilates under the
frequency matrix, (ii) cover R^n by those dilates up to a null set, and
(iii) be translation congruent to the cube [-pi, pi)^n modulo 2*pi*Z^n.

(i) and (iii) are decided exactly on the box carrier.  (ii) is a limit
statement, so it is certified only on a finite sup-norm annulus with a
finite dilation range, and every report says so.  When the frequency
matrix is not diagonal the exact set arithmetic is unavailable and
(i)/(ii) downgrade to a seeded, reproducible sampling check.
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
    if mode != "sampled" and A.is_diagonal:
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
    if mode == "exact":
        raise ValueError("exact mode requested but the frequency matrix is not diagonal")
    note = "sampled mode (non-diagonal frequency matrix)" if mode == "auto" else ""
    r_in, r_out = float(annulus[0]) * math.pi, float(annulus[1]) * math.pi
    for i in range(samples):
        xi = _sample_annulus(E.dim, r_in, r_out, seed, i)
        hits = [
            j
            for j in range(-j_max, j_max + 1)
            if E.contains(b_transform(A, xi, -j))
        ]
        if len(hits) >= 2:
            return CheckResult(
                name,
                False,
                "sampled",
                witness={"point": list(xi.coords), "levels": hits},
                note=note,
            )
    return CheckResult(name, True, "sampled", note=note)


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
    r_in, r_out = Fraction(annulus[0]), Fraction(annulus[1])
    if r_in <= 0 or r_out <= r_in:
        raise BadAnnulus(f"need 0 < r_in < r_out, got ({r_in}, {r_out})")
    note = f"certified on sup-norm annulus [{r_in}*pi, {r_out}*pi] with |j| <= {j_max} only"
    if mode != "sampled" and A.is_diagonal:
        dim = E.dim
        outer = BoxSet(
            dim, (Box((-r_out,) * dim, (r_out,) * dim),)
        )
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
    if mode == "exact":
        raise ValueError("exact mode requested but the frequency matrix is not diagonal")
    rf_in, rf_out = float(r_in) * math.pi, float(r_out) * math.pi
    for i in range(samples):
        xi = _sample_annulus(E.dim, rf_in, rf_out, seed, i)
        covered = any(
            E.contains(b_transform(A, xi, -j)) for j in range(-j_max, j_max + 1)
        )
        if not covered:
            return CheckResult(
                name,
                False,
                "sampled",
                witness={"point": list(xi.coords)},
                note=note,
            )
    return CheckResult(name, True, "sampled", note=note)


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
    disjoint = check_dilation_disjoint(
        E, A, j_max=p.j_max, mode=p.mode, samples=p.samples, seed=p.seed, annulus=p.annulus
    )
    cover = check_dilation_cover(
        E, A, annulus=p.annulus, j_max=p.j_max, samples=p.samples, seed=p.seed, mode=p.mode
    )
    congruent = check_translation_congruent(E)
    report = TilingReport(
        disjoint=disjoint,
        cover=cover,
        congruent=congruent,
        measure_pi_units=E.measure(),
        params=p,
    )
    return report
