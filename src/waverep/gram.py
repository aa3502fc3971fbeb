"""MSF wavelet evaluation and orthonormality certification.

The candidate wavelet is the inverse Fourier transform of the
normalized indicator of the set E.  Orthonormality of its scaled
lattice translates is certified in the frequency domain, where every
Gram entry is a closed-form integral: entries across different scales
vanish because the dilates of E are disjoint (a support statement, not
a cancellation), and same-scale entries are exponential integrals with
exactly reduced phases.  Completeness is reported as a defect curve
over growing translation ranges, never as a boolean.

Since D M_v = M_{Av} D, an entry depends only on the exact key
(m, m', A^-m v - A^-m' v'), so each key is evaluated once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .boxes import BoxSet
from .funcs import ModulatedBoxSum
from .groups import AdicVector, DilationMatrix

__all__ = ["GramSpec", "GramResult", "eval_msf_wavelet", "gram_matrix", "completeness_defect"]

_TINY = 2.0**-40


def eval_msf_wavelet(E: BoxSet, t) -> complex:
    """Time-domain value of the wavelet with frequency support E.

    psi(t) = (2 pi)^{-n/2} mu(E)^{-1/2} * sum over boxes of
    prod_k (e^{i hi_k t_k} - e^{i lo_k t_k}) / (i t_k), with the factor
    replaced by its limit hi_k - lo_k when |t_k| is below 2^-40 (the
    singularity is removable and naive evaluation loses all precision).
    """
    coords = tuple(float(c) for c in t)
    n = E.dim
    if len(coords) != n:
        raise ValueError("point dimension mismatch")
    mu = float(E.measure()) * math.pi**n
    total = 0j
    for box in E.boxes:
        prod = complex(1.0)
        for k in range(n):
            lo = float(box.lo[k]) * math.pi
            hi = float(box.hi[k]) * math.pi
            tk = coords[k]
            if abs(tk) < _TINY:
                prod *= hi - lo
            else:
                prod *= (
                    complex(math.cos(hi * tk), math.sin(hi * tk))
                    - complex(math.cos(lo * tk), math.sin(lo * tk))
                ) / complex(0, tk)
        total += prod
    return total / ((2 * math.pi) ** (n / 2) * math.sqrt(mu))


@dataclass(frozen=True)
class GramSpec:
    """Index family for the orthonormality certificate."""

    E: BoxSet
    A: DilationMatrix
    m_max: int = 2
    v_max: int = 8
    tolerance: float = 1e-12

    def labels(self) -> list[tuple[int, tuple[int, ...]]]:
        n = self.A.n
        vs = itertools.product(*(range(-self.v_max, self.v_max + 1) for _ in range(n)))
        return [(m, v) for v in vs for m in range(-self.m_max, self.m_max + 1)]


@dataclass
class GramResult:
    labels: list[tuple[int, tuple[int, ...]]]
    matrix: np.ndarray
    max_deviation: float
    mode: str
    warning: str | None = None


def _scales(spec: GramSpec) -> tuple[dict[int, ModulatedBoxSum], dict[int, float]]:
    """D^m 1_E and its squared norm per scale m (M_v is unitary: the norm of every (m, v))."""
    base = ModulatedBoxSum.indicator(spec.A, spec.E)
    dilates = {m: base.dilated(m) for m in range(-spec.m_max, spec.m_max + 1)}
    return dilates, {m: f.inner(f).real for m, f in dilates.items()}


def gram_matrix(spec: GramSpec) -> GramResult:
    """Gram matrix of the scaled lattice translates of the candidate wavelet.

    Each vector is normalized by its own closed-form norm, so diagonal
    entries are exactly 1; off-diagonal entries vanish exactly whenever
    the support/phase arithmetic forces them to.  Falls back to a
    quadrature evaluation when the frequency matrix is not diagonal.

    The closed-form pairing of (m, v) with (m', v') sums, in a fixed
    order, over the boxes of B^m E and B^m' E with coefficients fixed by
    m and m' and the exact phase difference A^-m v - A^-m' v'.  So it is
    a function of the key (m, m', A^-m v - A^-m' v'): each key is
    evaluated once and every other entry with it is bit-identical.  The
    key's vector is held as A^M times it, M = max(m, m'), an integer
    vector (exact, and injective since A^M is invertible).  Blocks whose
    supports do not meet (E against B^(m'-m) E) are the exact zero.
    """
    labels = spec.labels()
    k = len(labels)
    if spec.A.is_diagonal:
        matrix = _gram_closed_form(spec, labels)
        mode = "closed-form"
    else:
        matrix = _gram_quadrature(spec, labels)
        mode = "quadrature"
    dev = float(np.max(np.abs(matrix - np.eye(k))))
    warning = None
    if dev > spec.tolerance:
        warning = (
            f"max deviation {dev:.3e} exceeds tolerance {spec.tolerance:.1e}: "
            "the family is not orthonormal (the set is not a wavelet set)"
        )
    return GramResult(labels, matrix, dev, mode, warning)


def _gram_closed_form(spec: GramSpec, labels: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    A, E = spec.A, spec.E
    dilates, norm_sqs = _scales(spec)
    norms = {m: math.sqrt(s) for m, s in norm_sqs.items()}
    meets = {d: E.meets(E.dilate(A, d)) for d in range(-2 * spec.m_max, 2 * spec.m_max + 1)}
    # A^e v, 0 <= e <= 2 m_max: the key vector is lifts[i][M - m] - lifts[j][M - m']
    lifts = [
        [linalg.mat_vec(A.power(e)[0], v) for e in range(2 * spec.m_max + 1)] for _, v in labels
    ]
    entries: dict = {}
    k = len(labels)
    matrix = np.zeros((k, k), dtype=complex)
    for i, (m, _) in enumerate(labels):
        # the diagonal normalizer is the norm square itself: exactly 1
        matrix[i, i] = norm_sqs[m] / norm_sqs[m]
        for j in range(i + 1, k):
            mp = labels[j][0]
            top = max(m, mp)
            w = None
            if meets[mp - m]:
                w = tuple(a - b for a, b in zip(lifts[i][top - m], lifts[j][top - mp]))
            val = entries.get((m, mp, w))
            if val is None:
                inner = 0j
                if w is not None:
                    beta = AdicVector(A, w, 0).twist(top)
                    inner = dilates[m].modulated(beta).inner(dilates[mp])
                val = entries[m, mp, w] = inner / (norms[m] * norms[mp])
            matrix[i, j] = val
            matrix[j, i] = val.conjugate()
    return matrix


def _gram_quadrature(
    spec: GramSpec, labels: list[tuple[int, tuple[int, ...]]], cells: int = 4096
) -> np.ndarray:
    """Riemann-sum Gram entries for a general integer matrix (n = 1 or 2).

    Column j is the product V conj(v_j) of the sampled vectors, one per
    label, so no conjugate copy of V is held.  Its summation order differs
    from a per-entry ``np.sum`` by rounding only: |delta| <= 1e-14.
    """
    n = spec.A.n
    det = float(spec.A.det_abs)

    def sample(m, v, pts):
        # value of the (m, v) basis vector at points (rows): ys = B^{-m} pts
        p, d = spec.A.power(-m)
        ys = pts @ (np.array(p, dtype=float) / d)
        inside = spec.E.contains_rows(ys)
        phase = np.exp(-1j * (ys @ np.asarray(v, dtype=float)))
        return det ** (-m / 2.0) * inside * phase

    # integration region: union of the dilates touched by the family
    r_max = max(
        abs(float(x)) for box in spec.E.boxes for x in (*box.lo, *box.hi)
    ) * math.pi * det ** spec.m_max
    per_axis = max(8, int(round(cells ** (1 / n))))
    axes = [
        -r_max + 2 * r_max * (np.arange(per_axis) + 0.5) / per_axis for _ in range(n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vol = (2 * r_max / per_axis) ** n
    vals = np.empty((len(labels), len(pts)), dtype=complex)
    for i, (m, v) in enumerate(labels):
        vals[i] = sample(m, v, pts)
    mu = float(spec.E.measure()) * math.pi**n
    return np.array([vals @ row.conj() for row in vals]).T * vol / mu


def completeness_defect(
    E: BoxSet,
    A: DilationMatrix,
    f: ModulatedBoxSum,
    m_max: int,
    v_max: int,
) -> float:
    """||f||^2 minus the energy captured by the finite family.

    Non-negative up to rounding, and non-increasing in the translation
    range; reported as a number, never as a verdict, because the full
    statement is a limit over all translates.  A function supported
    outside the scanned dilates keeps its entire norm as defect.
    """
    spec = GramSpec(E, A, m_max, v_max)
    dilates, norm_sqs = _scales(spec)
    total = f.norm_sq()
    captured = 0.0
    for m, v in spec.labels():
        b = dilates[m].modulated(AdicVector.of(A, v).twist(m))
        coef = f.inner(b) / math.sqrt(norm_sqs[m])
        captured += abs(coef) ** 2
    return total - captured
