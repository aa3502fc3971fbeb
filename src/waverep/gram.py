"""MSF wavelet evaluation and orthonormality certification.

The candidate wavelet is the inverse Fourier transform of the
normalized indicator of the set E.  Orthonormality of its scaled
lattice translates is certified in the frequency domain, where every
Gram entry is a closed-form integral: entries across different scales
vanish because the dilates of E are disjoint (a support statement, not
a cancellation, read off each block's own term pairs: a block with none
is the exact zero), and same-scale entries are exponential integrals
with exactly reduced phases.

Since D M_v = M_{Av} D, an entry depends only on the exact key
(m, m', A^-m v - A^-m' v'), so each key is evaluated once.  The boxes
of D^m 1_E and D^m' 1_E that meet depend on (m, m') alone, so their term
pairs are formed once per scale pair and evaluated at each key's phase,
a shift held per axis as an integer (numerator, denominator) pair.
A is diagonal there, so a key splits by axis into exact integers that
take few values; each gets a small integer id, and each block (m, m')
of the matrix is filled from the ids of its own keys, instead of entry
by entry.  The quadrature that serves other matrices samples the set
once per scale, and each label only its phase.  Deviation, witness and
verdict come from one array, |G - I|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoxSet
from .funcs import ModulatedBoxSum, pairing
from .groups import DilationMatrix

__all__ = ["GramSpec", "GramResult", "eval_msf_wavelet", "gram_matrix"]

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
    for box_lo, box_hi in E.float_bounds():
        prod = complex(1.0)
        for lo, hi, tk in zip(box_lo, box_hi, coords):
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
    # (i, j) of the first largest |G - I| in row-major order, set exactly when warning is
    witness: tuple[int, int] | None = None


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
    key's vector is held as w = A^M times it, M = max(m, m'), the integer
    vector A^(M-m) v - A^(M-m') v' (exact, and injective since A^M is
    invertible), which a diagonal A splits by axis (:func:`_key_ids`).
    The term pairs of D^m 1_E and D^m' 1_E are formed once per block
    (m, m').  A block with none, whose supports do not meet, is the exact
    zero; the others are evaluated at the phase A^-M w of each key, with the
    same float operations in the same order as the pairing of the two
    vectors.  The upper triangle is scattered from the distinct values and
    the lower triangle is their conjugate, so every entry has the bits of
    its own evaluation.

    Deviation, witness and verdict come from one float array: |G| with
    its diagonal |G_ii - 1|, the bits of |G - I|.  Unless the deviation is
    within tolerance (a NaN is not), the warning and witness are set.
    """
    labels = spec.labels()
    k = len(labels)
    if spec.A.is_diagonal:
        matrix = _gram_closed_form(spec, labels)
        mode = "closed-form"
    else:
        matrix = _gram_quadrature(spec, labels)
        mode = "quadrature"
    dist = np.abs(matrix)
    np.fill_diagonal(dist, np.abs(matrix.diagonal() - 1))
    i, j = divmod(int(np.argmax(dist)), k)
    dev = float(dist[i, j])
    if dev <= spec.tolerance:
        return GramResult(labels, matrix, dev, mode)
    warning = (
        f"max deviation {dev:.3e} exceeds tolerance {spec.tolerance:.1e}: "
        "the family is not orthonormal (the set is not a wavelet set)"
    )
    return GramResult(labels, matrix, dev, mode, warning, (i, j))


def _key_ids(A: DilationMatrix, d: int, vs: range) -> tuple[np.ndarray, list[list[int]]]:
    """Ids of the key vectors A^max(d,0) v - A^max(-d,0) v' of gap d, one per pair (v, v').

    A is diagonal, so component k is a_k^max(d,0) v_k - a_k^max(-d,0) v'_k,
    a function of (v_k, v'_k) alone.  Per axis, each distinct exact integer
    gets a small id, its index in that axis's value list; the axis ids
    combine in mixed radix, first axis slowest, into one id per (v, v'), an
    (L, L) array over the L = len(vs)^n vectors in label order.  Returns
    the ids and the value lists that decode them.  The ids stay below L^2,
    the size of one Gram block, however far the exact components leave the
    int64 range.
    """
    n, side = A.n, len(vs)
    ids, values = 0, []
    for k in range(n):
        a = A.entries[k][k]
        lo, hi = a ** max(d, 0), a ** max(-d, 0)
        index: dict[int, int] = {}
        axis = [index.setdefault(lo * x - hi * y, len(index)) for x in vs for y in vs]
        shape = [1] * 2 * n
        shape[k] = shape[n + k] = side
        axis_ids = np.array(axis, dtype=np.int64).reshape(shape)
        ids = axis_ids if k == 0 else ids * len(index) + axis_ids
        values.append(list(index))
    return ids.reshape(side**n, side**n), values


def _gram_closed_form(spec: GramSpec, labels: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    """The closed form on a diagonal A, filled one block (m, m') at a time.

    Each block has its own term pairs and keys: none means the zero block;
    else its entries above the diagonal select the key ids of its gap, each
    id in use is decoded to its vector w and evaluated once, and the values
    are scattered back; the mirrored block takes their conjugates.  The term
    pairs of D^m 1_E with itself, formed for its norm, serve the same-scale
    blocks as well.
    """
    A, mm = spec.A, spec.m_max
    diag = [A.entries[i][i] for i in range(A.n)]
    base = ModulatedBoxSum.indicator(A, spec.E)
    dilates = {m: base.dilated(m) for m in range(-mm, mm + 1)}
    same = {m: f.term_pairs(f) for m, f in dilates.items()}
    norm_sqs = {m: pairing(p).real for m, p in same.items()}  # M_v is unitary: that of every v
    norms = {m: math.sqrt(s) for m, s in norm_sqs.items()}
    scales = range(-mm, mm + 1)
    k, S = len(labels), len(scales)
    L = k // S  # label p S + s is (scales[s], v_p): v runs slowest
    vs = range(-spec.v_max, spec.v_max + 1)
    keyed: dict[int, tuple[np.ndarray, list[list[int]]]] = {}  # by gap, once a block of it meets
    # the phase of key w in block (m, m') is A^-M w, M = max(m, m'): w_k a_k^-M, held per
    # axis as the integer pair (w_k c_k, d_k) with d_k > 0, (c_k, d_k) = (sgn(a_k)^M, |a_k|^M)
    # for M >= 0 and (a_k^-M, 1) for M < 0
    twist = {
        m: [(a ** -m, 1) if m < 0 else ((-1 if a < 0 else 1) ** m, abs(a) ** m) for a in diag]
        for m in scales
    }
    # entry (p S + s, q S + t) lies above the diagonal when p < q, or p == q and s < t
    ones = np.ones((L, L), dtype=bool)
    masks = (np.triu(ones, 1), np.triu(ones))
    blocks = np.empty((L, S, L, S), dtype=complex)
    for s, m in enumerate(scales):
        for t, mp in enumerate(scales):
            if L == 1 and s >= t:  # no entry above the diagonal
                continue
            mask, norm = masks[s < t], norms[m] * norms[mp]
            pairs = same[m] if m == mp else dilates[m].term_pairs(dilates[mp])
            if not pairs:  # the supports do not meet
                vals = 0j / norm
            else:
                if mp - m not in keyed:
                    keyed[mp - m] = _key_ids(A, mp - m, vs)
                ids, axes = keyed[mp - m]
                used, where = np.unique(ids[mask], return_inverse=True)
                digits = np.unravel_index(used, [len(a) for a in axes])
                shifts = (
                    tuple((axis[i] * c, d) for axis, i, (c, d) in zip(axes, key, twist[max(m, mp)]))
                    for key in zip(*(d.tolist() for d in digits))
                )
                vals = np.array([pairing(pairs, x) / norm for x in shifts], dtype=complex)[where]
            blocks[:, s, :, t][mask] = vals
            blocks[:, t, :, s].T[mask] = np.conj(vals)
    matrix = blocks.reshape(k, k)
    # the diagonal normalizer is the norm square itself: exactly 1
    np.fill_diagonal(matrix, [norm_sqs[m] / norm_sqs[m] for m in scales] * L)
    return matrix


def _gram_quadrature(spec: GramSpec, labels: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    """Riemann-sum Gram entries for a general integer matrix (n = 1 or 2), on about 4096 cells.

    The (m, v) vector at the grid points x is |det|^(-m/2) 1_E(y) e^{-i<y, v>}
    with y = B^{-m} x.  The points y and the weight |det|^(-m/2) 1_E(y)
    depend on m alone, so they are formed once per scale, and each label
    forms only its phase and the product weight * phase: the operations of
    sampling each label on its own, in the same order, so the samples keep
    their bits.  Column j is the product V conj(v_j) of the sampled
    vectors, one per label, so no conjugate copy of V is held.  Its
    summation order differs from a per-entry ``np.sum`` by rounding only:
    |delta| <= 1e-14.
    """
    n = spec.A.n
    det = float(spec.A.det_abs)
    # integration region: union of the dilates touched by the family
    r_max = float(spec.E.bounding_radii()[1]) * math.pi * det ** spec.m_max
    per_axis = max(8, int(round(4096 ** (1 / n))))
    axes = [
        -r_max + 2 * r_max * (np.arange(per_axis) + 0.5) / per_axis for _ in range(n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vol = (2 * r_max / per_axis) ** n
    ys, weights = {}, {}
    for m in range(-spec.m_max, spec.m_max + 1):
        p, d = spec.A.power(-m)
        ys[m] = pts @ (np.array(p, dtype=float) / d)
        weights[m] = det ** (-m / 2.0) * spec.E.contains_rows(ys[m])
    vals = np.empty((len(labels), len(pts)), dtype=complex)
    for i, (m, v) in enumerate(labels):
        vals[i] = weights[m] * np.exp(-1j * (ys[m] @ np.asarray(v, dtype=float)))
    mu = float(spec.E.measure()) * math.pi**n
    return np.array([vals @ row.conj() for row in vals]).T * vol / mu

