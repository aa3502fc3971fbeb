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
pairs are formed once per unordered scale pair, in both orders, and
evaluated at each key's phase, a shift held per axis as an integer
(numerator, denominator) pair.  A is diagonal there, so a key splits by
axis into exact integers that take few values; each gets a small integer
id, and each block (m, m') of the matrix is filled from the ids of its
own keys, instead of entry by entry.  The closed form runs on Python
numbers alone: the result holds each distinct value once and one row of
value indices per label, and numpy forms the matrix only when a library
caller asks for ``GramResult.matrix``.  The quadrature that serves other
matrices samples the set once per scale with numpy, and each label only
its phase.  Deviation, witness and verdict come from the values, |G - I|
with Python's ``abs``, in both modes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .boxes import BoxSet, grid_dilate, grid_scales, grid_span
from .funcs import grid_pairs, pairing
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
    """The Gram matrix as a list of values and one row of value indices per label.

    Entry (i, j) is ``values[rows[i][j]]``, and the entries of one key share one value.
    """

    labels: list[tuple[int, tuple[int, ...]]]
    values: list[complex]
    rows: list[list[int]]
    max_deviation: float
    mode: str
    warning: str | None = None
    # (i, j) of the first largest |G - I| in row-major order, set exactly when warning is
    witness: tuple[int, int] | None = None

    @property
    def matrix(self):
        """The entries as a complex ndarray, formed on each call; only here does a result load numpy."""
        import numpy as np

        return np.array(self.values, dtype=complex)[np.array(self.rows, dtype=np.intp)]


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
    invertible), which a diagonal A splits by axis (:func:`_key_table`).
    The term pairs of D^m 1_E and D^m' 1_E are formed once per unordered
    block {m, m'} (:func:`funcs.grid_pairs`).  A block with none, whose
    supports do not meet, is the exact zero; the others are evaluated at
    the phase A^-M w of each key, with the same float operations in the
    same order as the pairing of the two vectors.  Every entry below the
    diagonal is the conjugate of its transpose, so every entry has the
    bits of its own evaluation.

    Deviation, witness and verdict come from the distinct values
    (:func:`_deviation`): |G_ij| off the diagonal and |G_ii - 1| on it, by
    Python's ``abs``.  Unless the deviation is within tolerance (a NaN is
    not), the warning and witness are set.
    """
    labels = spec.labels()
    if spec.A.is_diagonal:
        values, rows = _gram_closed_form(spec, labels)
        mode = "closed-form"
    else:
        values, rows = _gram_quadrature(spec, labels)
        mode = "quadrature"
    dev, witness = _deviation(values, rows, spec.tolerance)
    if witness is None:
        return GramResult(labels, values, rows, dev, mode)
    warning = (
        f"max deviation {dev:.3e} exceeds tolerance {spec.tolerance:.1e}: "
        "the family is not orthonormal (the set is not a wavelet set)"
    )
    return GramResult(labels, values, rows, dev, mode, warning, witness)


def _deviation(
    values: list[complex], rows: list[list[int]], tolerance: float
) -> tuple[float, tuple[int, int] | None]:
    """The largest |G - I| and, unless it is within tolerance, its first (i, j) in row-major order.

    A value index on the diagonal holds no entry off it, so |G - I| is a
    function of the index: |v - 1| on the diagonal, else |v|.  As
    ``np.argmax`` finds it, a NaN wins at its first position.
    """
    dist = list(map(abs, values))
    for i, row in enumerate(rows):
        dist[row[i]] = abs(values[row[i]] - 1)
    worst = {u for u, x in enumerate(dist) if x != x}
    dev = math.nan if worst else max(dist)
    if dev <= tolerance:
        return dev, None
    worst = worst or {u for u, x in enumerate(dist) if x == dev}
    i = next(i for i, row in enumerate(rows) if not worst.isdisjoint(row))
    return dev, (i, next(j for j, u in enumerate(rows[i]) if u in worst))


def _key_table(A: DilationMatrix, d: int, vs: range) -> tuple[list[list[int]], list[list[int]]]:
    """Ids of the key vectors A^max(d,0) v - A^max(-d,0) v' of gap d, one per pair (v, v').

    A is diagonal, so component k is a_k^max(d,0) v_k - a_k^max(-d,0) v'_k,
    a function of (v_k, v'_k) alone.  Per axis, each distinct exact integer
    gets a small id, its index in that axis's value list; the axis ids
    combine in mixed radix, first axis slowest, into one id per (v, v'), a
    row per v and a column per v' over the L = len(vs)^n vectors in label
    order.  Returns the rows and the value lists that decode the ids.  The
    ids stay below L^2, the size of one Gram block, however large the exact
    components grow.
    """
    rows, values = [[0]], []
    for k in range(A.n):
        a = A.entries[k][k]
        lo, hi = a ** max(d, 0), a ** max(-d, 0)
        index: dict[int, int] = {}
        axis = [[index.setdefault(lo * x - hi * y, len(index)) for y in vs] for x in vs]
        radix = len(index)
        rows = [[i * radix + j for i in prev for j in ax] for prev in rows for ax in axis]
        values.append(list(index))
    return rows, values


def _decode(key: int, axes: list[list]) -> tuple:
    """What a key id of :func:`_key_table` selects: its mixed-radix digits looked up per axis."""
    out = []
    for values in reversed(axes):
        key, digit = divmod(key, len(values))
        out.append(values[digit])
    return tuple(reversed(out))


def _gram_closed_form(
    spec: GramSpec, labels: list[tuple[int, tuple[int, ...]]]
) -> tuple[list[complex], list[list[int]]]:
    """The closed form on a diagonal A as distinct values and rows of value indices.

    One unordered block {m, m'} at a time: the term pairs of D^m 1_E and
    D^m' 1_E in both orders come from one pass, and none means the zero
    block, 0j / norm above the diagonal and its conjugate below.  Else the
    entries of block (m, m') on or above its own diagonal select the key
    ids of its gap; each id in use is decoded to its vector w and evaluated
    once, and so is each id below, with the pairs of (m', m) at -w: entry
    (p, q) of block (m', m) is the conjugate of entry (q, p) of block
    (m, m').  The term pairs of D^m 1_E with itself, formed for its norm,
    serve the same-scale blocks, whose diagonal is norm^2 / norm^2.  Each
    value off the diagonal is held next to its conjugate.
    """
    A, mm = spec.A, spec.m_max
    diag = [A.entries[i][i] for i in range(A.n)]
    scales = range(-mm, mm + 1)
    # the terms of D^m 1_E, |m| <= mm, on one grid that carries every dilate's ends: E's boxes
    # scaled by B^m, unmodulated, with the coefficient |det|^(-m/2) of ModulatedBoxSum.dilated
    grid = [s * abs(a) ** mm for s, a in zip(grid_scales(A.n, spec.E.boxes), diag)]
    spans = [grid_span(b, grid) for b in spec.E.boxes]
    det, still = float(A.det_abs), ((0,) * A.n, 1)
    terms = {
        m: [(grid_dilate(A, span, m), still, complex(1.0) * det ** (-m / 2.0)) for span in spans] for m in scales
    }
    same = {m: grid_pairs(terms[m], terms[m], grid)[0] for m in scales}
    norm_sqs = {m: pairing(p).real for m, p in same.items()}  # M_v is unitary: that of every v
    norms = {m: math.sqrt(s) for m, s in norm_sqs.items()}
    S = len(scales)
    vs = range(-spec.v_max, spec.v_max + 1)
    L = len(vs) ** A.n  # label p S + s is (scales[s], v_p): v runs slowest
    tables: dict[int, tuple[list[list[int]], list[list[int]], list[list[int]]]] = {}  # by gap
    # the phase of key w in block (m, m') is A^-M w, M = max(m, m'): w_k a_k^-M, held per
    # axis as the integer pair (w_k c_k, d_k) with d_k > 0, (c_k, d_k) = (sgn(a_k)^M, |a_k|^M)
    # for M >= 0 and (a_k^-M, 1) for M < 0
    twist = {
        m: [(a ** -m, 1) if m < 0 else ((-1 if a < 0 else 1) ** m, abs(a) ** m) for a in diag]
        for m in scales
    }
    values: list[complex] = []

    def evaluate(pairs, norm, axes, tw, ids, sign) -> list[int]:
        # value index by key id, for the ids given, each evaluated at the key sign * w
        shifts = [[(sign * w * c, d) for w in axis] for axis, (c, d) in zip(axes, tw)]
        at = [0] * math.prod(map(len, axes))
        for u in ids:
            at[u] = len(values)
            value = pairing(pairs, _decode(u, shifts)) / norm
            values.extend((value, value.conjugate()))
        return at

    blocks: dict[tuple[int, int], list[list[int]]] = {}
    for s, m in enumerate(scales):
        for t in range(s, S):
            mp = scales[t]
            norm = norms[m] * norms[mp]
            if s == t:
                pairs, mirror = same[m], ()
            else:
                pairs, mirror = grid_pairs(terms[m], terms[mp], grid)
            if not pairs:  # the supports do not meet
                zero = 0j / norm
                up = len(values)
                values.extend((zero, zero.conjugate()))
                blocks[s, t] = [[up + 1] * p + [up] * (L - p) for p in range(L)]
                blocks[t, s] = [[up + 1] * (q + 1) + [up] * (L - q - 1) for q in range(L)]
                continue
            if mp - m not in tables:
                rows, axes = _key_table(A, mp - m, vs)
                tables[mp - m] = rows, [list(col) for col in zip(*rows)], axes
            rows, cols, axes = tables[mp - m]
            tw = twist[max(m, mp)]
            first = 1 if s == t else 0  # the same-scale block keeps its diagonal for norm^2 / norm^2
            upper = set(itertools.chain.from_iterable(row[p + first :] for p, row in enumerate(rows)))
            up = evaluate(pairs, norm, axes, tw, upper, 1)
            up_conj = [u + 1 for u in up]
            if s == t:
                one = len(values)
                values.append(complex(norm_sqs[m] / norm_sqs[m]))
                blocks[s, s] = [
                    [*map(up_conj.__getitem__, cols[p][:p]), one, *map(up.__getitem__, row[p + 1 :])]
                    for p, row in enumerate(rows)
                ]
                continue
            lower = set(itertools.chain.from_iterable(row[:p] for p, row in enumerate(rows)))
            low = evaluate(mirror, norm, axes, tw, lower, -1)
            low_conj = [u + 1 for u in low]
            blocks[s, t] = [
                [*map(low_conj.__getitem__, row[:p]), *map(up.__getitem__, row[p:])]
                for p, row in enumerate(rows)
            ]
            blocks[t, s] = [
                [*map(up_conj.__getitem__, col[: q + 1]), *map(low.__getitem__, col[q + 1 :])]
                for q, col in enumerate(cols)
            ]
    out = []
    for p in range(L):
        for s in range(S):
            row = [0] * (L * S)
            for t in range(S):
                row[t::S] = blocks[s, t][p]
            out.append(row)
    return values, out


def _gram_quadrature(
    spec: GramSpec, labels: list[tuple[int, tuple[int, ...]]]
) -> tuple[list[complex], list[list[int]]]:
    """Riemann-sum Gram entries for a general integer matrix (n = 1 or 2), on about 4096 cells.

    The (m, v) vector at the grid points x is |det|^(-m/2) 1_E(y) e^{-i<y, v>}
    with y = B^{-m} x.  The points y and the weight |det|^(-m/2) 1_E(y)
    depend on m alone, so they are formed once per scale, and each label
    forms only its phase and the product weight * phase: the operations of
    sampling each label on its own, in the same order, so the samples keep
    their bits.  Column j is the product V conj(v_j) of the sampled
    vectors, one per label, so no conjugate copy of V is held.  Its
    summation order differs from a per-entry ``np.sum`` by rounding only:
    |delta| <= 1e-14.  The matrix is handed over as its ``tolist()``
    values, row after row, each entry its own value.
    """
    import numpy as np  # the one numpy path of the module, with GramResult.matrix

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
    matrix = np.array([vals @ row.conj() for row in vals]).T * vol / mu
    k = len(labels)
    return matrix.ravel().tolist(), [list(range(i * k, (i + 1) * k)) for i in range(k)]

