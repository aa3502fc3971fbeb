"""Reference answers computed without waverep.

Every check here uses exact ``Fraction`` arithmetic (and mpmath where a
phase is not a rational multiple of pi), so an op's output is compared
with values that do not share code with the program under test.

Conventions follow the waverep reports: box endpoints and exact point
coordinates are in units of pi, boxes are half-open, the frequency
matrix B is the transpose of the dilation matrix A, and a character is
e^{-i<x, beta>}.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

F = Fraction
Box = tuple  # (lo, hi), each a tuple of Fractions


# --- matrices ---------------------------------------------------------------


def transpose(a):
    return tuple(zip(*a))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(F(x) * y for x, y in zip(row, v)) for row in a)


def inverse(a):
    """Gauss-Jordan inverse over the rationals."""
    n = len(a)
    aug = [[F(a[i][j]) for j in range(n)] + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_pow(a, k: int):
    """a**k for any integer k (negative powers through the inverse)."""
    base = inverse(a) if k < 0 else tuple(tuple(F(x) for x in row) for row in a)
    out = tuple(tuple(F(int(i == j)) for j in range(len(a))) for i in range(len(a)))
    for _ in range(abs(k)):
        out = mat_mul(out, base)
    return out


def det(a) -> int:
    if len(a) == 1:
        return a[0][0]
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


# --- box sets -----------------------------------------------------------------


def parse_set(data: dict) -> list[Box]:
    return [
        (tuple(F(x) for x in b["lo"]), tuple(F(x) for x in b["hi"])) for b in data["boxes"]
    ]


def set_json(boxes: list[Box]) -> dict:
    return {
        "dim": len(boxes[0][0]),
        "boxes": [{"lo": [str(x) for x in lo], "hi": [str(x) for x in hi]} for lo, hi in boxes],
    }


def measure(boxes: list[Box]) -> F:
    return sum((math.prod((h - l for l, h in zip(lo, hi)), start=F(1)) for lo, hi in boxes), F(0))


def in_box(p, box: Box) -> bool:
    lo, hi = box
    return all(a <= c < b for a, b, c in zip(lo, hi, p))


def in_set(p, boxes: list[Box]) -> bool:
    return any(in_box(p, b) for b in boxes)


def center(box: Box) -> tuple:
    lo, hi = box
    return tuple((a + b) / 2 for a, b in zip(lo, hi))


def intersect(a: Box, b: Box) -> Box | None:
    lo = tuple(max(x, y) for x, y in zip(a[0], b[0]))
    hi = tuple(min(x, y) for x, y in zip(a[1], b[1]))
    if any(x >= y for x, y in zip(lo, hi)):
        return None
    return lo, hi


def dilate_diag(boxes: list[Box], diag, j: int) -> list[Box]:
    """Image of a box set under diag(d)^j."""
    out = []
    for lo, hi in boxes:
        pairs = [sorted((F(d) ** j * a, F(d) ** j * b)) for d, a, b in zip(diag, lo, hi)]
        out.append((tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)))
    return out


def _radii(boxes: list[Box]) -> tuple[F, F]:
    """Sup-norm distance range [r_min, r_max] of a box set from the origin."""
    r_max = max(max(abs(a), abs(b)) for lo, hi in boxes for a, b in zip(lo, hi))
    r_min = min(
        max(F(0) if a <= 0 < b else min(abs(a), abs(b)) for a, b in zip(lo, hi)) for lo, hi in boxes
    )
    return r_min, r_max


def meeting_scales(boxes: list[Box], diag, j_max: int) -> set[tuple[int, int]]:
    """Pairs j < k, |j|, |k| <= j_max, whose dilates share positive volume."""
    scales = range(-j_max, j_max + 1)
    dil = {j: dilate_diag(boxes, diag, j) for j in scales}
    radii = {j: _radii(d) for j, d in dil.items()}
    out = set()
    for j in scales:
        for k in range(j + 1, j_max + 1):
            if radii[j][1] <= radii[k][0] or radii[k][1] <= radii[j][0]:
                continue
            if any(intersect(a, b) is not None for a in dil[j] for b in dil[k]):
                out.add((j, k))
    return out


def disjoint_diag(boxes: list[Box], diag, j_max: int) -> bool:
    return not meeting_scales(boxes, diag, j_max)


def lattice_cover_count(p, boxes: list[Box]) -> int:
    """How many translates E + 2*pi*k contain the point p."""
    count = 0
    ranges = []
    for axis, c in enumerate(p):
        lo = min(b[0][axis] for b in boxes)
        hi = max(b[1][axis] for b in boxes)
        ranges.append(range(math.floor((c - hi) / 2) - 1, math.ceil((c - lo) / 2) + 2))
    for k in itertools.product(*ranges):
        if in_set(tuple(c - 2 * s for c, s in zip(p, k)), boxes):
            count += 1
    return count


def congruent(boxes: list[Box]) -> bool:
    """Translation congruence to [-pi, pi)^n: the folded pieces tile the cube."""
    n = len(boxes[0][0])
    pieces = []
    for lo, hi in boxes:
        axes = []
        for a, b in zip(lo, hi):
            cuts, c = [], 2 * math.floor((a + 1) / 2) + 1
            while c < b:
                if c > a:
                    cuts.append(F(c))
                c += 2
            ends = [a] + cuts + [b]
            axes.append([(s, e) for s, e in zip(ends, ends[1:])])
        for combo in itertools.product(*axes):
            shift = [2 * math.floor((s + 1) / 2) for s, _ in combo]
            pieces.append(
                (tuple(s - t for (s, _), t in zip(combo, shift)), tuple(e - t for (_, e), t in zip(combo, shift)))
            )
    if measure(pieces) != 2**n:
        return False
    return all(
        intersect(pieces[i], pieces[j]) is None
        for i in range(len(pieces))
        for j in range(i + 1, len(pieces))
    )


def cover_1d(boxes: list[Box], a: int, j_max: int, r_in: F, r_out: F) -> bool:
    """The dilates a^j E, |j| <= j_max, cover [-r_out, -r_in) and [r_in, r_out)."""
    intervals = sorted(
        (lo[0], hi[0]) for j in range(-j_max, j_max + 1) for lo, hi in dilate_diag(boxes, (a,), j)
    )
    for start, stop in ((-r_out, -r_in), (r_in, r_out)):
        reach = start
        for lo, hi in intervals:
            if lo > reach:
                break
            reach = max(reach, hi)
        if reach < stop:
            return False
    return True


# --- phases and integrals -----------------------------------------------------


def phase_pi(t: F) -> complex:
    """e^{i pi t}, with t reduced mod 2 exactly before rounding."""
    r = F(t) % 2
    if r.denominator <= 2:
        return {F(0): 1 + 0j, F(1, 2): 1j, F(1): -1 + 0j, F(3, 2): -1j}[r]
    return complex(math.cos(math.pi * r), math.sin(math.pi * r))


def phase_real(t: F) -> complex:
    """e^{i t} for a rational t of any size, through high-precision reduction."""
    import mpmath  # imported on use, so generating inputs (timed as set-up) does not load it

    digits = max(30, len(str(abs(t.numerator))) - len(str(t.denominator)) + 30)
    with mpmath.workdps(digits):
        z = mpmath.expj(mpmath.mpf(t.numerator) / t.denominator)
        return complex(float(z.real), float(z.imag))


def box_integral(box: Box, theta) -> complex:
    """Integral of e^{-i<theta, xi>} over a box, xi in real units, box in pi units.

    Returned divided by pi^n (so a unit-free volume when theta == 0).
    """
    out = complex(1.0)
    for a, b, t in zip(box[0], box[1], theta):
        if t == 0:
            out *= float(b - a)
        else:
            out *= (phase_pi(-t * b) - phase_pi(-t * a)) / complex(0, -math.pi * float(t))
    return out


def gram_entry(boxes: list[Box], diag, m1: int, v1, m2: int, v2) -> complex:
    """Normalised Gram entry of the closed-form MSF family for a diagonal matrix."""
    d = abs(math.prod(diag))
    theta = tuple(F(x) / F(a) ** m1 - F(y) / F(a) ** m2 for x, y, a in zip(v1, v2, diag))
    total = 0j
    for p in dilate_diag(boxes, diag, m1):
        for q in dilate_diag(boxes, diag, m2):
            c = intersect(p, q)
            if c is not None:
                total += box_integral(c, theta)
    return total / (float(measure(boxes)) * d ** ((m1 + m2) / 2))


def same_scale_entry(boxes: list[Box], d) -> complex:
    """Entry between (m, v) and (m, v - d): independent of m for a diagonal matrix."""
    return sum((box_integral(b, d) for b in boxes), 0j) / float(measure(boxes))


def gram_labels(n: int, m_max: int, v_max: int) -> list:
    vs = itertools.product(*(range(-v_max, v_max + 1) for _ in range(n)))
    return [[m, list(v)] for v in vs for m in range(-m_max, m_max + 1)]


# --- A-adic group ---------------------------------------------------------------


def adic_values(A, v, j: int) -> tuple:
    """The rational vector A^{-j} v."""
    return mat_vec(mat_pow(A, -j), v)


def twist_values(A, v, j: int, k: int) -> tuple:
    """A^{k} applied to A^{-j} v."""
    return mat_vec(mat_pow(A, k - j), v)


def character_pi(x_pi, beta) -> complex:
    """e^{-i<x, beta>} for x an exact rational multiple of pi."""
    return phase_pi(-sum((a * b for a, b in zip(x_pi, beta)), F(0)))


def character_real(x, beta) -> complex:
    """e^{-i<x, beta>} for x with exact rational coordinates (no pi factor)."""
    return phase_real(-sum((a * b for a, b in zip(x, beta)), F(0)))


def mean_coefficient(A, v, j: int, J: int) -> float:
    import mpmath

    theta = twist_values(A, v, j, J)
    prod = 1.0
    for t in theta:
        if t == 0:
            continue
        if t.denominator == 1:
            return 0.0
        with mpmath.workdps(40):
            x = mpmath.pi * mpmath.mpf(t.numerator) / t.denominator
            prod *= float(mpmath.sin(x) / x)
    return prod


def forced_phase(A, level: int, gen_phases, v, j: int) -> F:
    """Phase (units of pi, mod 2) a level-`level` character forces on A^{-j} v."""
    w = mat_vec(mat_pow(A, level - j), v)
    return sum((F(wi) * t for wi, t in zip(w, gen_phases)), F(0)) % 2
