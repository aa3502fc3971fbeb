"""Exact arithmetic for the dilation matrix, its A-adic group and characters.

The translation group is Q_A = union_j A^{-j} Z^n, a subgroup of Q^n.
Its elements are stored as an integer vector over a power-of-A
denominator and kept in a canonical form, so equality is structural.
The scaling group Z acts by beta -> A^{-m} beta; the semidirect product
carries the usual twisted multiplication.

Every power of A, of either sign, comes from the one cached
:meth:`DilationMatrix.power`, which returns A^k as an integer matrix
over an integer denominator: negative powers are adj(A)^k / det^k.
So the canonical form is an integer congruence test (v lies in A(Z^n)
iff adj(A) v = 0 mod det) and no linear system is ever solved.  Only
:func:`orbit` forms no power: it walks A^k beta over a window of k one
matrix-vector step at a time.

Points of R^n come in two flavours: plain floats, and exact rational
multiples of pi per coordinate, which hold no floats.  On the exact
flavour every phase <x, beta> is a rational multiple of pi, reduced mod
2*pi in rational arithmetic before any transcendental evaluation, so
characters take exact values (1, -1, +-i, ...) wherever they are forced.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from . import linalg
from .errors import DimensionMismatch, NotExpansive, SingularMatrix

__all__ = [
    "DilationMatrix",
    "validate_dilation",
    "AdicVector",
    "GroupElement",
    "RealPoint",
    "character_value",
    "orbit",
    "phase_exp",
    "b_transform",
]


@dataclass(frozen=True)
class DilationMatrix:
    """A certified expansive integer matrix.

    ``entries`` is the matrix A acting on the time domain; the frequency
    domain sees its transpose.  ``char_coeffs`` are the coefficients of
    det(x*I - A), ascending, and ``adjugate`` is adj(A), so that
    A^{-1} = adj(A) / det.  Construct through :func:`validate_dilation`.
    """

    entries: linalg.IntMatrix
    char_coeffs: tuple[int, ...]
    determinant: int
    adjugate: linalg.IntMatrix = field(compare=False, repr=False)
    _powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def det_abs(self) -> int:
        return abs(self.determinant)

    @property
    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )

    def power(self, k: int) -> tuple[linalg.IntMatrix, int]:
        """A^k as (P, d) with A^k = P / d, both integral; cached per k.

        (A^k, 1) for k >= 0 and (adj(A)^|k|, det^|k|) for k < 0; d keeps
        the sign of det.  The frequency matrix B^k is P transposed over d.
        """
        hit = self._powers.get(k)
        if hit is None:
            if k >= 0:
                hit = (linalg.mat_pow(self.entries, k), 1)
            else:
                hit = (linalg.mat_pow(self.adjugate, -k), self.determinant**-k)
            self._powers[k] = hit
        return hit

    def __repr__(self) -> str:
        return f"DilationMatrix({[list(r) for r in self.entries]})"


def validate_dilation(raw) -> DilationMatrix:
    """Certify that a square integer matrix is expansive.

    Exact acceptance criterion: det != 0 and every eigenvalue has
    modulus > 1.  The eigenvalue condition is decided without floating
    point: A is expansive iff the reversed characteristic polynomial
    x^n p(1/x) has all roots strictly inside the unit circle, which the
    integer Schur reduction certifies.
    """
    entries = linalg.as_matrix(raw)
    coeffs, adjugate = linalg.char_poly(entries)
    determinant = (-1) ** len(entries) * coeffs[0]
    if determinant == 0:
        raise SingularMatrix("determinant is zero")
    reversed_coeffs = tuple(reversed(coeffs))
    stable, stage = linalg.schur_stable(reversed_coeffs)
    if not stable:
        raise NotExpansive(
            f"eigenvalue of modulus <= 1 (certificate failed at stage {stage})",
            stage,
        )
    return DilationMatrix(entries, coeffs, determinant, adjugate)


@dataclass(frozen=True)
class AdicVector:
    """An element A^{-j} v of the A-adic group, in canonical form.

    Canonical means j == 0 or v is not in A(Z^n), decided by the
    integer congruence adj(A) v = 0 mod det; construction normalizes,
    so equality of values is equality of fields.
    """

    A: DilationMatrix
    v: tuple[int, ...]
    j: int

    def __post_init__(self):
        v = tuple(operator.index(x) for x in self.v)
        j = operator.index(self.j)
        if len(v) != self.A.n:
            raise DimensionMismatch("vector length != matrix dimension")
        if j < 0:
            raise ValueError("denominator exponent must be >= 0")
        if all(x == 0 for x in v):
            j = 0
        else:
            det = self.A.determinant
            while j > 0:
                w = linalg.mat_vec(self.A.adjugate, v)
                if any(x % det for x in w):
                    break
                v, j = tuple(x // det for x in w), j - 1
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "j", j)

    @classmethod
    def of(cls, A: DilationMatrix, v: Iterable[int], j: int = 0) -> "AdicVector":
        return cls(A, tuple(v), j)

    @classmethod
    def zero(cls, A: DilationMatrix) -> "AdicVector":
        return cls(A, (0,) * A.n, 0)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.v)

    def ratio(self) -> tuple[tuple[int, ...], int]:
        """The element as (u, d): an integer vector over a positive integer, A^{-j} v = u / d."""
        if self.j == 0:
            return self.v, 1
        p, d = self.A.power(-self.j)
        u = linalg.mat_vec(p, self.v)
        return (u, d) if d > 0 else (tuple(-x for x in u), -d)

    def values(self) -> tuple[Fraction, ...]:
        """The element as an exact rational vector."""
        u, d = self.ratio()
        return tuple(Fraction(x, d) for x in u)

    def twist(self, m: int) -> "AdicVector":
        """The scaling action: A^{-m} applied to this element."""
        e = self.j + m
        if e >= 0:
            return AdicVector(self.A, self.v, e)
        w = linalg.mat_vec(self.A.power(-e)[0], self.v)
        return AdicVector(self.A, w, 0)

    def __add__(self, other: "AdicVector") -> "AdicVector":
        if self.A != other.A:
            raise DimensionMismatch("elements from different ambient groups")
        big = max(self.j, other.j)
        v1 = linalg.mat_vec(self.A.power(big - self.j)[0], self.v)
        v2 = linalg.mat_vec(self.A.power(big - other.j)[0], other.v)
        return AdicVector(self.A, tuple(a + b for a, b in zip(v1, v2)), big)

    def __sub__(self, other: "AdicVector") -> "AdicVector":
        return self + (-other)

    def __neg__(self) -> "AdicVector":
        return AdicVector(self.A, tuple(-x for x in self.v), self.j)

    def __repr__(self) -> str:
        return f"AdicVector(v={list(self.v)}, j={self.j})"


@dataclass(frozen=True)
class GroupElement:
    """An element (beta, m) of the semidirect product group."""

    beta: AdicVector
    m: int

    @classmethod
    def of(cls, A: DilationMatrix, v: Iterable[int], j: int = 0, m: int = 0):
        return cls(AdicVector.of(A, v, j), m)

    @classmethod
    def identity(cls, A: DilationMatrix) -> "GroupElement":
        return cls(AdicVector.zero(A), 0)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.beta + other.beta.twist(self.m), self.m + other.m)

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.beta.twist(-self.m), -self.m)

    def __repr__(self) -> str:
        return f"GroupElement(beta={self.beta!r}, m={self.m})"


@dataclass(frozen=True)
class RealPoint:
    """A point of R^n: float ``coords``, or exact ``pi_coords`` (rational multiples of pi) alone."""

    coords: tuple[float, ...] | None
    pi_coords: tuple[Fraction, ...] | None = None

    @classmethod
    def from_pi(cls, fracs: Iterable) -> "RealPoint":
        return cls(None, tuple(Fraction(f) for f in fracs))

    @classmethod
    def from_floats(cls, vals: Iterable[float]) -> "RealPoint":
        return cls(tuple(float(v) for v in vals), None)

    @property
    def dim(self) -> int:
        return len(self.coords if self.pi_coords is None else self.pi_coords)

    @cached_property
    def pi_ratio(self) -> tuple[tuple[int, ...], int]:
        """Exact points only: (p, L) with pi_coords == p / L, L the least common denominator."""
        L = math.lcm(*(f.denominator for f in self.pi_coords))
        return tuple(f.numerator * (L // f.denominator) for f in self.pi_coords), L

    def __repr__(self) -> str:
        if self.pi_coords is not None:
            return f"RealPoint(pi={[str(f) for f in self.pi_coords]})"
        return f"RealPoint({list(self.coords)})"


# e^{i pi q / 2}, q = 0..3: the quarter turns, whose values are exact
_QUARTERS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def phase_exp(t: Fraction) -> complex:
    """e^{i pi t} with the phase reduced mod 2 in rational arithmetic."""
    return _phase(t.numerator, t.denominator)


def _phase(num: int, den: int) -> complex:
    """e^{i pi num / den} for den > 0, with num reduced mod 2 den in integers.

    A quarter turn is exact; any other angle is pi times r / den, the
    correctly rounded int quotient, which is ``float`` of the reduced
    Fraction r / den mod 2 whatever factors num and den share.
    """
    r = num % (2 * den)
    q, rem = divmod(2 * r, den)
    if not rem:
        return _QUARTERS[q]
    return cmath.exp(1j * math.pi * (r / den))


def character_value(
    x: RealPoint, beta: AdicVector | tuple[tuple[int, ...], int]
) -> complex:
    """The unit complex value e^{-i<x, beta>}.

    ``beta`` is an element of the A-adic group, or any rational vector
    given as (u, d), beta = u / d with u integral and d a positive integer.
    On an exact point x = (p / L) pi the phase is -<p, u> / (L d) pi, an
    exact rational that the integer core of :func:`phase_exp` reduces
    mod 2, so u matters only mod 2 L d.  On a float point each
    beta_i = u_i / d is the correctly rounded int quotient (what
    ``float(Fraction(u_i, d))`` returns) and <x, beta> is summed left to
    right from integer 0, as :func:`linalg.mat_vec` sums, on every Python
    (from 3.12 the builtin ``sum`` compensates floats).
    """
    u, d = beta.ratio() if isinstance(beta, AdicVector) else beta
    if x.dim != len(u):
        raise DimensionMismatch("point and element dimensions differ")
    if x.pi_coords is not None:
        p, L = x.pi_ratio
        s = 0
        for pi, ui in zip(p, u):
            s += pi * ui
        return _phase(-s, L * d)
    dot = 0
    for xc, ui in zip(x.coords, u):
        dot += xc * (ui / d)
    return cmath.exp(-1j * dot)


def orbit(beta: AdicVector, K: int) -> dict[int, tuple[tuple[int, ...], int]]:
    """A^k beta for k = -K, ..., K, in that order, as (u, d) pairs for :func:`character_value`.

    With beta = A^{-j} v in canonical form, one integer step per k:

    * k >= j: A^k beta = w / 1 with w = A^{k-j} v, stepped w <- A w from
      w = v at k = j.
    * k < j: A^k beta = u / d with u = (sgn det adj(A))^{j-k} v and
      d = |det|^{j-k}, stepped u <- sgn(det) adj(A) u, d <- |det| d down
      from k = j, since A^{-1} = adj(A) / det.

    No ``AdicVector`` and no power of A is formed per k, and each pair
    has the exact value of ``beta.twist(-k)``.
    """
    A, v, j = beta.A, beta.v, beta.j
    sgn = 1 if A.determinant > 0 else -1
    down = tuple(tuple(sgn * x for x in row) for row in A.adjugate)
    below = {}
    u, d = v, 1
    for k in range(j - 1, -K - 1, -1):
        u, d = linalg.mat_vec(down, u), d * A.det_abs
        if k <= K:
            below[k] = (u, d)
    out = dict(reversed(below.items()))
    w = v
    for k in range(j, K + 1):
        if k > j:
            w = linalg.mat_vec(A.entries, w)
        out[k] = (w, 1)
    return out


def b_transform(A: DilationMatrix, x: RealPoint, k: int) -> RealPoint:
    """B^k x for B the transpose of A, exact on exact points.

    With A^k = P / d from :meth:`DilationMatrix.power`, coordinate i is
    sum_j P_ji x_j / d, summed left to right on every Python, as the
    sampled tiling pass sums.  On float points that is n products, n - 1
    sums and one division, each correctly rounded, so for k < 0 (d != 1)
    the error is at most about (n + 1) * 2^-53 * sum_j |P_ji x_j| / |d|,
    as long as P and d are below 2^53; for k >= 0 the division drops out.
    """
    if x.dim != A.n:
        raise DimensionMismatch("point and matrix dimensions differ")
    p, d = A.power(k)
    bk = linalg.transpose(p)
    if x.pi_coords is not None:
        w = linalg.mat_vec(bk, x.pi_coords)
        return RealPoint.from_pi(w if d == 1 else (c / d for c in w))
    w = linalg.mat_vec(bk, x.coords)
    return RealPoint.from_floats(w if d == 1 else (c / d for c in w))
