"""Frequency-domain function families with closed-form inner products.

A :class:`ModulatedBoxSum` is a finite sum of terms
c * e^{-i<beta, xi>} * 1_R(xi) with beta in the A-adic group and R a
rational box.  The family is closed under modulation always and under
the frequency-domain scaling operator when the frequency matrix is
diagonal (or n == 1), and every L2 pairing factors into one-dimensional
exponential integrals whose endpoint phases are rational multiples of
pi, reduced exactly.  A pairing is formed as its :class:`TermPair` list
(the integer ends of the boxes that meet, with their coefficients and
phase offsets) and evaluated by :func:`pairing`, at the pairs' own phases
or shifted by an extra exact modulation.  The boxes meet on one integer
grid per axis, so forming the list compares integers alone, and
:func:`grid_pairs` gives the lists of both orders from one pass.

The one-dimensional integral has one implementation, :func:`axis_integral`,
on integer numerators and denominators, reduced or not, with no
``Fraction`` arithmetic per evaluation; its bits are those of the same
formula on reduced fractions.

A :class:`LayerFunction` is a finite window of k-indexed layers, each a
modulated box sum supported in a base set; it carries the functions on
E x Z produced by the unitary change of realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .boxes import Box, BoxSet, grid_scales, grid_span
from .errors import DimensionMismatch
from .groups import AdicVector, DilationMatrix, RealPoint, _phase, character_value, phase_exp

__all__ = [
    "Term",
    "TermPair",
    "ModulatedBoxSum",
    "LayerFunction",
    "axis_integral",
    "pairing",
    "grid_pairs",
    # the Fraction form of ``_phase``, still looked up on this module by the benchmark's tracer checks
    "phase_exp",
]


@dataclass(frozen=True)
class Term:
    coef: complex
    beta: AdicVector
    box: Box


@dataclass(frozen=True)
class TermPair:
    """One term pair of an L2 pairing: c_s * conj(c_t), and per axis the common box and beta_s - beta_t
    on integers, (lo_num, lo_den, hi_num, hi_den, num, den) with positive denominators, not necessarily
    reduced: the phase is (u_s d_t - u_t d_s, d_s d_t) for beta = u / d.
    """

    coef: complex
    ends: tuple[tuple[int, int, int, int, int, int], ...]


# the phase width |theta| (b - a), in units of pi, below which axis_integral takes its sine form
_THIN = 2.0**-10


def axis_integral(an: int, ad: int, bn: int, bd: int, tn: int, td: int) -> complex:
    """Exact-phase evaluation of the integral of e^{-i theta t} over [a*pi, b*pi].

    The ends and the phase are integer pairs, a = an / ad, b = bn / bd and
    theta = tn / td, with positive denominators.  The fractions need not be
    reduced: ``_phase`` reduces its angle mod 2 in integers and gives the
    same value whatever factors its numerator and denominator share, and an
    int true division is correctly rounded, so ``tn / td`` is
    ``float(theta)``.

    The integral is the difference of the two endpoint phases, each reduced
    exactly, over -i theta.  That difference cancels as the phase width
    w = |theta| (b - a) shrinks: its error is about 13 u / |theta|
    (u = 2^-53), against an integral of about w pi / |theta|.  Below
    ``_THIN`` the integral is 2 sin(theta (b - a) pi / 2) / theta times
    the exactly reduced phase e^{-i theta (a + b) pi / 2}, whose relative
    error stays below 16 u at any width, since the sine is well conditioned
    there.  Wider boxes keep the difference form and its bits; its error
    there is below 13 u / (pi _THIN), about 5e-13, of the integral's scale
    w pi / |theta|.
    """
    if tn == 0:
        return complex((bn * ad - an * bd) / (ad * bd) * math.pi)
    gap = _phase(-tn * bn, td * bd) - _phase(-tn * an, td * ad)
    if abs(gap) < 4 * _THIN:  # |gap| = 2 |sin(w pi / 2)|, below 4 w when w is small
        width = tn * (bn * ad - an * bd) / (td * ad * bd)
        if abs(width) < _THIN:
            mid = _phase(-tn * (an * bd + bn * ad), 2 * td * ad * bd)
            return 2 * math.sin(width * math.pi / 2) / (tn / td) * mid
    return gap / complex(0, -(tn / td))


def pairing(pairs: Iterable[TermPair], shift: Sequence[tuple[int, int]] | None = None) -> complex:
    """Sum over the pairs of coef * prod_k of the integral of e^{-i theta_k t} over the box.

    theta = phase + shift is the exact phase of the pair once the first
    sum is modulated by e^{-i<shift, xi>}; no shift is the zero shift.
    The shift is one (numerator, denominator) integer pair per axis, the
    denominator positive, and theta_k is the unreduced
    (p_num s_den + s_num p_den) / (p_den s_den).
    """
    total = 0j
    for pair in pairs:
        prod = complex(1.0)
        for k, (an, ad, bn, bd, tn, td) in enumerate(pair.ends):
            if shift is not None:
                sn, sd = shift[k]
                tn, td = tn * sd + sn * td, td * sd
            prod *= axis_integral(an, ad, bn, bd, tn, td)
            if prod == 0:
                break
        total += pair.coef * prod
    return total


# a term on an integer grid: its box's span, its modulation as (u, d) and its coefficient
GridTerm = tuple[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], int], complex]


def _grid_terms(f: "ModulatedBoxSum", scales: Sequence[int]) -> list[GridTerm]:
    return [(grid_span(t.box, scales), t.beta.ratio(), t.coef) for t in f.terms]


def _meeting(
    mine: Sequence[GridTerm], theirs: Sequence[GridTerm], scales: Sequence[int]
) -> list[tuple[tuple[int, int], TermPair]]:
    """((i, j), pair) for each term i of ``mine`` and j of ``theirs`` whose boxes meet, i slowest.

    The boxes are spans on the integer grid of ``scales``, so two boxes meet
    by integer comparisons and the common box's ends are written as (x, L_k)
    directly; :func:`axis_integral` gives the bits of the reduced ends.
    """
    out = []
    for i, ((slo, shi), (su, sd), sc) in enumerate(mine):
        for j, ((tlo, thi), (tu, td), tc) in enumerate(theirs):
            lo, hi = tuple(map(max, slo, tlo)), tuple(map(min, shi, thi))
            if all(map(int.__lt__, lo, hi)):
                ends = tuple(
                    (a, s, b, s, x * td - y * sd, sd * td) for a, b, s, x, y in zip(lo, hi, scales, su, tu)
                )
                out.append(((i, j), TermPair(sc * tc.conjugate(), ends)))
    return out


def grid_pairs(
    mine: Sequence[GridTerm], theirs: Sequence[GridTerm], scales: Sequence[int]
) -> tuple[tuple[TermPair, ...], tuple[TermPair, ...]]:
    """The term pairs of <f, g> and of <g, f>, from one pass over the boxes that meet.

    f and g are given as their terms on the integer grid of ``scales``:
    (span, (u, d), coef), the box's integer ends, the modulation u / d and
    the coefficient.  The pairs of <g, f> are those of <f, g> in transposed
    order, each with its coefficient conjugated and its phase numerators
    negated: what ``g.term_pairs(f)`` forms, and :func:`pairing` gives them
    the same bits.
    """
    met = _meeting(mine, theirs, scales)
    mirror = (
        TermPair(p.coef.conjugate(), tuple((a, ad, b, bd, -tn, td) for a, ad, b, bd, tn, td in p.ends))
        for _, p in sorted(met, key=lambda e: e[0][::-1])
    )
    return tuple(p for _, p in met), tuple(mirror)


@dataclass(frozen=True)
class ModulatedBoxSum:
    """f(xi) = sum of c * e^{-i<beta, xi>} * 1_R(xi)."""

    A: DilationMatrix
    terms: tuple[Term, ...]

    @property
    def dim(self) -> int:
        return self.A.n

    @classmethod
    def zero(cls, A: DilationMatrix) -> "ModulatedBoxSum":
        return cls(A, ())

    @classmethod
    def of(cls, A: DilationMatrix, entries: Iterable[tuple]) -> "ModulatedBoxSum":
        """Build from (coef, beta, box) triples."""
        terms = tuple(Term(complex(c), b, box) for c, b, box in entries)
        for t in terms:
            if t.box.dim != A.n or t.beta.A != A:
                raise DimensionMismatch("term dimension mismatch")
        return cls(A, terms)

    @classmethod
    def piecewise(cls, A: DilationMatrix, pieces: Iterable[tuple[Box, complex]]):
        """Piecewise-constant function: no modulations."""
        zero = AdicVector.zero(A)
        return cls(A, tuple(Term(complex(c), zero, box) for box, c in pieces))

    @classmethod
    def indicator(cls, A: DilationMatrix, S: BoxSet, coef: complex = 1.0):
        return cls.piecewise(A, [(b, coef) for b in S.boxes])

    # --- frequency-domain operators -------------------------------------

    def modulated(self, beta: AdicVector) -> "ModulatedBoxSum":
        """Multiplication by e^{-i<beta, xi>} (exactly unitary)."""
        return ModulatedBoxSum(
            self.A, tuple(Term(t.coef, t.beta + beta, t.box) for t in self.terms)
        )

    def dilated(self, m: int) -> "ModulatedBoxSum":
        """m-fold frequency-domain scaling operator.

        Boxes map within the family only for diagonal matrices (Box.dilate
        raises NonDiagonalDilation otherwise); the modulation parameter
        stays in the A-adic group and the coefficient picks up |det|^{-m/2}.
        """
        if m == 0:
            return self
        scale = float(self.A.det_abs) ** (-m / 2.0)
        terms = (Term(t.coef * scale, t.beta.twist(m), t.box.dilate(self.A, m)) for t in self.terms)
        return ModulatedBoxSum(self.A, tuple(terms))

    # --- algebra ---------------------------------------------------------

    def __add__(self, other: "ModulatedBoxSum") -> "ModulatedBoxSum":
        if self.A != other.A:
            raise DimensionMismatch("ambient matrices differ")
        return ModulatedBoxSum(self.A, self.terms + other.terms)

    def __sub__(self, other: "ModulatedBoxSum") -> "ModulatedBoxSum":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "ModulatedBoxSum":
        return ModulatedBoxSum(
            self.A, tuple(Term(t.coef * c, t.beta, t.box) for t in self.terms)
        )

    def collect(self) -> "ModulatedBoxSum":
        """Merge identical (beta, box) terms; drop exact-zero coefficients."""
        acc: dict = {}
        for t in self.terms:
            key = (t.beta, t.box)
            acc[key] = acc.get(key, 0j) + t.coef
        terms = tuple(
            Term(c, beta, box)
            for (beta, box), c in sorted(
                acc.items(), key=lambda kv: (kv[0][1].lo, kv[0][1].hi, kv[0][0].j, kv[0][0].v)
            )
            if c != 0
        )
        return ModulatedBoxSum(self.A, terms)

    def support(self) -> BoxSet:
        return BoxSet.of(self.dim, [t.box for t in self.terms])

    # --- analysis ---------------------------------------------------------

    def inner(self, other: "ModulatedBoxSum") -> complex:
        """L2 pairing <self, other>: its term pairs evaluated with no extra phase."""
        return pairing(self.term_pairs(other))

    def term_pairs(self, other: "ModulatedBoxSum") -> tuple[TermPair, ...]:
        """The term pairs of <self, other> whose boxes meet, in pairing order.

        These depend on the boxes and modulations alone, so a caller that
        pairs the same two sums under many extra modulations forms them
        once and evaluates them with :func:`pairing` per modulation.
        """
        if self.A != other.A:
            raise DimensionMismatch("ambient matrices differ")
        scales = grid_scales(self.dim, [t.box for t in self.terms + other.terms])
        mine = _grid_terms(self, scales)
        theirs = mine if other is self else _grid_terms(other, scales)
        return tuple(pair for _, pair in _meeting(mine, theirs, scales))

    def norm_sq(self) -> float:
        return max(self.inner(self).real, 0.0)

    def eval(self, x: RealPoint) -> complex:
        val = 0j
        for t in self.terms:
            if t.box.contains_point(x):
                val += t.coef * character_value(x, t.beta)
        return val

    def __repr__(self) -> str:
        return f"ModulatedBoxSum({len(self.terms)} terms, dim={self.dim})"


@dataclass(frozen=True)
class LayerFunction:
    """A function on E x Z: one modulated box sum per layer k in a finite window."""

    A: DilationMatrix
    k_min: int
    k_max: int
    layers: dict[int, ModulatedBoxSum]
    truncation_mass: float = 0.0

    def __post_init__(self):
        for k in self.layers:
            if not (self.k_min <= k <= self.k_max):
                raise ValueError("layer outside the window")

    @property
    def dim(self) -> int:
        return self.A.n

    def layer(self, k: int) -> ModulatedBoxSum:
        return self.layers.get(k, ModulatedBoxSum.zero(self.A))

    def norm_sq(self) -> float:
        return sum(layer.norm_sq() for layer in self.layers.values())

    def eval(self, x: RealPoint, k: int) -> complex:
        return self.layer(k).eval(x)

    def __sub__(self, other: "LayerFunction") -> "LayerFunction":
        if self.A != other.A:
            raise DimensionMismatch("ambient matrices differ")
        k_min = min(self.k_min, other.k_min)
        k_max = max(self.k_max, other.k_max)
        layers = {}
        for k in range(k_min, k_max + 1):
            diff = (self.layer(k) - other.layer(k)).collect()
            if diff.terms:
                layers[k] = diff
        return LayerFunction(self.A, k_min, k_max, layers)

    def __repr__(self) -> str:
        return (
            f"LayerFunction(window=[{self.k_min}, {self.k_max}], "
            f"{len(self.layers)} nonzero layers)"
        )
