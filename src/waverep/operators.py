"""Group-element operators in the frequency domain and on finite fibers.

The group element (beta, m) acts on L2(R^n) in the frequency picture as
modulation-then-scaling; on the layered realization it acts by a phase
times a shift in the layer index; and over a single point x it acts on
the sequence space by

    fiber:   (M g)(k) = e^{-i<x, A^k beta>}  g(k - m),
    induced: (M g)(k) = e^{-i<x, A^{-k} beta>} g(k + m),

which the reflection g(k) -> g(-k) exchanges.  So there is one phase
table: the induced operator is the reflection conjugate of the fiber
one.  Everything is truncated to a finite index window; operator
identities are compared on the interior sub-window untouched by the
truncation, where they hold exactly.

The table walks the orbit k -> A^k beta by a one-step integer
recurrence (:func:`groups.orbit`): with beta = A^{-j} v, w <- A w for
k >= j and u <- adj(A) u over a growing power of det for k < j.  Each
phase is one :func:`groups.character_value` of the exact value A^k beta,
so it has the bits of the per-k evaluation: an
exact phase is what :func:`groups.phase_exp` gives for the same
rational, reduced mod 2 by its integer core, and a float phase sums the
same correctly rounded quotients in the same order.

Library-only: ``rep`` reaches :func:`fiber_operator` and
:func:`interior_deviation` alone.  The operator identities compare two
sides that no one report holds, so the library and its tests check them
(criteria 4, 5 and 7 of ``tests/test_acceptance.py``): conjugation
(:func:`apply_group_element`, :func:`apply_layer_rep`,
:func:`conjugation_defect` and the window :func:`spectral.layer_span`),
the orbit shift (:func:`induced_operator`, :func:`orbit_shift_defect`) and
the commutant (:func:`multiply_step`, :func:`invariant_step_extension`,
:func:`commutator_with_dilation`, :func:`commutator_with_modulation`,
:func:`find_noninvariant_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxes import Box, BoxSet
from .errors import WindowTooSmall
from .funcs import LayerFunction, ModulatedBoxSum, Term
from .groups import (
    AdicVector,
    DilationMatrix,
    GroupElement,
    RealPoint,
    b_transform,
    character_value,
    orbit,
)
from .spectral import layer_span, to_layers

__all__ = [
    "apply_group_element",
    "apply_layer_rep",
    "conjugation_defect",
    "FiberOperator",
    "fiber_operator",
    "induced_operator",
    "interior_deviation",
    "orbit_shift_defect",
    "multiply_step",
    "invariant_step_extension",
    "commutator_with_dilation",
    "commutator_with_modulation",
    "find_noninvariant_witness",
]


# --- frequency-domain action ------------------------------------------------


def apply_group_element(g: GroupElement, f: ModulatedBoxSum) -> ModulatedBoxSum:
    """The operator of (beta, m): modulation after m-fold scaling."""
    return f.dilated(g.m).modulated(g.beta)


# --- layered action -----------------------------------------------------------


def apply_layer_rep(g: GroupElement, F: LayerFunction) -> LayerFunction:
    """The layered action: phase e^{-i<x, A^k beta>} times a shift k -> k - m."""
    A = F.A
    layers: dict[int, ModulatedBoxSum] = {}
    lost = 0.0
    for k_src, layer in F.layers.items():
        k = k_src + g.m
        if F.k_min <= k <= F.k_max:
            layers[k] = layer.modulated(g.beta.twist(-k))
        else:
            lost += layer.norm_sq()
    total = F.norm_sq()
    if total > 0 and lost > 1e-9 * total:
        raise WindowTooSmall(
            f"shift by {g.m} pushes {lost:.3e} of the mass outside the window"
        )
    return LayerFunction(A, F.k_min, F.k_max, layers)


def conjugation_defect(
    g: GroupElement,
    f: ModulatedBoxSum,
    E: BoxSet,
    A: DilationMatrix,
) -> float:
    """Norm of (forward of the acted function) minus (layer action of the forward).

    This is the computational form of the unitary equivalence between
    the frequency-domain representation and its layered realization.
    """
    span = layer_span(f, E, A)
    k_min = span[0] - abs(g.m) - 2
    k_max = span[1] + abs(g.m) + 2
    lhs = to_layers(apply_group_element(g, f), E, A, k_min, k_max)
    rhs = apply_layer_rep(g, to_layers(f, E, A, k_min, k_max))
    return (lhs - rhs).norm_sq() ** 0.5


# --- fiber operators ----------------------------------------------------------


@dataclass(frozen=True)
class FiberOperator:
    """Truncated shift-with-phases operator on the sequence space.

    Acts by (M g)(k) = phases[k] * g(k - shift) for k in the valid key
    range; keys shrink under composition, which is exactly the interior
    block where the untruncated identity holds.
    """

    shift: int
    phases: dict[int, complex]

    def compose(self, other: "FiberOperator") -> "FiberOperator":
        return FiberOperator(self.shift + other.shift, self.apply(other.phases))

    def reflect_conjugate(self) -> "FiberOperator":
        """Conjugation by the reflection g(k) -> g(-k)."""
        phases = {-k: p for k, p in self.phases.items()}
        return FiberOperator(-self.shift, phases)

    def shift_conjugate(self, a: int) -> "FiberOperator":
        """Conjugation by the translation (S_a g)(k) = g(k - a)."""
        phases = {k - a: p for k, p in self.phases.items()}
        return FiberOperator(self.shift, phases)

    def apply(self, vector: dict[int, complex]) -> dict[int, complex]:
        return {
            k: p * vector[k - self.shift]
            for k, p in self.phases.items()
            if (k - self.shift) in vector
        }


def fiber_operator(x: RealPoint, g: GroupElement, K: int) -> FiberOperator:
    """Truncation of the pointwise layer action over x to the window [-K, K].

    The phase at k is character_value(x, A^k beta).  The values A^k beta
    come from :func:`groups.orbit`, one integer matrix-vector step per k
    (A upward from k = j, sign-adjusted adj(A) over |det| downward).
    Each value equals ``g.beta.twist(-k)`` exactly, so an
    exact phase is phase_exp's value for the same rational, and a float
    phase rounds each coordinate u_i / d once, as ``float(Fraction)``
    does, and sums them in the same order: every phase keeps the bits of
    the per-k table, and no AdicVector or power of A is built per k.
    """
    phases = {k: character_value(x, w) for k, w in orbit(g.beta, K).items()}
    return FiberOperator(g.m, phases)


def induced_operator(x: RealPoint, g: GroupElement, K: int) -> FiberOperator:
    """Truncation of the representation induced from the character over x.

    The reflection conjugate of the fiber table: the fiber phase at -k is
    the character at A^{-k} beta, so each phase has the bits of a direct one.
    """
    return fiber_operator(x, g, K).reflect_conjugate()


def interior_deviation(m1: FiberOperator, m2: FiberOperator) -> float:
    """Sup difference of the two operators on their common interior block.

    Operators with different shifts differ structurally; 2.0 (the
    diameter of the phase set) is returned in that case.
    """
    if m1.shift != m2.shift:
        return 2.0
    common = set(m1.phases) & set(m2.phases)
    if not common:
        raise WindowTooSmall("no common interior block")
    return max(abs(m1.phases[k] - m2.phases[k]) for k in common)


def orbit_shift_defect(
    x: RealPoint, m: int, g: GroupElement, K: int, A: DilationMatrix
) -> float:
    """Interior deviation at the derived offset a = m.

    Conjugating the induced operator over B^m x by the translation of
    offset m reproduces the induced operator over x; the orientation was
    fixed against a search over every offset of the window (the tests'
    ``find_orbit_shift``).
    """
    if K <= abs(m) + abs(g.m):
        raise WindowTooSmall("window too small for the requested orbit step")
    y = b_transform(A, x, m)
    moved = induced_operator(y, g, K)
    return interior_deviation(moved.shift_conjugate(m), induced_operator(x, g, K))


# --- commutant spot checks ------------------------------------------------------


def multiply_step(
    pieces: list[tuple[Box, complex]], f: ModulatedBoxSum
) -> ModulatedBoxSum:
    """Multiplication by the step function sum of value * indicator(piece)."""
    out = []
    for t in f.terms:
        for box, val in pieces:
            c = t.box.intersect(box)
            if c is not None:
                out.append(Term(t.coef * val, t.beta, c))
    return ModulatedBoxSum(f.A, tuple(out))


def invariant_step_extension(
    pieces: list[tuple[Box, complex]], A: DilationMatrix, j_span: int
) -> list[tuple[Box, complex]]:
    """Spread a step function on a base set E across the dilates of E.

    The extension g(xi) = g0(representative of xi) is constant along
    dilation orbits, which is exactly the commutant membership
    condition g(xi) = g(B xi).
    """
    return [
        (box.dilate(A, j), val)
        for box, val in pieces
        for j in range(-j_span, j_span + 1)
    ]


def commutator_with_dilation(
    pieces: list[tuple[Box, complex]], f: ModulatedBoxSum
) -> float:
    """Norm of (M_g D - D M_g) f for the step multiplier g."""
    lhs = multiply_step(pieces, f.dilated(1))
    rhs = multiply_step(pieces, f).dilated(1)
    return ((lhs - rhs).collect().norm_sq()) ** 0.5


def commutator_with_modulation(
    pieces: list[tuple[Box, complex]], v: AdicVector, f: ModulatedBoxSum
) -> float:
    """Norm of (M_g T_v - T_v M_g) f; zero for every multiplier."""
    lhs = multiply_step(pieces, f.modulated(v))
    rhs = multiply_step(pieces, f).modulated(v)
    return ((lhs - rhs).collect().norm_sq()) ** 0.5


def find_noninvariant_witness(
    pieces: list[tuple[Box, complex]],
    A: DilationMatrix,
    j_span: int = 4,
    within: BoxSet | None = None,
) -> tuple[ModulatedBoxSum, float] | None:
    """Search for a vector exposing a multiplier outside the commutant.

    Tries indicators of the multiplier's pieces and of their dilates;
    returns the first with dilation-commutator norm above 0.1.
    ``within`` restricts candidates to a region (a finitely extended
    multiplier is only scale-invariant inside its extension range).
    """
    candidates = [box.dilate(A, j) for box, _ in pieces for j in range(-j_span, j_span + 1)]
    for box in candidates:
        if within is not None and not BoxSet.of(A.n, [box]).subtract(within).is_empty:
            continue
        f = ModulatedBoxSum.piecewise(A, [(box, 1.0)])
        norm = commutator_with_dilation(pieces, f)
        if norm > 0.1:
            return f, norm
    return None
