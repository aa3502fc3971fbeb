"""Finite-level character data on the A-adic group and its point approximants.

The dual of the A-adic group is a solenoid and is never represented
globally; a :class:`CharacterTarget` is finite cylinder data, namely
unit values on the level-J generators (each a rational-pi phase on the
exact path), from which the value on every element of level <= J is
forced.  ``approx_character`` produces an honest point of R^n whose
character matches the target on a requested finite set, witnessing that
point characters fill the dual out to any finite level.  The point is
exact, so the match is exact; the one fixed bound ``EPS`` on the float
character error catches a defect, and no setting loosens it.

``mean_coefficient`` is the normalized integral of the character over
an expanding box: exactly 1 at the identity, exactly 0 at nonzero
lattice elements, and decaying for every nonzero element as the level
grows, which is the diagonal matrix coefficient of the regular
representation seen through the characters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .boxes import BoxSet
from .errors import InconsistentTarget, LevelExceeded, NotCovered, AmbiguousScale
from .groups import AdicVector, DilationMatrix, RealPoint, b_transform, character_value, phase_exp
from .spectral import project_point

__all__ = ["EPS", "CharacterTarget", "ApproxResult", "approx_character", "mean_coefficient"]

EPS = 1e-10  # largest character error that passes


@dataclass(frozen=True)
class CharacterTarget:
    """Unit values on the level-J generators, phases as fractions of pi.

    ``gen_phases[i]`` is t_i with the target value e^{-i pi t_i} on the
    generator with denominator exponent ``level`` in the i-th
    coordinate.  ``constraints`` are additional prescribed values; they
    are validated exactly against the forced combinations and reject
    the target when no character can satisfy them.
    """

    A: DilationMatrix
    level: int
    gen_phases: tuple[Fraction, ...]
    constraints: tuple[tuple[AdicVector, Fraction], ...] = ()

    def __post_init__(self):
        if len(self.gen_phases) != self.A.n:
            raise ValueError("one generator phase per coordinate required")
        object.__setattr__(
            self, "gen_phases", tuple(Fraction(t) for t in self.gen_phases)
        )
        for beta, t in self.constraints:
            forced = self.phase(beta)
            if (forced - Fraction(t)) % 2 != 0:
                raise InconsistentTarget(
                    f"value at {beta!r} must have phase {forced} mod 2, got {Fraction(t)}"
                )

    @classmethod
    def from_phase_map(
        cls, A: DilationMatrix, phases: dict[AdicVector, Fraction]
    ) -> "CharacterTarget":
        """Build from prescribed phases; generator phases default to 0.

        The level is the deepest denominator exponent present.  Entries
        that are exactly the level-J generators fix ``gen_phases``;
        everything else (including shallower elements) is validated as a
        constraint.
        """
        level = max((b.j for b in phases), default=0)
        gens = {
            AdicVector.of(A, [1 if i == k else 0 for i in range(A.n)], level): k
            for k in range(A.n)
        }
        gen_phases = [Fraction(0)] * A.n
        constraints = []
        for beta, t in phases.items():
            if beta in gens:
                gen_phases[gens[beta]] = Fraction(t)
            else:
                constraints.append((beta, Fraction(t)))
        return cls(A, level, tuple(gen_phases), tuple(constraints))

    def _weights(self, beta: AdicVector) -> tuple[int, ...]:
        """Integer vector w with beta = A^{-level} w."""
        if beta.j > self.level:
            raise LevelExceeded(
                f"element has level {beta.j} > target level {self.level}"
            )
        return linalg.mat_vec(self.A.power(self.level - beta.j)[0], beta.v)

    def phase(self, beta: AdicVector) -> Fraction:
        """The forced phase of beta (value e^{-i pi phase}), mod 2."""
        w = self._weights(beta)
        return sum(
            (Fraction(wi) * ti for wi, ti in zip(w, self.gen_phases)), Fraction(0)
        ) % 2

    def value(self, beta: AdicVector) -> complex:
        return phase_exp(-self.phase(beta))


@dataclass
class ApproxResult:
    y: RealPoint
    error: float
    membership: dict | None = None


def approx_character(
    target: CharacterTarget, F: list[AdicVector], E: BoxSet | None = None
) -> ApproxResult:
    """Point y of R^n whose character matches the target on F.

    Solves the phase congruences <y, A^{-J} e_i> = pi t_i mod 2 pi by
    y = B^J y0 with y0 read off the reduced target phases, so the
    achieved error is zero for every consistent target, and an error
    above ``EPS`` raises.  When a base set is supplied the point is also
    located inside the union of its dilates; a point falling on the
    null set where that fails (e.g. the origin) is retried with up to
    seven lattice-shifted solves.
    """
    A = target.A
    for beta in F:
        if beta.j > target.level:
            raise LevelExceeded(
                f"element of level {beta.j} exceeds target level {target.level}"
            )
    reduced = [1 - ((1 - t) % 2) for t in target.gen_phases]  # into (-1, 1]

    def build(shift: list[int]) -> RealPoint:
        y0 = RealPoint.from_pi(r + 2 * s for r, s in zip(reduced, shift))
        return b_transform(A, y0, target.level)

    y = build([0] * A.n)
    membership = None
    if E is not None:
        membership = {"located": False}
        shifts = ([s if i == k else 0 for i in range(A.n)] for k in range(A.n) for s in (1, -1, 2, -2))
        for candidate in itertools.chain([y], map(build, itertools.islice(shifts, 7))):
            try:
                rep, p = project_point(candidate, E, A)
            except (NotCovered, AmbiguousScale):
                continue
            y = candidate
            membership = {"level": p, "representative": [str(c) for c in rep.pi_coords]}
            break
    err = max(
        (abs(character_value(y, beta) - target.value(beta)) for beta in F),
        default=0.0,
    )
    if err > EPS:
        raise InconsistentTarget(f"achieved error {err:.3e} exceeds eps {EPS:.1e}")
    return ApproxResult(y, float(err), membership)


def mean_coefficient(beta: AdicVector, J: int) -> complex:
    """Normalized character integral over the level-J expanded cube.

    Closed form: the product over axes of sin(pi theta)/(pi theta) with
    theta the coordinates of A^J beta.  Exactly 1 at beta = 0; exactly 0
    whenever some coordinate of A^J beta is a nonzero integer (so for
    every nonzero lattice element at every J >= 0); and decaying to 0
    with J for every nonzero beta.
    """
    theta = beta.twist(-J).values()  # A^J beta, exact
    prod = 1.0
    for t in theta:
        if t == 0:
            continue
        if t.denominator == 1:
            return complex(0.0)
        tf = float(t)
        prod *= math.sin(math.pi * tf) / (math.pi * tf)
    return complex(prod)
