import math
import random
from fractions import Fraction

import pytest

from waverep.density import CharacterTarget, approx_character, mean_coefficient
from waverep.errors import InconsistentTarget, LevelExceeded
from waverep.groups import AdicVector, character_value, validate_dilation
from waverep.tiling import shannon_set

A2 = validate_dilation([[2]])
A23 = validate_dilation([[2, 0], [0, 3]])
E = shannon_set()


def adic(v, j=0, A=A2):
    if isinstance(v, int):
        v = (v,)
    return AdicVector.of(A, v, j)


class TestCharacterTarget:
    def test_level_zero_minus_one(self):
        # value -1 on the integer generator: phase 1
        t = CharacterTarget(A2, 0, (Fraction(1),))
        assert t.value(adic(1)) == -1

    def test_forced_square(self):
        # value i on the half generator forces -1 on the integers
        t = CharacterTarget.from_phase_map(A2, {adic(1, 1): Fraction(-1, 2)})
        assert t.value(adic(1, 1)) == 1j
        assert t.value(adic(1)) == -1

    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentTarget):
            CharacterTarget.from_phase_map(
                A2, {adic(1, 1): Fraction(0), adic(1): Fraction(1)}
            )

    def test_consistent_constraint_accepted(self):
        t = CharacterTarget.from_phase_map(
            A2, {adic(1, 1): Fraction(1, 2), adic(1): Fraction(1)}
        )
        assert t.value(adic(1)) == -1

    def test_level_exceeded(self):
        t = CharacterTarget(A2, 1, (Fraction(1, 2),))
        with pytest.raises(LevelExceeded):
            t.phase(adic(1, 3))


class TestApproxCharacter:
    def test_committed_level_zero(self):
        t = CharacterTarget(A2, 0, (Fraction(1),))
        res = approx_character(t, [adic(1)])
        assert res.y.pi_coords == (Fraction(1),)
        assert res.error == 0.0

    def test_committed_level_one(self):
        # value i on the half generator: y = -pi reproduces it and its square
        t = CharacterTarget.from_phase_map(A2, {adic(1, 1): Fraction(-1, 2)})
        res = approx_character(t, [adic(1, 1), adic(1)])
        assert res.y.pi_coords == (Fraction(-1),)
        assert character_value(res.y, adic(1, 1)) == 1j
        assert character_value(res.y, adic(1)) == -1
        assert res.error == 0.0

    def test_random_targets_dilation_two(self):
        rng = random.Random(3)
        for _ in range(50):
            level = rng.randint(0, 8)
            t = CharacterTarget(
                A2, level, (Fraction(rng.randint(-16, 16), rng.randint(1, 16)),)
            )
            F = [adic(rng.randint(-20, 20), rng.randint(0, level)) for _ in range(6)]
            res = approx_character(t, F)
            assert res.error <= 1e-10

    def test_random_targets_diag_2_3(self):
        rng = random.Random(4)
        for _ in range(50):
            level = rng.randint(0, 8)
            t = CharacterTarget(
                A23,
                level,
                (
                    Fraction(rng.randint(-16, 16), rng.randint(1, 16)),
                    Fraction(rng.randint(-16, 16), rng.randint(1, 16)),
                ),
            )
            F = [
                AdicVector.of(
                    A23,
                    (rng.randint(-20, 20), rng.randint(-20, 20)),
                    rng.randint(0, level),
                )
                for _ in range(6)
            ]
            res = approx_character(t, F)
            assert res.error <= 1e-10

    def test_level_exceeded_in_test_set(self):
        t = CharacterTarget(A2, 1, (Fraction(1, 2),))
        with pytest.raises(LevelExceeded):
            approx_character(t, [adic(1, 3)])

    def test_membership_located(self):
        t = CharacterTarget(A2, 0, (Fraction(1),))
        res = approx_character(t, [adic(1)], E=E)
        assert res.membership is not None and "level" in res.membership

    def test_membership_located_far_above_the_cap(self):
        # y = 2^70/3 pi, and B^-68 y = 4/3 pi lies in E: one scale past the old |p| <= 64
        t = CharacterTarget(A2, 70, (Fraction(1, 3),))
        res = approx_character(t, [adic(1, 70)], E=E)
        assert res.membership == {"level": -68, "representative": ["4/3"]}

    def test_trivial_target_retries_off_origin(self):
        # the zero solution lies on the uncovered null set; the retry shifts it
        t = CharacterTarget(A2, 0, (Fraction(0),))
        res = approx_character(t, [adic(1), adic(2)], E=E)
        assert res.membership is not None and "level" in res.membership
        assert res.error == 0.0
        assert res.y.pi_coords != (Fraction(0),)


class TestMeanCoefficient:
    def test_identity_element(self):
        assert mean_coefficient(adic(0), 0) == 1.0
        assert mean_coefficient(adic(0), 7) == 1.0

    def test_integer_exact_zero(self):
        assert mean_coefficient(adic(1), 0) == 0.0
        rng = random.Random(5)
        for _ in range(20):
            v = rng.randint(1, 50) * rng.choice([1, -1])
            assert mean_coefficient(adic(v), 0) == 0.0
            assert mean_coefficient(adic(v), rng.randint(0, 6)) == 0.0

    def test_committed_half_value(self):
        got = mean_coefficient(adic(1, 1), 0)
        assert got.real == pytest.approx(2 / math.pi)
        # after three doublings the element is integral: exact zero
        assert abs(mean_coefficient(adic(1, 1), 3)) < 0.09

    def test_decay_bound(self):
        # once every coordinate of A^J beta has magnitude >= 2 the product
        # of per-axis bounds 1/(pi |theta|) is below 1/2
        rng = random.Random(6)
        for A in (A2, A23):
            for _ in range(30):
                beta = AdicVector.of(
                    A, [rng.randint(1, 9) for _ in range(A.n)], rng.randint(0, 3)
                )
                for J in range(0, 10):
                    theta = beta.twist(-J).values()
                    if all(abs(t) >= 2 for t in theta):
                        assert abs(mean_coefficient(beta, J)) < 0.5

    def test_nonzero_element_decays_below_threshold(self):
        rng = random.Random(7)
        for _ in range(20):
            beta = adic(rng.randint(1, 15) * rng.choice([1, -1]), rng.randint(0, 3))
            assert abs(mean_coefficient(beta, 8)) < 0.05

    def test_2d_mixed(self):
        beta = AdicVector.of(A23, (1, 1), 1)
        # A^0 beta = (1/2, 1/3): product of two sinc values
        got = mean_coefficient(beta, 0)
        expected = (math.sin(math.pi / 2) / (math.pi / 2)) * (
            math.sin(math.pi / 3) / (math.pi / 3)
        )
        assert got.real == pytest.approx(expected)
        # by J = 1 the element is integral: exact zero
        assert mean_coefficient(beta, 1) == 0.0
