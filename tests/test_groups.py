import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverep.errors import DimensionMismatch, NotExpansive, SingularMatrix
from waverep.groups import (
    AdicVector,
    GroupElement,
    RealPoint,
    b_transform,
    character_value,
    orbit,
    phase_exp,
    validate_dilation,
)
from waverep.linalg import identity, mat_mul, mat_vec, transpose
from check_summation_order import character_mismatches, fiber_mismatches, mismatches
from util import (
    expansive,
    float_bits,
    ref_b_transform,
    ref_canonical,
    ref_phase_exp,
    ref_solve,
    ref_values,
)

A2 = validate_dilation([[2]])
A23 = validate_dilation([[2, 0], [0, 3]])


def adic(v, j=0, A=A2):
    if isinstance(v, int):
        v = (v,)
    return AdicVector.of(A, v, j)


def elem(v, j=0, m=0, A=A2):
    return GroupElement(adic(v, j, A), m)


class TestValidation:
    def test_dilation_by_two(self):
        assert A2.det_abs == 2
        assert A2.determinant == 2

    def test_unit_eigenvalue_rejected(self):
        with pytest.raises(NotExpansive):
            validate_dilation([[1]])

    def test_antidiagonal_two(self):
        # eigenvalues +-2, roots of x^2 - 4
        m = validate_dilation([[0, 2], [2, 0]])
        assert m.det_abs == 4
        assert m.char_coeffs == (-4, 0, 1)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            validate_dilation([[1, 1], [1, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate_dilation([[1, 2, 3], [4, 5, 6]])

    def test_mixed_spectrum_rejected(self):
        # eigenvalues 3 and 1/2 are not both outside the unit circle
        with pytest.raises(NotExpansive):
            validate_dilation([[3, 0], [0, 1]])
        with pytest.raises(NotExpansive):
            validate_dilation([[2, 0], [0, -1]])

    def test_rotation_like_accepted(self):
        m = validate_dilation([[1, -1], [1, 1]])  # eigenvalues 1 +- i
        assert m.det_abs == 2

    def test_certificate_matches_numpy_eigenvalues(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.choice([1, 2, 3])
            raw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            arr = np.array(raw, dtype=float)
            if abs(np.linalg.det(arr)) < 0.5:
                continue
            moduli = np.abs(np.linalg.eigvals(arr))
            # skip cases too close to the unit circle to trust floats
            if np.any(np.abs(moduli - 1.0) < 1e-9):
                continue
            expected = bool(np.all(moduli > 1.0))
            try:
                validate_dilation(raw)
                got = True
            except NotExpansive:
                got = False
            assert got == expected, raw


class TestCanonicalForm:
    def test_reduces_even_numerator(self):
        assert adic(2, 1) == adic(1, 0)

    def test_odd_numerator_irreducible(self):
        a = adic(3, 2)
        assert (a.v, a.j) == ((3,), 2)

    def test_zero_collapses(self):
        assert adic(0, 5) == AdicVector.zero(A2)

    def test_canonical_preserves_value(self):
        rng = random.Random(3)
        for _ in range(50):
            v = rng.randint(-40, 40)
            j = rng.randint(0, 5)
            a = adic(v, j)
            assert a.values()[0] == Fraction(v, 2**j)

    def test_2d_reduction(self):
        a = AdicVector.of(A23, (2, 3), 1)
        assert (a.v, a.j) == ((1, 1), 0)
        b = AdicVector.of(A23, (1, 3), 1)
        assert (b.v, b.j) == ((1, 3), 1)

    def test_idempotent(self):
        rng = random.Random(19)
        for _ in range(40):
            a = adic(rng.randint(-64, 64), rng.randint(0, 6))
            assert AdicVector.of(A2, a.v, a.j) == a


class TestTwist:
    def test_positive_twist(self):
        assert adic(1).twist(1) == adic(1, 1)

    def test_negative_twist(self):
        assert adic(1, 1).twist(-1) == adic(1, 0)

    def test_zero_twist_identity(self):
        a = adic(5, 3)
        assert a.twist(0) == a

    @settings(max_examples=60, deadline=None)
    @given(
        v1=st.integers(-30, 30),
        j1=st.integers(0, 4),
        v2=st.integers(-30, 30),
        j2=st.integers(0, 4),
        m=st.integers(-4, 4),
        m2=st.integers(-4, 4),
    )
    def test_twist_is_automorphism(self, v1, j1, v2, j2, m, m2):
        a, b = adic(v1, j1), adic(v2, j2)
        assert (a + b).twist(m) == a.twist(m) + b.twist(m)
        assert a.twist(m + m2) == a.twist(m).twist(m2)


class TestGroupLaw:
    def test_identity(self):
        e = GroupElement.identity(A2)
        g = elem(1, 1, m=2)
        assert e * g == g
        assert g * e == g

    def test_committed_product(self):
        # (1/2, 1) * (1/2, 0) = (3/4, 1)
        got = elem(1, 1, m=1) * elem(1, 1, m=0)
        assert got == elem(3, 2, m=1)

    def test_inverse_examples(self):
        assert elem(0, m=5).inverse() == elem(0, m=-5)
        assert elem(1).inverse() == elem(-1)
        assert elem(1, 1, m=1).inverse() == elem(-1, 0, m=-1)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.tuples(
            *[st.tuples(st.integers(-20, 20), st.integers(0, 3), st.integers(-3, 3))] * 3
        )
    )
    def test_group_axioms(self, data):
        g1, g2, g3 = (elem(v, j, m=m) for v, j, m in data)
        assert (g1 * g2) * g3 == g1 * (g2 * g3)
        e = GroupElement.identity(A2)
        assert g1 * g1.inverse() == e
        assert g1.inverse() * g1 == e

    def test_axioms_2d(self):
        rng = random.Random(11)
        e = GroupElement.identity(A23)
        for _ in range(40):
            gs = [
                GroupElement.of(
                    A23,
                    (rng.randint(-9, 9), rng.randint(-9, 9)),
                    rng.randint(0, 3),
                    rng.randint(-3, 3),
                )
                for _ in range(3)
            ]
            g1, g2, g3 = gs
            assert (g1 * g2) * g3 == g1 * (g2 * g3)
            assert g1 * g1.inverse() == e


class TestCocycle:
    """The translation cocycle of the coset shift action, k -> A^{-k} beta: g.beta.twist(k)."""

    def test_values(self):
        assert elem(1, m=3).beta.twist(0) == adic(1)
        assert elem(1, m=0).beta.twist(2) == adic(1, 2)
        assert elem(1, 1, m=7).beta.twist(-1) == adic(1)

    def test_cocycle_identity(self):
        rng = random.Random(5)
        for _ in range(60):
            g1 = elem(rng.randint(-9, 9), rng.randint(0, 3), m=rng.randint(-3, 3))
            g2 = elem(rng.randint(-9, 9), rng.randint(0, 3), m=rng.randint(-3, 3))
            k = rng.randint(-4, 4)
            lhs = (g1 * g2).beta.twist(k)
            rhs = g1.beta.twist(k) + g2.beta.twist(k + g1.m)
            assert lhs == rhs


class TestCharacters:
    def test_trivial_on_zero(self):
        x = RealPoint.from_floats([0.37])
        assert character_value(x, adic(0)) == 1

    def test_minus_one(self):
        x = RealPoint.from_pi([1])
        assert character_value(x, adic(1)) == -1

    def test_quarter_value(self):
        x = RealPoint.from_pi([1])
        assert character_value(x, adic(1, 1)) == complex(0, -1)

    def test_multiplicative(self):
        rng = random.Random(13)
        for _ in range(40):
            x = RealPoint.from_pi([Fraction(rng.randint(-8, 8), rng.randint(1, 6))])
            b1 = adic(rng.randint(-9, 9), rng.randint(0, 3))
            b2 = adic(rng.randint(-9, 9), rng.randint(0, 3))
            lhs = character_value(x, b1 + b2)
            rhs = character_value(x, b1) * character_value(x, b2)
            assert abs(lhs - rhs) < 1e-12

    def test_dual_action_identity(self):
        rng = random.Random(17)
        for A in (A2, A23):
            for _ in range(40):
                x = RealPoint.from_pi(
                    [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(A.n)]
                )
                beta = AdicVector.of(
                    A, [rng.randint(-9, 9) for _ in range(A.n)], rng.randint(0, 3)
                )
                m = rng.randint(-3, 3)
                lhs = character_value(x, beta.twist(m))
                rhs = character_value(b_transform(A, x, -m), beta)
                assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            character_value(RealPoint.from_pi([1, 0]), adic(1))


class TestPhaseExp:
    def test_exact_quarters(self):
        assert phase_exp(Fraction(0)) == 1
        assert phase_exp(Fraction(1)) == -1
        assert phase_exp(Fraction(5, 2)) == 1j
        assert phase_exp(Fraction(-1, 2)) == -1j

    def test_generic(self):
        import cmath, math

        t = Fraction(1, 3)
        assert abs(phase_exp(t) - cmath.exp(1j * math.pi / 3)) < 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        num=st.one_of(st.integers(-100, 100), st.integers(-(2**200), 2**200)),
        den=st.one_of(st.integers(1, 24), st.integers(1, 2**120)),
    )
    def test_integer_reduction_keeps_the_bits_of_the_fraction_one(self, num, den):
        t = Fraction(num, den)
        assert float_bits(phase_exp(t)) == float_bits(ref_phase_exp(t))


class TestPointTransforms:
    def test_exact_inverse_roundtrip(self):
        x = RealPoint.from_pi([Fraction(3, 2), Fraction(-5, 4)])
        y = b_transform(A23, x, 3)
        z = b_transform(A23, y, -3)
        assert z.pi_coords == x.pi_coords

    def test_float_path(self):
        x = RealPoint.from_floats([1.5])
        y = b_transform(A2, x, 2)
        assert y.coords[0] == pytest.approx(6.0)
        z = b_transform(A2, x, -1)
        assert z.coords[0] == pytest.approx(0.75)

    def test_float_images_sum_left_to_right(self):
        # the same check runs in CI on the other supported Pythons, without numpy
        assert mismatches() == 0

    def test_float_characters_sum_left_to_right(self):
        # also run in CI on the other supported Pythons
        assert character_mismatches() == 0
        assert fiber_mismatches() == 0


@st.composite
def adic_data(draw, jmax: int = 4):
    A = draw(expansive())
    v = tuple(draw(st.integers(-40, 40)) for _ in range(A.n))
    return A, v, draw(st.integers(0, jmax))


class TestPowerOfA:
    """The cached A^k = P / d against Fraction Gaussian elimination."""

    @settings(max_examples=150, deadline=None)
    @given(A=expansive())
    def test_adjugate(self, A):
        det_i = tuple(tuple(A.determinant * x for x in row) for row in identity(A.n))
        assert mat_mul(A.adjugate, A.entries) == det_i
        assert mat_mul(A.entries, A.adjugate) == det_i

    @settings(max_examples=100, deadline=None)
    @given(A=expansive(), k=st.integers(-4, 4))
    def test_power_inverse_pair(self, A, k):
        p, d = A.power(k)
        q, e = A.power(-k)
        assert mat_mul(p, q) == tuple(
            tuple(d * e * x for x in row) for row in identity(A.n)
        )
        assert A.power(k) is A.power(k)  # cached

    @settings(max_examples=150, deadline=None)
    @given(data=adic_data())
    def test_canonical_form_and_values(self, data):
        A, v, j = data
        a = AdicVector.of(A, v, j)
        assert (a.v, a.j) == ref_canonical(A, v, j)
        assert a.values() == ref_values(A, v, j)

    @settings(max_examples=150, deadline=None)
    @given(data=adic_data(), m=st.integers(-4, 4))
    def test_twist(self, data, m):
        A, v, j = data
        tw = AdicVector.of(A, v, j).twist(m)
        # A^{-m} applied to the exact value A^{-j} v, one factor at a time
        want = ref_values(A, v, j)
        for _ in range(max(m, 0)):
            want = ref_solve(A.entries, want)
        for _ in range(max(-m, 0)):
            want = mat_vec(A.entries, want)
        assert tw.values() == want
        assert (tw.v, tw.j) == ref_canonical(A, tw.v, tw.j)

    @settings(max_examples=100, deadline=None)
    @given(data=adic_data(jmax=5), K=st.integers(0, 8))
    def test_orbit_steps_through_the_twists(self, data, K):
        A, v, j = data
        beta = AdicVector.of(A, v, j)
        pairs = orbit(beta, K)
        assert list(pairs) == list(range(-K, K + 1))
        for k, (u, d) in pairs.items():
            assert d > 0 and tuple(Fraction(x, d) for x in u) == beta.twist(-k).values()

    @settings(max_examples=150, deadline=None)
    @given(A=expansive(), k=st.integers(-4, 4), data=st.data())
    def test_exact_b_transform(self, A, k, data):
        x = [
            Fraction(data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 12)))
            for _ in range(A.n)
        ]
        y = b_transform(A, RealPoint.from_pi(x), k)
        assert y.pi_coords == ref_b_transform(A, x, k)

    @settings(max_examples=200, deadline=None)
    @given(A=expansive(), k=st.integers(-4, -1), data=st.data())
    def test_float_b_transform_negative_power(self, A, k, data):
        # B^k x = P^T x / d: n products, n - 1 sums and one division, each
        # correctly rounded, so coordinate i is off from the exact rational
        # image of the float input by at most
        # gamma_{n+1} * sum_j |P_ji x_j| / |d|, gamma_m = m u / (1 - m u), u = 2^-53.
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
        x = [data.draw(finite.filter(lambda t: t == 0 or abs(t) > 1e-200)) for _ in range(A.n)]
        y = b_transform(A, RealPoint.from_floats(x), k)
        p, d = A.power(k)
        bk = transpose(p)
        exact = ref_b_transform(A, [Fraction(c) for c in x], k)
        u = Fraction(1, 2**53)
        gamma = (A.n + 1) * u / (1 - (A.n + 1) * u)
        for i in range(A.n):
            size = sum(abs(bk[i][j] * Fraction(x[j])) for j in range(A.n)) / abs(d)
            assert abs(Fraction(y.coords[i]) - exact[i]) <= gamma * size
