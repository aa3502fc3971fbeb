import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import float_bits, ref_pairing
from waverep.boxes import Box
from waverep.funcs import _THIN, ModulatedBoxSum, TermPair, axis_integral, pairing
from waverep.groups import AdicVector, phase_exp, validate_dilation
from waverep.spectral import isometry_defect
from waverep.tiling import shannon_set

U = 2.0**-53


def mp_axis_integral(a: Fraction, b: Fraction, theta: Fraction) -> complex:
    """The integral of e^{-i theta t} over [a pi, b pi] at 50 digits, by the sine form."""
    with mpmath.workdps(50):
        a, b, theta = (mpmath.mpf(x.numerator) / x.denominator for x in (a, b, theta))
        scale = 2 * mpmath.sin(theta * (b - a) * mpmath.pi / 2) / theta
        return complex(scale * mpmath.expj(-theta * (a + b) * mpmath.pi / 2))


def integral(a: Fraction, b: Fraction, theta: Fraction) -> complex:
    """axis_integral at the numerators and denominators of a, b and theta."""
    ends = (a.numerator, a.denominator, b.numerator, b.denominator)
    return axis_integral(*ends, theta.numerator, theta.denominator)


class TestAxisIntegral:
    """Thin boxes: the endpoint phases cancel, the sine form does not."""

    @pytest.mark.parametrize("width", [Fraction(1, 10**18), Fraction(1, 10**12), Fraction(1, 10**8)])
    @pytest.mark.parametrize("a", [Fraction(0), Fraction(-7, 3), Fraction(1001, 8), Fraction(-1, 3**35)])
    @pytest.mark.parametrize("theta", [Fraction(5), Fraction(-1, 3), Fraction(37, 4)])
    def test_thin_boxes_against_mpmath(self, width, a, theta):
        want = mp_axis_integral(a, a + width, theta)
        assert abs(integral(a, a + width, theta) - want) <= 16 * U * abs(want)

    @pytest.mark.parametrize("width", [Fraction(1, 1000), Fraction(1, 3), Fraction(5, 2)])
    def test_wider_boxes_keep_their_bits(self, width):
        a, b, theta = Fraction(-7, 3), Fraction(-7, 3) + width, Fraction(37, 4)
        gap = phase_exp(-theta * b) - phase_exp(-theta * a)
        assert integral(a, b, theta) == gap / complex(0, -float(theta))

    def test_thin_box_norm_is_not_zero(self):
        # f = (1 - e^{-i 3 xi} / 2) on one box of width 3^-35 pi: the endpoint phases of its
        # cross terms cancel, which once gave ||f||^2 < 0, a norm of 0.0 and ZeroFunction
        A = validate_dilation([[-3]])
        N = 3**35
        box = Box((Fraction(-2, N),), (Fraction(-1, N),))
        f = ModulatedBoxSum.of(A, [(1.0, AdicVector.zero(A), box), (-0.5, AdicVector.of(A, [9], 1), box)])
        cross = mp_axis_integral(box.lo[0], box.hi[0], Fraction(3)).real
        want = 1.25 * math.pi / N - cross
        assert f.norm_sq() == pytest.approx(want, rel=1e-12)
        assert isometry_defect(f, shannon_set(), A, -37, -33) < 1e-12


# numerators and denominators of either size: small ones, and ones past 2^64
_NUM = st.one_of(st.integers(-40, 40), st.integers(-(2**80), 2**80))
_DEN = st.one_of(st.integers(1, 40), st.integers(1, 2**80))
_FRACS = st.builds(Fraction, _NUM, _DEN)


class TestPairingOnIntegers:
    """pairing on integer numerators against the Fraction reference, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), count=st.integers(1, 3), shifted=st.booleans())
    def test_bits_of_the_fraction_reference(self, data, dim, count, shifted):
        shift = None
        if shifted:
            shift = [(data.draw(_NUM), data.draw(_DEN)) for _ in range(dim)]
        pairs = []
        for _ in range(count):
            lo, hi, phase = [], [], []
            for k in range(dim):
                a = data.draw(_FRACS)
                theta = data.draw(st.one_of(st.just(Fraction(0)), _FRACS))
                # sometimes the shift cancels the phase, an unreduced zero theta
                if shift is not None and data.draw(st.booleans()):
                    shift[k] = (-theta.numerator * shift[k][1], theta.denominator * shift[k][1])
                full = theta if shift is None else theta + Fraction(*shift[k])
                if full and data.draw(st.booleans()):
                    # a width near _THIN / |theta|, on either side of the sine form's thresholds
                    scale = data.draw(st.fractions(Fraction(1, 4), 4, max_denominator=1000))
                    width = Fraction(_THIN) * scale / abs(full)
                else:
                    width = data.draw(st.fractions(Fraction(1, 10**6), 10, max_denominator=10**6))
                lo.append(a)
                hi.append(a + width)
                phase.append(theta)
            coef = complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2)))
            pairs.append(TermPair(coef, Box(tuple(lo), tuple(hi)), tuple(phase)))
        assert float_bits(pairing(pairs, shift)) == float_bits(ref_pairing(pairs, shift))

    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(-37, 4), Fraction(3, 2**70), Fraction(-(2**66) - 1, 3)])
    @pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(127, 100), Fraction(13, 10), Fraction(2)])
    def test_widths_around_thin(self, theta, scale):
        a = Fraction(-7, 3)
        width = Fraction(_THIN) * scale / abs(theta) if theta else scale
        pair = TermPair(1.0 + 0j, Box((a,), (a + width,)), (theta,))
        assert float_bits(pairing([pair])) == float_bits(ref_pairing([pair]))
        assert float_bits(pairing([pair], [(5, 2**65)])) == float_bits(ref_pairing([pair], [(5, 2**65)]))
