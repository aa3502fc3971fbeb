import math
from fractions import Fraction

import mpmath
import pytest

from waverep.boxes import Box
from waverep.funcs import ModulatedBoxSum, axis_integral
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


class TestAxisIntegral:
    """Thin boxes: the endpoint phases cancel, the sine form does not."""

    @pytest.mark.parametrize("width", [Fraction(1, 10**18), Fraction(1, 10**12), Fraction(1, 10**8)])
    @pytest.mark.parametrize("a", [Fraction(0), Fraction(-7, 3), Fraction(1001, 8), Fraction(-1, 3**35)])
    @pytest.mark.parametrize("theta", [Fraction(5), Fraction(-1, 3), Fraction(37, 4)])
    def test_thin_boxes_against_mpmath(self, width, a, theta):
        want = mp_axis_integral(a, a + width, theta)
        assert abs(axis_integral(a, a + width, theta) - want) <= 16 * U * abs(want)

    @pytest.mark.parametrize("width", [Fraction(1, 1000), Fraction(1, 3), Fraction(5, 2)])
    def test_wider_boxes_keep_their_bits(self, width):
        a, b, theta = Fraction(-7, 3), Fraction(-7, 3) + width, Fraction(37, 4)
        gap = phase_exp(-theta * b) - phase_exp(-theta * a)
        assert axis_integral(a, b, theta) == gap / complex(0, -float(theta))

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
