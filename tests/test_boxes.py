import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import diagonal_matrices, product_set, ref_box_dilate, ref_normalize, ref_subtract, ref_translation_reduce
from waverep.boxes import (
    Box,
    BoxSet,
    difference,
    grid_dilate,
    grid_span,
    interval_set,
    normalize,
    unit_cube,
)
from waverep.errors import DimensionMismatch, NonDiagonalDilation
from waverep.groups import RealPoint, validate_dilation
from waverep.jsonio import boxset_json
from waverep.tiling import check_translation_congruent

A2 = validate_dilation([[2]])
SHANNON = interval_set([(-2, -1), (1, 2)])


def test_empty_box_rejected():
    with pytest.raises(ValueError):
        Box((Fraction(1),), (Fraction(1),))


_ENDS = st.fractions(-3, 3, max_denominator=3)


@st.composite
def box_lists(draw, dim=None):
    dim = draw(st.integers(1, 3)) if dim is None else dim
    boxes = []
    for _ in range(draw(st.integers(0, 5))):
        lo, hi = [], []
        for _ in range(dim):
            a, b = draw(st.tuples(_ENDS, _ENDS).filter(lambda p: p[0] != p[1]))
            lo.append(min(a, b))
            hi.append(max(a, b))
        boxes.append(Box(tuple(lo), tuple(hi)))
    return dim, boxes


class TestNormalize:
    @settings(max_examples=80, deadline=None)
    @given(case=box_lists())
    def test_matches_fraction_reference(self, case):
        dim, boxes = case
        assert normalize(dim, boxes).boxes == ref_normalize(dim, boxes)
        assert normalize(dim, reversed(boxes)).boxes == ref_normalize(dim, boxes)

    def test_interval_merge(self):
        s = interval_set([(1, 2), (Fraction(3, 2), 3)])
        assert s.boxes == (Box((Fraction(1),), (Fraction(3),)),)
        assert s.measure() == 2

    def test_empty(self):
        s = BoxSet.empty(1)
        assert s.measure() == 0 and s.is_empty

    def test_disjoint_sorted(self):
        s = interval_set([(1, 2), (-2, -1)])
        assert [b.lo[0] for b in s.boxes] == [-2, 1]

    def test_idempotent(self):
        s = interval_set([(0, 1), (Fraction(1, 2), 2), (3, 4)])
        again = normalize(1, list(s.boxes))
        assert again == s

    def test_2d_rectangle_reassembly(self):
        a = Box((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)))
        b = Box((Fraction(1), Fraction(0)), (Fraction(2), Fraction(2)))
        s = BoxSet.of(2, [a, b])
        assert s.boxes == (Box((Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))),)


class TestMeasure:
    def test_shannon(self):
        assert SHANNON.measure() == 2

    def test_square(self):
        assert unit_cube(2).measure() == 4

    def test_empty(self):
        assert BoxSet.empty(3).measure() == 0


class TestAlgebra:
    def test_intersect(self):
        got = interval_set([(1, 2)]).intersect(interval_set([(Fraction(3, 2), 3)]))
        assert got == interval_set([(Fraction(3, 2), 2)])

    def test_subtract_self(self):
        s = interval_set([(-1, 1)])
        assert s.subtract(s).is_empty

    def test_union_shannon_halves(self):
        got = interval_set([(-2, -1)]).union(interval_set([(1, 2)]))
        assert got.measure() == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SHANNON.union(unit_cube(2))

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(-6, 5), st.integers(1, 4)), min_size=0, max_size=5
        ),
        data2=st.lists(
            st.tuples(st.integers(-6, 5), st.integers(1, 4)), min_size=0, max_size=5
        ),
    )
    def test_inclusion_exclusion(self, data, data2):
        s1 = interval_set([(Fraction(a, 2), Fraction(a, 2) + Fraction(w, 2)) for a, w in data])
        s2 = interval_set([(Fraction(a, 2), Fraction(a, 2) + Fraction(w, 2)) for a, w in data2])
        lhs = s1.union(s2).measure() + s1.intersect(s2).measure()
        assert lhs == s1.measure() + s2.measure()

    def test_rasterized_oracle_2d(self):
        # compare the indicator of composed operations against raw box membership
        rng = random.Random(23)
        for _ in range(20):
            def rand_boxes(k):
                out = []
                for _ in range(k):
                    lo = (Fraction(rng.randint(-4, 3)), Fraction(rng.randint(-4, 3)))
                    hi = (lo[0] + rng.randint(1, 3), lo[1] + rng.randint(1, 3))
                    out.append(Box(lo, hi))
                return out

            raw1, raw2 = rand_boxes(3), rand_boxes(3)
            s1, s2 = BoxSet.of(2, raw1), BoxSet.of(2, raw2)
            ops = {
                "union": s1.union(s2),
                "intersect": s1.intersect(s2),
                "subtract": s1.subtract(s2),
            }
            # sample strictly inside grid cells to avoid boundary ties
            for _ in range(60):
                p = RealPoint.from_pi(
                    [Fraction(rng.randint(-17, 17), 4) + Fraction(1, 8) for _ in range(2)]
                )
                in1 = any(b.contains_point(p) for b in raw1)
                in2 = any(b.contains_point(p) for b in raw2)
                assert ops["union"].contains(p) == (in1 or in2)
                assert ops["intersect"].contains(p) == (in1 and in2)
                assert ops["subtract"].contains(p) == (in1 and not in2)


class TestSubtractByCells:
    """The one cell pass against cutting by one box at a time: the same boxes, byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_matches_box_by_box_reference(self, data, dim):
        S = BoxSet.of(dim, data.draw(box_lists(dim))[1])
        T = BoxSet.of(dim, data.draw(box_lists(dim))[1])
        got = S.subtract(T)
        assert json.dumps(boxset_json(got)) == json.dumps(boxset_json(ref_subtract(S, T)))
        assert got.measure() == S.measure() - S.intersect(T).measure()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_intersection_matches_box_by_box_reference(self, data, dim):
        # the canonical form depends on the set alone, not on the grid it was cut on
        S = BoxSet.of(dim, data.draw(box_lists(dim))[1])
        T = BoxSet.of(dim, data.draw(box_lists(dim))[1])
        pieces = [c for a in S.boxes for b in T.boxes if (c := a.intersect(b)) is not None]
        got = S.intersect(T)
        assert json.dumps(boxset_json(got)) == json.dumps(boxset_json(BoxSet(dim, ref_normalize(dim, pieces))))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 2), scale=st.sampled_from([1, 2]))
    def test_deficit_witness_matches_reference(self, data, dim, scale):
        boxes = data.draw(box_lists(dim))[1]
        boxes = [Box(tuple(scale * x for x in b.lo), tuple(scale * x for x in b.hi)) for b in boxes]
        E = BoxSet.of(dim, boxes[:3])
        res = check_translation_congruent(E)
        want = ref_translation_reduce(E)[2]
        if not res.passed:
            assert json.dumps(res.witness["deficit"]) == json.dumps(boxset_json(want))
        else:
            assert want.is_empty

    def test_difference_clips_cutters(self):
        # a cutter reaching far outside the boxes cuts only their common part
        got = difference(1, [Box((0,), (4,))], [Box((-100,), (1,)), Box((3,), (100,))])
        assert got == interval_set([(1, 3)])
        assert difference(2, [], [Box((0, 0), (1, 1))]).is_empty


# ends with small and with huge denominators, so that one axis's grid reaches past 2^64
_MIXED = st.one_of(
    st.fractions(-3, 3, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**68)),
)


@st.composite
def mixed_boxes(draw, dim, most=5):
    boxes = []
    for _ in range(draw(st.integers(0, most))):
        ends = [draw(st.tuples(_MIXED, _MIXED).filter(lambda p: p[0] != p[1])) for _ in range(dim)]
        boxes.append(Box(tuple(min(p) for p in ends), tuple(max(p) for p in ends)))
    return boxes


class TestIntegerGrid:
    """The cell pass on per-axis integer grids against the Fraction-grid references, box for box."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_difference_is_the_fraction_reference(self, data, dim):
        boxes, cutters = data.draw(mixed_boxes(dim)), data.draw(mixed_boxes(dim))
        got = difference(dim, boxes, cutters)
        assert got.boxes == ref_subtract(BoxSet(dim, tuple(boxes)), BoxSet(dim, tuple(cutters))).boxes
        assert normalize(dim, boxes).boxes == ref_normalize(dim, boxes)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), j_max=st.integers(0, 40), extra=st.integers(1, 6))
    def test_grid_dilate_maps_back_to_box_dilate(self, data, dim, j_max, extra):
        A = data.draw(diagonal_matrices(dim))
        box = data.draw(mixed_boxes(dim, 1).filter(bool))[0]
        # any multiple of the denominators times |a_kk|^j_max is a grid on which every image is exact
        scales = [
            math.lcm(box.lo[k].denominator, box.hi[k].denominator) * abs(A.entries[k][k]) ** j_max * extra
            for k in range(dim)
        ]
        span = grid_span(box, scales)
        for j in range(-j_max, j_max + 1):
            lo, hi = grid_dilate(A, span, j)
            back = Box(
                tuple(Fraction(x, s) for x, s in zip(lo, scales)),
                tuple(Fraction(x, s) for x, s in zip(hi, scales)),
            )
            assert back == ref_box_dilate(box, A, j)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), j=st.integers(-12, 12))
    def test_box_dilate_is_the_fraction_reference(self, data, dim, j):
        A = data.draw(diagonal_matrices(dim))
        for box in data.draw(mixed_boxes(dim, 3)):
            assert box.dilate(A, j) == ref_box_dilate(box, A, j)


class TestTranslate:
    def test_shift_down(self):
        assert interval_set([(1, 2)]).translate([-1]) == interval_set([(-1, 0)])

    def test_shift_up(self):
        assert interval_set([(-2, -1)]).translate([1]) == interval_set([(0, 1)])

    def test_zero_shift(self):
        assert SHANNON.translate([0]) == SHANNON


class TestDilate:
    def test_scale_up(self):
        assert interval_set([(1, 2)]).dilate(A2, 1) == interval_set([(2, 4)])

    def test_scale_down(self):
        assert interval_set([(1, 2)]).dilate(A2, -1) == interval_set(
            [(Fraction(1, 2), 1)]
        )

    def test_identity_power(self):
        assert SHANNON.dilate(A2, 0) == SHANNON

    def test_composition(self):
        rng = random.Random(31)
        for _ in range(20):
            s = interval_set(
                [(Fraction(rng.randint(-8, 7), 2), Fraction(rng.randint(8, 16), 2))]
            )
            j1, j2 = rng.randint(-3, 3), rng.randint(-3, 3)
            assert s.dilate(A2, j1 + j2) == s.dilate(A2, j1).dilate(A2, j2)

    def test_measure_scaling(self):
        A = validate_dilation([[2, 0], [0, 3]])
        s = product_set(interval_set([(1, 2)]), interval_set([(1, 2)]))
        assert s.dilate(A, 2).measure() == s.measure() * 36

    def test_non_diagonal_refused(self):
        A = validate_dilation([[0, 2], [2, 0]])
        with pytest.raises(NonDiagonalDilation):
            unit_cube(2).dilate(A, 1)

    def test_negative_entry(self):
        Am = validate_dilation([[-2]])
        assert interval_set([(1, 2)]).dilate(Am, 1) == interval_set([(-4, -2)])


class TestContains:
    def test_half_open_left_in(self):
        assert SHANNON.contains(RealPoint.from_pi([1]))

    def test_half_open_right_out(self):
        assert not SHANNON.contains(RealPoint.from_pi([2]))

    def test_origin_out(self):
        assert not SHANNON.contains(RealPoint.from_pi([0]))

    def test_float_path(self):
        import math

        assert SHANNON.contains(RealPoint.from_floats([1.5 * math.pi]))
        assert not SHANNON.contains(RealPoint.from_floats([0.5 * math.pi]))


class TestTranslationReduce:
    def test_shannon(self):
        frags, overlap, deficit = SHANNON.translation_reduce()
        assert overlap.is_empty and deficit.is_empty
        got = {(frag.lo[0], shift) for frag, shift in frags}
        assert got == {(Fraction(1), (-1,)), (Fraction(-2), (1,))}

    def test_cube_is_fixed(self):
        frags, overlap, deficit = unit_cube(1).translation_reduce()
        assert overlap.is_empty and deficit.is_empty
        assert len(frags) == 1 and frags[0][1] == (0,)

    def test_overlapping_fragments(self):
        s = interval_set([(1, 2), (3, 4)])
        frags, overlap, deficit = s.translation_reduce()
        assert overlap == interval_set([(-1, 0)])
        assert deficit == interval_set([(0, 1)])

    def test_zero_to_two_pi(self):
        s = interval_set([(0, 2)])
        _, overlap, deficit = s.translation_reduce()
        assert overlap.is_empty and deficit.is_empty

    def test_congruent_total_measure(self):
        rng = random.Random(41)
        for _ in range(20):
            # random exact congruent rearrangement of the cube
            cuts = sorted({Fraction(rng.randint(-3, 3), 2) for _ in range(3)} | {-1, 1})
            cuts = [c for c in cuts if -1 <= c <= 1]
            pieces = []
            for a, b in zip(cuts, cuts[1:]):
                shift = 2 * rng.randint(-2, 2)
                pieces.append((a + shift, b + shift))
            s = interval_set(pieces)
            frags, overlap, deficit = s.translation_reduce()
            assert overlap.is_empty and deficit.is_empty
            assert sum(f.volume() for f, _ in frags) == 2

    @settings(max_examples=60, deadline=None)
    @given(case=box_lists(), scale=st.sampled_from([1, 2]))
    def test_matches_odd_cut_reference(self, case, scale):
        # scale 2 widens the boxes to span up to six cells per axis
        dim, boxes = case
        boxes = [Box(tuple(scale * x for x in b.lo), tuple(scale * x for x in b.hi)) for b in boxes]
        E = BoxSet.of(dim, boxes[:3])
        frags, overlap, deficit = E.translation_reduce()
        want = ref_translation_reduce(E)
        assert frags == want[0]
        assert overlap == want[1] and deficit == want[2]

    def test_2d_shannon_product(self):
        s = product_set(SHANNON, SHANNON)
        _, overlap, deficit = s.translation_reduce()
        assert overlap.is_empty and deficit.is_empty


class TestBoundingRadii:
    def test_shannon(self):
        assert SHANNON.bounding_radii() == (1, 2)

    def test_cube_contains_origin(self):
        assert unit_cube(1).bounding_radii() == (0, 1)
