import functools
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from util import (
    axis_permuted,
    box_sets,
    diagonal_matrices,
    interval_sets,
    product_set,
    ref_dilation_cover,
    ref_disjoint_witness,
    ref_sample_annulus,
    ref_sampled_cover,
    ref_sampled_disjoint,
    sign_flipped,
    unit_cube,
)
from waverep import spectral, tiling
from waverep.boxes import Box, BoxSet, interval_set
from waverep.errors import BadAnnulus, DimensionMismatch
from waverep.tiling import (
    _BLOCK,
    VerifyParams,
    _counter_uniforms,
    _sample_annulus,
    check_dilation_cover,
    check_dilation_disjoint,
    check_translation_congruent,
    shannon_set,
    verify_wavelet_set,
)
from waverep.groups import RealPoint, b_transform, validate_dilation

A2 = validate_dilation([[2]])
A3 = validate_dilation([[3]])


def test_shannon_set_definition():
    E = shannon_set()
    assert E == interval_set([(-2, -1), (1, 2)])
    assert E.measure() == 2


class TestDisjoint:
    def test_shannon_passes(self):
        res = check_dilation_disjoint(shannon_set(), A2, j_max=6)
        assert res.passed and res.mode == "exact"

    def test_half_shifted_fails(self):
        E = interval_set([(Fraction(1, 2), 2)])
        res = check_dilation_disjoint(E, A2, j_max=2)
        assert not res.passed
        w = res.witness["intersection"]["boxes"]
        # E and its first dilate overlap on [pi, 2pi)
        assert res.witness["j"] == 0 or res.witness["j"] < res.witness["k"]
        assert w  # nonempty witness

    def test_empty_vacuous(self):
        from waverep.boxes import BoxSet

        res = check_dilation_disjoint(BoxSet.empty(1), A2)
        assert res.passed

    def test_zero_two_pi_fails(self):
        res = check_dilation_disjoint(interval_set([(0, 2)]), A2, j_max=2)
        assert not res.passed


class TestDisjointByGap:
    """The O(j) scan over gaps k - j against the O(j^2) scan over pairs."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 2), j_max=st.integers(0, 5))
    def test_same_witness_as_pair_scan(self, data, dim, j_max):
        E = data.draw(box_sets(dim))
        A = data.draw(diagonal_matrices(dim))
        res = check_dilation_disjoint(E, A, j_max=j_max)
        want = ref_disjoint_witness(E, A, j_max)
        assert res.mode == "exact"
        assert res.passed == (want is None)
        assert res.witness == want

    def test_witness_starts_at_minus_j_max(self):
        # E meets B^3 E and no nearer dilate, so the pair is (-j_max, 3 - j_max)
        E = interval_set([(1, Fraction(3, 2)), (8, 9)])
        res = check_dilation_disjoint(E, A2, j_max=2)
        assert (res.witness["j"], res.witness["k"]) == (-2, 1)
        assert res.witness == ref_disjoint_witness(E, A2, 2)

    def test_gap_beyond_range_passes(self):
        E = interval_set([(1, Fraction(3, 2)), (8, 9)])
        assert check_dilation_disjoint(E, A2, j_max=1).passed


class TestDisjointDilateCount:
    def test_dilates_do_not_grow_with_j_max(self, monkeypatch):
        # each box of E is dilated only within its own bracket, not at every gap up to 2 j_max;
        # the scan dilates integer spans (spectral.grid_dilate), never a Box
        dilates = []
        grid_dilate = spectral.grid_dilate

        def counting(A, span, j):
            dilates.append(j)
            return grid_dilate(A, span, j)

        monkeypatch.setattr(spectral, "grid_dilate", counting)
        monkeypatch.setattr(Box, "dilate", lambda self, A, j: dilates.append(None))
        counts = []
        for j_max in (4, 24):
            dilates.clear()
            assert check_dilation_disjoint(shannon_set(), A2, j_max=j_max).passed
            counts.append(len(dilates))
        assert counts[0] == counts[1] > 0 and None not in dilates


class TestCover:
    def test_shannon_passes(self):
        res = check_dilation_cover(
            shannon_set(), A2, annulus=(Fraction(1, 8), Fraction(8)), j_max=6
        )
        assert res.passed and res.mode == "exact"
        assert "annulus" in res.note

    def test_shifted_set_gap(self):
        c = Fraction(1, 8)
        E = interval_set([(1 + c, 2 + c), (-2 + c, -1 + c)])
        res = check_dilation_cover(
            E, A2, annulus=(Fraction(1, 8), Fraction(8)), j_max=6
        )
        assert not res.passed
        gap = res.witness["uncovered"]["boxes"]
        # the gap [2pi + c, 2pi + 2c) must appear among the uncovered boxes
        los = [Fraction(b["lo"][0]) for b in gap]
        his = [Fraction(b["hi"][0]) for b in gap]
        assert any(lo <= 2 + c and hi >= 2 + 2 * c for lo, hi in zip(los, his))

    def test_centered_cube_covers(self):
        # [-pi, pi) fails disjointness but its dilates do cover the annulus
        res = check_dilation_cover(
            interval_set([(-1, 1)]), A2, annulus=(Fraction(1, 8), Fraction(8)), j_max=6
        )
        assert res.passed

    def test_bad_annulus(self):
        with pytest.raises(BadAnnulus):
            check_dilation_cover(shannon_set(), A2, annulus=(Fraction(0), Fraction(8)))


_RADII = st.fractions(Fraction(1, 64), 4, max_denominator=64)


class TestCoverByCells:
    """The one cell pass against the annulus minus one dilate at a time: the same witness bytes."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        dim=st.sampled_from([1, 2]),
        j_max=st.integers(0, 8),
        r_in=_RADII,
        ratio=st.fractions(Fraction(17, 16), 256, max_denominator=16),
    )
    def test_same_witness_as_subtract_loop(self, data, dim, j_max, r_in, ratio):
        E, A = data.draw(box_sets(dim)), data.draw(diagonal_matrices(dim))
        annulus = (r_in, r_in * ratio)
        res = check_dilation_cover(E, A, annulus=annulus, j_max=j_max)
        want = ref_dilation_cover(E, A, annulus, j_max)
        event("uncovered" if want else "covered")
        assert res.mode == "exact" and res.passed == (want is None)
        assert json.dumps(res.witness) == json.dumps(want)

    @pytest.mark.parametrize(
        "E, A, j_max, k",
        [
            # the dilates of S x S scale both axes alike: points with axes at different scales stay uncovered
            (product_set(shannon_set(), shannon_set()), [[2, 0], [0, -2]], 16, 14),
            # the shell [-2, 2)^2 minus [-1, 1)^2 under diag(2, 3): the axes scale apart
            (BoxSet.of(2, [Box((-2, -2), (2, 2))]).subtract(unit_cube(2)), [[2, 0], [0, 3]], 8, 6),
            # Shannon under -2: covers, so the witness is absent on both sides
            (shannon_set(), [[-2]], 8, 6),
        ],
    )
    def test_fixed_sets(self, E, A, j_max, k):
        annulus = (Fraction(1, 2**k), Fraction(2**k))
        res = check_dilation_cover(E, validate_dilation(A), annulus=annulus, j_max=j_max)
        want = ref_dilation_cover(E, validate_dilation(A), annulus, j_max)
        assert json.dumps(res.witness) == json.dumps(want)
        assert (want is None) == (A == [[-2]])


class TestCoverOnIntegerGrid:
    """The exact cover with its dilates formed on the integer grid, against one Fraction subtraction per dilate."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), k=st.integers(0, 30))
    def test_same_witness_as_subtract_loop(self, data, dim, k):
        # A with entries of either sign; E a product of 1-D sets.  The annulus sits deep inside
        # when j_max is large.  In 3-D the reference costs seconds per example beyond j_max 12
        # or a thick shell, so there both are smaller.
        j_max = data.draw(st.integers(0, 40 if dim < 3 else 12))
        factors = [data.draw(box_sets(1)) for _ in range(dim)]
        E = factors[0]
        for f in factors[1:]:
            E = product_set(E, f)
        A = data.draw(diagonal_matrices(dim))
        r_in = Fraction(1, data.draw(st.sampled_from([2, 3]))) ** min(k, 3 * j_max // 4)
        thickest = (Fraction(64), Fraction(8), Fraction(5, 4))[dim - 1]
        annulus = (r_in, r_in * data.draw(st.fractions(Fraction(17, 16), thickest, max_denominator=16)))
        res = check_dilation_cover(E, A, annulus=annulus, j_max=j_max)
        want = ref_dilation_cover(E, A, annulus, j_max)
        event("uncovered" if want else "covered")
        assert res.passed == (want is None)
        assert json.dumps(res.witness) == json.dumps(want)


    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), j_max=st.integers(0, 10), r_in=_RADII)
    def test_no_dilate_inside_the_inner_box_is_cut(self, data, dim, j_max, r_in):
        # every cut after the inner box reaches outside it on some axis; the witness is the reference's
        E, A = data.draw(box_sets(dim)), data.draw(diagonal_matrices(dim))
        seen = []
        grid_difference = tiling.grid_difference

        def recording(scales, spans, cuts):
            cuts = list(cuts)
            seen.append(cuts)
            return grid_difference(scales, spans, cuts)

        annulus = (r_in, 4 * r_in)
        tiling.grid_difference = recording
        try:
            res = check_dilation_cover(E, A, annulus=annulus, j_max=j_max)
        finally:
            tiling.grid_difference = grid_difference
        (cuts,) = seen
        (lo, hi), dilates = cuts[0], cuts[1:]
        assert all(any(a < b for a, b in zip(d[0], lo)) or any(a > b for a, b in zip(d[1], hi)) for d in dilates)
        assert json.dumps(res.witness) == json.dumps(ref_dilation_cover(E, A, annulus, j_max))

    def test_inner_dilates_of_shannon_are_left_out(self, monkeypatch):
        # Shannon under 2 on the default annulus [1/64, 64]: B^j E lies inside the inner box
        # [-1/64, 1/64) for j <= -7, so of the 34 boxes of the 17 dilates 4 are left out
        seen = []
        grid_difference = tiling.grid_difference

        def recording(scales, spans, cuts):
            seen.append(list(cuts))
            return grid_difference(scales, spans, seen[-1])

        monkeypatch.setattr(tiling, "grid_difference", recording)
        assert check_dilation_cover(shannon_set(), A2, j_max=8).passed
        assert len(seen[0]) == 1 + 30


class TestCongruent:
    def test_shannon(self):
        assert check_translation_congruent(shannon_set()).passed

    def test_zero_two_pi(self):
        assert check_translation_congruent(interval_set([(0, 2)])).passed

    def test_zero_three_pi(self):
        res = check_translation_congruent(interval_set([(0, 3)]))
        assert not res.passed
        assert res.witness["overlap"]["boxes"] or res.witness["deficit"]["boxes"]


class TestVerify:
    def test_shannon_all_pass(self):
        report = verify_wavelet_set(shannon_set(), A2)
        assert report.verdict
        assert report.measure_pi_units == 2
        assert report.disjoint.mode == "exact"

    def test_symmetric_shift_fails_cover_only(self):
        # shifting the positive half up and the negative half down keeps
        # dilates disjoint but opens a gap, so only condition (ii) fails
        c = Fraction(1, 8)
        E = interval_set([(1 + c, 2 + c), (-2 - c, -1 - c)])
        report = verify_wavelet_set(E, A2)
        assert report.disjoint.passed
        assert not report.cover.passed
        assert not report.verdict

    def test_zero_two_pi_fails_disjoint(self):
        report = verify_wavelet_set(interval_set([(0, 2)]), A2)
        assert not report.disjoint.passed
        assert report.congruent.passed
        assert not report.verdict

    def test_negative_interval_set_for_dilation_three(self):
        # [-3pi, -pi) tiles one half line only: congruent, disjoint, not covering
        E = interval_set([(-3, -1)])
        report = verify_wavelet_set(E, A3)
        assert report.disjoint.passed
        assert report.congruent.passed
        assert not report.cover.passed

    def test_2d_product_set(self):
        A = validate_dilation([[2, 0], [0, 2]])
        E = product_set(shannon_set(), shannon_set())
        report = verify_wavelet_set(E, A, VerifyParams(j_max=4))
        assert report.disjoint.passed
        assert report.congruent.passed
        assert not report.cover.passed  # products of 1-D sets leave gaps


@st.composite
def rational_box_sets(draw, dim: int) -> BoxSet:
    """A shell [-2, 2)^n minus the cube, a product of 1-D sets, or a union of up to three random boxes."""
    kind = draw(st.sampled_from(["shell", "product", "boxes"]))
    if kind == "shell":
        return BoxSet.of(dim, [Box((-2,) * dim, (2,) * dim)]).subtract(unit_cube(dim))
    if kind == "product":
        return functools.reduce(product_set, [draw(interval_sets()) for _ in range(dim)])
    end, width = st.fractions(-4, 4, max_denominator=4), st.fractions(Fraction(1, 4), 4, max_denominator=4)
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        lo = tuple(draw(end) for _ in range(dim))
        boxes.append(Box(lo, tuple(x + draw(width) for x in lo)))
    return BoxSet.of(dim, boxes)


def _exact_verdicts(E: BoxSet, A) -> tuple[bool, bool, bool]:
    # in 3-D the default range costs up to seconds per set, so there it is |j| <= 4 on [1/8, 8]
    p = VerifyParams(mode="exact") if E.dim < 3 else VerifyParams(4, (Fraction(1, 8), Fraction(8)), mode="exact")
    report = verify_wavelet_set(E, A, p)
    return report.disjoint.passed, report.cover.passed, report.congruent.passed


class TestSymmetries:
    """ROADMAP item 9 (b) and the reflection half of (f): axis permutations, sign flips of single
    axes and E -> -E keep the verdicts."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_axis_permutation(self, data, dim):
        # (E, A) and (PE, P A P^-1): P permutes the axes, and conjugating a diagonal A permutes its entries
        E, A = data.draw(rational_box_sets(dim)), data.draw(diagonal_matrices(dim))
        PE, PA = axis_permuted(E, A, data.draw(st.permutations(range(dim))))
        verdicts = _exact_verdicts(E, A)
        event(str(verdicts))
        assert _exact_verdicts(PE, PA) == verdicts

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_reflection(self, data, dim):
        E, A = data.draw(rational_box_sets(dim)), data.draw(diagonal_matrices(dim))
        verdicts = _exact_verdicts(E, A)
        event(str(verdicts))
        assert _exact_verdicts(sign_flipped(E, [-1] * dim), A) == verdicts

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_sign_flips(self, data, dim):
        # (E, A) and (PE, A) for P = diag(+-1), which commutes with a diagonal A
        E, A = data.draw(rational_box_sets(dim)), data.draw(diagonal_matrices(dim))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
        verdicts = _exact_verdicts(E, A)
        event(str(verdicts))
        assert _exact_verdicts(sign_flipped(E, signs), A) == verdicts


class TestDeterminism:
    def test_exact_verdicts_stable_in_range(self):
        # once the range exceeds where dilates meet the annulus, nothing changes
        for E, expected in (
            (shannon_set(), (True, True)),
            (interval_set([(0, 2)]), (False, False)),  # one-sided set never covers
        ):
            verdicts = []
            for J in (8, 10, 12):
                from waverep.tiling import VerifyParams

                rep = verify_wavelet_set(E, A2, VerifyParams(j_max=J))
                verdicts.append((rep.disjoint.passed, rep.cover.passed))
            assert verdicts[0] == verdicts[1] == verdicts[2] == expected


class TestSampledMode:
    def test_counter_rng_reproducible(self):
        a = _counter_uniforms(7, 0, 5, 1)[:, 0].tolist()
        b = _counter_uniforms(7, 0, 5, 1)[:, 0].tolist()
        assert a == b
        assert all(0 <= x < 1 for x in a)
        assert _counter_uniforms(7, 0, 1, 1)[0, 0] != _counter_uniforms(8, 0, 1, 1)[0, 0]

    def test_sampled_agrees_with_exact_on_shannon(self):
        res = check_dilation_disjoint(
            shannon_set(), A2, j_max=6, mode="sampled", samples=800, seed=3
        )
        assert res.passed and res.mode == "sampled"
        cov = check_dilation_cover(
            shannon_set(),
            A2,
            annulus=(Fraction(1, 8), Fraction(8)),
            j_max=6,
            samples=800,
            seed=3,
            mode="sampled",
        )
        assert cov.passed and cov.mode == "sampled"

    def test_sampled_finds_overlap(self):
        res = check_dilation_disjoint(
            interval_set([(Fraction(1, 2), 2)]),
            A2,
            j_max=3,
            mode="sampled",
            samples=4000,
            seed=0,
            annulus=(Fraction(1, 8), Fraction(4)),
        )
        assert not res.passed
        assert len(res.witness["levels"]) >= 2

    def test_sampled_finds_gap(self):
        c = Fraction(1, 8)
        E = interval_set([(1 + c, 2 + c), (-2 - c, -1 - c)])
        res = check_dilation_cover(
            E,
            A2,
            annulus=(Fraction(1, 8), Fraction(8)),
            j_max=6,
            samples=4000,
            seed=0,
            mode="sampled",
        )
        assert not res.passed

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 3),
        r_in=st.floats(1e-3, 1e200),
        ratio=st.floats(1 + 1e-12, 1e100),
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**32),
    )
    def test_annulus_points_lie_in_the_shell(self, dim, r_in, ratio, seed, index):
        r_out = r_in * ratio
        x = RealPoint.from_floats(_sample_annulus(dim, r_in, r_out, seed, index, 1)[0])
        assert x.dim == dim
        assert r_in <= max(abs(c) for c in x.coords) <= r_out

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 3),
        r_in=st.floats(1e-3, 1e200),
        ratio=st.one_of(st.just(1 + 1e-12), st.floats(1 + 1e-12, 1e100)),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**32),
        count=st.integers(1, 8),
    )
    def test_block_rows_are_the_scalar_draws(self, dim, r_in, ratio, seed, start, count):
        r_out = r_in * ratio
        rows = _sample_annulus(dim, r_in, r_out, seed, start, count)
        assert rows.shape == (count, dim)
        for k, row in enumerate(rows.tolist()):
            assert tuple(row) == ref_sample_annulus(dim, r_in, r_out, seed, start + k).coords

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_annulus_draws_are_uniform(self, dim):
        # half the shell's volume lies inside radius r_mid, and each of the 2*dim faces
        # carries 1/(2*dim) of it
        count, r_in, r_out = 4000, 1.0, 2.0
        r_mid = ((r_in**dim + r_out**dim) / 2) ** (1 / dim)
        points = _sample_annulus(dim, r_in, r_out, 5, 0, count).tolist()
        norms = [max(abs(c) for c in x) for x in points]
        assert abs(sum(r <= r_mid for r in norms) / count - 0.5) < 0.03
        faces = []
        for x in points:
            k = max(range(dim), key=lambda a: abs(x[a]))
            faces.append(2 * k + (x[k] > 0))
        for face in range(2 * dim):
            assert abs(faces.count(face) / count - 1 / (2 * dim)) < 0.03

    def test_non_diagonal_downgrades(self):
        A = validate_dilation([[0, 2], [2, 0]])
        E = product_set(shannon_set(), shannon_set())
        res = check_dilation_disjoint(E, A, j_max=3, samples=300, seed=1)
        assert res.mode == "sampled"
        assert "non-diagonal" in res.note


_NON_DIAGONAL = [validate_dilation(m) for m in ([[0, 2], [2, 0]], [[0, -2], [2, 0]], [[1, 1], [-1, 1]])]
_NON_DIAGONAL_3 = [
    validate_dilation(m) for m in ([[0, 0, 2], [1, 0, 0], [0, 1, 0]], [[2, 1, 0], [0, 2, 1], [1, 0, 2]])
]
_ANNULI = [(Fraction(1, 8), Fraction(8)), (Fraction(1, 2), Fraction(2)), (Fraction(1), Fraction(4))]


def _one_pass_and_reference(E, A, j_max, samples, seed, annulus, mode):
    """The one-pass results without their coverage bound, and the two reference loops."""
    report = verify_wavelet_set(E, A, VerifyParams(j_max, annulus, samples, seed, mode))
    got = tuple(replace(c, fail_fraction_bound=None) for c in (report.disjoint, report.cover))
    want = (
        ref_sampled_disjoint(E, A, j_max, samples, seed, annulus, mode),
        ref_sampled_cover(E, A, j_max, samples, seed, annulus),
    )
    return got, want


class TestOnePass:
    """One scan over the draws decides (i) and (ii) as the two separate loops did."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 2),
        j_max=st.integers(0, 4),
        samples=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_same_results_as_two_loops(self, data, dim, j_max, samples, seed):
        E = data.draw(box_sets(dim))
        matrices = diagonal_matrices(dim)
        if dim == 2:
            matrices = st.one_of(matrices, st.sampled_from(_NON_DIAGONAL))
        A = data.draw(matrices)
        mode = data.draw(st.sampled_from(["sampled"] if A.is_diagonal else ["sampled", "auto"]))
        annulus = data.draw(st.sampled_from(_ANNULI))
        got, want = _one_pass_and_reference(E, A, j_max, samples, seed, annulus, mode)
        event(f"disjoint passed: {want[0].passed}, cover passed: {want[1].passed}")
        assert got == want

    @pytest.mark.parametrize(
        "E, A, verdicts",
        [
            (shannon_set(), A2, (True, True)),
            (interval_set([(-2, Fraction(-1, 2)), (Fraction(1, 2), 2)]), A2, (False, True)),
            (interval_set([(Fraction(9, 8), Fraction(17, 8)), (Fraction(-17, 8), Fraction(-9, 8))]),
             A2, (True, False)),
            (interval_set([(Fraction(1, 2), 2)]), A2, (False, False)),
            (product_set(shannon_set(), shannon_set()), _NON_DIAGONAL[0], (True, False)),
        ],
    )
    def test_each_outcome(self, E, A, verdicts):
        mode = "sampled" if A.is_diagonal else "auto"
        got, want = _one_pass_and_reference(E, A, 4, 300, 7, _ANNULI[0], mode)
        assert got == want
        assert (got[0].passed, got[1].passed) == verdicts

    @settings(max_examples=100, deadline=None)
    @given(
        A=st.sampled_from([A2, validate_dilation([[-3]]), *_NON_DIAGONAL, *_NON_DIAGONAL_3]),
        k=st.integers(-6, 6),
        seed=st.integers(0, 2**64 - 1),
        scale=st.floats(1e-3, 1e3),
    )
    def test_block_images_are_the_point_images(self, A, k, seed, scale):
        # the same left-to-right sum and final division as b_transform, with no BLAS product
        xs = scale * (2 * _counter_uniforms(seed, 0, 16, A.n) - 1)
        images = tiling._map_rows(A, k, xs)
        for x, image in zip(xs.tolist(), images.tolist()):
            assert tuple(image) == b_transform(A, RealPoint.from_floats(x), k).coords

    @pytest.mark.parametrize("seed", [2 << 40, 6 << 40, 9 << 40])
    def test_witness_in_a_later_block(self, seed, monkeypatch):
        # on the annulus [pi/2, 2pi], (i) fails on [pi, (1 + 1/1024) pi), a 1/3072 share, and
        # (ii) on [-(1 + 1/8192) pi, -pi) and its half, a 1/16384 share
        starts = []

        def counting(dim, r_in, r_out, seed, start, count):
            starts.append(start)
            return _sample_annulus(dim, r_in, r_out, seed, start, count)

        monkeypatch.setattr(tiling, "_sample_annulus", counting)
        E = interval_set([(1, 2 + Fraction(1, 512)), (-2, -1 - Fraction(1, 8192))])
        annulus = (Fraction(1, 2), Fraction(2))
        got, want = _one_pass_and_reference(E, A2, 1, 4 * _BLOCK, seed, annulus, "sampled")
        assert got == want
        assert not want[0].passed and max(starts) >= _BLOCK

    @pytest.mark.parametrize("E", [shannon_set(), interval_set([(Fraction(1, 2), 2)])])
    def test_each_draw_once(self, E, monkeypatch):
        counts = Counter()

        def counting(dim, r_in, r_out, seed, start, count):
            counts.update(range(start, start + count))
            return _sample_annulus(dim, r_in, r_out, seed, start, count)

        monkeypatch.setattr(tiling, "_sample_annulus", counting)
        verify_wavelet_set(E, A2, VerifyParams(j_max=4, samples=200, seed=1, mode="sampled"))
        assert counts and set(counts.values()) == {1}

    def test_pass_bounds_the_failing_fraction(self):
        E, samples = shannon_set(), 250
        params = VerifyParams(j_max=4, annulus=_ANNULI[0], samples=samples, mode="sampled")
        report = verify_wavelet_set(E, A2, params)
        for check in (report.disjoint, report.cover):
            assert check.passed
            assert check.fail_fraction_bound == pytest.approx(math.log(20) / samples, rel=1e-15)
            assert check.to_json()["fail_fraction_bound"] == check.fail_fraction_bound

    def test_no_bound_on_exact_or_failing_conditions(self):
        exact = verify_wavelet_set(shannon_set(), A2, VerifyParams(j_max=4))
        failed = verify_wavelet_set(
            interval_set([(Fraction(1, 2), 2)]), A2, VerifyParams(j_max=4, samples=200, mode="sampled")
        )
        for check in (exact.disjoint, exact.cover, exact.congruent, failed.disjoint, failed.cover):
            assert check.fail_fraction_bound is None
            assert "fail_fraction_bound" not in check.to_json()
        assert not failed.disjoint.passed and not failed.cover.passed


class TestOneParameterRecord:
    """The check functions read VerifyParams, and one predicate on it picks the path."""

    _T = _NON_DIAGONAL[0]
    _SXS = product_set(shannon_set(), shannon_set())
    _EXACT = "exact mode requested but the frequency matrix is not diagonal"

    def test_exact_mode_on_a_non_diagonal_matrix_fails_at_every_entry(self):
        with pytest.raises(ValueError, match=self._EXACT):
            check_dilation_disjoint(self._SXS, self._T, mode="exact")
        with pytest.raises(ValueError, match=self._EXACT):
            check_dilation_cover(self._SXS, self._T, mode="exact")
        with pytest.raises(ValueError, match=self._EXACT):
            verify_wavelet_set(self._SXS, self._T, VerifyParams(mode="exact"))

    def test_a_set_of_another_dimension_on_the_sampled_path(self):
        for mode in ("auto", "sampled"):
            with pytest.raises(DimensionMismatch, match="point and matrix dimensions differ"):
                check_dilation_disjoint(shannon_set(), self._T, mode=mode, samples=10)
        with pytest.raises(DimensionMismatch):
            check_dilation_cover(self._SXS, A2, mode="sampled", samples=10)
        with pytest.raises(DimensionMismatch):
            verify_wavelet_set(shannon_set(), self._T, VerifyParams(samples=10))

    def test_error_order(self):
        # a bad keyword first, then the vacuous empty set, then the annulus, then exact mode
        for E in (shannon_set(), BoxSet.empty(2)):
            with pytest.raises(TypeError):
                check_dilation_disjoint(E, A2, jmax=3)
            with pytest.raises(TypeError):
                check_dilation_cover(E, A2, sample=10)
        res = check_dilation_disjoint(BoxSet.empty(2), self._T, mode="exact")
        assert res.passed and res.mode == "exact" and res.note == "empty set, vacuous"
        with pytest.raises(BadAnnulus):
            check_dilation_cover(self._SXS, self._T, mode="exact", annulus=(Fraction(2), Fraction(1)))
        # verify_wavelet_set: exact mode before the dimension, the dimension before the annulus
        with pytest.raises(ValueError, match=self._EXACT):
            verify_wavelet_set(shannon_set(), self._T, VerifyParams(mode="exact", annulus=(2, 1)))
        with pytest.raises(DimensionMismatch):
            verify_wavelet_set(shannon_set(), self._T, VerifyParams(annulus=(2, 1)))

    @pytest.mark.parametrize("check", [check_dilation_disjoint, check_dilation_cover])
    def test_defaults_are_the_records(self, check, monkeypatch):
        seen = []
        monkeypatch.setattr(tiling, "_sampled_checks", lambda E, A, p: seen.append(p) or (None, None))
        check(self._SXS, self._T)
        check(shannon_set(), A2, mode="sampled", seed=5)
        assert seen == [VerifyParams(), VerifyParams(mode="sampled", seed=5)]
        assert seen[0].samples == 100_000

    def test_exact_path_calls_the_checks_with_the_mode(self, monkeypatch):
        # a tracer that wraps the checks by name reads their mode keyword
        calls = []
        for name in ("check_dilation_disjoint", "check_dilation_cover"):
            original = getattr(tiling, name)

            def recording(E, A, _original=original, _name=name, **params):
                calls.append((_name, params["mode"]))
                return _original(E, A, **params)

            monkeypatch.setattr(tiling, name, recording)
        verify_wavelet_set(shannon_set(), A2, VerifyParams(j_max=4, mode="exact"))
        assert calls == [("check_dilation_disjoint", "exact"), ("check_dilation_cover", "exact")]
