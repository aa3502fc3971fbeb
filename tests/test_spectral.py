import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waverep import spectral
from waverep.boxes import Box, BoxSet, interval_set
from waverep.errors import (
    AmbiguousScale,
    DimensionMismatch,
    NonDiagonalDilation,
    NotCovered,
    WindowTooSmall,
    ZeroFunction,
)
from waverep.funcs import ModulatedBoxSum
from waverep.groups import AdicVector, RealPoint, b_transform, validate_dilation
from waverep.spectral import isometry_defect, layer_span, project_point, to_layers
from waverep.tiling import shannon_set

from util import (
    box_sets,
    diagonal_matrices,
    float_bits,
    from_layers,
    product_set,
    random_disjoint_subordinate,
    random_subordinate,
    ref_isometry_defect,
    ref_layer_span,
    ref_layer_terms,
    ref_project_point,
    ref_window,
    terms_bits,
)

A2 = validate_dilation([[2]])
A23 = validate_dilation([[2, 0], [0, 3]])
E = shannon_set()
E2 = product_set(shannon_set(), interval_set([(-3, -1)]))  # disjoint-dilate 2D set
T2 = validate_dilation([[1, 1], [-1, 1]])  # expansive, not diagonal


class TestProjectPoint:
    def test_point_already_in_set(self):
        y, p = project_point(RealPoint.from_pi([Fraction(3, 2)]), E, A2)
        assert p == 0 and y.pi_coords == (Fraction(3, 2),)

    def test_point_one_level_down(self):
        y, p = project_point(RealPoint.from_pi([Fraction(3, 4)]), E, A2)
        assert p == 1 and y.pi_coords == (Fraction(3, 2),)

    def test_point_two_levels_up(self):
        y, p = project_point(RealPoint.from_pi([6]), E, A2)
        assert p == -2 and y.pi_coords == (Fraction(3, 2),)

    def test_defining_identity(self):
        from waverep.groups import b_transform

        rng = random.Random(2)
        for _ in range(40):
            num = rng.randint(1, 512) * rng.choice([1, -1])
            xi = RealPoint.from_pi([Fraction(num, 64)])
            y, p = project_point(xi, E, A2)
            back = b_transform(A2, y, -p)
            assert back.pi_coords == xi.pi_coords

    def test_scale_shift_relation(self):
        from waverep.groups import b_transform

        rng = random.Random(4)
        for _ in range(20):
            xi = RealPoint.from_pi([Fraction(rng.randint(1, 255), 32)])
            y, p = project_point(xi, E, A2)
            y2, p2 = project_point(b_transform(A2, xi, 1), E, A2)
            assert p2 == p - 1
            assert y2.pi_coords == y.pi_coords  # representative unchanged

    def test_not_covered(self):
        gap_set = interval_set([(1, 2)])  # negative axis never covered
        with pytest.raises(NotCovered):
            project_point(RealPoint.from_pi([-1]), gap_set, A2)

    def test_ambiguous(self):
        bad = interval_set([(Fraction(1, 2), 2)])
        with pytest.raises(AmbiguousScale):
            project_point(RealPoint.from_pi([1]), bad, A2)

    def test_float_path(self):
        y, p = project_point(RealPoint.from_floats([6.0 * math.pi]), E, A2)
        assert p == -2 and abs(y.coords[0] - 1.5 * math.pi) < 1e-12

    def test_2d(self):
        xi = RealPoint.from_pi([Fraction(3), Fraction(-9, 2)])
        y, p = project_point(xi, E2, A23)
        assert p == -1
        assert y.pi_coords == (Fraction(3, 2), Fraction(-3, 2))


class TestLayerMaps:
    def test_indicator_goes_to_layer_zero(self):
        f = ModulatedBoxSum.indicator(A2, E, 1 / math.sqrt(2 * math.pi))
        F = to_layers(f, E, A2)
        assert set(F.layers) == {0}
        assert F.layer(0).support().same_set(E)
        assert F.norm_sq() == pytest.approx(1.0)

    def test_dilated_indicator_lands_one_layer_up(self):
        f = ModulatedBoxSum.indicator(A2, E.dilate(A2, 1))
        F = to_layers(f, E, A2)
        assert set(F.layers) == {1}
        coefs = {t.coef for t in F.layer(1).terms}
        assert coefs == {complex(math.sqrt(2.0))}
        assert F.layer(1).support().same_set(E)

    def test_zero_function(self):
        F = to_layers(ModulatedBoxSum.zero(A2), E, A2, 0, 0)
        assert F.norm_sq() == 0.0

    def test_layer_indicator_inverts(self):
        F = to_layers(ModulatedBoxSum.indicator(A2, E), E, A2)
        f = from_layers(F)
        assert f.collect().support().same_set(E)
        g = (f - ModulatedBoxSum.indicator(A2, E)).collect()
        assert g.norm_sq() < 1e-24

    def test_negative_layer_inverts_to_shrunk_set(self):
        from waverep.funcs import Term
        from waverep.boxes import Box

        layer = ModulatedBoxSum.of(
            A2, [(1.0, AdicVector.zero(A2), b) for b in E.boxes]
        )
        from waverep.funcs import LayerFunction

        F = LayerFunction(A2, -1, -1, {-1: layer})
        f = from_layers(F)
        assert f.support().same_set(E.dilate(A2, -1))
        assert {t.coef for t in f.terms} == {complex(math.sqrt(2.0))}

    def test_roundtrip_random(self):
        rng = random.Random(9)
        for _ in range(25):
            f = random_subordinate(rng, E, A2)
            F = to_layers(f, E, A2)
            back = from_layers(F)
            diff = (back - f).collect()
            assert diff.norm_sq() < 1e-20 * max(f.norm_sq(), 1.0)

    def test_roundtrip_2d(self):
        rng = random.Random(10)
        for _ in range(10):
            f = random_subordinate(rng, E2, A23, k_lo=-2, k_hi=2)
            F = to_layers(f, E2, A23)
            back = from_layers(F)
            assert (back - f).collect().norm_sq() < 1e-18 * max(f.norm_sq(), 1.0)

    def test_window_too_small(self):
        f = ModulatedBoxSum.indicator(A2, E.dilate(A2, 2))
        with pytest.raises(WindowTooSmall):
            to_layers(f, E, A2, k_min=0, k_max=1)

    def test_parseval_layer_split(self):
        rng = random.Random(11)
        for _ in range(10):
            f = random_disjoint_subordinate(rng, E, A2)
            F = to_layers(f, E, A2)
            assert F.norm_sq() == pytest.approx(f.norm_sq(), rel=1e-12)

    def test_span_detection(self):
        f = ModulatedBoxSum.indicator(A2, E.dilate(A2, -2).union(E.dilate(A2, 3)))
        assert layer_span(f, E, A2) == (-2, 3)


class TestIsometryDefect:
    def test_indicator_exact_zero(self):
        assert isometry_defect(ModulatedBoxSum.indicator(A2, E), E, A2) == 0.0

    def test_random_exact_path_is_exactly_zero(self):
        rng = random.Random(12)
        for _ in range(40):
            f = random_disjoint_subordinate(rng, E, A2)
            assert isometry_defect(f, E, A2) == 0.0

    def test_random_exact_path_2d(self):
        rng = random.Random(13)
        for _ in range(15):
            f = random_disjoint_subordinate(rng, E2, A23, k_lo=-2, k_hi=2)
            assert isometry_defect(f, E2, A23) == 0.0

    def test_modulated_path_small(self):
        rng = random.Random(14)
        for _ in range(10):
            f = random_subordinate(rng, E, A2)
            assert isometry_defect(f, E, A2) < 1e-10

    def test_out_of_window_mass_reported(self):
        f = ModulatedBoxSum.indicator(A2, E.dilate(A2, 2))
        d = isometry_defect(f, E, A2, k_min=0, k_max=1)
        assert d == pytest.approx(1.0)

    def test_zero_function_raises(self):
        with pytest.raises(ZeroFunction):
            isometry_defect(ModulatedBoxSum.zero(A2), E, A2, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from([(E, A2, -3, 3), (E2, A23, -2, 2)]),
        window=st.sampled_from([(None, None), (-1, 1), (0, 2)]),
    )
    def test_exact_and_closed_form_paths_agree(self, seed, case, window):
        # the same function on disjoint boxes, and written with every term twice at half its coefficient
        S, A, k_lo, k_hi = case
        f = random_disjoint_subordinate(random.Random(seed), S, A, k_lo, k_hi)
        g = ModulatedBoxSum(A, f.terms * 2).scaled(0.5)
        assert spectral.isometry_path(f) == "exact"
        assert spectral.isometry_path(g) == "closed-form"
        assert isometry_defect(g, S, A, *window) == pytest.approx(isometry_defect(f, S, A, *window), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    kind=st.sampled_from(["disjoint", "constant", "modulated"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pieces_match_the_per_box_loops(dim, kind, seed, data):
    # layers and defects have the bits of the two loops the piece routine replaced
    A = data.draw(diagonal_matrices(dim))
    S = data.draw(box_sets(dim))
    rng = random.Random(seed)
    if kind == "disjoint":
        f = random_disjoint_subordinate(rng, S, A, k_lo=-2, k_hi=2)
    else:
        f = random_subordinate(rng, S, A, -2, 2, modulated=kind == "modulated")
    F = to_layers(f, S, A, -3, 3, tol=math.inf)
    got = {k: layer.terms for k, layer in F.layers.items()}
    assert terms_bits(got) == terms_bits(ref_layer_terms(f, S, A, -3, 3))
    defect, want = isometry_defect(f, S, A, -3, 3), ref_isometry_defect(f, S, A, -3, 3)
    assert float_bits(defect) == float_bits(want)


@st.composite
def far_boxes(draw, dim: int) -> Box:
    """A box of random scale 2^-80 .. 2^80 per axis, reaching past the cap on either side."""
    lo, hi = [], []
    for _ in range(dim):
        scale = Fraction(2) ** draw(st.integers(-80, 80))
        a = draw(st.integers(-8, 8)) * scale / 4
        b = a + draw(st.integers(1, 8)) * scale / 4
        if draw(st.integers(0, 3)) == 0:  # one axis in four straddles 0
            a, b = -max(abs(a), abs(b)), max(abs(a), abs(b))
        lo.append(a)
        hi.append(b)
    return Box(tuple(lo), tuple(hi))


class TestLayerSpan:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_bracket_finds_the_scanned_window(self, dim, data):
        # negative entries, sets that touch the origin and boxes beyond the cap included
        A = data.draw(diagonal_matrices(dim))
        S = data.draw(box_sets(dim))
        boxes = data.draw(st.lists(far_boxes(dim), min_size=1, max_size=3))
        f = ModulatedBoxSum.piecewise(A, [(b, 1.0) for b in boxes])
        assert layer_span(f, S, A) == ref_layer_span(f, S, A)

    @pytest.mark.parametrize(
        "lo, hi",
        [(-3, -2), (Fraction(2**60), Fraction(2**61)), (Fraction(1, 2**60), Fraction(1, 2**59))],
    )
    def test_meeting_no_dilate_gives_zero_window(self, lo, hi):
        # [1, 2) has dilates on the positive axis only; the last two boxes lie past the cap
        S = interval_set([(1, 2)])
        f = ModulatedBoxSum.piecewise(A2, [(Box((Fraction(lo),), (Fraction(hi),)), 1.0)])
        assert layer_span(f, S, A2) == ref_layer_span(f, S, A2) == (0, 0)

    def test_set_touching_the_origin_has_no_upper_bound(self):
        S = interval_set([(-1, 1)])
        f = ModulatedBoxSum.piecewise(A2, [(Box((Fraction(2) ** 30,), (Fraction(2) ** 31,)), 1.0)])
        assert layer_span(f, S, A2) == ref_layer_span(f, S, A2) == (31, 48)

    @pytest.mark.parametrize("k", [-46, -7, 0, 3, 45])
    def test_examines_a_bounded_number_of_dilates(self, k, monkeypatch):
        # on Shannon the window is found from O(1) dilates, not from all 97 within the cap
        dilates = []
        dilate = BoxSet.dilate

        def counting(self, A, j):
            dilates.append(j)
            return dilate(self, A, j)

        rng = random.Random(k)
        f = random_subordinate(rng, E, A2, k, k + 2)
        want = ref_layer_span(f, E, A2)
        monkeypatch.setattr(BoxSet, "dilate", counting)
        assert layer_span(f, E, A2) == want
        assert len(dilates) <= 4


class TestPieceScan:
    def test_set_of_another_dimension_raises(self):
        # a 2-D set with a 1-D matrix: no 1-D piece of a 2-D box may come back
        f = ModulatedBoxSum.indicator(A2, E)
        with pytest.raises(DimensionMismatch):
            layer_span(f, E2, A2)
        with pytest.raises(DimensionMismatch):
            to_layers(f, E2, A2, -1, 1)
        with pytest.raises(DimensionMismatch):
            isometry_defect(f, E2, A2, -1, 1)

    @pytest.mark.parametrize("f", [ModulatedBoxSum.indicator(T2, E2), ModulatedBoxSum.zero(T2)])
    def test_non_diagonal_matrix_raises_for_every_function(self, f):
        text = "exact dilation needs a diagonal matrix; use the sampled path"
        with pytest.raises(NonDiagonalDilation, match=text):
            layer_span(f, E2, T2)
        with pytest.raises(NonDiagonalDilation, match=text):
            to_layers(f, E2, T2, 0, 0)

    def test_zero_norm_error_order(self):
        # a given window reports the zero norm first, a missing one the matrix first
        box = E2.boxes[0]
        f = ModulatedBoxSum.piecewise(T2, [(box, 1.0), (box, -1.0)])
        with pytest.raises(ZeroFunction, match="isometry defect of the zero function"):
            isometry_defect(f, E2, T2, 0, 0)
        for window in _WINDOWS[:3]:
            with pytest.raises(NonDiagonalDilation):
                isometry_defect(f, E2, T2, *window)

    def test_zero_coefficients_are_the_zero_function(self):
        # only zero coefficients: the exact path's covered volume and the closed-form norm are 0
        step = ModulatedBoxSum.piecewise(A2, [(Box((1,), (2,)), 0.0), (Box((-2,), (-1,)), 0.0)])
        assert spectral.isometry_path(step) == "exact"
        with pytest.raises(ZeroFunction, match="isometry defect of the zero function"):
            isometry_defect(step, E, A2)
        modulated = ModulatedBoxSum.of(A2, [(0.0, AdicVector.of(A2, [1], 1), Box((1,), (2,)))])
        assert spectral.isometry_path(modulated) == "closed-form"
        for window in ((None, None), (-1, None), (None, 1)):
            with pytest.raises(ZeroFunction, match="isometry defect of the zero function"):
                isometry_defect(modulated, E, A2, *window)

    def test_empty_set_has_no_layers(self):
        f = ModulatedBoxSum.indicator(A2, E)
        assert layer_span(f, BoxSet.empty(1), A2) == (0, 0)
        assert to_layers(f, BoxSet.empty(1), A2, -3, 3, tol=math.inf).layers == {}

    def test_dilates_do_not_grow_with_the_window(self, monkeypatch):
        # each box of f is dilated only within its own bracket, however wide the window
        f = random_subordinate(random.Random(31), E, A2)  # 4 terms in layers -3..3
        dilates = []
        dilate = Box.dilate

        def counting(self, A, j):
            dilates.append(j)
            return dilate(self, A, j)

        monkeypatch.setattr(Box, "dilate", counting)
        counts, layers = [], []
        for w in (4, 40):
            dilates.clear()
            F = to_layers(f, E, A2, -w, w)
            counts.append(len(dilates))
            layers.append(terms_bits({k: layer.terms for k, layer in F.layers.items()}))
        assert counts[0] == counts[1] <= 2 * len(f.terms)
        assert layers[0] == layers[1]

    @pytest.mark.parametrize(
        "lo, hi, window, k",
        [
            (Fraction(2**60), Fraction(2**61), (55, 65), 60),
            (Fraction(1, 2**61), Fraction(1, 2**60), (-65, -55), -61),
        ],
    )
    def test_layer_past_the_cap(self, lo, hi, window, k):
        # the bracket is clamped to the window asked for, not to layer_span's cap
        f = ModulatedBoxSum.piecewise(A2, [(Box((lo,), (hi,)), 1.0)])
        F = to_layers(f, E, A2, *window)
        assert list(F.layers) == [k]
        got = {j: layer.terms for j, layer in F.layers.items()}
        assert terms_bits(got) == terms_bits(ref_layer_terms(f, E, A2, *window))
        assert isometry_defect(f, E, A2, *window) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_windows_past_the_cap_match_the_per_k_loops(self, dim, data):
        A = data.draw(diagonal_matrices(dim))
        S = data.draw(box_sets(dim))
        boxes = data.draw(st.lists(far_boxes(dim), min_size=1, max_size=3))
        f = ModulatedBoxSum.piecewise(A, [(b, 1.0) for b in boxes])
        lo = data.draw(st.integers(39, 85))
        k_min, k_max = (lo, lo + 10) if data.draw(st.booleans()) else (-lo - 10, -lo)
        F = to_layers(f, S, A, k_min, k_max, tol=math.inf)
        got = {k: layer.terms for k, layer in F.layers.items()}
        assert terms_bits(got) == terms_bits(ref_layer_terms(f, S, A, k_min, k_max))
        defect = isometry_defect(f, S, A, k_min, k_max)
        assert float_bits(defect) == float_bits(ref_isometry_defect(f, S, A, k_min, k_max))


def _scans(monkeypatch) -> list:
    """The windows of every ``spectral._pieces`` call from now on."""
    scans = []
    pieces = spectral._pieces

    def counting(f, E, A, k_min, k_max):
        scans.append((k_min, k_max))
        return pieces(f, E, A, k_min, k_max)

    monkeypatch.setattr(spectral, "_pieces", counting)
    return scans


def _defect(fn, *args):
    """The bits of an isometry defect, or the type and text of its error."""
    try:
        return float_bits(fn(*args))
    except ZeroFunction as exc:
        return type(exc), str(exc)


_WINDOWS = [(None, None), (-1, None), (None, 3), (-1, 3)]
_END = st.none() | st.integers(-60, 60)


class TestWindowRule:
    """A missing end is f's first or last layer with |k| <= 48, from the one scan of the call."""

    @pytest.mark.parametrize("kind", ["step", "modulated"])
    @pytest.mark.parametrize("window", _WINDOWS)
    def test_one_scan_per_call(self, kind, window, monkeypatch):
        rng = random.Random(41)
        if kind == "step":
            f = random_disjoint_subordinate(rng, E, A2)
        else:
            f = random_subordinate(rng, E, A2)
        assert spectral.isometry_path(f) == ("exact" if kind == "step" else "closed-form")
        scans = _scans(monkeypatch)
        calls = [
            lambda: to_layers(f, E, A2, *window, tol=math.inf),
            lambda: isometry_defect(f, E, A2, *window),
        ]
        if window == (None, None):
            calls.append(lambda: layer_span(f, E, A2))
        for call in calls:
            scans.clear()
            call()
            assert len(scans) == 1

    @pytest.mark.parametrize(
        "k, window", [(55, (None, 60)), (55, (50, None)), (-55, (-60, None)), (-55, (None, None))]
    )
    def test_layers_past_the_cap_fill_no_end(self, k, window):
        # f meets no dilate with |k| <= 48, so a missing end is 0
        f = random_subordinate(random.Random(k), E, A2, k, k)
        F = to_layers(f, E, A2, *window, tol=math.inf)
        want = ref_window(f, E, A2, *window)
        assert (F.k_min, F.k_max) == want and 0 in want
        got = {j: layer.terms for j, layer in F.layers.items()}
        assert terms_bits(got) == terms_bits(ref_layer_terms(f, E, A2, *want))

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        kind=st.sampled_from(["zero", "step", "constant", "modulated"]),
        seed=st.integers(0, 2**32 - 1),
        k_min=_END,
        k_max=_END,
        data=st.data(),
    )
    def test_same_window_rule_as_before(self, dim, kind, seed, k_min, k_max, data):
        # ends past the cap, layers of f past it and one-sided windows that end up inverted
        A = data.draw(diagonal_matrices(dim))
        S = data.draw(box_sets(dim))
        rng = random.Random(seed)
        c = data.draw(st.integers(-56, 56))
        if kind == "zero":
            f = ModulatedBoxSum.zero(A)
        elif kind == "step":
            f = random_disjoint_subordinate(rng, S, A, c - 2, c + 2)
        else:
            f = random_subordinate(rng, S, A, c - 2, c + 2, modulated=kind == "modulated")
        window = ref_window(f, S, A, k_min, k_max)
        want = ref_layer_terms(f, S, A, *window)
        F = to_layers(f, S, A, k_min, k_max, tol=math.inf)
        assert (F.k_min, F.k_max) == window
        assert terms_bits({k: layer.terms for k, layer in F.layers.items()}) == terms_bits(want)
        fn = f.norm_sq()
        mapped = sum(ModulatedBoxSum(A, terms).norm_sq() for terms in want.values())
        trunc = max(fn - mapped, 0.0) if fn > 0 else 0.0
        assert float_bits(F.truncation_mass) == float_bits(trunc)
        text = f"truncation mass {trunc:.3e} exceeds 1.0e-10 of ||f||^2"
        if trunc > 1e-10 * fn:
            with pytest.raises(WindowTooSmall) as err:
                to_layers(f, S, A, k_min, k_max)
            assert str(err.value) == text
        else:
            assert to_layers(f, S, A, k_min, k_max).k_min == window[0]
        got = _defect(isometry_defect, f, S, A, k_min, k_max)
        assert got == _defect(ref_isometry_defect, f, S, A, *window)


def _projection(fn, *args):
    """The result of fn as exact data, or the type, text and witnesses of its error."""
    try:
        y, p = fn(*args)
    except (AmbiguousScale, NotCovered) as exc:
        return type(exc), str(exc), getattr(exc, "witnesses", None)
    return y.pi_coords, p


class TestProjectPointBracket:
    """An exact point on a diagonal matrix is tried only at the scales of its bracket."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), max_iter=st.integers(0, 8))
    def test_same_as_the_outward_scan(self, data, dim, max_iter):
        # per axis an edge of a box of S, zero or an inner point, moved to a level
        # that may lie beyond +-max_iter
        A = data.draw(diagonal_matrices(dim))
        S = data.draw(box_sets(dim))
        box = data.draw(st.sampled_from(S.boxes))
        level = data.draw(st.integers(-max_iter - 3, max_iter + 3))
        coords = []
        for lo, hi in zip(box.lo, box.hi):
            t = data.draw(st.fractions(0, 1, max_denominator=16))
            coords.append(data.draw(st.sampled_from([lo, hi, Fraction(0), lo + (hi - lo) * t])))
        xi = b_transform(A, RealPoint.from_pi(coords), -level)
        want = _projection(ref_project_point, xi, S, A, max_iter)
        assert _projection(project_point, xi, S, A, max_iter) == want

    @pytest.mark.parametrize("S", [interval_set([(a, a + 2)]) for a in (-2, -1, 0)])
    @pytest.mark.parametrize("x", [0, 1, -1, Fraction(1, 2**70), Fraction(-3, 2**70), 2**70])
    def test_sets_touching_the_origin(self, S, x):
        xi = RealPoint.from_pi([x])
        want = _projection(ref_project_point, xi, S, A2, 64)
        assert _projection(project_point, xi, S, A2, 64) == want

    def test_far_point_tries_one_scale(self, monkeypatch):
        # 3 * 2^39 pi is 1.5 pi at p = -40: the bracket holds that scale alone,
        # where the outward scan maps the point at 43 scales
        calls = []
        real = spectral.b_transform

        def counting(A, x, k):
            calls.append(k)
            return real(A, x, k)

        monkeypatch.setattr(spectral, "b_transform", counting)
        y, p = project_point(RealPoint.from_pi([3 * 2**39]), E, A2)
        assert (y.pi_coords, p) == ((Fraction(3, 2),), -40)
        assert len(calls) <= 2

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), k=st.integers(-200, 200))
    def test_locates_points_at_every_level(self, data, dim, k):
        # a point of S moved to level k, however far past max_iter: the bracket is finite
        # when S keeps away from the origin, so every scale in it is tried
        A = data.draw(diagonal_matrices(dim))
        S = data.draw(box_sets(dim))
        assume(S.bounding_radii()[0] > 0)
        box = data.draw(st.sampled_from(S.boxes))
        t = st.fractions(0, 1, max_denominator=16).filter(lambda t: t < 1)
        x = RealPoint.from_pi([lo + (hi - lo) * data.draw(t) for lo, hi in zip(box.lo, box.hi)])
        xi = b_transform(A, x, -k)
        got = _projection(project_point, xi, S, A)
        assert got == _projection(ref_project_point, xi, S, A)
        assert got[0] is AmbiguousScale or got == (x.pi_coords, k)

    def test_zero_coordinate_point_far_away(self, monkeypatch):
        # (0, 3 2^90 pi) is (0, 3/2 pi) at p = -91: the zero axis bounds no scale, and
        # the other axis bounds both ends
        calls = []
        real = spectral.b_transform

        def counting(A, x, k):
            calls.append(k)
            return real(A, x, k)

        monkeypatch.setattr(spectral, "b_transform", counting)
        S = product_set(interval_set([(-1, 1)]), E)
        A = validate_dilation([[2, 0], [0, 2]])
        y, p = project_point(RealPoint.from_pi([0, 3 * 2**90]), S, A)
        assert (y.pi_coords, p) == ((0, Fraction(3, 2)), -91)
        assert len(calls) <= 2
        with pytest.raises(NotCovered):
            project_point(RealPoint.from_pi([3 * 2**90, 0]), S, A)
        with pytest.raises(NotCovered):
            project_point(RealPoint.from_pi([0, 0]), S, A)
        assert len(calls) <= 4
