import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverep.boxes import Box, interval_set
from waverep.errors import WindowTooSmall
from waverep.funcs import ModulatedBoxSum
from waverep.groups import (
    AdicVector,
    DilationMatrix,
    GroupElement,
    RealPoint,
    b_transform,
    validate_dilation,
)
from waverep.operators import (
    FiberOperator,
    apply_layer_rep,
    commutator_with_dilation,
    commutator_with_modulation,
    conjugation_defect,
    fiber_operator,
    induced_operator,
    interior_deviation,
    invariant_step_extension,
    multiply_step,
    orbit_shift_defect,
)
from waverep.spectral import to_layers
from waverep.tiling import shannon_set

from util import (
    commutation_defect,
    diagonal_matrices,
    expansive,
    find_orbit_shift,
    float_bits,
    product_set,
    random_adic,
    random_element,
    random_point_in,
    random_subordinate,
    ref_fiber_phases,
    ref_induced_phases,
)

A2 = validate_dilation([[2]])
A23 = validate_dilation([[2, 0], [0, 3]])
E = shannon_set()
E2 = product_set(shannon_set(), interval_set([(-3, -1)]))


def adic(v, j=0, A=A2):
    if isinstance(v, int):
        v = (v,)
    return AdicVector.of(A, v, j)


class TestFrequencyOperators:
    def test_modulation_zero_is_identity(self):
        f = ModulatedBoxSum.indicator(A2, E)
        assert f.modulated(AdicVector.zero(A2)) == f

    def test_modulation_shifts_parameter(self):
        f = ModulatedBoxSum.indicator(A2, interval_set([(1, 2)]))
        g = f.modulated(adic(1))
        assert g.terms[0].beta == adic(1)

    def test_modulation_is_isometric(self):
        rng = random.Random(1)
        for _ in range(20):
            f = random_subordinate(rng, E, A2)
            b = random_adic(rng, A2)
            assert f.modulated(b).norm_sq() == pytest.approx(f.norm_sq(), rel=1e-12)

    def test_dilation_moves_box(self):
        f = ModulatedBoxSum.indicator(A2, interval_set([(1, 2)]))
        g = f.dilated(1)
        assert g.terms[0].box == Box((Fraction(2),), (Fraction(4),))
        assert g.terms[0].coef == pytest.approx(2 ** -0.5)

    def test_dilation_zero_identity(self):
        f = ModulatedBoxSum.indicator(A2, E)
        assert f.dilated(0) == f

    def test_dilation_is_isometric(self):
        rng = random.Random(2)
        for _ in range(20):
            f = random_subordinate(rng, E, A2)
            m = rng.randint(-3, 3)
            assert f.dilated(m).norm_sq() == pytest.approx(f.norm_sq(), rel=1e-12)

    def test_dilation_isometric_2d(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_subordinate(rng, E2, A23, k_lo=-2, k_hi=2)
            assert f.dilated(2).norm_sq() == pytest.approx(f.norm_sq(), rel=1e-12)


class TestInnerProduct:
    def test_indicator_norm_is_measure(self):
        f = ModulatedBoxSum.indicator(A2, E)
        assert f.inner(f) == pytest.approx(2 * math.pi)

    def test_disjoint_supports(self):
        f = ModulatedBoxSum.indicator(A2, interval_set([(1, 2)]))
        g = ModulatedBoxSum.indicator(A2, interval_set([(-2, -1)]))
        assert f.inner(g) == 0

    def test_full_period_modulation_integrates_to_zero(self):
        box = interval_set([(0, 2)])
        f = ModulatedBoxSum.indicator(A2, box).modulated(adic(1))
        g = ModulatedBoxSum.indicator(A2, box)
        assert f.inner(g) == 0  # exact, by rational phase reduction

    def test_hermitian(self):
        rng = random.Random(4)
        for _ in range(10):
            f = random_subordinate(rng, E, A2)
            g = random_subordinate(rng, E, A2)
            assert abs(f.inner(g) - g.inner(f).conjugate()) < 1e-12


class TestCommutation:
    def test_dilation_by_two(self):
        assert commutation_defect(A2, 0) == 0.0

    def test_diag_2_3_both_axes(self):
        assert commutation_defect(A23, 0) == 0.0
        assert commutation_defect(A23, 1) == 0.0

    def test_identity_pair(self):
        f = ModulatedBoxSum.indicator(A2, E)
        lhs = f.dilated(0).modulated(AdicVector.zero(A2))
        assert (lhs - f).collect().norm_sq() == 0.0


class TestLayerRep:
    def test_identity_element(self):
        F = to_layers(ModulatedBoxSum.indicator(A2, E), E, A2, -2, 2)
        G = apply_layer_rep(GroupElement.identity(A2), F)
        assert (F - G).norm_sq() == 0.0

    def test_pure_shift(self):
        F = to_layers(ModulatedBoxSum.indicator(A2, E), E, A2, -2, 2)
        G = apply_layer_rep(GroupElement.of(A2, [0], 0, 1), F)
        assert set(G.layers) == {1}
        assert (G.layer(1) - F.layer(0)).collect().norm_sq() == 0.0

    def test_pure_modulation(self):
        F = to_layers(ModulatedBoxSum.indicator(A2, E), E, A2, 0, 0)
        G = apply_layer_rep(GroupElement.of(A2, [1], 0, 0), F)
        assert set(G.layers) == {0}
        assert all(t.beta == adic(1) for t in G.layer(0).terms)

    def test_shift_out_of_window_raises(self):
        F = to_layers(ModulatedBoxSum.indicator(A2, E), E, A2, 0, 0)
        with pytest.raises(WindowTooSmall):
            apply_layer_rep(GroupElement.of(A2, [0], 0, 1), F)


class TestConjugation:
    def test_identity_zero_deviation(self):
        f = ModulatedBoxSum.indicator(A2, E)
        assert conjugation_defect(GroupElement.identity(A2), f, E, A2) == 0.0

    def test_pure_dilation_on_indicator(self):
        f = ModulatedBoxSum.indicator(A2, E)
        assert conjugation_defect(GroupElement.of(A2, [0], 0, 1), f, E, A2) < 1e-12

    def test_lattice_modulation_on_indicator(self):
        f = ModulatedBoxSum.indicator(A2, E)
        assert conjugation_defect(GroupElement.of(A2, [3], 0, 0), f, E, A2) < 1e-12

    def test_random_pairs_dilation_two(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_subordinate(rng, E, A2)
            g = random_element(rng, A2)
            assert conjugation_defect(g, f, E, A2) < 1e-10

    def test_random_pairs_diag_2_3(self):
        rng = random.Random(6)
        for _ in range(15):
            f = random_subordinate(rng, E2, A23, k_lo=-2, k_hi=2)
            g = random_element(rng, A23, mmax=2)
            assert conjugation_defect(g, f, E2, A23) < 1e-10


class TestFiberOperators:
    def test_pure_shift_matrix(self):
        M = fiber_operator(RealPoint.from_pi([Fraction(3, 2)]), GroupElement.of(A2, [0], 0, 2), 8)
        assert M.shift == 2
        assert all(p == 1 for p in M.phases.values())

    def test_pure_phase_matrix(self):
        x = RealPoint.from_pi([Fraction(1, 2)])
        M = fiber_operator(x, GroupElement.of(A2, [1], 0, 0), 4)
        assert M.shift == 0
        # phase at k: e^{-i x 2^k}; at k=1 the phase angle is -pi
        assert M.phases[1] == -1

    def test_phases_unimodular(self):
        rng = random.Random(7)
        for _ in range(30):
            x = random_point_in(rng, E)
            M = fiber_operator(x, random_element(rng, A2), 16)
            assert all(abs(abs(p) - 1) < 1e-14 for p in M.phases.values())

    def test_homomorphism_interior(self):
        rng = random.Random(8)
        for _ in range(60):
            x = random_point_in(rng, E)
            g1, g2 = random_element(rng, A2), random_element(rng, A2)
            lhs = fiber_operator(x, g1 * g2, 16)
            rhs = fiber_operator(x, g1, 16).compose(fiber_operator(x, g2, 16))
            assert interior_deviation(lhs, rhs) < 1e-12

    def test_homomorphism_2d(self):
        rng = random.Random(9)
        for _ in range(30):
            x = random_point_in(rng, E2)
            g1, g2 = random_element(rng, A23), random_element(rng, A23)
            lhs = induced_operator(x, g1 * g2, 12)
            rhs = induced_operator(x, g1, 12).compose(induced_operator(x, g2, 12))
            assert interior_deviation(lhs, rhs) < 1e-12

    def test_apply_matches_layer_action_at_point(self):
        rng = random.Random(10)
        for _ in range(20):
            f = random_subordinate(rng, E, A2)
            g = random_element(rng, A2)
            F = to_layers(f, E, A2, -8, 8)
            G = apply_layer_rep(g, F)
            x = random_point_in(rng, E)
            vec = {k: F.eval(x, k) for k in range(-8, 9)}
            M = fiber_operator(x, g, 8)
            out = M.apply(vec)
            for k, val in out.items():
                assert abs(val - G.eval(x, k)) < 1e-12


class TestFiberRecurrence:
    @settings(max_examples=150, deadline=None)
    @given(
        A=expansive(),
        j=st.integers(0, 5),
        m=st.integers(-3, 3),
        K=st.integers(0, 48),
        exact=st.booleans(),
        data=st.data(),
    )
    def test_table_has_the_bits_of_the_per_k_loop(self, A, j, m, K, exact, data):
        # n = 1..3, non-diagonal A and negative det; zero signs compared too
        v = data.draw(st.lists(st.integers(-9, 9), min_size=A.n, max_size=A.n))
        coords = st.fractions(-6, 6, max_denominator=24) if exact else st.floats(-4, 4)
        xs = data.draw(st.lists(coords, min_size=A.n, max_size=A.n))
        x = RealPoint.from_pi(xs) if exact else RealPoint.from_floats(xs)
        g = GroupElement.of(A, v, j, m)
        M = fiber_operator(x, g, K)
        want = ref_fiber_phases(x, g, K)
        assert M.shift == m
        assert list(M.phases) == list(want)
        assert {k: float_bits(p) for k, p in M.phases.items()} == {
            k: float_bits(p) for k, p in want.items()
        }

    @pytest.mark.parametrize("exact", [True, False])
    def test_no_group_work_per_index(self, exact, monkeypatch):
        # AdicVector constructions and powers of A per call do not grow with the window
        counts = {"new": 0, "power": 0}
        post_init, power = AdicVector.__post_init__, DilationMatrix.power

        def counting_init(self):
            counts["new"] += 1
            post_init(self)

        def counting_power(self, k):
            counts["power"] += 1
            return power(self, k)

        monkeypatch.setattr(AdicVector, "__post_init__", counting_init)
        monkeypatch.setattr(DilationMatrix, "power", counting_power)
        A = validate_dilation([[2, 1], [0, 3]])
        g = GroupElement.of(A, [3, -5], 2, 1)
        if exact:
            x = RealPoint.from_pi([Fraction(13, 10), Fraction(-2, 7)])
        else:
            x = RealPoint.from_floats([1.3, -0.7])
        seen = []
        for K in (4, 16, 48):
            counts.update(new=0, power=0)
            fiber_operator(x, g, K)
            seen.append(dict(counts))
        assert seen[0] == seen[1] == seen[2]


class TestReflectionIntertwiner:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        exact=st.booleans(),
        K=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_induced_table_is_the_direct_one(self, dim, exact, K, seed, data):
        # reflecting the fiber table keeps the bits of a per-k evaluation
        A = data.draw(diagonal_matrices(dim))
        coords = st.fractions(-4, 4, max_denominator=16) if exact else st.floats(-4, 4)
        xs = data.draw(st.lists(coords, min_size=dim, max_size=dim))
        x = RealPoint.from_pi(xs) if exact else RealPoint.from_floats(xs)
        g = random_element(random.Random(seed), A)
        ind = induced_operator(x, g, K)
        assert ind.shift == -g.m
        want = ref_induced_phases(x, g, K)
        assert {k: float_bits(p) for k, p in ind.phases.items()} == {
            k: float_bits(p) for k, p in want.items()
        }


class TestOrbitShift:
    def test_zero_step_identity(self):
        x = RealPoint.from_pi([Fraction(3, 2)])
        g = GroupElement.of(A2, [1], 0, 0)
        assert orbit_shift_defect(x, 0, g, 8, A2) == 0.0

    def test_oracle_finds_offset_equal_to_step(self):
        x = RealPoint.from_pi([Fraction(1, 2)])
        g = GroupElement.of(A2, [1], 0, 0)
        offset, dev = find_orbit_shift(x, 1, g, 8, A2)
        assert offset == 1 and dev < 1e-12

    def test_wrong_offset_nonzero(self):
        x = RealPoint.from_pi([Fraction(1, 2)])
        g = GroupElement.of(A2, [1], 0, 0)
        y_op = induced_operator(RealPoint.from_pi([1]), g, 8)
        dev = interior_deviation(y_op.shift_conjugate(0), induced_operator(x, g, 8))
        assert dev > 0.1

    def test_random_orbit_steps(self):
        rng = random.Random(12)
        for _ in range(40):
            x = random_point_in(rng, E)
            g = random_element(rng, A2)
            m = rng.randint(-4, 4)
            assert orbit_shift_defect(x, m, g, 32, A2) < 1e-12

    def test_window_guard(self):
        x = RealPoint.from_pi([Fraction(3, 2)])
        with pytest.raises(WindowTooSmall):
            orbit_shift_defect(x, 5, GroupElement.of(A2, [1], 0, 0), 4, A2)


class TestIrreducibilityScan:
    def test_validation_excludes_unit_eigenvalue(self):
        from waverep.errors import NotExpansive

        with pytest.raises(NotExpansive):
            validate_dilation([[1]])


class TestIrreducibilityIsExact:
    """For expansive B, B^m - I is invertible at every m != 0: only the origin is periodic."""

    @pytest.mark.parametrize(
        "x", [RealPoint.from_floats([-0.0, 0.0]), RealPoint.from_pi([0, 0])]
    )
    def test_origin_returns_at_once(self, x):
        # a float point has coords alone and an exact one pi_coords alone: compare both forms
        y = b_transform(A23, x, 1)
        assert (y.coords, y.pi_coords) == (x.coords, x.pi_coords)

    @settings(max_examples=60, deadline=None)
    @given(A=expansive(), data=st.data())
    def test_exact_points_match_the_orbit_scan(self, A, data):
        coords = st.lists(st.fractions(-4, 4, max_denominator=8), min_size=A.n, max_size=A.n)
        x = RealPoint.from_pi(data.draw(coords))
        M = data.draw(st.integers(1, 6))
        back = [
            m for m in range(1, M + 1)
            if x.pi_coords in (b_transform(A, x, -m).pi_coords, b_transform(A, x, m).pi_coords)
        ]
        assert back == ([] if any(x.pi_coords) else list(range(1, M + 1)))


class TestCommutant:
    def _step(self):
        return [
            (Box((Fraction(1),), (Fraction(2),)), complex(1.0)),
            (Box((Fraction(-2),), (Fraction(-1),)), complex(5.0)),
        ]

    def test_constant_multiplier_commutes(self):
        rng = random.Random(14)
        pieces = invariant_step_extension(
            [(b, complex(1.0)) for b in E.boxes], A2, 6
        )
        for _ in range(10):
            f = random_subordinate(rng, E, A2, k_lo=-2, k_hi=2)
            assert commutator_with_dilation(pieces, f) < 1e-12

    def test_invariant_step_commutes(self):
        rng = random.Random(15)
        pieces = invariant_step_extension(self._step(), A2, 6)
        for _ in range(25):
            f = random_subordinate(rng, E, A2, k_lo=-3, k_hi=3)
            assert commutator_with_dilation(pieces, f) < 1e-10
            v = AdicVector.of(A2, [rng.randint(-4, 4)])
            assert commutator_with_modulation(pieces, v, f) < 1e-10

    def test_unextended_multiplier_fails(self):
        # moving the support of f across the multiplier's support exposes it
        pieces = [(Box((Fraction(1),), (Fraction(2),)), complex(1.0))]
        witness = ModulatedBoxSum.indicator(A2, interval_set([(1, 2)]))
        norm = commutator_with_dilation(pieces, witness)
        assert norm == pytest.approx(math.sqrt(math.pi))

    def test_noninvariant_witness_search(self):
        from waverep.operators import find_noninvariant_witness

        pieces = [(Box((Fraction(1),), (Fraction(2),)), complex(1.0))]
        found = find_noninvariant_witness(pieces, A2)
        assert found is not None
        f, norm = found
        assert norm > 0.1
        # and the reported witness really certifies the failure
        assert commutator_with_dilation(pieces, f) == norm

    def test_invariant_extension_defeats_search(self):
        from waverep.operators import find_noninvariant_witness

        pieces = invariant_step_extension(self._step(), A2, 8)
        # vectors must stay where the finite extension is defined
        valid = E.dilate(A2, -6)
        for j in range(-5, 7):
            valid = valid.union(E.dilate(A2, j))
        assert find_noninvariant_witness(pieces, A2, j_span=3, within=valid) is None

    def test_multiply_step_restricts(self):
        pieces = [(Box((Fraction(1),), (Fraction(2),)), complex(2.0))]
        f = ModulatedBoxSum.indicator(A2, interval_set([(0, 4)]))
        g = multiply_step(pieces, f)
        assert g.support().same_set(interval_set([(1, 2)]))
        assert g.norm_sq() == pytest.approx(4 * math.pi)


class TestInteriorGuards:
    def test_different_shifts_differ_by_the_diameter(self):
        phases = {k: 1 + 0j for k in range(-2, 3)}
        assert interior_deviation(FiberOperator(1, phases), FiberOperator(-1, phases)) == 2.0

    def test_no_common_block(self):
        m1, m2 = FiberOperator(0, {0: 1 + 0j, 1: 1j}), FiberOperator(0, {2: 1 + 0j})
        with pytest.raises(WindowTooSmall, match="no common interior block"):
            interior_deviation(m1, m2)

    @pytest.mark.parametrize("m, gm, K", [(3, 0, 3), (2, 1, 3), (0, 2, 1), (-1, -1, 2)])
    def test_orbit_shift_window_too_small(self, m, gm, K):
        x = RealPoint.from_pi([Fraction(3, 2)])
        with pytest.raises(WindowTooSmall, match="window too small for the requested orbit step"):
            find_orbit_shift(x, m, GroupElement.of(A2, [1], 0, gm), K, A2)
