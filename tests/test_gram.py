import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    axis_permuted,
    box_sets,
    diagonal_matrices,
    product_set,
    ref_completeness_defect,
    ref_gram_closed_form,
    ref_gram_keyed,
    ref_gram_quadrature,
    ref_gram_sampled_per_label,
    sign_flipped,
)
from waverep import gram
from waverep.boxes import Box, interval_set
from waverep.funcs import ModulatedBoxSum
from waverep.gram import GramSpec, eval_msf_wavelet, gram_matrix
from waverep.groups import validate_dilation
from waverep.spectral import meeting_gaps
from waverep.tiling import shannon_set

A2 = validate_dilation([[2]])
E = shannon_set()


def shannon_psi(t: float) -> float:
    # direct Fourier inversion of the normalized Shannon indicator
    if abs(t) < 1e-12:
        return 1.0
    return (math.sin(2 * math.pi * t) - math.sin(math.pi * t)) / (math.pi * t)


class TestWaveletEval:
    def test_value_at_zero(self):
        assert eval_msf_wavelet(E, [0.0]) == pytest.approx(1.0)

    def test_committed_value_at_half(self):
        got = eval_msf_wavelet(E, [0.5])
        assert got.real == pytest.approx(-2 / math.pi)
        assert abs(got.imag) < 1e-12

    def test_matches_closed_form_on_grid(self):
        for t in np.linspace(-3, 3, 41):
            got = eval_msf_wavelet(E, [t])
            assert got.real == pytest.approx(shannon_psi(float(t)), abs=1e-10)

    def test_real_for_symmetric_set(self):
        for t in (0.1, 0.37, 1.93, -2.4):
            assert abs(eval_msf_wavelet(E, [t]).imag) < 1e-12

    def test_tiny_argument_branch(self):
        # removable singularity: continuous through t = 0
        assert eval_msf_wavelet(E, [2.0**-50]) == pytest.approx(1.0)


class TestGram:
    def test_shannon_identity(self):
        res = gram_matrix(GramSpec(E, A2, m_max=2, v_max=8))
        assert res.mode == "closed-form"
        assert res.max_deviation < 1e-12
        assert res.warning is None

    def test_diagonal_exactly_one(self):
        res = gram_matrix(GramSpec(E, A2, m_max=1, v_max=2))
        assert all(res.matrix[i, i] == 1.0 for i in range(len(res.labels)))

    def test_cross_scale_exact_zero(self):
        res = gram_matrix(GramSpec(E, A2, m_max=2, v_max=2))
        for i, (m, v) in enumerate(res.labels):
            for j, (mp, vp) in enumerate(res.labels):
                if m != mp:
                    assert res.matrix[i, j] == 0

    def test_same_scale_lattice_offsets_exact_zero(self):
        res = gram_matrix(GramSpec(E, A2, m_max=0, v_max=6))
        for i, (m, v) in enumerate(res.labels):
            for j, (mp, vp) in enumerate(res.labels):
                if i != j:
                    assert res.matrix[i, j] == 0

    def test_hermitian_with_unit_diagonal(self):
        res = gram_matrix(GramSpec(interval_set([(0, 2)]), A2, m_max=1, v_max=3))
        assert np.array_equal(res.matrix, res.matrix.conj().T)
        assert all(res.matrix[i, i] == 1.0 for i in range(len(res.labels)))

    def test_overlapping_set_fails_with_witness(self):
        res = gram_matrix(GramSpec(interval_set([(0, 2)]), A2, m_max=1, v_max=2))
        assert res.max_deviation > 1e-3
        assert res.warning is not None

    def test_quadrature_oracle_cross_check(self):
        # independent Simpson quadrature for same-scale entries
        res = gram_matrix(GramSpec(E, A2, m_max=2, v_max=8))
        xs = []
        for a, b in ((-2 * math.pi, -math.pi), (math.pi, 2 * math.pi)):
            xs.append(np.linspace(a, b, 5001))
        mu = 2 * math.pi

        def same_scale_entry(w):
            total = 0.0 + 0j
            for grid in xs:
                vals = np.exp(-1j * w * grid)
                from scipy.integrate import simpson

                total += simpson(vals, x=grid)
            return total / mu

        idx = {lab: i for i, lab in enumerate(res.labels)}
        for m in (-2, 0, 1):
            for v in (-8, -3, 0, 2, 8):
                for vp in (-7, 0, 5):
                    i, j = idx[(m, (v,))], idx[(m, (vp,))]
                    assert abs(res.matrix[i, j] - same_scale_entry(v - vp)) < 1e-6

    def test_2d_product_set_gram(self):
        A = validate_dilation([[2, 0], [0, 2]])
        E2 = product_set(E, E)
        res = gram_matrix(GramSpec(E2, A, m_max=1, v_max=1))
        assert res.max_deviation < 1e-12

    def test_quadrature_fallback_non_diagonal(self):
        A = validate_dilation([[0, 2], [2, 0]])
        E2 = product_set(E, E)
        res = gram_matrix(GramSpec(E2, A, m_max=0, v_max=1))
        assert res.mode == "quadrature"
        # coarse quadrature: only a sanity-level agreement is claimed
        assert res.max_deviation < 0.2

    def test_quadrature_negative_scale(self):
        # the (m, v) vector lives on B^m E; m < 0 must sample through B^{-m},
        # not B^{-|m|}, or the m = -1 rows land off the set (deviation 15)
        A = validate_dilation([[0, 2], [2, 0]])
        res = gram_matrix(GramSpec(product_set(E, E), A, m_max=1, v_max=1))
        assert res.mode == "quadrature"
        assert res.max_deviation < 1e-12


def assert_bit_identical(got: np.ndarray, want: np.ndarray):
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def cross_scale_blocks(spec: GramSpec, matrix: np.ndarray) -> tuple[bool, bool]:
    """(some cross-scale block is all zero, some cross-scale block is not)."""
    labels = spec.labels()
    scales = range(-spec.m_max, spec.m_max + 1)
    zero = nonzero = False
    for m in scales:
        for mp in scales:
            if m == mp:
                continue
            rows = [i for i, (a, _) in enumerate(labels) if a == m]
            cols = [j for j, (b, _) in enumerate(labels) if b == mp]
            if np.any(matrix[np.ix_(rows, cols)]):
                nonzero = True
            else:
                zero = True
    return zero, nonzero


class TestGroupStructure:
    """The keyed closed form against the all-pairs evaluation: equal to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(E=box_sets(1), A=diagonal_matrices(1), m_max=st.integers(0, 2), v_max=st.integers(0, 3))
    def test_bit_identical_1d(self, E, A, m_max, v_max):
        spec = GramSpec(E, A, m_max, v_max)
        assert_bit_identical(gram_matrix(spec).matrix, ref_gram_closed_form(spec))

    @settings(max_examples=12, deadline=None)
    @given(E=box_sets(2), A=diagonal_matrices(2), m_max=st.integers(0, 1), v_max=st.integers(0, 1))
    def test_bit_identical_2d(self, E, A, m_max, v_max):
        spec = GramSpec(E, A, m_max, v_max)
        assert_bit_identical(gram_matrix(spec).matrix, ref_gram_closed_form(spec))

    @pytest.mark.parametrize(
        "E, A, zero, nonzero",
        [
            (E, A2, True, False),
            (interval_set([(0, 2)]), A2, False, True),
            # B E meets E, B^2 E does not
            (interval_set([(-3, -1), (1, 3)]), validate_dilation([[-2]]), True, True),
            (product_set(E, E), validate_dilation([[2, 0], [0, -2]]), True, False),
            (
                product_set(interval_set([(0, 2)]), interval_set([(-1, 1)])),
                validate_dilation([[2, 0], [0, 3]]),
                False,
                True,
            ),
        ],
    )
    def test_zero_and_nonzero_cross_scale_blocks(self, E, A, zero, nonzero):
        spec = GramSpec(E, A, m_max=1, v_max=2 if A.n == 1 else 1)
        got = gram_matrix(spec).matrix
        assert_bit_identical(got, ref_gram_closed_form(spec))
        assert cross_scale_blocks(spec, got) == (zero, nonzero)

    @pytest.mark.parametrize(
        "A",
        [[[0, 2], [2, 0]], [[0, -2], [2, 0]], [[1, 1], [-1, 1]]],
    )
    @pytest.mark.parametrize("E", [product_set(E, E), product_set(E, interval_set([(0, 2)]))])
    def test_quadrature_product_matches_loop(self, A, E):
        spec = GramSpec(E, validate_dilation(A), m_max=1, v_max=1)
        got = gram_matrix(spec)
        assert got.mode == "quadrature"
        assert np.max(np.abs(got.matrix - ref_gram_quadrature(spec))) <= 1e-14



class TestQuadratureSamplesPerScale:
    """Masks and weights formed once per scale against every label sampled on its own: equal to the byte."""

    @pytest.mark.parametrize("m_max", [0, 1, 2])  # at m_max 2 several scales share the grid
    @pytest.mark.parametrize(
        "A",
        [[[0, 2], [2, 0]], [[0, -2], [2, 0]], [[1, 1], [-1, 1]], [[1, -1], [1, 1]]],
        ids=["swap", "rotation", "twist", "twist-t"],
    )
    def test_bytes_equal_per_label_reference(self, A, m_max):
        spec = GramSpec(product_set(E, E), validate_dilation(A), m_max=m_max, v_max=1)
        got = gram_matrix(spec)
        assert got.mode == "quadrature"
        assert got.matrix.tobytes() == ref_gram_sampled_per_label(spec).tobytes()


_OVERLAPPING = [
    # B E meets E for A = -2, and B^2 E does not
    (interval_set([(-3, -1), (1, 3)]), [[-2]]),
    # every dilate by 2 meets E
    (interval_set([(Fraction(1, 3), 3)]), [[2]]),
    (product_set(interval_set([(0, 2)]), interval_set([(-1, 1)])), [[2, 0], [0, 3]]),
    (product_set(interval_set([(-3, -1), (1, 3)]), interval_set([(0, 2)])), [[-2, 0], [0, 2]]),
]


class TestTermPairsPerScalePair:
    """Term pairs formed once per (m, m') against one pairing per key: equal to the byte."""

    @settings(max_examples=40, deadline=None)
    @given(E=box_sets(1), A=diagonal_matrices(1), m_max=st.integers(0, 2), v_max=st.integers(0, 8))
    def test_bytes_equal_keyed_reference_1d(self, E, A, m_max, v_max):
        spec = GramSpec(E, A, m_max, v_max)
        assert gram_matrix(spec).matrix.tobytes() == ref_gram_keyed(spec).tobytes()

    @settings(max_examples=15, deadline=None)
    @given(E=box_sets(2), A=diagonal_matrices(2), m_max=st.integers(0, 1), v_max=st.integers(0, 2))
    def test_bytes_equal_keyed_reference_2d(self, E, A, m_max, v_max):
        spec = GramSpec(E, A, m_max, v_max)
        assert gram_matrix(spec).matrix.tobytes() == ref_gram_keyed(spec).tobytes()

    @pytest.mark.parametrize("E, A", _OVERLAPPING)
    def test_overlapping_dilates(self, E, A):
        spec = GramSpec(E, validate_dilation(A), m_max=2 if len(A) == 1 else 1, v_max=3)
        got = gram_matrix(spec).matrix
        assert got.tobytes() == ref_gram_keyed(spec).tobytes()
        assert cross_scale_blocks(spec, got)[1]  # some gap meets, so some cross-scale entry is not 0

    @pytest.mark.parametrize("E, A", _OVERLAPPING)
    def test_box_intersections_do_not_grow_with_v_max(self, E, A, monkeypatch):
        # the boxes meet on integer grids: no Box.intersect at all, and one pass per unordered block
        passes, intersect = [], []
        grid_pairs = gram.grid_pairs
        monkeypatch.setattr(gram, "grid_pairs", lambda *args: passes.append(1) or grid_pairs(*args))
        monkeypatch.setattr(Box, "intersect", lambda self, other: intersect.append(1))
        counts = []
        for v_max in (2, 8):
            passes.clear()
            gram_matrix(GramSpec(E, validate_dilation(A), m_max=1, v_max=v_max))
            counts.append(len(passes))
        assert counts[0] == counts[1] == 6 and not intersect

    def test_keys_beyond_int64_stay_exact(self):
        # every gap |d| <= 42 meets, and the key 3^42 v - v' of gap 42 passes 2^63
        A = validate_dilation([[3]])
        spec = GramSpec(interval_set([(Fraction(1, 3**21), 3**21)]), A, m_max=21, v_max=2)
        _, values = gram._key_table(A, 42, range(-2, 3))
        assert max(map(abs, values[0])) == 2 * 3**42 + 2 > 2**63
        assert all(type(x) is int for x in values[0])
        assert gram_matrix(spec).matrix.tobytes() == ref_gram_keyed(spec).tobytes()

    def test_mixed_sign_axes(self):
        E2 = product_set(interval_set([(Fraction(1, 16), 16)]), interval_set([(-27, 27)]))
        spec = GramSpec(E2, validate_dilation([[2, 0], [0, -3]]), m_max=2, v_max=2)
        got = gram_matrix(spec).matrix
        assert got.tobytes() == ref_gram_keyed(spec).tobytes()
        assert cross_scale_blocks(spec, got)[1]


def distinct_keys(spec: GramSpec) -> set:
    """The keys (m, m', A^M w) of the entries i < j whose gap meets, formed as ``ref_gram_keyed`` forms them."""
    A, labels = spec.A, spec.labels()
    gaps = set(meeting_gaps(spec.E, A, -2 * spec.m_max, 2 * spec.m_max))
    diag = [A.entries[k][k] for k in range(A.n)]
    keys = set()
    for i, (m, v) in enumerate(labels):
        for mp, vp in labels[i + 1:]:
            if mp - m in gaps:
                top = max(m, mp)
                w = tuple(a ** (top - m) * x - a ** (top - mp) * y for a, x, y in zip(diag, v, vp))
                keys.add((m, mp, w))
    return keys


class TestOnePairingPerKey:
    """One pairing per distinct key above the diagonal, and term pairs only for blocks that have such keys."""

    @pytest.mark.parametrize(
        "E, A, m_max, v_max, count",
        [
            (interval_set([(-3, -1), (1, 3)]), [[-2]], 2, 3, 162),
            (E, [[2]], 2, 5, 50),
            (product_set(interval_set([(0, 2)]), interval_set([(-1, 1)])), [[2, 0], [0, 3]], 1, 2, 1280),
            (E, [[2]], 2, 0, 0),
        ],
    )
    def test_pairings_equal_distinct_keys(self, E, A, m_max, v_max, count, monkeypatch):
        shifts = []
        pairing = gram.pairing

        def counting(pairs, shift=None):
            if shift is not None:
                shifts.append(shift)
            return pairing(pairs, shift)

        monkeypatch.setattr(gram, "pairing", counting)
        spec = GramSpec(E, validate_dilation(A), m_max, v_max)
        gram_matrix(spec)
        assert len(shifts) == len(distinct_keys(spec)) == count

    @pytest.mark.parametrize("E, A", _OVERLAPPING)
    def test_no_term_pairs_for_blocks_below_the_diagonal(self, E, A, monkeypatch):
        calls = []
        grid_pairs = gram.grid_pairs

        def counting(mine, theirs, scales):
            calls.append((mine[0][2], theirs[0][2]))  # the coefficients |det|^(-m/2) name the scales
            return grid_pairs(mine, theirs, scales)

        monkeypatch.setattr(gram, "grid_pairs", counting)
        spec = GramSpec(E, validate_dilation(A), m_max=1, v_max=1)
        gram_matrix(spec)
        # each unordered block {m, m'} forms its term pairs in one pass, met or not: each scale
        # once with itself for its norm, and each m < m' once for the blocks (m, m') and (m', m)
        scales = range(-1, 2)
        base = ModulatedBoxSum.indicator(spec.A, spec.E)
        index = {base.dilated(m).terms[0].coef: s for s, m in enumerate(scales)}
        assert len(index) == len(scales)
        formed = sorted((index[a], index[b]) for a, b in calls)
        assert formed == [(s, t) for s in range(len(scales)) for t in range(len(scales)) if s <= t]

    def test_one_pass_per_unordered_block_of_the_default_gram(self, monkeypatch):
        # the default Shannon gram (m 2, v 8): 5 scales, 15 unordered blocks, and the boxes of its
        # dilates meet without a Box.intersect
        passes, intersect = [], []
        grid_pairs = gram.grid_pairs
        monkeypatch.setattr(gram, "grid_pairs", lambda *args: passes.append(1) or grid_pairs(*args))
        monkeypatch.setattr(Box, "intersect", lambda self, other: intersect.append(1))
        assert gram_matrix(GramSpec(E, A2)).max_deviation == 0.0
        assert len(passes) == 15 and not intersect


def witness_reference(matrix: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The deviation and the first largest |G - I| in row-major order, from the complex difference.

    |z| is Python's ``abs`` (hypot), as ``gram_matrix`` takes it: numpy's own ``np.abs`` may differ
    from it by up to 2 ulp.
    """
    dev = np.array([[abs(z) for z in row] for row in (matrix - np.eye(len(matrix))).tolist()])
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return float(np.max(dev)), (int(i), int(j))


def assert_witness(res, tolerance: float):
    dev, at = witness_reference(res.matrix)
    assert res.max_deviation.hex() == dev.hex()
    assert (res.witness is None) == (res.warning is None) == (dev <= tolerance)
    if res.witness is not None:
        assert res.witness == at


class TestWitness:
    """Deviation, witness and verdict from one array against |G - I| formed as a complex difference."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(), dim=st.sampled_from([1, 2]), m_max=st.integers(0, 2), v_max=st.integers(0, 3),
        tolerance=st.sampled_from([1e-12, 0.1, 0.5, 2.0]),
    )
    def test_closed_form_matches_reference(self, data, dim, m_max, v_max, tolerance):
        E, A = data.draw(box_sets(dim)), data.draw(diagonal_matrices(dim))
        res = gram_matrix(GramSpec(E, A, min(m_max, 3 - dim), min(v_max, 4 - 2 * dim), tolerance))
        assert_witness(res, tolerance)

    @pytest.mark.parametrize("A", [[[0, 2], [2, 0]], [[0, -2], [2, 0]], [[1, 1], [-1, 1]]])
    @pytest.mark.parametrize("m_max, v_max", [(0, 1), (1, 1), (2, 0)])
    def test_quadrature_matches_reference(self, A, m_max, v_max):
        res = gram_matrix(GramSpec(product_set(E, E), validate_dilation(A), m_max, v_max))
        assert res.mode == "quadrature"
        assert_witness(res, 1e-12)

    def test_closed_form_overlap_ties_take_the_first(self):
        # B E meets E: 84 entries share the largest deviation; the first in row-major order is a
        # cross-scale one, and so is its transpose, which comes later
        res = gram_matrix(GramSpec(interval_set([(-3, -1), (1, 3)]), A2, m_max=1, v_max=20))
        dev = np.abs(res.matrix - np.eye(len(res.labels)))
        assert np.count_nonzero(dev == dev.max()) == 84
        assert res.witness == (1, 30) and res.labels[1] == (0, (-20,)) and res.labels[30] == (-1, (-10,))
        assert_witness(res, 1e-12)

    def test_quadrature_diagonal_witness(self):
        # the quadrature's m = -2 diagonal reads 16.0 (a known defect of its grid); it is the witness
        A = validate_dilation([[0, 2], [2, 0]])
        res = gram_matrix(GramSpec(product_set(E, E), A, m_max=2, v_max=0))
        assert res.witness == (0, 0) and res.labels[0] == (-2, (0, 0))
        assert res.matrix[0, 0] == 16.0 and res.max_deviation == 15.0
        assert_witness(res, 1e-12)

    def test_passing_family_has_no_witness(self):
        res = gram_matrix(GramSpec(E, A2, m_max=2, v_max=8))
        assert res.witness is None and res.warning is None and res.max_deviation == 0.0

    def test_nan_fails(self, monkeypatch):
        def nan(spec, labels):
            k = len(labels)
            return [complex("nan")], [[0] * k for _ in range(k)]

        monkeypatch.setattr(gram, "_gram_closed_form", nan)
        res = gram_matrix(GramSpec(E, A2, m_max=0, v_max=1))
        assert math.isnan(res.max_deviation) and res.witness == (0, 0) and res.warning is not None


class TestUnitarity:
    """ROADMAP item 9 (a) on the closed form: each D^m M_v is unitary, so every diagonal entry is 1
    and every same-scale block (m, m) is the block (0, 0)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), m_max=st.integers(1, 2), v_max=st.integers(0, 3))
    def test_unit_diagonal_and_equal_same_scale_blocks(self, data, dim, m_max, v_max):
        E, A = data.draw(box_sets(dim)), data.draw(diagonal_matrices(dim))
        res = gram_matrix(GramSpec(E, A, min(m_max, 3 - dim), min(v_max, 4 - 2 * dim)))
        assert res.mode == "closed-form"
        assert np.all(np.diag(res.matrix) == 1.0)
        scales = [m for m, _ in res.labels]
        blocks = {}
        for m in set(scales):
            rows = [i for i, b in enumerate(scales) if b == m]
            blocks[m] = res.matrix[np.ix_(rows, rows)]
        for m, block in blocks.items():
            assert np.max(np.abs(block - blocks[0])) <= 1e-12, m


class TestSignFlips:
    """ROADMAP item 9 (b), the Gram half: P = diag(+-1) commutes with a diagonal A, and
    1_E(P xi) = 1_PE(xi) turns M_v into M_Pv, so the Gram of PE is E's with v -> Pv."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), m_max=st.integers(0, 2), v_max=st.integers(0, 3))
    def test_gram_of_the_flipped_set(self, data, dim, m_max, v_max):
        E, A = data.draw(box_sets(dim)), data.draw(diagonal_matrices(dim))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
        PE = sign_flipped(E, signs)
        m_max, v_max = min(m_max, 3 - dim), min(v_max, 4 - 2 * dim)
        res, flipped = (gram_matrix(GramSpec(S, A, m_max, v_max)) for S in (E, PE))
        index = {label: i for i, label in enumerate(res.labels)}
        order = [index[m, tuple(s * x for s, x in zip(signs, v))] for m, v in flipped.labels]
        assert flipped.mode == res.mode == "closed-form"
        assert np.max(np.abs(flipped.matrix - res.matrix[np.ix_(order, order)])) <= 1e-12


class TestAxisPermutations:
    """ROADMAP item 9 (b), the Gram half: for a permutation P, 1_E(P^-1 xi) = 1_PE(xi) and
    P A P^-1 is diagonal with A's entries permuted, so the Gram of (PE, PAP^-1) is E's with v -> Pv."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]), v_max=st.integers(1, 2))
    def test_gram_of_the_permuted_set(self, data, dim, v_max):
        # unequal entries, so that P A P^-1 is another matrix than A
        A = data.draw(diagonal_matrices(dim).filter(lambda A: len({A.entries[i][i] for i in range(dim)}) == dim))
        E = data.draw(box_sets(2))
        if dim == 3:
            E = product_set(E, data.draw(box_sets(1)))
        perm = data.draw(st.permutations(range(dim)))
        PE, PA = axis_permuted(E, A, perm)
        v_max = min(v_max, 4 - dim)
        res, permuted = gram_matrix(GramSpec(E, A, 1, v_max)), gram_matrix(GramSpec(PE, PA, 1, v_max))
        index = {label: i for i, label in enumerate(res.labels)}
        # the label (m, w) of PE stands for (m, v) of E with w = Pv, that is w_i = v_perm[i]
        order = [index[m, tuple(w[perm.index(k)] for k in range(dim))] for m, w in permuted.labels]
        assert permuted.mode == res.mode == "closed-form"
        assert np.max(np.abs(permuted.matrix - res.matrix[np.ix_(order, order)])) <= 1e-12


class TestMeetingGaps:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), m_max=st.integers(0, 3))
    def test_gaps_are_the_dilates_that_meet(self, data, dim, m_max):
        # the gaps whose Gram blocks are evaluated, against intersecting E with every dilate
        E, A = data.draw(box_sets(dim)), data.draw(diagonal_matrices(dim))
        window = range(-2 * m_max, 2 * m_max + 1)
        want = [d for d in window if not E.intersect(E.dilate(A, d)).is_empty]
        assert meeting_gaps(E, A, -2 * m_max, 2 * m_max) == want


class TestCompleteness:
    """The completeness defect of the finite family, on the label-by-label reference."""

    def test_family_member_zero_defect(self):
        psi_hat = ModulatedBoxSum.indicator(A2, E, 1 / math.sqrt(2 * math.pi))
        d = ref_completeness_defect(E, A2, psi_hat, m_max=1, v_max=3)
        assert abs(d) < 1e-12

    def test_half_indicator_defect_decreases(self):
        f = ModulatedBoxSum.indicator(A2, interval_set([(1, 2)]))
        defects = [ref_completeness_defect(E, A2, f, 0, V) for V in (4, 8, 16, 32)]
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(defects, defects[1:]))
        assert all(d > -1e-12 for d in defects)

    def test_half_indicator_frozen_tail_value(self):
        # oracle: defect(V) = (4/pi) * sum of 1/v^2 over odd v > V
        f = ModulatedBoxSum.indicator(A2, interval_set([(1, 2)]))
        d = ref_completeness_defect(E, A2, f, 0, 64)
        tail = (4 / math.pi) * sum(1 / v**2 for v in range(65, 2_000_001, 2))
        assert d == pytest.approx(tail, abs=1e-6)
        assert d == pytest.approx(0.0099464, abs=1e-6)

    def test_out_of_window_function_keeps_norm(self):
        f = ModulatedBoxSum.indicator(A2, E.dilate(A2, 5))
        d = ref_completeness_defect(E, A2, f, 1, 4)
        assert d == pytest.approx(f.norm_sq())
